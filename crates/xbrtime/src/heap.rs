//! The symmetric shared heap.
//!
//! Paper §3.3: *"This implementation provides both shared and private memory
//! segments within each processing element. Calls that allocate memory
//! within the shared address space are executed by each processing element.
//! These allocations share … the same offset from the beginning of the
//! shared segment. In this manner, the shared-data segment of each
//! processing element is kept fully symmetric with that of its peers."*
//!
//! [`HeapData`] is the raw storage for one PE's shared segment; it is
//! accessed from other PEs by one-sided transfers, exactly like the
//! memory behind a PGAS NIC. [`FreeList`] is the allocator: every PE calls
//! the allocation routines collectively and in the same order, so the
//! per-PE allocators assign identical offsets — symmetry by construction
//! (verified by tests and a runtime signature check in the fabric).
//!
//! A segment is demand-zero, as the OS hands over a real one: the arena
//! is allocated uninitialised and zeroed only where something reads
//! before it writes — above a high-water mark that dense use moves up,
//! and a 4 KiB page at a time where use is sparse — so a launch costs
//! what its PEs use rather than `shared_bytes × n_pes` of memset, and
//! pages nobody touches are never zeroed or faulted in.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Raw storage for one PE's shared segment.
///
/// # Safety contract
///
/// Cross-PE accesses are raw-pointer copies with **no** per-access
/// synchronisation, mirroring real one-sided RDMA/xBGAS semantics. Data
/// races are prevented at the *algorithm* level: the collectives in this
/// crate separate conflicting accesses with barriers (the paper places a
/// barrier at the end of every tree stage), and the put/get primitives
/// require the caller to uphold the same discipline. Heap bytes are plain
/// old data (`T: XbrType` is `Copy + 'static`), so torn reads from misuse
/// can produce stale or mixed *values*, never memory unsafety beyond the
/// data race itself — which the API documents as the caller's obligation,
/// the same obligation every PGAS runtime imposes.
///
/// The arena's own zeroing is not the caller's business. A byte is
/// *ready* — zero or written — when it lies below the high-water mark
/// `ready_to`, or on a 4 KiB page (`PAGE`) whose readiness bit is set; the
/// bitmap sits in the arena's own allocation, just past its last byte.
/// No unready byte is ever read. Whoever first touches an unready byte
/// readies it while holding `lock`: an access that starts by the end of
/// the mark's page moves the mark up to its end, zeroing the unready
/// bytes it does not write (a read, fold, AMO or probe through `window`
/// writes none; a pure overwrite through `fill` writes its window); an
/// access above that readies its own pages, zeroing the unready parts of
/// each that it does not write, and sets their bits. Bits and mark are
/// published with `Release` after those bytes are written, and the mark
/// then moves past every ready page above it. Accesses read the mark,
/// then the bits, with `Acquire`; one that finds all its bytes ready takes
/// no lock. Only unready bytes are ever zeroed, and neither the mark nor
/// a bit ever goes back, so zeroing never lands on a byte another PE has
/// written.
pub struct HeapData {
    ptr: *mut u8,
    len: usize,
    ready_to: AtomicUsize,
    lock: Mutex<()>,
}

/// Bytes per readiness page of a [`HeapData`] arena, as a host page.
const PAGE: usize = 4096;

// SAFETY: the heap is a raw byte arena. Concurrent access discipline is the
// documented contract above; the type itself carries no thread affinity.
unsafe impl Send for HeapData {}
// SAFETY: as for `Send`; the mark and the bits are atomics that only
// grow under `lock`, so sharing them is sound on its own.
unsafe impl Sync for HeapData {}

impl HeapData {
    /// Where the readiness bitmap of an arena of `len` bytes lies in its
    /// allocation: 8-byte aligned, one bit per page.
    fn bitmap(len: usize) -> Range<usize> {
        let at = len.next_multiple_of(8);
        at..at + len.div_ceil(64 * PAGE) * 8
    }

    /// The allocation's layout: the arena, then its bitmap. [`HEAP_ALIGN`]
    /// alignment makes every offset the [`FreeList`] hands out aligned for
    /// any element type (and for the fabric's `AtomicU64` views). `len`
    /// is checked on its own first, so that `bitmap` cannot wrap.
    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len, HEAP_ALIGN)
            .and_then(|_| Layout::from_size_align(Self::bitmap(len).end.max(1), HEAP_ALIGN))
            .expect("arena size overflows isize")
    }

    /// Allocate an arena of `len` bytes that reads zero until written.
    pub fn new(len: usize) -> Self {
        let layout = Self::layout(len);
        // SAFETY: `layout` has a non-zero size (`max(1)`).
        let ptr = unsafe { alloc(layout) };
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        let bits = Self::bitmap(len);
        // SAFETY: the bitmap lies inside the fresh allocation.
        unsafe { ptr.add(bits.start).write_bytes(0, bits.len()) };
        HeapData {
            ptr,
            len,
            ready_to: AtomicUsize::new(0),
            lock: Mutex::new(()),
        }
    }

    /// Size of the arena in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the arena has zero capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The end of the `n`-byte window at `off`.
    ///
    /// # Panics
    /// Panics if the window exceeds the arena.
    #[inline]
    fn end(&self, access: &str, off: usize, n: usize) -> usize {
        match off.checked_add(n) {
            Some(end) if end <= self.len => end,
            _ => panic!(
                "heap {access} [{off}, {off}+{n}) out of bounds (len {})",
                self.len
            ),
        }
    }

    /// Page `p`'s word in the readiness bitmap, and its bit there.
    #[inline]
    fn bit(&self, p: usize) -> (&AtomicU64, u64) {
        let at = Self::bitmap(self.len).start + p / 64 * 8;
        let word = self.ptr.wrapping_add(at);
        // SAFETY: the word lies in the bitmap, which is 8-byte aligned and
        // only ever accessed atomically.
        (unsafe { AtomicU64::from_ptr(word.cast()) }, 1 << (p % 64))
    }

    /// Whether page `p` is ready.
    #[inline]
    fn is_ready(&self, p: usize) -> bool {
        let (word, bit) = self.bit(p);
        word.load(Ordering::Acquire) & bit != 0
    }

    /// Whether every byte of the window `[off, end)` is ready.
    #[inline]
    fn ready(&self, off: usize, end: usize) -> bool {
        end <= self.ready_to.load(Ordering::Acquire)
            || off == end
            || (off / PAGE..end.div_ceil(PAGE)).all(|p| self.is_ready(p))
    }

    /// Ready `[off, end)` under the lock; `write` initialises `[from,
    /// end)`. An access that starts by the end of the mark's page moves
    /// the mark up to `end` (if a racing access has not already) and
    /// zeroes the unready bytes of `[mark, from)`;
    /// one above it readies its own pages, zeroing each unready one
    /// outside `[from, end)`. Then the bits and the mark are published.
    #[cold]
    fn ready_up(&self, off: usize, from: usize, end: usize, write: impl FnOnce()) {
        // A panic under the lock publishes nothing, so the arena stays
        // valid and the guard can be taken back.
        let _held = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let mark = self.ready_to.load(Ordering::Relaxed);
        let grow = off <= mark.next_multiple_of(PAGE);
        let span = match grow {
            true => mark..end.max(mark),
            false => off / PAGE * PAGE..(end.div_ceil(PAGE) * PAGE).min(self.len),
        };
        let pages = span.start / PAGE..span.end.div_ceil(PAGE);
        for p in pages.clone().filter(|&p| !self.is_ready(p)) {
            let (lo, hi) = ((p * PAGE).max(span.start), (p * PAGE + PAGE).min(span.end));
            let (a, b) = (from.clamp(lo, hi), end.clamp(lo, hi));
            // SAFETY: `[lo, a)` lies inside the arena, above the mark on an
            // unready page, which no one else touches while the lock is held.
            unsafe { self.ptr.add(lo).write_bytes(0, a - lo) };
            // SAFETY: so does `[b, hi)`.
            unsafe { self.ptr.add(b).write_bytes(0, hi - b) };
        }
        write();
        for (word, bit) in pages.filter(|_| !grow).map(|p| self.bit(p)) {
            word.fetch_or(bit, Ordering::Release);
        }
        let (mark, n) = (if grow { span.end } else { mark }, self.len.div_ceil(PAGE));
        let p = (mark / PAGE..n).find(|&p| !self.is_ready(p)).unwrap_or(n);
        let mark = mark.max(p * PAGE).min(self.len);
        self.ready_to.store(mark, Ordering::Release);
    }

    /// Pointer to the `n`-byte window of the arena at `off`, every byte of
    /// it initialised; `access` names the operation in the panic message.
    ///
    /// # Panics
    /// Panics if `off + n` exceeds the arena.
    #[inline]
    pub(crate) fn window(&self, access: &str, off: usize, n: usize) -> *mut u8 {
        let end = self.end(access, off, n);
        if !self.ready(off, end) {
            self.ready_up(off, end, end, || {});
        }
        // SAFETY: the window lies inside the allocation (just checked).
        unsafe { self.ptr.add(off) }
    }

    /// Overwrite the `n`-byte window at `off`: `write` gets its pointer
    /// and must write all `n` bytes. Unlike [`HeapData::window`], the
    /// window is not zeroed first; only the unready bytes around it that
    /// it readies are.
    ///
    /// # Panics
    /// Panics if `off + n` exceeds the arena.
    #[inline]
    pub(crate) fn fill(&self, off: usize, n: usize, write: impl FnOnce(*mut u8)) {
        let end = self.end("write", off, n);
        // SAFETY: the window lies inside the allocation (just checked).
        let dst = unsafe { self.ptr.add(off) };
        if self.ready(off, end) {
            write(dst);
        } else {
            self.ready_up(off, off, end, || write(dst));
        }
    }

    /// Hint the host CPU to pull the `n`-byte window at `off` into its
    /// cache. Nothing is read or written and no page is readied, so a
    /// hint on an unready page leaves the arena as it was.
    ///
    /// # Panics
    /// Panics if `off + n` exceeds the arena.
    #[inline]
    pub(crate) fn prefetch(&self, off: usize, n: usize) {
        self.end("prefetch", off, n);
        // SAFETY: `off` lies inside the allocation (just checked), and a
        // prefetch is only a hint: it never faults and no byte is read.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(self.ptr.add(off) as *const i8);
        }
    }

    /// Copy `n` bytes out of the arena at `off` into `dst`.
    ///
    /// # Safety
    /// `dst` must be valid for `n` bytes; the caller must uphold the
    /// race-freedom discipline documented on [`HeapData`].
    ///
    /// # Panics
    /// Panics if `off + n` exceeds the arena.
    pub(crate) unsafe fn read_into(&self, off: usize, dst: *mut u8, n: usize) {
        std::ptr::copy_nonoverlapping(self.window("read", off, n), dst, n);
    }

    /// Copy `n` bytes from `src` into the arena at `off`.
    ///
    /// # Safety
    /// `src` must be valid for `n` bytes; the caller must uphold the
    /// race-freedom discipline documented on [`HeapData`].
    ///
    /// # Panics
    /// Panics if `off + n` exceeds the arena.
    pub(crate) unsafe fn write_from(&self, off: usize, src: *const u8, n: usize) {
        self.fill(off, n, |d| std::ptr::copy_nonoverlapping(src, d, n));
    }

    /// Copy `n` bytes from this arena at `off` into `dst` at `dst_off` —
    /// the heap-to-heap move, with no bounce buffer. `dst` may be this
    /// same arena and the ranges may overlap (memmove semantics).
    ///
    /// # Safety
    /// The caller must uphold the race-freedom discipline documented on
    /// [`HeapData`].
    ///
    /// # Panics
    /// Panics if either range exceeds its arena.
    pub(crate) unsafe fn copy_to(&self, off: usize, dst: &HeapData, dst_off: usize, n: usize) {
        let src = self.window("read", off, n);
        dst.fill(dst_off, n, |d| std::ptr::copy(src, d, n));
    }
}

impl Drop for HeapData {
    fn drop(&mut self) {
        // SAFETY: `ptr` came from `alloc` with this same layout.
        unsafe { dealloc(self.ptr, Self::layout(self.len)) };
    }
}

impl fmt::Debug for HeapData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HeapData({} bytes)", self.len)
    }
}

/// Error returned when a symmetric allocation cannot be satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocError {
    /// Bytes requested (after alignment).
    pub requested: usize,
    /// Largest contiguous free block available.
    pub largest_free: usize,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "symmetric heap exhausted: requested {} bytes, largest free block {}",
            self.requested, self.largest_free
        )
    }
}

impl std::error::Error for AllocError {}

/// First-fit free-list allocator over a byte arena.
///
/// Deterministic: identical call sequences produce identical offsets, which
/// is what keeps the per-PE shared segments symmetric.
#[derive(Clone, Debug)]
pub struct FreeList {
    /// Sorted, coalesced list of `(offset, size)` free blocks.
    free: Vec<(usize, usize)>,
    capacity: usize,
    /// Bytes currently allocated.
    in_use: usize,
    /// Rounded size of every live allocation, keyed by offset. `free`
    /// validates the caller's size against this record: a mismatched size
    /// would otherwise silently splice a wrong-length hole into the free
    /// list and corrupt later allocations.
    allocated: BTreeMap<usize, usize>,
}

/// All allocations are aligned to this many bytes (covers every `XbrType`,
/// including 16-byte-conservative `long double` substitutes).
pub const HEAP_ALIGN: usize = 16;

impl FreeList {
    /// A free list covering `[0, capacity)`.
    pub fn new(capacity: usize) -> Self {
        FreeList {
            free: if capacity > 0 {
                vec![(0, capacity)]
            } else {
                Vec::new()
            },
            capacity,
            in_use: 0,
            allocated: BTreeMap::new(),
        }
    }

    /// Total arena capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Largest currently-free contiguous block.
    pub fn largest_free(&self) -> usize {
        self.free.iter().map(|&(_, s)| s).max().unwrap_or(0)
    }

    fn round(n: usize) -> usize {
        n.div_ceil(HEAP_ALIGN) * HEAP_ALIGN
    }

    /// Allocate `bytes` (rounded up to [`HEAP_ALIGN`]); returns the offset.
    pub fn alloc(&mut self, bytes: usize) -> Result<usize, AllocError> {
        let need = Self::round(bytes.max(1));
        for i in 0..self.free.len() {
            let (off, size) = self.free[i];
            if size >= need {
                if size == need {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + need, size - need);
                }
                self.in_use += need;
                self.allocated.insert(off, need);
                return Ok(off);
            }
        }
        Err(AllocError {
            requested: need,
            largest_free: self.largest_free(),
        })
    }

    /// Return a block previously handed out by [`FreeList::alloc`] with the
    /// same `bytes` argument.
    ///
    /// # Panics
    /// Panics when `off` is not a live allocation (double free or corrupted
    /// handle), when `bytes` disagrees with the size recorded at `alloc`
    /// time (wrong-size free), or when the block overlaps a free block or
    /// exceeds the arena.
    pub fn free(&mut self, off: usize, bytes: usize) {
        let size = Self::round(bytes.max(1));
        let recorded = self.allocated.remove(&off).unwrap_or_else(|| {
            panic!("double free / unknown offset: no live allocation at offset {off}")
        });
        assert!(
            recorded == size,
            "wrong-size free at offset {off}: allocated {recorded} bytes, freed {size} \
             (rounded from {bytes})"
        );
        assert!(
            off + size <= self.capacity,
            "free of [{off}, {off}+{size}) exceeds arena"
        );
        // Find insertion point to keep the list sorted.
        let idx = self.free.partition_point(|&(o, _)| o < off);
        if let Some(&(next_off, _)) = self.free.get(idx) {
            assert!(
                off + size <= next_off,
                "double free / overlap with free block at {next_off}"
            );
        }
        if idx > 0 {
            let (prev_off, prev_size) = self.free[idx - 1];
            assert!(
                prev_off + prev_size <= off,
                "double free / overlap with free block at {prev_off}"
            );
        }
        self.free.insert(idx, (off, size));
        self.in_use -= size;
        self.coalesce(idx);
    }

    fn coalesce(&mut self, idx: usize) {
        // Merge with successor first, then predecessor.
        if idx + 1 < self.free.len() {
            let (off, size) = self.free[idx];
            let (noff, nsize) = self.free[idx + 1];
            if off + size == noff {
                self.free[idx] = (off, size + nsize);
                self.free.remove(idx + 1);
            }
        }
        if idx > 0 {
            let (poff, psize) = self.free[idx - 1];
            let (off, size) = self.free[idx];
            if poff + psize == off {
                self.free[idx - 1] = (poff, psize + size);
                self.free.remove(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HeapData {
        /// The pages that are wholly ready, below the mark or by their bit.
        fn ready_pages(&self) -> Vec<usize> {
            let mark = self.ready_to.load(Ordering::Relaxed);
            (0..self.len.div_ceil(PAGE))
                .filter(|&p| (p * PAGE + PAGE).min(self.len) <= mark || self.is_ready(p))
                .collect()
        }
    }

    /// Write `src` into `h` at `off`.
    fn put(h: &HeapData, off: usize, src: &[u8]) {
        // SAFETY: `src` is valid for its length; the tests' threads write
        // disjoint bytes.
        unsafe { h.write_from(off, src.as_ptr(), src.len()) };
    }

    /// Every byte of `h` in `[off, off + n)`, read through `window`.
    fn bytes(h: &HeapData, off: usize, n: usize) -> Vec<u8> {
        let mut out = vec![0xAA; n];
        // SAFETY: `out` is valid for `n` bytes; no test reads a byte while
        // another thread writes it.
        unsafe { h.read_into(off, out.as_mut_ptr(), n) };
        out
    }

    #[test]
    fn heap_data_copy_roundtrip() {
        let h = HeapData::new(64);
        put(&h, 8, &[1, 2, 3, 4]);
        assert_eq!(bytes(&h, 8, 4), [1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "arena size overflows isize")]
    fn an_arena_past_isize_panics() {
        HeapData::new(usize::MAX - 4);
    }

    #[test]
    fn arena_base_is_heap_aligned() {
        for len in [0usize, 1, 24, 4096, 1 << 20] {
            let h = HeapData::new(len);
            assert_eq!(h.len(), len);
            assert_eq!(h.window("base", 0, 0) as usize % HEAP_ALIGN, 0, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "heap write [12, 12+8) out of bounds")]
    fn heap_to_heap_copy_checks_the_destination() {
        let (a, b) = (HeapData::new(32), HeapData::new(16));
        // SAFETY: single-threaded.
        unsafe { a.copy_to(0, &b, 12, 8) };
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn heap_data_bounds_checked() {
        put(&HeapData::new(16), 12, &[0; 8]);
    }

    #[test]
    fn fresh_arena_reads_zero_everywhere() {
        let h = HeapData::new(3 * PAGE);
        assert!(bytes(&h, PAGE + 100, 28).iter().all(|&b| b == 0));
        assert_eq!(h.ready_pages(), [1]);
        assert!(bytes(&h, 0, 3 * PAGE).iter().all(|&b| b == 0));
        assert_eq!(h.ready_pages(), [0, 1, 2]);
    }

    #[test]
    fn write_past_the_mark_leaves_the_gap_zero() {
        let h = HeapData::new(3 * PAGE);
        put(&h, PAGE + 96, &[7; 32]);
        assert_eq!(h.ready_pages(), [1]);
        let all = bytes(&h, 0, 3 * PAGE);
        assert!(all[..PAGE + 96].iter().all(|&b| b == 0));
        assert!(all[PAGE + 96..PAGE + 128].iter().all(|&b| b == 7));
        assert!(all[PAGE + 128..].iter().all(|&b| b == 0));
    }

    #[test]
    fn copy_into_a_fresh_arena_zeroes_the_gap() {
        let (a, b) = (HeapData::new(64), HeapData::new(64));
        put(&a, 0, &[3; 16]);
        // SAFETY: single-threaded.
        unsafe { a.copy_to(0, &b, 40, 16) };
        let got = bytes(&b, 0, 64);
        assert!(got[..40].iter().all(|&x| x == 0));
        assert!(got[40..56].iter().all(|&x| x == 3));
        assert!(got[56..].iter().all(|&x| x == 0));
    }

    #[test]
    fn a_small_write_initialises_only_itself() {
        // At the mark, a write moves the mark and zeroes nothing.
        let h = HeapData::new(2 << 20);
        put(&h, 0, &[1; 512]);
        assert_eq!(h.ready_to.load(Ordering::Relaxed), 512);
        assert_eq!(bytes(&h, 0, 512), vec![1u8; 512]);
        assert_eq!(h.ready_pages(), []);
        assert_eq!(h.ready_to.load(Ordering::Relaxed), 512);
    }

    #[test]
    fn a_write_above_the_mark_on_its_page_keeps_the_bytes_below() {
        let h = HeapData::new(2 * PAGE);
        put(&h, 0, &[1; 64]);
        put(&h, 100, &[2; 64]);
        let got = bytes(&h, 0, 2 * PAGE);
        let want = |i: usize| match i {
            0..64 => 1,
            100..164 => 2,
            _ => 0,
        };
        assert!(got.iter().enumerate().all(|(i, &b)| b == want(i)));
    }

    #[test]
    fn a_sparse_write_readies_only_its_pages() {
        let h = HeapData::new(4 << 20);
        let top = h.len() - PAGE - 32;
        put(&h, top, &[9; 64]);
        assert!(h.ready_pages().len() <= 2, "{:?}", h.ready_pages());
        assert!(bytes(&h, 0, top).iter().all(|&b| b == 0));
        assert_eq!(bytes(&h, top, 64), [9; 64]);
        assert!(bytes(&h, top + 64, PAGE - 32).iter().all(|&b| b == 0));
    }

    #[test]
    fn the_mark_climbs_over_ready_pages() {
        // 200 pages written whole in a scattered order that crosses bitmap
        // words and ends on a partial page: a page at the mark moves the
        // mark past it and past every ready page above; one above the mark
        // readies itself by its bit.
        let h = HeapData::new(200 * PAGE - 8);
        let mut written = [false; 200];
        for k in 0..200 {
            let p = (k * 67 + 130) % 200;
            let n = PAGE.min(h.len() - p * PAGE);
            put(&h, p * PAGE, &vec![p as u8; n]);
            written[p] = true;
            let run = written.iter().take_while(|&&w| w).count();
            let want = (run * PAGE).min(h.len());
            assert_eq!(h.ready_to.load(Ordering::Relaxed), want, "after page {p}");
        }
        for (i, b) in bytes(&h, 0, h.len()).into_iter().enumerate() {
            assert_eq!(b, (i / PAGE) as u8, "byte {i}");
        }
    }

    #[test]
    fn concurrent_extension_never_zeroes_a_written_byte() {
        // Chunk i belongs to thread i % 2. Each round both threads start
        // together on fresh pages: thread 0 fills its chunk while thread 1
        // reads the chunk above it as zero — a read that readies pages
        // next to the ones thread 0 is writing.
        const C: usize = 8 << 10;
        const ROUNDS: usize = 1_000;
        let h = HeapData::new(2 * C * ROUNDS);
        let start = std::sync::Barrier::new(2);
        let bad: Vec<usize> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|k| {
                    let (h, start) = (&h, &start);
                    s.spawn(move || {
                        let want = [(k == 0) as u8; C];
                        (0..ROUNDS)
                            .filter(|r| {
                                let mine = (2 * r + k) * C;
                                start.wait();
                                if k == 0 {
                                    put(h, mine, &want);
                                }
                                bytes(h, mine, C) != want
                            })
                            .count()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(bad, [0, 0], "rounds whose chunk read wrong, per thread");
        for (i, &b) in bytes(&h, 0, h.len()).iter().enumerate() {
            assert_eq!(b, (i / C).is_multiple_of(2) as u8, "byte {i}");
        }
    }

    #[test]
    fn writers_sharing_a_fresh_page_never_zero_each_other() {
        // Each round three threads start together on one fresh page: two
        // write disjoint quarters, one in each half, and each zeroes the
        // rest of the page if it gets there first; the third reads the
        // middle quarter as zero, which zeroes the whole page if it does.
        const ROUNDS: usize = 1_000;
        const Q: usize = PAGE / 4;
        let part = |k: usize| [Q / 2, 2 * Q + Q / 2, Q + Q / 2][k];
        let h = HeapData::new(ROUNDS * PAGE);
        let start = std::sync::Barrier::new(3);
        let bad: Vec<usize> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..3)
                .map(|k| {
                    let (h, start) = (&h, &start);
                    s.spawn(move || {
                        let want = [[1, 2, 0][k]; Q];
                        (0..ROUNDS)
                            .filter(|r| {
                                let mine = r * PAGE + part(k);
                                start.wait();
                                if k < 2 {
                                    put(h, mine, &want);
                                }
                                bytes(h, mine, Q) != want
                            })
                            .count()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(bad, [0, 0, 0], "rounds whose part read wrong, per thread");
        for (i, &b) in bytes(&h, 0, h.len()).iter().enumerate() {
            let want = (0..2).find(|&k| (part(k)..part(k) + Q).contains(&(i % PAGE)));
            assert_eq!(b, want.map_or(0, |k| k as u8 + 1), "byte {i}");
        }
    }

    #[test]
    fn a_prefetch_leaves_the_mark_where_it_was() {
        let h = HeapData::new(1 << 20);
        put(&h, 0, &[1; 64]);
        h.prefetch(4096, 8);
        h.prefetch(h.len() - 8, 8);
        assert_eq!(h.ready_to.load(Ordering::Relaxed), 64);
        assert_eq!(h.ready_pages(), []);
    }

    #[test]
    #[should_panic(expected = "heap prefetch [1048572, 1048572+8) out of bounds")]
    fn a_prefetch_past_the_arena_panics() {
        HeapData::new(1 << 20).prefetch((1 << 20) - 4, 8);
    }

    #[test]
    fn alloc_is_aligned_and_deterministic() {
        let mut a = FreeList::new(1024);
        let mut b = FreeList::new(1024);
        for sz in [1, 17, 32, 100] {
            let oa = a.alloc(sz).unwrap();
            let ob = b.alloc(sz).unwrap();
            assert_eq!(oa, ob, "same call sequence must yield same offsets");
            assert_eq!(oa % HEAP_ALIGN, 0);
        }
    }

    #[test]
    fn free_coalesces() {
        let mut a = FreeList::new(256);
        let x = a.alloc(64).unwrap();
        let y = a.alloc(64).unwrap();
        let z = a.alloc(64).unwrap();
        assert_eq!(a.in_use(), 192);
        a.free(x, 64);
        a.free(z, 64);
        assert_eq!(a.largest_free(), 64 + 64); // z + tail coalesced
        a.free(y, 64);
        assert_eq!(a.largest_free(), 256); // fully coalesced
        assert_eq!(a.in_use(), 0);
    }

    #[test]
    fn exhaustion_reports_largest_block() {
        let mut a = FreeList::new(128);
        let _ = a.alloc(64).unwrap();
        let e = a.alloc(128).unwrap_err();
        assert_eq!(e.requested, 128);
        assert_eq!(e.largest_free, 64);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let mut a = FreeList::new(128);
        let x = a.alloc(32).unwrap();
        a.free(x, 32);
        a.free(x, 32);
    }

    #[test]
    fn first_fit_reuses_freed_block() {
        let mut a = FreeList::new(256);
        let x = a.alloc(64).unwrap();
        let _y = a.alloc(64).unwrap();
        a.free(x, 64);
        let z = a.alloc(32).unwrap();
        assert_eq!(z, x, "first-fit should reuse the freed hole");
    }

    #[test]
    #[should_panic(expected = "wrong-size free")]
    fn wrong_size_free_detected() {
        let mut a = FreeList::new(256);
        let x = a.alloc(64).unwrap();
        // Freeing with a smaller size used to splice a short hole into the
        // free list silently; it must now panic against the recorded size.
        a.free(x, 32);
    }

    #[test]
    #[should_panic(expected = "wrong-size free")]
    fn oversize_free_detected() {
        let mut a = FreeList::new(256);
        let x = a.alloc(32).unwrap();
        a.free(x, 64);
    }

    #[test]
    fn same_rounded_size_free_is_accepted() {
        // 17 and 30 both round to 32: the recorded size is the rounded one,
        // so any byte count in the same alignment bucket is a correct free.
        let mut a = FreeList::new(256);
        let x = a.alloc(17).unwrap();
        a.free(x, 30);
        assert_eq!(a.in_use(), 0);
        assert_eq!(a.largest_free(), 256);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_after_realloc_of_neighbor_detected() {
        let mut a = FreeList::new(256);
        let x = a.alloc(32).unwrap();
        let _y = a.alloc(32).unwrap();
        a.free(x, 32);
        a.free(x, 32);
    }

    #[test]
    fn zero_sized_alloc_takes_one_unit() {
        let mut a = FreeList::new(64);
        let x = a.alloc(0).unwrap();
        let y = a.alloc(0).unwrap();
        assert_ne!(x, y);
    }
}
