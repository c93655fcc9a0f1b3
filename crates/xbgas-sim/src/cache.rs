//! Set-associative cache model with LRU replacement, and the per-PE
//! memory model built from it.
//!
//! The paper's simulation environment configures each core with an 8-way
//! set-associative 16 KB L1 and 8 MB L2 (§5.1). This model tracks tags only
//! (data lives in [`crate::mem::Memory`]); it exists to produce hit/miss
//! statistics and latency, which drive the timing model.
//!
//! # Structure
//!
//! A [`Cache`] that has overflowed a set (see "Footprint") is an array of
//! sets, each one fixed block of eight ways: their tags (a line's tag plus
//! one, so 0 marks an invalid way), then their ticks (of each line's last
//! touch), 16 bytes per way. Every geometry uses that block — a set of
//! fewer ways leaves the rest *spare*: tag 0, which no key matches, and a
//! tick the victim search reads OR-ed with `u64::MAX`, so it never picks
//! one. All zeros is an empty cache of any geometry, so the arrays are
//! allocated zeroed and only the sets a run touches are paged in. A
//! lookup is one unrolled, branch-free pass over the block's tags,
//! whatever the associativity; a miss adds one over its ticks to pick the
//! victim. Replacement is true LRU: a set's ticks are unique and
//! increasing, a miss fills the way with the smallest one, and an invalid
//! way's tick is 0, below every valid one, so the first invalid way is
//! taken before any valid line is evicted.
//!
//! # Footprint
//!
//! LRU has the stack property (Mattson et al., 1970): a set holds the
//! `ways` most recently touched distinct lines that map to it. So until
//! some set has seen more than `ways` distinct lines since the last flush,
//! nothing has been evicted: a line hits exactly when it was touched
//! before, and the order of the touches is not yet observable. A cache
//! starts (and restarts at every flush) in *footprint mode*, recording
//! only which lines it holds:
//!
//! * per group of 64 consecutive lines, a presence mask and a 32-bit
//!   stamp of each line's last touch;
//! * per set, how many lines it holds.
//!
//! A run of lines then costs one mask operation per group, plus one count
//! per compulsory miss, whatever its length. The access that would give
//! a set `ways + 1` lines first *materialises* the footprint: every line
//! is written into its set, ordered by (stamp, tag) — the lines of one run
//! share a stamp and were touched in address order — and the cache goes
//! on with its set arrays until the next flush. Stamps number touches
//! (a run is one), not lines; should they run out, the footprint is
//! materialised early, which is always exact (the set arrays are the
//! reference form). The set arrays do not exist in footprint mode:
//! materialising allocates them and a flush frees them, so a cache that
//! never overflows a set never holds them.
//!
//! # The most-recent-line memo
//!
//! The cache remembers the line address of its last access. A repeat of
//! that line — the store of a load / op / store triad, the interior words
//! of a streamed line — is a hit by construction (nothing ran in between
//! that could have evicted it) and already carries the largest tick
//! anywhere in the cache, so restamping it would not change the relative
//! order within any set. The memo therefore skips the tag scan *and* the
//! tick, and only counts the hit. It may skip nothing else: any other
//! address takes the full path, and [`Cache::flush`] drops the memo with
//! the lines.
//!
//! [`MemModel`] is the one walk every local access takes — TLB, then L1,
//! L2 and DRAM — shared by the simulator ([`crate::machine::Machine`]) and
//! the runtime's per-PE clock.
//!
//! # Range walks
//!
//! [`MemModel::access_range`] prices a range as the walk line by line
//! that it replaces — the first line pays the demand miss, the rest are
//! streamed — without visiting every line:
//!
//! * The TLB takes one lookup per page; the page's other lines are the
//!   hits [`Tlb::access_run`] counts.
//! * The L1 takes the range as one run, and the L2 takes the L1's misses
//!   as runs, in line order. An L2 line wider than the L1's is touched
//!   once per run: its other L1 lines in the run are the memo hits they
//!   would have been.
//! * In footprint mode a run costs O(groups) (above).
//! * In set mode, a run of `n ≥ C = sets × ways` lines is priced per set.
//!   By the stack property each set ends holding its last `ways` lines of
//!   the run, in order, and that state is written directly. Only the
//!   first `C` lines (the *probe segment*) can hit: line `i ≥ C` follows
//!   `ways` distinct lines of the run in its set. If no set holds a tag
//!   from its share of the probe segment — `ways` consecutive tags — all
//!   `n` lines miss; otherwise the probe segment is walked line by line
//!   and the rest miss. A shorter run is walked line by line.
//!
//! Every outcome — each latency, each counter, the later LRU order — is
//! that of the line-by-line walk; `tests/memmodel_differential.rs` holds
//! it to one.

use crate::cost::CostConfig;
use crate::tlb::{Tlb, TlbStats};

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Latency of a hit in this level, in cycles.
    pub hit_cycles: u64,
}

impl CacheConfig {
    /// The paper's L1: 16 KB, 8-way (64 B lines, 1-cycle hits).
    pub const fn paper_l1() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_cycles: 1,
        }
    }

    /// The paper's L2: 8 MB, 8-way (64 B lines, 10-cycle hits).
    pub const fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_cycles: 10,
        }
    }

    /// Number of sets implied by the geometry.
    pub const fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Hit/miss counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Ways in every set block: the widest associativity a [`Cache`] takes.
const WAYS: usize = 8;

/// One set: its ways' tags (a line's tag plus one; 0 = invalid or spare),
/// then their ticks (0 = invalid); all zeros when empty.
type Set = [[u64; WAYS]; 2];

/// The way holding `key`, `WAYS` if none: one unrolled pass over the
/// set's tags, no branches.
#[inline(always)]
fn find(tags: &[u64; WAYS], key: u64) -> usize {
    let mut matches = 1u32 << WAYS;
    for (w, &tag) in tags.iter().enumerate() {
        matches |= ((tag == key) as u32) << w;
    }
    matches.trailing_zeros() as usize
}

/// The way with the smallest tick, `spare` OR-ed in: the first of equal
/// minima, never a spare way. One unrolled pass, no branches.
#[inline(always)]
fn victim(lru: &[u64; WAYS], spare: &[u64; WAYS]) -> usize {
    let (mut victim, mut oldest) = (0, u64::MAX);
    for w in 0..WAYS {
        let age = lru[w] | spare[w];
        victim = if age < oldest { w } else { victim };
        oldest = oldest.min(age);
    }
    victim
}

/// Bits `lo..=hi` of a `u64` (`lo ≤ hi < 64`).
#[inline(always)]
fn bits(lo: u32, hi: u32) -> u64 {
    (u64::MAX >> (63 - hi)) & (u64::MAX << lo)
}

/// `log2` of the lines in a footprint group: one bit of a `u64` each.
const GROUP_SHIFT: u32 = 6;

/// The footprint's record of 64 consecutive lines.
struct Group {
    /// The lines' address `>> GROUP_SHIFT`.
    key: u64,
    /// Bit `b` set: line `key << GROUP_SHIFT | b` is resident.
    mask: u64,
    /// Each resident line's last-touch stamp.
    stamps: [u32; 1 << GROUP_SHIFT],
}

/// A cache's content while no set has overflowed (module docs,
/// "Footprint"); holds no memory until its first line.
#[derive(Default)]
struct Footprint {
    groups: Vec<Group>,
    /// Open-addressed hash of `groups` by key (index plus one; 0 = empty
    /// slot), a power of two at least twice as long.
    index: Vec<u32>,
    /// Resident lines per set (empty before the first line).
    occupancy: Vec<u8>,
    /// The latest touch's stamp.
    stamp: u32,
    /// The group touched last.
    last: usize,
}

impl Footprint {
    /// Index in `groups` of group `key`, added empty if new.
    #[inline]
    fn group(&mut self, key: u64) -> usize {
        if self.groups.get(self.last).is_some_and(|g| g.key == key) {
            return self.last;
        }
        if 2 * (self.groups.len() + 1) > self.index.len() {
            self.grow();
        }
        let mask = self.index.len() - 1;
        let mut slot = Self::hash(key, mask);
        loop {
            match self.index[slot] {
                0 => {
                    self.groups.push(Group {
                        key,
                        mask: 0,
                        stamps: [0; 1 << GROUP_SHIFT],
                    });
                    self.index[slot] = self.groups.len() as u32;
                    break;
                }
                i if self.groups[i as usize - 1].key == key => break,
                _ => slot = (slot + 1) & mask,
            }
        }
        self.last = self.index[slot] as usize - 1;
        self.last
    }

    /// Fibonacci hashing: group keys arrive consecutively and scattered
    /// alike, and the product's upper half spreads both.
    #[inline(always)]
    fn hash(key: u64, mask: usize) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
    }

    /// Double the index (at least 64 slots) and rehash every group.
    fn grow(&mut self) {
        let len = (2 * self.index.len()).max(64);
        self.index = vec![0; len];
        for (i, g) in self.groups.iter().enumerate() {
            let mut slot = Self::hash(g.key, len - 1);
            while self.index[slot] != 0 {
                slot = (slot + 1) & (len - 1);
            }
            self.index[slot] = i as u32 + 1;
        }
    }

    /// Count a new line in set `set` of `sets`, of `ways` each; false,
    /// counting nothing, if the set is full — the line would overflow it.
    #[inline(always)]
    fn admit(&mut self, set: u64, sets: u64, ways: u8) -> bool {
        if self.occupancy.is_empty() {
            self.occupancy = vec![0; sets as usize];
        }
        let n = &mut self.occupancy[set as usize];
        let room = *n < ways;
        *n += room as u8;
        room
    }

    /// The stamp of a new touch; `None` once the stamps have run out.
    #[inline]
    fn next_stamp(&mut self) -> Option<u32> {
        self.stamp = self.stamp.checked_add(1)?;
        Some(self.stamp)
    }
}

/// The pending maximal run of missed lines of a [`Cache::touch`].
#[derive(Default)]
struct Misses(Option<(u64, u64)>);

impl Misses {
    /// Lines `a..=b` missed, after every line pushed so far.
    #[inline]
    fn push(&mut self, a: u64, b: u64, miss: &mut impl FnMut(u64, u64)) {
        match self.0 {
            Some((x, y)) if y + 1 == a => self.0 = Some((x, b)),
            Some((x, y)) => {
                miss(x, y);
                self.0 = Some((a, b));
            }
            None => self.0 = Some((a, b)),
        }
    }

    /// Hand over the pending run, if any.
    #[inline]
    fn finish(self, miss: &mut impl FnMut(u64, u64)) {
        if let Some((x, y)) = self.0 {
            miss(x, y);
        }
    }
}

/// A single tag-only set-associative cache with true-LRU replacement.
pub struct Cache {
    config: CacheConfig,
    /// The set arrays: empty in footprint mode, allocated (zeroed) when
    /// the footprint is materialised.
    sets: Vec<Set>,
    /// Per way: `u64::MAX` for a spare way, else 0 (see the module docs).
    spare: [u64; WAYS],
    set_mask: u64,
    /// `log2(sets)`: the line-address bits below the tag.
    set_shift: u32,
    line_shift: u32,
    tick: u64,
    /// Line address of the most recent access (see the module docs).
    last_line: Option<u64>,
    /// Whether a set has overflowed since the last flush: the set arrays,
    /// not the footprint, hold the lines (see the module docs).
    overflowed: bool,
    footprint: Footprint,
    stats: CacheStats,
}

impl Cache {
    /// Build an empty (all-invalid) cache.
    ///
    /// # Panics
    /// Panics if the geometry is inconsistent (zero or more than eight
    /// ways, capacity below one set, non-power-of-two sets or line size).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways > 0, "cache must have at least one way");
        assert!(config.ways <= WAYS, "cache may have at most {WAYS} ways");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = config.sets();
        assert!(
            sets > 0,
            "cache capacity must hold at least one set (ways x line size)"
        );
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        // A stored tag is the real one plus one, so the real one must
        // leave the top value free: it may not span all 64 address bits.
        assert!(
            sets * config.line_bytes > 1,
            "a one-set cache of one-byte lines leaves no spare tag value"
        );
        Cache {
            config,
            sets: Vec::new(),
            spare: std::array::from_fn(|w| if w < config.ways { 0 } else { u64::MAX }),
            set_mask: (sets - 1) as u64,
            set_shift: sets.trailing_zeros(),
            line_shift: config.line_bytes.trailing_zeros(),
            tick: 0,
            last_line: None,
            overflowed: false,
            footprint: Footprint::default(),
            stats: CacheStats::default(),
        }
    }

    /// Geometry of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (the tag state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Touch the line containing `addr`; returns `true` on a hit.
    ///
    /// On a miss the line is filled (allocate-on-miss for both reads and
    /// writes, as in a write-allocate cache), evicting the LRU way.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        if self.last_line == Some(line) {
            self.stats.hits += 1;
            return true;
        }
        self.last_line = Some(line);
        let hit = if self.overflowed {
            self.probe(line)
        } else {
            self.touch_line(line)
        };
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Set mode: touch `line` (no memo, no counters), filling it on a
    /// miss; `true` on a hit.
    #[inline(always)]
    fn probe(&mut self, line: u64) -> bool {
        let key = (line >> self.set_shift) + 1;
        let [tags, lru] = &mut self.sets[(line & self.set_mask) as usize];
        self.tick += 1;
        let mut way = find(tags, key);
        let hit = way < WAYS;
        if !hit {
            way = victim(lru, &self.spare);
            tags[way] = key;
        }
        lru[way] = self.tick;
        hit
    }

    /// Footprint mode: [`Cache::probe`] of one line.
    #[inline(never)]
    fn touch_line(&mut self, line: u64) -> bool {
        let (sets, ways) = (self.set_mask + 1, self.config.ways as u8);
        let fp = &mut self.footprint;
        let Some(stamp) = fp.next_stamp() else {
            self.materialise();
            return self.probe(line);
        };
        let g = fp.group(line >> GROUP_SHIFT);
        let b = (line & ((1 << GROUP_SHIFT) - 1)) as usize;
        let hit = fp.groups[g].mask >> b & 1 == 1;
        if !hit && !fp.admit(line & self.set_mask, sets, ways) {
            self.materialise();
            return self.probe(line);
        }
        let g = &mut fp.groups[g];
        g.mask |= 1 << b;
        g.stamps[b] = stamp;
        hit
    }

    /// Touch lines `p..=q` in order, as [`Cache::access`] would one by
    /// one, and hand each maximal run of missed lines to `miss`, in order
    /// (module docs, "Range walks").
    fn touch(&mut self, p: u64, q: u64, miss: &mut impl FnMut(u64, u64)) {
        let mut misses = Misses::default();
        let line_by_line = if q - p >= self.lines() - 1 {
            if !self.overflowed {
                self.materialise();
            }
            self.sweep(p, q, &mut misses, miss);
            None
        } else if self.overflowed {
            Some(p)
        } else {
            self.touch_footprint(p, q, &mut misses, miss)
        };
        if let Some(from) = line_by_line {
            self.probe_run(from, q, &mut misses, miss);
        }
        misses.finish(miss);
        self.last_line = Some(q);
    }

    /// Set mode: [`Cache::probe`] and count lines `from..=to` one by one,
    /// passing the misses on.
    fn probe_run(
        &mut self,
        from: u64,
        to: u64,
        misses: &mut Misses,
        miss: &mut impl FnMut(u64, u64),
    ) {
        let mut hits = 0;
        for line in from..=to {
            if self.probe(line) {
                hits += 1;
            } else {
                misses.push(line, line, miss);
            }
        }
        self.stats.hits += hits;
        self.stats.misses += to - from + 1 - hits;
    }

    /// Footprint mode: touch lines `p..=q` (fewer than the capacity).
    /// Returns the first line that would overflow a set, with the lines
    /// before it touched and the footprint materialised, or `None` once
    /// every line is touched.
    fn touch_footprint(
        &mut self,
        p: u64,
        q: u64,
        misses: &mut Misses,
        miss: &mut impl FnMut(u64, u64),
    ) -> Option<u64> {
        let (set_mask, ways) = (self.set_mask, self.config.ways as u8);
        let fp = &mut self.footprint;
        let Some(stamp) = fp.next_stamp() else {
            self.materialise();
            return Some(p);
        };
        for key in p >> GROUP_SHIFT..=q >> GROUP_SHIFT {
            let base = key << GROUP_SHIFT;
            let last = base | ((1 << GROUP_SHIFT) - 1);
            let mut range = bits((p.max(base) - base) as u32, (q.min(last) - base) as u32);
            let g = fp.group(key);
            let mut fresh = range & !fp.groups[g].mask;
            let mut overflow = None;
            let mut todo = fresh;
            while todo != 0 {
                let b = todo.trailing_zeros();
                if !fp.admit((base | b as u64) & set_mask, set_mask + 1, ways) {
                    overflow = Some(base | b as u64);
                    range &= (1 << b) - 1;
                    fresh &= range;
                    break;
                }
                todo &= todo - 1;
            }
            let g = &mut fp.groups[g];
            if range != 0 {
                g.mask |= range;
                let (lo, hi) = (range.trailing_zeros(), 63 - range.leading_zeros());
                g.stamps[lo as usize..=hi as usize].fill(stamp);
            }
            self.stats.hits += (range & !fresh).count_ones() as u64;
            self.stats.misses += fresh.count_ones() as u64;
            while fresh != 0 {
                let a = fresh.trailing_zeros();
                let b = a + (!(fresh >> a)).trailing_zeros() - 1;
                misses.push(base | a as u64, base | b as u64, miss);
                fresh &= !bits(a, b);
            }
            if overflow.is_some() {
                self.materialise();
                return overflow;
            }
        }
        None
    }

    /// Set mode: touch lines `p..=q`, at least the capacity, set by set
    /// (module docs, "Range walks").
    fn sweep(&mut self, p: u64, q: u64, misses: &mut Misses, miss: &mut impl FnMut(u64, u64)) {
        let (capacity, ways) = (self.lines(), self.config.ways as u64);
        // Set `s` takes `ways` lines of the probe segment, with `ways`
        // consecutive tags from that of its first.
        let resident = self.sets.iter().enumerate().any(|(s, [tags, _])| {
            let first = p + ((s as u64).wrapping_sub(p) & self.set_mask);
            let lo = (first >> self.set_shift) + 1;
            tags.iter().any(|&tag| tag.wrapping_sub(lo) < ways)
        });
        if resident {
            let probed = p + capacity - 1;
            self.probe_run(p, probed, misses, miss);
            if probed < q {
                misses.push(probed + 1, q, miss);
                self.stats.misses += q - probed;
            }
        } else {
            misses.push(p, q, miss);
            self.stats.misses += q - p + 1;
        }
        // Each set ends holding its last `ways` lines of the range, oldest
        // in way 0.
        let start = q - (capacity - 1);
        for i in 0..capacity {
            let line = start + i;
            let [tags, lru] = &mut self.sets[(line & self.set_mask) as usize];
            let way = (i >> self.set_shift) as usize;
            tags[way] = (line >> self.set_shift) + 1;
            lru[way] = self.tick + i + 1;
        }
        self.tick += capacity;
    }

    /// Leave footprint mode: allocate the set arrays, write every
    /// resident line into its set, numbered in (stamp, tag) order, and
    /// drop the footprint.
    #[cold]
    fn materialise(&mut self) {
        self.sets = vec![[[0; WAYS]; 2]; (self.set_mask + 1) as usize];
        let fp = &mut self.footprint;
        for g in &fp.groups {
            let mut m = g.mask;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                let line = g.key << GROUP_SHIFT | b as u64;
                let [tags, lru] = &mut self.sets[(line & self.set_mask) as usize];
                // The set holds at most `ways` lines: a real way is free.
                let way = find(tags, 0);
                tags[way] = (line >> self.set_shift) + 1;
                lru[way] = g.stamps[b] as u64;
            }
        }
        for (set, &n) in fp.occupancy.iter().enumerate() {
            let [tags, lru] = &mut self.sets[set];
            let n = n as usize;
            for i in 1..n {
                let mut j = i;
                while j > 0 && (lru[j - 1], tags[j - 1]) > (lru[j], tags[j]) {
                    lru.swap(j - 1, j);
                    tags.swap(j - 1, j);
                    j -= 1;
                }
            }
            for (w, tick) in lru[..n].iter_mut().enumerate() {
                *tick = w as u64 + 1;
            }
        }
        self.tick = self.tick.max(WAYS as u64);
        self.footprint = Footprint::default();
        self.overflowed = true;
    }

    /// Touch the lines holding L1 lines `a..=b` (of `1 << l1_shift`
    /// bytes), which missed the L1 in a row, as [`Cache::access`] would
    /// at each one's first byte. Returns the misses, and whether line
    /// `a`'s access was one.
    fn touch_below(&mut self, l1_shift: u32, a: u64, b: u64) -> (u64, bool) {
        let (mut misses, mut first_missed) = (0, false);
        if self.line_shift >= l1_shift {
            let d = self.line_shift - l1_shift;
            let (p, q) = (a >> d, b >> d);
            // A line's L1 lines after its first are memo hits.
            self.stats.hits += (b - a) - (q - p);
            self.touch(p, q, &mut |x, y| {
                misses += y - x + 1;
                first_missed |= x == p;
            });
        } else {
            let d = l1_shift - self.line_shift;
            for line in a..=b {
                self.touch(line << d, line << d, &mut |_, _| {
                    misses += 1;
                    first_missed |= line == a;
                });
            }
        }
        (misses, first_missed)
    }

    /// Capacity in lines.
    fn lines(&self) -> u64 {
        (self.set_mask + 1) * self.config.ways as u64
    }

    /// Invalidate every line (e.g. across a simulated context switch).
    pub fn flush(&mut self) {
        self.sets = Vec::new();
        self.overflowed = false;
        self.footprint = Footprint::default();
        self.last_line = None;
    }
}

/// A two-level data-cache hierarchy plus memory, producing access latencies.
pub struct MemHierarchy {
    /// First-level cache.
    pub l1: Cache,
    /// Second-level cache.
    pub l2: Cache,
    /// Latency of a DRAM access in cycles (paid on an L2 miss).
    pub mem_cycles: u64,
}

impl MemHierarchy {
    /// Build the paper's hierarchy: 16 KB L1, 8 MB L2, `mem_cycles` DRAM.
    pub fn paper(mem_cycles: u64) -> Self {
        MemHierarchy {
            l1: Cache::new(CacheConfig::paper_l1()),
            l2: Cache::new(CacheConfig::paper_l2()),
            mem_cycles,
        }
    }

    /// Simulate a data access and return its latency in cycles.
    #[inline]
    pub fn access(&mut self, addr: u64) -> u64 {
        self.access_streaming(addr, self.l2.config().hit_cycles + self.mem_cycles)
    }

    /// Simulate a *streaming* access: the line is filled as usual, but an
    /// L2 miss costs `stream_cycles` instead of the L2 lookup plus the
    /// full DRAM latency — the prefetcher has the line in flight. Used for
    /// the interior lines of contiguous bulk transfers.
    #[inline]
    pub fn access_streaming(&mut self, addr: u64, stream_cycles: u64) -> u64 {
        let l1 = self.l1.config().hit_cycles;
        if self.l1.access(addr) {
            l1
        } else if self.l2.access(addr) {
            l1 + self.l2.config().hit_cycles
        } else {
            l1 + stream_cycles
        }
    }
}

/// One PE's local-access timing model: a TLB in front of the cache
/// hierarchy. Every local access of the simulator and of the runtime's
/// per-PE clock is one [`MemModel::access`] or [`MemModel::access_range`].
pub struct MemModel {
    tlb: Tlb,
    hier: MemHierarchy,
    /// Cost of an L2 miss on an interior line of a contiguous range.
    stream_miss_cycles: u64,
}

impl MemModel {
    /// Build empty models with the geometries and latencies of `cost`.
    pub fn new(cost: &CostConfig) -> Self {
        MemModel {
            tlb: Tlb::new(cost.tlb),
            hier: MemHierarchy {
                l1: Cache::new(cost.l1),
                l2: Cache::new(cost.l2),
                mem_cycles: cost.mem_cycles,
            },
            stream_miss_cycles: cost.stream_miss_cycles,
        }
    }

    /// Latency in cycles of one data access at `addr`: the page walk, if
    /// the TLB misses, plus the cache-hierarchy latency.
    #[inline]
    pub fn access(&mut self, addr: u64) -> u64 {
        self.tlb.access(addr) + self.hier.access(addr)
    }

    /// Latency in cycles of touching the byte range `[addr, addr + len)`,
    /// priced as one access per L1 line: the first line pays the
    /// demand-miss latency, the rest are charged as prefetched streaming
    /// misses. The work is per page and per set, not per line (the module
    /// docs' "Range walks"); every outcome is that of a walk line by line.
    ///
    /// # Panics
    /// Panics if the range wraps the address space (its last byte would
    /// lie past `u64::MAX`).
    pub fn access_range(&mut self, addr: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let Some(end) = addr.checked_add(len as u64 - 1) else {
            panic!("range {addr:#x} + {len} wraps the address space");
        };
        let line_shift = self.hier.l1.line_shift;
        let (first, last) = (addr >> line_shift, end >> line_shift);
        if first == last {
            return self.access(first << line_shift);
        }
        self.walk(first, last)
    }

    /// Lines `first..=last`: one TLB lookup per page, the L1 as one run,
    /// the L2 per run of L1 misses.
    fn walk(&mut self, first: u64, last: u64) -> u64 {
        let line_shift = self.hier.l1.line_shift;
        let page_mask = self.tlb.config().page_bytes - 1;
        let mut total = 0;
        let mut line = first;
        loop {
            let a = line << line_shift;
            let run_last = last.min((a | page_mask) >> line_shift);
            total += self.tlb.access_run(a, run_last - line + 1);
            if run_last == last {
                break;
            }
            line = run_last + 1;
        }
        let MemHierarchy { l1, l2, mem_cycles } = &mut self.hier;
        let (l1_hit, l2_hit) = (l1.config.hit_cycles, l2.config.hit_cycles);
        let (demand, stream) = (l2_hit + *mem_cycles, self.stream_miss_cycles);
        total += (last - first + 1) * l1_hit;
        l1.touch(first, last, &mut |a, b| {
            let (misses, first_missed) = l2.touch_below(line_shift, a, b);
            let demand_missed = (a == first && first_missed) as u64;
            total += (b - a + 1 - misses) * l2_hit
                + (misses - demand_missed) * stream
                + demand_missed * demand;
        });
        total
    }

    /// Invalidate the TLB and both caches.
    pub fn flush(&mut self) {
        self.tlb.flush();
        self.hier.l1.flush();
        self.hier.l2.flush();
    }

    /// Snapshot of the (L1, L2, TLB) counters.
    pub fn stats(&self) -> (CacheStats, CacheStats, TlbStats) {
        (self.hier.l1.stats(), self.hier.l2.stats(), self.tlb.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16-byte lines = 128 bytes.
        Cache::new(CacheConfig {
            size_bytes: 128,
            ways: 2,
            line_bytes: 16,
            hit_cycles: 1,
        })
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::paper_l1();
        assert_eq!(c.sets(), 32); // 16384 / (8*64)
        let c = CacheConfig::paper_l2();
        assert_eq!(c.sets(), 16384); // 8 MiB / (8*64)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x40)); // cold miss
        assert!(c.access(0x40)); // now resident
        assert!(c.access(0x4F)); // same 16-byte line
        assert!(!c.access(0x50)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 sets * 16 B = 64 B).
        let (a, b, d) = (0x000, 0x040, 0x080);
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // a is now MRU; b is LRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a)); // a survived
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0x0);
        assert!(c.access(0x0));
        c.flush();
        assert!(!c.access(0x0));
    }

    #[test]
    fn working_set_behaviour() {
        // A working set that fits in the cache converges to a 100% hit rate.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 4,
            line_bytes: 16,
            hit_cycles: 1,
        });
        for _ in 0..4 {
            for addr in (0..1024u64).step_by(16) {
                c.access(addr);
            }
        }
        // 64 cold misses, 192 hits.
        assert_eq!(c.stats().misses, 64);
        assert_eq!(c.stats().hits, 192);

        // A working set 2x the cache with LRU round-robin sweep thrashes to 0%.
        let mut c = Cache::new(*c.config());
        for _ in 0..4 {
            for addr in (0..2048u64).step_by(16) {
                c.access(addr);
            }
        }
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn hierarchy_latencies() {
        let mut h = MemHierarchy::paper(100);
        // Cold access: L1 miss + L2 miss + DRAM.
        assert_eq!(h.access(0x1000), 1 + 10 + 100);
        // Hot in L1.
        assert_eq!(h.access(0x1000), 1);
        // Evict from tiny L1 by sweeping > 16 KB, then re-access: L2 hit.
        for addr in (0x1_0000..0x1_8000u64).step_by(64) {
            h.access(addr);
        }
        assert_eq!(h.access(0x1000), 1 + 10);
    }

    #[test]
    fn stats_hit_rate() {
        let s = CacheStats { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn capacity_below_one_set_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 8,
            line_bytes: 16,
            hit_cycles: 1,
        });
    }

    #[test]
    #[should_panic(expected = "line size must be a power of two")]
    fn zero_line_size_panics() {
        let _ = Cache::new(CacheConfig {
            line_bytes: 0,
            ..CacheConfig::paper_l1()
        });
    }

    #[test]
    #[should_panic(expected = "at most 8 ways")]
    fn more_than_eight_ways_panics() {
        let _ = Cache::new(CacheConfig {
            ways: 16,
            ..CacheConfig::paper_l2()
        });
    }

    #[test]
    fn range_walks_each_line_and_each_page_once() {
        let cost = CostConfig::paper();
        let mut m = MemModel::new(&cost);
        // Two pages, 128 lines, from cold: one demand miss, 127 streamed
        // lines, two page walks.
        let demand = cost.l1.hit_cycles + cost.l2.hit_cycles + cost.mem_cycles;
        let stream = cost.l1.hit_cycles + cost.stream_miss_cycles;
        assert_eq!(
            m.access_range(0x4000, 8192),
            2 * cost.tlb.miss_cycles + demand + 127 * stream
        );
        let (l1, l2, tlb) = m.stats();
        assert_eq!((l1.misses, l2.misses), (128, 128));
        assert_eq!(
            tlb,
            TlbStats {
                hits: 126,
                misses: 2
            }
        );
        assert_eq!(m.access_range(0x4000, 0), 0);
    }

    /// The second of two identical walks of `lines` lines from cold, as
    /// the parent line-by-line model priced it: (cycles, L1, L2, TLB).
    fn second_walk(lines: usize) -> (u64, CacheStats, CacheStats, TlbStats) {
        let mut m = MemModel::new(&CostConfig::paper());
        m.access_range(0x10_0000, lines * 64);
        let (l1, l2, tlb) = m.stats();
        let cycles = m.access_range(0x10_0000, lines * 64);
        let (l1b, l2b, tlbb) = m.stats();
        let delta = |a: CacheStats, b: CacheStats| CacheStats {
            hits: b.hits - a.hits,
            misses: b.misses - a.misses,
        };
        let tlb_delta = TlbStats {
            hits: tlbb.hits - tlb.hits,
            misses: tlbb.misses - tlb.misses,
        };
        (cycles, delta(l1, l1b), delta(l2, l2b), tlb_delta)
    }

    #[test]
    fn a_repeated_range_is_priced_in_closed_form() {
        let stats = |hits, misses| CacheStats { hits, misses };
        let tlb = |hits| TlbStats { hits, misses: 0 };
        assert_eq!(
            second_walk(4096),
            (45_056, stats(0, 4096), stats(4096, 0), tlb(4096))
        );
        assert_eq!(
            second_walk(257),
            (347, stats(248, 9), stats(9, 0), tlb(257))
        );
        assert_eq!(
            second_walk(200),
            (200, stats(200, 0), stats(0, 0), tlb(200))
        );
    }

    #[test]
    #[should_panic(expected = "wraps the address space")]
    fn a_range_that_wraps_the_address_space_panics() {
        MemModel::new(&CostConfig::paper()).access_range(u64::MAX - 31, 64);
    }

    #[test]
    fn a_range_may_end_on_the_last_byte() {
        let cost = CostConfig::paper();
        let mut m = MemModel::new(&cost);
        let demand = cost.l1.hit_cycles + cost.l2.hit_cycles + cost.mem_cycles;
        let stream = cost.l1.hit_cycles + cost.stream_miss_cycles;
        assert_eq!(
            m.access_range(u64::MAX - 127, 128),
            cost.tlb.miss_cycles + demand + stream
        );
    }

    /// A cache on its set arrays from the start: the reference for
    /// footprint mode, since materialising is exact at any time.
    fn on_sets(config: CacheConfig) -> Cache {
        let mut c = Cache::new(config);
        c.materialise();
        c
    }

    /// Touch each line of `lines` on `c` and on `reference`, asserting
    /// the same outcome.
    fn same_outcomes(c: &mut Cache, reference: &mut Cache, lines: impl IntoIterator<Item = u64>) {
        let shift = c.line_shift;
        for (i, line) in lines.into_iter().enumerate() {
            let addr = line << shift;
            assert_eq!(
                c.access(addr),
                reference.access(addr),
                "touch {i}, line {line}"
            );
        }
        assert_eq!(c.stats(), reference.stats());
    }

    #[test]
    fn an_overflow_materialises_the_footprint_in_lru_order() {
        let mut c = tiny();
        let mut reference = on_sets(*c.config());
        // Set 0 of 4 (2 ways): tag 1, then tag 0 — touch order is not
        // tag order — then a third line, which must evict tag 1.
        same_outcomes(&mut c, &mut reference, [4, 0]);
        assert!(!c.overflowed && c.sets.is_empty());
        same_outcomes(&mut c, &mut reference, [8]);
        assert!(c.overflowed);
        same_outcomes(&mut c, &mut reference, [0, 4, 8, 0, 12, 4]);
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 8 });
    }

    #[test]
    fn a_flush_empties_the_footprint_and_the_sets() {
        let mut c = tiny();
        c.access(0x40);
        c.flush();
        assert!(!c.access(0x40));
        for line in [8, 12, 16] {
            c.access(line << 4);
        }
        assert!(c.overflowed);
        c.flush();
        assert!(!c.overflowed && c.sets.is_empty());
        assert!(!c.access(16 << 4));
    }

    /// 64 sets of 4 ways: room for 256 lines.
    fn small() -> CacheConfig {
        CacheConfig {
            size_bytes: 4096,
            ways: 4,
            line_bytes: 16,
            hit_cycles: 1,
        }
    }

    /// A scrambled order over `0..n`, `len` long.
    fn scrambled(n: u64, len: usize) -> impl Iterator<Item = u64> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..len).map(move |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        })
    }

    #[test]
    fn a_footprint_holds_until_a_set_overflows() {
        let (mut c, mut reference) = (Cache::new(small()), on_sets(small()));
        // 200 lines, at most four per set: no overflow, however often.
        same_outcomes(&mut c, &mut reference, scrambled(200, 20_000));
        assert!(!c.overflowed);
        // Overflow every set, then read the order back.
        same_outcomes(&mut c, &mut reference, 200..400);
        assert!(c.overflowed);
        same_outcomes(&mut c, &mut reference, scrambled(400, 2_000));
    }

    #[test]
    fn stamps_running_out_materialise_the_footprint() {
        let (mut c, mut reference) = (Cache::new(small()), on_sets(small()));
        same_outcomes(&mut c, &mut reference, scrambled(200, 2_000));
        c.footprint.stamp = u32::MAX - 1;
        // The last stamp goes to a word; a run then finds none left.
        same_outcomes(&mut c, &mut reference, [250]);
        assert!(!c.overflowed);
        c.touch(150, 210, &mut |_, _| {});
        reference.touch(150, 210, &mut |_, _| {});
        assert!(c.overflowed, "no set is full, but the stamps ran out");
        assert_eq!(c.stats(), reference.stats());
        same_outcomes(&mut c, &mut reference, scrambled(400, 4_000));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 96,
            ways: 2,
            line_bytes: 16,
            hit_cycles: 1,
        });
    }
}
