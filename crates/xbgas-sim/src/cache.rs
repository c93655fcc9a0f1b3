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
//! A [`Cache`] is an array of sets, each one fixed block of eight ways:
//! their tags (a line's tag plus one, so 0 marks an invalid way), then
//! their ticks (of each line's last touch), 16 bytes per way. Every
//! geometry uses that block — a set of fewer ways leaves the rest
//! *spare*: tag 0, which no key matches, and a tick the victim search
//! reads OR-ed with `u64::MAX`, so it never picks one. All zeros is an
//! empty cache of any geometry, so its state is allocated zeroed and only
//! the sets a run touches are ever paged in. A lookup is one unrolled,
//! branch-free pass over the block's tags, whatever the associativity;
//! a miss adds one over its ticks to pick the victim. Replacement is true
//! LRU: ticks are unique and increasing, a miss fills the way with the
//! smallest one, and an invalid way's tick is 0, below every valid one,
//! so the first invalid way is taken before any valid line is evicted.
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
//! [`MemModel::access_range`] touches a range's lines in order, and a bulk
//! transfer's range is often many times the L1. With `C = sets × ways`
//! the L1's capacity in lines, two arguments let the walk skip L1 work
//! without changing any outcome:
//!
//! * **Past capacity, a line misses.** Line `i ≥ C` of a range (0-based)
//!   shares its set with lines `i − sets, …, i − C` of the same range:
//!   `ways` distinct lines touched since, so they are that set's `ways`
//!   most recent and line `i` is not resident. It skips the tag probe and
//!   only fills. If it also lies `C` or more lines before the range's
//!   end, lines `i + sets, …, i + C` fill its set `ways` more times and
//!   evict it, so the fill cannot be observed either: the line only
//!   counts a miss. The set's final content — the range's last `ways`
//!   lines in it, in order — is the same either way. The L2 and the TLB
//!   still see every line.
//! * **A back-to-back repeat is priced in closed form.** If a range covers
//!   the same lines as the model's previous access, and that access was a
//!   range spanning at most `l2.sets` L2 lines and `tlb.entries` pages
//!   whose walk had no L1 hit or fit in the L1, then in the repeat an L1
//!   set holding `k ≤ ways` of the range's lines hits all `k` and a set
//!   holding more misses all of them (LRU cycling); every L1 miss hits
//!   the L2, which saw every line of the first walk (no L1 hit) and holds
//!   at most one of them per set; every line hits the TLB. Each structure
//!   is re-touched in its previous order, so no recency order changes and
//!   no state is written: only the counters move.

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

/// A single tag-only set-associative cache with true-LRU replacement.
pub struct Cache {
    config: CacheConfig,
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
            sets: vec![[[0; WAYS]; 2]; sets],
            spare: std::array::from_fn(|w| if w < config.ways { 0 } else { u64::MAX }),
            set_mask: (sets - 1) as u64,
            set_shift: sets.trailing_zeros(),
            line_shift: config.line_bytes.trailing_zeros(),
            tick: 0,
            last_line: None,
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
        let line_addr = addr >> self.line_shift;
        if self.last_line == Some(line_addr) {
            self.stats.hits += 1;
            return true;
        }
        let [tags, lru] = &mut self.sets[(line_addr & self.set_mask) as usize];
        let hit = find(tags, (line_addr >> self.set_shift) + 1);
        if hit == WAYS {
            self.fill(addr);
            return false;
        }
        self.last_line = Some(line_addr);
        self.tick += 1;
        lru[hit] = self.tick;
        self.stats.hits += 1;
        true
    }

    /// [`Cache::access`] to a line the caller knows is absent: no memo
    /// check, no tag probe, a counted miss and a fill.
    #[inline]
    fn fill(&mut self, addr: u64) {
        let line_addr = addr >> self.line_shift;
        self.last_line = Some(line_addr);
        self.tick += 1;
        let key = (line_addr >> self.set_shift) + 1;
        let [tags, lru] = &mut self.sets[(line_addr & self.set_mask) as usize];
        let way = victim(lru, &self.spare);
        tags[way] = key;
        lru[way] = self.tick;
        self.stats.misses += 1;
    }

    /// Capacity in lines.
    fn lines(&self) -> u64 {
        (self.set_mask + 1) * self.config.ways as u64
    }

    /// Invalidate every line (e.g. across a simulated context switch).
    pub fn flush(&mut self) {
        self.sets.fill([[0; WAYS]; 2]);
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
        } else {
            l1 + self.below_l1(addr, stream_cycles)
        }
    }

    /// The L2 part of an L1 miss: the L2's hit latency, else `miss_cycles`.
    #[inline]
    fn below_l1(&mut self, addr: u64, miss_cycles: u64) -> u64 {
        if self.l2.access(addr) {
            self.l2.config().hit_cycles
        } else {
            miss_cycles
        }
    }
}

/// One PE's local-access timing model: a TLB in front of the cache
/// hierarchy. Every local access of the simulator and of the runtime's
/// per-PE clock is one [`MemModel::access`] (or one line of a
/// [`MemModel::access_range`]).
pub struct MemModel {
    tlb: Tlb,
    hier: MemHierarchy,
    /// Cost of an L2 miss on an interior line of a contiguous range.
    stream_miss_cycles: u64,
    /// First and last L1 line of the previous access, if it was a range
    /// the repeat rule may price (see the module docs).
    repeat: Option<(u64, u64)>,
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
            repeat: None,
        }
    }

    /// Latency in cycles of one data access at `addr`: the page walk, if
    /// the TLB misses, plus the cache-hierarchy latency.
    #[inline]
    pub fn access(&mut self, addr: u64) -> u64 {
        self.repeat = None;
        self.tlb.access(addr) + self.hier.access(addr)
    }

    /// Latency in cycles of touching the byte range `[addr, addr + len)`,
    /// one access per L1 line: the first line pays the demand-miss
    /// latency, the rest are charged as prefetched streaming misses. The
    /// TLB is consulted once per page; the range's other lines on that
    /// page are the hits [`Tlb::access_run`] counts without a lookup. L1
    /// work is skipped where its outcome is certain (the module docs'
    /// "Range walks"); every outcome is that of a walk line by line.
    pub fn access_range(&mut self, addr: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let line_shift = self.hier.l1.line_shift;
        let first = addr >> line_shift;
        let last = (addr + len as u64 - 1) >> line_shift;
        if self.repeat == Some((first, last)) {
            return self.repeat_walk(last - first + 1);
        }
        let l1_hits = self.hier.l1.stats.hits;
        let total = self.walk(first, last);
        let repeatable = self.hier.l1.stats.hits == l1_hits || last - first < self.hier.l1.lines();
        self.repeat = (repeatable && self.spans_fit(first, last)).then_some((first, last));
        total
    }

    /// Walk lines `first..=last`, probing the L1 only where it may hit.
    fn walk(&mut self, first: u64, last: u64) -> u64 {
        let line_shift = self.hier.l1.line_shift;
        let page_mask = self.tlb.config().page_bytes - 1;
        let capacity = self.hier.l1.lines();
        let l1_hit = self.hier.l1.config.hit_cycles;
        let demand_miss = self.hier.l2.config.hit_cycles + self.hier.mem_cycles;
        let mut total = 0;
        for line in first..=last {
            let a = line << line_shift;
            // At the range's first line and at every line that opens a
            // page: one lookup for the run of lines that start on it.
            if line == first || a & page_mask == 0 {
                let run_last = last.min((a | page_mask) >> line_shift);
                total += self.tlb.access_run(a, run_last - line + 1);
            }
            total += l1_hit;
            // Past the L1's capacity a line misses for certain, and one
            // that a later line of the range evicts again is not filled.
            if line - first < capacity {
                if self.hier.l1.access(a) {
                    continue;
                }
            } else if last - line < capacity {
                self.hier.l1.fill(a);
            } else {
                self.hier.l1.stats.misses += 1;
            }
            let miss = if line == first {
                demand_miss
            } else {
                self.stream_miss_cycles
            };
            total += self.hier.below_l1(a, miss);
        }
        total
    }

    /// Whether lines `first..=last` span at most one line per L2 set and
    /// no more pages than the TLB holds.
    fn spans_fit(&self, first: u64, last: u64) -> bool {
        let line_shift = self.hier.l1.line_shift;
        let span = |shift: u32| ((last << line_shift) >> shift) - ((first << line_shift) >> shift);
        let l2 = &self.hier.l2;
        let tlb = self.tlb.config();
        span(l2.line_shift) <= l2.set_mask
            && span(tlb.page_bytes.trailing_zeros()) < tlb.entries as u64
    }

    /// The closed-form repeat of the previous range, of `n` lines.
    fn repeat_walk(&mut self, n: u64) -> u64 {
        let (l1, l2) = (&mut self.hier.l1, &mut self.hier.l2);
        let (sets, ways) = (l1.set_mask + 1, l1.config.ways as u64);
        // `r` sets hold `q + 1` of the range's lines, the rest `q`.
        let (q, r) = (n / sets, n % sets);
        let mut misses = 0;
        if q + 1 > ways {
            misses += r * (q + 1);
        }
        if q > ways {
            misses += (sets - r) * q;
        }
        l1.stats.hits += n - misses;
        l1.stats.misses += misses;
        l2.stats.hits += misses;
        self.tlb.count_hits(n);
        n * l1.config.hit_cycles + misses * l2.config.hit_cycles
    }

    /// Invalidate the TLB and both caches.
    pub fn flush(&mut self) {
        self.tlb.flush();
        self.hier.l1.flush();
        self.hier.l2.flush();
        self.repeat = None;
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
    fn the_repeat_rule_declines_what_the_l2_or_tlb_cannot_hold() {
        let mut m = MemModel::new(&CostConfig::paper());
        // 16 384 lines, 256 pages: both at their bounds.
        m.access_range(0x10_0000, 16_384 * 64);
        assert!(m.repeat.is_some());
        // One line more than the L2 has sets, one page more than the TLB.
        m.access_range(0x10_0000, 16_385 * 64);
        assert!(m.repeat.is_none());
        // Too few lines for the L2 to matter, too many pages for the TLB.
        let mut small_tlb = CostConfig::paper();
        small_tlb.tlb.entries = 3;
        let mut m = MemModel::new(&small_tlb);
        m.access_range(0x10_0000, 3 * 4096);
        assert!(m.repeat.is_some());
        m.access_range(0x10_0000, 3 * 4096 + 1);
        assert!(m.repeat.is_none());
        // An access or a flush in between ends the repeat.
        m.access_range(0x10_0000, 64);
        m.access(0x10_0000);
        assert!(m.repeat.is_none());
        m.access_range(0x10_0000, 64);
        m.flush();
        assert!(m.repeat.is_none());
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
