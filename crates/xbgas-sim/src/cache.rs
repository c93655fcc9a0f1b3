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
//! A [`Cache`] is two parallel arrays, set-major: `tags` (a line's tag
//! plus one, so 0 marks an invalid way) and `lru` (the tick of the line's
//! last touch). The search for a hit reads only `tags` — the eight ways of
//! a paper-geometry set are 64 contiguous bytes — and a line of model
//! state costs 16 bytes. Replacement is true LRU: ticks are unique and
//! increasing, a miss fills the way with the smallest one, and an invalid
//! way's tick is 0, below every valid one, so the first invalid way is
//! taken before any valid line is evicted.
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

/// A single tag-only set-associative cache with true-LRU replacement.
pub struct Cache {
    config: CacheConfig,
    /// Per way, set-major: the resident line's tag plus one; 0 = invalid.
    tags: Vec<u64>,
    /// Per way, set-major: tick of the line's last touch; 0 = invalid.
    lru: Vec<u64>,
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
    /// Panics if the geometry is inconsistent (zero ways, capacity below
    /// one set, non-power-of-two sets or line size).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways > 0, "cache must have at least one way");
        let sets = config.sets();
        assert!(
            sets > 0,
            "cache capacity must hold at least one set (ways x line size)"
        );
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        // A stored tag is the real one plus one, so the real one must
        // leave the top value free: it may not span all 64 address bits.
        assert!(
            sets * config.line_bytes > 1,
            "a one-set cache of one-byte lines leaves no spare tag value"
        );
        Cache {
            config,
            tags: vec![0; sets * config.ways],
            lru: vec![0; sets * config.ways],
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
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line_addr = addr >> self.line_shift;
        if self.last_line == Some(line_addr) {
            self.stats.hits += 1;
            return true;
        }
        self.last_line = Some(line_addr);
        self.tick += 1;
        let base = (line_addr & self.set_mask) as usize * self.config.ways;
        let set = base..base + self.config.ways;
        let key = (line_addr >> self.set_shift) + 1;
        if let Some(way) = self.tags[set.clone()].iter().position(|&t| t == key) {
            self.lru[base + way] = self.tick;
            self.stats.hits += 1;
            return true;
        }
        // Miss: fill the first way with the smallest tick (`min_by_key`
        // keeps the first of equal minima, i.e. the first invalid way).
        self.stats.misses += 1;
        let lru = &self.lru[set];
        let way = (0..lru.len())
            .min_by_key(|&way| lru[way])
            .expect("a set has at least one way");
        self.tags[base + way] = key;
        self.lru[base + way] = self.tick;
        false
    }

    /// Invalidate every line (e.g. across a simulated context switch).
    pub fn flush(&mut self) {
        self.tags.fill(0);
        self.lru.fill(0);
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
        if self.l1.access(addr) {
            self.l1.config().hit_cycles
        } else if self.l2.access(addr) {
            self.l1.config().hit_cycles + self.l2.config().hit_cycles
        } else {
            self.l1.config().hit_cycles + stream_cycles
        }
    }
}

/// One PE's local-access timing model: a TLB in front of the cache
/// hierarchy. Every local access of the simulator and of the runtime's
/// per-PE clock is one [`MemModel::access`] (or one line of a
/// [`MemModel::access_range`]).
pub struct MemModel {
    /// The TLB.
    pub tlb: Tlb,
    /// L1, L2 and DRAM.
    pub hier: MemHierarchy,
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
    /// one access per L1 line: the first line pays the demand-miss
    /// latency, the rest are charged as prefetched streaming misses. The
    /// TLB is consulted once per page; the range's other lines on that
    /// page are the hits [`Tlb::access_run`] counts without a lookup.
    pub fn access_range(&mut self, addr: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let line_shift = self.hier.l1.line_shift;
        let page_mask = self.tlb.config().page_bytes - 1;
        let first = addr >> line_shift;
        let last = (addr + len as u64 - 1) >> line_shift;
        let mut total = 0;
        for line in first..=last {
            let a = line << line_shift;
            // At the range's first line and at every line that opens a
            // page: one lookup for the run of lines that start on it.
            if line == first || a & page_mask == 0 {
                let run_last = last.min((a | page_mask) >> line_shift);
                total += self.tlb.access_run(a, run_last - line + 1);
            }
            total += if line == first {
                self.hier.access(a)
            } else {
                self.hier.access_streaming(a, self.stream_miss_cycles)
            };
        }
        total
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
