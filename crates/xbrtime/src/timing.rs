//! The simulated clock.
//!
//! The paper reports *simulated* performance (Spike + timing configuration,
//! §5.1). Our fabric executes the PE bodies at native speed but carries a
//! deterministic per-PE cycle counter fed by the `xbgas-sim` cost model:
//! local accesses run through per-PE TLB + L1/L2 cache models (keyed by
//! host addresses, so real data layout drives hit rates), remote transfers
//! charge OLB + interconnect + remote-DRAM latency, and barriers charge a
//! dissemination-pattern cost. Figure harnesses convert cycles to
//! operations/second with [`TimingConfig::core_hz`].

use std::cell::{Cell, RefCell};
use xbgas_sim::cache::{CacheStats, MemModel};
use xbgas_sim::cost::CostConfig;
use xbgas_sim::tlb::TlbStats;

/// The splitmix64 generator — the single PRNG behind every deterministic
/// stream in the runtime (the fault plane's per-PE rolls, the conformance
/// explorer's random-priority schedulers).
///
/// All arithmetic is on `u64` with wrapping semantics, so a given seed
/// produces the identical stream on every platform regardless of
/// `usize` width or endianness — the property the golden-seed tests in
/// `tests/conformance.rs` pin down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting from `seed` (the first output mixes `seed +
    /// 0x9E3779B97F4A7C15`, never `seed` itself).
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The raw generator state (exposed so callers that persist the state
    /// in a `Cell<u64>` can round-trip it).
    pub const fn state(&self) -> u64 {
        self.state
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut z = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.state = z;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough pick in `0..n` (`n > 0`); modulo bias is irrelevant
    /// for scheduling choices.
    pub fn pick(&mut self, n: u64) -> u64 {
        assert!(n > 0, "pick from an empty range");
        self.next_u64() % n
    }
}

/// Timing parameters for the fabric.
#[derive(Clone, Copy, Debug)]
pub struct TimingConfig {
    /// When `false`, no cycle accounting is performed (wall-clock benches).
    pub enabled: bool,
    /// Component latencies and geometries.
    pub cost: CostConfig,
    /// Core frequency used to convert cycles to seconds (paper-class RV64
    /// cores: 1 GHz).
    pub core_hz: u64,
    /// `nelems` threshold above which transfers use the unrolled fast path
    /// (paper §3.3: *"further optimized … by utilizing loop unrolling when
    /// nelems exceeds a given threshold"*).
    pub unroll_threshold: usize,
    /// Per-element overhead divisor on the unrolled path.
    pub unroll_factor: u64,
}

impl TimingConfig {
    /// The calibration used by the figure harnesses.
    pub const fn paper() -> Self {
        TimingConfig {
            enabled: true,
            cost: CostConfig::paper(),
            core_hz: 1_000_000_000,
            unroll_threshold: 8,
            unroll_factor: 4,
        }
    }

    /// Cycle accounting off; for wall-clock benchmarking.
    pub const fn disabled() -> Self {
        TimingConfig {
            enabled: false,
            cost: CostConfig::functional(),
            core_hz: 1_000_000_000,
            unroll_threshold: 8,
            unroll_factor: 4,
        }
    }

    /// Per-element software overhead (address generation + copy) for a
    /// transfer of `nelems`, honouring the unroll threshold.
    pub fn element_overhead(&self, nelems: usize) -> u64 {
        let per = self.cost.alu_cycles;
        let total = per * nelems as u64;
        if nelems >= self.unroll_threshold {
            total / self.unroll_factor
        } else {
            total
        }
    }
}

/// Per-PE simulated clock with private TLB and cache models.
///
/// Single-threaded by construction (owned by one PE's thread); the fabric
/// publishes cycle values across PEs only at barriers.
pub struct PeClock {
    enabled: bool,
    cycles: Cell<u64>,
    mem: RefCell<MemModel>,
}

impl PeClock {
    /// Build a clock (and cache/TLB models) from the timing config.
    pub fn new(cfg: &TimingConfig) -> Self {
        PeClock {
            enabled: cfg.enabled,
            cycles: Cell::new(0),
            mem: RefCell::new(MemModel::new(&cfg.cost)),
        }
    }

    /// Whether accounting is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current simulated cycle count.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles.get()
    }

    /// Overwrite the cycle count (used by barrier release).
    #[inline]
    pub fn set_cycles(&self, c: u64) {
        self.cycles.set(c);
    }

    /// Add `c` cycles.
    #[inline]
    pub fn charge(&self, c: u64) {
        if self.enabled {
            self.cycles.set(self.cycles.get() + c);
        }
    }

    /// Charge a local memory access to the byte range `[addr, addr+len)`,
    /// walking the cache model once per touched cache line and the TLB
    /// once per touched page ([`MemModel::access_range`]). The first line
    /// pays full demand-miss latency; subsequent lines of the contiguous
    /// range are charged as prefetched streaming misses.
    pub fn charge_local_range(&self, addr: u64, len: usize) {
        if self.enabled {
            self.charge(self.mem.borrow_mut().access_range(addr, len));
        }
    }

    /// Charge a single access at `addr` (for apps' word-granular kernels).
    #[inline]
    pub fn charge_local_access(&self, addr: u64) {
        if self.enabled {
            self.charge(self.mem.borrow_mut().access(addr));
        }
    }

    /// Convert the current cycle count to seconds at `hz`.
    pub fn seconds(&self, hz: u64) -> f64 {
        self.cycles.get() as f64 / hz as f64
    }

    /// Snapshot of the (L1, L2, TLB) model statistics.
    pub fn mem_stats(&self) -> (CacheStats, CacheStats, TlbStats) {
        self.mem.borrow().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_clock_charges_nothing() {
        let c = PeClock::new(&TimingConfig::disabled());
        c.charge(100);
        c.charge_local_range(0x1000, 4096);
        c.charge_local_access(0x2000);
        assert_eq!(c.cycles(), 0);
    }

    #[test]
    fn enabled_clock_accumulates() {
        let c = PeClock::new(&TimingConfig::paper());
        c.charge(5);
        assert_eq!(c.cycles(), 5);
        c.set_cycles(100);
        assert_eq!(c.cycles(), 100);
    }

    #[test]
    fn range_charge_is_per_line() {
        let cfg = TimingConfig::paper();
        let c = PeClock::new(&cfg);
        // One cold line: TLB miss + L1 miss + L2 miss + DRAM.
        c.charge_local_range(0, 8);
        let one_line = c.cycles();
        assert!(one_line > 0);
        // Re-touch: everything hot → just an L1 hit.
        let before = c.cycles();
        c.charge_local_range(0, 8);
        assert_eq!(c.cycles() - before, cfg.cost.l1.hit_cycles);
        // A two-line fresh range: the first line pays the demand miss, the
        // second only the streaming (prefetched) cost.
        let before = c.cycles();
        c.charge_local_range(128, 128); // lines 2 and 3
        let two_lines = c.cycles() - before;
        let demand = cfg.cost.l1.hit_cycles + cfg.cost.l2.hit_cycles + cfg.cost.mem_cycles;
        let stream = cfg.cost.l1.hit_cycles + cfg.cost.stream_miss_cycles;
        assert_eq!(two_lines, demand + stream);
    }

    #[test]
    fn unroll_threshold_reduces_overhead() {
        let cfg = TimingConfig::paper();
        let below = cfg.element_overhead(cfg.unroll_threshold - 1);
        let at = cfg.element_overhead(cfg.unroll_threshold);
        // 7 elements cost 7 cycles; 8 elements unrolled cost 8/4 = 2.
        assert!(at < below, "unrolled {at} should undercut rolled {below}");
    }

    #[test]
    fn seconds_conversion() {
        let c = PeClock::new(&TimingConfig::paper());
        c.charge(2_000_000_000);
        assert!((c.seconds(1_000_000_000) - 2.0).abs() < 1e-12);
    }
}
