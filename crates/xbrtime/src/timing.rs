//! The simulated clock.
//!
//! The paper reports *simulated* performance (Spike + timing configuration,
//! §5.1). Our thread-per-PE fabric executes at native speed but carries a
//! deterministic per-PE cycle counter fed by the `xbgas-sim` cost model:
//! local accesses run through per-PE TLB + L1/L2 cache models (keyed by
//! host addresses, so real data layout drives hit rates), remote transfers
//! charge OLB + interconnect + remote-DRAM latency, and barriers charge a
//! dissemination-pattern cost. Figure harnesses convert cycles to
//! operations/second with [`TimingConfig::core_hz`].

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};
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
/// publishes cycle values across threads only at barriers.
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

/// Bounded exponential backoff for the fabric's spin loops, wall-clock
/// only (never the simulated clock).
///
/// The ladder: busy-spin for the first few dozen iterations (the common
/// case — a peer is at most one cache miss behind), then yield to the
/// scheduler, then sleep with exponentially growing intervals capped at
/// 1 ms so oversubscribed runs (more PEs than cores) stop burning cores.
/// Each call to [`Backoff::wait`] takes one step and reports whether the
/// caller's watchdog deadline has passed.
pub(crate) struct Backoff {
    spins: u32,
    /// Number of sleeping steps taken (for trace/telemetry consumers).
    sleeps: u64,
    /// Watchdog deadline, computed lazily on the first sleeping step so
    /// loops that never block pay nothing for the clock read.
    deadline: Option<Instant>,
    /// Cooperative mode: the exponential-sleep phase yields instead of
    /// calling `thread::sleep`. A cooperative backend multiplexes many
    /// PEs over few workers, and a worker stuck in a kernel sleep stalls
    /// every PE mapped to it — so a cooperative context may spin and
    /// yield, but must never block the worker in the kernel.
    coop: bool,
}

const BACKOFF_SPIN_STEPS: u32 = 64;
const BACKOFF_YIELD_STEPS: u32 = 192;
const BACKOFF_SLEEP_MIN: Duration = Duration::from_micros(10);
const BACKOFF_SLEEP_MAX: Duration = Duration::from_millis(1);

/// Sleep duration for the `step`-th sleeping step of the exponential
/// phase: `BACKOFF_SLEEP_MIN * 2^step`, capped at [`BACKOFF_SLEEP_MAX`].
///
/// The exponent is clamped *before* shifting: long watchdog budgets can
/// push a wait loop to billions of steps, and an unclamped `1 << step`
/// wraps (wrapping the sleep to 0 in release, panicking in debug). The
/// clamp of 10 is already past the cap (10 µs · 2⁷ > 1 ms), so the result
/// saturates at `BACKOFF_SLEEP_MAX` — bounded and nonzero — for every
/// `step` up to `u32::MAX`.
pub(crate) fn backoff_sleep(step: u32) -> Duration {
    let exp = step.min(10);
    (BACKOFF_SLEEP_MIN * (1u32 << exp)).min(BACKOFF_SLEEP_MAX)
}

impl Backoff {
    pub(crate) fn new() -> Self {
        Backoff {
            spins: 0,
            sleeps: 0,
            deadline: None,
            coop: false,
        }
    }

    /// A backoff for cooperative scheduler contexts: identical ladder,
    /// but the sleep phase yields (see the `coop` field). Used by the
    /// fabric's wait loops on the coop backend for the brief pre-park
    /// spin window.
    pub(crate) fn cooperative() -> Self {
        Backoff {
            spins: 0,
            sleeps: 0,
            deadline: None,
            coop: true,
        }
    }

    /// Number of sleeping steps taken so far.
    pub(crate) fn sleeps(&self) -> u64 {
        self.sleeps
    }

    /// Number of steps taken so far (all phases).
    pub(crate) fn steps(&self) -> u32 {
        self.spins
    }

    /// Take one backoff step. Returns `false` when `timeout` (counted
    /// from the first sleeping step) has expired — the caller must then
    /// fail fast instead of spinning forever. With `timeout == None`, the
    /// wait is unbounded and this always returns `true`.
    pub(crate) fn wait(&mut self, timeout: Option<Duration>) -> bool {
        // Saturating: a wait that outlives 2^32 steps must keep sleeping at
        // the cap, not wrap the counter back into the busy-spin phase (or
        // panic on overflow in debug builds).
        self.spins = self.spins.saturating_add(1);
        if self.spins < BACKOFF_SPIN_STEPS {
            std::hint::spin_loop();
            return true;
        }
        if self.spins < BACKOFF_YIELD_STEPS {
            std::thread::yield_now();
            return true;
        }
        if let Some(t) = timeout {
            let deadline = *self.deadline.get_or_insert_with(|| Instant::now() + t);
            if Instant::now() >= deadline {
                return false;
            }
        }
        if self.coop {
            // Never kernel-sleep on a multiplexed worker: yield so a
            // sibling PE (or the peer being waited on) can run instead.
            std::thread::yield_now();
            return true;
        }
        std::thread::sleep(backoff_sleep(self.spins - BACKOFF_YIELD_STEPS));
        self.sleeps = self.sleeps.saturating_add(1);
        true
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
    fn backoff_sleep_saturates_bounded_nonzero() {
        // The first sleeping step starts at the minimum.
        assert_eq!(backoff_sleep(0), BACKOFF_SLEEP_MIN);
        // Doubling until the cap, never past it, never wrapping to zero —
        // including at exponents that would overflow an unclamped shift.
        let mut prev = Duration::ZERO;
        for step in [0u32, 1, 3, 7, 10, 31, 32, 64, 1_000_000, u32::MAX] {
            let d = backoff_sleep(step);
            assert!(d > Duration::ZERO, "step {step} slept zero");
            assert!(d <= BACKOFF_SLEEP_MAX, "step {step} slept {d:?}");
            assert!(d >= prev, "sleep must be monotone in step");
            prev = d;
        }
        assert_eq!(backoff_sleep(u32::MAX), BACKOFF_SLEEP_MAX);
    }

    #[test]
    fn backoff_counter_saturates_instead_of_wrapping() {
        let mut b = Backoff {
            spins: u32::MAX - 2,
            sleeps: 0,
            deadline: None,
            coop: false,
        };
        // A handful of steps at the saturation point: each must stay in the
        // sleeping phase (bounded by the cap) rather than wrap back into
        // busy-spinning or panic on `spins + 1` overflow in debug builds.
        for _ in 0..4 {
            assert!(b.wait(None));
        }
        assert_eq!(b.spins, u32::MAX);
        assert_eq!(b.sleeps(), 4);
    }

    #[test]
    fn cooperative_backoff_never_sleeps() {
        // Drive a cooperative backoff deep into what would be the
        // exponential-sleep phase: it must yield instead, leaving the
        // sleep counter at zero and finishing far faster than even one
        // ladder of real sleeps would take.
        let mut b = Backoff::cooperative();
        for _ in 0..(BACKOFF_YIELD_STEPS + 500) {
            assert!(b.wait(None));
        }
        assert_eq!(b.sleeps(), 0, "cooperative backoff must never sleep");
        assert!(b.steps() > BACKOFF_YIELD_STEPS);

        // The watchdog deadline still applies in cooperative mode.
        let mut b = Backoff {
            spins: BACKOFF_YIELD_STEPS,
            sleeps: 0,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            coop: true,
        };
        assert!(!b.wait(Some(Duration::from_millis(1))));
    }

    #[test]
    fn seconds_conversion() {
        let c = PeClock::new(&TimingConfig::paper());
        c.charge(2_000_000_000);
        assert!((c.seconds(1_000_000_000) - 2.0).abs() < 1e-12);
    }
}
