//! GUPs (Giga-Updates Per Second / HPCC RandomAccess) over the xbrtime API.
//!
//! Paper §5.2: the evaluation adapts the GUPs benchmark from Oak Ridge's
//! OpenSHMEM benchmark suite, replacing only the OpenSHMEM calls with their
//! xBGAS equivalents, "run with the verification features enabled to
//! guarantee correct execution", and reports millions of operations per
//! second for 1/2/4/8 PEs (Figure 4).
//!
//! The kernel: a table of 2^m 64-bit words is block-distributed across PEs;
//! each PE walks the HPCC pseudo-random sequence and XORs each random value
//! into the table word addressed by its low bits — a remote get/xor/put
//! when the word lives on a peer. Verification replays the stream (XOR is
//! an involution) and counts residual mismatches; like HPCC, up to 1% is
//! tolerated to absorb racing concurrent updates to the same word.

use xbrtime::{collectives, AlgorithmPolicy, Pe, ReduceOp, SyncMode};

/// The HPCC RandomAccess polynomial.
const POLY: u64 = 0x7;
/// Period of the HPCC pseudo-random sequence.
const PERIOD: i64 = 1_317_624_576_693_539_401;

/// One LCG-over-GF(2) step of the HPCC generator.
#[inline]
pub fn hpcc_step(ran: u64) -> u64 {
    (ran << 1) ^ (if (ran as i64) < 0 { POLY } else { 0 })
}

/// `HPCC_starts(n)`: the sequence value at position `n`, in O(log n) via
/// GF(2) matrix squaring — the verbatim HPCC algorithm.
pub fn hpcc_starts(n: i64) -> u64 {
    let mut n = n;
    while n < 0 {
        n += PERIOD;
    }
    while n > PERIOD {
        n -= PERIOD;
    }
    if n == 0 {
        return 1;
    }

    let mut m2 = [0u64; 64];
    let mut temp: u64 = 1;
    for slot in m2.iter_mut() {
        *slot = temp;
        temp = hpcc_step(temp);
        temp = hpcc_step(temp);
    }

    let mut i: i32 = 62;
    while i >= 0 {
        if (n >> i) & 1 != 0 {
            break;
        }
        i -= 1;
    }

    let mut ran: u64 = 2;
    while i > 0 {
        temp = 0;
        for (j, &m) in m2.iter().enumerate() {
            if (ran >> j) & 1 != 0 {
                temp ^= m;
            }
        }
        ran = temp;
        i -= 1;
        if (n >> i) & 1 != 0 {
            ran = hpcc_step(ran);
        }
    }
    ran
}

/// GUPs configuration.
#[derive(Clone, Copy, Debug)]
pub struct GupsConfig {
    /// log2 of the total table size in words (HPCC default sizes the table
    /// to half of memory; the harnesses pick values that stress the paper's
    /// 8 MB L2).
    pub log2_table_size: u32,
    /// Updates issued per PE. HPCC uses `4 × table_size` total; the
    /// harnesses scale this down to keep simulated runs short.
    pub updates_per_pe: usize,
    /// Run the verification pass (paper: enabled).
    pub verify: bool,
    /// Use remote atomic fetch-xor for remote updates (one fabric
    /// crossing, race-free) instead of the OSB get/xor/put pattern (two
    /// crossings, tolerates <1% races). An extension beyond the paper,
    /// measured by the `ablation` harness.
    pub use_amo: bool,
    /// Algorithm policy for the verification tail's reduce + broadcast.
    pub policy: AlgorithmPolicy,
    /// Executor synchronization mode for those collectives.
    pub sync: SyncMode,
}

impl GupsConfig {
    /// A small configuration for tests.
    pub const fn test() -> Self {
        GupsConfig {
            log2_table_size: 12,
            updates_per_pe: 2048,
            verify: true,
            use_amo: false,
            policy: AlgorithmPolicy::Auto,
            sync: SyncMode::Auto,
        }
    }

    /// The Figure 4 harness configuration: a 32 MiB table (4 Mi words —
    /// 4× the 8 MB L2, so per-PE partitions cross the cache boundary as
    /// PEs are added) and 2^20 total updates strong-scaled across `n_pes`.
    pub const fn fig4(n_pes: usize) -> Self {
        GupsConfig {
            log2_table_size: 22,
            updates_per_pe: (1 << 20) / n_pes,
            verify: false,
            use_amo: false,
            policy: AlgorithmPolicy::Binomial,
            sync: SyncMode::Barrier,
        }
    }

    /// Total table bytes implied by the configuration.
    pub const fn table_bytes(&self) -> usize {
        (1usize << self.log2_table_size) * 8
    }
}

/// Result of one PE's GUPs run.
#[derive(Clone, Copy, Debug, Default)]
pub struct GupsResult {
    /// Updates performed by this PE.
    pub updates: usize,
    /// Verification mismatches charged to this PE's table section.
    pub errors: usize,
    /// Simulated cycles consumed by the update loop (excluding verification).
    pub cycles: u64,
    /// Fraction of updates that targeted remote table sections.
    pub remote_fraction: f64,
}

impl GupsResult {
    /// Millions of updates per second at `core_hz`, for this PE.
    pub fn mops(&self, core_hz: u64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let seconds = self.cycles as f64 / core_hz as f64;
        self.updates as f64 / seconds / 1.0e6
    }
}

/// How many updates ahead of the one it applies the stream walk hints the
/// host to load a table word ([`Pe::host_prefetch`]). A table word is a
/// host cache miss, and each update prices hundreds of instructions
/// between two of them, so without the hint the misses never overlap.
/// HPCC RandomAccess lets a process look ahead up to 1024 updates. 4, 8,
/// 16 and 32 read the same `gups_8pe` host rate within its run-to-run
/// spread on a 2-core x86-64 host; 8 leaves slack for a longer miss.
const LOOKAHEAD: usize = 8;

/// Where a remote update's `get` (and the verification's error sum)
/// lands: `word`, at word [`LANDING_WORD`] of a page of its own. The
/// cache model prices a private buffer at its host in-page offset, so a
/// stack slot made the kernel's cycles a function of the frame layout:
/// of the build profile, of edits to this file and even of the closure
/// that calls [`run_gups`]. A fixed word prices the same in every
/// binary. Line 29 is where the stack slot sat in the benchmark's timed
/// `gups_8pe` reps (line 31 in the verified run before them).
#[repr(C, align(4096))]
struct Landing {
    _below: [u64; LANDING_WORD],
    word: [u64; 1],
}

/// The landing word's index in its page: the first of line 29.
const LANDING_WORD: usize = 29 * 8;

impl Default for Landing {
    fn default() -> Self {
        Landing {
            _below: [0; LANDING_WORD],
            word: [0],
        }
    }
}

/// The block-distributed table as one PE sees it.
struct Table {
    sym: xbrtime::SymmAlloc<u64>,
    per_pe: usize,
    mask: u64,
}

impl Table {
    /// The owner and local index of the word `ran` addresses.
    #[inline]
    fn word(&self, ran: u64) -> (usize, usize) {
        let global = (ran & self.mask) as usize;
        (global / self.per_pe, global % self.per_pe)
    }

    /// Apply the update `ran`, landing a remote `get` in `v`; returns
    /// whether it was remote.
    fn apply(&self, pe: &Pe, ran: u64, use_amo: bool, v: &mut [u64; 1]) -> bool {
        let (owner, local) = self.word(ran);
        let slot = self.sym.at(local);
        if use_amo {
            // Atomic xor for every update — local ones included, because a
            // plain read-modify-write on an owned word could still race
            // with a peer's atomic to the same word. One crossing when
            // remote.
            pe.amo_fetch_xor(slot, ran, owner);
            owner != pe.rank()
        } else if owner == pe.rank() {
            // Local update: one read-modify-write through the cache model.
            let v = pe.heap_load(slot);
            pe.heap_store(slot, v ^ ran);
            false
        } else {
            // Remote update: one-sided get, xor, fire-and-forget put — the
            // OSB GUPs pattern (`shmem_g` blocks; `shmem_p` completes at
            // the next synchronisation point).
            pe.get(v, slot, 1, 1, owner);
            v[0] ^= ran;
            let _ = pe.put_nb(slot, v, 1, 1, owner);
            true
        }
    }

    /// Hint the host to load the word `ran` addresses, on its owner.
    #[inline]
    fn prefetch(&self, pe: &Pe, ran: u64) {
        let (owner, local) = self.word(ran);
        pe.host_prefetch(self.sym.at(local), owner);
    }

    /// Apply the `n` updates that follow position `start` of the HPCC
    /// stream, [`LOOKAHEAD`] updates behind the host prefetches, and
    /// return how many were remote. `timed` charges the loop overhead.
    fn walk(&self, pe: &Pe, start: i64, n: usize, use_amo: bool, timed: bool) -> usize {
        let mut ran = hpcc_starts(start);
        let mut ahead = ran;
        for _ in 0..LOOKAHEAD.min(n) {
            ahead = hpcc_step(ahead);
            self.prefetch(pe, ahead);
        }
        let mut landing = Landing::default();
        let mut remote = 0;
        for i in 0..n {
            if i + LOOKAHEAD < n {
                ahead = hpcc_step(ahead);
                self.prefetch(pe, ahead);
            }
            ran = hpcc_step(ran);
            remote += usize::from(self.apply(pe, ran, use_amo, &mut landing.word));
            if timed {
                // Loop overhead: index arithmetic + LCG step.
                pe.charge(2);
            }
        }
        remote
    }
}

/// Run GUPs on the calling PE (SPMD: every PE calls this).
///
/// Returns per-PE statistics; the update loop is timed with the fabric's
/// simulated clock. A trailing sum-reduction and broadcast of the global
/// error count exercise the collectives exactly as the OSB port does.
pub fn run_gups(pe: &Pe, cfg: &GupsConfig) -> GupsResult {
    let n_pes = pe.n_pes();
    let table_size = 1usize << cfg.log2_table_size;
    assert!(
        table_size.is_multiple_of(n_pes),
        "table size {table_size} must divide evenly across {n_pes} PEs"
    );
    let per_pe = table_size / n_pes;
    let table = Table {
        sym: pe.shared_malloc::<u64>(per_pe),
        per_pe,
        mask: (table_size - 1) as u64,
    };
    // HPCC initialisation: T[i] = i (global index), written in place.
    let first = pe.rank() * per_pe;
    pe.heap_fill(table.sym.whole(), per_pe, |i| (first + i) as u64);
    pe.barrier();

    // Each PE starts its stream at its slice of the global sequence. The
    // slices begin past the generator's thin early orbit (low Hamming
    // weight near the seed), where indices are not yet well mixed.
    const STREAM_OFFSET: i64 = 1 << 24;
    let start = STREAM_OFFSET + (cfg.updates_per_pe * pe.rank()) as i64;

    let t0 = pe.cycles();
    let remote = table.walk(pe, start, cfg.updates_per_pe, cfg.use_amo, true);
    pe.quiet(); // complete outstanding fire-and-forget puts
    pe.barrier();
    let cycles = pe.cycles() - t0;

    // Verification: replay the stream; XOR cancels, so the table must
    // return to its initial state (modulo racing updates, as in HPCC).
    let mut errors = 0usize;
    if cfg.verify {
        table.walk(pe, start, cfg.updates_per_pe, cfg.use_amo, false);
        pe.barrier();
        errors = (pe.heap_read_vec::<u64>(table.sym.whole(), per_pe).iter())
            .enumerate()
            .filter(|&(i, &v)| v != (first + i) as u64)
            .count();

        // Aggregate the global error count: sum-reduce then broadcast —
        // the collective pattern the paper's §5.2 benchmarks exercise.
        let err_sym = pe.shared_malloc::<u64>(1);
        pe.heap_store(err_sym.whole(), errors as u64);
        pe.barrier();
        // The sum lands in a fixed word, priced alike in every binary.
        let mut total = Landing::default();
        collectives::reduce_policy_sync(
            pe,
            &mut total.word,
            &err_sym,
            1,
            1,
            0,
            ReduceOp::Sum,
            cfg.policy,
            cfg.sync,
        );
        let bcast = pe.shared_malloc::<u64>(1);
        collectives::broadcast_policy_sync(pe, &bcast, &total.word, 1, 1, 0, cfg.policy, cfg.sync);
        pe.barrier();
        let global_errors = pe.heap_load(bcast.whole());
        let total_updates = (cfg.updates_per_pe * n_pes) as u64;
        assert!(
            global_errors * 100 <= total_updates,
            "GUPs verification failed: {global_errors} errors in {total_updates} updates (>1%)"
        );
        pe.barrier();
        pe.shared_free(bcast);
        pe.shared_free(err_sym);
    }

    pe.barrier();
    pe.shared_free(table.sym);
    GupsResult {
        updates: cfg.updates_per_pe,
        errors,
        cycles,
        remote_fraction: remote as f64 / cfg.updates_per_pe.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbrtime::{Fabric, FabricConfig};

    #[test]
    fn hpcc_starts_matches_sequential_walk() {
        // starts(n) must equal n steps of the LCG from starts(0)=1... HPCC
        // defines position 0 as 0x1, position n as n applications of the
        // recurrence to 0x2? Verify internal consistency instead: walking k
        // steps from starts(n) lands on starts(n + k).
        let a = hpcc_starts(100);
        let mut x = a;
        for _ in 0..37 {
            x = hpcc_step(x);
        }
        assert_eq!(x, hpcc_starts(137));
    }

    #[test]
    fn hpcc_starts_edge_cases() {
        assert_eq!(hpcc_starts(0), 1);
        // Negative positions wrap by the period.
        assert_eq!(hpcc_starts(-1), hpcc_starts(PERIOD - 1));
    }

    #[test]
    fn hpcc_step_is_involution_free_and_nonzero() {
        let mut x = 2u64;
        for _ in 0..1000 {
            let next = hpcc_step(x);
            assert_ne!(next, 0);
            x = next;
        }
    }

    #[test]
    fn gups_verifies_on_one_pe() {
        let report = Fabric::run(FabricConfig::new(1), |pe| run_gups(pe, &GupsConfig::test()));
        let r = report.results[0];
        assert_eq!(r.errors, 0, "single PE has no races, must verify exactly");
        assert_eq!(r.updates, 2048);
        assert_eq!(r.remote_fraction, 0.0);
    }

    #[test]
    fn gups_verifies_on_four_pes() {
        let report = Fabric::run(FabricConfig::new(4), |pe| run_gups(pe, &GupsConfig::test()));
        let total_errors: usize = report.results.iter().map(|r| r.errors).sum();
        let total_updates: usize = report.results.iter().map(|r| r.updates).sum();
        assert!(
            total_errors * 100 <= total_updates,
            "{total_errors} errors in {total_updates}"
        );
        // Remote traffic must be substantial. (The early HPCC orbit is
        // genuinely skewed toward low indices — uniform would be 3/4, the
        // real stream's per-PE fractions range from ~0.3 upward.)
        let avg: f64 = report
            .results
            .iter()
            .map(|r| r.remote_fraction)
            .sum::<f64>()
            / report.results.len() as f64;
        assert!(avg > 0.4, "average remote fraction {avg}");
        for r in &report.results {
            assert!(
                r.remote_fraction > 0.2,
                "remote fraction {}",
                r.remote_fraction
            );
        }
    }

    #[test]
    fn gups_with_amo_verifies_exactly_even_under_contention() {
        // Atomic xor updates cannot race, so verification is exact at any
        // PE count — unlike the get/xor/put mode's 1% tolerance.
        let mut cfg = GupsConfig::test();
        cfg.use_amo = true;
        let report = Fabric::run(FabricConfig::new(8), move |pe| run_gups(pe, &cfg));
        let errors: usize = report.results.iter().map(|r| r.errors).sum();
        assert_eq!(errors, 0, "AMO mode must verify exactly");
    }

    #[test]
    fn gups_simulated_cycles_scale_with_updates() {
        let cfg_small = GupsConfig {
            log2_table_size: 10,
            updates_per_pe: 256,
            verify: false,
            use_amo: false,
            policy: AlgorithmPolicy::Binomial,
            sync: SyncMode::Barrier,
        };
        let cfg_big = GupsConfig {
            log2_table_size: 10,
            updates_per_pe: 1024,
            verify: false,
            use_amo: false,
            policy: AlgorithmPolicy::Binomial,
            sync: SyncMode::Barrier,
        };
        let cycles = |cfg: GupsConfig| {
            let report = Fabric::run(FabricConfig::paper(2), move |pe| run_gups(pe, &cfg));
            report.results.iter().map(|r| r.cycles).max().unwrap()
        };
        let small = cycles(cfg_small);
        let big = cycles(cfg_big);
        assert!(
            big > small * 2,
            "cycles must grow with update count: {small} vs {big}"
        );
    }
}
