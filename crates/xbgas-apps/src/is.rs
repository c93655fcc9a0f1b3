//! NAS Integer Sort (IS) over the xbrtime API.
//!
//! Paper §5.2: the evaluation runs NAS IS (class B, "detailed timing
//! functionality enabled") adapted from the ORNL OpenSHMEM benchmark suite,
//! with OpenSHMEM calls replaced by xBGAS equivalents, and reports millions
//! of operations per second for 1/2/4/8 PEs (Figure 5).
//!
//! This port keeps the NPB structure: keys are generated with the NPB
//! `randlc` pseudo-random generator, x ← a·x mod 2^46 (seed 314159265,
//! a = 5^13), computed exactly in `u64` arithmetic — see [`Randlc`] for why
//! that matches NPB's `f64` formulation bit for bit and for its operands'
//! precondition (integers below 2^46). Each ranking iteration histograms
//! local keys, combines the histogram with a **sum-reduction followed by a
//! broadcast** (the collective pattern the paper's library provides), and
//! after the timed loop the keys are redistributed to their range-owning
//! PEs with a personalized all-to-all and counting-sorted locally. Partial
//! verification checks the histogram totals each iteration; full
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

/// The NPB `randlc` linear congruential generator: x ← a·x mod 2^46, each
/// draw returning x·2^-46 in [0, 1).
///
/// NPB keeps x in an `f64` and splits both factors into 23-bit halves so
/// that every partial product is exact in a double; the split is only a
/// portable way to form the 46-bit product. Here x is a `u64`: with both
/// factors below 2^46 the wrapping product is a·x mod 2^64, and since 2^46
/// divides 2^64, masking it to 46 bits is a·x mod 2^46 exactly, the same
/// bits the split computes. The `f64` transcription is kept as the oracle
/// in this module's tests.
///
/// Seeds and multipliers cross the API as `f64`s, as in NPB, and must be
/// integers in [0, 2^46) (multipliers in (0, 2^46)); debug builds check.
pub struct Randlc {
    x: u64,
}

/// 2^46 − 1: the generator's modulus mask.
const MASK46: u64 = (1 << 46) - 1;
/// 2^-46, exact.
const R46: f64 = 1.0 / (1u64 << 46) as f64;

/// `v` as a 46-bit integer; `v` must be integral and in [0, 2^46).
fn int46(v: f64) -> u64 {
    debug_assert!(
        v.fract() == 0.0 && (0.0..(1u64 << 46) as f64).contains(&v),
        "randlc operand {v} is not an integer in [0, 2^46)"
    );
    v as u64
}

/// a·x mod 2^46 for a, x < 2^46.
fn mul46(a: u64, x: u64) -> u64 {
    a.wrapping_mul(x) & MASK46
}

impl Randlc {
    /// NPB IS seed.
    pub const DEFAULT_SEED: f64 = 314159265.0;
    /// NPB multiplier 5^13.
    pub const A: f64 = 1220703125.0;

    /// A generator starting at `seed`, an integer in [0, 2^46).
    pub fn new(seed: f64) -> Self {
        Randlc { x: int46(seed) }
    }

    /// Advance x ← a·x mod 2^46 and return x·2^-46. `a` must be an
    /// integer in (0, 2^46).
    pub fn next(&mut self, a: f64) -> f64 {
        debug_assert!(a > 0.0, "randlc multiplier {a} is not positive");
        self.x = mul46(int46(a), self.x);
        self.x as f64 * R46
    }

    /// Advance as NPB's `find_my_seed`: the state after `kn` sequential
    /// draws, computed in O(log kn) by squaring the multiplier — used so
    /// each PE generates its slice of the global key stream independently.
    pub fn skip_to(seed: f64, a: f64, kn: u64) -> Self {
        debug_assert!(a > 0.0, "randlc multiplier {a} is not positive");
        let (mut x, mut a, mut kn) = (int46(seed), int46(a), kn);
        while kn != 0 {
            if kn & 1 == 1 {
                x = mul46(a, x);
            }
            a = mul46(a, a);
            kn >>= 1;
        }
        Randlc { x }
    }

    /// Current raw state x.
    pub fn state(&self) -> f64 {
        self.x as f64
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
    /// iterations) so the simulated-cycle run completes in seconds. The
    /// scaling does not keep class B's compute/collective balance: it has
    /// 256 keys per histogram entry to class B's 16, and the paper's shape
    /// holds only here (ROADMAP item 19; EXPERIMENTS.md, Figure 5).
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

        // Local histogram, 2 cycles a key.
        let mut local = vec![0u64; max_key];
        for &k in &keys {
            local[k as usize] += 1;
        }
        pe.charge(2 * keys.len() as u64);
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
    // The timed loop is done with `global_hist`: it holds the counts.
    counting_sort(&mut mine, &mut global_hist);
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

/// Sort `keys`, each below `counts.len()`, in place by counting into
/// `counts` (overwritten); allocates nothing.
fn counting_sort(keys: &mut [u32], counts: &mut [u64]) {
    counts.fill(0);
    for &k in keys.iter() {
        counts[k as usize] += 1;
    }
    let mut start = 0;
    for (k, &c) in counts.iter().enumerate() {
        let end = start + c as usize;
        keys[start..end].fill(k as u32);
        start = end;
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

    /// FNV-1a over a key stream, one `u64` step per key.
    fn key_digest(keys: &[u32]) -> u64 {
        keys.iter().fold(0xcbf2_9ce4_8422_2325, |h, &k| {
            (h ^ k as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn key_stream_is_pinned() {
        // Recorded from the `f64` double-split generator: any change to how
        // `randlc` is computed must leave every bit of the stream alone.
        let mut r = Randlc::new(Randlc::DEFAULT_SEED);
        let draws = [r.next(Randlc::A), r.next(Randlc::A), r.next(Randlc::A)];
        assert_eq!(
            draws.map(f64::to_bits),
            [
                0x3fe9_6cb9_3710_5a80,
                0x3feb_cf61_fa2c_2c80,
                0x3fe4_b966_2cb3_6680
            ]
        );
        let skipped = Randlc::skip_to(Randlc::DEFAULT_SEED, Randlc::A, 4 << 20);
        assert_eq!(skipped.state(), 10_140_513_841_313.0);
        assert_eq!(
            key_digest(&generate_keys(0, 1 << 20, 1 << 12)),
            0xae5f_2522_77e7_b0e7
        );
        assert_eq!(
            key_digest(&generate_keys(0, 1 << 16, 1 << 11)),
            0xa305_2a19_f42b_6fa8
        );
    }

    /// NPB's `randlc` as the reference implementation writes it: 46-bit
    /// arithmetic carried in `f64`s, each factor split into 23-bit halves:
    /// the oracle [`Randlc`] must match bit for bit.
    struct RefRandlc {
        seed: f64,
    }

    const R23: f64 = 1.0 / 8_388_608.0;
    const T23: f64 = 8_388_608.0;
    const R46: f64 = R23 * R23;
    const T46: f64 = T23 * T23;

    impl RefRandlc {
        fn next(&mut self, a: f64) -> f64 {
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

        fn skip_to(seed: f64, a: f64, mut kn: u64) -> Self {
            let (mut t1, mut t2) = (seed, a);
            while kn != 0 {
                if kn & 1 == 1 {
                    let mut g = RefRandlc { seed: t1 };
                    g.next(t2);
                    t1 = g.seed;
                }
                let mut g = RefRandlc { seed: t2 };
                g.next(t2);
                t2 = g.seed;
                kn >>= 1;
            }
            RefRandlc { seed: t1 }
        }
    }

    /// `generate_keys` on the oracle generator.
    fn ref_keys(rank: usize, per_pe: usize, max_key: usize) -> impl Iterator<Item = u32> {
        let a = Randlc::A;
        let mut rng = RefRandlc::skip_to(Randlc::DEFAULT_SEED, a, 4 * (rank * per_pe) as u64);
        let k = max_key as f64 / 4.0;
        (0..per_pe).map(move |_| {
            let x = rng.next(a) + rng.next(a) + rng.next(a) + rng.next(a);
            (k * x) as u32
        })
    }

    fn assert_draws_match(n: u64) {
        let mut got = Randlc::new(Randlc::DEFAULT_SEED);
        let mut want = RefRandlc {
            seed: Randlc::DEFAULT_SEED,
        };
        for i in 0..n {
            let (g, w) = (got.next(Randlc::A), want.next(Randlc::A));
            assert_eq!(g.to_bits(), w.to_bits(), "draw {i}");
        }
    }

    /// The key stream of (`total_keys`, `max_key`) at 1 and 8 PEs.
    fn assert_streams_match(total_keys: usize, max_key: usize) {
        for n_pes in [1, 8] {
            let per_pe = total_keys / n_pes;
            for rank in 0..n_pes {
                let got = generate_keys(rank, per_pe, max_key);
                assert!(
                    got.iter().copied().eq(ref_keys(rank, per_pe, max_key)),
                    "{total_keys} keys in [0, {max_key}): rank {rank} of {n_pes}"
                );
            }
        }
    }

    #[test]
    fn randlc_matches_the_f64_oracle() {
        assert_draws_match(100_000);
        for kn in [
            0,
            1,
            2,
            3,
            100,
            12_345,
            1 << 20,
            1 << 27,
            999_999_937,
            (1 << 32) - 1,
            1 << 45,
        ] {
            let got = Randlc::skip_to(Randlc::DEFAULT_SEED, Randlc::A, kn);
            let want = RefRandlc::skip_to(Randlc::DEFAULT_SEED, Randlc::A, kn);
            assert_eq!(got.state().to_bits(), want.seed.to_bits(), "kn {kn}");
        }
        let (total_keys, max_key) = IsClass::S.sizes();
        assert_streams_match(total_keys, max_key);
    }

    /// The full differential (≈ 13 s in release): 50 M draws and the
    /// Figure 5, class W and class B key streams at 1 and 8 PEs.
    #[test]
    #[ignore = "over 500 M draws; run in release with -- --ignored"]
    fn randlc_matches_the_f64_oracle_in_full() {
        assert_draws_match(50_000_000);
        for class in [IsConfig::fig5().class, IsClass::W, IsClass::B] {
            let (total_keys, max_key) = class.sizes();
            assert_streams_match(total_keys, max_key);
        }
    }

    #[test]
    #[should_panic(expected = "not an integer in [0, 2^46)")]
    #[cfg(debug_assertions)]
    fn a_multiplier_of_2_pow_46_is_refused() {
        Randlc::new(1.0).next((1u64 << 46) as f64);
    }

    fn assert_sorts(keys: &[u32], max_key: usize) {
        let mut got = keys.to_vec();
        let mut counts = vec![u64::MAX; max_key];
        counting_sort(&mut got, &mut counts);
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(got, want, "max_key {max_key}");
    }

    #[test]
    fn counting_sort_matches_sort_unstable() {
        assert_sorts(&[], 1);
        assert_sorts(&[], 16);
        assert_sorts(&[7], 8);
        assert_sorts(&[3; 50], 8);
        assert_sorts(&[255; 64], 256);
        // splitmix64 on a fixed seed.
        let mut s = 7u64;
        let mut rand = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..1_000 {
            let max_key = 1 + (rand() % 300) as usize;
            let len = (rand() % 500) as usize;
            let keys: Vec<u32> = (0..len).map(|_| (rand() % max_key as u64) as u32).collect();
            assert_sorts(&keys, max_key);
        }
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
