//! Property tests for the counts-table collectives: scatterv, gatherv
//! and allgatherv — and the uniform scatter/gather/all_gather entry
//! points, which are the same bodies on constant tables — held to dense
//! in-test references across every algorithm × sync mode × both engine
//! interleavings (every PE runnable, one seeded worker). The count-table
//! strategy deliberately covers the degenerate shapes — all-zero
//! (empty), single-giant-block, ragged-with-zeros and heavily-skewed —
//! plus gapped displacement tables for the rooted variants. Zero-total
//! calls must be fully inert (no transfers, no barriers, no signal
//! traffic), and malformed count vectors must come back as structured
//! [`VCountError`]s on every PE rather than wedging the fabric.

// The `..ProptestConfig::default()` spread is upstream proptest's
// canonical config idiom; the local shim happens to have no other
// fields, which trips needless_update.
#![allow(clippy::needless_update)]

use proptest::prelude::*;
use xbrtime::collectives::vcoll::{
    try_allgatherv_algo_sync, try_gatherv_policy_sync, try_scatterv_policy_sync, AllGatherVAlgo,
    VCountError,
};
use xbrtime::{
    collectives, AlgorithmPolicy, EngineConfig, Fabric, FabricConfig, FabricStats, SyncMode,
};

/// The two interleavings of an `n_pes` fabric: every PE runnable, and one
/// seeded worker.
fn engines(n_pes: usize) -> [EngineConfig; 2] {
    [
        EngineConfig::coop().with_workers(n_pes),
        EngineConfig::coop().with_workers(1),
    ]
}
const SYNCS: [SyncMode; 4] = [
    SyncMode::Barrier,
    SyncMode::Signaled,
    SyncMode::Pipelined,
    SyncMode::Auto,
];
const POLICIES: [AlgorithmPolicy; 4] = [
    AlgorithmPolicy::Binomial,
    AlgorithmPolicy::Linear,
    AlgorithmPolicy::Ring,
    AlgorithmPolicy::Auto,
];
const VALGOS: [AllGatherVAlgo; 4] = [
    AllGatherVAlgo::Fan,
    AllGatherVAlgo::Ring,
    AllGatherVAlgo::Dissemination,
    AllGatherVAlgo::Auto,
];

/// The count-table shapes the v-variants must survive: `shape` picks the
/// irregularity class, `seed` the details within it.
fn counts_for(shape: u8, n: usize, seed: u64) -> Vec<usize> {
    match shape % 4 {
        // Empty: every block zero-length — the fully inert case.
        0 => vec![0; n],
        // Single giant: one PE holds everything, everyone else nothing.
        1 => {
            let mut c = vec![0; n];
            c[(seed as usize) % n] = 13 + (seed % 20) as usize;
            c
        }
        // Ragged with genuine zero blocks scattered through the table.
        2 => (0..n).map(|r| ((seed >> (r * 3)) & 0x7) as usize).collect(),
        // Heavily skewed: a giant block amid zero-or-one-element blocks.
        _ => (0..n)
            .map(|r| {
                if r == (seed as usize) % n {
                    40
                } else {
                    (seed >> r) as usize & 1
                }
            })
            .collect(),
    }
}

/// Caller-side displacement table with `gap` unused elements between
/// consecutive segments, plus the source length that layout implies —
/// gaps prove the entry points honour `displs` rather than assuming the
/// prefix-sum layout.
fn gapped_displs(counts: &[usize], gap: usize) -> (Vec<usize>, usize) {
    let mut displs = Vec::with_capacity(counts.len());
    let mut at = 0usize;
    for &c in counts {
        displs.push(at);
        at += c + gap;
    }
    (displs, at)
}

/// Scatter then gather one table against the dense reference — PE `r`
/// must receive exactly `src[displs[r] .. displs[r] + counts[r]]`, and
/// gathering those segments back must reassemble the root's buffer — for
/// every algorithm × sync mode × interleaving combination. `uniform` routes
/// the calls through the paper-signature entry points
/// (`scatter_policy_sync` / `gather_policy_sync`) instead of the `try_*v`
/// ones: same body, different `Auto` rule.
fn check_rooted(uniform: bool, root: usize, counts: &[usize], displs: &[usize], src: &[u64]) {
    let n_pes = counts.len();
    let total: usize = counts.iter().sum();
    for engine in engines(n_pes) {
        for policy in POLICIES {
            for sync in SYNCS {
                let (c2, d2, s2) = (counts.to_vec(), displs.to_vec(), src.to_vec());
                let report = Fabric::run(FabricConfig::new(n_pes).with_engine(engine), move |pe| {
                    let r = pe.rank();
                    let root_src = if r == root { s2.clone() } else { vec![] };
                    let mut mine = vec![0u64; c2[r]];
                    let mut back = vec![u64::MAX; if r == root { s2.len() } else { 0 }];
                    if uniform {
                        collectives::scatter_policy_sync(
                            pe, &mut mine, &root_src, &c2, &d2, total, root, policy, sync,
                        );
                        pe.barrier();
                        collectives::gather_policy_sync(
                            pe, &mut back, &mine, &c2, &d2, total, root, policy, sync,
                        );
                    } else {
                        try_scatterv_policy_sync(
                            pe, &mut mine, &root_src, &c2, &d2, root, policy, sync,
                        )
                        .expect("well-formed scatterv");
                        pe.barrier();
                        try_gatherv_policy_sync(pe, &mut back, &mine, &c2, &d2, root, policy, sync)
                            .expect("well-formed gatherv");
                    }
                    pe.barrier();
                    (mine, back)
                });
                for (r, (mine, _)) in report.results.iter().enumerate() {
                    assert_eq!(
                        &mine[..],
                        &src[displs[r]..displs[r] + counts[r]],
                        "scatter uniform={} workers={}/{:?}/{:?}: PE {} segment",
                        uniform,
                        engine.workers,
                        policy,
                        sync,
                        r
                    );
                }
                let back = &report.results[root].1;
                for r in 0..n_pes {
                    assert_eq!(
                        &back[displs[r]..displs[r] + counts[r]],
                        &src[displs[r]..displs[r] + counts[r]],
                        "gather uniform={} workers={}/{:?}/{:?}: PE {} segment at root",
                        uniform,
                        engine.workers,
                        policy,
                        sync,
                        r
                    );
                }
                // Every posted signal consumed: no slot leaks across
                // the back-to-back collectives.
                assert_eq!(report.stats.signals, report.stats.signal_waits);
            }
        }
    }
}

/// All-gather one table against the dense reference: every PE's
/// destination holds the rank-ordered concatenation of all contributions
/// — for every strategy × sync mode × interleaving combination. `uniform`
/// (constant tables only) routes the call through `all_gather_algo_sync`.
fn check_allgather(uniform: bool, counts: &[usize], seed: u64) {
    let n_pes = counts.len();
    let total: usize = counts.iter().sum();
    let contrib = |counts: &[usize], r: usize| -> Vec<u64> {
        (0..counts[r] as u64)
            .map(|j| (r as u64) << 32 | j ^ seed)
            .collect()
    };
    let expect: Vec<u64> = (0..n_pes).flat_map(|r| contrib(counts, r)).collect();
    for engine in engines(n_pes) {
        for algo in VALGOS {
            for sync in SYNCS {
                let c2 = counts.to_vec();
                let report = Fabric::run(FabricConfig::new(n_pes).with_engine(engine), move |pe| {
                    let mine = contrib(&c2, pe.rank());
                    let mut all = vec![u64::MAX; total];
                    if uniform {
                        collectives::all_gather_algo_sync(pe, &mut all, &mine, c2[0], algo, sync);
                    } else {
                        try_allgatherv_algo_sync(pe, &mut all, &mine, &c2, algo, sync)
                            .expect("well-formed allgatherv");
                    }
                    pe.barrier();
                    all
                });
                for (r, got) in report.results.iter().enumerate() {
                    assert_eq!(
                        &got[..],
                        &expect[..],
                        "allgather uniform={} workers={}/{:?}/{:?}: PE {}",
                        uniform,
                        engine.workers,
                        algo,
                        sync,
                        r
                    );
                }
                assert_eq!(report.stats.signals, report.stats.signal_waits);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Scatterv then gatherv on an irregular, possibly gapped table, and
    /// the uniform entry points on a constant table with a dense
    /// `pe_disp` (block size 0 — the inert case — included).
    #[test]
    fn scatterv_gatherv_match_dense_reference(
        n_pes in 1usize..7,
        shape in 0u8..4,
        root_seed in any::<usize>(),
        seed in any::<u64>(),
        gap in 0usize..2,
    ) {
        let root = root_seed % n_pes;
        let fill = |len: usize| -> Vec<u64> {
            (0..len as u64).map(|i| i.wrapping_mul(seed | 1) ^ 0xA5A5).collect()
        };
        let counts = counts_for(shape, n_pes, seed);
        let (displs, src_len) = gapped_displs(&counts, gap);
        check_rooted(false, root, &counts, &displs, &fill(src_len));

        let constant = vec![(seed % 5) as usize; n_pes];
        let (dense, src_len) = gapped_displs(&constant, 0);
        check_rooted(true, root, &constant, &dense, &fill(src_len));
    }

    /// Allgatherv on an irregular table, and the uniform `all_gather` on
    /// a constant one.
    #[test]
    fn allgatherv_matches_dense_reference(
        n_pes in 1usize..7,
        shape in 0u8..4,
        seed in any::<u64>(),
    ) {
        check_allgather(false, &counts_for(shape, n_pes, seed), seed);
        check_allgather(true, &vec![(seed % 5) as usize; n_pes], seed);
    }
}

/// The counters a v-collective is allowed to touch when its total is
/// zero: none of them.
fn traffic_counters(s: &FabricStats) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        s.puts,
        s.gets,
        s.nb_puts,
        s.nb_gets,
        s.barriers,
        s.signals,
        s.bytes_put + s.bytes_get,
    )
}

/// An all-zero count table must be fully inert: no transfers, no
/// barriers, no signal-slot activity, destination untouched — on both
/// interleavings, for all three v-collectives at once.
#[test]
fn zero_total_v_collectives_are_inert() {
    for engine in engines(4) {
        let baseline = Fabric::run(FabricConfig::new(4).with_engine(engine), |_pe| ()).stats;
        let report = Fabric::run(FabricConfig::new(4).with_engine(engine), |pe| {
            let zeros = [0usize; 4];
            let displs = [0usize; 4];
            let mut dest = vec![0xDEADu64; 3];
            try_scatterv_policy_sync(
                pe,
                &mut dest,
                &[],
                &zeros,
                &displs,
                1,
                AlgorithmPolicy::Auto,
                SyncMode::Auto,
            )
            .expect("zero-total scatterv");
            try_gatherv_policy_sync(
                pe,
                &mut dest,
                &[],
                &zeros,
                &displs,
                2,
                AlgorithmPolicy::Auto,
                SyncMode::Auto,
            )
            .expect("zero-total gatherv");
            try_allgatherv_algo_sync(
                pe,
                &mut dest,
                &[],
                &zeros,
                AllGatherVAlgo::Auto,
                SyncMode::Auto,
            )
            .expect("zero-total allgatherv");
            dest
        });
        assert_eq!(
            traffic_counters(&report.stats),
            traffic_counters(&baseline),
            "workers={}: zero-total v-collectives moved traffic",
            engine.workers
        );
        for got in &report.results {
            assert_eq!(got, &vec![0xDEADu64; 3], "destination must be untouched");
        }
    }
}

/// Malformed count vectors come back as the structured [`VCountError`]
/// before any collective activity — every PE sees the same verdict and
/// the fabric exits cleanly (the failure mode this replaced was a
/// cross-PE schedule disagreement wedging the signal-slot protocol).
#[test]
fn malformed_count_vectors_are_rejected() {
    let report = Fabric::run(FabricConfig::new(3), |pe| {
        let mut dest = [0u64; 4];
        let short = try_scatterv_policy_sync(
            pe,
            &mut dest,
            &[],
            &[1, 2],
            &[0, 1, 3],
            0,
            AlgorithmPolicy::Auto,
            SyncMode::Auto,
        );
        let displs = try_gatherv_policy_sync(
            pe,
            &mut dest,
            &[],
            &[0, 0, 0],
            &[0],
            0,
            AlgorithmPolicy::Auto,
            SyncMode::Auto,
        );
        let root = try_scatterv_policy_sync(
            pe,
            &mut dest,
            &[],
            &[0, 0, 0],
            &[0, 0, 0],
            7,
            AlgorithmPolicy::Auto,
            SyncMode::Auto,
        );
        let ag = try_allgatherv_algo_sync(
            pe,
            &mut dest,
            &[],
            &[1; 5],
            AllGatherVAlgo::Auto,
            SyncMode::Auto,
        );
        (short, displs, root, ag)
    });
    for (short, displs, root, ag) in report.results {
        assert_eq!(
            short,
            Err(VCountError::CountsLen {
                expected: 3,
                got: 2
            })
        );
        assert_eq!(
            displs,
            Err(VCountError::DisplsLen {
                expected: 3,
                got: 1
            })
        );
        assert_eq!(root, Err(VCountError::RootOutOfRange { root: 7, n_pes: 3 }));
        assert_eq!(
            ag,
            Err(VCountError::CountsLen {
                expected: 3,
                got: 5
            })
        );
    }
}
