//! Cross-interleaving equivalence: how the engine interleaves the PEs
//! must be unobservable in everything but simulated time.
//!
//! The two interleavings are two settings of the one engine: every PE
//! runnable at once (one worker slot per PE, the host scheduler decides
//! the order — what the retired thread-per-PE backend measured) and one
//! worker granting slots from a seeded RNG (a deterministic schedule per
//! seed). For every collective × algorithm × sync mode at paper-scale PE
//! counts (n ∈ 2..=8) both must produce byte-identical result buffers,
//! equal `RunReport::stats` (every PE's tally, written on one thread or
//! on several, sums to the same counts) and structurally identical
//! `RunReport::collectives` telemetry (same op/byte/stage/signal counts;
//! simulated *cycle* fields are masked — channel-occupancy sampling is
//! interleaving-sensitive by design).

// The `..ProptestConfig::default()` spread is upstream proptest's
// canonical config idiom; the local shim happens to have no other
// fields, which trips needless_update.
#![allow(clippy::needless_update)]

use proptest::prelude::*;
use xbrtime::collectives::{self, AllReduceAlgo};
use xbrtime::{
    AlgorithmPolicy, CollectiveRecord, EngineConfig, Fabric, FabricConfig, FabricStats, ReduceOp,
    SyncMode,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Broadcast,
    Reduce,
    Scatter,
    Gather,
    AllReduce,
    AllGather,
    AllToAll,
}

const KINDS: [Kind; 7] = [
    Kind::Broadcast,
    Kind::Reduce,
    Kind::Scatter,
    Kind::Gather,
    Kind::AllReduce,
    Kind::AllGather,
    Kind::AllToAll,
];

const ALGOS: [AlgorithmPolicy; 4] = [
    AlgorithmPolicy::Auto,
    AlgorithmPolicy::Binomial,
    AlgorithmPolicy::Linear,
    AlgorithmPolicy::Ring,
];

const SYNCS: [SyncMode; 4] = [
    SyncMode::Auto,
    SyncMode::Barrier,
    SyncMode::Signaled,
    SyncMode::Pipelined,
];

/// Run one collective workload on the given engine and return what the
/// equivalence check compares: per-PE result buffers, the fabric
/// counters, and the telemetry rows with interleaving-sensitive cycle
/// fields masked.
fn run_one(
    engine: EngineConfig,
    kind: Kind,
    algo: AlgorithmPolicy,
    sync: SyncMode,
    n: usize,
    nelems: usize,
    root: usize,
) -> (Vec<Vec<u64>>, FabricStats, Vec<CollectiveRecord>) {
    let cfg = FabricConfig::paper(n)
        .with_shared_bytes(1 << 20)
        .with_engine(engine);
    // Ragged per-PE counts for the irregular collectives.
    let msgs: Vec<usize> = (0..n).map(|i| 1 + (nelems + i * 3) % 17).collect();
    let disp: Vec<usize> = msgs
        .iter()
        .scan(0, |at, &m| {
            let d = *at;
            *at += m;
            Some(d)
        })
        .collect();
    let total: usize = msgs.iter().sum();
    let report = Fabric::run(cfg, |pe| {
        let me = pe.rank() as u64;
        match kind {
            Kind::Broadcast => {
                let dest = pe.shared_malloc::<u64>(nelems);
                let src: Vec<u64> = (0..nelems as u64).map(|i| i * 3 + 1).collect();
                collectives::broadcast_policy_sync(pe, &dest, &src, nelems, 1, root, algo, sync);
                pe.barrier();
                pe.heap_read_vec(dest.whole(), nelems)
            }
            Kind::Reduce => {
                let src = pe.shared_malloc::<u64>(nelems);
                let vals: Vec<u64> = (0..nelems as u64).map(|i| me * 31 + i).collect();
                pe.heap_write(src.whole(), &vals);
                pe.barrier();
                let mut dest = vec![0u64; nelems];
                collectives::reduce_policy_sync(
                    pe,
                    &mut dest,
                    &src,
                    nelems,
                    1,
                    root,
                    ReduceOp::Sum,
                    algo,
                    sync,
                );
                pe.barrier();
                dest
            }
            Kind::Scatter => {
                let src: Vec<u64> = (0..total as u64).map(|i| i * 7 + 3).collect();
                let mut dest = vec![0u64; msgs[pe.rank()]];
                collectives::scatter_policy_sync(
                    pe, &mut dest, &src, &msgs, &disp, total, root, algo, sync,
                );
                pe.barrier();
                dest
            }
            Kind::Gather => {
                let src = vec![me * 5 + 1; msgs[pe.rank()]];
                let mut dest = vec![0u64; total];
                collectives::gather_policy_sync(
                    pe, &mut dest, &src, &msgs, &disp, total, root, algo, sync,
                );
                pe.barrier();
                dest
            }
            Kind::AllReduce => {
                let src = pe.shared_malloc::<u64>(nelems);
                let vals: Vec<u64> = (0..nelems as u64).map(|i| me + i * 11).collect();
                pe.heap_write(src.whole(), &vals);
                pe.barrier();
                let mut dest = vec![0u64; nelems];
                // The algorithm axis maps onto the two all-reduce
                // strategies (it has no binomial/ring shape of its own).
                let strat = match algo {
                    AlgorithmPolicy::Auto | AlgorithmPolicy::Binomial => {
                        AllReduceAlgo::RecursiveDoubling
                    }
                    _ => AllReduceAlgo::ReduceThenBroadcast,
                };
                collectives::reduce_all_sync(
                    pe,
                    &mut dest,
                    &src,
                    nelems,
                    ReduceOp::Sum,
                    strat,
                    sync,
                );
                pe.barrier();
                dest
            }
            Kind::AllGather => {
                let per = msgs[0];
                let src: Vec<u64> = (0..per as u64).map(|i| me * 100 + i).collect();
                let mut dest = vec![0u64; per * n];
                collectives::all_gather(pe, &mut dest, &src, per);
                pe.barrier();
                dest
            }
            Kind::AllToAll => {
                let per = msgs[0];
                let src: Vec<u64> = (0..(per * n) as u64).map(|i| me * 1000 + i).collect();
                let mut dest = vec![0u64; per * n];
                collectives::all_to_all_sync(pe, &mut dest, &src, per, SyncMode::Barrier);
                pe.barrier();
                dest
            }
        }
    });
    let masked = report
        .collectives
        .into_iter()
        .map(|mut r| {
            r.cycles = 0;
            r.wait_cycles = 0;
            r
        })
        .collect();
    (report.results, report.stats, masked)
}

fn assert_backends_agree(
    kind: Kind,
    algo: AlgorithmPolicy,
    sync: SyncMode,
    n: usize,
    nelems: usize,
    root: usize,
    seed: u64,
) {
    let every_pe = EngineConfig::coop().with_workers(n);
    let (res_all, stats_all, coll_all) = run_one(every_pe, kind, algo, sync, n, nelems, root);
    let one_worker = EngineConfig::coop().with_workers(1).with_seed(seed);
    let (res_one, stats_one, coll_one) = run_one(one_worker, kind, algo, sync, n, nelems, root);
    assert_eq!(
        res_all, res_one,
        "results diverged: {kind:?} {algo:?} {sync:?} n={n} nelems={nelems} root={root} seed={seed}"
    );
    assert_eq!(
        stats_all, stats_one,
        "fabric counters diverged: {kind:?} {algo:?} {sync:?} n={n} nelems={nelems} root={root} seed={seed}"
    );
    assert_eq!(
        coll_all, coll_one,
        "telemetry diverged: {kind:?} {algo:?} {sync:?} n={n} nelems={nelems} root={root} seed={seed}"
    );
}

/// Deterministic sweep: every collective kind under every concrete sync
/// mode, Auto algorithm selection, at the corner PE counts.
#[test]
fn every_collective_and_sync_mode_matches_across_backends() {
    for kind in KINDS {
        for sync in SyncMode::CONCRETE {
            for n in [2usize, 5, 8] {
                assert_backends_agree(kind, AlgorithmPolicy::Auto, sync, n, 33, n - 1, 0xA5);
            }
        }
    }
}

/// 256 PEs on the cooperative engine (auto workers): broadcast, the
/// binomial reduce fold and the recursive-doubling all-reduce under every
/// concrete sync mode converge — `Fabric::run` panics on a
/// `DeadlockReport` — to the closed-form buffers. Auto workers only: 256
/// runnable PEs would thrash a small host.
#[test]
fn fold_paths_and_signal_disciplines_converge_at_256_pes_on_coop() {
    const N: usize = 256;
    const NELEMS: usize = 64;
    let (n, rank_sum) = (N as u64, (N * (N - 1) / 2) as u64);
    for kind in [Kind::Broadcast, Kind::Reduce, Kind::AllReduce] {
        // What `run_one`'s inputs sum to, element by element.
        let expect: Vec<u64> = (0..NELEMS as u64)
            .map(|i| match kind {
                Kind::Broadcast => i * 3 + 1,
                Kind::Reduce => rank_sum * 31 + i * n,
                _ => rank_sum + i * 11 * n,
            })
            .collect();
        for sync in SyncMode::CONCRETE {
            let algo = AlgorithmPolicy::Binomial;
            let (results, _, _) = run_one(EngineConfig::coop(), kind, algo, sync, N, NELEMS, 0);
            // Only the root's reduce buffer is defined.
            let defined = if kind == Kind::Reduce { 1 } else { N };
            for (rank, got) in results.iter().take(defined).enumerate() {
                assert_eq!(got, &expect, "{kind:?} {sync:?} rank {rank}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Randomised cross-product: arbitrary kind/algorithm/sync/shape and
    /// scheduler seed still agree byte-for-byte across the two
    /// interleavings.
    #[test]
    fn backends_agree_on_random_configs(
        kind_i in 0usize..KINDS.len(),
        algo_i in 0usize..ALGOS.len(),
        sync_i in 0usize..SYNCS.len(),
        n in 2usize..=8,
        nelems in 1usize..=96,
        root_i in 0usize..8,
        seed in proptest::prelude::any::<u64>(),
    ) {
        assert_backends_agree(
            KINDS[kind_i],
            ALGOS[algo_i],
            SYNCS[sync_i],
            n,
            nelems,
            root_i % n,
            seed,
        );
    }
}
