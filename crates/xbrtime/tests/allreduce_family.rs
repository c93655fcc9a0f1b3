//! The allreduce/allgather schedule-generator family as first-class
//! citizens of the verification planes:
//!
//! * every generator (recursive doubling, Rabenseifner, ring,
//!   dissemination allgather) is held to the **dense single-PE
//!   reference** by the byte-provenance oracle for n ∈ 2..=9 under every
//!   concrete sync mode — including the non-power-of-two tails the
//!   generators now fold internally;
//! * proptests sweep arbitrary (generator, n_pes, nelems) cells through
//!   the same oracle;
//! * end-to-end execution equivalence: every family member produces the
//!   identical fold whether every PE runs at once or one seeded worker
//!   interleaves them, and `Auto` always agrees
//!   with whatever it resolved to.

// The `..ProptestConfig::default()` spread is upstream proptest's
// canonical config idiom; the local shim happens to have no other
// fields, which trips needless_update.
#![allow(clippy::needless_update)]

use proptest::prelude::*;
use xbrtime::collectives::extended::{
    allreduce_rabenseifner, allreduce_recursive_doubling, allreduce_ring,
};
use xbrtime::collectives::schedule::{CommSchedule, Row, Shape};
use xbrtime::collectives::verify::{check_schedule, CollectiveSpec, ModelConfig};
use xbrtime::collectives::{
    self, allgatherv_dissemination_sched, prefix_displacements, AllGatherVAlgo, AllReduceAlgo,
};
use xbrtime::{CollectiveKind, EngineConfig, Fabric, FabricConfig, SyncMode};

// ---------------------------------------------------------------------
// Oracle: dense-reference equivalence of every generator.
// ---------------------------------------------------------------------

/// The uniform dissemination all-gather: the v-generator on a constant
/// count table.
fn uniform_dissemination_sched(n: usize, per_pe: usize) -> CommSchedule {
    allgatherv_dissemination_sched(n, &prefix_displacements(&vec![per_pe; n]))
}

fn oracle_ok(sched: &CommSchedule, sync: SyncMode, spec: &CollectiveSpec, what: &str) {
    let report = check_schedule(sched, sync, spec, &ModelConfig::default());
    assert!(
        report.ok(),
        "{what} [{}]: {}",
        sync.name(),
        report.summary()
    );
}

/// Each allreduce generator against the dense fold reference, n 2..=9 —
/// power-of-two, odd, and the `2^k + 1` worst cases — with payloads that
/// tile unevenly across both the PE count and its power-of-two floor.
#[test]
fn allreduce_generators_match_dense_reference() {
    for n in 2..=9usize {
        for nelems in [1usize, 2, 3, 7, 8, 13] {
            for sync in SyncMode::CONCRETE {
                let spec = CollectiveSpec::AllReduce { nelems };
                oracle_ok(
                    &allreduce_recursive_doubling(n, nelems),
                    sync,
                    &spec,
                    &format!("rec-doubling n={n} nelems={nelems}"),
                );
                oracle_ok(
                    &allreduce_rabenseifner(n, nelems),
                    sync,
                    &spec,
                    &format!("rabenseifner n={n} nelems={nelems}"),
                );
                oracle_ok(
                    &allreduce_ring(n, nelems),
                    sync,
                    &spec,
                    &format!("ring n={n} nelems={nelems}"),
                );
            }
        }
    }
}

/// The log-stage dissemination allgather against the provenance
/// reference (every atom must originate in its contributor's local
/// source), including the cyclic-window wraparound at non-power-of-two n.
#[test]
fn allgather_doubling_matches_reference() {
    for n in 1..=9usize {
        for per_pe in [1usize, 2, 5] {
            for sync in SyncMode::CONCRETE {
                oracle_ok(
                    &uniform_dissemination_sched(n, per_pe),
                    sync,
                    &CollectiveSpec::AllGather { per_pe },
                    &format!("allgather-rd n={n} per_pe={per_pe}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Arbitrary (generator, n, nelems) cells through the oracle.
    #[test]
    fn prop_allreduce_generator_matches_reference(
        n in 2usize..=9,
        nelems in 1usize..=96,
        which in 0usize..4,
        sync_ix in 0usize..3,
    ) {
        let algo = AllReduceAlgo::CONCRETE[which];
        let shape = Shape::AllReduce { algo, nelems };
        let sched = Row { shape, members: None, world: n }.schedule();
        let sync = SyncMode::CONCRETE[sync_ix];
        let report = check_schedule(
            &sched,
            sync,
            &CollectiveSpec::AllReduce { nelems },
            &ModelConfig::default(),
        );
        prop_assert!(
            report.ok(),
            "{} n={} nelems={} [{}]: {}",
            algo.name(), n, nelems, sync.name(), report.summary()
        );
    }

    /// Arbitrary dissemination-allgather cells through the oracle.
    #[test]
    fn prop_allgather_doubling_matches_reference(
        n in 1usize..=9,
        per_pe in 1usize..=24,
        sync_ix in 0usize..3,
    ) {
        let sched = uniform_dissemination_sched(n, per_pe);
        let sync = SyncMode::CONCRETE[sync_ix];
        let report = check_schedule(
            &sched,
            sync,
            &CollectiveSpec::AllGather { per_pe },
            &ModelConfig::default(),
        );
        prop_assert!(
            report.ok(),
            "allgather-rd n={} per_pe={} [{}]: {}",
            n, per_pe, sync.name(), report.summary()
        );
    }
}

// ---------------------------------------------------------------------
// Execution: both interleavings, every family member, exact fold values.
// ---------------------------------------------------------------------

/// One blocking all-reduce per PE: every rank's result, and the
/// all-reduce episodes the run reported.
fn run_allreduce(
    engine: EngineConfig,
    n: usize,
    nelems: usize,
    algo: AllReduceAlgo,
    sync: SyncMode,
) -> (Vec<Vec<u64>>, u64) {
    let cfg = FabricConfig::paper(n)
        .with_shared_bytes(1 << 20)
        .with_engine(engine);
    let report = Fabric::run(cfg, move |pe| {
        let me = pe.rank() as u64;
        let src = pe.shared_malloc::<u64>(nelems);
        let vals: Vec<u64> = (0..nelems as u64).map(|i| me * 37 + i * 5 + 1).collect();
        pe.heap_write(src.whole(), &vals);
        pe.barrier();
        let mut dest = vec![0u64; nelems];
        collectives::reduce_all_with(
            pe,
            &mut dest,
            &src,
            nelems,
            |a, b| a.wrapping_add(b),
            algo,
            sync,
        );
        pe.barrier();
        dest
    });
    let calls = report
        .collective(CollectiveKind::AllReduce)
        .map_or(0, |r| r.calls);
    (report.results, calls)
}

/// Every algorithm × both interleavings (every PE runnable, one seeded
/// worker) lands the exact dense sum on every rank, at power-of-two and
/// ragged PE counts with payloads that split unevenly (nelems ∤ n and
/// nelems < n among them) — and every call, reduce-then-broadcast
/// included, reports as exactly one all-reduce episode.
#[test]
fn allreduce_family_exact_on_both_backends() {
    let algos = AllReduceAlgo::CONCRETE
        .into_iter()
        .chain([AllReduceAlgo::Auto]);
    for n in [2usize, 3, 5, 8] {
        for nelems in [3usize, 17] {
            let expect: Vec<u64> = (0..nelems as u64)
                .map(|i| (0..n as u64).map(|me| me * 37 + i * 5 + 1).sum())
                .collect();
            let one_worker = EngineConfig::coop().with_workers(1).with_seed(11);
            for engine in [EngineConfig::coop().with_workers(n), one_worker] {
                for algo in algos.clone() {
                    let (results, calls) = run_allreduce(engine, n, nelems, algo, SyncMode::Auto);
                    for (rank, got) in results.iter().enumerate() {
                        assert_eq!(
                            got,
                            &expect,
                            "{} n={n} nelems={nelems} rank={rank}",
                            algo.name()
                        );
                    }
                    assert_eq!(calls, 1, "{} n={n} nelems={nelems}", algo.name());
                }
            }
        }
    }
}

/// Every allgather algorithm agrees with the rank-ordered concatenation
/// on both interleavings.
#[test]
fn allgather_algorithms_exact_on_both_backends() {
    for n in [2usize, 5, 9] {
        for per_pe in [1usize, 4] {
            let expect: Vec<u64> = (0..n as u64)
                .flat_map(|me| (0..per_pe as u64).map(move |i| me * 100 + i))
                .collect();
            let one_worker = EngineConfig::coop().with_workers(1).with_seed(7);
            for engine in [EngineConfig::coop().with_workers(n), one_worker] {
                for algo in AllGatherVAlgo::CONCRETE {
                    let cfg = FabricConfig::paper(n)
                        .with_shared_bytes(1 << 20)
                        .with_engine(engine);
                    let results = Fabric::run(cfg, move |pe| {
                        let me = pe.rank() as u64;
                        let src: Vec<u64> = (0..per_pe as u64).map(|i| me * 100 + i).collect();
                        let mut dest = vec![0u64; per_pe * n];
                        collectives::all_gather_algo_sync(
                            pe,
                            &mut dest,
                            &src,
                            per_pe,
                            algo,
                            SyncMode::Auto,
                        );
                        pe.barrier();
                        dest
                    })
                    .results;
                    for (rank, got) in results.iter().enumerate() {
                        assert_eq!(got, &expect, "{algo:?} n={n} per_pe={per_pe} rank={rank}");
                    }
                }
            }
        }
    }
}
