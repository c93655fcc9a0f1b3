//! Chaos harness: every collective × sync mode × awkward PE count under
//! seeded fault injection. Benign faults (yields to the seeded scheduler)
//! must leave the results byte-identical to a fault-free run, on every
//! engine seed; lossy faults must either converge (redelivery) or die
//! loudly with a [`DeadlockReport`] naming the culpable PE and stage —
//! never hang silently.

// The `..ProptestConfig::default()` spread is upstream proptest's
// canonical config idiom; the local shim happens to have no other
// fields, which trips needless_update.
#![allow(clippy::needless_update)]

use proptest::prelude::*;
use std::time::{Duration, Instant};
use xbrtime::collectives::{self, AllReduceAlgo};
use xbrtime::{
    AlgorithmPolicy, EngineConfig, Fabric, FabricConfig, FabricStats, FaultConfig, ReduceOp,
    RunError, SyncMode, WaitSite,
};

/// The collective shapes the chaos plane exercises.
const KINDS: [&str; 5] = ["broadcast", "reduce", "scatter", "gather", "reduce_all"];

/// One worker slot: every grant, and so every interleaving a fault-plane
/// yield produces, is drawn from `seed`.
fn one_worker(seed: u64) -> EngineConfig {
    EngineConfig::coop().with_workers(1).with_seed(seed)
}

/// The delay plane's two arms for fault seed `seed`: the benign preset,
/// and every fabric op a preemption point.
fn delay_arms(seed: u64) -> [FaultConfig; 2] {
    [
        FaultConfig::delays(seed),
        FaultConfig {
            yield_permille: 1000,
            ..FaultConfig::none(seed)
        },
    ]
}

/// Run one collective on `n` PEs and return every PE's local result
/// buffer, with the fabric's counters. `faults: None` is the golden
/// fault-free run.
fn run_case(
    kind: &'static str,
    sync: SyncMode,
    n: usize,
    root: usize,
    engine: EngineConfig,
    faults: Option<FaultConfig>,
) -> (Vec<Vec<u64>>, FabricStats) {
    let mut cfg = FabricConfig::new(n)
        .with_engine(engine)
        .with_watchdog(Duration::from_secs(30));
    if let Some(f) = faults {
        cfg = cfg.with_faults(f);
    }
    // Uneven per-PE counts for scatter/gather stress the tail paths.
    let msgs: Vec<usize> = (0..n).map(|i| (i % 3) + 1).collect();
    let disp: Vec<usize> = msgs
        .iter()
        .scan(0, |at, &m| {
            let d = *at;
            *at += m;
            Some(d)
        })
        .collect();
    let total: usize = msgs.iter().sum();
    let report = Fabric::run(cfg, move |pe| {
        let me = pe.rank() as u64;
        match kind {
            "broadcast" => {
                let dest = pe.shared_malloc::<u64>(33);
                let src: Vec<u64> = (0..33).map(|i| i * 7 + 1).collect();
                collectives::broadcast_policy_sync(
                    pe,
                    &dest,
                    &src,
                    33,
                    1,
                    root,
                    AlgorithmPolicy::Binomial,
                    sync,
                );
                pe.heap_read_vec(dest.whole(), 33)
            }
            "reduce" => {
                let src = pe.shared_malloc::<u64>(17);
                pe.heap_write(src.whole(), &[me + 1; 17]);
                pe.barrier();
                let mut dest = vec![0u64; 17];
                collectives::reduce_with(
                    pe,
                    &mut dest,
                    &src,
                    17,
                    1,
                    root,
                    u64::wrapping_add,
                    AlgorithmPolicy::Binomial,
                    sync,
                );
                dest
            }
            "scatter" => {
                let src: Vec<u64> = (0..total as u64).map(|i| i + 100).collect();
                let mut dest = vec![0u64; msgs[pe.rank()]];
                collectives::scatter_policy_sync(
                    pe,
                    &mut dest,
                    &src,
                    &msgs,
                    &disp,
                    total,
                    root,
                    AlgorithmPolicy::Binomial,
                    sync,
                );
                dest
            }
            "gather" => {
                let src = vec![me * 11 + 1; msgs[pe.rank()]];
                let mut dest = vec![0u64; total];
                collectives::gather_policy_sync(
                    pe,
                    &mut dest,
                    &src,
                    &msgs,
                    &disp,
                    total,
                    root,
                    AlgorithmPolicy::Binomial,
                    sync,
                );
                dest
            }
            _ => {
                let src = pe.shared_malloc::<u64>(9);
                pe.heap_write(src.whole(), &[me * 3 + 1; 9]);
                pe.barrier();
                let mut dest = vec![0u64; 9];
                collectives::reduce_all_sync(
                    pe,
                    &mut dest,
                    &src,
                    9,
                    ReduceOp::Sum,
                    AllReduceAlgo::RecursiveDoubling,
                    sync,
                );
                dest
            }
        }
    });
    (report.results, report.stats)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Delay-only chaos is semantically invisible: for any collective,
    /// sync mode, (non-power-of-two-friendly) PE count, root, engine seed,
    /// fault seed and delay arm, the faulted one-worker run yields exactly
    /// the fault-free buffers.
    #[test]
    fn delay_chaos_preserves_every_collective(
        kind_ix in 0usize..KINDS.len(),
        sync_ix in 0usize..SyncMode::CONCRETE.len(),
        n in 3usize..8,
        root_sel in 0usize..8,
        engine_seed in any::<u64>(),
        seed in any::<u64>(),
        arm in 0usize..2,
    ) {
        let kind = KINDS[kind_ix];
        let sync = SyncMode::CONCRETE[sync_ix];
        let root = root_sel % n;
        let faults = delay_arms(seed)[arm];
        let (golden, _) = run_case(kind, sync, n, root, one_worker(0), None);
        let (faulted, _) = run_case(kind, sync, n, root, one_worker(engine_seed), Some(faults));
        prop_assert_eq!(
            golden, faulted,
            "{} n={} root={} {:?} engine seed={} {:?}: delays changed the data",
            kind, n, root, sync, engine_seed, faults
        );
    }
}

#[test]
fn dropped_signals_trip_watchdog_naming_pe_and_stage() {
    // Permanent signal loss under every signal-using sync mode: the run
    // must end in a structured report whose culprit is parked on a
    // signal wait inside a known collective stage — not a silent hang.
    for sync in [SyncMode::Signaled, SyncMode::Pipelined] {
        for seed in [1u64, 2, 3] {
            let cfg = FabricConfig::new(6)
                .with_watchdog(Duration::from_millis(400))
                .with_faults(FaultConfig::drops_forever(seed, 1000));
            let result = Fabric::try_run(cfg, move |pe| {
                let dest = pe.shared_malloc::<u64>(48);
                collectives::broadcast_policy_sync(
                    pe,
                    &dest,
                    &[3u64; 48],
                    48,
                    1,
                    0,
                    AlgorithmPolicy::Binomial,
                    sync,
                );
            });
            match result {
                Err(RunError::Deadlock(report)) => {
                    let stuck = report.stuck();
                    assert!(
                        matches!(stuck.site, WaitSite::Signal { .. }),
                        "{sync:?} seed {seed}: culprit should be on a signal wait: {report}"
                    );
                    assert!(
                        stuck.collective.is_some(),
                        "{sync:?} seed {seed}: report must name the collective: {report}"
                    );
                    assert!(
                        stuck.stage.is_some(),
                        "{sync:?} seed {seed}: report must name the stage: {report}"
                    );
                }
                other => panic!("{sync:?} seed {seed}: expected Err(Deadlock), got {other:?}"),
            }
        }
    }
}

#[test]
fn dropped_chunk_signal_report_names_pe_stage_and_chunk() {
    use xbrtime::collectives::policy::{slot_role, SlotRole};
    use xbrtime::collectives::schedule::{self, broadcast_binomial};
    use xbrtime::fabric::CollectiveKind;

    // One pipelined Put of 128 KiB (8 chunks) from PE 0 to PE 1, with
    // every signal dropped forever: PE 1 wedges at the drain waiting for
    // chunk 0's completion signal. The report must name not just the PE
    // and collective but the exact op and chunk index, via the signal
    // table's slot layout.
    let nelems = 16_384usize; // × u64 = 128 KiB → 8 pipeline chunks
    let cfg = FabricConfig::new(2)
        .with_shared_bytes(nelems * 8 + (1 << 20))
        .with_watchdog(Duration::from_millis(400))
        .with_faults(FaultConfig::drops_forever(5, 1000));
    let result = Fabric::try_run(cfg, move |pe| {
        let buf = pe.shared_malloc::<u64>(nelems);
        let sched = broadcast_binomial(2, 0, nelems, 1);
        schedule::execute(
            pe,
            &sched,
            buf.whole(),
            &[],
            &mut [],
            None,
            SyncMode::Pipelined,
        );
    });
    let report = match result {
        Err(RunError::Deadlock(report)) => report,
        other => panic!("expected Err(Deadlock), got {other:?}"),
    };
    let stuck = report.stuck();
    assert_eq!(stuck.rank, 1, "the receiver is the wedged PE: {report}");
    assert_eq!(
        stuck.collective,
        Some(CollectiveKind::Broadcast),
        "report must name the collective: {report}"
    );
    // The drain runs after the schedule's single stage.
    assert_eq!(stuck.stage, Some(1), "drain stage: {report}");
    let WaitSite::Signal { off } = stuck.site else {
        panic!("culprit should be on a signal wait: {report}");
    };
    let slot = report
        .signal_slot(off)
        .expect("wait offset must fall inside the signal table");
    assert_eq!(
        slot_role(slot),
        (0, SlotRole::Chunk(0)),
        "first pending wait is op 0 chunk 0: {report}"
    );
    assert!(
        report.to_string().contains("chunk 0"),
        "rendered report names the chunk: {report}"
    );
}

/// The deterministic half of the delay plane: every collective × every
/// concrete sync mode × three awkward (PE count, fault seed) pairs × four
/// engine seeds × both delay arms, at one worker slot, faulted buffers
/// byte-identical to the fault-free run. The proptest above samples this
/// space; the grid covers each cell every run, and every cell replays.
#[test]
fn delay_grid_preserves_every_collective() {
    for kind in KINDS {
        for sync in SyncMode::CONCRETE {
            for (n, seed) in [(5usize, 17u64), (6, 23), (7, 29)] {
                let (golden, _) = run_case(kind, sync, n, 0, one_worker(0), None);
                for engine_seed in 0..4 {
                    for faults in delay_arms(seed) {
                        let engine = one_worker(engine_seed);
                        let (faulted, stats) = run_case(kind, sync, n, 0, engine, Some(faults));
                        assert_eq!(
                            golden, faulted,
                            "{kind} n={n} {sync:?} engine seed={engine_seed} {faults:?}: \
                             delays changed the data ({} yields)",
                            stats.yields
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn redelivered_drops_converge_across_sync_modes() {
    // Lossy-but-recovering chaos: signals are dropped and redelivered
    // 1.5 ms later. Every signal-plane collective still converges and
    // consumes exactly what was posted, and every dropped signal is
    // redelivered.
    for sync in [SyncMode::Signaled, SyncMode::Pipelined] {
        for kind in ["broadcast", "reduce_all"] {
            for seed in [11, 41] {
                let engine = EngineConfig::default();
                let (golden, _) = run_case(kind, sync, 6, 0, engine, None);
                let cfg_faults = FaultConfig::drops_with_redelivery(seed, 350, 1_500);
                let (faulted, stats) = run_case(kind, sync, 6, 0, engine, Some(cfg_faults));
                let what = format!("{kind} {sync:?} seed={seed}");
                assert_eq!(golden, faulted, "{what}: redelivered run diverged");
                assert_eq!(
                    stats.signals_dropped, stats.signals_redelivered,
                    "{what}: a dropped signal was never redelivered"
                );
            }
        }
    }
}

#[test]
fn permanent_loss_is_reported_promptly() {
    // With a 500 ms watchdog, permanent signal loss must turn into a
    // structured report well inside 20 s: the scheduler sees the fabric
    // wedge instead of waiting out whole timeout windows.
    for sync in [SyncMode::Signaled, SyncMode::Pipelined] {
        let cfg = FabricConfig::new(6)
            .with_watchdog(Duration::from_millis(500))
            .with_faults(FaultConfig::drops_forever(13, 1000));
        let t0 = Instant::now();
        let result = Fabric::try_run(cfg, move |pe| {
            let dest = pe.shared_malloc::<u64>(64);
            collectives::broadcast_policy_sync(
                pe,
                &dest,
                &[9u64; 64],
                64,
                1,
                0,
                AlgorithmPolicy::Binomial,
                sync,
            );
        });
        let elapsed = t0.elapsed();
        let report = match result {
            Err(RunError::Deadlock(report)) => report,
            other => panic!("{sync:?}: expected Err(Deadlock), got {other:?}"),
        };
        let stuck = report.stuck();
        assert!(
            matches!(stuck.site, WaitSite::Signal { .. })
                && stuck.collective.is_some()
                && stuck.stage.is_some(),
            "{sync:?}: the report must name a signal wait, collective and stage: {report}"
        );
        assert!(
            elapsed < Duration::from_secs(20),
            "{sync:?}: deadlock reported after {elapsed:?}"
        );
    }
}
