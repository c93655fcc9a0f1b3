//! Golden-seed determinism of the cooperative scheduler.
//!
//! With one worker slot exactly one PE runs at a time and every grant is
//! drawn from the seeded scheduler RNG — a fault-plane yield included —
//! so a (seed, workload, fault config) triple fully determines the run:
//! the grant sequence (`RunReport::sched_log`), the per-PE trace event
//! order, the result buffers and every structural counter must all
//! replay identically — and a different seed must produce a visibly
//! different schedule.
//!
//! Absolute cycle *stamps* are deliberately excluded. The TLB/cache
//! models number a PE's private pages by first touch (see `timing.rs`),
//! but a private buffer keeps the in-page offset the allocator gave it,
//! and two runs place their small buffers at different offsets, which
//! adds a few hundred cycles of run-to-run noise that no scheduler can
//! remove. The schedule-visible signal is which events happen and in
//! what per-PE order, not where in a page the allocator parked a source
//! buffer.

use xbrtime::collectives::{self, AllReduceAlgo};
use xbrtime::{
    AlgorithmPolicy, EngineConfig, Fabric, FabricConfig, FaultConfig, ReduceOp, RunReport,
    SyncMode, TraceEvent,
};

/// A mixed workload exercising every park/unpark path: signaled and
/// pipelined executors (signal waits), barriers, and an all-reduce,
/// optionally under a fault plane.
fn run_workload(seed: u64, faults: Option<FaultConfig>) -> RunReport<Vec<u64>> {
    let mut cfg = FabricConfig::paper(6)
        .with_shared_bytes(1 << 20)
        .with_trace()
        .with_engine(EngineConfig::coop().with_workers(1).with_seed(seed));
    if let Some(f) = faults {
        cfg = cfg.with_faults(f);
    }
    Fabric::run(cfg, |pe| {
        let me = pe.rank() as u64;

        let bcast = pe.shared_malloc::<u64>(32);
        let src: Vec<u64> = (0..32).map(|i| i * 3 + 1).collect();
        collectives::broadcast_policy_sync(
            pe,
            &bcast,
            &src,
            32,
            1,
            0,
            AlgorithmPolicy::Binomial,
            SyncMode::Signaled,
        );

        let rsrc = pe.shared_malloc::<u64>(16);
        pe.heap_write(rsrc.whole(), &[me + 1; 16]);
        pe.barrier();
        let mut red = vec![0u64; 16];
        collectives::reduce_with(
            pe,
            &mut red,
            &rsrc,
            16,
            1,
            0,
            u64::wrapping_add,
            AlgorithmPolicy::Binomial,
            SyncMode::Pipelined,
        );

        let asrc = pe.shared_malloc::<u64>(8);
        pe.heap_write(asrc.whole(), &[me * 7 + 1; 8]);
        pe.barrier();
        let mut all = vec![0u64; 8];
        collectives::reduce_all_sync(
            pe,
            &mut all,
            &asrc,
            8,
            ReduceOp::Sum,
            AllReduceAlgo::RecursiveDoubling,
            SyncMode::Signaled,
        );
        pe.barrier();

        let mut out = pe.heap_read_vec::<u64>(bcast.whole(), 32);
        out.extend(red);
        out.extend(all);
        out
    })
}

/// The merged trace with cycle stamps masked: `TracePlane::merge`
/// concatenates the per-PE rings in rank order, so comparing the masked
/// vector asserts each PE emitted the same events in the same order.
fn masked_events(r: &RunReport<Vec<u64>>) -> Vec<TraceEvent> {
    r.trace
        .as_ref()
        .expect("run was traced")
        .events
        .iter()
        .map(|e| {
            let mut e = *e;
            e.cycle_start = 0;
            e.cycle_end = 0;
            e
        })
        .collect()
}

#[test]
fn same_seed_replays_identical_schedule_and_trace() {
    let a = run_workload(0xDEC0DE, None);
    let b = run_workload(0xDEC0DE, None);

    assert!(
        !a.sched_log.is_empty(),
        "cooperative run must record scheduling decisions"
    );
    assert_eq!(
        a.sched_log, b.sched_log,
        "same seed must make identical scheduling decisions"
    );
    assert_eq!(
        masked_events(&a),
        masked_events(&b),
        "same seed must produce the identical per-PE trace event order"
    );
    assert_eq!(a.results, b.results);
    assert_eq!(a.stats, b.stats);
}

/// FNV-1a over the grant log, four little-endian bytes per grant.
fn log_digest(log: &[u32]) -> u64 {
    log.iter()
        .flat_map(|g| g.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The grant log of one fixed workload and seed, pinned. At one worker
/// slot the log is a function of the seed and the order in which PEs
/// become ready, so a change to the pick rule, or to the order in which a
/// collective parks its PEs, moves it.
#[test]
fn grant_log_is_pinned() {
    const PINNED: (usize, u64) = (83, 0x531c_4934_815f_2a21);
    let log = run_workload(7, None).sched_log;
    assert_eq!(
        (log.len(), log_digest(&log)),
        PINNED,
        "the one-worker grant log moved: got ({}, {:#018x})",
        log.len(),
        log_digest(&log)
    );
}

/// The same workload under `FaultConfig::delays(29)`, pinned. A fault
/// delay is a yield to the seeded scheduler, so at one worker slot the
/// faulted run is as reproducible as the fault-free one: the grant log,
/// the yield count and the buffers replay, in process and across builds.
#[test]
fn faulted_grant_log_is_pinned() {
    const PINNED: (usize, u64, u64) = (96, 0x9fee_4b49_6746_2fa5, 10);
    let a = run_workload(7, Some(FaultConfig::delays(29)));
    let b = run_workload(7, Some(FaultConfig::delays(29)));
    assert_eq!(
        a.sched_log, b.sched_log,
        "a faulted run must replay its grants"
    );
    assert_eq!(a.results, b.results);
    assert_eq!(
        a.results,
        run_workload(7, None).results,
        "yields changed the data"
    );
    let log = &a.sched_log;
    assert_eq!(
        (log.len(), log_digest(log), a.stats.yields),
        PINNED,
        "the faulted one-worker grant log moved: got ({}, {:#018x}, {})",
        log.len(),
        log_digest(log),
        a.stats.yields
    );
}

#[test]
fn different_seed_changes_the_schedule() {
    let base = run_workload(1, None);
    // A single alternate seed could in principle collide on a short
    // schedule; across several the grant order must move at least once.
    let moved = (2u64..8).any(|s| run_workload(s, None).sched_log != base.sched_log);
    assert!(
        moved,
        "the grant sequence never varied across seeds 2..8 — the seed is dead"
    );
    // Whatever the schedule, the data plane is schedule-invariant.
    let other = run_workload(2, None);
    assert_eq!(base.results, other.results);
}
