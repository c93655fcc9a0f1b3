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
    AlgorithmPolicy, EngineConfig, Fabric, FabricConfig, FaultConfig, ReduceOp, RunError,
    RunReport, SyncMode, TraceEvent,
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

/// The merged trace with cycle stamps masked: `Trace::merge`
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

/// The same workload under `drops_with_redelivery(29, 350, 1_500)`,
/// pinned. A redelivered signal is a later arrival stamp on a slot raised
/// at post time, so a lossy one-worker run replays like a delays-only
/// one: grants, per-PE trace order, counters and buffers agree between
/// two runs, and the buffers are the fault-free run's. (Clocks are left
/// out for the reason the module doc gives.) A redelivered drop neither
/// yields nor leaves a waiter parked, so the log is
/// `grant_log_is_pinned`'s.
#[test]
fn lossy_grant_log_is_pinned() {
    const PINNED: (usize, u64, u64) = (83, 0x531c_4934_815f_2a21, 11);
    let lossy = FaultConfig::drops_with_redelivery(29, 350, 1_500);
    let a = run_workload(7, Some(lossy));
    let b = run_workload(7, Some(lossy));
    assert_eq!(
        a.sched_log, b.sched_log,
        "a lossy run must replay its grants"
    );
    assert_eq!(masked_events(&a), masked_events(&b));
    assert_eq!(a.results, b.results);
    assert_eq!(a.stats, b.stats);
    assert_eq!(
        a.results,
        run_workload(7, None).results,
        "redelivered drops changed the data"
    );
    let log = &a.sched_log;
    assert_eq!(
        (log.len(), log_digest(log), a.stats.signals_dropped),
        PINNED,
        "the lossy one-worker grant log moved: got ({}, {:#018x}, {})",
        log.len(),
        log_digest(log),
        a.stats.signals_dropped
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

/// Random get / put / AMO / load traffic over a 256-word table on four
/// PEs, at one worker slot and seed 7, with or without a host prefetch of
/// every table word on every PE before each step. Only heap words and one
/// stack word are priced, so two runs in one process charge the same.
fn hinted_run(hint: bool, trace: bool) -> RunReport<u64> {
    const N: usize = 256;
    let mut cfg = FabricConfig::paper(4)
        .with_shared_bytes(1 << 16)
        .with_engine(EngineConfig::coop().with_workers(1).with_seed(7));
    if trace {
        cfg = cfg.with_trace();
    }
    Fabric::run(cfg, move |pe| {
        let n = pe.n_pes();
        let table = pe.shared_malloc::<u64>(N);
        for i in 0..N {
            pe.heap_store(table.at(i), i as u64);
        }
        pe.barrier();
        let mut x = pe.rank() as u64 + 1;
        let mut v = [0u64];
        for _ in 0..64 {
            if hint {
                for p in 0..n {
                    for i in 0..N {
                        pe.host_prefetch(table.at(i), p);
                    }
                }
            }
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (p, i) = ((x >> 33) as usize % n, (x >> 41) as usize % N);
            pe.get(&mut v, table.at(i), 1, 1, p);
            let w = [v[0] ^ x];
            let _ = pe.put_nb(table.at(i), &w, 1, 1, p);
            pe.quiet();
            pe.amo_fetch_xor(table.at(N - 1 - i), x, p);
            pe.heap_load(table.at(i));
        }
        pe.barrier();
        (0..N).fold(0, |h, i| {
            h ^ pe.heap_load(table.at(i)).rotate_left(i as u32)
        })
    })
}

/// `Pe::host_prefetch` is a host hint and nothing else: a run that hints
/// every table word before every step charges, counts, schedules and
/// traces exactly what the same run without the hints does.
#[test]
fn a_host_prefetch_is_invisible_to_the_simulation() {
    let (bare, hinted) = (hinted_run(false, false), hinted_run(true, false));
    assert_eq!(bare.results, hinted.results);
    assert_eq!(bare.cycles, hinted.cycles);
    assert_eq!(bare.stats, hinted.stats);
    assert_eq!(bare.sched_log, hinted.sched_log);
    assert!(bare.stats.amos > 0 && bare.stats.remote_transfers > 0);

    let (bare, hinted) = (hinted_run(false, true), hinted_run(true, true));
    let events = |r: &RunReport<u64>| r.trace.as_ref().expect("traced").events.clone();
    assert_eq!(events(&bare).len(), events(&hinted).len());
    assert_eq!(events(&bare), events(&hinted));
}

/// A hint past the end of its allocation panics as the `get` of the same
/// word does.
#[test]
fn an_out_of_bounds_host_prefetch_panics_like_get() {
    let message = |hint: bool| {
        let cfg = FabricConfig::new(2).with_engine(EngineConfig::coop().with_workers(1));
        let result = Fabric::try_run(cfg, move |pe| {
            let table = pe.shared_malloc::<u64>(8);
            if hint {
                pe.host_prefetch(table.at(8), 1);
            } else {
                pe.get(&mut [0u64], table.at(8), 1, 1, 1);
            }
        });
        match result {
            Err(RunError::Panic(msg)) => msg,
            other => panic!("expected Err(Panic), got {:?}", other.map(|_| ())),
        }
    };
    let hinted = message(true);
    assert!(hinted.contains("only 0 remain"), "{hinted}");
    assert_eq!(hinted, message(false));
}

/// One 8-PE run at one worker slot and seed 7 that writes each PE's table
/// with `Pe::heap_fill` or with `Pe::heap_write` of the same values: the
/// whole table, a window at an odd offset that crosses pages, and nothing.
/// Each PE then gets its neighbour's table heap to heap (a private buffer
/// would be priced at its host in-page offset, which the `heap_write`
/// arm's source vectors move) and returns those words and its
/// memory-model counters.
fn fill_run(fill: bool) -> RunReport<(Vec<u64>, String)> {
    const N: usize = 3_000;
    let cfg = FabricConfig::paper(8)
        .with_shared_bytes(1 << 16)
        .with_engine(EngineConfig::coop().with_workers(1).with_seed(7));
    Fabric::run(cfg, move |pe| {
        let me = pe.rank();
        let (table, copy) = (pe.shared_malloc::<u64>(N), pe.shared_malloc::<u64>(N));
        let val = |base: usize| move |i: usize| (base + 7 * i) as u64 ^ 0x5a5a;
        for (at, n, base) in [(0, N, me * N), (5, N - 9, 11 * me), (N, 0, 0)] {
            if fill {
                pe.heap_fill(table.at(at), n, val(base));
            } else {
                pe.heap_write(table.at(at), &(0..n).map(val(base)).collect::<Vec<_>>());
            }
        }
        pe.barrier();
        pe.get_symm(copy.whole(), table.whole(), N, 1, (me + 1) % pe.n_pes());
        pe.barrier();
        let words = pe.heap_read_vec(copy.whole(), N);
        (words, format!("{:?}", pe.mem_stats()))
    })
}

/// `Pe::heap_fill` is `Pe::heap_write` without the source buffer: the
/// same bytes, per-PE cycles, memory-model counters, fabric counters and
/// grant log.
#[test]
fn heap_fill_matches_heap_write() {
    let (filled, written) = (fill_run(true), fill_run(false));
    assert_eq!(filled.results, written.results);
    assert_eq!(filled.cycles, written.cycles);
    assert_eq!(filled.stats, written.stats);
    assert_eq!(filled.sched_log, written.sched_log);
    // PE 7 holds PE 0's table; PE 0 holds PE 1's.
    assert_eq!(
        filled.results[7].0[..6],
        [0, 7, 14, 21, 28, 0].map(|v| v ^ 0x5a5a)
    );
    assert_eq!(filled.results[0].0[4], (3_000 + 7 * 4) ^ 0x5a5a);
    assert_eq!(filled.results[0].0[5], 11 ^ 0x5a5a);
}

/// A fill past the end of its allocation panics as the `heap_write` of
/// the same span does.
#[test]
fn an_out_of_bounds_heap_fill_panics_like_heap_write() {
    let message = |fill: bool| {
        let cfg = FabricConfig::new(2).with_engine(EngineConfig::coop().with_workers(1));
        let result = Fabric::try_run(cfg, move |pe| {
            let table = pe.shared_malloc::<u64>(8);
            if fill {
                pe.heap_fill(table.at(4), 5, |i| i as u64);
            } else {
                pe.heap_write(table.at(4), &[0u64; 5]);
            }
        });
        match result {
            Err(RunError::Panic(msg)) => msg,
            other => panic!("expected Err(Panic), got {:?}", other.map(|_| ())),
        }
    };
    let filled = message(true);
    assert!(filled.contains("only 4 remain"), "{filled}");
    assert_eq!(filled, message(false));
}
