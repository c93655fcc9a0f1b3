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

/// FNV-1a over whole words.
fn words_digest(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(h, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
}

/// One call of every public entry point on 8 PEs (two nodes of four):
/// the four rooted `*_policy_sync` at Binomial and at Auto, the three
/// `try_*` v-entry points on a ragged table with a zero block,
/// `all_gather_algo_sync`, `reduce_all_sync` for every strategy and for
/// Auto, `all_to_all_sync`, the team and hierarchical forms — every Auto
/// call at 64 B and at 128 KiB per PE — plus the uniform 8 KiB-per-PE
/// pairs whose `Auto` picks depend on the entry point. Each PE returns a
/// digest of every result buffer it holds.
fn entry_point_run() -> RunReport<u64> {
    use collectives::{vcoll, AllGatherVAlgo, Team};
    let cfg = FabricConfig::paper(8)
        .with_shared_bytes(16 << 20)
        .with_topology(xbrtime::Topology {
            pes_per_node: 4,
            intra_node_factor: 0.25,
        })
        .with_engine(EngineConfig::coop().with_workers(1).with_seed(7));
    Fabric::run(cfg, |pe| {
        let (me, n) = (pe.rank(), pe.n_pes());
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let (bin, auto) = (AlgorithmPolicy::Binomial, AlgorithmPolicy::Auto);
        let rooted = |per: usize, policy: AlgorithmPolicy, sync: SyncMode, h: &mut u64| {
            let vals: Vec<u64> = (0..per * n).map(|i| (i * 31 + me) as u64).collect();
            let bdest = pe.shared_malloc::<u64>(per);
            collectives::broadcast_policy_sync(pe, &bdest, &vals, per, 1, 3, policy, sync);
            *h = words_digest(*h, pe.heap_read_vec::<u64>(bdest.whole(), per));
            let rsrc = pe.shared_malloc::<u64>(per);
            pe.heap_write(rsrc.whole(), &vals[..per]);
            pe.barrier();
            let mut out = vec![0u64; per];
            collectives::reduce_policy_sync(
                pe,
                &mut out,
                &rsrc,
                per,
                1,
                5,
                ReduceOp::Sum,
                policy,
                sync,
            );
            *h = words_digest(*h, out);
            let (msgs, disp) = (vec![per; n], (0..n).map(|r| r * per).collect::<Vec<_>>());
            let mut mine = vec![0u64; per];
            collectives::scatter_policy_sync(
                pe,
                &mut mine,
                &vals,
                &msgs,
                &disp,
                per * n,
                2,
                policy,
                sync,
            );
            *h = words_digest(*h, mine.iter().copied());
            let mut all = vec![0u64; per * n];
            collectives::gather_policy_sync(
                pe,
                &mut all,
                &mine,
                &msgs,
                &disp,
                per * n,
                6,
                policy,
                sync,
            );
            *h = words_digest(*h, all);
            pe.shared_free(rsrc);
            pe.shared_free(bdest);
        };
        rooted(8, bin, SyncMode::Signaled, &mut h);
        for per in [8, 16 << 10] {
            rooted(per, auto, SyncMode::Auto, &mut h);
        }

        for per in [8usize, 16 << 10] {
            // Ragged, zero blocks included (rank 0 among them).
            let counts: Vec<usize> = (0..n).map(|r| r % 3 * per / 2).collect();
            let disp = vcoll::prefix_displacements(&counts);
            let total = disp[n];
            let vals: Vec<u64> = (0..total).map(|i| (i * 7 + me) as u64).collect();
            let mut mine = vec![0u64; counts[me]];
            vcoll::try_scatterv_policy_sync(
                pe,
                &mut mine,
                &vals,
                &counts,
                &disp[..n],
                1,
                auto,
                SyncMode::Auto,
            )
            .expect("well-formed table");
            h = words_digest(h, mine.iter().copied());
            let mut all = vec![0u64; total];
            vcoll::try_gatherv_policy_sync(
                pe,
                &mut all,
                &mine,
                &counts,
                &disp[..n],
                4,
                auto,
                SyncMode::Auto,
            )
            .expect("well-formed table");
            h = words_digest(h, all);
            let mut every = vec![0u64; total];
            let algo = AllGatherVAlgo::Auto;
            vcoll::try_allgatherv_algo_sync(pe, &mut every, &mine, &counts, algo, SyncMode::Auto)
                .expect("well-formed table");
            h = words_digest(h, every);

            let src: Vec<u64> = (0..per).map(|i| (i * 5 + me) as u64).collect();
            let mut every = vec![0u64; per * n];
            collectives::all_gather_algo_sync(pe, &mut every, &src, per, algo, SyncMode::Auto);
            h = words_digest(h, every);
        }

        let asrc = pe.shared_malloc::<u64>(16 << 10);
        for (per, algo) in AllReduceAlgo::CONCRETE
            .into_iter()
            .map(|a| (8, a))
            .chain([(8, AllReduceAlgo::Auto), (16 << 10, AllReduceAlgo::Auto)])
        {
            let vals: Vec<u64> = (0..per).map(|i| (i + me) as u64).collect();
            pe.heap_write(asrc.whole(), &vals);
            pe.barrier();
            let mut out = vec![0u64; per];
            collectives::reduce_all_sync(
                pe,
                &mut out,
                &asrc,
                per,
                ReduceOp::Sum,
                algo,
                SyncMode::Auto,
            );
            h = words_digest(h, out);
        }

        let src: Vec<u64> = (0..8 * n).map(|i| (i * 3 + me) as u64).collect();
        let mut out = vec![0u64; 8 * n];
        collectives::all_to_all_sync(pe, &mut out, &src, 8, SyncMode::Auto);
        h = words_digest(h, out);

        let team = Team::new((0..n).step_by(2).collect());
        let tdest = pe.shared_malloc::<u64>(8);
        team.broadcast(pe, &tdest, &src[..8], 8, 1, SyncMode::Signaled);
        h = words_digest(h, pe.heap_read_vec::<u64>(tdest.whole(), 8));
        pe.heap_write(asrc.whole(), &src[..8]);
        pe.barrier();
        let mut out = vec![0u64; 8];
        team.reduce_all(
            pe,
            &mut out,
            &asrc,
            8,
            u64::wrapping_add,
            SyncMode::Signaled,
        );
        h = words_digest(h, out);

        collectives::broadcast_hier(pe, &tdest, &src[..8], 8, 5, SyncMode::Signaled);
        h = words_digest(h, pe.heap_read_vec::<u64>(tdest.whole(), 8));
        let mut out = vec![0u64; 8];
        collectives::reduce_hier(
            pe,
            &mut out,
            &asrc,
            8,
            6,
            u64::wrapping_add,
            SyncMode::Signaled,
        );
        h = words_digest(h, out);

        // The uniform pairs, 8 KiB per PE under the pipelined executor.
        let per = 1 << 10;
        let pipe = SyncMode::Pipelined;
        let vals: Vec<u64> = (0..per * n).map(|i| (i ^ me) as u64).collect();
        let (msgs, disp) = (vec![per; n], (0..n).map(|r| r * per).collect::<Vec<_>>());
        let mut mine = vec![0u64; per];
        collectives::scatter_policy_sync(
            pe,
            &mut mine,
            &vals,
            &msgs,
            &disp,
            per * n,
            0,
            auto,
            pipe,
        );
        h = words_digest(h, mine.iter().copied());
        vcoll::try_scatterv_policy_sync(pe, &mut mine, &vals, &msgs, &disp, 0, auto, pipe)
            .expect("well-formed table");
        h = words_digest(h, mine.iter().copied());
        let mut every = vec![0u64; per * n];
        let algo = AllGatherVAlgo::Auto;
        collectives::all_gather_algo_sync(pe, &mut every, &mine, per, algo, pipe);
        h = words_digest(h, every.iter().copied());
        vcoll::try_allgatherv_algo_sync(pe, &mut every, &mine, &msgs, algo, pipe)
            .expect("well-formed table");
        words_digest(h, every)
    })
}

/// Every public entry point's outcome on one worker at seed 7, pinned:
/// the result buffers, `FabricStats`, each `CollectiveRecord`'s counts
/// and algorithm / sync masks, and the grant log. Per-PE cycles are left
/// out: private buffers are priced at their host in-page offsets, which
/// follow the test process's allocation history.
#[test]
fn every_entry_point_outcome_is_pinned() {
    let r = entry_point_run();
    let results = words_digest(0xcbf2_9ce4_8422_2325, r.results.iter().copied());
    let s = &r.stats;
    let stats = [
        s.puts,
        s.gets,
        s.nb_puts,
        s.nb_gets,
        s.bytes_put,
        s.bytes_get,
        s.barriers,
        s.local_transfers,
        s.remote_transfers,
        s.amos,
        s.signals,
        s.signal_waits,
        s.yields,
    ];
    let records: Vec<[u64; 11]> = r
        .collectives
        .iter()
        .map(|c| {
            [
                c.kind as u64,
                c.calls,
                c.puts,
                c.gets,
                c.bytes_put,
                c.bytes_get,
                c.stages,
                c.signals,
                c.waits,
                c.algo_mask,
                c.sync_mask,
            ]
        })
        .collect();
    let got = (
        results,
        words_digest(0xcbf2_9ce4_8422_2325, stats),
        words_digest(0xcbf2_9ce4_8422_2325, records.iter().flatten().copied()),
        r.sched_log.len(),
        log_digest(&r.sched_log),
    );
    const PINNED: (u64, u64, u64, usize, u64) = (
        0x3aef_a984_defc_411d,
        0xc03d_6596_27c7_e8a8,
        0xda95_4b79_13b8_14b7,
        1194,
        0xd798_4167_afe7_78e1,
    );
    assert_eq!(got, PINNED, "an entry point's outcome moved: got {got:#x?}");
}

/// The same uniform call resolves by two `Auto` rules depending on its
/// entry point (8 PEs × 8 KiB per PE, pipelined): the paper-signature
/// rules pick the binomial scatter and the dissemination all-gather, the
/// skew-aware v-rules the ring for both. The algorithm mask of each
/// call's record shows the pick.
#[test]
fn uniform_auto_picks_follow_the_entry_point() {
    use collectives::{vcoll, AllGatherVAlgo};
    const AUTO: AlgorithmPolicy = AlgorithmPolicy::Auto;
    const AGV: AllGatherVAlgo = AllGatherVAlgo::Auto;
    const PIPE: SyncMode = SyncMode::Pipelined;
    /// One entry point's call on the uniform table, its source and its
    /// result buffer.
    type Issue = fn(&xbrtime::Pe, &[usize], &[usize], &[u64], &mut [u64]);
    let mask = |call: Issue| {
        let cfg = FabricConfig::paper(8)
            .with_shared_bytes(4 << 20)
            .with_engine(EngineConfig::coop().with_workers(1).with_seed(7));
        let r = Fabric::run(cfg, move |pe| {
            let per = 1 << 10;
            let (msgs, disp) = (vec![per; 8], (0..8).map(|r| r * per).collect::<Vec<_>>());
            let vals = vec![1u64; per * 8];
            call(pe, &msgs, &disp, &vals, &mut vec![0u64; per * 8]);
        });
        r.collectives.iter().map(|c| c.algo_mask).sum::<u64>()
    };
    let (binomial, ring) = (1, 4);
    let scatter = mask(|pe, msgs, disp, vals, out| {
        collectives::scatter_policy_sync(pe, out, vals, msgs, disp, vals.len(), 0, AUTO, PIPE)
    });
    let scatterv = mask(|pe, msgs, disp, vals, out| {
        vcoll::try_scatterv_policy_sync(pe, out, vals, msgs, disp, 0, AUTO, PIPE).unwrap()
    });
    assert_eq!((scatter, scatterv), (binomial, ring));
    let all_gather = mask(|pe, msgs, _, vals, out| {
        collectives::all_gather_algo_sync(pe, out, &vals[..msgs[0]], msgs[0], AGV, PIPE)
    });
    let allgatherv = mask(|pe, msgs, _, vals, out| {
        vcoll::try_allgatherv_algo_sync(pe, out, &vals[..msgs[0]], msgs, AGV, PIPE).unwrap()
    });
    // An all-gather's key algorithm: dissemination is `Binomial`.
    assert_eq!((all_gather, allgatherv), (binomial, ring));
}
