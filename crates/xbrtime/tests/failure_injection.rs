//! Failure-injection tests: the runtime must fail *loudly* — a panicking
//! PE must not leave its peers spinning forever in a barrier, and every
//! misuse class must surface as a panic with a diagnosable message.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use xbrtime::{
    AlgorithmPolicy, CollectiveKind, EngineConfig, Fabric, FabricConfig, FaultConfig, PeSchedState,
    RunError, SyncMode, Topology, TraceKind, WaitSite,
};

#[test]
fn panicking_pe_releases_peers_waiting_at_barrier() {
    // PE 1 panics before its barrier; PEs 0 and 2 are already waiting.
    // Without poison propagation this would deadlock the test suite; with
    // it, Fabric::run panics promptly.
    let result = catch_unwind(AssertUnwindSafe(|| {
        Fabric::run(FabricConfig::new(3), |pe| {
            if pe.rank() == 1 {
                // Give peers time to reach the barrier first.
                std::thread::sleep(std::time::Duration::from_millis(30));
                panic!("injected failure on PE 1");
            }
            pe.barrier();
        })
    }));
    assert!(result.is_err(), "the injected panic must propagate");
}

#[test]
fn panic_message_is_preserved_or_poison_reported() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Fabric::run(FabricConfig::new(2), |pe| {
            if pe.rank() == 0 {
                panic!("synthetic fault 0xDEAD");
            }
            pe.barrier();
        })
    }));
    let err = result.unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("synthetic fault") || msg.contains("peer PE panicked"),
        "unhelpful panic payload: {msg:?}"
    );
}

#[test]
fn oversized_transfer_panics_with_span_diagnostics() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Fabric::run(FabricConfig::new(1), |pe| {
            let buf = pe.shared_malloc::<u64>(4);
            let src = [0u64; 16];
            pe.put(buf.whole(), &src, 16, 1, 0);
        })
    }));
    let err = result.unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("transfer of 16 elements") || msg.contains("peer PE panicked"),
        "message should explain the span violation: {msg:?}"
    );
}

#[test]
fn rank_out_of_range_is_caught_by_heap_indexing() {
    // Targeting a nonexistent PE must panic (index bounds), not corrupt.
    let result = catch_unwind(AssertUnwindSafe(|| {
        Fabric::run(FabricConfig::new(2), |pe| {
            let buf = pe.shared_malloc::<u64>(1);
            pe.barrier();
            if pe.rank() == 0 {
                pe.put(buf.whole(), &[1], 1, 1, 7); // no PE 7
            }
            pe.barrier();
        })
    }));
    assert!(result.is_err());
}

#[test]
fn collective_argument_validation_is_collective_safe() {
    // A validation failure raised on *every* PE (same bad arguments
    // everywhere, as SPMD misuse always is) must not deadlock.
    let result = catch_unwind(AssertUnwindSafe(|| {
        Fabric::run(FabricConfig::new(4), |pe| {
            let mut d = [0u32; 1];
            // pe_msgs sums to 2 but nelems says 5 — every PE panics in
            // validation before any communication.
            xbrtime::collectives::scatter(pe, &mut d, &[], &[1, 1, 0, 0], &[0, 1, 2, 2], 5, 0);
        })
    }));
    assert!(result.is_err());
}

/// A malformed collective call panics on the calling PE with a message
/// that names the argument. The row's own check runs before the plan
/// cache is touched; these three used to get as far as the generator,
/// inside the cache's build closure, and came back as one PE's
/// `PoisonError` from the shard lock the panic had poisoned.
#[test]
fn malformed_calls_name_their_argument_and_poison_no_shard() {
    type Body = fn(&xbrtime::Pe);
    let calls: [(&str, &str, Body); 3] = [
        ("team root", "root 2 out of range", |pe| {
            let team = xbrtime::collectives::Team::new(vec![0, 2]);
            let dest = pe.shared_malloc::<u64>(1);
            team.broadcast(pe, &dest, &[7], 1, 2, SyncMode::Barrier);
        }),
        (
            "team member",
            "team member 9 outside the 4-PE world",
            |pe| {
                let team = xbrtime::collectives::Team::new(vec![1, 9]);
                let dest = pe.shared_malloc::<u64>(1);
                team.broadcast(pe, &dest, &[7], 1, 0, SyncMode::Barrier);
            },
        ),
        ("hierarchical root", "root 4 out of range", |pe| {
            let dest = pe.shared_malloc::<u64>(1);
            xbrtime::collectives::broadcast_hier(pe, &dest, &[7], 1, 4, SyncMode::Barrier);
        }),
    ];
    for (what, names, body) in calls {
        let cfg = FabricConfig::new(4)
            .with_watchdog(Duration::from_secs(5))
            .with_topology(Topology {
                pes_per_node: 2,
                intra_node_factor: 0.25,
            });
        let err = match Fabric::try_run(cfg, body) {
            Err(RunError::Panic(msg)) => msg,
            other => panic!("{what}: expected a PE panic, got {:?}", other.map(|_| ())),
        };
        assert!(err.contains(names), "{what}: unhelpful message {err:?}");
        assert!(!err.contains("PoisonError"), "{what}: {err:?}");
    }
}

#[test]
fn exhausted_heap_names_the_pe_and_sizes() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Fabric::run(FabricConfig::new(1).with_shared_bytes(1024), |pe| {
            let _a = pe.shared_malloc::<u64>(4096); // 32 KiB into 1 KiB
        })
    }));
    let err = result.unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("symmetric heap exhausted"),
        "expected exhaustion diagnostics, got: {msg:?}"
    );
    assert!(msg.contains("PE 0"), "should name the PE: {msg:?}");
}

// ---------------------------------------------------------------------------
// Watchdog + fault plane
// ---------------------------------------------------------------------------

#[test]
fn stranded_signal_wait_trips_watchdog_with_report() {
    // PE 1 waits on a signal nobody posts. The watchdog must convert the
    // silent hang into a structured DeadlockReport naming the PE and slot.
    let cfg = FabricConfig::new(2).with_watchdog(Duration::from_millis(300));
    let started = std::time::Instant::now();
    let result = Fabric::try_run(cfg, |pe| {
        let table = pe.signal_table(4);
        if pe.rank() == 1 {
            pe.signal_wait(table.offset(2));
        }
        pe.barrier();
    });
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "watchdog must fire well before a human notices the hang"
    );
    match result {
        Err(RunError::Deadlock(report)) => {
            assert_eq!(report.stuck().rank, 1, "PE 1 is the stuck PE");
            assert!(
                matches!(report.stuck().site, WaitSite::Signal { .. }),
                "stuck site should be a signal wait: {:?}",
                report.stuck().site
            );
            // The rendered report names the slot index via the published
            // signal table.
            let text = report.to_string();
            assert!(text.contains("slot 2"), "report should name slot 2: {text}");
            assert!(text.contains("PE 1"), "report should name PE 1: {text}");
        }
        other => panic!("expected Err(Deadlock), got {other:?}"),
    }
}

/// The wall-clock watchdog path (`Park::TimedOut`): PE 0 sleeps in its
/// own body while holding a worker slot, so the fabric is not wedged —
/// PE 0 still counts as running — yet no slot is granted anywhere for a
/// whole watchdog window. PE 1, parked at the barrier, times out, is
/// handed a slot back and reports PE 0, still running, as the culprit.
/// Traced, PE 0's recent events stop at the trip: the barrier it crosses
/// after waking is not among them. Its position stops there too: the put
/// and the broadcast it issues after waking leave its row as it was at
/// the trip, running, outside any collective, with no progress counted.
#[test]
fn stalled_running_pe_trips_wall_clock_watchdog() {
    for traced in [false, true] {
        let mut cfg = FabricConfig::new(2)
            .with_engine(EngineConfig::coop().with_workers(2))
            .with_watchdog(Duration::from_millis(300));
        if traced {
            cfg = cfg.with_trace();
        }
        let started = std::time::Instant::now();
        let result = Fabric::try_run(cfg, |pe| {
            let dest = pe.shared_malloc::<u64>(4);
            if pe.rank() == 0 {
                std::thread::sleep(Duration::from_secs(1));
                pe.put(dest.whole(), &[1, 2, 3, 4], 4, 1, 1);
                xbrtime::collectives::broadcast(pe, &dest, &[5; 4], 4, 1, 0);
            }
            pe.barrier();
        });
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "watchdog must fire well before a human notices the hang"
        );
        let report = match result {
            Err(RunError::Deadlock(report)) => report,
            other => panic!("expected Err(Deadlock), got {:?}", other.map(|_| ())),
        };
        let stuck = report.stuck();
        assert_eq!(stuck.rank, 0, "{report}");
        assert_eq!(stuck.site, WaitSite::Running, "{report}");
        assert_eq!(stuck.sched, PeSchedState::Running, "{report}");
        assert_eq!(stuck.collective, None, "{report}");
        assert_eq!(stuck.progress_ops, 0, "{report}");
        let waiter = &report.pes[1];
        assert_eq!(waiter.site, WaitSite::Barrier, "{report}");
        // The timed-out PE is re-granted a slot before it probes the fabric.
        assert_eq!(waiter.sched, PeSchedState::Running, "{report}");
        assert!(!report.wedged, "{report}");
        let text = report.to_string();
        assert!(
            text.starts_with("no progress for 300ms: PE 1 tripped the watchdog\n"),
            "{text}"
        );
        for rank in 0..2 {
            let line = text
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("PE {rank}:")))
                .unwrap_or_else(|| panic!("no line for PE {rank}: {text}"));
            assert!(
                line.contains("[sched "),
                "PE {rank} line lacks a sched tag: {line}"
            );
        }
        if traced {
            let late: Vec<_> = report.pes[0]
                .recent_events
                .iter()
                .filter(|e| e.kind == TraceKind::Barrier)
                .collect();
            assert!(late.is_empty(), "PE 0 recorded past the trip: {late:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// One worker: PEs that share an OS thread, each on its own stack
// ---------------------------------------------------------------------------

fn one_worker(n_pes: usize) -> FabricConfig {
    FabricConfig::new(n_pes).with_engine(EngineConfig::coop().with_workers(1))
}

/// Both PEs panic, one after the other, on the one worker thread. The
/// panic count belongs to that thread, so the first PE's unwinding must
/// be over before the second runs; the run then reports the first PE's
/// message instead of aborting the process.
#[test]
fn pes_sharing_a_worker_panic_in_turn() {
    let result = Fabric::try_run(one_worker(2), |pe| {
        if pe.rank() == 0 {
            panic!("PE 0 fails first");
        }
        // Poisoned by PE 0, whichever of the two ran first.
        pe.barrier();
    });
    match result {
        Err(RunError::Panic(msg)) => assert!(msg.contains("PE 0 fails first"), "{msg:?}"),
        other => panic!("expected Err(Panic), got {:?}", other.map(|_| ())),
    }
}

/// Every PE waits on a signal nobody posts: the last one to park finds
/// nothing runnable and nothing sleeping and reports the wedge at once,
/// long before the watchdog window.
#[test]
fn structural_wedge_on_one_worker_is_reported_at_once() {
    let cfg = one_worker(3).with_watchdog(Duration::from_secs(60));
    let started = std::time::Instant::now();
    let result = Fabric::try_run(cfg, |pe| {
        let table = pe.signal_table(4);
        pe.signal_wait(table.offset(pe.rank()));
    });
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a wedge must not wait out the watchdog window"
    );
    match result {
        Err(RunError::Deadlock(report)) => {
            assert!(report.wedged, "{report}");
            for p in &report.pes {
                assert!(matches!(p.site, WaitSite::Signal { .. }), "{report}");
            }
        }
        other => panic!("expected Err(Deadlock), got {:?}", other.map(|_| ())),
    }
}

/// PE 2 returns while its peers wait at a barrier. Its return is the last
/// event (one worker per PE, PE 2 leaves only after the others arrive),
/// so no park sees the wedge: the finish must report it, at once under
/// the default 60 s window, and the report must blame PE 2, the PE that
/// left, not a barrier waiter.
#[test]
fn early_return_is_reported_at_once_and_blames_the_pe_that_left() {
    let arrived = AtomicUsize::new(0);
    let cfg = FabricConfig::new(4).with_engine(EngineConfig::coop().with_workers(4));
    assert_eq!(cfg.watchdog, xbrtime::DEFAULT_WATCHDOG);
    let started = std::time::Instant::now();
    let result = Fabric::try_run(cfg, |pe| {
        if pe.rank() == 2 {
            while arrived.load(Ordering::Acquire) < 3 {
                std::thread::yield_now();
            }
            // Let the others park before leaving.
            std::thread::sleep(Duration::from_millis(50));
            return;
        }
        arrived.fetch_add(1, Ordering::AcqRel);
        pe.barrier();
    });
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "an early return must not wait out the watchdog window: {elapsed:?}"
    );
    match result {
        Err(RunError::Deadlock(report)) => {
            let stuck = report.stuck();
            assert_eq!(stuck.rank, 2, "{report}");
            assert_eq!(stuck.site, WaitSite::Finished, "{report}");
            // A wedge is seen the moment it forms: the report names no
            // window the fabric did not wait out.
            assert!(report.wedged, "{report}");
            let text = report.to_string();
            let first = text.lines().next().unwrap_or_default();
            assert_eq!(
                first, "structural deadlock: nothing can run: PE 0 tripped the watchdog",
                "{text}"
            );
        }
        other => panic!("expected Err(Deadlock), got {:?}", other.map(|_| ())),
    }
}

/// Every fabric op yields. The PE granted first gives up its worker at
/// its put; for some engine seed the scheduler grants the peer, which
/// reaches its own put before the yielder resumes — both read the wake
/// count as zero.
#[test]
fn fault_yield_gives_up_its_worker() {
    let faults = FaultConfig {
        yield_permille: 1000,
        ..FaultConfig::none(5)
    };
    let overlapped = (0..8u64).filter(|&seed| {
        let engine = EngineConfig::coop().with_workers(1).with_seed(seed);
        let cfg = FabricConfig::new(2).with_engine(engine).with_faults(faults);
        let woke = AtomicUsize::new(0);
        let report = Fabric::try_run(cfg, |pe| {
            let buf = pe.shared_malloc::<u64>(1);
            let before = woke.load(Ordering::SeqCst);
            pe.put(buf.whole(), &[7], 1, 1, 1 - pe.rank());
            woke.fetch_add(1, Ordering::SeqCst);
            pe.barrier();
            before
        })
        .expect("a delays-only run completes");
        assert!(report.stats.yields >= 2, "seed {seed}: {:?}", report.stats);
        report.results == [0, 0]
    });
    assert!(
        overlapped.count() > 0,
        "no engine seed granted the peer while the first PE yielded"
    );
}

#[test]
fn dropped_signal_names_collective_kind_and_stage() {
    // Drop every signal with no redelivery: a signaled broadcast must die
    // with a report naming the collective and a valid stage (or drain).
    let cfg = FabricConfig::new(4)
        .with_watchdog(Duration::from_millis(300))
        .with_faults(FaultConfig::drops_forever(7, 1000));
    let result = Fabric::try_run(cfg, |pe| {
        let dest = pe.shared_malloc::<u64>(64);
        xbrtime::collectives::broadcast_policy_sync(
            pe,
            &dest,
            &[5u64; 64],
            64,
            1,
            0,
            AlgorithmPolicy::Binomial,
            SyncMode::Signaled,
        );
    });
    match result {
        Err(RunError::Deadlock(report)) => {
            let stuck = report.stuck();
            assert_eq!(
                stuck.collective,
                Some(CollectiveKind::Broadcast),
                "report must name the collective: {report}"
            );
            let stage = stuck.stage.expect("stuck PE should be inside a stage");
            // ceil(log2 4) = 2 stages; stage == 2 denotes the drain.
            assert!(stage <= 2, "stage {stage} out of range: {report}");
        }
        other => panic!("expected Err(Deadlock), got {other:?}"),
    }
}

#[test]
fn traced_deadlock_report_embeds_recent_events() {
    // With the tracing plane on, the DeadlockReport carries each PE's
    // most recent trace events — the flight recorder for post-mortems.
    let cfg = FabricConfig::new(4)
        .with_watchdog(Duration::from_millis(300))
        .with_faults(FaultConfig::drops_forever(7, 1000))
        .with_trace();
    let result = Fabric::try_run(cfg, |pe| {
        let dest = pe.shared_malloc::<u64>(64);
        xbrtime::collectives::broadcast_policy_sync(
            pe,
            &dest,
            &[5u64; 64],
            64,
            1,
            0,
            AlgorithmPolicy::Binomial,
            SyncMode::Signaled,
        );
    });
    match result {
        Err(RunError::Deadlock(report)) => {
            assert!(
                report.pes.iter().any(|p| !p.recent_events.is_empty()),
                "some PE must have traced events by deadlock time: {report}"
            );
            // The rendered report interleaves the event lines.
            let text = report.to_string();
            assert!(
                text.contains("broadcast#"),
                "report should render traced events: {text}"
            );
        }
        other => panic!("expected Err(Deadlock), got {other:?}"),
    }
}

#[test]
fn run_panics_with_rendered_report_on_deadlock() {
    // The panicking (non-try) entry point must carry the human-readable
    // report in its payload.
    let result = catch_unwind(AssertUnwindSafe(|| {
        Fabric::run(
            FabricConfig::new(2).with_watchdog(Duration::from_millis(200)),
            |pe| {
                let table = pe.signal_table(1);
                if pe.rank() == 0 {
                    pe.signal_wait(table.offset(0));
                }
                pe.barrier();
            },
        )
    }));
    let err = result.unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("watchdog") && msg.contains("structural deadlock"),
        "panic payload should be the rendered report: {msg:?}"
    );
}

#[test]
fn delays_only_faults_preserve_results_and_cycles() {
    // Wall-clock fault delays must not perturb simulated time or data.
    let body = |pe: &xbrtime::Pe| {
        let src = pe.shared_malloc::<u64>(8);
        pe.heap_write(src.whole(), &[pe.rank() as u64 + 1; 8]);
        pe.barrier();
        let mut sum = [0u64; 8];
        xbrtime::collectives::reduce_all_with(
            pe,
            &mut sum,
            &src,
            8,
            |a, b| a + b,
            xbrtime::collectives::AllReduceAlgo::RecursiveDoubling,
            SyncMode::Barrier,
        );
        sum
    };
    // Under the paper timing model only the *data* is asserted: the
    // congestion model samples concurrent offered load, so cycle counts
    // are not interleaving-deterministic even without faults.
    let clean = Fabric::run(FabricConfig::paper(4), body);
    let faulty = Fabric::run(
        FabricConfig::paper(4).with_faults(FaultConfig::delays(42)),
        body,
    );
    assert_eq!(clean.results, faulty.results, "data must be identical");

    // With timing disabled the whole simulation is deterministic, so the
    // faulty run must match exactly — cycles included.
    let clean = Fabric::run(FabricConfig::new(4), body);
    let faulty = Fabric::run(
        FabricConfig::new(4).with_faults(FaultConfig::delays(42)),
        body,
    );
    assert_eq!(clean.results, faulty.results);
    assert_eq!(
        clean.cycles, faulty.cycles,
        "simulated clocks must be untouched by wall-clock faults"
    );
}

#[test]
fn dropped_then_redelivered_signals_converge() {
    // Aggressive drops with redelivery: the run completes and every
    // signal is consumed.
    let cfg = FabricConfig::new(4)
        .with_watchdog(Duration::from_secs(20))
        .with_faults(FaultConfig::drops_with_redelivery(3, 400, 2_000));
    let report = Fabric::run(cfg, |pe| {
        let dest = pe.shared_malloc::<u64>(32);
        xbrtime::collectives::broadcast_policy_sync(
            pe,
            &dest,
            &[9u64; 32],
            32,
            1,
            0,
            AlgorithmPolicy::Binomial,
            SyncMode::Signaled,
        );
        pe.heap_read_vec(dest.whole(), 32)
    });
    for (rank, got) in report.results.iter().enumerate() {
        assert_eq!(got, &vec![9u64; 32], "rank {rank}");
    }
    assert!(
        report.stats.signals_dropped > 0,
        "the fault plane dropped nothing"
    );
    assert_eq!(
        report.stats.signals, report.stats.signal_waits,
        "every dropped signal must be redelivered and consumed"
    );
}

/// A redelivered signal must arrive even when its poster has returned
/// while the waiter was parked: redelivery is a later arrival stamp, not
/// an event some PE has to run again to deliver. Every dropped post is
/// redelivered 500 cycles late, so the waiter's clock reads exactly the
/// fault-free run's plus 500, whichever PE the scheduler runs first.
#[test]
fn redelivery_outlives_its_poster() {
    const LATE: u64 = 500;
    let run = |engine_seed: u64, faults: Option<FaultConfig>| {
        let mut cfg = FabricConfig::paper(2)
            .with_engine(EngineConfig::coop().with_workers(1).with_seed(engine_seed))
            .with_watchdog(Duration::from_secs(3));
        if let Some(f) = faults {
            cfg = cfg.with_faults(f);
        }
        Fabric::try_run(cfg, |pe| {
            let sig = pe.shared_malloc::<u64>(1);
            if pe.rank() == 0 {
                pe.signal_post(sig.whole(), 1);
            } else {
                pe.signal_wait(sig.whole());
            }
        })
    };
    for engine_seed in 0..8 {
        let clean = run(engine_seed, None).expect("the fault-free run completes");
        let lossy = match run(
            engine_seed,
            Some(FaultConfig::drops_with_redelivery(1, 1000, LATE)),
        ) {
            Ok(report) => report,
            Err(e) => panic!("engine seed {engine_seed}: the redelivered signal never came: {e}"),
        };
        assert_eq!(lossy.stats.signals_dropped, 1, "engine seed {engine_seed}");
        assert_eq!(
            lossy.cycles[1],
            clean.cycles[1] + LATE,
            "engine seed {engine_seed}: the waiter must see the signal exactly {LATE} cycles late"
        );
    }
}

#[test]
fn zero_pes_per_node_topology_is_rejected_at_run() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut cfg = FabricConfig::new(2);
        // Bypass the builder validation by setting the field directly —
        // Fabric::run must still catch it.
        cfg.topology = Some(Topology {
            pes_per_node: 0,
            intra_node_factor: 0.25,
        });
        Fabric::run(cfg, |pe| pe.rank())
    }));
    let err = result.unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("pes_per_node"),
        "error must explain the invalid topology: {msg:?}"
    );
}

#[test]
fn zero_pes_per_node_topology_is_rejected_by_builder() {
    let result = catch_unwind(|| {
        FabricConfig::new(2).with_topology(Topology {
            pes_per_node: 0,
            intra_node_factor: 0.25,
        })
    });
    assert!(result.is_err(), "builder must reject pes_per_node == 0");
}
