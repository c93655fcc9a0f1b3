//! Zero-length collectives: `nelems == 0` must schedule no transfers,
//! leak no signals, and leave the (enabled) tracing plane empty but
//! well-formed — across every collective shape, sync mode, and PE count,
//! including the degenerate single-PE fabric.

use xbrtime::collectives::{AllGatherVAlgo, AllReduceAlgo};
use xbrtime::{
    collectives, AlgorithmPolicy, EngineConfig, Fabric, FabricConfig, RunReport, SyncMode, Topology,
};

const PE_COUNTS: [usize; 3] = [1, 3, 8];
const POLICIES: [AlgorithmPolicy; 3] = [
    AlgorithmPolicy::Binomial,
    AlgorithmPolicy::Linear,
    AlgorithmPolicy::Ring,
];
const SYNC_MODES: [SyncMode; 4] = [
    SyncMode::Barrier,
    SyncMode::Signaled,
    SyncMode::Pipelined,
    SyncMode::Auto,
];

/// The two interleavings: every PE runnable, and one seeded worker.
fn engines(n_pes: usize) -> [EngineConfig; 2] {
    [
        EngineConfig::coop().with_workers(n_pes),
        EngineConfig::coop().with_workers(1),
    ]
}

fn run_traced(n_pes: usize, body: impl Fn(&xbrtime::Pe) + Sync) -> RunReport<()> {
    run_traced_on(n_pes, engines(n_pes)[0], body)
}

fn run_traced_on<R: Send>(
    n_pes: usize,
    engine: EngineConfig,
    body: impl Fn(&xbrtime::Pe) -> R + Sync,
) -> RunReport<R> {
    Fabric::run(traced_config(n_pes).with_engine(engine), body)
}

fn traced_config(n_pes: usize) -> FabricConfig {
    FabricConfig::paper(n_pes)
        .with_shared_bytes(1 << 20)
        .with_trace()
}

/// The shared assertions: nothing moved, nothing signaled, the trace is
/// empty (zero-length episodes return before emitting a single event)
/// yet still exports a loadable Perfetto document.
fn assert_inert<R>(report: &RunReport<R>, what: &str) {
    let s = &report.stats;
    assert_eq!(s.puts, 0, "{what}: puts issued");
    assert_eq!(s.gets, 0, "{what}: gets issued");
    assert_eq!(s.nb_puts, 0, "{what}: non-blocking puts issued");
    assert_eq!(s.nb_gets, 0, "{what}: non-blocking gets issued");
    assert_eq!(s.signals, 0, "{what}: signals posted");
    assert_eq!(s.signal_waits, 0, "{what}: signals consumed");
    for rec in &report.collectives {
        assert!(rec.calls >= 1, "{what}: episode not recorded");
        // One convention on every route — the early inert return and an
        // empty plan alike: the call is counted, no stage is.
        assert_eq!(rec.stages, 0, "{what}: {} ran stages", rec.kind.name());
        assert_eq!(
            rec.puts + rec.gets,
            0,
            "{what}: {} moved data",
            rec.kind.name()
        );
        assert_eq!(rec.bytes_put + rec.bytes_get, 0, "{what}: bytes moved");
        assert_eq!(rec.signals + rec.waits, 0, "{what}: signal traffic");
    }
    let trace = report.trace.as_ref().expect("tracing was enabled");
    assert!(
        trace.is_empty(),
        "{what}: zero-length run traced {} events: {:?}",
        trace.len(),
        trace.events
    );
    let json = trace.to_perfetto_json();
    let json = json.trim_end();
    assert!(
        json.starts_with('{') && json.ends_with('}'),
        "{what}: {json}"
    );
    assert!(json.contains("\"traceEvents\""), "{what}: {json}");
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "{what}: unbalanced JSON"
    );
}

#[test]
fn zero_length_broadcast_all_modes() {
    for n in PE_COUNTS {
        for sync in SYNC_MODES {
            for policy in POLICIES {
                let report = run_traced(n, move |pe| {
                    let dest = pe.shared_malloc::<u64>(1);
                    collectives::broadcast_policy_sync(pe, &dest, &[], 0, 1, 0, policy, sync);
                });
                assert_inert(&report, &format!("broadcast n={n} {policy:?} {sync:?}"));
            }
        }
    }
}

#[test]
fn zero_length_reduce_all_modes() {
    for n in PE_COUNTS {
        for sync in SYNC_MODES {
            for policy in POLICIES {
                let report = run_traced(n, move |pe| {
                    let src = pe.shared_malloc::<u64>(1);
                    let mut dest: Vec<u64> = vec![];
                    collectives::reduce_with(
                        pe,
                        &mut dest,
                        &src,
                        0,
                        1,
                        0,
                        |a: u64, b: u64| a.wrapping_add(b),
                        policy,
                        sync,
                    );
                });
                assert_inert(&report, &format!("reduce n={n} {policy:?} {sync:?}"));
            }
        }
    }
}

/// `per_pe == 0` all-gather is fully inert under every algorithm, sync
/// mode, and interleaving: no symmetric board, no staging barriers, only the
/// telemetry episode. Regression for the path that used to allocate a
/// 1-element board and run the staging barriers anyway.
#[test]
fn zero_length_all_gather_every_algorithm_both_backends() {
    for n in PE_COUNTS {
        for sync in SYNC_MODES {
            for engine in engines(n) {
                for algo in AllGatherVAlgo::CONCRETE
                    .into_iter()
                    .chain([AllGatherVAlgo::Auto])
                {
                    let report = run_traced_on(n, engine, move |pe| {
                        let mut dest: Vec<u64> = vec![];
                        collectives::all_gather_algo_sync(pe, &mut dest, &[], 0, algo, sync);
                    });
                    assert_inert(&report, &format!("all_gather n={n} {algo:?} {sync:?}"));
                }
            }
        }
    }
}

/// Same contract for `per_pe == 0` all-to-all.
#[test]
fn zero_length_all_to_all_all_modes_both_backends() {
    for n in PE_COUNTS {
        for sync in SYNC_MODES {
            for engine in engines(n) {
                let report = run_traced_on(n, engine, move |pe| {
                    let mut dest: Vec<u64> = vec![];
                    collectives::all_to_all_sync(pe, &mut dest, &[], 0, sync);
                });
                assert_inert(&report, &format!("all_to_all n={n} {sync:?}"));
            }
        }
    }
}

/// The nonblocking and persistent routes are as inert as the blocking
/// bodies: a zero-length issue + wait charges no cycle and leaves the
/// symmetric heap as it found it, on every PE. Regression for the routes
/// that staged around the episode themselves — the broadcast root wrote
/// its (empty) payload, a cold cache walk, and the reductions allocated
/// and freed a one-element board. Creating and destroying a persistent
/// plan is outside the measured region.
#[test]
fn zero_length_nonblocking_routes_charge_nothing() {
    let add = |a: u64, b: u64| a.wrapping_add(b);
    for n in PE_COUNTS {
        for sync in SYNC_MODES {
            for engine in engines(n) {
                let report = run_traced_on(n, engine, move |pe| {
                    let buf = pe.shared_malloc::<u64>(1);
                    let bcast = collectives::plan_create_broadcast(pe, &buf, 0, 0, sync);
                    let all = collectives::plan_create_allreduce(pe, &buf, 0, sync);
                    let mut moved = Vec::new();
                    let mut measure = |route: String, issue_and_wait: &dyn Fn()| {
                        let (cycles, heap) = (pe.cycles(), pe.heap_in_use() as i64);
                        issue_and_wait();
                        let heap = pe.heap_in_use() as i64 - heap;
                        moved.push((route, pe.cycles() - cycles, heap));
                    };
                    measure("ixbroadcast".into(), &|| {
                        collectives::ixbroadcast(pe, &buf, &[], 0, 0, sync).wait(pe)
                    });
                    measure("ixreduce".into(), &|| {
                        collectives::ixreduce(pe, &buf, 0, 0, add, sync).wait_into(pe, &mut [])
                    });
                    for algo in AllReduceAlgo::CONCRETE
                        .into_iter()
                        .chain([AllReduceAlgo::Auto])
                    {
                        measure(format!("ixallreduce {algo:?}"), &|| {
                            collectives::ixallreduce(pe, &buf, 0, add, algo, sync)
                                .wait_into(pe, &mut [])
                        });
                    }
                    measure("PersistentBroadcast::start".into(), &|| {
                        bcast.start(pe, &[]).wait(pe)
                    });
                    measure("PersistentAllReduce::start".into(), &|| {
                        all.start(pe, add).wait_into(pe, &mut [])
                    });
                    all.destroy(pe);
                    moved
                });
                let what = format!("nonblocking n={n} {sync:?} workers={}", engine.workers);
                for (rank, moved) in report.results.iter().enumerate() {
                    for (route, cycles, heap) in moved {
                        assert_eq!(
                            (*cycles, *heap),
                            (0, 0),
                            "{what} rank {rank}: {route} charged {cycles} cycles and \
                             moved the heap by {heap} bytes"
                        );
                    }
                }
                assert_inert(&report, &what);
            }
        }
    }
}

/// `nelems == 0` allreduce moves no data under any family member.
#[test]
fn zero_length_allreduce_every_algorithm() {
    for n in PE_COUNTS {
        for sync in SYNC_MODES {
            for algo in AllReduceAlgo::CONCRETE
                .into_iter()
                .chain([AllReduceAlgo::Auto])
            {
                let report = run_traced(n, move |pe| {
                    let src = pe.shared_malloc::<u64>(1);
                    let mut dest: Vec<u64> = vec![];
                    collectives::reduce_all_with(
                        pe,
                        &mut dest,
                        &src,
                        0,
                        |a: u64, b: u64| a.wrapping_add(b),
                        algo,
                        sync,
                    );
                });
                assert_inert(&report, &format!("allreduce n={n} {algo:?} {sync:?}"));
            }
        }
    }
}

#[test]
fn zero_length_scatter_and_gather() {
    for n in PE_COUNTS {
        let report = run_traced(n, move |pe| {
            let msgs = vec![0usize; pe.n_pes()];
            let disp = vec![0usize; pe.n_pes()];
            let mut dest: Vec<u64> = vec![];
            collectives::scatter(pe, &mut dest, &[], &msgs, &disp, 0, 0);
            collectives::gather(pe, &mut dest, &[], &msgs, &disp, 0, 0);
        });
        assert_inert(&report, &format!("scatter/gather n={n}"));
    }
}

/// The hierarchical collectives on a fabric that has a topology: the
/// two-tier schedules carry zero-length ops, which must lower to the
/// same inert episode as the flat trees'.
#[test]
fn zero_length_hierarchical_all_modes() {
    for n in PE_COUNTS {
        for sync in SYNC_MODES {
            let fc = traced_config(n).with_topology(Topology {
                pes_per_node: 2,
                intra_node_factor: 0.25,
            });
            let report = Fabric::run(fc, move |pe| {
                let buf = pe.shared_malloc::<u64>(1);
                let mut dest: Vec<u64> = vec![];
                collectives::broadcast_hier(pe, &buf, &[], 0, 0, sync);
                collectives::reduce_hier(pe, &mut dest, &buf, 0, 0, u64::wrapping_add, sync);
            });
            assert_inert(&report, &format!("hierarchical n={n} {sync:?}"));
        }
    }
}

/// The team collectives over a strict subset of the fabric (the whole
/// of it at one PE): `Team::broadcast` runs an empty plan and
/// `Team::reduce_all` returns before allocating its board — regression
/// for the last body that staged a 1-element board and ran three world
/// barriers around two empty plans.
#[test]
fn zero_length_team_all_modes() {
    for n in PE_COUNTS {
        for sync in SYNC_MODES {
            let report = run_traced(n, move |pe| {
                let members = (0..pe.n_pes()).filter(|r| r % 3 != 1).collect();
                let team = collectives::Team::new(members);
                let buf = pe.shared_malloc::<u64>(1);
                let mut dest: Vec<u64> = vec![];
                team.broadcast(pe, &buf, &[], 0, 0, sync);
                team.reduce_all(pe, &mut dest, &buf, 0, u64::wrapping_add, sync);
            });
            assert_inert(&report, &format!("team n={n} {sync:?}"));
        }
    }
}
