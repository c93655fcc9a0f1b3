//! Acceptance checks for the event-tracing plane, driven through the
//! harness entry points the binaries use.

use xbgas_bench::{collective_run, run_fig4_traced};
use xbrtime::collectives::broadcast_policy_sync;
use xbrtime::{
    AlgorithmPolicy, CollectiveKind, EngineConfig, Fabric, FabricConfig, SyncMode, TraceKind,
};

/// The two interleavings the 4-PE telemetry tests cross-check: every PE
/// runnable, and one seeded worker.
const ENGINES: [EngineConfig; 2] = [
    EngineConfig::coop().with_workers(4),
    EngineConfig::coop().with_workers(1),
];

/// Percent tolerance for cycle-accounting comparisons.
fn within(a: u64, b: u64, pct: f64) -> bool {
    let (a, b) = (a as f64, b as f64);
    (a - b).abs() <= b.max(1.0) * pct / 100.0
}

/// Figure-4 acceptance: an 8-PE traced GUPs run's per-collective
/// critical-path accounting must agree with the executor telemetry in
/// the same `RunReport` to within 2%.
///
/// Two comparisons, both derived from the trace alone:
/// * the summed `Collective` span durations per kind equal that kind's
///   `CollectiveRecord::cycles` (both tally per-PE executor time);
/// * each critical path's chain total tiles its episode span — the chain
///   walks signal/barrier dependencies from episode start to end, so
///   dropping an edge (or double-counting a wait) would open a gap.
#[test]
fn fig4_traced_critical_path_matches_report() {
    let report = run_fig4_traced(EngineConfig::coop().with_workers(8), 8, 2);
    let trace = report.trace.as_ref().expect("traced run");
    assert!(!trace.is_empty());

    assert!(
        !report.collectives.is_empty(),
        "fig4's verification tail runs reduce + broadcast"
    );
    for rec in &report.collectives {
        let traced: u64 = trace
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::Collective && e.collective == Some(rec.kind))
            .map(|e| e.duration())
            .sum();
        assert!(
            within(traced, rec.cycles, 2.0),
            "{}: traced collective spans sum to {traced}, telemetry says {}",
            rec.kind.name(),
            rec.cycles
        );
    }

    let paths = trace.critical_paths();
    assert!(!paths.is_empty());
    for cp in &paths {
        assert!(
            within(cp.total_cycles, cp.span_cycles, 2.0),
            "{}: chain total {} vs episode span {}",
            cp.kind.name(),
            cp.total_cycles,
            cp.span_cycles
        );
        assert_eq!(
            cp.total_cycles,
            cp.wait_cycles + cp.transfer_cycles + cp.compute_cycles,
            "{}: category split must tile the chain",
            cp.kind.name()
        );
    }
}

/// A pipelined traced broadcast exports flow arrows (signal post → wait)
/// and a well-formed Perfetto document.
#[test]
fn traced_broadcast_exports_flows() {
    let nelems = 4096;
    let report = Fabric::run(FabricConfig::paper(4).with_trace(), move |pe| {
        let dest = pe.shared_malloc::<u64>(nelems);
        let src = vec![7u64; nelems];
        let (policy, sync) = (AlgorithmPolicy::Auto, SyncMode::Pipelined);
        broadcast_policy_sync(pe, &dest, &src, nelems, 1, 0, policy, sync);
        pe.barrier();
    });
    let trace = report.trace.as_ref().expect("traced run");
    let posts = trace
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::SignalPost)
        .count();
    assert!(posts > 0, "pipelined broadcast must post signals");
    let json = trace.to_perfetto_json();
    assert!(json.contains("\"ph\":\"s\""), "missing flow starts");
    assert!(json.contains("\"ph\":\"f\""), "missing flow finishes");
    assert_eq!(
        json.matches("\"ph\":\"s\"").count(),
        json.matches("\"ph\":\"f\"").count()
    );
}

/// Satellite: `RunReport::collectives` is deterministically ordered by
/// kind, and identical runs produce structurally identical telemetry
/// however the engine interleaves the PEs.
#[test]
fn collective_telemetry_is_deterministic() {
    let [a, b] = ENGINES.map(|engine| collective_run(engine, 4, 256, false).collectives);

    let kind_index = |k: CollectiveKind| {
        CollectiveKind::ALL
            .iter()
            .position(|&x| x == k)
            .expect("kind in ALL")
    };
    assert!(
        a.windows(2)
            .all(|w| kind_index(w[0].kind) < kind_index(w[1].kind)),
        "collectives must be sorted in CollectiveKind::ALL order"
    );

    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.kind, rb.kind);
        assert_eq!(ra.calls, rb.calls);
        assert_eq!(ra.puts, rb.puts);
        assert_eq!(ra.gets, rb.gets);
        assert_eq!(ra.bytes_put, rb.bytes_put);
        assert_eq!(ra.bytes_get, rb.bytes_get);
        assert_eq!(ra.stages, rb.stages);
        assert_eq!(ra.signals, rb.signals);
        assert_eq!(ra.waits, rb.waits);
    }
}

/// Tracing must not perturb the simulated clock: the same workload run
/// traced and untraced reports identical op/byte/stage telemetry (cycle
/// values carry run-to-run queue-model jitter either way, so structural
/// equality is the deterministic comparison).
#[test]
fn tracing_does_not_change_telemetry_structure() {
    for engine in ENGINES {
        let plain = collective_run(engine, 4, 256, false).collectives;
        let traced = collective_run(engine, 4, 256, true).collectives;
        assert_eq!(plain.len(), traced.len());
        for (p, t) in plain.iter().zip(&traced) {
            assert_eq!(p.kind, t.kind);
            assert_eq!(p.puts, t.puts);
            assert_eq!(p.gets, t.gets);
            assert_eq!(p.bytes_put, t.bytes_put);
            assert_eq!(p.bytes_get, t.bytes_get);
            assert_eq!(p.signals, t.signals);
            assert_eq!(p.waits, t.waits);
        }
    }
}

/// A traced run past 65 535 collectives keeps numbering its episodes: no
/// two `Collective` spans of one PE share an episode, so
/// `Trace::critical_paths` never merges two calls into one. The rings
/// wrap long before the end, so the retained episodes are the newest.
#[test]
fn episode_numbers_never_repeat() {
    let cfg = FabricConfig::new(2)
        .with_engine(EngineConfig::coop().with_workers(1))
        .with_trace();
    let report = Fabric::run(cfg, |pe| {
        let dest = pe.shared_malloc::<u64>(1);
        for _ in 0..66_000 {
            let (policy, sync) = (AlgorithmPolicy::Binomial, SyncMode::Barrier);
            broadcast_policy_sync(pe, &dest, &[7u64], 1, 1, 0, policy, sync);
        }
    });
    let trace = report.trace.as_ref().expect("traced run");
    assert!(trace.dropped > 0, "the rings must wrap");
    let episodes: Vec<(usize, u32)> = trace
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::Collective)
        .map(|e| (e.pe, e.episode))
        .collect();
    let distinct: std::collections::HashSet<_> = episodes.iter().collect();
    assert_eq!(distinct.len(), episodes.len(), "an episode number repeats");
}
