//! # xbgas-bench — reproduction harnesses for the paper's evaluation
//!
//! One binary per paper artifact (see DESIGN.md §4 for the experiment
//! index):
//!
//! | artifact | binary | library entry |
//! |---|---|---|
//! | Figure 4 (GUPs)        | `fig4_gups`    | [`run_fig4`] |
//! | Figure 5 (NAS IS)      | `fig5_is`      | [`run_fig5`] |
//! | Table 1 (type names)   | `table1_types` | [`xbrtime::TABLE1`] |
//! | Table 2 (rank mapping) | `table2_ranks` | [`xbrtime::collectives::rank_table`] |
//! | §4.7 comparison grid   | `ablation`     | [`measure`] of a [`Cell`] |
//! | design ablations       | `ablation`     | [`ablation_unroll`], [`ablation_topology`], … |
//! | conformance plane      | `conformance`  | `xbrtime::collectives::{verify, explore}` |
//! | traffic plane          | `xbench_traffic` | [`xbrtime::traffic::run_traffic`] |
//!
//! The binaries report *simulated* cycles, which is what the paper's
//! figures are drawn from, print plain text (or `--json` rows) on stdout
//! and write no file except where `--trace <path>` asks for one. Host
//! time, per layer and end to end, is the repo benchmark's job (`bench/`,
//! `BENCHMARK.json`), which links [`issue_rate`] and [`json`] from here.
//!
//! Every measurement is one function whose first argument is the
//! [`EngineConfig`] the fabric runs on: the binaries pass
//! `EngineConfig::default()`, the makespan-comparing tests one worker.

#![warn(missing_docs)]

pub mod json;

use json::{Json, ToJson};
use xbgas_apps::{run_gups, run_is, GupsConfig, GupsResult, IsConfig, IsResult};
use xbrtime::collectives::{self, AllReduceAlgo, Buf, Bufs, Call, CallKind, Extent};
use xbrtime::{
    AlgorithmPolicy, CollectiveKind, CollectiveRecord, EngineConfig, Fabric, FabricConfig, Pe,
    ReduceOp, RunReport, SymmAlloc, SyncMode,
};

/// The value following the command-line flag `name`: `Ok(None)` when the
/// flag is absent, an error message when it is the last argument — a
/// flag without its value must not silently fall back to the default.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) => Ok(Some(v)),
        None => Err(format!("{name} expects a value")),
    }
}

/// [`flag_value`] for a binary's `main`: prints the message and exits
/// with status 2 when the flag is given without its value.
pub fn flag_or_exit<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    flag_value(args, name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Numeric `name <N>` flag with a default; exits with status 2 on a
/// missing or non-numeric value.
pub fn usize_arg(args: &[String], name: &str, default: usize) -> usize {
    flag_or_exit(args, name).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{name} expects a number, got `{v}`");
            std::process::exit(2);
        })
    })
}

/// Core frequency used to convert simulated cycles into seconds.
pub const CORE_HZ: u64 = 1_000_000_000;

/// PE counts of the §4.7 grid — the paper's evaluation stops at 8.
pub const GRID_PES: [usize; 3] = [2, 4, 8];
/// Message sizes of the §4.7 grid in u64 elements: 8 B to 512 KiB.
pub const GRID_SIZES: [usize; 5] = [1, 16, 256, 4096, 65536];

/// One row of a Figure 4/5-style scaling table.
#[derive(Clone, Copy, Debug)]
pub struct FigureRow {
    /// Number of PEs simulated.
    pub n_pes: usize,
    /// Total millions of operations per second.
    pub total_mops: f64,
    /// Millions of operations per second per PE.
    pub per_pe_mops: f64,
    /// Simulated makespan in cycles.
    pub makespan_cycles: u64,
}

impl ToJson for FigureRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n_pes", self.n_pes.to_json()),
            ("total_mops", self.total_mops.to_json()),
            ("per_pe_mops", self.per_pe_mops.to_json()),
            ("makespan_cycles", self.makespan_cycles.to_json()),
        ])
    }
}

/// Render rows in the layout the paper's figures report (total + per-PE).
pub fn render_rows(title: &str, unit: &str, rows: &[FigureRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str(&format!(
        "{:>6} {:>14} {:>14} {:>16}\n",
        "PEs",
        format!("total {unit}"),
        format!("{unit}/PE"),
        "sim cycles"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>6} {:>14.3} {:>14.3} {:>16}\n",
            r.n_pes, r.total_mops, r.per_pe_mops, r.makespan_cycles
        ));
    }
    out
}

/// Run the Figure 4 GUPs sweep over `pe_counts` at `scale` (1 = the full
/// harness size of 2^20 total updates; tests use a smaller scale).
pub fn run_fig4(engine: EngineConfig, pe_counts: &[usize], scale_shift: u32) -> Vec<FigureRow> {
    pe_counts
        .iter()
        .map(|&n| {
            let (cfg, fc) = fig4_setup(engine, n, scale_shift);
            let total_updates = cfg.updates_per_pe * n;
            let report = Fabric::run(fc, move |pe| run_gups(pe, &cfg));
            let makespan = report.results.iter().map(|r| r.cycles).max().unwrap_or(0);
            figure_row(n, total_updates, makespan)
        })
        .collect()
}

/// The figure row of `ops` operations done on `n_pes` PEs in `makespan`
/// simulated cycles.
fn figure_row(n_pes: usize, ops: usize, makespan: u64) -> FigureRow {
    let secs = makespan as f64 / CORE_HZ as f64;
    let total_mops = ops as f64 / secs / 1.0e6;
    FigureRow {
        n_pes,
        total_mops,
        per_pe_mops: total_mops / n_pes as f64,
        makespan_cycles: makespan,
    }
}

/// Figure 4's GUPs config on `n_pes` PEs, its update count shifted down
/// by `scale_shift`, and the fabric it runs on.
fn fig4_setup(engine: EngineConfig, n_pes: usize, scale_shift: u32) -> (GupsConfig, FabricConfig) {
    let mut cfg = GupsConfig::fig4(n_pes);
    cfg.updates_per_pe >>= scale_shift;
    let fc = FabricConfig::paper(n_pes)
        .with_shared_bytes(cfg.table_bytes() + (1 << 20))
        .with_engine(engine);
    (cfg, fc)
}

/// Run the Figure 5 NAS IS sweep over `pe_counts`. `scale_shift` divides
/// the iteration count (tests use fewer iterations); `class` overrides the
/// scaled default with an explicit NPB class.
pub fn run_fig5(
    engine: EngineConfig,
    pe_counts: &[usize],
    scale_shift: u32,
    class: Option<xbgas_apps::IsClass>,
) -> Vec<FigureRow> {
    pe_counts
        .iter()
        .map(|&n| {
            let (cfg, fc) = fig5_setup(engine, n, scale_shift, class);
            let total_keys = cfg.class.sizes().0;
            let report = Fabric::run(fc, move |pe| run_is(pe, &cfg));
            assert!(
                report.results.iter().all(|r| r.verified),
                "IS verification failed at {n} PEs"
            );
            let makespan = report.results.iter().map(|r| r.cycles).max().unwrap_or(0);
            figure_row(n, total_keys * cfg.iterations, makespan)
        })
        .collect()
}

/// Figure 5's IS config on `n_pes` PEs (`class` overrides the default,
/// the iteration count is shifted down by `scale_shift`) and the fabric
/// it runs on.
fn fig5_setup(
    engine: EngineConfig,
    n_pes: usize,
    scale_shift: u32,
    class: Option<xbgas_apps::IsClass>,
) -> (IsConfig, FabricConfig) {
    let mut cfg = IsConfig::fig5();
    if let Some(c) = class {
        cfg.class = c;
    }
    cfg.iterations = (cfg.iterations >> scale_shift).max(1);
    let (total_keys, max_key) = cfg.class.sizes();
    // Heap: histogram + mailbox (total keys) + slack.
    let heap = (max_key * 8 + total_keys * 4 + (1 << 22)).max(16 << 20);
    let fc = FabricConfig::paper(n_pes)
        .with_shared_bytes(heap)
        .with_engine(engine);
    (cfg, fc)
}

/// One cell of the §4.7 grid: a collective call, the PE count and the
/// payload — `nelems` u64 per PE, what each PE sends or receives (a
/// scatter moves `nelems × n_pes` from the root).
///
/// With `warm` the collective runs once untimed before the measured
/// call, so plan compilation, the one-time signal-table growth barrier
/// and cold queue-occupancy ratios are paid identically in every arm and
/// the timed call is the steady state. Cold is one call as an
/// application would issue it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// The call: rooted at PE 0, a uniform table for scatter and gather.
    pub call: Call<'static>,
    /// PEs in the fabric.
    pub n_pes: usize,
    /// u64 elements per PE.
    pub nelems: usize,
    /// Run one untimed call before the measured one.
    pub warm: bool,
}

impl Cell {
    /// The cell of `kind` under `sync` at `n_pes` × `nelems`, warm or
    /// cold.
    pub fn new(kind: CallKind, sync: SyncMode, n_pes: usize, nelems: usize, warm: bool) -> Cell {
        let mut call = Call::whole(kind, 0, nelems, 1, sync);
        if let CallKind::Scatter(_) | CallKind::Gather(_) = kind {
            let displs: Vec<usize> = (0..n_pes).map(|r| r * nelems).collect();
            call.extent = Extent::Table {
                counts: vec![nelems; n_pes].into(),
                displs: Some(displs.into()),
            };
        }
        Cell {
            call,
            n_pes,
            nelems,
            warm,
        }
    }
}

/// Measure one cell: the timed call's simulated makespan (cycles, max
/// over PEs) and the executor record of the cell's kind, summed over the
/// warm and the timed call. Every cell runs the same steps: buffers,
/// the optional warm call, a barrier, `t0`, the call, a barrier.
///
/// `AlgorithmPolicy::Auto` with a concrete sync mode compares the *best
/// known configuration* under each mode: the barrier arm reproduces the
/// pre-signal-plane library exactly, while the pipelined arm is free to
/// take the chain shape that segmented signaling unlocks for large
/// payloads.
pub fn measure(engine: EngineConfig, cell: &Cell) -> (u64, Option<CollectiveRecord>) {
    let fc = FabricConfig::paper(cell.n_pes)
        .with_shared_bytes(heap_bytes(cell.n_pes, cell.nelems))
        .with_engine(engine);
    let report = Fabric::run(fc, |pe| run_cell(pe, cell));
    let makespan = report.results.iter().copied().max().unwrap_or(0);
    let kind = cell.call.family();
    let rec = report.collectives.iter().find(|r| r.kind == kind);
    (makespan, rec.copied())
}

/// Symmetric heap for a run moving `per_pe` u64 per PE on `n_pes` PEs:
/// room for four world-sized buffers (the caller's and the collectives'
/// staging) plus slack for the signal table.
fn heap_bytes(n_pes: usize, per_pe: usize) -> usize {
    (per_pe * n_pes * 8 * 4 + (1 << 16)).max(1 << 20)
}

/// A cell's buffer on one PE.
enum Store {
    Heap(SymmAlloc<u64>),
    Local(Vec<u64>),
}

/// One PE's part of a cell: its buffers (`n` u64 per PE), then
/// [`timed`] calls of the cell's call, summing. A shared source is
/// written before a barrier, so no peer reads it early.
fn run_cell(pe: &Pe, cell: &Cell) -> u64 {
    // Each PE takes its own copy of the call's tables first, as it built
    // them before the cell held a call, so the buffers below keep their
    // place in the PE's allocation sequence.
    let call = cell.call.clone();
    let (n, total, me) = (cell.nelems, cell.nelems * cell.n_pes, pe.rank() as u64);
    let (_held, src, mut dest) = match call.family() {
        CollectiveKind::Broadcast => {
            let dest = Store::Heap(pe.shared_malloc::<u64>(n.max(1)));
            (vec![], Store::Local(vec![7u64; n]), dest)
        }
        CollectiveKind::Reduce => {
            let buf = pe.shared_malloc::<u64>(n.max(1));
            let data: Vec<u64> = (0..n as u64).collect();
            pe.heap_write(buf.whole(), &data);
            pe.barrier();
            (data, Store::Heap(buf), Store::Local(vec![0u64; n.max(1)]))
        }
        CollectiveKind::Scatter => {
            let root_only = if me == 0 { total } else { 0 };
            let src = Store::Local((0..root_only as u64).collect());
            (vec![], src, Store::Local(vec![0u64; n.max(1)]))
        }
        CollectiveKind::Gather => {
            let mine = Store::Local(vec![me; n]);
            (vec![], mine, Store::Local(vec![0u64; total.max(1)]))
        }
        CollectiveKind::AllReduce => {
            let buf = pe.shared_malloc::<u64>(n.max(1));
            pe.heap_write(buf.whole(), &vec![me + 1; n]);
            pe.barrier();
            (vec![], Store::Heap(buf), Store::Local(vec![0u64; n.max(1)]))
        }
        _ => {
            let src = Store::Local((0..n as u64).map(|i| me * 100 + i).collect());
            (vec![], src, Store::Local(vec![0u64; total]))
        }
    };
    timed(pe, cell.warm, || {
        let dest = match &mut dest {
            Store::Heap(buf) => Buf::Heap(&*buf),
            Store::Local(v) => Buf::Local(&mut v[..]),
        };
        let src = match &src {
            Store::Heap(buf) => Buf::Heap(buf),
            Store::Local(v) => Buf::Local(&v[..]),
        };
        let bufs = Bufs { dest, src };
        call.issue(pe, bufs, u64::wrapping_add)
            .expect("a cell's table has one count per PE");
    })
}

/// The one warm rule: the optional warm call, a barrier, `t0`, the
/// call, a barrier; the PE's cycles between `t0` and the end.
fn timed(pe: &Pe, warm: bool, mut call: impl FnMut()) -> u64 {
    if warm {
        call();
    }
    pe.barrier();
    let t0 = pe.cycles();
    call();
    pe.barrier();
    pe.cycles() - t0
}

/// Run a workload exercising every collective once and return the full
/// [`RunReport`], whose `collectives` rows ([`xbrtime::CollectiveRecord`])
/// are the executor-level accounting the schedule/executor split provides
/// for free. With `traced` the fabric's event-tracing plane is on
/// ([`FabricConfig::with_trace`]) and `report.trace` holds the merged
/// per-PE event log — this is the run `ablation` prints a timeline for and
/// `ablation --trace` exports as Perfetto JSON.
pub fn collective_run(
    engine: EngineConfig,
    n_pes: usize,
    nelems: usize,
    traced: bool,
) -> RunReport<()> {
    let per_pe = nelems.max(1);
    let mut fc = FabricConfig::paper(n_pes)
        .with_shared_bytes(heap_bytes(n_pes, per_pe))
        .with_engine(engine);
    if traced {
        fc = fc.with_trace();
    }
    Fabric::run(fc, move |pe| collective_workload(pe, n_pes, per_pe))
}

/// One call to every collective in the library (the body of
/// [`collective_run`]).
fn collective_workload(pe: &Pe, n_pes: usize, per_pe: usize) {
    let total = per_pe * n_pes;
    {
        let bcast = pe.shared_malloc::<u64>(per_pe);
        let src = vec![3u64; per_pe];
        collectives::broadcast(pe, &bcast, &src, per_pe, 1, 0);
        pe.barrier();

        let red_src = pe.shared_malloc::<u64>(per_pe);
        pe.heap_write(red_src.whole(), &vec![pe.rank() as u64; per_pe]);
        pe.barrier();
        let mut red = vec![0u64; per_pe];
        collectives::reduce(pe, &mut red, &red_src, per_pe, 1, 0, ReduceOp::Sum);
        pe.barrier();

        let msgs = vec![per_pe; n_pes];
        let disp: Vec<usize> = (0..n_pes).map(|r| r * per_pe).collect();
        let sc_src: Vec<u64> = if pe.rank() == 0 {
            (0..total as u64).collect()
        } else {
            vec![]
        };
        let mut mine = vec![0u64; per_pe];
        collectives::scatter(pe, &mut mine, &sc_src, &msgs, &disp, total, 0);
        pe.barrier();
        let mut back = vec![0u64; total];
        collectives::gather(pe, &mut back, &mine, &msgs, &disp, total, 0);
        pe.barrier();

        let mut all = vec![0u64; total];
        collectives::all_gather(pe, &mut all, &mine, per_pe);
        pe.barrier();
        collectives::all_to_all_sync(pe, &mut all, &back, per_pe, SyncMode::Barrier);
        pe.barrier();

        let mut everywhere = vec![0u64; per_pe];
        collectives::reduce_all_sync(
            pe,
            &mut everywhere,
            &red_src,
            per_pe,
            ReduceOp::Sum,
            AllReduceAlgo::ReduceThenBroadcast,
            SyncMode::Barrier,
        );
        pe.barrier();
    }
}

/// Run one Figure-4 GUPs configuration with the tracing plane enabled and
/// return the full [`RunReport`]: `report.trace` holds the merged event
/// log that `fig4_gups --trace` exports as Perfetto JSON, and
/// `report.collectives` the telemetry the trace's per-collective critical
/// paths are checked against.
pub fn run_fig4_traced(
    engine: EngineConfig,
    n_pes: usize,
    scale_shift: u32,
) -> RunReport<GupsResult> {
    let (mut cfg, fc) = fig4_setup(engine, n_pes, scale_shift);
    // The collective episodes live in the verification tail (reduce +
    // broadcast of the error count) — the traced run keeps it on.
    cfg.verify = true;
    Fabric::run(fc.with_trace(), move |pe| run_gups(pe, &cfg))
}

/// [`run_fig4_traced`] for the Figure-5 IS harness.
pub fn run_fig5_traced(
    engine: EngineConfig,
    n_pes: usize,
    scale_shift: u32,
    class: Option<xbgas_apps::IsClass>,
) -> RunReport<IsResult> {
    let (cfg, fc) = fig5_setup(engine, n_pes, scale_shift, class);
    Fabric::run(fc.with_trace(), move |pe| run_is(pe, &cfg))
}

/// `--trace <out.json>` argument shared by the harness binaries: returns
/// the requested output path, if any.
pub fn trace_arg(args: &[String]) -> Option<&str> {
    flag_or_exit(args, "--trace")
}

/// Write a run's merged trace to `path` as Perfetto/Chrome trace-event
/// JSON (load it at <https://ui.perfetto.dev>). Exits the process on I/O
/// failure — harness binaries treat a requested-but-unwritable trace as a
/// hard error rather than silently dropping the artifact.
pub fn export_trace(path: &str, trace: &xbrtime::Trace) {
    if let Err(e) = std::fs::write(path, trace.to_perfetto_json()) {
        eprintln!("trace: could not write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "trace: wrote {} events from {} PEs to {path} ({} dropped by ring wrap)",
        trace.len(),
        trace.n_pes,
        trace.dropped
    );
}

/// One issue-rate cell: nonblocking collectives issued per second of
/// host time spent *in the issue call*, cold (every call regenerates its
/// communication schedule and lowers it before it issues — what a fabric
/// without a plan cache would pay) vs warm (compiled plans fetched from
/// the cache and issued at service rate). Only the issue phase is on the
/// clock; the drain — waits, completion barriers, and the engine's
/// park/unpark machinery — runs untimed between batches, because that
/// cost is identical in both arms and (on a small host) would otherwise
/// bury the issue path it is this benchmark's job to expose.
#[derive(Clone, Copy, Debug)]
pub struct IssueRateCell {
    /// PEs participating.
    pub n_pes: usize,
    /// Payload in u64 elements.
    pub nelems: usize,
    /// Timed episodes per configuration.
    pub iters: usize,
    /// Issue calls per second when every call also regenerates and lowers
    /// its schedule.
    pub cold_per_sec: f64,
    /// Issue calls per second from the plan cache (after the one-miss
    /// warm-up).
    pub warm_per_sec: f64,
}

/// In-flight depth of the issue benchmark: handles issued back-to-back
/// inside one timed burst before the untimed drain. Deep enough to
/// amortise the clock reads, shallow enough that every burst's handles
/// fit one signal-table growth step.
const ISSUE_DEPTH: usize = 8;

/// Measure one issue-rate cell: `iters` nonblocking broadcasts issued in
/// bursts of `ISSUE_DEPTH` on disjoint destination buffers. The clock
/// runs only across the `ixbroadcast` calls — the signaled-discipline
/// issue path never blocks, so the measurement is pure host issue cost:
/// warm pays one sharded hash lookup per call; cold additionally
/// regenerates and lowers the schedule inside the timed region before
/// each issue — exactly the per-PE work the cache exists to save. Each
/// burst is then drained (wait every handle, one alignment barrier) off
/// the clock. One untimed full-depth round per configuration first pays
/// signal-table growth and the single cache miss, so the timed loop
/// isolates the steady state.
/// Simulated cycles are identical in both arms by construction — the
/// plan layer's whole point — so this is the one probe in the crate that
/// reports *host* throughput.
pub fn issue_rate(
    engine: EngineConfig,
    n_pes: usize,
    nelems: usize,
    iters: usize,
) -> IssueRateCell {
    use xbrtime::collectives::schedule::broadcast_binomial;
    use xbrtime::collectives::{lower, SyncMode};
    let run = |relower: bool| -> f64 {
        let cfg = FabricConfig::paper(n_pes)
            .with_shared_bytes((ISSUE_DEPTH * nelems * 8 + (1 << 16)).max(1 << 20))
            .with_engine(engine);
        let report = Fabric::run(cfg, move |pe| {
            let dests: Vec<_> = (0..ISSUE_DEPTH)
                .map(|_| pe.shared_malloc::<u64>(nelems.max(1)))
                .collect();
            let src = vec![7u64; nelems.max(1)];
            let mut handles = Vec::with_capacity(ISSUE_DEPTH);
            let drain = |pe: &Pe, hs: &mut Vec<xbrtime::collectives::CollHandle<u64>>| {
                for h in hs.drain(..) {
                    h.wait(pe);
                }
                pe.barrier();
            };
            // Untimed warm-up round at full depth.
            for d in &dests {
                handles.push(collectives::ixbroadcast(
                    pe,
                    d,
                    &src,
                    nelems,
                    0,
                    SyncMode::Signaled,
                ));
            }
            drain(pe, &mut handles);
            let mut issued = std::time::Duration::ZERO;
            let mut left = iters;
            while left > 0 {
                let burst = left.min(ISSUE_DEPTH);
                let t0 = std::time::Instant::now();
                for d in &dests[..burst] {
                    if relower {
                        std::hint::black_box(lower(
                            &broadcast_binomial(n_pes, 0, nelems, 1),
                            SyncMode::Signaled,
                            8,
                        ));
                    }
                    handles.push(collectives::ixbroadcast(
                        pe,
                        d,
                        &src,
                        nelems,
                        0,
                        SyncMode::Signaled,
                    ));
                }
                issued += t0.elapsed();
                drain(pe, &mut handles);
                left -= burst;
            }
            issued.as_secs_f64()
        });
        // The slowest PE's issue time bounds the fabric's sustainable
        // issue rate on any worker layout (the root, typically: it pays
        // the shared data-placement cost on top of the plan path).
        let secs = report.results.iter().copied().fold(0.0f64, f64::max);
        iters as f64 / secs.max(1e-9)
    };
    IssueRateCell {
        n_pes,
        nelems,
        iters,
        cold_per_sec: run(true),
        warm_per_sec: run(false),
    }
}

/// Ablation: simulated cycles for a bulk put at a given unroll threshold.
pub fn ablation_unroll(engine: EngineConfig, threshold: usize, nelems: usize) -> u64 {
    let mut fc = FabricConfig::paper(2)
        .with_shared_bytes((nelems * 8).max(1 << 20))
        .with_engine(engine);
    fc.timing.unroll_threshold = threshold;
    let report = Fabric::run(fc, move |pe| {
        let dest = pe.shared_malloc::<u64>(nelems);
        let src = vec![1u64; nelems];
        pe.barrier();
        let t0 = pe.cycles();
        if pe.rank() == 0 {
            pe.put(dest.whole(), &src, nelems, 1, 1);
        }
        pe.cycles() - t0
    });
    report.results[0]
}

/// Ablation: hierarchical vs flat broadcast on a multi-node topology.
/// Returns (hierarchical_cycles, flat_cycles).
pub fn ablation_topology(
    engine: EngineConfig,
    n_pes: usize,
    pes_per_node: usize,
    nelems: usize,
) -> (u64, u64) {
    use xbrtime::Topology;
    let cfg = FabricConfig::paper(n_pes)
        .with_shared_bytes((nelems * 8 + (1 << 16)).max(1 << 20))
        .with_topology(Topology {
            pes_per_node,
            intra_node_factor: 0.25,
        })
        .with_engine(engine);
    let run = |hier: bool| {
        let report = Fabric::run(cfg, move |pe| {
            let dest = pe.shared_malloc::<u64>(nelems.max(1));
            let src = vec![1u64; nelems.max(1)];
            pe.barrier();
            let t0 = pe.cycles();
            if hier {
                collectives::broadcast_hier(pe, &dest, &src, nelems, 0, SyncMode::Barrier);
            } else {
                collectives::broadcast(pe, &dest, &src, nelems, 1, 0);
            }
            pe.barrier();
            pe.cycles() - t0
        });
        report.results.iter().copied().max().unwrap_or(0)
    };
    (run(true), run(false))
}

/// Ablation: GUPs remote-update strategy — the OSB get/xor/put pattern
/// vs a single-crossing remote atomic xor. Returns
/// (getput_makespan, amo_makespan, getput_errors, amo_errors).
pub fn ablation_gups_amo(engine: EngineConfig, n_pes: usize) -> (u64, u64, usize, usize) {
    let run = |use_amo: bool| {
        let cfg = xbgas_apps::GupsConfig {
            log2_table_size: 16,
            updates_per_pe: (1 << 16) / n_pes,
            verify: true,
            use_amo,
            policy: AlgorithmPolicy::Binomial,
            sync: SyncMode::Barrier,
        };
        let fc = FabricConfig::paper(n_pes)
            .with_shared_bytes(cfg.table_bytes() + (1 << 20))
            .with_engine(engine);
        let report = Fabric::run(fc, move |pe| run_gups(pe, &cfg));
        let makespan = report.results.iter().map(|r| r.cycles).max().unwrap_or(0);
        let errors = report.results.iter().map(|r| r.errors).sum();
        (makespan, errors)
    };
    let (gp, gp_err) = run(false);
    let (amo, amo_err) = run(true);
    (gp, amo, gp_err, amo_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbrtime::collectives::AllGatherVAlgo;

    /// The engine the makespan-comparing tests run on: one cooperative
    /// worker serialises the PEs, so simulated cycles do not depend on
    /// how the host happens to schedule PEs.
    const STEADY: EngineConfig = EngineConfig::coop().with_workers(1);

    /// The makespan of one cell on `STEADY`.
    fn cycles(kind: CallKind, sync: SyncMode, n_pes: usize, nelems: usize, warm: bool) -> u64 {
        measure(STEADY, &Cell::new(kind, sync, n_pes, nelems, warm)).0
    }

    /// The headline reproduction check for Figure 4, at quarter scale so the
    /// debug-mode test suite stays fast: per-PE GUPs exceeds the 1-PE
    /// baseline at 2 and 4 PEs and falls below the 4-PE level at 8.
    ///
    /// Runs with one worker slot per PE, unlike the other makespan tests:
    /// on `STEADY` the quarter-scale per-PE series is 3.714 / 3.995 /
    /// 3.763 / 2.067 MOPS on every run, so "4 PEs > 1.02 × baseline" reads
    /// 1.013 (the default two workers on a 2-core host read 1.025–1.029).
    /// With every PE runnable the 4 / 1 ratio read 1.046–1.048 and the
    /// 8 / 4 ratio 0.534–0.558 over three runs — the retired thread-per-PE
    /// engine's 1.039–1.050 and 0.534–0.543. How the PEs interleave decides
    /// the Figure-4 shape at this scale (ROADMAP item 1); that is a
    /// finding, not a threshold to loosen.
    #[test]
    fn fig4_shape_holds() {
        let rows = run_fig4(EngineConfig::coop().with_workers(8), &[1, 2, 4, 8], 2);
        let per_pe: Vec<f64> = rows.iter().map(|r| r.per_pe_mops).collect();
        assert!(
            per_pe[1] > per_pe[0] * 1.02,
            "per-PE at 2 PEs must exceed baseline: {per_pe:?}"
        );
        assert!(
            per_pe[2] > per_pe[0] * 1.02,
            "per-PE at 4 PEs must exceed baseline: {per_pe:?}"
        );
        assert!(
            per_pe[3] < per_pe[2] * 0.85,
            "per-PE at 8 PEs must drop: {per_pe:?}"
        );
        // Total operations scale "fairly linearly" (monotone, still rising at 8).
        let totals: Vec<f64> = rows.iter().map(|r| r.total_mops).collect();
        assert!(totals.windows(2).all(|w| w[1] > w[0]), "{totals:?}");
    }

    /// Figure 5 at reduced iterations: per-PE IS roughly consistent for
    /// 1–4 PEs, with a pronounced (paper: ~25%) drop at 8.
    #[test]
    fn fig5_shape_holds() {
        let rows = run_fig5(STEADY, &[1, 2, 4, 8], 1, None);
        let per_pe: Vec<f64> = rows.iter().map(|r| r.per_pe_mops).collect();
        assert!(
            per_pe[1] > per_pe[0] * 0.85,
            "per-PE at 2 PEs should stay near baseline: {per_pe:?}"
        );
        assert!(
            per_pe[2] > per_pe[0] * 0.75,
            "per-PE at 4 PEs should stay near baseline: {per_pe:?}"
        );
        assert!(
            per_pe[3] < per_pe[2] * 0.88,
            "per-PE at 8 PEs must drop noticeably: {per_pe:?}"
        );
        let totals: Vec<f64> = rows.iter().map(|r| r.total_mops).collect();
        assert!(totals.windows(2).all(|w| w[1] > w[0]), "{totals:?}");
    }

    /// §4.7: for 8 PEs the binomial tree beats the linear baseline.
    #[test]
    fn tree_beats_linear_at_scale() {
        let run = |policy| {
            cycles(
                CallKind::Broadcast(policy),
                SyncMode::Barrier,
                8,
                4096,
                false,
            )
        };
        let tree = run(AlgorithmPolicy::Binomial);
        let linear = run(AlgorithmPolicy::Linear);
        let ring = run(AlgorithmPolicy::Ring);
        assert!(tree < linear, "tree {tree} vs linear {linear}");
        assert!(tree < ring, "tree {tree} vs ring {ring}");
    }

    /// Tentpole acceptance: at 8 PEs and a large payload the pipelined
    /// executor must beat the per-stage-barrier baseline, and `Auto` must
    /// resolve to whichever discipline measures fastest.
    #[test]
    fn pipelined_beats_barrier_at_scale() {
        let (n_pes, nelems) = (8, 65_536); // 512 KiB — deep pipelining territory.
        let run = |sync| {
            cycles(
                CallKind::Broadcast(AlgorithmPolicy::Auto),
                sync,
                n_pes,
                nelems,
                true,
            )
        };
        let cycles = SyncMode::CONCRETE.map(run);
        let [barrier, _signaled, pipelined] = cycles;
        assert!(
            (pipelined as f64) < barrier as f64 * 0.95,
            "pipelined {pipelined} must beat barrier {barrier}"
        );
        let (winner, _) = SyncMode::CONCRETE
            .into_iter()
            .zip(cycles)
            .min_by_key(|&(_, c)| c)
            .unwrap();
        assert_eq!(
            SyncMode::Auto.resolve(n_pes, nelems * 8),
            winner,
            "auto must track the winner of {cycles:?}"
        );
    }

    /// `Auto` never loses to the paper's defaults beyond the 5 % the
    /// queue-occupancy term can move a makespan: `SyncMode::Auto` against
    /// always-barrier on the 21 cells of `ablation`'s sync-mode table, and
    /// `AllReduceAlgo::Auto` against reduce-then-broadcast on four cells
    /// either side of its payload crossovers.
    #[test]
    fn auto_never_loses_to_barrier_or_reduce_then_broadcast() {
        let within = |auto: u64, base: u64, cell: &str| {
            assert!(
                auto as f64 <= base as f64 * 1.05,
                "{cell}: auto {auto} vs {base}"
            );
        };
        for n in GRID_PES {
            for sz in GRID_SIZES {
                let run = |sync| {
                    cycles(
                        CallKind::Broadcast(AlgorithmPolicy::Auto),
                        sync,
                        n,
                        sz,
                        true,
                    )
                };
                let cell = format!("broadcast {n} PEs x {sz}");
                within(run(SyncMode::Auto), run(SyncMode::Barrier), &cell);
            }
            for sz in [256usize, 65536] {
                let run = |sync| {
                    cycles(
                        CallKind::Reduce(AlgorithmPolicy::Binomial),
                        sync,
                        n,
                        sz,
                        true,
                    )
                };
                let cell = format!("reduce {n} PEs x {sz}");
                within(run(SyncMode::Auto), run(SyncMode::Barrier), &cell);
            }
        }
        for (n, sz) in [(4usize, 256usize), (8, 1024), (4, 8192), (8, 8192)] {
            let run = |algo| cycles(CallKind::AllReduce(algo), SyncMode::Auto, n, sz, true);
            let cell = format!("all-reduce {n} PEs x {sz}");
            within(
                run(AllReduceAlgo::Auto),
                run(AllReduceAlgo::ReduceThenBroadcast),
                &cell,
            );
        }
    }

    /// Paper §3.3: the unrolled fast path must make large puts cheaper.
    #[test]
    fn unroll_ablation_direction() {
        let rolled = ablation_unroll(STEADY, usize::MAX, 4096);
        let unrolled = ablation_unroll(STEADY, 8, 4096);
        assert!(
            unrolled < rolled,
            "unrolled {unrolled} should undercut rolled {rolled}"
        );
    }

    #[test]
    fn amo_gups_is_faster_and_exact() {
        let (getput, amo, _gp_err, amo_err) = ablation_gups_amo(STEADY, 4);
        assert_eq!(amo_err, 0, "AMO updates cannot race");
        assert!(amo < getput, "one crossing {amo} should beat two {getput}");
    }

    #[test]
    fn topology_ablation_hierarchy_wins_on_ragged_nodes() {
        let (hier, flat) = ablation_topology(STEADY, 12, 3, 8192);
        assert!(hier < flat, "hier {hier} vs flat {flat}");
    }

    #[test]
    fn allreduce_strategies_both_complete() {
        let run = |algo| {
            let cell = Cell::new(CallKind::AllReduce(algo), SyncMode::Barrier, 8, 1024, true);
            measure(EngineConfig::default(), &cell).0
        };
        assert!(run(AllReduceAlgo::ReduceThenBroadcast) > 0);
        assert!(run(AllReduceAlgo::RecursiveDoubling) > 0);
    }

    /// Every collective a cell can name, warm and cold at 4 PEs: the
    /// record is the cell's kind and counts the warm call too.
    #[test]
    fn measure_records_the_cells_kind_and_calls() {
        let binomial = AlgorithmPolicy::Binomial;
        let kinds = [
            CallKind::Broadcast(binomial),
            CallKind::Reduce(binomial),
            CallKind::Scatter(binomial),
            CallKind::Gather(binomial),
            CallKind::AllReduce(AllReduceAlgo::Auto),
            CallKind::AllGather(AllGatherVAlgo::Auto),
        ];
        for kind in kinds {
            for warm in [false, true] {
                let cell = Cell::new(kind, SyncMode::Auto, 4, 64, warm);
                let (makespan, rec) = measure(STEADY, &cell);
                let rec = rec.unwrap_or_else(|| panic!("{cell:?}: no record"));
                assert_eq!(rec.kind, cell.call.family(), "{cell:?}");
                assert_eq!(rec.calls, 1 + warm as u64, "{cell:?}");
                assert!(makespan > 0, "{cell:?}");
            }
        }
    }

    #[test]
    fn flag_value_present_absent_and_dangling() {
        let args: Vec<String> = ["bin", "--quick", "--pes", "64", "--trace"]
            .map(String::from)
            .to_vec();
        assert_eq!(flag_value(&args, "--pes"), Ok(Some("64")));
        assert_eq!(flag_value(&args, "--class"), Ok(None));
        assert_eq!(
            flag_value(&args, "--trace"),
            Err("--trace expects a value".to_string())
        );
    }

    #[test]
    fn render_is_stable() {
        let rows = vec![FigureRow {
            n_pes: 2,
            total_mops: 4.0,
            per_pe_mops: 2.0,
            makespan_cycles: 1000,
        }];
        let s = render_rows("GUPs", "MOPS", &rows);
        assert!(s.contains("GUPs"));
        assert!(s.contains("2.000"));
    }
}
