//! The three collective workloads on 8 PEs, all through the library's
//! `Auto` policy entry points and the compiled-plan cache:
//!
//! * `coll_small` — warm cache, 8 B / 128 B / 1 KiB payloads: issue-,
//!   signal- and hand-off-bound;
//! * `coll_large` — warm cache, 256 KiB payloads: copy- and
//!   chunk-pipeline-bound;
//! * `coll_cold` — 504 distinct shapes per fabric, issued 84 to a rep and
//!   never twice, so every call misses the plan cache: schedule
//!   generation, policy and `plan::lower` dominate.
//!
//! Every call writes its own result buffer; after each rep (outside the
//! timed region) every buffer on every PE is compared with the dense
//! reference computed from the inputs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use xbrtime::collectives::{self, AllReduceAlgo};
use xbrtime::timing::SplitMix64;
use xbrtime::{
    AlgorithmPolicy, Fabric, FabricConfig, Pe, ReduceOp, RunReport, SymmAlloc, SyncMode,
};

use super::Metric;
use crate::measure::{median, Budget, Ctx, Rep};

const PES: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Broadcast,
    Reduce,
    Scatter,
    Gather,
    ReduceAll,
    AllGather,
    AllToAll,
}

const KINDS: [Kind; 7] = [
    Kind::Broadcast,
    Kind::Reduce,
    Kind::Scatter,
    Kind::Gather,
    Kind::ReduceAll,
    Kind::AllGather,
    Kind::AllToAll,
];

impl Kind {
    /// Span name of a call of this kind (`coll.<kind>`).
    fn span(self) -> &'static str {
        match self {
            Kind::Broadcast => "coll.broadcast",
            Kind::Reduce => "coll.reduce",
            Kind::Scatter => "coll.scatter",
            Kind::Gather => "coll.gather",
            Kind::ReduceAll => "coll.reduce_all",
            Kind::AllGather => "coll.all_gather",
            Kind::AllToAll => "coll.all_to_all",
        }
    }

    fn rooted(self) -> bool {
        matches!(
            self,
            Kind::Broadcast | Kind::Reduce | Kind::Scatter | Kind::Gather
        )
    }

    /// Whether `Shape::n` counts a per-PE block (the kinds that move one
    /// block per PE) rather than the whole vector.
    fn blocked(self) -> bool {
        matches!(
            self,
            Kind::Scatter | Kind::Gather | Kind::AllGather | Kind::AllToAll
        )
    }
}

/// One collective call: kind, element count (`u64`s; per-PE block for the
/// blocked kinds, vector length otherwise) and root.
#[derive(Clone, Copy)]
struct Shape {
    kind: Kind,
    n: usize,
    root: usize,
}

impl Shape {
    /// Elements this call reads from a PE's source values.
    fn src_len(&self) -> usize {
        match self.kind {
            Kind::Scatter | Kind::AllToAll => PES * self.n,
            _ => self.n,
        }
    }

    /// Elements of the result buffer (on the PEs that receive one).
    fn dest_len(&self) -> usize {
        match self.kind {
            Kind::Gather | Kind::AllGather | Kind::AllToAll => PES * self.n,
            _ => self.n,
        }
    }
}

/// A workload's calls.
struct Script {
    /// The calls of one fabric, in issue order.
    calls: Vec<Shape>,
    /// Warm: every call is issued once before timing and every rep issues
    /// them all again, hitting the plan cache. Cold: rep `i` issues the
    /// `i`-th run of `per_rep` calls and the fabric ends with the last run,
    /// so no call is ever issued twice.
    warm: bool,
    /// Calls per rep.
    per_rep: usize,
    shared_bytes: usize,
}

impl Script {
    /// The calls of the fabric's `rep`-th rep, if it has that many.
    fn rep_calls(&self, rep: usize) -> Option<std::ops::Range<usize>> {
        let start = if self.warm { 0 } else { rep * self.per_rep };
        (start + self.per_rep <= self.calls.len()).then_some(start..start + self.per_rep)
    }
}

/// A pinned pseudo-random issue order. The order is *not* drawn from the
/// seed: reordering the same calls moves simulated cycles per call by up
/// to 1.3 % (`coll_cold`; 0.2–0.3 % on the warm workloads) through the
/// cost model's cache state and the symmetric heap's layout, which would
/// swamp the 0.2 % bound on `sim_cycles_per_op`. The seed rotates the
/// roots, draws the payload values and seeds the scheduler instead.
fn shuffle<T>(items: &mut [T], stream: u64) {
    let mut rng = SplitMix64::new(stream);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.pick(i as u64 + 1) as usize);
    }
}

/// The seed-drawn rotation applied to every rooted call's root.
fn root_shift(ctx: &Ctx) -> usize {
    ctx.rng(20).pick(PES as u64) as usize
}

fn shape(ctx: &Ctx, kind: Kind, n: usize, root: usize) -> Shape {
    Shape {
        kind,
        n,
        root: if kind.rooted() {
            (root + root_shift(ctx)) % PES
        } else {
            0
        },
    }
}

/// Every kind × {1, 16, 128} elements × every root: 168 calls a rep.
fn small_script(ctx: &Ctx) -> Script {
    let mut calls = Vec::new();
    for kind in KINDS {
        for n in [1, 16, 128] {
            calls.extend((0..PES).map(|root| shape(ctx, kind, n, root)));
        }
    }
    shuffle(&mut calls, 21);
    Script {
        per_rep: calls.len(),
        calls,
        warm: true,
        shared_bytes: 4 << 20,
    }
}

/// Every kind once at 256 KiB (32 KiB per PE for the blocked kinds): 7
/// calls a rep.
fn large_script(ctx: &Ctx) -> Script {
    let (vector, block) = if ctx.quick {
        (4096, 512)
    } else {
        (32768, 4096)
    };
    let mut calls: Vec<Shape> = KINDS
        .iter()
        .map(|&kind| shape(ctx, kind, if kind.blocked() { block } else { vector }, 0))
        .collect();
    shuffle(&mut calls, 22);
    Script {
        per_rep: calls.len(),
        calls,
        warm: true,
        shared_bytes: 8 << 20,
    }
}

/// 504 distinct shapes of at most 512 elements a vector (4 KiB): the
/// rooted kinds at 9 sizes × 8 roots, the rootless ones at 72 sizes.
/// Nothing repeats, so nothing hits the plan cache.
fn cold_script(ctx: &Ctx) -> Script {
    let sizes = if ctx.quick { 2 } else { 9 };
    let mut calls = Vec::new();
    for kind in KINDS {
        for j in 0..sizes {
            for root in 0..PES {
                let n = match (kind.rooted(), kind.blocked()) {
                    (true, false) => 1 + 60 * j,
                    (true, true) => 1 + 6 * j,
                    (false, false) => 1 + (511 * (PES * j + root)) / 71,
                    (false, true) => 1 + 2 * (PES * j + root),
                };
                calls.push(shape(ctx, kind, n, root));
            }
        }
    }
    shuffle(&mut calls, 23);
    Script {
        per_rep: calls.len() / 6,
        calls,
        warm: false,
        shared_bytes: 4 << 20,
    }
}

/// The inputs: `vals[r][i]` is PE `r`'s `i`-th source value (below 2^32,
/// so sums over 8 PEs never wrap), `sum[i]` their sum over PEs.
struct Data {
    vals: Vec<Vec<u64>>,
    sum: Vec<u64>,
}

impl Data {
    fn new(ctx: &Ctx, script: &Script) -> Data {
        let len = script.calls.iter().map(Shape::src_len).max().unwrap_or(1);
        let vals: Vec<Vec<u64>> = (0..PES)
            .map(|r| {
                let mut rng = ctx.rng(30 + r as u64);
                (0..len).map(|_| rng.next_u64() >> 32).collect()
            })
            .collect();
        let sum = (0..len).map(|i| vals.iter().map(|v| v[i]).sum()).collect();
        Data { vals, sum }
    }

    /// Whether PE `me`'s result of `shape` equals the dense reference.
    fn matches(&self, shape: &Shape, me: usize, got: &[u64]) -> bool {
        let n = shape.n;
        let at_root = me == shape.root;
        match shape.kind {
            Kind::Broadcast => got == &self.vals[shape.root][..n],
            Kind::Reduce => !at_root || got == &self.sum[..n],
            Kind::Scatter => got == &self.vals[shape.root][me * n..(me + 1) * n],
            Kind::Gather => {
                !at_root || (0..PES).all(|r| got[r * n..(r + 1) * n] == self.vals[r][..n])
            }
            Kind::ReduceAll => got == &self.sum[..n],
            Kind::AllGather => (0..PES).all(|r| got[r * n..(r + 1) * n] == self.vals[r][..n]),
            Kind::AllToAll => {
                (0..PES).all(|s| got[s * n..(s + 1) * n] == self.vals[s][me * n..(me + 1) * n])
            }
        }
    }
}

/// Where one call's result lands on a PE.
enum Dest {
    Symmetric(SymmAlloc<u64>),
    Local(Vec<u64>),
}

/// What the PEs of one fabric share on the host side.
struct Flight<'a> {
    ctx: &'a Ctx,
    script: &'a Script,
    data: &'a Data,
    budget: &'a Budget,
    /// Reps the budget has already seen, in earlier fabrics.
    reps_before: usize,
    /// Rank 0's verdict on whether another rep follows.
    go: AtomicBool,
    /// Per call of the rep: some PE found a mismatch.
    bad: Vec<AtomicBool>,
    /// Host nanoseconds (since `origin`) at which the first PE left the
    /// rep's opening barrier and the last PE left its closing one.
    origin: Instant,
    started: AtomicU64,
    ended: AtomicU64,
}

/// What a PE brings back.
#[derive(Default)]
struct PeOut {
    /// Simulated cycles of each rep on this PE.
    cycles: Vec<u64>,
    /// Rank 0 only: host seconds and failed calls of each rep.
    host_s: Vec<f64>,
    failed: Vec<u64>,
    /// Rank 0 only, traced pass: simulated cycles and calls per kind.
    kind_cycles: [u64; 7],
    kind_calls: [u64; 7],
}

fn issue(pe: &Pe, shape: &Shape, data: &Data, src_sym: &SymmAlloc<u64>, dest: &mut Dest) {
    let (n, root, me) = (shape.n, shape.root, pe.rank());
    let mine = &data.vals[me];
    let auto = AlgorithmPolicy::Auto;
    let sync = SyncMode::Auto;
    match (shape.kind, dest) {
        (Kind::Broadcast, Dest::Symmetric(d)) => {
            collectives::broadcast_policy_sync(pe, d, &mine[..n], n, 1, root, auto, sync)
        }
        (Kind::Reduce, Dest::Local(d)) => {
            collectives::reduce_policy_sync(pe, d, src_sym, n, 1, root, ReduceOp::Sum, auto, sync)
        }
        (Kind::Scatter, Dest::Local(d)) => {
            let src = if me == root {
                &mine[..PES * n]
            } else {
                &[][..]
            };
            let disp: Vec<usize> = (0..PES).map(|r| r * n).collect();
            collectives::scatter_policy_sync(
                pe,
                d,
                src,
                &[n; PES],
                &disp,
                PES * n,
                root,
                auto,
                sync,
            )
        }
        (Kind::Gather, Dest::Local(d)) => {
            let disp: Vec<usize> = (0..PES).map(|r| r * n).collect();
            collectives::gather_policy_sync(
                pe,
                d,
                &mine[..n],
                &[n; PES],
                &disp,
                PES * n,
                root,
                auto,
                sync,
            )
        }
        (Kind::ReduceAll, Dest::Local(d)) => collectives::reduce_all_sync(
            pe,
            d,
            src_sym,
            n,
            ReduceOp::Sum,
            AllReduceAlgo::Auto,
            sync,
        ),
        (Kind::AllGather, Dest::Local(d)) => collectives::all_gather(pe, d, &mine[..n], n),
        (Kind::AllToAll, Dest::Local(d)) => {
            collectives::all_to_all_sync(pe, d, &mine[..PES * n], n, sync)
        }
        _ => unreachable!("broadcast results are symmetric, every other kind's local"),
    }
}

/// The SPMD body: allocate, initialise, warm, then rep until rank 0 says
/// stop. Only the calls between a rep's two barriers are timed.
fn body(pe: &Pe, f: &Flight) -> PeOut {
    let me = pe.rank();
    let calls = &f.script.calls;
    let src_sym = pe.shared_malloc::<u64>(f.data.sum.len());
    pe.heap_write(src_sym.whole(), &f.data.vals[me]);
    // Ready-to-issue includes a signal table no schedule here outgrows
    // (56 ops × 10 slots), as `traffic_body` pre-sizes its own: growth is
    // collective and would otherwise land in whichever call needs it first.
    pe.signal_table(1024);
    let mut dests: Vec<Dest> = calls
        .iter()
        .map(|s| match s.kind {
            Kind::Broadcast => Dest::Symmetric(pe.shared_malloc::<u64>(s.dest_len())),
            _ => Dest::Local(vec![0; s.dest_len()]),
        })
        .collect();
    pe.barrier();
    if f.script.warm {
        for (shape, dest) in calls.iter().zip(&mut dests) {
            issue(pe, shape, f.data, &src_sym, dest);
        }
    }

    let mut out = PeOut::default();
    let now_ns = || f.origin.elapsed().as_nanos() as u64;
    loop {
        let rep = out.cycles.len();
        let range = f.script.rep_calls(rep);
        if me == 0 {
            let go = range.is_some() && f.budget.more(f.reps_before + rep);
            f.go.store(go, Ordering::SeqCst);
        }
        pe.barrier();
        let Some(range) = range.filter(|_| f.go.load(Ordering::SeqCst)) else {
            break;
        };
        // Poison the rep's result buffers, so a call that writes nothing
        // fails.
        for dest in &mut dests[range.clone()] {
            match dest {
                Dest::Symmetric(d) => pe.heap_write(d.whole(), &vec![u64::MAX; d.len()]),
                Dest::Local(d) => d.fill(u64::MAX),
            }
        }
        if me == 0 {
            f.started.store(u64::MAX, Ordering::SeqCst);
            f.ended.store(0, Ordering::SeqCst);
        }
        pe.barrier();

        f.started.fetch_min(now_ns(), Ordering::SeqCst);
        let c0 = pe.cycles();
        let rep_span = (me == 0).then(|| f.ctx.span("coll.rep")).flatten();
        for (shape, dest) in calls[range.clone()].iter().zip(&mut dests[range.clone()]) {
            if me == 0 && f.ctx.traced() {
                let k = KINDS.iter().position(|&k| k == shape.kind).unwrap_or(0);
                let span = f.ctx.span(shape.kind.span());
                let before = pe.cycles();
                issue(pe, shape, f.data, &src_sym, dest);
                drop(span);
                out.kind_cycles[k] += pe.cycles() - before;
                out.kind_calls[k] += 1;
            } else {
                issue(pe, shape, f.data, &src_sym, dest);
            }
        }
        pe.barrier();
        drop(rep_span);
        out.cycles.push(pe.cycles() - c0);
        f.ended.fetch_max(now_ns(), Ordering::SeqCst);

        for i in range.clone() {
            let ok = match &dests[i] {
                Dest::Symmetric(d) => {
                    f.data
                        .matches(&calls[i], me, &pe.heap_read_vec::<u64>(d.whole(), d.len()))
                }
                Dest::Local(d) => f.data.matches(&calls[i], me, d),
            };
            if !ok {
                f.bad[i].store(true, Ordering::SeqCst);
            }
        }
        pe.barrier();
        if me == 0 {
            let span_ns = f.ended.load(Ordering::SeqCst) - f.started.load(Ordering::SeqCst);
            out.host_s.push(span_ns as f64 / 1e9);
            out.failed.push(
                f.bad[range]
                    .iter()
                    .filter(|b| b.swap(false, Ordering::SeqCst))
                    .count() as u64,
            );
        }
    }
    out
}

/// One fabric's worth of reps, and the run's report.
fn fly(
    ctx: &Ctx,
    script: &Script,
    data: &Data,
    (budget, reps_before): (&Budget, usize),
    program_trace: bool,
) -> (Vec<Rep>, Option<RunReport<PeOut>>) {
    let flight = Flight {
        ctx,
        script,
        data,
        budget,
        reps_before,
        go: AtomicBool::new(false),
        bad: script
            .calls
            .iter()
            .map(|_| AtomicBool::new(false))
            .collect(),
        origin: Instant::now(),
        started: AtomicU64::new(0),
        ended: AtomicU64::new(0),
    };
    let mut cfg = FabricConfig::paper(PES)
        .with_shared_bytes(script.shared_bytes)
        .with_engine(ctx.engine());
    if program_trace {
        cfg = cfg.with_trace();
    }
    let ops = script.per_rep as u64;
    match Fabric::try_run(cfg, |pe| body(pe, &flight)) {
        Ok(report) => {
            let lead = &report.results[0];
            let reps = (0..lead.host_s.len())
                .map(|i| Rep {
                    ops,
                    host_s: lead.host_s[i],
                    sim_cycles: report
                        .results
                        .iter()
                        .map(|o| o.cycles[i])
                        .max()
                        .unwrap_or(0),
                    failed: lead.failed[i],
                })
                .collect();
            (reps, Some(report))
        }
        Err(e) => {
            eprintln!("collective workload failed: {e}");
            (vec![Rep::failed(ops, flight.origin)], None)
        }
    }
}

/// One fresh set-up: generate inputs, launch, allocate, initialise, one
/// cold call per shape, join.
fn setup_of(ctx: &Ctx, script: &Script) -> f64 {
    let t0 = Instant::now();
    let data = Data::new(ctx, script);
    fly(ctx, script, &data, (&Budget::fixed(0), 0), false);
    t0.elapsed().as_secs_f64()
}

/// One fresh `coll_small` set-up, in seconds.
pub fn small_setup(ctx: &Ctx) -> f64 {
    setup_of(ctx, &small_script(ctx))
}

/// One fresh `coll_large` set-up, in seconds.
pub fn large_setup(ctx: &Ctx) -> f64 {
    setup_of(ctx, &large_script(ctx))
}

/// One fresh `coll_cold` set-up, in seconds: like the warm workloads', one
/// cold call per shape, so plan-building work moved out of the timed
/// region would show here.
pub fn cold_setup(ctx: &Ctx) -> f64 {
    let script = Script {
        warm: true,
        ..cold_script(ctx)
    };
    setup_of(ctx, &script)
}

fn hit_rate<R>(report: &RunReport<R>) -> f64 {
    report.plan_cache.map_or(0.0, |pc| pc.hit_rate())
}

/// Per-kind host microseconds (median of the harness spans around rank
/// 0's calls; with one worker slot a span covers the peers' share of the
/// call too) and simulated cycles (rank 0's clock across the call).
fn kind_metrics(
    ctx: &Ctx,
    workload: &'static str,
    size: &str,
    lead: &PeOut,
    out: &mut Vec<Metric>,
) {
    let Some(spans) = &ctx.spans else { return };
    for (k, kind) in KINDS.iter().enumerate() {
        let name = &kind.span()["coll.".len()..];
        out.push(Metric::new(
            format!("coll.{name}.host_us_{size}"),
            median(spans.durations_us(workload, kind.span())),
            "us",
        ));
        out.push(Metric::new(
            format!("coll.{name}.cycles_{size}"),
            lead.kind_cycles[k] as f64 / lead.kind_calls[k].max(1) as f64,
            "cycles",
        ));
    }
}

/// The critical-path split of a traced run: the share of chain cycles
/// spent waiting on peers, moving bytes, and folding.
fn path_metrics(report: &RunReport<PeOut>, size: &str, out: &mut Vec<Metric>) {
    let Some(trace) = &report.trace else { return };
    let paths = trace.critical_paths();
    let total: u64 = paths.iter().map(|p| p.total_cycles).sum();
    let frac = |part: u64| part as f64 / total.max(1) as f64;
    out.push(Metric::new(
        format!("trace.wait_frac_{size}"),
        frac(paths.iter().map(|p| p.wait_cycles).sum()),
        "ratio",
    ));
    out.push(Metric::new(
        format!("trace.transfer_frac_{size}"),
        frac(paths.iter().map(|p| p.transfer_cycles).sum()),
        "ratio",
    ));
    out.push(Metric::new(
        format!("trace.compute_frac_{size}"),
        frac(paths.iter().map(|p| p.compute_cycles).sum()),
        "ratio",
    ));
}

fn best_host_s(reps: &[Rep]) -> f64 {
    reps.iter().map(|r| r.host_s).fold(f64::INFINITY, f64::min)
}

/// Timed `coll_small` reps. The traced pass flies the same script a second
/// time with the program's own tracing plane on; the ratio of the two
/// fastest reps is what tracing costs.
pub fn small_run(ctx: &Ctx, budget: &Budget, layers: &mut Vec<Metric>) -> Vec<Rep> {
    let script = small_script(ctx);
    let data = Data::new(ctx, &script);
    let (reps, _) = fly(ctx, &script, &data, (budget, 0), false);
    if ctx.traced() {
        let (traced, report) = fly(ctx, &script, &data, (budget, 0), true);
        layers.push(Metric::new(
            "trace.overhead_frac",
            best_host_s(&traced) / best_host_s(&reps) - 1.0,
            "ratio",
        ));
        if let Some(report) = report {
            let calls = (script.per_rep * (1 + traced.len())) as f64;
            let trace = report.trace.as_ref();
            layers.push(Metric::new(
                "trace.events_per_op",
                trace.map_or(0.0, |t| t.len() as f64) / calls,
                "count",
            ));
            layers.push(Metric::new(
                "trace.dropped",
                trace.map_or(0.0, |t| t.dropped as f64),
                "count",
            ));
            layers.push(Metric::new(
                "plan.cache_hit_rate.coll_small",
                hit_rate(&report),
                "ratio",
            ));
            kind_metrics(ctx, "coll_small", "small", &report.results[0], layers);
            path_metrics(&report, "small", layers);
        }
    }
    reps
}

/// Timed `coll_large` reps.
pub fn large_run(ctx: &Ctx, budget: &Budget, layers: &mut Vec<Metric>) -> Vec<Rep> {
    let script = large_script(ctx);
    let data = Data::new(ctx, &script);
    let (reps, report) = fly(ctx, &script, &data, (budget, 0), ctx.traced());
    if let (true, Some(report)) = (ctx.traced(), report) {
        layers.push(Metric::new(
            "plan.cache_hit_rate.coll_large",
            hit_rate(&report),
            "ratio",
        ));
        let (wait, all) = report
            .collectives
            .iter()
            .fold((0, 0), |(w, c), r| (w + r.wait_cycles, c + r.cycles));
        layers.push(Metric::new(
            "coll.overlap_ratio",
            1.0 - wait as f64 / (all as f64).max(1.0),
            "ratio",
        ));
        kind_metrics(ctx, "coll_large", "large", &report.results[0], layers);
        path_metrics(&report, "large", layers);
    }
    reps
}

/// Timed `coll_cold` reps: a fresh fabric, and so an empty plan cache,
/// whenever the last one has issued all its shapes.
pub fn cold_run(ctx: &Ctx, budget: &Budget, layers: &mut Vec<Metric>) -> Vec<Rep> {
    let script = cold_script(ctx);
    let data = Data::new(ctx, &script);
    let mut reps = Vec::new();
    let mut last = None;
    while budget.more(reps.len()) {
        let (flown, report) = fly(ctx, &script, &data, (budget, reps.len()), false);
        reps.extend(flown);
        last = report;
    }
    if let Some(report) = last {
        layers.push(Metric::new(
            "plan.cache_hit_rate.coll_cold",
            hit_rate(&report),
            "ratio",
        ));
        layers.push(Metric::new(
            "plan.cache_bytes",
            report.plan_cache.map_or(0.0, |pc| pc.bytes as f64),
            "B",
        ));
    }
    reps
}
