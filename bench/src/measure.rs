//! The measurement protocol shared by every workload: repetitions against
//! a time budget, best-of-reps summaries, and the in-memory span recorder
//! of the traced pass.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use xbgas_bench::json::{Json, ToJson};
use xbrtime::timing::SplitMix64;
use xbrtime::EngineConfig;

/// What one invocation measures with: the seed, the sizes, and (in the
/// traced pass) the span recorder.
pub struct Ctx {
    /// Workload seed: inputs and the cooperative scheduler's grant seed
    /// derive from it and from nothing else.
    pub seed: u64,
    /// `--quick`: two short reps per workload, a smoke run.
    pub quick: bool,
    /// Span recorder; `Some` in the traced pass only.
    pub spans: Option<Spans>,
}

impl Ctx {
    /// Every fabric in the benchmark runs on the cooperative engine with
    /// one worker slot: with the process pinned to one CPU this is the
    /// only configuration whose host time is steady and whose simulated
    /// cycles repeat (README, "Noise protocol").
    pub fn engine(&self) -> EngineConfig {
        EngineConfig::coop().with_workers(1).with_seed(self.seed)
    }

    /// The same engine with the library's default grant seed, for the two
    /// workloads whose *simulated* time moves with the grant order
    /// (`gups_8pe` flips between 60.34 and 60.47 cycles per update,
    /// `traffic_mt` by up to 22 %): there the seed would only add noise.
    pub fn pinned_engine() -> EngineConfig {
        EngineConfig::coop().with_workers(1)
    }

    /// A generator for one named input stream of this seed.
    pub fn rng(&self, stream: u64) -> SplitMix64 {
        SplitMix64::new(self.seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Whether the traced pass is running.
    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    /// Open a span if tracing; the guard closes it.
    pub fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        self.spans.as_ref().map(|s| s.enter(name))
    }
}

/// One timed repetition.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    /// Operations the rep performed.
    pub ops: u64,
    /// Host wall time of the timed region, seconds.
    pub host_s: f64,
    /// Simulated makespan cycles of the timed region.
    pub sim_cycles: u64,
    /// Operations whose output check failed.
    pub failed: u64,
}

impl Rep {
    /// A rep, begun at `since`, that panicked, tripped the watchdog or
    /// otherwise produced nothing to check: every op failed.
    pub fn failed(ops: u64, since: Instant) -> Rep {
        Rep {
            ops,
            host_s: since.elapsed().as_secs_f64(),
            sim_cycles: 0,
            failed: ops,
        }
    }
}

/// How long and how often to repeat.
pub struct Budget {
    deadline: Instant,
    min_reps: usize,
    max_reps: usize,
}

impl Budget {
    /// Repeat until `seconds` have passed, at least `min_reps` and at most
    /// `max_reps` times.
    pub fn timed(seconds: f64, min_reps: usize, max_reps: usize) -> Budget {
        Budget {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            min_reps,
            max_reps,
        }
    }

    /// Exactly `reps` repetitions (traced and `--quick` passes).
    pub fn fixed(reps: usize) -> Budget {
        Budget {
            deadline: Instant::now(),
            min_reps: reps,
            max_reps: reps,
        }
    }

    /// Whether another rep is due after `done` of them.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_reps || (done < self.max_reps && Instant::now() < self.deadline)
    }

    /// Run `rep` until the budget is spent.
    pub fn run(&self, mut rep: impl FnMut() -> Rep) -> Vec<Rep> {
        let mut reps = Vec::new();
        while self.more(reps.len()) {
            reps.push(rep());
        }
        reps
    }
}

/// Fastest of several fresh set-ups: up to 15 of them within 1.2 s, and
/// never fewer than three. A run samples twice, before and after its timed
/// phase, so that a disturbance seconds long cannot cover every sample.
pub fn fastest_setup(quick: bool, mut setup: impl FnMut() -> f64) -> f64 {
    let budget = if quick {
        Budget::fixed(1)
    } else {
        Budget::timed(1.2, 3, 15)
    };
    let mut best = f64::INFINITY;
    let mut taken = 0;
    while budget.more(taken) {
        best = best.min(setup());
        taken += 1;
    }
    best
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let i = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[i.min(sorted.len() - 1)]
}

/// The summary of a workload's timed reps.
pub struct Summary {
    /// Reps measured.
    pub reps: usize,
    /// Operations per rep.
    pub ops_per_rep: u64,
    /// Ops of a rep over the host time of the fastest rep. Interference
    /// on a shared host only ever adds time, so the fastest rep is the
    /// least disturbed observation.
    pub best_ops_per_s: f64,
    /// Median rep, for detail.
    pub median_ops_per_s: f64,
    /// The rate 90 % of reps reached or beat, for detail.
    pub p90_ops_per_s: f64,
    /// Simulated cycles per op over the first `min_reps` reps together: the
    /// reps every run takes however fast the host, so the figure does not
    /// move with the number of reps the time budget allowed.
    pub sim_cycles_per_op: f64,
    /// Whether those reps all reported the same simulated cycle count.
    pub sim_identical: bool,
    /// (max − min) ÷ median of their simulated cycles.
    pub sim_spread: f64,
    /// Ops attempted over all reps.
    pub attempted: u64,
    /// Ops whose check failed over all reps.
    pub failed: u64,
}

impl Summary {
    /// Summarise `reps` (non-empty; every rep has the same op count), of
    /// which the first `min_reps` were taken unconditionally.
    pub fn of(reps: &[Rep], min_reps: usize) -> Summary {
        assert!(!reps.is_empty(), "a workload must run at least one rep");
        let ops = reps[0].ops;
        let mut rates: Vec<f64> = reps.iter().map(|r| r.ops as f64 / r.host_s).collect();
        rates.sort_by(f64::total_cmp);
        let fixed = &reps[..min_reps.clamp(1, reps.len())];
        let mut cycles: Vec<u64> = fixed.iter().map(|r| r.sim_cycles).collect();
        cycles.sort_unstable();
        let (lo, hi) = (cycles[0], cycles[cycles.len() - 1]);
        let mid = cycles[cycles.len() / 2];
        Summary {
            reps: reps.len(),
            ops_per_rep: ops,
            best_ops_per_s: rates[rates.len() - 1],
            median_ops_per_s: quantile(&rates, 0.5),
            p90_ops_per_s: quantile(&rates, 0.1),
            sim_cycles_per_op: cycles.iter().sum::<u64>() as f64
                / (ops * fixed.len() as u64) as f64,
            sim_identical: lo == hi,
            sim_spread: (hi - lo) as f64 / mid.max(1) as f64,
            attempted: reps.iter().map(|r| r.ops).sum(),
            failed: reps.iter().map(|r| r.failed.min(r.ops)).sum(),
        }
    }
}

/// One recorded span: a call into a layer, as seen from the harness.
struct Span {
    name: &'static str,
    workload: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Default)]
struct SpanLog {
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: &'static str,
}

/// In-memory span recorder. Spans nest by open order (inside a fabric only
/// rank 0 records, and with one worker slot it never overlaps the main
/// thread), carry the id of the workload they were taken under, are kept
/// in memory, and are written out once when the benchmark ends.
pub struct Spans {
    origin: Instant,
    log: Mutex<SpanLog>,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    spans: &'a Spans,
    id: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let now = self.spans.origin.elapsed().as_nanos() as u64;
        // A poisoned recorder loses this span's end; `drop` must not panic.
        if let Ok(mut log) = self.spans.log.lock() {
            log.spans[self.id].end_ns = now;
            log.open.retain(|&open| open != self.id);
        }
    }
}

impl Spans {
    /// An empty recorder; time zero is now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            log: Mutex::new(SpanLog::default()),
        }
    }

    /// Spans opened from now on belong to `workload`.
    pub fn set_workload(&self, workload: &'static str) {
        self.log.lock().expect("span recorder poisoned").workload = workload;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let mut log = self.log.lock().expect("span recorder poisoned");
        let id = log.spans.len();
        let span = Span {
            name,
            workload: log.workload,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: log.open.last().copied(),
        };
        log.spans.push(span);
        log.open.push(id);
        SpanGuard { spans: self, id }
    }

    /// Durations in microseconds of `workload`'s spans called `name`.
    pub fn durations_us(&self, workload: &str, name: &str) -> Vec<f64> {
        let log = self.log.lock().expect("span recorder poisoned");
        log.spans
            .iter()
            .filter(|s| s.workload == workload && s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// The workload ids that have spans, in first-seen order.
    pub fn workloads(&self) -> Vec<&'static str> {
        let log = self.log.lock().expect("span recorder poisoned");
        let mut ids = Vec::new();
        for s in &log.spans {
            if !ids.contains(&s.workload) {
                ids.push(s.workload);
            }
        }
        ids
    }

    /// One workload's trace file: its spans (id, name, start, end, parent,
    /// workload id) plus per-name totals, where a name's self time is its
    /// spans' duration minus the part their child spans cover.
    pub fn to_json(&self, workload: &str) -> Json {
        let log = self.log.lock().expect("span recorder poisoned");
        let spans = &log.spans;
        let width = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += width(s);
            }
        }
        let mut layers: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        let mut rows = Vec::new();
        for (id, s) in spans.iter().enumerate() {
            if s.workload != workload {
                continue;
            }
            let own = width(s).saturating_sub(child_ns[id]);
            match layers.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += width(s);
                    e.3 += own;
                }
                None => layers.push((s.name, 1, width(s), own)),
            }
            rows.push(Json::obj([
                ("id", id.to_json()),
                ("name", s.name.to_json()),
                ("start_ns", s.start_ns.to_json()),
                ("end_ns", s.end_ns.to_json()),
                ("parent", s.parent.map_or(Json::Null, |p| p.to_json())),
                ("workload", s.workload.to_json()),
            ]));
        }
        Json::obj([
            ("workload", workload.to_json()),
            (
                "layers",
                Json::Arr(
                    layers
                        .iter()
                        .map(|&(name, count, total, own)| {
                            Json::obj([
                                ("name", name.to_json()),
                                ("count", count.to_json()),
                                ("total_ns", total.to_json()),
                                ("self_ns", own.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("spans", Json::Arr(rows)),
        ])
    }
}

/// Median of a sample (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Fastest of `passes` timings of `f`, in seconds per call of `f`.
pub fn best_of(passes: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}
