//! The repo benchmark: eight pinned, best-of-reps workloads, each reporting
//! simulated cycles (the modelled xBGAS machine) and host time (how fast
//! this repository runs it), plus per-layer metrics from a traced pass.
//!
//! ```text
//! perfbench --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of stdout is the result
//!     as one JSON object (the contract of BENCHMARK.json's `command`)
//! perfbench [--seed <u64>] [--seconds <s>] [--trace] [--quick]
//!     every workload, each in its own child process, as one table
//! perfbench --check [--seed <u64>] [--seconds <s>]
//!     the suite twice in alternation (A/A); exits non-zero when an
//!     end-to-end metric differs by more than its bound
//! ```
//!
//! README.md beside this crate documents metrics, workloads and protocol.

mod host;
mod measure;
mod probes;
mod workloads;

use std::process::{Command, ExitCode};

use xbgas_bench::json::{self, Json, ToJson};

use host::Env;
use measure::{fastest_setup, Budget, Ctx, Spans, Summary};
use workloads::{Metric, Workload, ALL};

/// Most reps a workload takes in the traced pass (fewer if its `min_reps`
/// is lower): the pass is shorter than a timed one.
const TRACED_REPS: usize = 12;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    check: bool,
    quick: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench [--workload <name>] [--seed <u64>] [--seconds <s>] \
         [--trace [0|1]] [--check] [--quick]"
    );
    eprintln!(
        "workloads: {}",
        ALL.iter().map(|w| w.name).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        check: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} expects {what}")))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")),
            "--seed" => {
                args.seed = value("a u64")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed expects a u64"))
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds expects a number"));
                if !(s > 0.0 && s <= 60.0) {
                    usage("--seconds must be in (0, 60]");
                }
                args.seconds = Some(s);
            }
            // Bare `--trace` turns the traced pass on; the driver's form
            // carries an explicit 0 or 1.
            "--trace" => {
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--check" => args.check = true,
            "--quick" => args.quick = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &args.workload {
        if !ALL.iter().any(|w| w.name == name) {
            usage(&format!("unknown workload `{name}`"));
        }
    }
    args
}

/// `BENCHMARK.json` of the checkout the benchmark runs from: the one place
/// metric names, units and bounds are written down.
fn manifest() -> Json {
    let text = std::fs::read_to_string("BENCHMARK.json").unwrap_or_else(|e| {
        usage(&format!(
            "run from the repository root: BENCHMARK.json: {e}"
        ))
    });
    json::parse(&text).unwrap_or_else(|e| usage(&format!("BENCHMARK.json: {e}")))
}

fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// Serialise on one line (the pretty form's lines, joined: newlines inside
/// strings are escaped, so every line break is layout).
fn one_line(j: &Json) -> String {
    j.pretty().lines().map(str::trim_start).collect()
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.clone(),
                    Json::obj([("value", value.to_json()), ("unit", m.unit.to_json())]),
                )
            })
            .collect(),
    )
}

fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", (failed == 0).to_json()),
        ("attempted", attempted.max(1).to_json()),
        ("failed", failed.to_json()),
        ("metrics", metrics_json(metrics)),
    ])
}

fn print_metric(m: &Metric, note: &str) {
    println!("{:<36} {:>16.6} {:<8} {note}", m.name, m.value, m.unit);
}

/// The untraced pass of one workload: the end-to-end metrics.
fn measure_workload(w: &Workload, args: &Args, seconds: f64) -> ExitCode {
    let env = Env::capture_and_pin(args.seed);
    println!("{}", env.render());
    let calib_before = host::calib_ns();
    let ctx = Ctx {
        seed: args.seed,
        quick: args.quick,
        spans: None,
    };
    let setup_before = fastest_setup(args.quick, || (w.setup)(&ctx));
    let budget = if args.quick {
        Budget::fixed(2)
    } else {
        Budget::timed(seconds, w.min_reps, usize::MAX)
    };
    let reps = (w.run)(&ctx, &budget, &mut Vec::new());
    let s = Summary::of(&reps, w.min_reps);
    let setup_s = setup_before.min(fastest_setup(args.quick, || (w.setup)(&ctx)));
    let calib_after = host::calib_ns();

    let metrics = [
        Metric::new("host_ops_per_s", s.best_ops_per_s, "1/s"),
        Metric::new("sim_cycles_per_op", s.sim_cycles_per_op, "cycles"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ];
    println!(
        "# workload {} [op = {}]: {} reps x {} ops",
        w.name, w.op, s.reps, s.ops_per_rep
    );
    print_metric(
        &metrics[0],
        &format!(
            "fastest rep (median {:.6}, p90 {:.6})",
            s.median_ops_per_s, s.p90_ops_per_s
        ),
    );
    print_metric(
        &metrics[1],
        &if s.sim_identical {
            "identical across reps (cost model unvalidated: no reference in the repo)".to_string()
        } else {
            format!(
                "first {} reps together; they spread {:.3e} of their median",
                w.min_reps.min(s.reps),
                s.sim_spread
            )
        },
    );
    print_metric(&metrics[2], "fastest fresh set-up");
    print_metric(&metrics[3], "VmHWM of this process");
    print_metric(
        &Metric::new("fail_frac", s.failed as f64 / s.attempted as f64, "ratio"),
        &format!(
            "{} of {} ops failed their output check",
            s.failed, s.attempted
        ),
    );
    println!(
        "{:<36} {calib_before:>16.1} ns       before; {calib_after:.1} after (detail only)",
        "host.calib_ns"
    );
    // What `--check`'s determinism report reads beside the result line.
    let detail = Json::obj([
        ("sim_identical", s.sim_identical.to_json()),
        ("sim_spread", s.sim_spread.to_json()),
    ]);
    println!("#detail {}", one_line(&detail));
    println!(
        "{}",
        one_line(&result_json(s.attempted, s.failed, &metrics))
    );
    ExitCode::SUCCESS
}

/// The traced pass: every workload for up to [`TRACED_REPS`] reps under harness
/// spans (and the program's own tracing plane where a metric needs it),
/// then the layer probes. It is the same whichever workload the caller
/// named, because every run must report every per-layer metric.
fn trace_layers(args: &Args) -> ExitCode {
    let env = Env::capture_and_pin(args.seed);
    println!("{}", env.render());
    let ctx = Ctx {
        seed: args.seed,
        quick: args.quick,
        spans: Some(Spans::new()),
    };
    let spans = ctx.spans.as_ref().expect("traced pass records spans");
    let mut layers = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for w in &ALL {
        spans.set_workload(w.name);
        let reps = if args.quick {
            1
        } else {
            w.min_reps.min(TRACED_REPS)
        };
        let s = {
            let _span = ctx.span("workload");
            Summary::of(&(w.run)(&ctx, &Budget::fixed(reps), &mut layers), reps)
        };
        attempted += s.attempted;
        failed += s.failed;
    }
    spans.set_workload("probes");
    layers.extend(probes::run_all(&ctx));
    layers.sort_by(|a, b| a.name.cmp(&b.name));

    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("perfbench: cannot create {out_dir}: {e}");
    }
    for id in spans.workloads() {
        let path = format!("{out_dir}/trace-{id}.json");
        if let Err(e) = std::fs::write(&path, spans.to_json(id).pretty()) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }

    println!("# per-layer metrics (up to {TRACED_REPS} traced reps per workload, then probes)");
    for m in &layers {
        print_metric(m, "");
    }
    let listed = manifest();
    let missing: Vec<&str> = listed
        .get("per_layer")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name")?.as_str())
        .filter(|name| !layers.iter().any(|m| m.name == *name))
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "perfbench: per-layer metrics listed in BENCHMARK.json but not measured: {missing:?}"
        );
        return ExitCode::FAILURE;
    }
    println!("{}", one_line(&result_json(attempted, failed, &layers)));
    ExitCode::SUCCESS
}

/// What a child run reported: its result line and its detail line.
struct ChildResult {
    result: Json,
    detail: Option<Json>,
}

impl ChildResult {
    fn count(&self, key: &str) -> u64 {
        self.result.get(key).and_then(number).unwrap_or(0.0) as u64
    }

    fn metric(&self, name: &str) -> Option<f64> {
        number(self.result.get("metrics")?.get(name)?.get("value")?)
    }

    fn fail_frac(&self) -> f64 {
        self.count("failed") as f64 / self.count("attempted").max(1) as f64
    }

    fn sim_identical(&self) -> bool {
        matches!(
            self.detail.as_ref().and_then(|d| d.get("sim_identical")),
            Some(Json::Bool(true))
        )
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload pass in a child process of its own (so `peak_rss_mb`
/// is that workload's alone), echo its report, parse its result line.
fn run_child(workload: &str, args: &Args, seconds: f64, trace: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end before returning.
    let output = cmd.stderr(std::process::Stdio::inherit()).output().ok()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    let mut last = "";
    for line in text.lines() {
        if let Some(d) = line.strip_prefix("#detail ") {
            detail = json::parse(d).ok();
        } else {
            if !last.is_empty() {
                println!("{last}");
            }
            last = line;
        }
    }
    if !output.status.success() {
        eprintln!("perfbench: {workload} exited with {}", output.status);
        return None;
    }
    let result = json::parse(last).ok()?;
    result.get("metrics")?;
    Some(ChildResult { result, detail })
}

fn default_seconds(args: &Args) -> f64 {
    args.seconds
        .or_else(|| number(manifest().get("run_seconds")?))
        .unwrap_or(5.0)
}

/// Every workload in its own child, then (with `--trace`) the traced pass
/// in one more.
fn run_suite(args: &Args) -> ExitCode {
    let seconds = default_seconds(args);
    let mut rows = Vec::new();
    let mut ok = true;
    for w in &ALL {
        println!("## {}", w.name);
        match run_child(w.name, args, seconds, false) {
            Some(r) => rows.push((w.name, r)),
            None => ok = false,
        }
    }
    if args.trace {
        println!("## traced pass");
        ok &= run_child(ALL[0].name, args, seconds, true).is_some_and(|r| r.count("failed") == 0);
    }
    println!("## summary (seed {})", args.seed);
    println!(
        "{:<12} {:>16} {:>20} {:>10} {:>12} {:>10}",
        "workload", "host_ops_per_s", "sim_cycles_per_op", "setup_s", "peak_rss_mb", "fail_frac"
    );
    for (name, r) in &rows {
        let v = |m: &str| r.metric(m).unwrap_or(0.0);
        println!(
            "{name:<12} {:>16.1} {:>20.6} {:>10.6} {:>12.2} {:>10}",
            v("host_ops_per_s"),
            v("sim_cycles_per_op"),
            v("setup_s"),
            v("peak_rss_mb"),
            r.fail_frac()
        );
        ok &= r.count("failed") == 0;
    }
    exit_code(ok)
}

/// A/A: the suite twice in alternation. Prints both sets as a markdown
/// table, the determinism report, and fails when any end-to-end metric of
/// the two sets differs by more than the bound `BENCHMARK.json` gives it.
fn run_check(args: &Args) -> ExitCode {
    let seconds = default_seconds(args);
    let listed = manifest();
    let bounds: Vec<(String, f64)> = listed
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                number(m.get("bound")?)?,
            ))
        })
        .collect();
    let mut pairs = Vec::new();
    for w in &ALL {
        println!("## {} (A, then B)", w.name);
        let a = run_child(w.name, args, seconds, false);
        let b = run_child(w.name, args, seconds, false);
        match (a, b) {
            (Some(a), Some(b)) => pairs.push((w.name, a, b)),
            _ => return ExitCode::FAILURE,
        }
    }

    let mut ok = true;
    println!("\n# A/A check: seed {}, {seconds} s per run\n", args.seed);
    println!("| workload | metric | A | B | differ by | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for (name, a, b) in &pairs {
        for (metric, bound) in &bounds {
            let (Some(va), Some(vb)) = (a.metric(metric), b.metric(metric)) else {
                println!("| {name} | {metric} | missing | missing | | {bound} | FAIL |");
                ok = false;
                continue;
            };
            let diff = (va - vb).abs() / va.abs().min(vb.abs()).max(f64::MIN_POSITIVE);
            let pass = diff <= *bound;
            ok &= pass;
            println!(
                "| {name} | {metric} | {va} | {vb} | {:.4} % | {:.1} % | {} |",
                diff * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
        let failed = a.count("failed") + b.count("failed");
        ok &= failed == 0;
        println!(
            "| {name} | fail_frac | {} | {} | | 0 | {} |",
            a.fail_frac(),
            b.fail_frac(),
            if failed == 0 { "ok" } else { "FAIL" }
        );
    }

    println!("\n## Determinism of `sim_cycles_per_op` at this seed\n");
    println!("| workload | identical across reps (A, B) | identical across sets |");
    println!("|---|---|---|");
    for (name, a, b) in &pairs {
        println!(
            "| {name} | {}, {} | {} |",
            a.sim_identical(),
            b.sim_identical(),
            a.metric("sim_cycles_per_op") == b.metric("sim_cycles_per_op")
        );
    }
    println!(
        "\nverdict: {}",
        if ok { "within bounds" } else { "OUT OF BOUNDS" }
    );
    exit_code(ok)
}

fn main() -> ExitCode {
    let args = parse_args();
    host::steady_malloc();
    if args.check {
        return run_check(&args);
    }
    match &args.workload {
        None => run_suite(&args),
        Some(_) if args.trace => trace_layers(&args),
        Some(name) => {
            let w = ALL
                .iter()
                .find(|w| w.name == name)
                .expect("validated by parse_args");
            measure_workload(w, &args, default_seconds(&args))
        }
    }
}
