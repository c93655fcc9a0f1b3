//! Validate an exported Perfetto/Chrome trace-event file.
//!
//! CI runs `ablation --trace trace.json` and then this
//! checker, which enforces the invariants the exporter promises:
//!
//! 1. the file is well-formed JSON with a `traceEvents` array;
//! 2. every event carries the fields its phase requires (`X` slices:
//!    `pid`/`tid`/`ts`/`dur`/`name`; flows: `id` and `ts`);
//! 3. slice timestamps are non-negative and monotone non-decreasing
//!    per track (the per-`(pid, tid)` emission order the exporter sorts
//!    into), with non-negative durations;
//! 4. flow arrows pair up: every flow id has exactly one start (`s`)
//!    and one finish (`f`), the finish does not precede the start, and
//!    both endpoints land on tracks that actually have slices.
//!
//! Exit status 0 means the trace is loadable and consistent; any
//! violation prints a diagnostic and exits 1.

use std::collections::HashMap;
use std::process::ExitCode;

use xbgas_bench::json::{self, Json};

struct Flow {
    starts: Vec<(i128, i128)>, // (tid, ts)
    finishes: Vec<(i128, i128)>,
}

fn check(doc: &Json) -> Result<String, String> {
    let events = doc
        .get("traceEvents")
        .ok_or("missing `traceEvents` member")?
        .as_arr()
        .ok_or("`traceEvents` is not an array")?;

    let mut slices = 0usize;
    let mut last_ts: HashMap<(i128, i128), i128> = HashMap::new();
    let mut flows: HashMap<i128, Flow> = HashMap::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        let field = |name: &str| {
            ev.get(name)
                .and_then(Json::as_int)
                .ok_or_else(|| format!("event {i} (ph `{ph}`): missing integer `{name}`"))
        };
        match ph {
            "M" => {} // metadata: thread names / sort indices
            "X" => {
                let (pid, tid) = (field("pid")?, field("tid")?);
                let (ts, dur) = (field("ts")?, field("dur")?);
                if ev.get("name").and_then(Json::as_str).is_none() {
                    return Err(format!("event {i}: slice without a `name`"));
                }
                if ts < 0 || dur < 0 {
                    return Err(format!("event {i}: negative ts/dur ({ts}/{dur})"));
                }
                let prev = last_ts.entry((pid, tid)).or_insert(ts);
                if ts < *prev {
                    return Err(format!(
                        "event {i}: track ({pid},{tid}) ts regresses {prev} -> {ts}"
                    ));
                }
                *prev = ts;
                slices += 1;
            }
            "s" | "f" => {
                let id = field("id")?;
                let (tid, ts) = (field("tid")?, field("ts")?);
                let flow = flows.entry(id).or_insert(Flow {
                    starts: Vec::new(),
                    finishes: Vec::new(),
                });
                if ph == "s" {
                    flow.starts.push((tid, ts));
                } else {
                    flow.finishes.push((tid, ts));
                }
            }
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }

    for (id, flow) in &flows {
        if flow.starts.len() != 1 || flow.finishes.len() != 1 {
            return Err(format!(
                "flow {id}: {} start(s) and {} finish(es), want exactly one of each",
                flow.starts.len(),
                flow.finishes.len()
            ));
        }
        let (s_tid, s_ts) = flow.starts[0];
        let (f_tid, f_ts) = flow.finishes[0];
        if f_ts < s_ts {
            return Err(format!(
                "flow {id}: finish at {f_ts} precedes start at {s_ts}"
            ));
        }
        for (end, tid) in [("start", s_tid), ("finish", f_tid)] {
            if !last_ts.keys().any(|&(_, t)| t == tid) {
                return Err(format!(
                    "flow {id}: {end} on track {tid}, which has no slices"
                ));
            }
        }
    }

    Ok(format!(
        "{} slices on {} tracks, {} flow arrows",
        slices,
        last_ts.len(),
        flows.len()
    ))
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check <trace.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("trace_check: {path} is not well-formed JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&doc) {
        Ok(summary) => {
            println!("trace_check: {path} OK ({summary})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_check: {path} INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}
