//! Figure 4 reproduction: GUPs performance for 1/2/4/8 PEs.
//!
//! Prints total and per-PE MOPS (the two series of the paper's Figure 4)
//! from simulated cycles under the paper-calibrated cost model. Pass
//! `--json` for machine-readable output, `--quick` for a quarter-scale run,
//! `--trace <out.json>` to additionally run the 8-PE configuration with
//! event tracing on and export a Perfetto timeline of it.

use xbgas_bench::{export_trace, render_rows, run_fig4, run_fig4_traced, trace_arg};
use xbrtime::EngineConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let engine = EngineConfig::default();
    let scale = if args.iter().any(|a| a == "--quick") {
        2
    } else {
        0
    };

    if let Some(path) = trace_arg(&args) {
        // Traced runs always use the quarter-scale configuration: the
        // point is the event timeline of the collective tail, not the
        // MOPS numbers (which the untraced sweep below reports).
        let report = run_fig4_traced(engine, 8, scale.max(2));
        export_trace(path, report.trace.as_ref().expect("traced run"));
    }

    let rows = run_fig4(engine, &[1, 2, 4, 8], scale);
    if json {
        println!("{}", xbgas_bench::json::to_string_pretty(&rows));
    } else {
        print!(
            "{}",
            render_rows("Figure 4 — GUPs Performance (simulated)", "MOPS", &rows)
        );
        let peak = rows
            .iter()
            .max_by(|a, b| a.per_pe_mops.total_cmp(&b.per_pe_mops))
            .unwrap();
        println!(
            "\npeak per-PE performance: {:.2} MOPS at {} PEs \
             (paper: 2.35 MOPS at 2 PEs — absolute values are testbed-specific;\n\
             the reproduced shape is per-PE > baseline at 2 and 4 PEs, drop at 8)",
            peak.per_pe_mops, peak.n_pes
        );
    }
}
