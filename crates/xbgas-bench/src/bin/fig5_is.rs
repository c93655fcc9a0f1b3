//! Figure 5 reproduction: NAS Integer Sort performance for 1/2/4/8 PEs.
//!
//! Runs the scaled class-B configuration (see EXPERIMENTS.md) with full
//! verification enabled, as the paper does, and prints total and per-PE
//! MOPS. Pass `--json` for machine-readable output, `--quick` to halve the
//! iteration count, `--trace <out.json>` to additionally run the 8-PE
//! configuration traced and export a Perfetto timeline.

use xbgas_apps::IsClass;
use xbgas_bench::{export_trace, flag_or_exit, render_rows, run_fig5, run_fig5_traced, trace_arg};
use xbrtime::EngineConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let engine = EngineConfig::default();
    let scale = if args.iter().any(|a| a == "--quick") {
        1
    } else {
        0
    };
    // Optional NPB class override: --class s|w|a|b (default: the scaled
    // class-B substitute described in EXPERIMENTS.md). Full class B takes
    // ~15 s of host time for all four PE counts; S/W are quick.
    let class = flag_or_exit(&args, "--class").map(|c| match c.to_ascii_lowercase().as_str() {
        "s" => IsClass::S,
        "w" => IsClass::W,
        "a" => IsClass::A,
        "b" => IsClass::B,
        other => panic!("unknown class `{other}` (expected s|w|a|b)"),
    });

    if let Some(path) = trace_arg(&args) {
        // Traced IS runs use class S and one iteration regardless of the
        // requested scale: full-class traces are enormous and the ring
        // would wrap long before the timed region of interest.
        let report = run_fig5_traced(engine, 8, 10, class.or(Some(IsClass::S)));
        export_trace(path, report.trace.as_ref().expect("traced run"));
    }

    let rows = run_fig5(engine, &[1, 2, 4, 8], scale, class);
    if json {
        println!("{}", xbgas_bench::json::to_string_pretty(&rows));
    } else {
        print!(
            "{}",
            render_rows(
                "Figure 5 — Integer Sort Performance (simulated, verified)",
                "MOPS",
                &rows
            )
        );
        let drop = 1.0 - rows[3].per_pe_mops / rows[2].per_pe_mops;
        println!(
            "\nper-PE drop at 8 PEs vs 4 PEs: {:.0}% (paper: \"drops by about 25%\")",
            drop * 100.0
        );
    }
}
