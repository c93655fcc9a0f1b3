//! Simulated cycles are a function of the program, not of where the host
//! put it: the same one-worker run in two processes (each with its own
//! address-space layout) reads the same per-PE cycles.

use std::process::Command;
use xbrtime::EngineConfig;

/// Set in the child processes this test spawns of its own binary.
const CHILD: &str = "XBGAS_CROSS_PROCESS_CHILD";

/// Every collective once on 4 PEs × 100 000 elements, one worker, seed 7:
/// per-PE cycles, one line.
fn cycles() -> String {
    let engine = EngineConfig::coop().with_workers(1).with_seed(7);
    format!(
        "{:?}",
        xbgas_bench::collective_run(engine, 4, 100_000, false).cycles
    )
}

#[test]
fn one_worker_cycles_match_across_processes() {
    if std::env::var_os(CHILD).is_some() {
        println!("CYCLES {}", cycles());
        return;
    }
    let read = || {
        let out = Command::new(std::env::current_exe().expect("test binary path"))
            .args([
                "--exact",
                "one_worker_cycles_match_across_processes",
                "--nocapture",
            ])
            .env(CHILD, "1")
            .output()
            .expect("spawn the test binary");
        assert!(out.status.success(), "child failed: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let line = stdout.lines().find_map(|l| l.strip_prefix("CYCLES "));
        line.expect("child printed its cycles").to_owned()
    };
    let (a, b) = (read(), read());
    assert_eq!(a, b, "per-PE cycles differ between two processes");
}
