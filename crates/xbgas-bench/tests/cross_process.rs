//! Simulated cycles are a function of the program, not of where the host
//! put it: the same one-worker run in several processes (each with its own
//! address-space layout) reads the same per-PE cycles.

use std::process::Command;
use xbrtime::{collectives, EngineConfig, Fabric, FabricConfig};

/// Set in the child processes this test spawns of its own binary.
const CHILD: &str = "XBGAS_CROSS_PROCESS_CHILD";

fn engine() -> EngineConfig {
    EngineConfig::coop().with_workers(1).with_seed(7)
}

/// Every collective once on 4 PEs × 100 000 elements, one worker, seed 7:
/// per-PE cycles, one line.
fn cycles() -> String {
    format!(
        "{:?}",
        xbgas_bench::collective_run(engine(), 4, 100_000, false).cycles
    )
}

/// 96 broadcasts of distinct lengths on 8 PEs fill a plan cache that is
/// dropped with its fabric; then every collective once on 8 PEs × 64
/// elements: per-PE cycles, one line. The second fabric's private buffers
/// land wherever the first left the allocator, so the order the cache
/// frees its plans in must not vary by process.
fn cycles_after_a_dropped_plan_cache() -> String {
    let fc = FabricConfig::paper(8)
        .with_shared_bytes(1 << 20)
        .with_engine(engine());
    Fabric::run(fc, |pe| {
        let dest = pe.shared_malloc::<u64>(96);
        let src = vec![3u64; 96];
        for n in 1..=96 {
            collectives::broadcast(pe, &dest, &src, n, 1, 0);
        }
    });
    format!(
        "{:?}",
        xbgas_bench::collective_run(engine(), 8, 64, false).cycles
    )
}

/// In a child, print `line()`; otherwise run this test (`name`) in
/// `processes` children and require one line from all of them.
fn same_in_every_process(name: &str, processes: usize, line: fn() -> String) {
    if std::env::var_os(CHILD).is_some() {
        println!("CYCLES {}", line());
        return;
    }
    let read = || {
        let out = Command::new(std::env::current_exe().expect("test binary path"))
            .args(["--exact", name, "--nocapture"])
            .env(CHILD, "1")
            .output()
            .expect("spawn the test binary");
        assert!(out.status.success(), "child failed: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let line = stdout.lines().find_map(|l| l.strip_prefix("CYCLES "));
        line.expect("child printed its cycles").to_owned()
    };
    let first = read();
    for _ in 1..processes {
        assert_eq!(read(), first, "per-PE cycles differ between processes");
    }
}

#[test]
fn one_worker_cycles_match_across_processes() {
    same_in_every_process("one_worker_cycles_match_across_processes", 2, cycles);
}

#[test]
fn cycles_after_a_dropped_plan_cache_match_across_processes() {
    same_in_every_process(
        "cycles_after_a_dropped_plan_cache_match_across_processes",
        3,
        cycles_after_a_dropped_plan_cache,
    );
}
