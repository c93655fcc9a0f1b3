//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Loop unrolling** (paper §3.3): per-element overhead of bulk
//!    transfers with and without the unrolled fast path.
//! 2. **All-reduce composition** (paper §4.7/§7): reduce-then-broadcast —
//!    the paper's prescription — vs a direct recursive-doubling butterfly.
//! 3. **Per-stage barriers**: the barrier cost share of a broadcast, by
//!    comparing against the same tree's pure transfer cycles.
//! 4. **Executor sync modes**: the per-stage barrier discipline vs the
//!    point-to-point signal plane (signaled / segmented-pipelined), with
//!    the executor's signal/wait/overlap telemetry per mode.
//!
//! Pass `--backend {threads,coop}` to pick the execution engine.

use xbgas_bench::{
    ablation_allreduce, ablation_gups_amo, ablation_sync_modes, ablation_topology, ablation_unroll,
    backend_arg, collective_run, export_trace, sweep_broadcast, trace_arg,
};
use xbrtime::collectives::AllReduceAlgo;
use xbrtime::{AlgorithmPolicy, SyncMode};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let engine = backend_arg(&args);
    println!("# Ablation 1 — transfer loop unrolling (remote put of N u64)");
    println!(
        "{:>9} {:>14} {:>14} {:>8}",
        "elems", "rolled (cyc)", "unrolled (cyc)", "speedup"
    );
    for nelems in [8usize, 64, 512, 4096, 32768] {
        let rolled = ablation_unroll(engine, usize::MAX, nelems);
        let unrolled = ablation_unroll(engine, 8, nelems);
        println!(
            "{:>9} {:>14} {:>14} {:>8.2}",
            nelems,
            rolled,
            unrolled,
            rolled as f64 / unrolled as f64
        );
    }

    println!("\n# Ablation 2 — all-reduce strategy (sum of N u64, makespan cycles)");
    println!(
        "{:>5} {:>9} {:>18} {:>18}",
        "PEs", "elems", "reduce+broadcast", "recursive-doubling"
    );
    for n in [2usize, 4, 8] {
        for nelems in [16usize, 1024, 16384] {
            let a = ablation_allreduce(engine, AllReduceAlgo::ReduceThenBroadcast, n, nelems);
            let b = ablation_allreduce(engine, AllReduceAlgo::RecursiveDoubling, n, nelems);
            println!("{n:>5} {nelems:>9} {a:>18} {b:>18}");
        }
    }

    println!("\n# Ablation 3 — topology-aware hierarchical broadcast (8192 u64,");
    println!("#   intra-node links 4x cheaper; §7 'location aware' future work)");
    println!(
        "{:>6} {:>10} {:>14} {:>12} {:>8}",
        "PEs", "node size", "hierarchical", "flat tree", "speedup"
    );
    for (n, k) in [(8usize, 4usize), (8, 2), (12, 3), (12, 4), (12, 6)] {
        let (hier, flat) = ablation_topology(engine, n, k, 8192);
        println!(
            "{:>6} {:>10} {:>14} {:>12} {:>8.2}",
            n,
            k,
            hier,
            flat,
            flat as f64 / hier as f64
        );
    }

    println!("\n# Ablation 4 — GUPs remote-update strategy (2^16 updates, verified)");
    println!(
        "{:>5} {:>16} {:>12} {:>10} {:>10}",
        "PEs", "get+put (cyc)", "amo (cyc)", "g/p errs", "amo errs"
    );
    for n in [2usize, 4, 8] {
        let (gp, amo, gp_err, amo_err) = ablation_gups_amo(engine, n);
        println!("{n:>5} {gp:>16} {amo:>12} {gp_err:>10} {amo_err:>10}");
    }

    println!("\n# Ablation 5 — binomial broadcast scaling in PEs (4096 u64)");
    println!("{:>5} {:>12} {:>12}", "PEs", "tree (cyc)", "linear (cyc)");
    for n in [2usize, 4, 8, 12] {
        let run = |policy| sweep_broadcast(engine, policy, SyncMode::Barrier, false, n, 4096);
        let t = run(AlgorithmPolicy::Binomial);
        let l = run(AlgorithmPolicy::Linear);
        println!("{n:>5} {t:>12} {l:>12}");
    }

    println!("\n# Ablation 6 — executor sync modes (binomial broadcast, warmed call;");
    println!("#   signals/waits/stall cycles aggregated across PEs; overlap =");
    println!("#   1 - wait_cycles/executor_cycles)");
    for (n, nelems) in [(8usize, 256usize), (8, 65536)] {
        println!(
            "{:>5} {:>9} {:>10} {:>12} {:>8} {:>7} {:>12} {:>8}",
            "PEs", "elems", "mode", "makespan", "signals", "waits", "wait cycles", "overlap"
        );
        for row in ablation_sync_modes(engine, n, nelems) {
            println!(
                "{:>5} {:>9} {:>10} {:>12} {:>8} {:>7} {:>12} {:>8.3}",
                n,
                nelems,
                row.sync.name(),
                row.makespan,
                row.signals,
                row.waits,
                row.wait_cycles,
                row.overlap_ratio
            );
        }
    }

    println!("\n# Per-collective executor telemetry (8 PEs, 1024 u64 each,");
    println!("#   one call per collective; counts aggregated across PEs)");
    println!(
        "{:>11} {:>6} {:>7} {:>7} {:>11} {:>11} {:>7} {:>12}",
        "collective", "calls", "puts", "gets", "bytes put", "bytes got", "stages", "cycles"
    );
    // The telemetry workload runs with the tracing plane on: the same run
    // feeds the table above, the event timeline below, and (with
    // `--trace <out.json>`) the exported Perfetto file.
    let report = collective_run(engine, 8, 1024, true);
    for rec in &report.collectives {
        println!(
            "{:>11} {:>6} {:>7} {:>7} {:>11} {:>11} {:>7} {:>12}",
            rec.kind.name(),
            rec.calls,
            rec.puts,
            rec.gets,
            rec.bytes_put,
            rec.bytes_get,
            rec.stages,
            rec.cycles
        );
    }

    let trace = report.trace.as_ref().expect("traced run");
    println!("\n# Event timeline of the telemetry run (cycle-stamped trace,");
    println!("#   first events + per-collective critical paths)");
    print!("{}", trace.text_timeline(40));
    if let Some(path) = trace_arg(&args) {
        export_trace(&path, trace);
    }
}
