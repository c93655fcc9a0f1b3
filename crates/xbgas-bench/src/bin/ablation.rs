//! Ablations for the design choices DESIGN.md calls out, and the §4.7
//! algorithm × size × PE-count comparison grid the `policy.rs` crossover
//! constants are calibrated from:
//!
//! 1. **Loop unrolling** (paper §3.3): per-element overhead of bulk
//!    transfers with and without the unrolled fast path.
//! 2. **All-reduce family** (paper §4.7/§7): reduce-then-broadcast — the
//!    paper's prescription — vs recursive doubling, Rabenseifner and
//!    ring, plus what `AllReduceAlgo::Auto` picks.
//! 3. **Topology awareness**: hierarchical vs flat broadcast.
//! 4. **Remote atomics**: GUPs get/xor/put vs one fetch-xor.
//! 5. **Rooted collectives** (§4.7): broadcast, reduce, scatter and
//!    gather under binomial / linear / ring, one cold call under
//!    per-stage barriers as an application would issue it.
//! 6. **Executor sync modes**: the per-stage barrier discipline vs the
//!    point-to-point signal plane (signaled / segmented-pipelined), with
//!    the executor's signal/wait/overlap telemetry per mode, then the
//!    barrier / signaled / pipelined / auto makespan grid.
//! 7. **All-gather**: one-stage n² fan vs ring vs log-stage
//!    dissemination.
//!
//! Every grid cell is one run; each grid ends with its crossover lines
//! (the winning arm per PE count and the payload from which it changes).
//! Output is plain text on stdout; nothing is written to disk unless
//! `--trace <out.json>` asks for the telemetry run's Perfetto timeline.

use xbgas_bench::{
    ablation_gups_amo, ablation_topology, ablation_unroll, collective_run, export_trace, measure,
    trace_arg, Cell, GRID_PES as PES, GRID_SIZES as SIZES,
};
use xbrtime::collectives::CallKind::{AllGather, AllReduce, Broadcast, Gather, Reduce, Scatter};
use xbrtime::collectives::{AllGatherVAlgo, AllReduceAlgo};
use xbrtime::AlgorithmPolicy::{self, Auto, Binomial};
use xbrtime::{EngineConfig, SyncMode};

/// Every run's engine: auto-sized worker slots.
const ENGINE: EngineConfig = EngineConfig::coop();

const TREE_LINEAR: [(&str, AlgorithmPolicy); 2] = [
    ("binomial", AlgorithmPolicy::Binomial),
    ("linear", AlgorithmPolicy::Linear),
];
const TREE_LINEAR_RING: [(&str, AlgorithmPolicy); 3] = [
    TREE_LINEAR[0],
    TREE_LINEAR[1],
    ("ring", AlgorithmPolicy::Ring),
];

/// Every `(PEs, size)` pair, PE-count-major — the row order [`grid`]'s
/// crossover lines rely on.
fn cells(pes: &[usize], sizes: &[usize]) -> Vec<(usize, usize)> {
    pes.iter()
        .flat_map(|&n| sizes.iter().map(move |&sz| (n, sz)))
        .collect()
}

/// Print one grid table — a row per cell with one simulated-makespan
/// column per arm and the fastest concrete arm (an arm named `auto` shows
/// what the policy picks, it does not compete; `tie` when the concrete
/// arms all measure the same) — followed by the crossover lines: per PE
/// count, the winner at the smallest size and every payload (bytes of
/// `size`) from which the winner changes. `at(arm, n, size)` is the cell
/// an arm measures in a row.
fn grid<A: Copy>(
    title: &str,
    size_hdr: &str,
    arms: &[(&str, A)],
    cells: &[(usize, usize)],
    at: impl Fn(A, usize, usize) -> Cell,
) {
    println!("\n# {title}");
    print!("{:>5} {size_hdr:>9}", "PEs");
    for (name, _) in arms {
        print!(" {name:>18}");
    }
    println!("  winner");
    let mut crossovers = String::new();
    let mut last = None;
    for &(n, sz) in cells {
        print!("{n:>5} {sz:>9}");
        let (mut best, mut worst) = (("", u64::MAX), 0);
        for &(name, a) in arms {
            let cycles = measure(ENGINE, &at(a, n, sz)).0;
            print!(" {cycles:>18}");
            if name != "auto" {
                worst = worst.max(cycles);
                if cycles < best.1 {
                    best = (name, cycles);
                }
            }
        }
        // At 2 PEs the rooted shapes all degenerate to one transfer.
        if best.1 == worst {
            best.0 = "tie";
        }
        println!("  {}", best.0);
        match last {
            Some((ln, lw)) if ln == n && lw == best.0 => {}
            Some((ln, _)) if ln == n => {
                crossovers += &format!(", {} from {} B", best.0, sz * 8);
            }
            _ => crossovers += &format!("\n#   {n} PEs: {}", best.0),
        }
        last = Some((n, best.0));
    }
    println!("# crossovers (winner by payload):{crossovers}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_path = trace_arg(&args);
    println!("# Ablation 1 — transfer loop unrolling (remote put of N u64)");
    println!(
        "{:>9} {:>14} {:>14} {:>8}",
        "elems", "rolled (cyc)", "unrolled (cyc)", "speedup"
    );
    for nelems in [8usize, 64, 512, 4096, 32768] {
        let rolled = ablation_unroll(ENGINE, usize::MAX, nelems);
        let unrolled = ablation_unroll(ENGINE, 8, nelems);
        println!(
            "{:>9} {:>14} {:>14} {:>8.2}",
            nelems,
            rolled,
            unrolled,
            rolled as f64 / unrolled as f64
        );
    }

    let family: Vec<_> = AllReduceAlgo::CONCRETE
        .into_iter()
        .chain([AllReduceAlgo::Auto])
        .map(|a| (a.name(), a))
        .collect();
    grid(
        "Ablation 2 — all-reduce family (sum of N u64, warmed call, SyncMode::Auto)",
        "elems",
        &family,
        &cells(&PES, &[16, 256, 1024, 8192, 65536]),
        |algo, n, sz| Cell::new(AllReduce(algo), SyncMode::Auto, n, sz, true),
    );

    println!("\n# Ablation 3 — topology-aware hierarchical broadcast (8192 u64,");
    println!("#   intra-node links 4x cheaper; §7 'location aware' future work)");
    println!(
        "{:>6} {:>10} {:>14} {:>12} {:>8}",
        "PEs", "node size", "hierarchical", "flat tree", "speedup"
    );
    for (n, k) in [(8usize, 4usize), (8, 2), (12, 3), (12, 4), (12, 6)] {
        let (hier, flat) = ablation_topology(ENGINE, n, k, 8192);
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
        let (gp, amo, gp_err, amo_err) = ablation_gups_amo(ENGINE, n);
        println!("{n:>5} {gp:>16} {amo:>12} {gp_err:>10} {amo_err:>10}");
    }

    let barrier = SyncMode::Barrier;
    grid(
        "Ablation 5 — rooted collectives, §4.7 (cold call, per-stage barriers): broadcast",
        "elems",
        &TREE_LINEAR_RING,
        &cells(&PES, &SIZES),
        |policy, n, sz| Cell::new(Broadcast(policy), barrier, n, sz, false),
    );
    // Reduce has no ring shape (`Ring` falls back to linear).
    grid(
        "Ablation 5 — reduce (sum)",
        "elems",
        &TREE_LINEAR,
        &cells(&PES, &SIZES),
        |policy, n, sz| Cell::new(Reduce(policy), barrier, n, sz, false),
    );
    let per_pe = cells(&PES, &[16, 1024, 8192]);
    grid(
        "Ablation 5 — scatter (uniform counts)",
        "elems/PE",
        &TREE_LINEAR_RING,
        &per_pe,
        |policy, n, sz| Cell::new(Scatter(policy), barrier, n, sz, false),
    );
    grid(
        "Ablation 5 — gather (uniform counts)",
        "elems/PE",
        &TREE_LINEAR_RING,
        &per_pe,
        |policy, n, sz| Cell::new(Gather(policy), barrier, n, sz, false),
    );

    println!("\n# Ablation 6 — executor sync modes (binomial broadcast, warmed call;");
    println!("#   signals/waits/stall cycles aggregated across PEs; overlap =");
    println!("#   1 - wait_cycles/executor_cycles)");
    let syncs = [
        SyncMode::Barrier,
        SyncMode::Signaled,
        SyncMode::Pipelined,
        SyncMode::Auto,
    ];
    for (n, nelems) in [(8usize, 256usize), (8, 65536)] {
        println!(
            "{:>5} {:>9} {:>10} {:>12} {:>8} {:>7} {:>12} {:>8}",
            "PEs", "elems", "mode", "makespan", "signals", "waits", "wait cycles", "overlap"
        );
        for sync in syncs {
            let tree = Broadcast(Binomial);
            let (makespan, rec) = measure(ENGINE, &Cell::new(tree, sync, n, nelems, true));
            let rec = rec.unwrap_or_default();
            println!(
                "{:>5} {:>9} {:>10} {:>12} {:>8} {:>7} {:>12} {:>8.3}",
                n,
                nelems,
                sync.name(),
                makespan,
                rec.signals,
                rec.waits,
                rec.wait_cycles,
                rec.overlap_ratio()
            );
        }
    }
    let syncs = syncs.map(|s| (s.name(), s));
    grid(
        "Ablation 6 — sync-mode makespans (warmed call): broadcast, AlgorithmPolicy::Auto",
        "elems",
        &syncs,
        &cells(&PES, &SIZES),
        |sync, n, sz| Cell::new(Broadcast(Auto), sync, n, sz, true),
    );
    grid(
        "Ablation 6 — sync-mode makespans (warmed call): binomial reduce",
        "elems",
        &syncs,
        &cells(&PES, &[256, 65536]),
        |sync, n, sz| Cell::new(Reduce(Binomial), sync, n, sz, true),
    );

    let gathers: Vec<_> = AllGatherVAlgo::CONCRETE
        .into_iter()
        .chain([AllGatherVAlgo::Auto])
        .map(|a| (a.name(), a))
        .collect();
    grid(
        "Ablation 7 — all-gather: n2 fan vs ring vs dissemination (warmed call, SyncMode::Auto)",
        "elems/PE",
        &gathers,
        &cells(&[4, 8, 16, 64], &[16, 1024]),
        |algo, n, sz| Cell::new(AllGather(algo), SyncMode::Auto, n, sz, true),
    );

    println!("\n# Per-collective executor telemetry (8 PEs, 1024 u64 each,");
    println!("#   one call per collective; counts aggregated across PEs)");
    println!(
        "{:>11} {:>6} {:>7} {:>7} {:>11} {:>11} {:>7} {:>12}",
        "collective", "calls", "puts", "gets", "bytes put", "bytes got", "stages", "cycles"
    );
    // The telemetry workload runs with the tracing plane on: the same run
    // feeds the table above, the event timeline below, and (with
    // `--trace <out.json>`) the exported Perfetto file.
    let report = collective_run(ENGINE, 8, 1024, true);
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
    if let Some(path) = trace_path {
        export_trace(path, trace);
    }
}
