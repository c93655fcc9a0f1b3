//! Schedule conformance harness for CI: model-checks every collective
//! schedule the generators can emit, without ever starting a fabric.
//!
//! Three planes, each with a hard pass/fail verdict:
//!
//! 1. **Canonical oracle sweep** — every collective × algorithm × sync
//!    mode schedule is interpreted under the byte-provenance oracle with
//!    vector clocks attached: final buffers must match the dense
//!    single-PE reference, every read must be ordered after its producing
//!    write, and no two writes may race. Includes a real-chunking
//!    pipelined case (32 KiB payload → 4 chunks) so the per-chunk
//!    signal edges are exercised at their production granularity.
//! 2. **Exhaustive interleaving exploration** — for `n_pes ∈ {2, 3, 4}`
//!    at small payloads, *every* interleaving of the modelled executor is
//!    enumerated (DFS with state memoisation); all must complete, agree
//!    with the reference, and leave the signal table clear. Pipelined
//!    per-chunk edges are explored via forced chunking.
//! 3. **Mutation harness** — schedule mutants that each drop or reorder
//!    one real dependency (conflict-analysed, so no equivalent mutants)
//!    must be flagged by the oracle; the aggregate kill rate must be
//!    ≥ 95%, and every survivor is printed for justification.
//!
//! `--smoke` trims the sweep for quick local runs; CI runs the full
//! harness. Exits nonzero on any violated property.

use std::process::exit;

use xbrtime::collectives::explore::{explore_exhaustive, run_mutation_harness, ExploreConfig};
use xbrtime::collectives::extended::{
    all_to_all_sched, allreduce_rabenseifner, allreduce_recursive_doubling, allreduce_ring,
};
use xbrtime::collectives::hierarchical::{broadcast_hier_sched, reduce_hier_sched};
use xbrtime::collectives::scatter::adjusted_displacements;
use xbrtime::collectives::schedule::{
    broadcast_binomial, broadcast_linear_sched, broadcast_ring_sched, gather_binomial,
    gather_linear_sched, reduce_binomial, reduce_linear_sched, scatter_binomial,
    scatter_linear_sched, CommSchedule,
};
use xbrtime::collectives::vcoll::{
    allgatherv_dissemination_sched, allgatherv_fan_sched, allgatherv_ring_sched,
    gatherv_ring_sched, prefix_displacements, scatterv_ring_sched,
};
use xbrtime::collectives::verify::{check_schedule, CollectiveSpec, ModelConfig};
use xbrtime::collectives::{SyncMode, Team};

/// One named schedule with the spec it claims to implement.
struct Case {
    name: String,
    sched: CommSchedule,
    spec: CollectiveSpec,
}

fn case(name: impl Into<String>, sched: CommSchedule, spec: CollectiveSpec) -> Case {
    Case {
        name: name.into(),
        sched,
        spec,
    }
}

/// Every (collective × algorithm) pair at world size `n`, covering flat,
/// extended, irregular (v-variant), team and hierarchical generators.
fn cases(n: usize) -> Vec<Case> {
    let root = n / 2;
    let uni: Vec<usize> = adjusted_displacements(&vec![1; n], root, n);
    let msgs: Vec<usize> = (0..n).map(|i| (i % 2) + 1).collect();
    let ragged: Vec<usize> = adjusted_displacements(&msgs, root, n);
    // The uniform all-gather is the v-generators on a constant table.
    let unit = prefix_displacements(&vec![1; n]);
    let mut out = vec![
        case(
            format!("broadcast/binomial n={n}"),
            broadcast_binomial(n, root, 2, 1),
            CollectiveSpec::Broadcast {
                root,
                nelems: 2,
                stride: 1,
            },
        ),
        case(
            format!("broadcast/linear n={n}"),
            broadcast_linear_sched(n, root, 2, 1),
            CollectiveSpec::Broadcast {
                root,
                nelems: 2,
                stride: 1,
            },
        ),
        case(
            format!("broadcast/ring n={n}"),
            broadcast_ring_sched(n, root, 2, 1),
            CollectiveSpec::Broadcast {
                root,
                nelems: 2,
                stride: 1,
            },
        ),
        case(
            format!("reduce/binomial n={n}"),
            reduce_binomial(n, root, 2, 1),
            CollectiveSpec::ReduceTree {
                root,
                nelems: 2,
                stride: 1,
            },
        ),
        case(
            format!("reduce/linear n={n}"),
            reduce_linear_sched(n, root, 2, 1),
            CollectiveSpec::ReduceLinear {
                root,
                nelems: 2,
                stride: 1,
            },
        ),
        case(
            format!("scatter/binomial n={n}"),
            scatter_binomial(n, root, &ragged),
            CollectiveSpec::Scatter {
                root,
                adj_disp: ragged.clone(),
            },
        ),
        case(
            format!("scatter/linear n={n}"),
            scatter_linear_sched(n, root, &uni),
            CollectiveSpec::Scatter {
                root,
                adj_disp: uni.clone(),
            },
        ),
        case(
            format!("gather/binomial n={n}"),
            gather_binomial(n, root, &ragged),
            CollectiveSpec::Gather {
                root,
                adj_disp: ragged.clone(),
            },
        ),
        case(
            format!("gather/linear n={n}"),
            gather_linear_sched(n, root, &uni),
            CollectiveSpec::Gather {
                root,
                adj_disp: uni,
            },
        ),
        case(
            format!("all_gather n={n}"),
            allgatherv_fan_sched(n, &unit),
            CollectiveSpec::AllGather { per_pe: 1 },
        ),
        case(
            format!("all_to_all n={n}"),
            all_to_all_sched(n, 1),
            CollectiveSpec::AllToAll { per_pe: 1 },
        ),
        case(
            format!("all_gather/rec-doubling n={n}"),
            allgatherv_dissemination_sched(n, &unit),
            CollectiveSpec::AllGather { per_pe: 1 },
        ),
        // The allreduce generators fold their non-power-of-two tails
        // internally, so every one is held to the dense reference at
        // every n — no Unchecked escape hatch.
        case(
            format!("allreduce/rec-doubling n={n}"),
            allreduce_recursive_doubling(n, 2),
            CollectiveSpec::AllReduce { nelems: 2 },
        ),
        case(
            format!("allreduce/rabenseifner n={n}"),
            // nelems below the power-of-two PE count leaves some ranks
            // owning an empty reduce-scatter range — the hardest split.
            allreduce_rabenseifner(n, 3),
            CollectiveSpec::AllReduce { nelems: 3 },
        ),
        case(
            format!("allreduce/ring n={n}"),
            allreduce_ring(n, n + 1),
            CollectiveSpec::AllReduce { nelems: n + 1 },
        ),
    ];
    // Irregular v-variants: a ragged count table with genuine zero-length
    // blocks (i % 3 zeroes every third rank, the root included at some
    // sizes) plus a maximally skewed one-PE-holds-everything table for the
    // dissemination schedule, whose O(log n) giant-block movement is the
    // property worth model-checking.
    let vcounts: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let vadj = adjusted_displacements(&vcounts, root, n);
    let vdisp = prefix_displacements(&vcounts);
    let mut giant = vec![0usize; n];
    giant[n - 1] = n + 1;
    let gdisp = prefix_displacements(&giant);
    out.extend([
        case(
            format!("scatterv/ring n={n}"),
            scatterv_ring_sched(n, root, &vadj),
            CollectiveSpec::Scatter {
                root,
                adj_disp: vadj.clone(),
            },
        ),
        case(
            format!("gatherv/ring n={n}"),
            gatherv_ring_sched(n, root, &vadj),
            CollectiveSpec::Gather {
                root,
                adj_disp: vadj,
            },
        ),
        case(
            format!("allgatherv/fan n={n}"),
            allgatherv_fan_sched(n, &vdisp),
            CollectiveSpec::AllGatherV {
                counts: vcounts.clone(),
            },
        ),
        case(
            format!("allgatherv/ring n={n}"),
            allgatherv_ring_sched(n, &vdisp),
            CollectiveSpec::AllGatherV {
                counts: vcounts.clone(),
            },
        ),
        case(
            format!("allgatherv/dissemination n={n}"),
            allgatherv_dissemination_sched(n, &vdisp),
            CollectiveSpec::AllGatherV { counts: vcounts },
        ),
        case(
            format!("allgatherv/dissemination skewed n={n}"),
            allgatherv_dissemination_sched(n, &gdisp),
            CollectiveSpec::AllGatherV { counts: giant },
        ),
    ]);
    if n >= 3 {
        // A strict-subset team: every other rank, rooted at the last
        // member, so member/non-member boundaries and rank translation
        // are both exercised.
        let members: Vec<usize> = (0..n).step_by(2).collect();
        let team = Team::new(members.clone());
        let team_root = members.len() - 1;
        out.push(case(
            format!("team/broadcast n={n} m={}", members.len()),
            team.broadcast_schedule(n, 2, team_root),
            CollectiveSpec::TeamBroadcast {
                members: members.clone(),
                root_global: members[team_root],
                nelems: 2,
            },
        ));
        out.push(case(
            format!("team/reduce n={n} m={}", members.len()),
            team.reduce_schedule(n, 2),
            CollectiveSpec::TeamReduce { members, nelems: 2 },
        ));
    }
    if n >= 3 {
        // pes_per_node = 2 leaves a ragged last node for odd n.
        out.push(case(
            format!("hier/broadcast n={n} k=2"),
            broadcast_hier_sched(n, 2, 1, 2),
            CollectiveSpec::Broadcast {
                root: 1,
                nelems: 2,
                stride: 1,
            },
        ));
        out.push(case(
            format!("hier/reduce n={n} k=2"),
            reduce_hier_sched(n, 2, 1, 2),
            CollectiveSpec::ReduceTree {
                root: 1,
                nelems: 2,
                stride: 1,
            },
        ));
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut failures = 0usize;
    let cfg = ModelConfig::default();

    // --- Plane 1: canonical oracle sweep ------------------------------
    println!("plane 1: canonical oracle sweep (vector clocks + dense reference)");
    let plane1_sizes: &[usize] = if smoke { &[4, 5] } else { &[2, 3, 4, 5, 7, 8] };
    let mut checked = 0usize;
    for &n in plane1_sizes {
        for c in cases(n) {
            for sync in SyncMode::CONCRETE {
                let report = check_schedule(&c.sched, sync, &c.spec, &cfg);
                checked += 1;
                if !report.ok() {
                    failures += 1;
                    println!("  FAIL {} [{}]: {}", c.name, sync.name(), report.summary());
                    for v in report.violations.iter().take(3) {
                        println!("       {v}");
                    }
                }
            }
        }
    }
    // Real-chunking pipelined case: 4096 × u64 = 32 KiB → 4 chunks per
    // transfer, no forced chunking involved.
    let big = broadcast_binomial(4, 0, 4096, 1);
    let report = check_schedule(
        &big,
        SyncMode::Pipelined,
        &CollectiveSpec::Broadcast {
            root: 0,
            nelems: 4096,
            stride: 1,
        },
        &cfg,
    );
    checked += 1;
    if !report.ok() {
        failures += 1;
        println!(
            "  FAIL broadcast/binomial 32KiB pipelined: {}",
            report.summary()
        );
    }
    println!("  {checked} schedule×mode checks, {failures} failures\n");

    // --- Plane 2: exhaustive interleaving exploration ------------------
    println!("plane 2: exhaustive interleaving exploration (n ∈ {{2, 3, 4}})");
    let ecfg = ExploreConfig::default();
    let explore_sizes: &[usize] = if smoke { &[2, 3] } else { &[2, 3, 4] };
    let mut explored = 0usize;
    let mut states_total = 0usize;
    let plane2_failures_before = failures;
    for &n in explore_sizes {
        for c in cases(n) {
            for sync in SyncMode::CONCRETE {
                let out = explore_exhaustive(&c.sched, sync, &c.spec, &cfg, &ecfg);
                explored += 1;
                states_total += out.states;
                if !out.ok() {
                    failures += 1;
                    println!("  FAIL {} [{}]: {}", c.name, sync.name(), out.summary());
                    if let Some(f) = &out.failure {
                        println!("       reproduce with trace {:?}", f.trace);
                    }
                }
            }
            // Per-chunk dependency edges at model scale.
            let forced = ModelConfig {
                force_chunks: Some(2),
                ..cfg
            };
            let out = explore_exhaustive(&c.sched, SyncMode::Pipelined, &c.spec, &forced, &ecfg);
            explored += 1;
            states_total += out.states;
            if !out.ok() {
                failures += 1;
                println!("  FAIL {} [pipelined ×2 chunks]: {}", c.name, out.summary());
            }
        }
    }
    println!(
        "  {explored} explorations, {} states visited, {} failures\n",
        states_total,
        failures - plane2_failures_before
    );

    // --- Plane 3: mutation harness -------------------------------------
    println!("plane 3: mutation harness (dependency-dropping mutants must be killed)");
    let targets: Vec<Case> = if smoke {
        vec![
            case(
                "broadcast/binomial n=4",
                broadcast_binomial(4, 0, 2, 1),
                CollectiveSpec::Broadcast {
                    root: 0,
                    nelems: 2,
                    stride: 1,
                },
            ),
            case(
                "reduce/binomial n=4",
                reduce_binomial(4, 0, 2, 1),
                CollectiveSpec::ReduceTree {
                    root: 0,
                    nelems: 2,
                    stride: 1,
                },
            ),
        ]
    } else {
        let mut t = cases(4);
        t.extend(cases(5));
        t
    };
    let mut total_pairs = 0usize;
    let mut killed_pairs = 0usize;
    let mut survivors = Vec::new();
    for c in &targets {
        let report = run_mutation_harness(&c.sched, &c.spec, &cfg, &SyncMode::CONCRETE, &ecfg);
        if report.outcomes.is_empty() {
            continue;
        }
        let killed = report.outcomes.iter().filter(|o| o.killed).count();
        total_pairs += report.outcomes.len();
        killed_pairs += killed;
        println!(
            "  {}: {} mutant×mode pairs, {} killed",
            c.name,
            report.outcomes.len(),
            killed
        );
        for s in report.survivors() {
            survivors.push(format!(
                "{} · {} [{}]: {}",
                c.name,
                s.mutation,
                s.sync.name(),
                s.how
            ));
        }
    }
    let kill_rate = if total_pairs == 0 {
        1.0
    } else {
        killed_pairs as f64 / total_pairs as f64
    };
    println!(
        "  kill rate {killed_pairs}/{total_pairs} = {:.1}%",
        kill_rate * 100.0
    );
    for s in &survivors {
        println!("  survivor: {s}");
    }
    if kill_rate < 0.95 {
        failures += 1;
        println!("  FAIL kill rate below the 95% gate");
    }

    println!();
    if failures == 0 {
        println!("conformance: all planes clean");
    } else {
        println!("conformance: {failures} failures");
        exit(1);
    }
}
