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
use xbrtime::collectives::extended::all_to_all_sched;
use xbrtime::collectives::hierarchical::{broadcast_hier_sched, reduce_hier_sched};
use xbrtime::collectives::scatter::adjusted_displacements;
use xbrtime::collectives::schedule::{
    allgather_row, allreduce_row, broadcast_binomial, reduce_binomial, rooted_schedule,
    CommSchedule, Payload,
};
use xbrtime::collectives::vcoll::prefix_displacements;
use xbrtime::collectives::verify::{check_schedule, CollectiveSpec, ModelConfig};
use xbrtime::collectives::{Algorithm, AllGatherVAlgo, AllReduceAlgo, SyncMode, Team};
use xbrtime::CollectiveKind;

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

/// Per-rank element counts of a scatter/gather row; `None` on the
/// broadcast/reduce rows, whose every edge carries 2 elements.
type Counts = Option<fn(usize) -> usize>;

/// The rooted rows — `(name, family, algorithm, count table)` — all built
/// through `rooted_schedule`, the table the collective bodies read. The
/// ragged table exercises uneven subtree spans; `i % 3` has genuine
/// zero-length blocks (every third rank, the root included at some sizes).
const ROOTED: [(&str, CollectiveKind, Algorithm, Counts); 12] = {
    use Algorithm::{Binomial, Linear, Ring};
    use CollectiveKind::{Broadcast, Gather, Reduce, Scatter};
    [
        ("broadcast/binomial", Broadcast, Binomial, None),
        ("broadcast/linear", Broadcast, Linear, None),
        ("broadcast/ring", Broadcast, Ring, None),
        ("reduce/binomial", Reduce, Binomial, None),
        ("reduce/linear", Reduce, Linear, None),
        ("reduce/ring", Reduce, Ring, None),
        ("scatter/binomial", Scatter, Binomial, Some(|i| i % 2 + 1)),
        ("scatter/linear", Scatter, Linear, Some(|_| 1)),
        ("scatterv/ring", Scatter, Ring, Some(|i| i % 3)),
        ("gather/binomial", Gather, Binomial, Some(|i| i % 2 + 1)),
        ("gather/linear", Gather, Linear, Some(|_| 1)),
        ("gatherv/ring", Gather, Ring, Some(|i| i % 3)),
    ]
};

fn rooted_cases(n: usize, root: usize) -> impl Iterator<Item = Case> {
    ROOTED.into_iter().map(move |(name, family, algo, counts)| {
        let adj_disp = counts.map(|c| {
            let msgs: Vec<usize> = (0..n).map(c).collect();
            adjusted_displacements(&msgs, root, n)
        });
        let (nelems, stride) = (2, 1);
        let payload = match &adj_disp {
            Some(adj_disp) => Payload::Ranges(adj_disp),
            None => Payload::Whole { nelems, stride },
        };
        let sched = rooted_schedule(family, algo, n, root, payload);
        let adj_disp = adj_disp.unwrap_or_default();
        let spec = match (family, algo) {
            (CollectiveKind::Broadcast, _) => CollectiveSpec::Broadcast {
                root,
                nelems,
                stride,
            },
            (CollectiveKind::Reduce, Algorithm::Linear) => CollectiveSpec::ReduceLinear {
                root,
                nelems,
                stride,
            },
            (CollectiveKind::Reduce, _) => CollectiveSpec::ReduceTree {
                root,
                nelems,
                stride,
            },
            (CollectiveKind::Scatter, _) => CollectiveSpec::Scatter { root, adj_disp },
            _ => CollectiveSpec::Gather { root, adj_disp },
        };
        case(format!("{name} n={n}"), sched, spec)
    })
}

/// Per-rank counts `f(rank, n)` of an all-gather row; `None` on the
/// uniform all-gather (one element each).
type Blocks = Option<fn(usize, usize) -> usize>;
const MOD3: Blocks = Some(|i, _| i % 3);
const GIANT: Blocks = Some(|i, n| if i == n - 1 { n + 1 } else { 0 });

/// Which half of the symmetric table a row reads, and on what: an
/// all-gather's count table or an all-reduce's element count `f(n)`.
#[derive(Clone, Copy)]
enum Symmetric {
    Gather(AllGatherVAlgo, Blocks),
    Reduce(AllReduceAlgo, fn(usize) -> usize),
}

/// The symmetric rows, all built through `allgather_row` / `allreduce_row`,
/// the table the collective bodies read. The allreduce rows fold their
/// non-power-of-two tails internally, so every one is held to the dense
/// reference at every n — no Unchecked escape hatch. The irregular
/// all-gathers run the `i % 3` table again, plus a maximally skewed
/// one-PE-holds-everything table for the dissemination schedule, whose
/// O(log n) giant-block movement is the property worth model-checking.
const SYMMETRIC: [(&str, Symmetric); 11] = {
    use AllGatherVAlgo::{self as G, Dissemination, Fan};
    use AllReduceAlgo::{self as R, Rabenseifner, RecursiveDoubling, ReduceThenBroadcast};
    use Symmetric::{Gather, Reduce};
    [
        ("all_gather", Gather(Fan, None)),
        ("all_gather/ring", Gather(G::Ring, None)),
        ("all_gather/rec-doubling", Gather(Dissemination, None)),
        ("allreduce/fused", Reduce(ReduceThenBroadcast, |_| 2)),
        ("allreduce/rec-doubling", Reduce(RecursiveDoubling, |_| 2)),
        // nelems below the power-of-two PE count leaves some ranks
        // owning an empty reduce-scatter range — the hardest split.
        ("allreduce/rabenseifner", Reduce(Rabenseifner, |_| 3)),
        ("allreduce/ring", Reduce(R::Ring, |n| n + 1)),
        ("allgatherv/fan", Gather(Fan, MOD3)),
        ("allgatherv/ring", Gather(G::Ring, MOD3)),
        ("allgatherv/dissemination", Gather(Dissemination, MOD3)),
        (
            "allgatherv/dissemination skewed",
            Gather(Dissemination, GIANT),
        ),
    ]
};

fn symmetric_cases(n: usize) -> impl Iterator<Item = Case> {
    SYMMETRIC.into_iter().map(move |(name, row)| {
        let (sched, spec) = match row {
            Symmetric::Gather(algo, counts) => {
                let counts_of = |c: fn(usize, usize) -> usize| (0..n).map(|i| c(i, n)).collect();
                let table: Vec<usize> = counts.map_or(vec![1; n], counts_of);
                let sched = allgather_row(algo).2(n, &prefix_displacements(&table));
                let spec = match counts {
                    Some(_) => CollectiveSpec::AllGatherV { counts: table },
                    None => CollectiveSpec::AllGather { per_pe: 1 },
                };
                (sched, spec)
            }
            Symmetric::Reduce(algo, nelems) => {
                let nelems = nelems(n);
                let spec = CollectiveSpec::AllReduce { nelems };
                (allreduce_row(algo).2(n, nelems), spec)
            }
        };
        case(format!("{name} n={n}"), sched, spec)
    })
}

/// Every (collective × algorithm) pair at world size `n`, covering flat,
/// extended, irregular (v-variant), team and hierarchical generators.
fn cases(n: usize) -> Vec<Case> {
    let mut out: Vec<Case> = rooted_cases(n, n / 2).chain(symmetric_cases(n)).collect();
    out.push(case(
        format!("all_to_all n={n}"),
        all_to_all_sched(n, 1),
        CollectiveSpec::AllToAll { per_pe: 1 },
    ));
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
    // A shape cannot ship unchecked: every row of the rooted and symmetric
    // tables is swept, explored and mutation-tested below.
    let require = |listed: bool, family: &str, algo: &str| {
        assert!(listed, "{family}/{algo} has no conformance row");
    };
    for family in &CollectiveKind::ALL[..4] {
        for algo in [Algorithm::Binomial, Algorithm::Linear, Algorithm::Ring] {
            let listed = ROOTED.iter().any(|r| (r.1, r.2) == (*family, algo));
            require(listed, family.name(), algo.name());
        }
    }
    for algo in AllGatherVAlgo::CONCRETE {
        let row = |r: &(_, Symmetric)| matches!(r.1, Symmetric::Gather(a, _) if a == algo);
        require(SYMMETRIC.iter().any(row), "all_gather", algo.name());
    }
    for algo in AllReduceAlgo::CONCRETE {
        let row = |r: &(_, Symmetric)| matches!(r.1, Symmetric::Reduce(a, _) if a == algo);
        require(SYMMETRIC.iter().any(row), "allreduce", algo.name());
    }

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
