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

use xbrtime::collectives::explore::{explore_exhaustive, run_mutation_harness};
use xbrtime::collectives::scatter::adjusted_displacements;
use xbrtime::collectives::schedule::{broadcast_binomial, CommSchedule, Payload, Row, Shape};
use xbrtime::collectives::verify::{check_schedule, CollectiveSpec, ModelConfig};
use xbrtime::collectives::{Algorithm, AllGatherVAlgo, AllReduceAlgo, SyncMode};
use xbrtime::CollectiveKind;

/// One named schedule with the spec it claims to implement.
struct Case {
    name: String,
    sched: CommSchedule,
    spec: CollectiveSpec,
}

/// Per-rank element counts `f(rank, n)` of a row that reads a table. The
/// ragged `i % 3` table has genuine zero-length blocks (every third rank,
/// the root included at some sizes); the giant one leaves everything with
/// the last rank.
type Counts = fn(usize, usize) -> usize;
const MOD2: Counts = |i, _| i % 2 + 1;
const MOD3: Counts = |i, _| i % 3;
const GIANT: Counts = |i, n| if i == n - 1 { n + 1 } else { 0 };

/// What an entry of [`CASES`] builds at world size `n`: a `Shape`, whom it
/// runs on, and on what.
#[derive(Clone, Copy)]
enum Entry {
    /// A rooted row from rank `n / 2`: scatter and gather on a count
    /// table, broadcast and reduce (`None`) on two elements per edge.
    Rooted(CollectiveKind, Algorithm, Option<Counts>),
    /// An all-gather of one element each (`None`) or of a count table.
    Gather(AllGatherVAlgo, Option<Counts>),
    /// An all-reduce of `f(n)` elements.
    Reduce(AllReduceAlgo, fn(usize) -> usize),
    /// One element to every rank from every rank.
    AllToAll,
    /// From `n = 3`: the binomial row on a strict-subset team — every other
    /// rank, the broadcast rooted at the last member — so member/non-member
    /// boundaries and rank translation are both exercised.
    Team(CollectiveKind),
    /// From `n = 3`: the two-tier tree from rank 1, two PEs to a node — a
    /// ragged last node for odd `n`.
    Hier(CollectiveKind),
}

/// Every row the library can name, paired below with the `CollectiveSpec`
/// it must satisfy; all built through `Row::schedule`, which the
/// collective bodies read. The allreduce rows fold their non-power-of-two
/// tails internally, so every one is held to the dense reference at every
/// n — no Unchecked escape hatch. The irregular all-gathers run the
/// `i % 3` table, plus the maximally skewed one for the dissemination
/// schedule, whose O(log n) giant-block movement is the property worth
/// model-checking.
const CASES: [(&str, Entry); 28] = {
    use Algorithm::{Binomial, Linear, Ring};
    use AllGatherVAlgo::{self as G, Dissemination, Fan};
    use AllReduceAlgo::{self as R, Rabenseifner, RecursiveDoubling, ReduceThenBroadcast};
    use CollectiveKind::{Broadcast, Gather as Gath, Reduce as Red, Scatter};
    use Entry::{AllToAll, Gather, Hier, Reduce, Rooted, Team};
    [
        ("broadcast/binomial", Rooted(Broadcast, Binomial, None)),
        ("broadcast/linear", Rooted(Broadcast, Linear, None)),
        ("broadcast/ring", Rooted(Broadcast, Ring, None)),
        ("reduce/binomial", Rooted(Red, Binomial, None)),
        ("reduce/linear", Rooted(Red, Linear, None)),
        ("reduce/ring", Rooted(Red, Ring, None)),
        ("scatter/binomial", Rooted(Scatter, Binomial, Some(MOD2))),
        ("scatter/linear", Rooted(Scatter, Linear, Some(|_, _| 1))),
        ("scatterv/ring", Rooted(Scatter, Ring, Some(MOD3))),
        ("gather/binomial", Rooted(Gath, Binomial, Some(MOD2))),
        ("gather/linear", Rooted(Gath, Linear, Some(|_, _| 1))),
        ("gatherv/ring", Rooted(Gath, Ring, Some(MOD3))),
        ("all_gather", Gather(Fan, None)),
        ("all_gather/ring", Gather(G::Ring, None)),
        ("all_gather/rec-doubling", Gather(Dissemination, None)),
        ("allreduce/fused", Reduce(ReduceThenBroadcast, |_| 2)),
        ("allreduce/rec-doubling", Reduce(RecursiveDoubling, |_| 2)),
        // nelems below the power-of-two PE count leaves some ranks
        // owning an empty reduce-scatter range — the hardest split.
        ("allreduce/rabenseifner", Reduce(Rabenseifner, |_| 3)),
        ("allreduce/ring", Reduce(R::Ring, |n| n + 1)),
        ("allgatherv/fan", Gather(Fan, Some(MOD3))),
        ("allgatherv/ring", Gather(G::Ring, Some(MOD3))),
        (
            "allgatherv/dissemination",
            Gather(Dissemination, Some(MOD3)),
        ),
        (
            "allgatherv/dissemination skewed",
            Gather(Dissemination, Some(GIANT)),
        ),
        ("all_to_all", AllToAll),
        ("team/broadcast", Team(Broadcast)),
        ("team/reduce", Team(Red)),
        ("hier/broadcast", Hier(Broadcast)),
        ("hier/reduce", Hier(Red)),
    ]
};

/// Every entry of [`CASES`] at world size `n`: flat, extended, irregular
/// (v-variant), team and hierarchical rows.
fn cases(n: usize) -> Vec<Case> {
    let every_other: Vec<usize> = (0..n).step_by(2).collect();
    let table = |c: Counts| (0..n).map(|i| c(i, n)).collect::<Vec<usize>>();
    let (nelems, stride, binomial) = (2, 1, Algorithm::Binomial);
    let payload = Payload::Whole { nelems, stride };
    // The spec of a whole-vector rooted row from `root`.
    let whole = |family, algo, root| match (family, algo) {
        (CollectiveKind::Broadcast, _) => CollectiveSpec::Broadcast {
            root,
            nelems,
            stride,
        },
        (_, Algorithm::Linear) => CollectiveSpec::ReduceLinear {
            root,
            nelems,
            stride,
        },
        _ => CollectiveSpec::ReduceTree {
            root,
            nelems,
            stride,
        },
    };
    let mut out = Vec::new();
    for (name, entry) in CASES {
        let (mut name, mut members) = (format!("{name} n={n}"), None);
        let (counts, adj_disp);
        let (shape, spec) = match entry {
            Entry::Team(_) | Entry::Hier(_) if n < 3 => continue,
            Entry::Rooted(family, algo, c) => {
                let root = n / 2;
                let (payload, spec) = match c {
                    Some(c) => {
                        adj_disp = adjusted_displacements(&table(c), root, n);
                        let spec = match (family, adj_disp.clone()) {
                            (CollectiveKind::Scatter, adj_disp) => {
                                CollectiveSpec::Scatter { root, adj_disp }
                            }
                            (_, adj_disp) => CollectiveSpec::Gather { root, adj_disp },
                        };
                        (Payload::Ranges(&adj_disp), spec)
                    }
                    None => (payload, whole(family, algo, root)),
                };
                let shape = Shape::Rooted {
                    family,
                    algo,
                    root,
                    payload,
                };
                (shape, spec)
            }
            Entry::Gather(algo, c) => {
                counts = c.map_or(vec![1; n], table);
                let spec = match c {
                    Some(_) => CollectiveSpec::AllGatherV {
                        counts: counts.clone(),
                    },
                    None => CollectiveSpec::AllGather { per_pe: 1 },
                };
                let counts = &counts[..];
                (Shape::AllGather { algo, counts }, spec)
            }
            Entry::Reduce(algo, nelems) => {
                let nelems = nelems(n);
                let spec = CollectiveSpec::AllReduce { nelems };
                (Shape::AllReduce { algo, nelems }, spec)
            }
            Entry::AllToAll => {
                let spec = CollectiveSpec::AllToAll { per_pe: 1 };
                (Shape::AllToAll { per_pe: 1 }, spec)
            }
            Entry::Team(family) => {
                name += &format!(" m={}", every_other.len());
                members = Some(&every_other[..]);
                let team = every_other.clone();
                let (root, spec) = match family {
                    CollectiveKind::Broadcast => {
                        let root = team.len() - 1;
                        let spec = CollectiveSpec::TeamBroadcast {
                            root_global: team[root],
                            members: team,
                            nelems,
                        };
                        (root, spec)
                    }
                    _ => {
                        let members = team;
                        (0, CollectiveSpec::TeamReduce { members, nelems })
                    }
                };
                let shape = Shape::Rooted {
                    family,
                    algo: binomial,
                    root,
                    payload,
                };
                (shape, spec)
            }
            Entry::Hier(family) => {
                name += " k=2";
                let shape = Shape::Hier {
                    family,
                    pes_per_node: 2,
                    root: 1,
                    nelems,
                };
                (shape, whole(family, binomial, 1))
            }
        };
        let row = Row {
            shape,
            members,
            world: n,
        };
        let sched = row.schedule();
        out.push(Case { name, sched, spec });
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut failures = 0usize;
    let cfg = ModelConfig::default();
    // A shape cannot ship unchecked: every algorithm of every family has
    // an entry that is swept, explored and mutation-tested below.
    let require = |listed: &dyn Fn(Entry) -> bool, family: &str, algo: &str| {
        let listed = CASES.iter().any(|c| listed(c.1));
        assert!(listed, "{family}/{algo} has no conformance entry");
    };
    for family in CollectiveKind::ALL[..4].iter().copied() {
        for algo in [Algorithm::Binomial, Algorithm::Linear, Algorithm::Ring] {
            let entry = |e| matches!(e, Entry::Rooted(f, a, _) if (f, a) == (family, algo));
            require(&entry, family.name(), algo.name());
        }
    }
    for algo in AllGatherVAlgo::CONCRETE {
        let entry = |e| matches!(e, Entry::Gather(a, _) if a == algo);
        require(&entry, "all_gather", algo.name());
    }
    for algo in AllReduceAlgo::CONCRETE {
        let entry = |e| matches!(e, Entry::Reduce(a, _) if a == algo);
        require(&entry, "allreduce", algo.name());
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
    let explore_sizes: &[usize] = if smoke { &[2, 3] } else { &[2, 3, 4] };
    let mut explored = 0usize;
    let mut states_total = 0usize;
    let plane2_failures_before = failures;
    for &n in explore_sizes {
        for c in cases(n) {
            for sync in SyncMode::CONCRETE {
                let out = explore_exhaustive(&c.sched, sync, &c.spec, &cfg);
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
            let out = explore_exhaustive(&c.sched, SyncMode::Pipelined, &c.spec, &forced);
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
    let mut targets = cases(4);
    if smoke {
        let trees = ["broadcast/binomial n=4", "reduce/binomial n=4"];
        targets.retain(|c| trees.contains(&c.name.as_str()));
    } else {
        targets.extend(cases(5));
    }
    let mut total_pairs = 0usize;
    let mut killed_pairs = 0usize;
    let mut survivors = Vec::new();
    for c in &targets {
        let report = run_mutation_harness(&c.sched, &c.spec, &cfg, &SyncMode::CONCRETE);
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
