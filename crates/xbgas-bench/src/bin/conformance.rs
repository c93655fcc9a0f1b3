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
use xbrtime::collectives::schedule::{broadcast_binomial, CommSchedule};
use xbrtime::collectives::verify::{check_schedule, CollectiveSpec, ModelConfig};
use xbrtime::collectives::{
    AlgorithmPolicy, AllGatherVAlgo, AllReduceAlgo, Call, CallKind, Extent, SyncMode,
};
use xbrtime::CollectiveKind;

/// One named schedule with the spec it claims to implement.
struct Case {
    name: String,
    sched: CommSchedule,
    spec: CollectiveSpec,
}

/// Per-rank element counts `f(rank, n)` of a call that reads a table.
/// The ragged `i % 3` table has genuine zero-length blocks (every third
/// rank, the root included at some sizes); the giant one leaves
/// everything with the last rank.
type Counts = fn(usize, usize) -> usize;
const MOD2: Counts = |i, _| i % 2 + 1;
const MOD3: Counts = |i, _| i % 3;
const GIANT: Counts = |i, n| if i == n - 1 { n + 1 } else { 0 };

/// A rooted call from rank `n / 2`: scatter and gather on a count table,
/// broadcast and reduce (`None`) on two elements per edge.
fn rooted(kind: CallKind, n: usize, counts: Option<Counts>) -> Call<'static> {
    let mut call = Call::whole(kind, n / 2, 2, 1, SyncMode::Barrier);
    if let Some(c) = counts {
        call.extent = table(c, n);
    }
    call
}

/// The count table `c` at `n` ranks.
fn table(c: Counts, n: usize) -> Extent<'static> {
    let counts: Vec<usize> = (0..n).map(|i| c(i, n)).collect();
    let displs = None;
    Extent::Table {
        counts: counts.into(),
        displs,
    }
}

/// An all-gather of one element each (`None`) or of a count table.
fn all_gather(algo: AllGatherVAlgo, n: usize, counts: Option<Counts>) -> Call<'static> {
    let mut call = Call::whole(CallKind::AllGather(algo), 0, 1, 1, SyncMode::Barrier);
    if let Some(c) = counts {
        call.extent = table(c, n);
    }
    call
}

/// An all-reduce of `nelems` elements.
fn all_reduce(algo: AllReduceAlgo, nelems: usize) -> Call<'static> {
    Call::whole(CallKind::AllReduce(algo), 0, nelems, 1, SyncMode::Barrier)
}

/// From `n = 3`: the binomial call on a strict-subset team — every other
/// rank, the broadcast rooted at the last member — so member/non-member
/// boundaries and rank translation are both exercised.
fn team(kind: CallKind, n: usize) -> Call<'static> {
    let members: Vec<usize> = (0..n).step_by(2).collect();
    let root = match kind {
        CallKind::Broadcast(_) => members.len() - 1,
        _ => 0,
    };
    Call {
        members: Some(members.into()),
        ..Call::whole(kind, root, 2, 1, SyncMode::Barrier)
    }
}

/// From `n = 3`: the two-tier tree from rank 1, two PEs to a node — a
/// ragged last node for odd `n`.
fn hier(family: CollectiveKind) -> Call<'static> {
    let pes_per_node = 2;
    let kind = CallKind::Hier {
        family,
        pes_per_node,
    };
    Call::whole(kind, 1, 2, 1, SyncMode::Barrier)
}

/// What a [`CASES`] entry builds at world size `n`.
type Builds = fn(usize) -> Call<'static>;

/// Every call the library can make at world size `n`, each checked below
/// against its own `Call::spec` on the schedule its `Call::row` names —
/// the row the collective bodies run. The allreduce rows fold their
/// non-power-of-two tails internally, so every one is held to the dense
/// reference at every n — no Unchecked escape hatch. The irregular
/// all-gathers run the `i % 3` table, plus the maximally skewed one for
/// the dissemination schedule, whose O(log n) giant-block movement is the
/// property worth model-checking.
const CASES: [(&str, Builds); 28] = {
    use AlgorithmPolicy::{Binomial, Linear, Ring};
    use AllGatherVAlgo::{self as G, Dissemination, Fan};
    use AllReduceAlgo::{self as R, Rabenseifner, RecursiveDoubling, ReduceThenBroadcast};
    use CallKind::{Broadcast, Gather, Reduce, Scatter};
    [
        ("broadcast/binomial", |n| {
            rooted(Broadcast(Binomial), n, None)
        }),
        ("broadcast/linear", |n| rooted(Broadcast(Linear), n, None)),
        ("broadcast/ring", |n| rooted(Broadcast(Ring), n, None)),
        ("reduce/binomial", |n| rooted(Reduce(Binomial), n, None)),
        ("reduce/linear", |n| rooted(Reduce(Linear), n, None)),
        ("reduce/ring", |n| rooted(Reduce(Ring), n, None)),
        ("scatter/binomial", |n| {
            rooted(Scatter(Binomial), n, Some(MOD2))
        }),
        ("scatter/linear", |n| {
            rooted(Scatter(Linear), n, Some(|_, _| 1))
        }),
        ("scatterv/ring", |n| rooted(Scatter(Ring), n, Some(MOD3))),
        ("gather/binomial", |n| {
            rooted(Gather(Binomial), n, Some(MOD2))
        }),
        ("gather/linear", |n| {
            rooted(Gather(Linear), n, Some(|_, _| 1))
        }),
        ("gatherv/ring", |n| rooted(Gather(Ring), n, Some(MOD3))),
        ("all_gather", |n| all_gather(Fan, n, None)),
        ("all_gather/ring", |n| all_gather(G::Ring, n, None)),
        ("all_gather/rec-doubling", |n| {
            all_gather(Dissemination, n, None)
        }),
        ("allreduce/fused", |_| all_reduce(ReduceThenBroadcast, 2)),
        ("allreduce/rec-doubling", |_| {
            all_reduce(RecursiveDoubling, 2)
        }),
        // nelems below the power-of-two PE count leaves some ranks
        // owning an empty reduce-scatter range — the hardest split.
        ("allreduce/rabenseifner", |_| all_reduce(Rabenseifner, 3)),
        ("allreduce/ring", |n| all_reduce(R::Ring, n + 1)),
        ("allgatherv/fan", |n| all_gather(Fan, n, Some(MOD3))),
        ("allgatherv/ring", |n| all_gather(G::Ring, n, Some(MOD3))),
        ("allgatherv/dissemination", |n| {
            all_gather(Dissemination, n, Some(MOD3))
        }),
        ("allgatherv/dissemination skewed", |n| {
            all_gather(Dissemination, n, Some(GIANT))
        }),
        ("all_to_all", |_| {
            Call::whole(CallKind::AllToAll, 0, 1, 1, SyncMode::Barrier)
        }),
        ("team/broadcast", |n| team(Broadcast(Binomial), n)),
        ("team/reduce", |n| team(Reduce(Binomial), n)),
        ("hier/broadcast", |_| hier(CollectiveKind::Broadcast)),
        ("hier/reduce", |_| hier(CollectiveKind::Reduce)),
    ]
};

/// Every entry of [`CASES`] at world size `n` — the team and
/// hierarchical calls from `n = 3` — as the schedule of its row, paired
/// with its spec.
fn cases(n: usize) -> Vec<Case> {
    let mut out = Vec::new();
    for (name, call) in CASES {
        let call = call(n);
        let mut name = format!("{name} n={n}");
        let tiered = match (&call.members, call.kind) {
            (Some(members), _) => format!(" m={}", members.len()),
            (_, CallKind::Hier { pes_per_node, .. }) => format!(" k={pes_per_node}"),
            _ => String::new(),
        };
        if n < 3 && !tiered.is_empty() {
            continue;
        }
        name += &tiered;
        let sched = call.row(n, 8, |row| row.schedule());
        let spec = call.spec();
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
    let require = |kind: CallKind| {
        let listed = CASES.iter().any(|(_, call)| call(4).kind == kind);
        assert!(listed, "{kind:?} has no conformance entry");
    };
    let rooted: [fn(AlgorithmPolicy) -> CallKind; 4] = [
        CallKind::Broadcast,
        CallKind::Reduce,
        CallKind::Scatter,
        CallKind::Gather,
    ];
    for kind in rooted {
        for policy in [
            AlgorithmPolicy::Binomial,
            AlgorithmPolicy::Linear,
            AlgorithmPolicy::Ring,
        ] {
            require(kind(policy));
        }
    }
    for algo in AllGatherVAlgo::CONCRETE {
        require(CallKind::AllGather(algo));
    }
    for algo in AllReduceAlgo::CONCRETE {
        require(CallKind::AllReduce(algo));
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
