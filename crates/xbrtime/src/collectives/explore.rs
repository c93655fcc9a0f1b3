//! The deterministic interleaving explorer and the schedule mutation
//! harness.
//!
//! The oracle in [`verify`](crate::collectives::verify) checks one
//! interleaving; this module drives the same translated plans through
//! *many*. Everything is single-threaded and cooperative — a scheduler
//! picks which PE steps next from the enabled set — so every ordering
//! bug reproduces from `(seed, config)` alone, with no wall-clock or
//! platform dependence anywhere in the loop:
//!
//! * [`RoundRobin`] — the canonical fair interleaving;
//! * [`RandomPriority`] — a PCT-style randomised-priority scheduler
//!   driven by [`SplitMix64`], whose `u64`-only arithmetic makes the
//!   schedule stream identical on every platform;
//! * [`explore_exhaustive`] — depth-first enumeration of *all*
//!   interleavings (with state-hash memoisation), feasible for the
//!   model-checking configurations CI runs (`n_pes ≤ 4`, a few
//!   elements).
//!
//! The mutation harness closes the loop on the oracle itself: it
//! derives schedule mutants that each break one real dependency
//! (conflict-analysed, so equivalent mutants are not generated) and
//! asserts the oracle flags every one — a surviving mutant means a
//! dependency class the checks cannot see.

use xbgas_sim::hash::WordSet;

use crate::collectives::policy::SyncMode;
use crate::collectives::schedule::{is_put_kind, CommSchedule, TransferOp};
use crate::collectives::verify::{
    check_schedule, compare, CollectiveSpec, ConformanceReport, DeadlockInfo, Machine, Mismatch,
    ModelConfig, Program, Space,
};
use crate::timing::SplitMix64;

// ---------------------------------------------------------------------------
// Schedulers.
// ---------------------------------------------------------------------------

/// A deterministic interleaving policy: given the enabled ranks, pick
/// which PE steps next.
pub trait Scheduler {
    /// Choose one rank from `enabled` (never empty).
    fn pick(&mut self, enabled: &[usize]) -> usize;
}

/// Fair rotation through the enabled set.
#[derive(Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl Scheduler for RoundRobin {
    fn pick(&mut self, enabled: &[usize]) -> usize {
        let pe = enabled[self.cursor % enabled.len()];
        self.cursor = self.cursor.wrapping_add(1);
        pe
    }
}

/// PCT-style randomised priorities: each PE carries a random priority,
/// the highest-priority enabled PE runs, and priorities are occasionally
/// reshuffled at points drawn from the same stream. All decisions come
/// from a [`SplitMix64`] stream of `u64`s, so a `(seed, n_pes)` pair
/// produces the identical interleaving on every platform (golden-seed
/// pinned in `tests/conformance.rs`).
pub struct RandomPriority {
    rng: SplitMix64,
    prio: Vec<u64>,
}

impl RandomPriority {
    /// Scheduler for a world of `n_pes`, fully determined by `seed`.
    pub fn new(seed: u64, n_pes: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let prio = (0..n_pes).map(|_| rng.next_u64()).collect();
        RandomPriority { rng, prio }
    }
}

impl Scheduler for RandomPriority {
    fn pick(&mut self, enabled: &[usize]) -> usize {
        // Priority change point roughly every 16 picks.
        if self.rng.pick(16) == 0 {
            let pe = self.rng.pick(self.prio.len() as u64) as usize;
            self.prio[pe] = self.rng.next_u64();
        }
        *enabled
            .iter()
            .max_by_key(|&&pe| (self.prio[pe], pe))
            .expect("pick from an empty enabled set")
    }
}

/// Lower `sched` under `sync` and run one full interleaving chosen by
/// `scheduler`, with the vector-clock plane attached.
pub fn check_with_scheduler(
    sched: &CommSchedule,
    sync: SyncMode,
    spec: &CollectiveSpec,
    cfg: &ModelConfig,
    scheduler: &mut dyn Scheduler,
) -> ConformanceReport {
    let prog = Program::lower(sched, sync, cfg);
    crate::collectives::verify::run_with(&prog, spec, |enabled| scheduler.pick(enabled))
}

// ---------------------------------------------------------------------------
// Exhaustive exploration.
// ---------------------------------------------------------------------------

/// The exhaustive explorer's visited-state budget: exceeding it sets
/// [`ExploreOutcome::truncated`] instead of silently passing.
const MAX_STATES: usize = 500_000;

/// How one explored interleaving failed.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// No PE could step but the programs had not completed.
    Deadlock(DeadlockInfo),
    /// A completed interleaving disagreed with the dense reference.
    Mismatch(Vec<Mismatch>),
    /// A completed interleaving left signal slots raised.
    StrandedSignals(Vec<usize>),
}

/// A failing interleaving, with the PE choice sequence that reproduces
/// it step for step.
#[derive(Clone, Debug)]
pub struct ExploreFailure {
    /// What went wrong.
    pub kind: FailureKind,
    /// The scheduler decisions leading to the failure.
    pub trace: Vec<usize>,
}

/// Result of an exhaustive exploration.
pub struct ExploreOutcome {
    /// Concrete sync mode explored.
    pub sync: SyncMode,
    /// Distinct states visited.
    pub states: usize,
    /// Complete interleavings reaching the final state.
    pub complete_runs: usize,
    /// Set when the state budget ran out before the space was covered.
    pub truncated: bool,
    /// First failure found, if any.
    pub failure: Option<ExploreFailure>,
}

impl ExploreOutcome {
    /// `true` when the whole space was covered and every interleaving
    /// conformed. A truncated run is *not* ok — a pass must mean the
    /// space was actually exhausted.
    pub fn ok(&self) -> bool {
        self.failure.is_none() && !self.truncated
    }

    /// One-line summary for harness tables.
    pub fn summary(&self) -> String {
        match &self.failure {
            Some(f) => {
                let what = match &f.kind {
                    FailureKind::Deadlock(d) => format!("deadlock ({} blocked)", d.blocked.len()),
                    FailureKind::Mismatch(m) => format!("{} mismatches", m.len()),
                    FailureKind::StrandedSignals(s) => format!("{} stranded signals", s.len()),
                };
                format!(
                    "{what} after {} states, trace len {}",
                    self.states,
                    f.trace.len()
                )
            }
            None if self.truncated => format!("truncated at {} states", self.states),
            None => format!(
                "ok ({} states, {} complete runs, {})",
                self.states,
                self.complete_runs,
                self.sync.name()
            ),
        }
    }
}

struct Frame {
    m: Machine,
    enabled: Vec<usize>,
    next: usize,
    led_by: Option<usize>,
}

/// Depth-first enumeration of every interleaving of `sched` under
/// `sync`, memoised on the functional state hash. Each complete run is
/// checked against `spec` and the all-slots-clear invariant; any wedged
/// state is reported as a deadlock with its reproducing trace.
pub fn explore_exhaustive(
    sched: &CommSchedule,
    sync: SyncMode,
    spec: &CollectiveSpec,
    cfg: &ModelConfig,
) -> ExploreOutcome {
    let prog = Program::lower(sched, sync, cfg);
    let exp = prog.expectation(spec);
    let mut visited: WordSet<u64> = WordSet::default();
    let mut complete_runs = 0usize;
    let mut truncated = false;

    let m0 = Machine::new(&prog);
    let trace_of = |stack: &[Frame], last: usize| -> Vec<usize> {
        let mut t: Vec<usize> = stack.iter().filter_map(|f| f.led_by).collect();
        t.push(last);
        t
    };

    let mut stack = Vec::new();
    if !m0.all_done(&prog) {
        let enabled = m0.enabled(&prog);
        if enabled.is_empty() {
            let info = m0.deadlock_info(&prog);
            return ExploreOutcome {
                sync: prog.sync,
                states: 1,
                complete_runs: 0,
                truncated: false,
                failure: Some(ExploreFailure {
                    kind: FailureKind::Deadlock(info),
                    trace: Vec::new(),
                }),
            };
        }
        visited.insert(m0.state_hash());
        stack.push(Frame {
            m: m0,
            enabled,
            next: 0,
            led_by: None,
        });
    } else {
        complete_runs = 1;
    }

    while let Some(top) = stack.last_mut() {
        if top.next >= top.enabled.len() {
            stack.pop();
            continue;
        }
        let pe = top.enabled[top.next];
        top.next += 1;
        let mut m = top.m.clone();
        m.step(&prog, pe, None);

        if m.all_done(&prog) {
            complete_runs += 1;
            let stranded = m.stranded_slots();
            if !stranded.is_empty() {
                let trace = trace_of(&stack, pe);
                return failure_outcome(
                    &prog,
                    visited.len(),
                    complete_runs,
                    FailureKind::StrandedSignals(stranded),
                    trace,
                );
            }
            let mismatches = compare(&m, &exp);
            if !mismatches.is_empty() {
                let trace = trace_of(&stack, pe);
                return failure_outcome(
                    &prog,
                    visited.len(),
                    complete_runs,
                    FailureKind::Mismatch(mismatches),
                    trace,
                );
            }
            continue;
        }

        if !visited.insert(m.state_hash()) {
            continue;
        }
        if visited.len() > MAX_STATES {
            truncated = true;
            break;
        }
        let enabled = m.enabled(&prog);
        if enabled.is_empty() {
            let info = m.deadlock_info(&prog);
            let trace = trace_of(&stack, pe);
            return failure_outcome(
                &prog,
                visited.len(),
                complete_runs,
                FailureKind::Deadlock(info),
                trace,
            );
        }
        stack.push(Frame {
            m,
            enabled,
            next: 0,
            led_by: Some(pe),
        });
    }

    ExploreOutcome {
        sync: prog.sync,
        states: visited.len(),
        complete_runs,
        truncated,
        failure: None,
    }
}

fn failure_outcome(
    prog: &Program,
    states: usize,
    complete_runs: usize,
    kind: FailureKind,
    trace: Vec<usize>,
) -> ExploreOutcome {
    ExploreOutcome {
        sync: prog.sync,
        states,
        complete_runs,
        truncated: false,
        failure: Some(ExploreFailure { kind, trace }),
    }
}

/// Replay a recorded failure trace and return the resulting report —
/// the reproducibility half of the explorer's contract: a failure is
/// identified by `(schedule, sync, config, trace)` alone.
pub fn replay_trace(
    sched: &CommSchedule,
    sync: SyncMode,
    spec: &CollectiveSpec,
    cfg: &ModelConfig,
    trace: &[usize],
) -> ConformanceReport {
    let prog = Program::lower(sched, sync, cfg);
    let mut i = 0usize;
    crate::collectives::verify::run_with(&prog, spec, |enabled| {
        let pe = trace.get(i).copied().unwrap_or(enabled[0]);
        i += 1;
        if enabled.contains(&pe) {
            pe
        } else {
            enabled[0]
        }
    })
}

// ---------------------------------------------------------------------------
// Mutation harness.
// ---------------------------------------------------------------------------

/// One schedule mutation: a single dropped or reordered dependency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Move `stages[stage].ops[op]` into the previous stage, erasing the
    /// inter-stage dependency edge that ordered it.
    Hoist {
        /// Stage the op is hoisted out of.
        stage: usize,
        /// Op index within that stage.
        op: usize,
    },
    /// Swap adjacent stages `stage` and `stage + 1`, reversing every
    /// dependency between them.
    SwapStages {
        /// The earlier of the two swapped stages.
        stage: usize,
    },
    /// Concatenate stage `stage + 1` onto `stage`, dropping the barrier
    /// or signal edges between them.
    MergeStages {
        /// The stage merged into.
        stage: usize,
    },
    /// Clear a stage's `deferred_fold` flag, dropping the read-ack edges
    /// that let partners exchange segments symmetrically.
    Undefer {
        /// The deferred stage.
        stage: usize,
    },
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mutation::Hoist { stage, op } => write!(f, "hoist stage {stage} op {op}"),
            Mutation::SwapStages { stage } => write!(f, "swap stages {stage}/{}", stage + 1),
            Mutation::MergeStages { stage } => write!(f, "merge stages {stage}/{}", stage + 1),
            Mutation::Undefer { stage } => write!(f, "undefer stage {stage}"),
        }
    }
}

/// Apply `m` to a copy of `sched`.
pub fn apply_mutation(sched: &CommSchedule, m: &Mutation) -> CommSchedule {
    let mut out = sched.clone();
    match *m {
        Mutation::Hoist { stage, op } => {
            let moved = out.stages[stage].ops.remove(op);
            out.stages[stage - 1].ops.push(moved);
        }
        Mutation::SwapStages { stage } => out.stages.swap(stage, stage + 1),
        Mutation::MergeStages { stage } => {
            let tail = out.stages.remove(stage + 1);
            out.stages[stage].ops.extend(tail.ops);
        }
        Mutation::Undefer { stage } => out.stages[stage].deferred_fold = false,
    }
    out
}

#[derive(Clone, Copy)]
struct Region {
    space: Space,
    pe: usize,
    start: usize,
    end: usize,
    write: bool,
    /// A fold's read-modify-write accumulator window. Two accumulator
    /// accesses commute (multiset merge), so acc↔acc overlap is not an
    /// ordering dependency.
    acc: bool,
}

impl Region {
    fn overlaps(&self, o: &Region) -> bool {
        self.space == o.space && self.pe == o.pe && self.start < o.end && o.start < self.end
    }
}

/// Element regions one op touches, conservatively spanning strided
/// windows and tagged read/write/accumulator: the symmetric window on
/// the far PE, and the issuer's end in the op's local space (a fold's
/// landing buffer is private scratch and orders nothing).
fn accesses(op: &TransferOp) -> [Region; 2] {
    let push = is_put_kind(op.kind);
    let (local_at, remote_pe, remote_at) = op.ends();
    let (local, me, acc) = (op.kind.local_space(), op.issuer(), op.is_fold());
    let reg = |space, pe, start: usize, write, acc| Region {
        space,
        pe,
        start,
        end: start + op.span(),
        write,
        acc,
    };
    [
        reg(Space::Sym, remote_pe, remote_at, push, false),
        reg(local, me, local_at, !push, acc),
    ]
}

/// `true` when reordering `a` against `b` can change an outcome: some
/// write of one overlaps an access of the other, excluding
/// accumulator↔accumulator pairs — folds into a shared destination
/// commute under the multiset merge, so swapping two such stages yields
/// an equivalent schedule, not a broken one.
fn conflicts(a: &TransferOp, b: &TransferOp) -> bool {
    if a.nelems == 0 || b.nelems == 0 {
        return false;
    }
    let ra = accesses(a);
    let rb = accesses(b);
    ra.iter().any(|x| {
        rb.iter()
            .any(|y| x.overlaps(y) && (x.write || y.write) && !(x.acc && y.acc))
    })
}

/// Derive the dependency-breaking mutants of `sched`. Only mutations
/// that sever a *real* cross-PE ordering edge are produced — a hoist or
/// merge whose conflicting ops share an issuer keeps program order and
/// would survive legitimately, so it is filtered out; a swap reverses
/// even same-issuer dependencies, so those stay in.
pub fn generate_mutations(sched: &CommSchedule) -> Vec<Mutation> {
    let mut out = Vec::new();
    let stages = &sched.stages;
    for s in 0..stages.len() {
        if s + 1 < stages.len() {
            // Two adjacent deferred stages are butterfly dimensions:
            // each is a complete symmetric exchange, so their order only
            // permutes merge operands — swapping them is equivalent.
            let both_deferred = stages[s].deferred_fold && stages[s + 1].deferred_fold;
            let cross = stages[s]
                .ops
                .iter()
                .any(|a| stages[s + 1].ops.iter().any(|b| conflicts(a, b)));
            if cross && !both_deferred {
                out.push(Mutation::SwapStages { stage: s });
            }
            if !stages[s].deferred_fold && !stages[s + 1].deferred_fold {
                let cross_pe = stages[s].ops.iter().any(|a| {
                    stages[s + 1]
                        .ops
                        .iter()
                        .any(|b| a.issuer() != b.issuer() && conflicts(a, b))
                });
                if cross_pe {
                    out.push(Mutation::MergeStages { stage: s });
                }
            }
        }
        if s > 0 && !stages[s].deferred_fold && !stages[s - 1].deferred_fold {
            for (oi, op) in stages[s].ops.iter().enumerate() {
                let dep = stages[s - 1]
                    .ops
                    .iter()
                    .any(|b| b.issuer() != op.issuer() && conflicts(op, b));
                if dep {
                    out.push(Mutation::Hoist { stage: s, op: oi });
                }
            }
        }
        if stages[s].deferred_fold {
            let ops = &stages[s].ops;
            let cross = ops.iter().enumerate().any(|(i, a)| {
                ops.iter()
                    .enumerate()
                    .any(|(j, b)| i != j && a.issuer() != b.issuer() && conflicts(a, b))
            });
            if cross {
                out.push(Mutation::Undefer { stage: s });
            }
        }
    }
    out
}

/// Verdict on one `(mutant, sync mode)` pair.
pub struct MutationOutcome {
    /// The mutation applied.
    pub mutation: Mutation,
    /// Sync mode the mutant was checked under.
    pub sync: SyncMode,
    /// Whether any oracle plane flagged it.
    pub killed: bool,
    /// Which plane killed it (or why it survived).
    pub how: String,
}

/// Aggregate harness result.
pub struct MutationReport {
    /// Every `(mutant, mode)` verdict.
    pub outcomes: Vec<MutationOutcome>,
}

impl MutationReport {
    /// Fraction of `(mutant, mode)` pairs the oracle flagged.
    pub fn kill_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        let killed = self.outcomes.iter().filter(|o| o.killed).count();
        killed as f64 / self.outcomes.len() as f64
    }

    /// The surviving pairs, for justification in harness output.
    pub fn survivors(&self) -> impl Iterator<Item = &MutationOutcome> {
        self.outcomes.iter().filter(|o| !o.killed)
    }
}

/// Run every generated mutant of `sched` through the oracle under each
/// mode in `modes`: first the canonical vector-clock run, then — if that
/// passes — exhaustive exploration. A mutant is killed when either plane
/// flags it.
pub fn run_mutation_harness(
    sched: &CommSchedule,
    spec: &CollectiveSpec,
    cfg: &ModelConfig,
    modes: &[SyncMode],
) -> MutationReport {
    let mut outcomes = Vec::new();
    for mutation in generate_mutations(sched) {
        let mutant = apply_mutation(sched, &mutation);
        for &sync in modes {
            let canonical = check_schedule(&mutant, sync, spec, cfg);
            if !canonical.ok() {
                outcomes.push(MutationOutcome {
                    mutation: mutation.clone(),
                    sync,
                    killed: true,
                    how: format!("canonical: {}", canonical.summary()),
                });
                continue;
            }
            let explored = explore_exhaustive(&mutant, sync, spec, cfg);
            let (killed, how) = match (&explored.failure, explored.truncated) {
                (Some(_), _) => (true, format!("explored: {}", explored.summary())),
                (None, true) => (false, format!("survived: {}", explored.summary())),
                (None, false) => (false, format!("survived: {}", explored.summary())),
            };
            outcomes.push(MutationOutcome {
                mutation: mutation.clone(),
                sync,
                killed,
                how,
            });
        }
    }
    MutationReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::schedule::{broadcast_binomial, reduce_binomial, Stage};
    use crate::fabric::CollectiveKind;

    #[test]
    fn exhaustive_passes_correct_generators() {
        let cfg = ModelConfig::default();
        for n in 2..=4usize {
            for sync in SyncMode::CONCRETE {
                let sched = broadcast_binomial(n, 0, 2, 1);
                let spec = CollectiveSpec::Broadcast {
                    root: 0,
                    nelems: 2,
                    stride: 1,
                };
                let out = explore_exhaustive(&sched, sync, &spec, &cfg);
                assert!(out.ok(), "bcast n={n} {}: {}", sync.name(), out.summary());

                let red = reduce_binomial(n, 0, 2, 1);
                let rspec = CollectiveSpec::ReduceTree {
                    root: 0,
                    nelems: 2,
                    stride: 1,
                };
                let out = explore_exhaustive(&red, sync, &rspec, &cfg);
                assert!(out.ok(), "reduce n={n} {}: {}", sync.name(), out.summary());
            }
        }
    }

    #[test]
    fn explorer_finds_and_replays_ordering_bug() {
        // Merge both stages of a 4-PE binomial broadcast: some
        // interleaving lets the forwarder send stale data.
        let good = broadcast_binomial(4, 0, 1, 1);
        let mut ops = Vec::new();
        for st in &good.stages {
            ops.extend(st.ops.iter().copied());
        }
        let bad = CommSchedule {
            n_pes: 4,
            kind: CollectiveKind::Broadcast,
            stages: vec![Stage::new(ops)],
        };
        let spec = CollectiveSpec::Broadcast {
            root: 0,
            nelems: 1,
            stride: 1,
        };
        let cfg = ModelConfig::default();
        let out = explore_exhaustive(&bad, SyncMode::Barrier, &spec, &cfg);
        let failure = out
            .failure
            .expect("merged stages must fail some interleaving");
        // Determinism: a second exploration finds the identical trace.
        let again = explore_exhaustive(&bad, SyncMode::Barrier, &spec, &cfg);
        assert_eq!(failure.trace, again.failure.expect("still fails").trace);
        // Reproducibility: replaying the trace exhibits the failure too.
        let replay = replay_trace(&bad, SyncMode::Barrier, &spec, &cfg, &failure.trace);
        assert!(!replay.ok(), "replayed trace must reproduce the failure");
    }

    #[test]
    fn random_priority_is_deterministic() {
        let sched = broadcast_binomial(4, 0, 3, 1);
        let spec = CollectiveSpec::Broadcast {
            root: 0,
            nelems: 3,
            stride: 1,
        };
        let cfg = ModelConfig::default();
        let run = |seed: u64| {
            let mut s = RandomPriority::new(seed, 4);
            check_with_scheduler(&sched, SyncMode::Signaled, &spec, &cfg, &mut s)
        };
        let (a, b) = (run(7), run(7));
        assert!(a.ok() && b.ok());
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn mutation_harness_kills_all_broadcast_mutants() {
        let sched = broadcast_binomial(4, 0, 2, 1);
        let spec = CollectiveSpec::Broadcast {
            root: 0,
            nelems: 2,
            stride: 1,
        };
        let report =
            run_mutation_harness(&sched, &spec, &ModelConfig::default(), &SyncMode::CONCRETE);
        assert!(!report.outcomes.is_empty(), "no mutants generated");
        if let Some(o) = report.survivors().next() {
            panic!(
                "survivor: {} under {}: {}",
                o.mutation,
                o.sync.name(),
                o.how
            );
        }
        assert_eq!(report.kill_rate(), 1.0);
    }
}
