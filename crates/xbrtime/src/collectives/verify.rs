//! The schedule conformance oracle — a pure-data interpreter for lowered
//! collective [`Plan`]s against an abstract provenance memory model.
//!
//! [`plan::execute_plan`](crate::collectives::plan::execute_plan) runs a
//! plan's [`PlanStep`]s on the fabric; this module runs the *same steps*
//! on an abstract machine where every element holds the sorted multiset
//! of `(space, pe, index)` atoms that produced it, instead of numbers.
//! Three checks fall out:
//!
//! * **final-buffer equivalence** — the machine's final state is compared
//!   against a *dense single-PE reference* computed directly from the
//!   collective's semantics ([`CollectiveSpec`]), with folds modelled as
//!   multiset union so any associativity-order the schedule picks is
//!   accepted and any lost/duplicated contribution is not;
//! * **happens-before** — a vector-clock plane orders steps by program
//!   order, signal post→wait edges (per *chunk* in pipelined mode) and
//!   barriers, and flags any read of an element whose producing write is
//!   not ordered before it;
//! * **write races** — the same plane flags unordered same-destination
//!   writes and writes that overtake an unacknowledged read.
//!
//! There is no second copy of the signalling protocol here, and no second
//! step vocabulary: a schedule is lowered by
//! [`plan::lower`](crate::collectives::plan::lower)'s own loop and the
//! machine steps the emitted [`PlanStep`]s themselves (stage markers drop
//! out), so a dependency the lowering forgot — or a plan broken by hand
//! ([`check_plan`]) — shows up as a model violation in the artefact the
//! fabric would execute. The deterministic interleaving explorer in
//! [`explore`](crate::collectives::explore) replays these programs under
//! pluggable schedulers, up to exhaustive DFS over all interleavings.

use crate::collectives::plan::{lower_with, Origin, Plan, PlanStep};
use crate::collectives::policy::{pipeline_chunks, SyncMode, SLOTS_PER_OP};
use crate::collectives::schedule::CommSchedule;
use crate::collectives::vrank::logical_rank;
use crate::fabric::span;

// ---------------------------------------------------------------------------
// The provenance value domain.
// ---------------------------------------------------------------------------

pub use crate::collectives::plan::Space;

/// An element value: the sorted multiset of origin atoms that produced
/// it. Copies replace, folds merge — multiset union keeps a duplicated
/// contribution visible instead of absorbing it.
pub type Val = Vec<u32>;

/// Origin atom `(space, pe, idx)` packed into 32 bits.
pub fn atom(space: Space, pe: usize, idx: usize) -> u32 {
    assert!(pe < 1 << 10, "provenance model supports < 1024 PEs");
    assert!(idx < 1 << 20, "provenance model supports < 2^20 elements");
    let s = match space {
        Space::Sym => 0u32,
        Space::LocalSrc => 1,
        Space::LocalDst => 2,
        Space::Landing => 3,
    };
    (s << 30) | ((pe as u32) << 20) | idx as u32
}

/// Multiset union of two sorted atom lists.
fn merge(a: &Val, b: &Val) -> Val {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

// ---------------------------------------------------------------------------
// Compiled per-PE step programs.
// ---------------------------------------------------------------------------

/// Coordinates of the schedule op a step belongs to, for reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRef {
    /// Stage index in the schedule.
    pub stage: usize,
    /// Op index within the stage.
    pub op: usize,
    /// Pipeline chunk, when the op was chunked.
    pub chunk: Option<usize>,
}

impl std::fmt::Display for OpRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stage {} op {}", self.stage, self.op)?;
        if let Some(c) = self.chunk {
            write!(f, " chunk {c}")?;
        }
        Ok(())
    }
}

/// A strided element window in one PE's copy of one space.
#[derive(Clone, Copy, Debug)]
struct Loc {
    space: Space,
    pe: usize,
    at: usize,
    nelems: usize,
    stride: usize,
}

impl Loc {
    fn new(space: Space, pe: usize, at: u32, nelems: u32, stride: u32) -> Self {
        Loc {
            space,
            pe,
            at: at as usize,
            nelems: nelems as usize,
            stride: stride as usize,
        }
    }
}

/// A lowered [`Plan`]'s per-PE steps (stage markers dropped) with the
/// schedule op each one serves, plus the buffer geometry the abstract
/// machine needs.
pub struct Program {
    /// World size.
    pub n_pes: usize,
    /// The concrete discipline the plan was lowered under (after `Auto`
    /// resolution).
    pub sync: SyncMode,
    /// Per PE: each step and its op (`None` for barriers and drain waits,
    /// and throughout when the plan came without origins).
    steps: Vec<Vec<(PlanStep, Option<OpRef>)>>,
    /// Signal slots one episode occupies. The lowering gives every
    /// (poster, waiter) pair a slot index of its own, so the machine keeps
    /// one flag per index rather than a table per PE.
    n_slots: usize,
    sym_len: usize,
    lsrc_len: usize,
    ldst_len: usize,
    landing_len: usize,
}

impl Program {
    /// A program of `n_pes` empty step lists, to be filled by
    /// [`Program::push`] and completed with the plan's header.
    fn new(n_pes: usize) -> Self {
        Program {
            n_pes,
            sync: SyncMode::Barrier,
            steps: vec![Vec::new(); n_pes],
            n_slots: 0,
            sym_len: 0,
            lsrc_len: 0,
            ldst_len: 0,
            landing_len: 0,
        }
    }

    /// Append plan step `ps` to PE `me`'s program (stage markers are
    /// dropped). `at` names the schedule op behind it.
    fn push(&mut self, me: usize, ps: &PlanStep, at: Origin) {
        if matches!(ps, PlanStep::StageStart { .. } | PlanStep::StageEnd { .. }) {
            return;
        }
        self.cover(ps);
        let op = at.map(|(stage, op, chunk)| OpRef { stage, op, chunk });
        self.steps[me].push((*ps, op));
    }

    /// Take `plan`'s steps as they are. A bare plan has no schedule
    /// coordinates, so violations carry no op names.
    fn from_plan(plan: &Plan) -> Self {
        let mut prog = Program::new(plan.n_pes);
        for (me, pe_prog) in plan.per_pe.iter().enumerate() {
            for ps in &pe_prog.steps {
                prog.push(me, ps, None);
            }
        }
        prog.sync = plan.sync;
        prog.n_slots = plan.n_slots;
        prog
    }

    /// Grow the buffer geometry to hold everything `step` touches.
    fn cover(&mut self, step: &PlanStep) {
        let mut grow = |space: Space, end: usize| {
            let len = match space {
                Space::Sym => &mut self.sym_len,
                Space::LocalSrc => &mut self.lsrc_len,
                Space::LocalDst => &mut self.ldst_len,
                Space::Landing => &mut self.landing_len,
            };
            *len = (*len).max(end);
        };
        match *step {
            PlanStep::Copy {
                local,
                local_at,
                remote_at,
                nelems,
                stride,
                ..
            } => {
                let len = span(nelems as usize, stride as usize);
                grow(local, local_at as usize + len);
                grow(Space::Sym, remote_at as usize + len);
            }
            PlanStep::Fold {
                dst,
                dst_at,
                nelems,
                stride,
            } => {
                let len = span(nelems as usize, stride as usize);
                grow(dst, dst_at as usize + len);
                grow(Space::Landing, len);
            }
            _ => {}
        }
    }

    /// Lower `sched` under `sync` with [`lower_with`] — the runtime's own
    /// lowering loop, with `cfg`'s chunk rule — recording each step as it
    /// is emitted, together with its schedule coordinates.
    pub(crate) fn lower(sched: &CommSchedule, sync: SyncMode, cfg: &ModelConfig) -> Self {
        let mut prog = Program::new(sched.n_pes);
        let plan = lower_with(
            sched,
            sync,
            cfg.elem_bytes,
            |op| match cfg.force_chunks {
                Some(k) => k.clamp(1, SLOTS_PER_OP - 2).min(op.nelems.max(1)),
                None => pipeline_chunks(op.nelems * cfg.elem_bytes),
            },
            |me, ps, at| prog.push(me, ps, at),
        );
        prog.sync = plan.sync;
        prog.n_slots = plan.n_slots;
        prog
    }

    /// The dense reference sized to this program's buffer geometry.
    pub fn expectation(&self, spec: &CollectiveSpec) -> Expectation {
        spec.expected(self.n_pes, self.sym_len, self.ldst_len)
    }
}

/// Knobs for lowering a schedule into the abstract machine.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Element size driving `Auto` resolution and pipeline chunking
    /// (the runtime's `size_of::<T>()`).
    pub elem_bytes: usize,
    /// When set, pipelined put-kind ops are split into this many chunks
    /// regardless of payload size — exercising per-chunk dependency edges
    /// at model-checkable payload sizes (real chunking needs ≥ 16 KiB
    /// transfers, far too many elements for exhaustive exploration).
    pub force_chunks: Option<usize>,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            elem_bytes: 8,
            force_chunks: None,
        }
    }
}

// ---------------------------------------------------------------------------
// The abstract machine.
// ---------------------------------------------------------------------------

/// Functional machine state: buffers, signal slots, program counters.
/// Clones cheaply enough for DFS branching at model-checking sizes.
#[derive(Clone)]
pub struct Machine {
    sym: Vec<Vec<Val>>,
    lsrc: Vec<Vec<Val>>,
    ldst: Vec<Vec<Val>>,
    landing: Vec<Vec<Val>>,
    sig: Vec<u8>,
    pc: Vec<usize>,
}

/// Per-element access metadata for the vector-clock plane.
#[derive(Clone)]
struct Access {
    w_pe: usize,
    w_clk: u64,
    w_ref: Option<OpRef>,
    r_clk: Vec<u64>,
    r_ref: Vec<Option<OpRef>>,
}

/// The happens-before / race-checking plane, carried alongside the
/// functional state on single-interleaving runs (the exhaustive
/// explorer steps the functional state alone and passes `None`).
pub struct VcPlane {
    clocks: Vec<Vec<u64>>,
    slot_clocks: Vec<Option<Vec<u64>>>,
    sym_acc: Vec<Vec<Access>>,
    violations: Vec<Violation>,
}

/// A dependency defect the oracle detected.
#[derive(Clone, Debug)]
pub enum Violation {
    /// A step read an element whose producing write is not ordered
    /// before the read by any signal/barrier edge.
    ReadBeforeSignal {
        /// `(pe, element index)` of the racy element.
        elem: (usize, usize),
        /// The write that produced the value (`None` = initial value —
        /// cannot happen in practice).
        writer: Option<OpRef>,
        /// The racing read.
        reader: Option<OpRef>,
    },
    /// Two writes to the same element with no ordering edge between them.
    WriteRace {
        /// `(pe, element index)` of the racy element.
        elem: (usize, usize),
        /// The earlier (overwritten) write.
        first: Option<OpRef>,
        /// The unordered overwriting write.
        second: Option<OpRef>,
    },
    /// A write overtook a peer's read of the same element (the invariant
    /// deferred-fold acks exist to protect).
    WriteAfterRead {
        /// `(pe, element index)` of the racy element.
        elem: (usize, usize),
        /// The unacknowledged read.
        reader: Option<OpRef>,
        /// The overtaking write.
        writer: Option<OpRef>,
    },
    /// A signal slot was posted while already raised (slot collision —
    /// two ops sharing a slot, or a re-post before the consume).
    DoublePost {
        /// The colliding slot.
        slot: usize,
        /// The op that re-posted.
        op: Option<OpRef>,
    },
    /// A slot was still raised when the collective closed (the runtime
    /// relies on an all-zero table between collectives).
    StrandedSignal {
        /// The stranded slot.
        slot: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = |r: &Option<OpRef>| match r {
            Some(r) => r.to_string(),
            None => "initial/drain".to_string(),
        };
        match self {
            Violation::ReadBeforeSignal {
                elem,
                writer,
                reader,
            } => write!(
                f,
                "read-before-signal at PE {} elem {}: {} read before {} signaled",
                elem.0,
                elem.1,
                name(reader),
                name(writer)
            ),
            Violation::WriteRace {
                elem,
                first,
                second,
            } => write!(
                f,
                "write race at PE {} elem {}: {} and {} unordered",
                elem.0,
                elem.1,
                name(first),
                name(second)
            ),
            Violation::WriteAfterRead {
                elem,
                reader,
                writer,
            } => write!(
                f,
                "write-after-read at PE {} elem {}: {} overtook read by {}",
                elem.0,
                elem.1,
                name(writer),
                name(reader)
            ),
            Violation::DoublePost { slot, op } => {
                write!(f, "double post on slot {} by {}", slot, name(op))
            }
            Violation::StrandedSignal { slot } => {
                write!(f, "slot {slot} still raised at collective close")
            }
        }
    }
}

/// A final-buffer element that disagreed with the dense reference.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Buffer the element lives in.
    pub space: Space,
    /// Owning PE.
    pub pe: usize,
    /// Element index.
    pub idx: usize,
    /// The reference value.
    pub expected: Val,
    /// What the schedule produced.
    pub got: Val,
}

/// Where each PE was parked when no step was enabled.
#[derive(Clone, Debug)]
pub struct DeadlockInfo {
    /// Per blocked PE: `(rank, awaited slot)` — `None` = at the barrier.
    pub blocked: Vec<(usize, Option<usize>)>,
}

/// Everything one oracle run reports.
pub struct ConformanceReport {
    /// The concrete sync mode the schedule was modelled under.
    pub sync: SyncMode,
    /// Steps executed before completion or deadlock.
    pub steps: usize,
    /// Happens-before and race findings (interleaving-independent: any
    /// single complete run exposes them).
    pub violations: Vec<Violation>,
    /// Final-buffer disagreements with the dense reference.
    pub mismatches: Vec<Mismatch>,
    /// Set when the programs wedged before completing.
    pub deadlock: Option<DeadlockInfo>,
}

impl ConformanceReport {
    /// `true` when the schedule passed every check.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.mismatches.is_empty() && self.deadlock.is_none()
    }

    /// One-line summary for harness tables.
    pub fn summary(&self) -> String {
        if self.ok() {
            return format!("ok ({} steps, {})", self.steps, self.sync.name());
        }
        let mut parts = Vec::new();
        if let Some(d) = &self.deadlock {
            parts.push(format!("deadlock ({} blocked)", d.blocked.len()));
        }
        if !self.violations.is_empty() {
            parts.push(format!("{} violations", self.violations.len()));
        }
        if !self.mismatches.is_empty() {
            parts.push(format!("{} mismatches", self.mismatches.len()));
        }
        parts.join(", ")
    }
}

impl Machine {
    /// Fresh machine for `prog`: every element holds its own singleton
    /// origin atom.
    pub fn new(prog: &Program) -> Self {
        let init = |space: Space, len: usize| -> Vec<Vec<Val>> {
            (0..prog.n_pes)
                .map(|pe| (0..len).map(|i| vec![atom(space, pe, i)]).collect())
                .collect()
        };
        Machine {
            sym: init(Space::Sym, prog.sym_len),
            lsrc: init(Space::LocalSrc, prog.lsrc_len),
            ldst: init(Space::LocalDst, prog.ldst_len),
            landing: vec![vec![Vec::new(); prog.landing_len]; prog.n_pes],
            sig: vec![0; prog.n_slots],
            pc: vec![0; prog.n_pes],
        }
    }

    /// `true` when every PE ran its program to completion.
    pub fn all_done(&self, prog: &Program) -> bool {
        self.pc
            .iter()
            .enumerate()
            .all(|(pe, &pc)| pc >= prog.steps[pe].len())
    }

    /// Ranks whose next step can execute now. Barrier steps are enabled
    /// only when *every* PE is parked at its barrier, and then only on
    /// rank 0 (the rendezvous is one transition, so offering it once
    /// avoids spurious DFS branching). A finished PE never arrives, as on
    /// the fabric: a PE with one barrier fewer than its peers deadlocks
    /// them rather than joining their next rendezvous.
    pub fn enabled(&self, prog: &Program) -> Vec<usize> {
        let at_barrier = |pe: usize| {
            matches!(
                prog.steps[pe].get(self.pc[pe]),
                Some((PlanStep::Barrier, _))
            )
        };
        let all_at_barrier = (0..prog.n_pes).all(at_barrier);
        let mut out = Vec::new();
        for pe in 0..prog.n_pes {
            let Some((step, _)) = prog.steps[pe].get(self.pc[pe]) else {
                continue;
            };
            let on = match *step {
                PlanStep::Barrier => all_at_barrier && pe == 0,
                PlanStep::Wait { slot } => self.sig[slot as usize] != 0,
                _ => true,
            };
            if on {
                out.push(pe);
            }
        }
        out
    }

    /// Diagnostic for a wedged state: where every unfinished PE is stuck.
    pub fn deadlock_info(&self, prog: &Program) -> DeadlockInfo {
        let mut blocked = Vec::new();
        for pe in 0..prog.n_pes {
            match prog.steps[pe].get(self.pc[pe]) {
                Some((PlanStep::Wait { slot }, _)) => blocked.push((pe, Some(*slot as usize))),
                Some((PlanStep::Barrier, _)) => blocked.push((pe, None)),
                _ => {}
            }
        }
        DeadlockInfo { blocked }
    }

    fn read_loc(
        &mut self,
        loc: &Loc,
        vc: &mut Option<&mut VcPlane>,
        by: usize,
        r: Option<OpRef>,
    ) -> Vec<Val> {
        let mut out = Vec::with_capacity(loc.nelems);
        for j in 0..loc.nelems {
            let idx = loc.at + j * loc.stride;
            let v = match loc.space {
                Space::Sym => {
                    if let Some(vc) = vc.as_deref_mut() {
                        vc.read(by, loc.pe, idx, r);
                    }
                    self.sym[loc.pe][idx].clone()
                }
                Space::LocalSrc => self.lsrc[loc.pe][idx].clone(),
                Space::LocalDst => self.ldst[loc.pe][idx].clone(),
                Space::Landing => self.landing[loc.pe][idx].clone(),
            };
            out.push(v);
        }
        out
    }

    fn write_loc(
        &mut self,
        loc: &Loc,
        vals: Vec<Val>,
        vc: &mut Option<&mut VcPlane>,
        by: usize,
        r: Option<OpRef>,
    ) {
        for (j, v) in vals.into_iter().enumerate() {
            let idx = loc.at + j * loc.stride;
            match loc.space {
                Space::Sym => {
                    if let Some(vc) = vc.as_deref_mut() {
                        vc.write(by, loc.pe, idx, r);
                    }
                    self.sym[loc.pe][idx] = v;
                }
                Space::LocalSrc => self.lsrc[loc.pe][idx] = v,
                Space::LocalDst => self.ldst[loc.pe][idx] = v,
                Space::Landing => self.landing[loc.pe][idx] = v,
            }
        }
    }

    /// Execute PE `pe`'s next step (caller guarantees it is enabled).
    pub fn step(&mut self, prog: &Program, pe: usize, mut vc: Option<&mut VcPlane>) {
        let (step, op) = prog.steps[pe][self.pc[pe]];
        if let Some(vc) = vc.as_deref_mut() {
            vc.clocks[pe][pe] += 1;
        }
        match step {
            PlanStep::StageStart { .. } | PlanStep::StageEnd { .. } => {
                unreachable!("stage markers are dropped at Program::push")
            }
            PlanStep::Barrier => {
                // Global rendezvous: advance every PE parked here.
                if let Some(vc) = vc.as_deref_mut() {
                    let mut joined = vec![0u64; prog.n_pes];
                    for clk in &vc.clocks {
                        for (q, j) in joined.iter_mut().enumerate() {
                            *j = (*j).max(clk[q]);
                        }
                    }
                    for clk in vc.clocks.iter_mut() {
                        clk.clone_from(&joined);
                    }
                }
                for (q, pc) in self.pc.iter_mut().enumerate() {
                    debug_assert!(matches!(prog.steps[q][*pc].0, PlanStep::Barrier));
                    *pc += 1;
                }
                return;
            }
            PlanStep::Post { slot, .. } => {
                self.post(slot as usize, pe, op, &mut vc);
            }
            PlanStep::Wait { slot } => {
                let slot = slot as usize;
                debug_assert_ne!(self.sig[slot], 0, "stepped a blocked wait");
                self.sig[slot] = 0;
                if let Some(vc) = vc.as_deref_mut() {
                    if let Some(sc) = vc.slot_clocks[slot].take() {
                        for (q, v) in sc.iter().enumerate() {
                            vc.clocks[pe][q] = vc.clocks[pe][q].max(*v);
                        }
                    }
                }
            }
            // The signal rides in the same step as the copy, mirroring
            // put-with-signal semantics: the flag can never be observed
            // before the payload it covers.
            PlanStep::Copy {
                local,
                local_at,
                remote_at,
                nelems,
                stride,
                pe: peer,
                push,
                sig,
                ..
            } => {
                let mine = Loc::new(local, pe, local_at, nelems, stride);
                let theirs = Loc::new(Space::Sym, peer as usize, remote_at, nelems, stride);
                let (src, dst) = if push { (mine, theirs) } else { (theirs, mine) };
                let vals = self.read_loc(&src, &mut vc, pe, op);
                self.write_loc(&dst, vals, &mut vc, pe, op);
                if let Some(slot) = sig {
                    self.post(slot as usize, pe, op, &mut vc);
                }
            }
            PlanStep::Fold {
                dst,
                dst_at,
                nelems,
                stride,
            } => {
                let dst = Loc::new(dst, pe, dst_at, nelems, stride);
                let mut merged = Vec::with_capacity(dst.nelems);
                for j in 0..dst.nelems {
                    let idx = dst.at + j * dst.stride;
                    let cur = match dst.space {
                        Space::Sym => {
                            if let Some(vc) = vc.as_deref_mut() {
                                vc.read(pe, dst.pe, idx, op);
                            }
                            &self.sym[dst.pe][idx]
                        }
                        Space::LocalDst => &self.ldst[dst.pe][idx],
                        Space::LocalSrc | Space::Landing => {
                            unreachable!("fold into {:?}", dst.space)
                        }
                    };
                    merged.push(merge(cur, &self.landing[pe][j * dst.stride]));
                }
                self.write_loc(&dst, merged, &mut vc, pe, op);
            }
        }
        self.pc[pe] += 1;
    }

    fn post(&mut self, slot: usize, pe: usize, op: Option<OpRef>, vc: &mut Option<&mut VcPlane>) {
        if self.sig[slot] != 0 {
            if let Some(vc) = vc.as_deref_mut() {
                vc.violations.push(Violation::DoublePost { slot, op });
            }
        }
        self.sig[slot] = 1;
        if let Some(vc) = vc.as_deref_mut() {
            vc.slot_clocks[slot] = Some(vc.clocks[pe].clone());
        }
    }

    /// Signal slots still raised — the runtime requires an all-zero table
    /// at collective close, so a clean run returns an empty list.
    pub fn stranded_slots(&self) -> Vec<usize> {
        self.sig
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != 0)
            .map(|(slot, _)| slot)
            .collect()
    }

    /// Platform-independent FNV-1a hash of the functional state (used by
    /// the exhaustive explorer's visited-set).
    pub fn state_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for &pc in &self.pc {
            mix(pc as u64);
        }
        for &s in &self.sig {
            mix(s as u64);
        }
        for bufs in [&self.sym, &self.lsrc, &self.ldst, &self.landing] {
            for pe in bufs {
                for val in pe {
                    mix(0x5bd1_e995 ^ val.len() as u64);
                    for &a in val {
                        mix(a as u64);
                    }
                }
            }
        }
        h
    }
}

impl VcPlane {
    fn new(prog: &Program) -> Self {
        VcPlane {
            clocks: vec![vec![0; prog.n_pes]; prog.n_pes],
            slot_clocks: vec![None; prog.n_slots],
            sym_acc: (0..prog.n_pes)
                .map(|_| {
                    (0..prog.sym_len)
                        .map(|_| Access {
                            w_pe: 0,
                            w_clk: 0,
                            w_ref: None,
                            r_clk: vec![0; prog.n_pes],
                            r_ref: vec![None; prog.n_pes],
                        })
                        .collect()
                })
                .collect(),
            violations: Vec::new(),
        }
    }

    fn read(&mut self, by: usize, pe: usize, idx: usize, r: Option<OpRef>) {
        let acc = &mut self.sym_acc[pe][idx];
        if acc.w_clk > self.clocks[by][acc.w_pe] {
            self.violations.push(Violation::ReadBeforeSignal {
                elem: (pe, idx),
                writer: acc.w_ref,
                reader: r,
            });
        }
        acc.r_clk[by] = acc.r_clk[by].max(self.clocks[by][by]);
        acc.r_ref[by] = r;
    }

    fn write(&mut self, by: usize, pe: usize, idx: usize, r: Option<OpRef>) {
        let acc = &mut self.sym_acc[pe][idx];
        if acc.w_clk > self.clocks[by][acc.w_pe] {
            self.violations.push(Violation::WriteRace {
                elem: (pe, idx),
                first: acc.w_ref,
                second: r,
            });
        }
        for q in 0..self.clocks.len() {
            if q != by && acc.r_clk[q] > self.clocks[by][q] {
                self.violations.push(Violation::WriteAfterRead {
                    elem: (pe, idx),
                    reader: acc.r_ref[q],
                    writer: r,
                });
            }
        }
        acc.w_pe = by;
        acc.w_clk = self.clocks[by][by];
        acc.w_ref = r;
    }
}

// ---------------------------------------------------------------------------
// Dense single-PE references.
// ---------------------------------------------------------------------------

/// The collective a schedule claims to implement — everything the dense
/// reference needs to compute the expected final buffers directly, with
/// no schedule interpretation involved.
#[derive(Clone, Debug)]
pub enum CollectiveSpec {
    /// Every PE's `[0, nelems·stride)` window equals the root's initial
    /// window (flat or hierarchical broadcast).
    Broadcast {
        /// Source PE.
        root: usize,
        /// Elements broadcast.
        nelems: usize,
        /// Element stride.
        stride: usize,
    },
    /// The root's symmetric window holds the fold of every PE's initial
    /// window (tree reduction: `GetFold` into the symmetric buffer).
    ReduceTree {
        /// Destination PE.
        root: usize,
        /// Elements reduced.
        nelems: usize,
        /// Element stride.
        stride: usize,
    },
    /// The root's `local_dst` holds its own initial accumulator folded
    /// with every peer's symmetric contribution (linear reduction:
    /// `GetFoldInto`).
    ReduceLinear {
        /// Destination PE.
        root: usize,
        /// Elements reduced.
        nelems: usize,
        /// Element stride.
        stride: usize,
    },
    /// Virtual rank `v`'s PE holds the root's initial
    /// `[adj_disp[v], adj_disp[v+1])` segment.
    Scatter {
        /// Source PE.
        root: usize,
        /// Adjusted (virtual-rank-ordered) displacement table,
        /// `n_pes + 1` entries.
        adj_disp: Vec<usize>,
    },
    /// The root holds every virtual rank's initial segment.
    Gather {
        /// Destination PE.
        root: usize,
        /// Adjusted displacement table, `n_pes + 1` entries.
        adj_disp: Vec<usize>,
    },
    /// Every PE's window holds the fold of all PEs' initial windows.
    /// The reference is the dense multiset union, exact for any `n_pes`
    /// — the generators (recursive doubling, Rabenseifner, ring) fold
    /// their non-power-of-two tails internally.
    AllReduce {
        /// Elements reduced.
        nelems: usize,
    },
    /// Every PE's buffer holds PE `s`'s `local_src` at `[s·per_pe, …)`.
    AllGather {
        /// Elements contributed per PE.
        per_pe: usize,
    },
    /// Every PE's buffer holds PE `s`'s first `counts[s]` `local_src`
    /// elements at rank `s`'s prefix displacement — the irregular
    /// [`AllGather`](CollectiveSpec::AllGather), with zero-length blocks
    /// contributing (and constraining) nothing.
    AllGatherV {
        /// Elements contributed per PE, one entry per PE.
        counts: Vec<usize>,
    },
    /// PE `d`'s buffer holds PE `s`'s `local_src[d·per_pe ..]` at
    /// `[s·per_pe, …)`.
    AllToAll {
        /// Elements exchanged per PE pair.
        per_pe: usize,
    },
    /// Team broadcast: members hold the global root's window, and — the
    /// stronger half of the check — every non-member's buffer is
    /// untouched.
    TeamBroadcast {
        /// Global ranks of the team, in team-rank order.
        members: Vec<usize>,
        /// Global rank of the sending member.
        root_global: usize,
        /// Elements broadcast.
        nelems: usize,
    },
    /// Team reduction to team rank 0; non-members untouched.
    TeamReduce {
        /// Global ranks of the team, in team-rank order.
        members: Vec<usize>,
        /// Elements reduced.
        nelems: usize,
    },
    /// No final-buffer expectation — happens-before, race, deadlock and
    /// stranded-signal checking only.
    Unchecked,
}

/// Expected final buffers: `None` entries are unconstrained (scratch a
/// schedule may legitimately dirty), `Some(v)` must match exactly.
pub struct Expectation {
    sym: Vec<Vec<Option<Val>>>,
    ldst: Vec<Vec<Option<Val>>>,
}

impl CollectiveSpec {
    /// Symmetric/local-dst extents the spec itself constrains (a trivial
    /// schedule — e.g. `n_pes == 1` — may materialise smaller buffers
    /// than the collective's definition covers; the expectation is still
    /// checked over the full definition, with unmaterialised elements
    /// provably at their initial value).
    fn min_extent(&self) -> (usize, usize) {
        let win = |nelems: usize, stride: usize| {
            if nelems == 0 {
                0
            } else {
                (nelems - 1) * stride + 1
            }
        };
        match self {
            CollectiveSpec::Broadcast { nelems, stride, .. }
            | CollectiveSpec::ReduceTree { nelems, stride, .. } => (win(*nelems, *stride), 0),
            CollectiveSpec::ReduceLinear { nelems, stride, .. } => (0, win(*nelems, *stride)),
            CollectiveSpec::Scatter { adj_disp, .. } | CollectiveSpec::Gather { adj_disp, .. } => {
                (adj_disp.last().copied().unwrap_or(0), 0)
            }
            CollectiveSpec::AllReduce { nelems } => (*nelems, 0),
            CollectiveSpec::AllGatherV { counts } => (counts.iter().sum(), 0),
            // Sized against n_pes by the caller.
            CollectiveSpec::AllGather { .. } | CollectiveSpec::AllToAll { .. } => (0, 0),
            CollectiveSpec::TeamBroadcast { nelems, .. }
            | CollectiveSpec::TeamReduce { nelems, .. } => (*nelems, 0),
            CollectiveSpec::Unchecked => (0, 0),
        }
    }

    /// Compute the dense reference for a world of `n_pes` with the given
    /// buffer geometry — plain loops over the collective's definition.
    pub fn expected(&self, n_pes: usize, sym_len: usize, ldst_len: usize) -> Expectation {
        let (need_sym, need_ldst) = match self {
            CollectiveSpec::AllGather { per_pe } | CollectiveSpec::AllToAll { per_pe } => {
                (n_pes * per_pe, 0)
            }
            _ => self.min_extent(),
        };
        let sym_len = sym_len.max(need_sym);
        let ldst_len = ldst_len.max(need_ldst);
        let mut sym: Vec<Vec<Option<Val>>> = vec![vec![None; sym_len]; n_pes];
        let mut ldst: Vec<Vec<Option<Val>>> = vec![vec![None; ldst_len]; n_pes];
        match self {
            CollectiveSpec::Broadcast {
                root,
                nelems,
                stride,
            } => {
                for row in sym.iter_mut() {
                    for j in 0..*nelems {
                        let pos = j * stride;
                        row[pos] = Some(vec![atom(Space::Sym, *root, pos)]);
                    }
                }
            }
            CollectiveSpec::ReduceTree {
                root,
                nelems,
                stride,
            } => {
                for j in 0..*nelems {
                    let pos = j * stride;
                    let mut v: Val = (0..n_pes).map(|p| atom(Space::Sym, p, pos)).collect();
                    v.sort_unstable();
                    sym[*root][pos] = Some(v);
                }
            }
            CollectiveSpec::ReduceLinear {
                root,
                nelems,
                stride,
            } => {
                for j in 0..*nelems {
                    let pos = j * stride;
                    let mut v: Val = (0..n_pes)
                        .filter(|p| p != root)
                        .map(|p| atom(Space::Sym, p, pos))
                        .collect();
                    v.push(atom(Space::LocalDst, *root, pos));
                    v.sort_unstable();
                    ldst[*root][pos] = Some(v);
                }
            }
            CollectiveSpec::Scatter { root, adj_disp } => {
                for v in 0..n_pes {
                    let pe = logical_rank(v, *root, n_pes);
                    let seg = adj_disp[v]..adj_disp[v + 1];
                    for (pos, slot) in sym[pe].iter_mut().enumerate().take(seg.end).skip(seg.start)
                    {
                        *slot = Some(vec![atom(Space::Sym, *root, pos)]);
                    }
                }
            }
            CollectiveSpec::Gather { root, adj_disp } => {
                for v in 0..n_pes {
                    let pe = logical_rank(v, *root, n_pes);
                    let seg = adj_disp[v]..adj_disp[v + 1];
                    for (pos, slot) in sym[*root]
                        .iter_mut()
                        .enumerate()
                        .take(seg.end)
                        .skip(seg.start)
                    {
                        *slot = Some(vec![atom(Space::Sym, pe, pos)]);
                    }
                }
            }
            CollectiveSpec::AllReduce { nelems } => {
                // Shape-independent reference: every PE's window must end
                // as the multiset union of *all* PEs' initial windows.
                // Exact for any allreduce composition — butterfly,
                // reduce-then-broadcast, fused — at any world size
                // (folds normalise to sorted multisets, so combine order
                // never matters).
                for row in sym.iter_mut() {
                    for (pos, slot) in row.iter_mut().enumerate().take(*nelems) {
                        let mut v: Val = (0..n_pes).map(|p| atom(Space::Sym, p, pos)).collect();
                        v.sort_unstable();
                        *slot = Some(v);
                    }
                }
            }
            CollectiveSpec::AllGather { per_pe } => {
                for row in sym.iter_mut() {
                    for s in 0..n_pes {
                        for k in 0..*per_pe {
                            row[s * per_pe + k] = Some(vec![atom(Space::LocalSrc, s, k)]);
                        }
                    }
                }
            }
            CollectiveSpec::AllGatherV { counts } => {
                for row in sym.iter_mut() {
                    let mut disp = 0usize;
                    for (s, &c) in counts.iter().enumerate().take(n_pes) {
                        for k in 0..c {
                            row[disp + k] = Some(vec![atom(Space::LocalSrc, s, k)]);
                        }
                        disp += c;
                    }
                }
            }
            CollectiveSpec::AllToAll { per_pe } => {
                for (d, row) in sym.iter_mut().enumerate() {
                    for s in 0..n_pes {
                        for k in 0..*per_pe {
                            row[s * per_pe + k] =
                                Some(vec![atom(Space::LocalSrc, s, d * per_pe + k)]);
                        }
                    }
                }
            }
            CollectiveSpec::TeamBroadcast {
                members,
                root_global,
                nelems,
            } => {
                for (pe, row) in sym.iter_mut().enumerate() {
                    if members.contains(&pe) {
                        for (pos, slot) in row.iter_mut().enumerate().take(*nelems) {
                            *slot = Some(vec![atom(Space::Sym, *root_global, pos)]);
                        }
                    } else {
                        // Non-members must be untouched, everywhere.
                        for (pos, slot) in row.iter_mut().enumerate() {
                            *slot = Some(vec![atom(Space::Sym, pe, pos)]);
                        }
                    }
                }
            }
            CollectiveSpec::TeamReduce { members, nelems } => {
                let root = members[0];
                for (pe, row) in sym.iter_mut().enumerate() {
                    if pe == root {
                        for (pos, slot) in row.iter_mut().enumerate().take(*nelems) {
                            let mut v: Val =
                                members.iter().map(|&m| atom(Space::Sym, m, pos)).collect();
                            v.sort_unstable();
                            *slot = Some(v);
                        }
                    } else if !members.contains(&pe) {
                        for (pos, slot) in row.iter_mut().enumerate() {
                            *slot = Some(vec![atom(Space::Sym, pe, pos)]);
                        }
                    }
                }
            }
            CollectiveSpec::Unchecked => {}
        }
        Expectation { sym, ldst }
    }
}

/// Compare a completed machine against the reference. Elements the
/// schedule never materialised provably hold their initial atom.
pub fn compare(m: &Machine, exp: &Expectation) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let mut scan = |space: Space, rows: &[Vec<Option<Val>>], bufs: &[Vec<Val>]| {
        for (pe, row) in rows.iter().enumerate() {
            for (idx, want) in row.iter().enumerate() {
                let Some(want) = want else { continue };
                let initial;
                let got = match bufs[pe].get(idx) {
                    Some(v) => v,
                    None => {
                        initial = vec![atom(space, pe, idx)];
                        &initial
                    }
                };
                if got != want {
                    out.push(Mismatch {
                        space,
                        pe,
                        idx,
                        expected: want.clone(),
                        got: got.clone(),
                    });
                }
            }
        }
    };
    scan(Space::Sym, &exp.sym, &m.sym);
    scan(Space::LocalDst, &exp.ldst, &m.ldst);
    out
}

/// Run the compiled program under a caller-supplied choice function
/// (`pick(enabled) -> rank`), with the vector-clock plane attached, and
/// check the final state against `spec`.
pub fn run_with(
    prog: &Program,
    spec: &CollectiveSpec,
    mut pick: impl FnMut(&[usize]) -> usize,
) -> ConformanceReport {
    let mut m = Machine::new(prog);
    let mut vc = VcPlane::new(prog);
    let mut steps = 0usize;
    loop {
        if m.all_done(prog) {
            break;
        }
        let enabled = m.enabled(prog);
        if enabled.is_empty() {
            return ConformanceReport {
                sync: prog.sync,
                steps,
                violations: vc.violations,
                mismatches: Vec::new(),
                deadlock: Some(m.deadlock_info(prog)),
            };
        }
        let pe = pick(&enabled);
        debug_assert!(enabled.contains(&pe), "scheduler picked a blocked PE");
        m.step(prog, pe, Some(&mut vc));
        steps += 1;
    }
    for slot in m.stranded_slots() {
        vc.violations.push(Violation::StrandedSignal { slot });
    }
    let mismatches = compare(&m, &prog.expectation(spec));
    ConformanceReport {
        sync: prog.sync,
        steps,
        violations: vc.violations,
        mismatches,
        deadlock: None,
    }
}

/// The canonical fair interleaving: rotate through the enabled ranks.
fn run_round_robin(prog: &Program, spec: &CollectiveSpec) -> ConformanceReport {
    let mut rr = 0usize;
    run_with(prog, spec, |enabled| {
        let pick = enabled[rr % enabled.len()];
        rr = rr.wrapping_add(1);
        pick
    })
}

/// The oracle's front door: lower `sched` under `sync` with the runtime's
/// lowering, run the canonical round-robin interleaving with full
/// happens-before and race checking, and compare the final buffers
/// against `spec`'s dense reference.
pub fn check_schedule(
    sched: &CommSchedule,
    sync: SyncMode,
    spec: &CollectiveSpec,
    cfg: &ModelConfig,
) -> ConformanceReport {
    run_round_robin(&Program::lower(sched, sync, cfg), spec)
}

/// [`check_schedule`] on an already-lowered [`Plan`] — the very value
/// [`execute_plan`](crate::collectives::plan::execute_plan) would run.
/// Violations carry no op names (a bare plan has no schedule
/// coordinates).
pub fn check_plan(plan: &Plan, spec: &CollectiveSpec) -> ConformanceReport {
    run_round_robin(&Program::from_plan(plan), spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::policy::Algorithm::{Linear, Ring};
    use crate::collectives::scatter::adjusted_displacements;
    use crate::collectives::schedule::{
        broadcast_binomial, gather_binomial, reduce_binomial, rooted_schedule, scatter_binomial,
        Payload, Stage,
    };
    use crate::fabric::CollectiveKind::{self, Broadcast, Reduce};

    /// A whole-vector row of the rooted generator.
    fn whole(
        family: CollectiveKind,
        algo: crate::collectives::policy::Algorithm,
        n: usize,
        root: usize,
        nelems: usize,
        stride: usize,
    ) -> CommSchedule {
        rooted_schedule(family, algo, n, root, Payload::Whole { nelems, stride })
    }

    fn uniform_disp(n: usize, per: usize, root: usize) -> Vec<usize> {
        adjusted_displacements(&vec![per; n], root, n)
    }

    #[test]
    fn oracle_passes_core_generators_under_all_modes() {
        let cfg = ModelConfig::default();
        for n in 1..=8usize {
            for root in [0, n - 1] {
                for sync in SyncMode::CONCRETE {
                    let cases: Vec<(CommSchedule, CollectiveSpec)> = vec![
                        (
                            broadcast_binomial(n, root, 5, 1),
                            CollectiveSpec::Broadcast {
                                root,
                                nelems: 5,
                                stride: 1,
                            },
                        ),
                        (
                            whole(Broadcast, Linear, n, root, 3, 2),
                            CollectiveSpec::Broadcast {
                                root,
                                nelems: 3,
                                stride: 2,
                            },
                        ),
                        (
                            whole(Broadcast, Ring, n, root, 4, 1),
                            CollectiveSpec::Broadcast {
                                root,
                                nelems: 4,
                                stride: 1,
                            },
                        ),
                        (
                            reduce_binomial(n, root, 3, 1),
                            CollectiveSpec::ReduceTree {
                                root,
                                nelems: 3,
                                stride: 1,
                            },
                        ),
                        (
                            whole(Reduce, Linear, n, root, 3, 1),
                            CollectiveSpec::ReduceLinear {
                                root,
                                nelems: 3,
                                stride: 1,
                            },
                        ),
                        (
                            scatter_binomial(n, root, &uniform_disp(n, 2, root)),
                            CollectiveSpec::Scatter {
                                root,
                                adj_disp: uniform_disp(n, 2, root),
                            },
                        ),
                        (
                            gather_binomial(n, root, &uniform_disp(n, 2, root)),
                            CollectiveSpec::Gather {
                                root,
                                adj_disp: uniform_disp(n, 2, root),
                            },
                        ),
                    ];
                    for (sched, spec) in cases {
                        let report = check_schedule(&sched, sync, &spec, &cfg);
                        assert!(
                            report.ok(),
                            "n={n} root={root} {:?} {}: {}",
                            sched.kind,
                            sync.name(),
                            report.summary()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_passes_forced_chunking() {
        // Per-chunk edges at model scale: 6 elements in 3 forced chunks.
        let cfg = ModelConfig {
            elem_bytes: 8,
            force_chunks: Some(3),
        };
        for n in [2, 4, 8] {
            let sched = broadcast_binomial(n, 0, 6, 1);
            let report = check_schedule(
                &sched,
                SyncMode::Pipelined,
                &CollectiveSpec::Broadcast {
                    root: 0,
                    nelems: 6,
                    stride: 1,
                },
                &cfg,
            );
            assert!(report.ok(), "n={n}: {}", report.summary());
        }
    }

    #[test]
    fn oracle_flags_missing_stage_dependency() {
        // Merge both stages of a 4-PE binomial broadcast into one: the
        // forwarding PE may now read its buffer before the root's put.
        let good = broadcast_binomial(4, 0, 2, 1);
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
            nelems: 2,
            stride: 1,
        };
        for sync in SyncMode::CONCRETE {
            let report = check_schedule(&bad, sync, &spec, &ModelConfig::default());
            assert!(
                !report.ok(),
                "{}: merged stages must be flagged",
                sync.name()
            );
        }
    }

    #[test]
    fn oracle_flags_undeferred_butterfly() {
        use crate::collectives::extended::allreduce_recursive_doubling;
        let mut sched = allreduce_recursive_doubling(4, 2);
        for st in &mut sched.stages {
            st.deferred_fold = false;
        }
        // Without the ack protocol both partners can fold into buffers the
        // other side has not finished reading.
        let report = check_schedule(
            &sched,
            SyncMode::Signaled,
            &CollectiveSpec::AllReduce { nelems: 2 },
            &ModelConfig::default(),
        );
        assert!(!report.ok(), "undeferred butterfly must be flagged");
    }

    #[test]
    fn oracle_flags_duplicated_contribution() {
        // A reduce where one contribution is pulled twice: multiset folds
        // make the duplicate visible where a sum of zeros would hide it.
        let mut sched = reduce_binomial(4, 0, 1, 1);
        let dup = sched.stages[0].ops[0];
        sched.stages[1].ops.push(dup);
        let report = check_schedule(
            &sched,
            SyncMode::Barrier,
            &CollectiveSpec::ReduceTree {
                root: 0,
                nelems: 1,
                stride: 1,
            },
            &ModelConfig::default(),
        );
        assert!(!report.ok(), "duplicated fold contribution must be flagged");
    }

    #[test]
    fn empty_schedules_are_trivially_conformant() {
        let sched = broadcast_binomial(1, 0, 9, 1);
        let report = check_schedule(
            &sched,
            SyncMode::Signaled,
            &CollectiveSpec::Broadcast {
                root: 0,
                nelems: 0,
                stride: 1,
            },
            &ModelConfig::default(),
        );
        assert!(report.ok());
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn resolution_matches_executor_rules() {
        let sched = broadcast_binomial(8, 0, 4, 1);
        let cfg = ModelConfig::default();
        assert_eq!(
            Program::lower(&sched, SyncMode::Auto, &cfg).sync,
            SyncMode::Signaled
        );
        let single = whole(Broadcast, Linear, 8, 0, 4, 1);
        assert_eq!(
            Program::lower(&single, SyncMode::Auto, &cfg).sync,
            SyncMode::Barrier
        );
        assert_eq!(
            Program::lower(&sched, SyncMode::Pipelined, &cfg).sync,
            SyncMode::Pipelined
        );
    }
}
