//! Compiled schedule plans and the plan cache.
//!
//! [`lower`] turns a `(CommSchedule, SyncMode, elem_bytes)` triple into a
//! [`Plan`]: a flat, branch-free per-PE array of [`PlanStep`]s with
//! `SyncMode::Auto` resolved and every signal-slot index and pipeline
//! chunk window fixed. It is the **only** implementation of the
//! slot/READY/ACK/chunk signalling protocol in the crate: the fabric
//! executes the steps ([`execute_plan`]), and the conformance oracle
//! ([`verify`](crate::collectives::verify)) and interleaving explorer
//! step the same steps on their abstract machine, so what is
//! model-checked is the artefact that runs.
//!
//! Plans are memoized in a sharded [`PlanCache`] keyed by the full
//! collective shape: a call names its schedule as a
//! [`Row`], which checks its own
//! arguments, writes its own [`PlanKey`] and — on a miss only — runs its
//! own generator, so repeat issues of the same collective skip schedule
//! generation, validation, Auto resolution and lowering entirely.
//!
//! Every episode, however it is issued, runs through one pair: an
//! `open` that notes the resolved choice, takes the slot window and the
//! signal table and runs the steps before the drain, and a `close` that
//! runs the drain, reports the episode and releases the window.
//! [`execute_plan`] is the two back to back. The nonblocking collectives
//! ([`ixbroadcast`]/[`ixreduce`]/[`ixallreduce`]) and their persistent
//! `plan_create`/`start` variants return the open episode as a
//! [`CollHandle`]; a blocking broadcast or staged reduction is the same
//! handle waited on at once. Each of the two has one stage-in
//! (`issue_broadcast`, `issue_reduce`), which owns its zero-length guard,
//! so a zero-length call is inert on every route. The only difference
//! between the routes is whether the episode outlives its call: a
//! nonblocking one reserves its slot window and sizes the first table of
//! an overlap window with headroom; a blocking one runs at the current
//! floor with a table of exactly its size.

use std::hash::BuildHasher;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xbgas_sim::hash::{WordBuildHasher, WordMap};

use crate::collectives::call::{Call, CallKind};
use crate::collectives::extended::AllReduceAlgo;
use crate::collectives::policy::{
    pipeline_chunks, Algorithm, AlgorithmPolicy, SyncMode, ACK_SLOT, READY_SLOT, SLOTS_PER_OP,
};
use crate::collectives::schedule::{is_put_kind, CommSchedule, OpKind, Row, TransferOp};
use crate::fabric::{span, CollectiveKind, FoldKernel, Local, Pe, SymmAlloc, SymmRef};
use crate::trace::TraceKind;
use crate::types::XbrType;

// ---------------------------------------------------------------------------
// Plan representation
// ---------------------------------------------------------------------------

/// Signal-table slots reserved on the *first* nonblocking issue, in
/// units of that plan's slot window: room for this many same-shaped
/// episodes in flight before a later issue would need to grow the table
/// mid-overlap (which `open` refuses — growth frees the live table).
/// Only episodes that outlive their call take it. Deeper windows are
/// possible by pre-sizing with
/// [`Pe::signal_table`](crate::fabric::Pe::signal_table).
const OVERLAP_HEADROOM: usize = 16;

/// Which buffer a step's issuer-side end — or an oracle provenance atom —
/// lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Space {
    /// The symmetric working buffer (one copy per PE).
    Sym,
    /// A PE's private `local_src` slice (read-only under every schedule).
    LocalSrc,
    /// A PE's private `local_dst` slice.
    LocalDst,
    /// A PE's reusable landing buffer: where a fold's operand is read to
    /// before [`PlanStep::Fold`] combines it.
    Landing,
}

/// One pre-lowered executor action. Offsets (`*_at`) are element offsets
/// into the buffer the step names: the schedule's symmetric working
/// buffer, the issuer's private `local_src`/`local_dst` slices, or its
/// landing buffer; a step's window there is `at .. at + span(nelems,
/// stride)`, derived, not stored. Signal slots are *plan-relative* indices
/// into the fabric's symmetric signal table, rebased at issue time so
/// overlapping nonblocking episodes never collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanStep {
    /// Enter stage `si` (the PE's position) and open its trace span.
    /// `si == n_stages` is the signaled drain.
    StageStart {
        /// Stage index.
        si: u32,
    },
    /// Close stage `si`'s trace span.
    StageEnd {
        /// Stage index.
        si: u32,
    },
    /// Full fabric barrier.
    Barrier,
    /// Post signal slot `slot` to `dst_pe` (readiness announcements).
    Post {
        /// Plan-relative slot.
        slot: u32,
        /// Target PE.
        dst_pe: u32,
    },
    /// Consume signal slot `slot` on this PE, accumulating stall cycles.
    Wait {
        /// Plan-relative slot.
        slot: u32,
    },
    /// One one-sided transfer: `nelems` elements at `stride` between the
    /// issuer's `local` buffer at `local_at` and the symmetric buffer at
    /// `remote_at` on `pe` (one chunk of the op when pipelined).
    Copy {
        /// The issuer's end.
        local: Space,
        /// Element offset in `local`.
        local_at: u32,
        /// Element offset in the symmetric buffer on `pe`.
        remote_at: u32,
        /// Elements in this transfer.
        nelems: u32,
        /// Element stride, on both ends.
        stride: u32,
        /// Target PE.
        pe: u32,
        /// `true` for a put (local → remote), `false` for a get.
        push: bool,
        /// Non-blocking: the stage barrier (or the signal's arrival
        /// stamp) absorbs the flight time instead of the issuer.
        nb: bool,
        /// Signal slot posted to `pe` after the transfer: a put's
        /// completion, or the "your segment has been read" ack of a
        /// deferred fold's landing read. Stamped with the completion time
        /// when `nb`.
        sig: Option<u32>,
        /// Chunk index when the op was pipelined into >1 chunks (drives
        /// the per-chunk trace event); `None` for unchunked transfers.
        chunk: Option<u32>,
    },
    /// Fold the landing buffer into `dst` at `dst_at`, in place:
    /// `dst[dst_at + j·stride] = f(dst[..], landing[j·stride])`, as one
    /// call of the episode's fold kernel.
    Fold {
        /// [`Space::Sym`] (`OpKind::GetFold`) or [`Space::LocalDst`]
        /// (`OpKind::GetFoldInto`).
        dst: Space,
        /// Destination element offset in `dst`.
        dst_at: u32,
        /// Elements folded.
        nelems: u32,
        /// Element stride.
        stride: u32,
    },
}

// `plan.cache_bytes` is this size × resident steps.
const _: () = assert!(std::mem::size_of::<PlanStep>() <= 44);

/// The static (shape-determined) part of one PE's share of an episode's
/// [`CollectiveRecord`](crate::fabric::CollectiveRecord): every counter
/// except the two that depend on runtime timing (`cycles`,
/// `wait_cycles`). Pre-computed at lowering time so the plan executor
/// does no per-op counter arithmetic; the episode's close adds it to the
/// PE's tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SampleTemplate {
    /// Puts this PE issues per episode.
    pub puts: u64,
    /// Gets this PE issues per episode.
    pub gets: u64,
    /// Bytes this PE pushes per episode.
    pub bytes_put: u64,
    /// Bytes this PE pulls per episode.
    pub bytes_get: u64,
    /// Stages in the schedule.
    pub stages: u64,
    /// Signals this PE posts per episode.
    pub signals: u64,
    /// Signal waits this PE performs per episode.
    pub waits: u64,
}

/// One PE's compiled program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeProgram {
    /// Flat step array, stage structure already linearised.
    pub steps: Vec<PlanStep>,
    /// Index of the first *drain* step (signal waits + closing barrier).
    /// A nonblocking issue runs `steps[..drain_from]`; `wait` runs the
    /// rest. Barrier-discipline plans have `drain_from == steps.len()`
    /// (the whole episode completes at issue).
    pub drain_from: usize,
    /// Landing-buffer elements this PE's folds need.
    pub landing_len: usize,
    /// Static telemetry counters for one episode.
    pub sample: SampleTemplate,
}

/// A fully lowered collective: per-PE step arrays plus the episode-wide
/// facts the executor needs (resolved discipline, slot window, shape).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Telemetry kind episodes report under.
    pub kind: CollectiveKind,
    /// The key algorithm the plan was cached under, for the choice
    /// telemetry; `None` for an ad-hoc schedule lowered outside the cache.
    pub algo: Option<Algorithm>,
    /// The **resolved** sync discipline (`Auto` decided at build time —
    /// never re-checked at issue).
    pub sync: SyncMode,
    /// Element size the plan was lowered for.
    pub elem_bytes: usize,
    /// World size.
    pub n_pes: usize,
    /// The PE that counts each episode's `calls` and `stages`
    /// ([`CollectiveRecord`](crate::CollectiveRecord)): a team row's
    /// first member, else 0.
    pub lead: usize,
    /// Stage count of the source schedule.
    pub n_stages: usize,
    /// `true` when no op moves data: the episode is only a telemetry
    /// note, with no barriers, transfers or progress traffic.
    pub empty: bool,
    /// Signal-table slots one episode occupies (0 under the barrier
    /// discipline).
    pub n_slots: usize,
    /// Per-PE programs, indexed by rank.
    pub per_pe: Vec<PeProgram>,
}

impl Plan {
    /// Rough heap footprint, for cache telemetry.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Plan>()
            + self
                .per_pe
                .iter()
                .map(|p| {
                    std::mem::size_of::<PeProgram>()
                        + p.steps.len() * std::mem::size_of::<PlanStep>()
                })
                .sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Schedule coordinates `(stage, op, chunk)` of the op a lowered step
/// serves — `None` for stage markers, barriers and drain waits. The
/// runtime discards them; the conformance oracle keeps them so a
/// violation names the op that caused it.
pub(crate) type Origin = Option<(usize, usize, Option<usize>)>;

/// An incoming put chunk whose completion signal this PE has not consumed
/// yet, with the element range it lands in. Before touching any region
/// of its own symmetric buffer a PE consumes the pending signals that
/// overlap it — the point-to-point replacement for the stage barrier.
struct PendingAt {
    slot: u32,
    start: usize,
    end: usize,
}

/// Element window `[c0, c1)` of chunk `c` of `n`.
fn chunk_elems(op: &TransferOp, c: usize, n: usize) -> (usize, usize) {
    let per = op.nelems.div_ceil(n);
    ((c * per).min(op.nelems), ((c + 1) * per).min(op.nelems))
}

/// Contiguous element range `[start, end)` that chunk window `[c0, c1)`
/// of a strided span occupies, measured from buffer offset `at`. An empty
/// window maps to an empty range rather than underflowing on `c1 - 1`
/// (zero-`nelems` ops produce `c0 == c1 == 0`).
fn chunk_range(at: usize, stride: usize, c0: usize, c1: usize) -> (usize, usize) {
    if c1 <= c0 {
        return (at, at);
    }
    (at + c0 * stride, at + (c1 - 1) * stride + 1)
}

/// The transfer step for elements `[c0, c1)` of `op`: a put pushes from
/// the op's local space, a get pulls into it — or, for a fold op, into
/// the landing buffer, which [`fold_step`] then combines.
fn copy_step(
    op: &TransferOp,
    c0: usize,
    c1: usize,
    sig: Option<u32>,
    chunk: Option<u32>,
) -> PlanStep {
    let (local_at, pe, remote_at) = op.ends();
    let (local, local_at) = if op.is_fold() {
        (Space::Landing, 0)
    } else {
        (op.kind.local_space(), local_at)
    };
    PlanStep::Copy {
        local,
        local_at: (local_at + c0 * op.stride) as u32,
        remote_at: (remote_at + c0 * op.stride) as u32,
        nelems: (c1 - c0) as u32,
        stride: op.stride as u32,
        pe: pe as u32,
        push: is_put_kind(op.kind),
        nb: op.kind == OpKind::PutNb,
        sig,
        chunk,
    }
}

/// The combine half of a fold op.
fn fold_step(op: &TransferOp) -> PlanStep {
    debug_assert!(op.is_fold(), "fold_step on a non-fold op");
    PlanStep::Fold {
        dst: op.kind.local_space(),
        dst_at: op.dst_at as u32,
        nelems: op.nelems as u32,
        stride: op.stride as u32,
    }
}

/// One PE's program under construction.
struct Lowering<'a, N> {
    me: usize,
    elem_bytes: usize,
    steps: Vec<PlanStep>,
    sample: SampleTemplate,
    pending: Vec<PendingAt>,
    note: &'a mut N,
}

impl<N: FnMut(usize, &PlanStep, Origin)> Lowering<'_, N> {
    /// Append `step`, tally it into the static telemetry template and
    /// report its origin.
    fn push(&mut self, step: PlanStep, at: Origin) {
        let es = self.elem_bytes as u64;
        let s = &mut self.sample;
        match step {
            PlanStep::Copy {
                nelems, push, sig, ..
            } => {
                let bytes = nelems as u64 * es;
                if push {
                    s.puts += 1;
                    s.bytes_put += bytes;
                } else {
                    s.gets += 1;
                    s.bytes_get += bytes;
                }
                s.signals += u64::from(sig.is_some());
            }
            PlanStep::Post { .. } => s.signals += 1,
            PlanStep::Wait { .. } => s.waits += 1,
            _ => {}
        }
        (self.note)(self.me, &step, at);
        self.steps.push(step);
    }

    /// Wait on every pending incoming chunk overlapping `[start, end)`.
    /// The `swap_remove` scan order is part of the plan: it fixes the
    /// order a PE consumes its signals in.
    fn consume_overlapping(&mut self, start: usize, end: usize, at: Origin) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].start < end && start < self.pending[i].end {
                let slot = self.pending.swap_remove(i).slot;
                self.push(PlanStep::Wait { slot }, at);
            } else {
                i += 1;
            }
        }
    }

    /// Barrier discipline: every PE issues the ops it owns and closes each
    /// stage with a barrier — op for op and barrier for barrier the
    /// paper's Algorithms 1–4.
    fn barrier_stages(&mut self, sched: &CommSchedule) {
        let me = self.me;
        for (si, stage) in sched.stages.iter().enumerate() {
            self.push(PlanStep::StageStart { si: si as u32 }, None);
            let mine = || {
                stage
                    .ops
                    .iter()
                    .enumerate()
                    .filter(move |(_, op)| op.issuer() == me)
                    .map(move |(oi, op)| (op, Some((si, oi, None))))
            };
            if stage.deferred_fold {
                // Both partners read each other's buffer this stage, so
                // every read lands before a mid-stage barrier and the
                // folds happen after it.
                for (op, at) in mine() {
                    self.push(copy_step(op, 0, op.nelems, None, None), at);
                }
                self.push(PlanStep::Barrier, None);
                for (op, at) in mine() {
                    self.push(fold_step(op), at);
                }
            } else {
                for (op, at) in mine() {
                    self.push(copy_step(op, 0, op.nelems, None, None), at);
                    if op.is_fold() {
                        self.push(fold_step(op), at);
                    }
                }
            }
            self.push(PlanStep::Barrier, None);
            self.push(PlanStep::StageEnd { si: si as u32 }, None);
        }
    }

    /// Signaled / pipelined discipline: no per-stage barriers.
    ///
    /// Slot addressing is by *global op index* into the fabric's symmetric
    /// signal table, so distinct ops never collide regardless of schedule
    /// shape. A slot lives on the heap of the PE that waits on it: data
    /// chunks on the put's destination, readiness on the get's issuer,
    /// acknowledgement on the read segment's owner. Every posted slot is
    /// consumed before the closing barrier (the drain), which keeps the
    /// table all-zero between collectives — that invariant is what lets
    /// the table be reused without a zeroing barrier per call.
    fn signaled_stages(
        &mut self,
        sched: &CommSchedule,
        op_base: &[usize],
        chunks_of: impl Fn(&TransferOp) -> usize,
    ) {
        let me = self.me;
        for (si, stage) in sched.stages.iter().enumerate() {
            self.push(PlanStep::StageStart { si: si as u32 }, None);
            let slot = |oi: usize, k: usize| ((op_base[si] + oi) * SLOTS_PER_OP + k) as u32;
            let ops = || stage.ops.iter().enumerate().filter(|(_, op)| op.nelems > 0);
            // Gets a peer issues against my segment (put kinds are issued
            // by their source, so they never match).
            let pulled_from_me = |op: &TransferOp| op.src_pe == me && op.issuer() != me;

            // Readiness first: peers pulling from me this stage unblock as
            // soon as my segment is consistent, before I start my own work.
            for (oi, op) in ops().filter(|(_, op)| pulled_from_me(op)) {
                let at = Some((si, oi, None));
                self.consume_overlapping(op.src_at, op.src_at + op.span(), at);
                self.push(
                    PlanStep::Post {
                        slot: slot(oi, READY_SLOT),
                        dst_pe: op.dst_pe as u32,
                    },
                    at,
                );
            }

            if stage.deferred_fold {
                // Pull my partners' segments, acknowledging each read…
                for (oi, op) in ops().filter(|(_, op)| op.issuer() == me) {
                    let at = Some((si, oi, None));
                    let remote = op.src_pe != me;
                    if remote {
                        self.push(
                            PlanStep::Wait {
                                slot: slot(oi, READY_SLOT),
                            },
                            at,
                        );
                    }
                    let ack = remote.then(|| slot(oi, ACK_SLOT));
                    self.push(copy_step(op, 0, op.nelems, ack, None), at);
                }
                // …wait until my own segment has been read, then fold.
                for (oi, _) in ops().filter(|(_, op)| pulled_from_me(op)) {
                    self.push(
                        PlanStep::Wait {
                            slot: slot(oi, ACK_SLOT),
                        },
                        Some((si, oi, None)),
                    );
                }
                for (oi, op) in ops().filter(|(_, op)| op.issuer() == me) {
                    self.push(fold_step(op), Some((si, oi, None)));
                }
                self.push(PlanStep::StageEnd { si: si as u32 }, None);
                continue;
            }

            for (oi, op) in ops().filter(|(_, op)| op.issuer() == me) {
                let at = Some((si, oi, None));
                if is_put_kind(op.kind) {
                    let n = chunks_of(op);
                    for c in 0..n {
                        let (c0, c1) = chunk_elems(op, c, n);
                        if c0 >= c1 {
                            continue;
                        }
                        let chunk = (n > 1).then_some(c);
                        let at = Some((si, oi, chunk));
                        // Forwarding dependency, per segment: segment k of
                        // an incoming put unblocks segment k's forward
                        // while later segments are still in flight.
                        // PutFrom/PutNb read private memory, which no
                        // remote put can land in.
                        if op.kind == OpKind::Put {
                            let (s0, s1) = chunk_range(op.src_at, op.stride, c0, c1);
                            self.consume_overlapping(s0, s1, at);
                        }
                        let sig = (op.dst_pe != me).then(|| slot(oi, c));
                        self.push(copy_step(op, c0, c1, sig, chunk.map(|c| c as u32)), at);
                    }
                    continue;
                }
                // Gets: wait for the producer's readiness (or, reading my
                // own segment into private memory, for whatever is still
                // landing in it).
                if op.src_pe != me {
                    self.push(
                        PlanStep::Wait {
                            slot: slot(oi, READY_SLOT),
                        },
                        at,
                    );
                } else {
                    self.consume_overlapping(op.src_at, op.src_at + op.span(), at);
                }
                let pull = copy_step(op, 0, op.nelems, None, None);
                let dst = (op.dst_at, op.dst_at + op.span());
                match op.kind {
                    OpKind::Get => {
                        self.consume_overlapping(dst.0, dst.1, at);
                        self.push(pull, at);
                    }
                    _ => {
                        self.push(pull, at);
                        if op.kind == OpKind::GetFold {
                            self.consume_overlapping(dst.0, dst.1, at);
                        }
                        self.push(fold_step(op), at);
                    }
                }
            }

            // This stage's puts into my buffer become pending: later
            // stages (or the drain) consume their signals before touching
            // the regions they land in.
            for (oi, op) in ops() {
                if !is_put_kind(op.kind) || op.dst_pe != me || op.src_pe == me {
                    continue;
                }
                let n = chunks_of(op);
                for c in 0..n {
                    let (c0, c1) = chunk_elems(op, c, n);
                    if c0 >= c1 {
                        continue;
                    }
                    let (start, end) = chunk_range(op.dst_at, op.stride, c0, c1);
                    self.pending.push(PendingAt {
                        slot: slot(oi, c),
                        start,
                        end,
                    });
                }
            }
            self.push(PlanStep::StageEnd { si: si as u32 }, None);
        }
    }

    /// Drain: consume every signal still in flight toward this PE, so the
    /// signal table is all-zero again when the collective closes, then one
    /// barrier closes the whole collective. Published as
    /// one-past-the-last stage so a `DeadlockReport` can tell "stuck in
    /// the drain" apart from "stuck inside a stage".
    fn drain(&mut self, n_stages: usize) {
        self.push(
            PlanStep::StageStart {
                si: n_stages as u32,
            },
            None,
        );
        for p in std::mem::take(&mut self.pending) {
            self.push(PlanStep::Wait { slot: p.slot }, None);
        }
        self.push(PlanStep::Barrier, None);
        self.push(
            PlanStep::StageEnd {
                si: n_stages as u32,
            },
            None,
        );
    }
}

/// Lower `sched` under the requested `sync` into a [`Plan`] for
/// `elem_bytes`-sized elements — the one lowering of the
/// slot/READY/ACK/chunk protocol: the fabric executes the result and the
/// conformance oracle interprets the same steps abstractly.
///
/// `SyncMode::Auto` is resolved **here**, once, through
/// [`CommSchedule::resolve_sync`]; the resolved discipline is recorded in
/// [`Plan::sync`].
///
/// The signaled/pipelined disciplines require the standing schedule
/// invariants the generators maintain (and the barrier discipline
/// implicitly relies on): ops within one stage touch disjoint regions, a
/// symmetric region is remotely written at most once, and a PE's segment
/// is not overwritten after a peer read it except in `deferred_fold`
/// stages (where reads are acknowledged explicitly).
///
/// # Panics
/// Panics if the schedule fails [`CommSchedule::validate`].
pub fn lower(sched: &CommSchedule, sync: SyncMode, elem_bytes: usize) -> Plan {
    lower_with(
        sched,
        sync,
        elem_bytes,
        |op| pipeline_chunks(op.nelems * elem_bytes),
        |_, _, _| {},
    )
}

/// [`lower`] with the pipelined chunk-count rule and the step-origin
/// observer made explicit: `chunk_rule` gives the number of segments a
/// put-kind op splits into under `Pipelined`, and `note(pe, step, origin)`
/// is called once per emitted step, in program order per PE.
pub(crate) fn lower_with(
    sched: &CommSchedule,
    sync: SyncMode,
    elem_bytes: usize,
    chunk_rule: impl Fn(&TransferOp) -> usize,
    mut note: impl FnMut(usize, &PlanStep, Origin),
) -> Plan {
    sched.validate();
    let n_stages = sched.stages.len();
    // Schedules that move no data (single-PE or zero-element collectives)
    // need no transfers and therefore no ordering: no steps at all.
    let empty = !sched.ops().any(|op| op.nelems > 0);
    let resolved = sched.resolve_sync(sync, elem_bytes);
    let signaled = resolved != SyncMode::Barrier;
    let n_slots = if empty || !signaled {
        0
    } else {
        sched.total_ops() * SLOTS_PER_OP
    };
    let op_base = sched.op_bases();
    let chunks_of = |op: &TransferOp| {
        if resolved == SyncMode::Pipelined && is_put_kind(op.kind) {
            chunk_rule(op)
        } else {
            1
        }
    };

    let per_pe = (0..sched.n_pes)
        .map(|me| {
            // An empty plan reports through `note_inert`, not its sample.
            if empty {
                return PeProgram::default();
            }
            let mut l = Lowering {
                me,
                elem_bytes,
                steps: Vec::new(),
                sample: SampleTemplate {
                    stages: n_stages as u64,
                    ..SampleTemplate::default()
                },
                pending: Vec::new(),
                note: &mut note,
            };
            let drain_from;
            if signaled {
                l.signaled_stages(sched, &op_base, chunks_of);
                drain_from = l.steps.len();
                l.drain(n_stages);
            } else {
                l.barrier_stages(sched);
                drain_from = l.steps.len();
            }
            // One landing buffer reused across every fold stage.
            let landing_len = sched
                .ops()
                .filter(|op| op.is_fold() && op.dst_pe == me)
                .map(|op| op.span().max(1))
                .max()
                .unwrap_or(0);
            PeProgram {
                steps: l.steps,
                drain_from,
                landing_len,
                sample: l.sample,
            }
        })
        .collect();

    Plan {
        kind: sched.kind,
        algo: None,
        sync: resolved,
        elem_bytes,
        n_pes: sched.n_pes,
        lead: 0,
        n_stages,
        empty,
        n_slots,
        per_pe,
    }
}

// ---------------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------------

/// Run a step window. `base` rebases every plan-relative signal slot
/// (nonblocking overlap support); blocking execution passes the PE's
/// current slot floor. `fold` is the fold steps' kernel: each
/// [`PlanStep::Fold`] is one call of its loop. Returns accumulated
/// signal-wait stall cycles.
#[allow(clippy::too_many_arguments)]
fn run_steps<T: XbrType>(
    pe: &Pe,
    steps: &[PlanStep],
    base: usize,
    table: Option<SymmRef<u64>>,
    buf: SymmRef<T>,
    local_src: &[T],
    local_dst: &mut [T],
    fold: Option<&dyn FoldKernel<T>>,
    landing: &mut [T],
) -> u64 {
    let es = std::mem::size_of::<T>();
    let slot_ref = |s: u32| {
        table
            .expect("plan has signal steps but no table")
            .offset(base + s as usize)
    };
    let mut wait_cycles = 0u64;
    let mut t_st: Option<u64> = None;
    for step in steps {
        match *step {
            PlanStep::StageStart { si } => {
                pe.progress_stage(si as usize);
                t_st = pe.trace_start();
            }
            PlanStep::StageEnd { si } => {
                pe.trace_emit(t_st, TraceKind::Stage, None, 0, si as u64);
            }
            PlanStep::Barrier => pe.barrier(),
            PlanStep::Post { slot, dst_pe } => {
                pe.signal_post(slot_ref(slot), dst_pe as usize);
            }
            PlanStep::Wait { slot } => {
                wait_cycles += pe.signal_wait(slot_ref(slot));
            }
            PlanStep::Copy {
                local,
                local_at,
                remote_at,
                nelems,
                stride,
                pe: target,
                push,
                nb,
                sig,
                chunk,
            } => {
                // Pipelined chunks each get their own trace span.
                let t_ck = chunk.and_then(|_| pe.trace_start());
                let (n, target) = (nelems as usize, target as usize);
                let at = local_at as usize;
                let win = at..at + span(n, stride as usize);
                let end = match local {
                    Space::Sym => Local::Heap(buf.offset(at)),
                    Space::LocalSrc => Local::Src(&local_src[win]),
                    Space::LocalDst => Local::Dst(&mut local_dst[win]),
                    // Open-ended, not windowed: the cache model walks at
                    // least one element of it even for an empty read.
                    Space::Landing => Local::Dst(&mut landing[at..]),
                };
                let remote = buf.offset(remote_at as usize);
                let done = pe.transfer(end, remote, n, stride as usize, target, push, nb);
                if nb {
                    pe.track(&pe.outstanding, done);
                }
                match sig {
                    // The signal rides the transfer: posted now (the
                    // payload is already in flight — under the barrier
                    // discipline the stage barrier quiesces it instead)
                    // but stamped with the transfer's completion time.
                    Some(s) if nb => pe.signal_post_at(slot_ref(s), target, done),
                    Some(s) => pe.signal_post(slot_ref(s), target),
                    None => {}
                }
                if let Some(c) = chunk {
                    let bytes = (n * es) as u64;
                    pe.trace_emit(t_ck, TraceKind::Chunk, Some(target), bytes, c as u64);
                }
            }
            PlanStep::Fold {
                dst,
                dst_at,
                nelems,
                stride,
            } => {
                let t_rd = pe.trace_start();
                let f = fold.expect("plan contains fold steps but no fold function was given");
                let (at, n, st) = (dst_at as usize, nelems as usize, stride as usize);
                match dst {
                    Space::Sym => pe.heap_fold(buf.offset(at), landing, n, st, f),
                    Space::LocalDst => {
                        let dst = &mut local_dst[at..at + span(n, st)];
                        // SAFETY: `dst` is the `span(n, st)` elements the
                        // loop touches.
                        unsafe { f.fold_loop(dst.as_mut_ptr(), landing, n, st) };
                        pe.clock.fold(n);
                    }
                    Space::LocalSrc | Space::Landing => {
                        panic!("plan folds into {dst:?}, which is not a result buffer")
                    }
                }
                pe.trace_emit(t_rd, TraceKind::Reduce, None, (n * es) as u64, 0);
            }
        }
    }
    wait_cycles
}

/// One PE's open episode of a plan: what [`close`] needs to finish it.
struct Episode<T: XbrType> {
    /// The symmetric working buffer the plan's offsets index.
    buf: SymmRef<T>,
    /// Base of the episode's signal-slot window.
    base: usize,
    /// The signal table, when the plan signals.
    table: Option<SymmRef<u64>>,
    /// The window is reserved: the episode outlives its call.
    reserved: bool,
    /// Cycle count at the open.
    t0: u64,
    /// The collective's trace span.
    t_ep: Option<u64>,
    /// Signal-wait stall cycles so far.
    wait_cycles: u64,
}

/// Open an episode of `plan` on this PE and run every step before its
/// drain — where the blocking, nonblocking and persistent routes meet, and
/// so the one place the resolved algorithm/sync choice goes on the
/// collective's [`CollectiveRecord`](crate::fabric::CollectiveRecord):
/// telemetry shows what actually ran, however it was issued. `None` for
/// an inert plan (counted, nothing else).
///
/// `outlives` says whether the episode outlives its call (a nonblocking or
/// persistent issue). Such an episode reserves its slot window above the
/// ones in flight, and the first of an overlap window sizes the signal
/// table for [`OVERLAP_HEADROOM`] same-shaped episodes. A blocking episode
/// runs at the current floor — zero normally, above any episodes in
/// flight otherwise — with a table of exactly its size.
fn open<T: XbrType>(
    pe: &Pe,
    plan: &Plan,
    buf: SymmRef<T>,
    local_src: &[T],
    local_dst: &mut [T],
    fold: Option<&dyn FoldKernel<T>>,
    outlives: bool,
) -> Option<Episode<T>> {
    assert_eq!(
        plan.n_pes,
        pe.n_pes(),
        "plan built for {} PEs but the fabric has {}",
        plan.n_pes,
        pe.n_pes()
    );
    assert_eq!(
        plan.elem_bytes,
        std::mem::size_of::<T>(),
        "plan lowered for {}-byte elements but T is {} bytes",
        plan.elem_bytes,
        std::mem::size_of::<T>()
    );
    let algo = plan.algo.map_or(0, algo_bit);
    pe.note_choice(plan.kind, algo, sync_bit(plan.sync));
    if plan.empty {
        pe.note_collective(plan.kind, plan.lead, &SampleTemplate::default(), 0, 0);
        return None;
    }
    let t0 = pe.cycles();
    pe.progress_collective(Some(plan.kind));
    let t_ep = pe.trace_start();
    let base = if outlives {
        pe.nb_slot_reserve(plan.n_slots)
    } else {
        pe.nb_slot_floor()
    };
    let table = (plan.n_slots > 0).then(|| {
        let need = base + plan.n_slots;
        // Growing the table under episodes in flight would free-and-rezero
        // it (and barrier mid-issue), stranding their completion signals
        // in a silent deadlock; refuse loudly.
        assert!(
            base == 0 || need <= pe.signal_table_cap(),
            "PE {}: a collective above an overlap window needs {need} signal \
             slots but the table holds {}; wait on an outstanding handle, or \
             pre-size with Pe::signal_table before the first issue",
            pe.rank(),
            pe.signal_table_cap(),
        );
        let headroom = if base == 0 && outlives {
            OVERLAP_HEADROOM
        } else {
            1
        };
        pe.signal_table(need * headroom)
    });
    let prog = &plan.per_pe[pe.rank()];
    let mut landing = pe.scratch_take::<T>();
    landing.resize(prog.landing_len, T::default());
    let wait_cycles = run_steps(
        pe,
        &prog.steps[..prog.drain_from],
        base,
        table,
        buf,
        local_src,
        local_dst,
        fold,
        &mut landing,
    );
    pe.scratch_put(landing);
    Some(Episode {
        buf,
        base,
        table,
        reserved: outlives,
        t0,
        t_ep,
        wait_cycles,
    })
}

/// Close an episode [`open`] started: run its drain (signal waits and the
/// closing barrier — no transfer, no fold), close its trace span, leave
/// the collective, report it and release its slot window.
fn close<T: XbrType>(pe: &Pe, plan: &Plan, ep: Episode<T>) {
    let prog = &plan.per_pe[pe.rank()];
    let drain = &prog.steps[prog.drain_from..];
    let stalled = run_steps(
        pe,
        drain,
        ep.base,
        ep.table,
        ep.buf,
        &[],
        &mut [],
        None,
        &mut [],
    );
    pe.trace_emit(ep.t_ep, TraceKind::Collective, None, 0, 0);
    pe.progress_collective(None);
    pe.note_collective(
        plan.kind,
        plan.lead,
        &prog.sample,
        pe.cycles() - ep.t0,
        ep.wait_cycles + stalled,
    );
    if ep.reserved {
        pe.nb_slot_release();
    }
}

/// Run a compiled plan to completion on this PE: the episode's `open`,
/// then its `close`, back to back. Every PE must call this collectively
/// with the same plan.
///
/// `buf` is the base of the symmetric working buffer all symmetric step
/// offsets index. `local_src`/`local_dst` back the steps whose [`Space`]
/// is `LocalSrc`/`LocalDst` and may be empty when the plan has none.
/// `fold` combines elements for the fold steps: each step runs one loop
/// over its elements, calling `fold` once per element through this `dyn`
/// reference. The collectives erase a concrete combiner into the loop
/// instead, so theirs inlines.
///
/// # Panics
/// Panics if the plan was lowered for a different world size or element
/// size, or contains fold steps while `fold` is `None`.
pub fn execute_plan<T: XbrType>(
    pe: &Pe,
    plan: &Plan,
    buf: SymmRef<T>,
    local_src: &[T],
    local_dst: &mut [T],
    fold: Option<&dyn Fn(T, T) -> T>,
) {
    let fold = fold.as_ref().map(|f| f as &dyn FoldKernel<T>);
    if let Some(ep) = open(pe, plan, buf, local_src, local_dst, fold, false) {
        close(pe, plan, ep);
    }
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// FNV-1a digest of a counts/displacement table, for keying irregular
/// collectives without carrying the whole table in the [`PlanKey`]: a
/// v-collective's schedule is determined by its per-PE counts, but an
/// `O(n)` shape vector would make key hashing and equality scale with
/// world size on every warm issue. The digest keeps keys `O(1)`; the
/// total element count rides separately in `PlanKey::nelems`, so a
/// (vanishingly unlikely) digest collision additionally needs matching
/// totals before two different tables could alias.
pub fn counts_digest(counts: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in counts {
        for b in (c as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Everything that determines a lowered plan byte-for-byte: collective,
/// algorithm, the *requested* sync mode (Auto resolves deterministically
/// from the rest of the key), world size, root, payload geometry, element
/// size, and a shape vector carrying whatever else the generator consumed
/// (adjusted displacement tables, team members, generator tag). Written
/// in exactly one place, [`Row::key`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Telemetry kind of the schedule.
    pub kind: CollectiveKind,
    /// Concrete algorithm shape (policy Auto is resolved *before* keying).
    pub algo: Algorithm,
    /// Requested sync mode, pre-resolution (`Auto` allowed: it resolves
    /// identically for identical keys).
    pub sync: SyncMode,
    /// World size.
    pub n_pes: usize,
    /// Root rank (0 for rootless collectives).
    pub root: usize,
    /// Element count.
    pub nelems: usize,
    /// Element stride.
    pub stride: usize,
    /// Element size in bytes.
    pub elem_bytes: usize,
    /// Generator tag, then any extra shape data (displacement tables,
    /// team members); the layout is [`Row::key`]'s.
    pub shape: Vec<u64>,
}

/// Cache telemetry surfaced through
/// [`RunReport::plan_cache`](crate::fabric::RunReport).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a compiled plan.
    pub hits: u64,
    /// Lookups that lowered a new plan. Under concurrent issue each
    /// distinct key misses exactly once (builds run under the shard
    /// lock), so `misses == entries` after any run.
    pub misses: u64,
    /// Plans resident.
    pub entries: u64,
    /// Approximate bytes of compiled steps resident.
    pub bytes: u64,
}

impl PlanCacheStats {
    /// Fraction of lookups served from cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

const PLAN_CACHE_SHARDS: usize = 16;

/// The shard of a key whose word hash is `h`: four of its middle bits, so
/// the keys of one shard still differ in the low bits a shard map indexes
/// its buckets by and in the top seven it tags them with.
fn shard_index(h: u64) -> usize {
    (h >> 32) as usize % PLAN_CACHE_SHARDS
}

struct PlanShard {
    map: Mutex<WordMap<PlanKey, Arc<Plan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicU64,
}

/// Sharded, thread-safe plan memo. Shard selection hashes the key, so
/// concurrent lookups from many PEs contend only when they race on the
/// *same* collective shape — and then the first arrival builds while the
/// rest block and hit, keeping the hit/miss counters exact
/// (`misses == distinct keys`). The shard pick and the shard maps hash
/// with the seedless [`WordBuildHasher`], so a key lands in the same shard
/// and bucket in every process, and a dropped cache frees its plans in one
/// order: the allocator state the next launch starts from, and with it the
/// cycles its private buffers are priced at, does not vary by process.
pub struct PlanCache {
    shards: Vec<PlanShard>,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache {
            shards: (0..PLAN_CACHE_SHARDS)
                .map(|_| PlanShard {
                    map: Mutex::new(WordMap::default()),
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                    bytes: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn shard_of(&self, key: &PlanKey) -> &PlanShard {
        &self.shards[shard_index(WordBuildHasher::default().hash_one(key))]
    }

    /// Fetch the plan for `key`, lowering it with `build` on first use.
    /// The build runs under the shard lock: peers racing on the same key
    /// block briefly and then hit, so every distinct key is lowered
    /// exactly once and the counters stay race-free.
    pub fn get_or_build(&self, key: &PlanKey, build: impl FnOnce() -> Plan) -> Arc<Plan> {
        let shard = self.shard_of(key);
        let mut map = shard.map.lock().unwrap();
        if let Some(p) = map.get(key) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(p);
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(build());
        shard
            .bytes
            .fetch_add(plan.approx_bytes() as u64, Ordering::Relaxed);
        map.insert(key.clone(), Arc::clone(&plan));
        plan
    }

    /// Aggregate hit/miss/footprint counters over all shards.
    pub fn stats(&self) -> PlanCacheStats {
        let mut s = PlanCacheStats::default();
        for shard in &self.shards {
            s.hits += shard.hits.load(Ordering::Relaxed);
            s.misses += shard.misses.load(Ordering::Relaxed);
            s.bytes += shard.bytes.load(Ordering::Relaxed);
            s.entries += shard.map.lock().unwrap().len() as u64;
        }
        s
    }
}

// ---------------------------------------------------------------------------
// The hot-path entry the collective wrappers route through
// ---------------------------------------------------------------------------

fn algo_bit(a: Algorithm) -> u64 {
    1 << match a {
        Algorithm::Binomial => 0,
        Algorithm::Linear => 1,
        Algorithm::Ring => 2,
    }
}

fn sync_bit(s: SyncMode) -> u64 {
    1 << match s {
        SyncMode::Barrier => 0,
        SyncMode::Signaled => 1,
        SyncMode::Pipelined => 2,
        SyncMode::Auto => 3,
    }
}

/// Record an inert episode — a zero-length call that returns before
/// keying a plan: the call is counted (by rank 0, as every PE makes it)
/// and nothing else — no stage, no staging board, no barrier, no trace
/// event. [`open`] counts a plan that moves nothing (zero elements, one
/// PE) the same way, by the plan's lead.
pub(crate) fn note_inert(pe: &Pe, kind: CollectiveKind) {
    pe.note_collective(kind, 0, &SampleTemplate::default(), 0, 0);
}

/// Issue one blocking episode of `row`, reporting as `kind`, through the
/// fabric's plan cache: a warm issue never materialises the
/// `CommSchedule` at all.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_schedule<T: XbrType>(
    pe: &Pe,
    row: &Row<'_>,
    kind: CollectiveKind,
    buf: SymmRef<T>,
    local_src: &[T],
    local_dst: &mut [T],
    fold: Option<&dyn FoldKernel<T>>,
    sync: SyncMode,
) {
    let plan = plan_for(pe, row, kind, sync, std::mem::size_of::<T>());
    if let Some(ep) = open(pe, &plan, buf, local_src, local_dst, fold, false) {
        close(pe, &plan, ep);
    }
}

/// The cached plan of `row` — where every route to a plan meets: the row
/// is checked before the cache is touched (a panic inside the build would
/// poison the shard for every PE), keyed, and generated and lowered only
/// on a miss.
pub(crate) fn plan_for(
    pe: &Pe,
    row: &Row<'_>,
    kind: CollectiveKind,
    sync: SyncMode,
    elem_bytes: usize,
) -> Arc<Plan> {
    row.check();
    let key = row.key(kind, sync, elem_bytes);
    pe.plan_cache().get_or_build(&key, || Plan {
        kind,
        algo: Some(key.algo),
        lead: row.members.map_or(0, |m| m[0]),
        ..lower(&row.schedule(), sync, elem_bytes)
    })
}

// ---------------------------------------------------------------------------
// Handles: every route's episode, open until waited on
// ---------------------------------------------------------------------------

/// What the close of a staged reduction reads out of its board.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Readout {
    /// The root reads `nelems` elements at `stride` out (reduce).
    Root {
        root: usize,
        nelems: usize,
        stride: usize,
    },
    /// Every PE reads `nelems` contiguous elements out (all-reduce).
    All { nelems: usize },
}

impl Readout {
    /// The board window, `(nelems, stride)`.
    fn window(self) -> (usize, usize) {
        match self {
            Readout::Root { nelems, stride, .. } => (nelems, stride),
            Readout::All { nelems } => (nelems, 1),
        }
    }
}

/// A staged reduction's symmetric board, read out after the drain.
struct Board<T: XbrType> {
    alloc: SymmAlloc<T>,
    /// Freed after the read-out; a persistent plan keeps its own.
    owned: bool,
    readout: Readout,
}

/// A collective episode, open until waited on — what [`ixbroadcast`],
/// [`ixreduce`], [`ixallreduce`] and a persistent plan's `start` return,
/// and what every blocking broadcast and staged reduction waits on at
/// once.
///
/// SPMD discipline: every PE must issue the same handles in the same
/// order and wait on them in issue order. Overlapping episodes must
/// touch disjoint symmetric buffers. While handles are in flight,
/// blocking collectives remain safe (they run above the outstanding slot
/// window); see
/// [`Pe::signal_table`](crate::fabric::Pe) for pre-sizing when many
/// episodes overlap.
///
/// Dropping a live handle completes the episode exactly as
/// [`CollHandle::wait`] would — drain, closing barriers, slot-window
/// release — minus the local read-out. An abandoned episode must not
/// strand its in-flight signal slots or the episode cursor: those are
/// what every *later* issue's slot window is rebased on, so a leak here
/// poisons the fabric for all subsequent nonblocking collectives. Like
/// `wait`, the drop is collective: every PE must retire the episode at
/// the same point in issue order.
#[must_use = "an issued collective must be waited on"]
pub struct CollHandle<'a, T: XbrType> {
    pe: &'a Pe<'a>,
    /// The open episode and its plan; `None` once closed, or for an
    /// inert call.
    open: Option<(Arc<Plan>, Episode<T>)>,
    /// A staged reduction's board, until it is read out.
    board: Option<Board<T>>,
}

/// A zero-length call: counted ([`note_inert`]) and nothing else.
fn inert<'a, T: XbrType>(pe: &'a Pe, kind: CollectiveKind) -> CollHandle<'a, T> {
    note_inert(pe, kind);
    CollHandle {
        pe,
        open: None,
        board: None,
    }
}

/// [`open`] an episode of `plan` over `buf` on a handle. No private end:
/// whatever a route reads privately it stages before the open.
fn issue<'a, T: XbrType>(
    pe: &'a Pe,
    plan: Arc<Plan>,
    buf: SymmRef<T>,
    fold: Option<&dyn FoldKernel<T>>,
    outlives: bool,
) -> CollHandle<'a, T> {
    let open = open(pe, &plan, buf, &[], &mut [], fold, outlives);
    CollHandle {
        pe,
        open: open.map(|ep| (plan, ep)),
        board: None,
    }
}

/// The one broadcast stage-in: the root writes `nelems` elements at
/// `stride` of its private `src` into its symmetric `dest`, so interior
/// stages forward heap to heap with one put each; then an episode of
/// `plan` opens over `dest`. Blocking (then [`CollHandle::wait`]),
/// nonblocking and persistent broadcasts alike. A zero-length call is
/// inert: no write, no plan.
pub(crate) fn issue_broadcast<'a, T: XbrType>(
    pe: &'a Pe,
    kind: CollectiveKind,
    dest: &SymmAlloc<T>,
    src: &[T],
    (root, nelems, stride): (usize, usize, usize),
    plan: impl FnOnce() -> Arc<Plan>,
    outlives: bool,
) -> CollHandle<'a, T> {
    if nelems == 0 {
        return inert(pe, kind);
    }
    if pe.rank() == root {
        pe.heap_write_strided(dest.whole(), src, nelems, stride);
    }
    issue(pe, plan(), dest.whole(), None, outlives)
}

/// The one staged reduction: every contributor copies its symmetric `src`
/// window into a symmetric board — "employed in order to prevent any
/// unintended overwriting of values on any PE" (paper §4.4) — an episode
/// of `plan` folds over the board, and the handle reads the result out
/// after the drain. Blocking (then [`CollHandle::wait_into`]),
/// nonblocking and persistent reductions alike. `src` is `None` on a PE
/// that contributes nothing (a team's non-member); `board` is a persistent
/// plan's own, else one is allocated for the episode and freed after the
/// read-out. `f` is erased here, while still concrete, into the kernel of
/// the plan's fold steps. A zero-length call is inert: no board, no
/// barrier, no plan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn issue_reduce<'a, T: XbrType>(
    pe: &'a Pe,
    kind: CollectiveKind,
    src: Option<&SymmAlloc<T>>,
    readout: Readout,
    board: Option<SymmAlloc<T>>,
    plan: impl FnOnce() -> Arc<Plan>,
    f: impl Fn(T, T) -> T,
    outlives: bool,
) -> CollHandle<'a, T> {
    let (nelems, stride) = readout.window();
    if nelems == 0 {
        return inert(pe, kind);
    }
    let owned = board.is_none();
    let alloc = board.unwrap_or_else(|| pe.shared_malloc::<T>(span(nelems, stride)));
    if let Some(src) = src {
        pe.get_symm(alloc.whole(), src.whole(), nelems, stride, pe.rank());
    }
    pe.barrier();
    let mut h = issue(pe, plan(), alloc.whole(), Some(&f), outlives);
    h.board = Some(Board {
        alloc,
        owned,
        readout,
    });
    h
}

impl<T: XbrType> CollHandle<'_, T> {
    /// `true` when every drain signal this PE still owes has already
    /// arrived — [`CollHandle::wait`] will not stall on a signal (it may
    /// still synchronise at the collective's closing barrier). Does not
    /// consume anything; safe to poll.
    pub fn test(&self, pe: &Pe) -> bool {
        let Some((plan, ep)) = &self.open else {
            return true;
        };
        let Some(table) = ep.table else {
            return true;
        };
        let prog = &plan.per_pe[pe.rank()];
        prog.steps[prog.drain_from..].iter().all(|s| match s {
            PlanStep::Wait { slot } => pe.signal_peek(table.offset(ep.base + *slot as usize)),
            _ => true,
        })
    }

    /// [`close`] the episode (collective: every PE must call in issue
    /// order), then read a staged reduction's result out of its board into
    /// `dest` and release the board. `None` runs the same barrier but
    /// skips the local copy, so a dropping PE stays in step with peers
    /// that `wait_into`. Idempotent: each part runs once.
    fn finish(&mut self, pe: &Pe, dest: Option<&mut [T]>) {
        if let Some((plan, ep)) = self.open.take() {
            close(pe, &plan, ep);
        }
        let Some(board) = self.board.take() else {
            return;
        };
        let reads = match board.readout {
            Readout::Root { root, .. } => pe.rank() == root,
            Readout::All { .. } => true,
        };
        if let (true, Some(dest)) = (reads, dest) {
            let (nelems, stride) = board.readout.window();
            pe.heap_read_strided(board.alloc.whole(), dest, nelems, stride);
        }
        pe.barrier();
        if board.owned {
            pe.shared_free(board.alloc);
        }
    }

    /// Complete a collective with no local read-out ([`ixbroadcast`] and
    /// persistent broadcasts: the result is already in the symmetric
    /// destination).
    pub fn wait(mut self, pe: &Pe) {
        debug_assert!(
            self.board.is_none(),
            "this handle produces output; use wait_into"
        );
        self.finish(pe, None);
    }

    /// Complete a collective whose result is copied into `dest`
    /// ([`ixreduce`] at the root, [`ixallreduce`] everywhere).
    pub fn wait_into(mut self, pe: &Pe, dest: &mut [T]) {
        self.finish(pe, Some(dest));
    }
}

impl<T: XbrType> Drop for CollHandle<'_, T> {
    fn drop(&mut self) {
        // A panicking PE cannot be asked to run collective barriers; the
        // watchdog/deadlock reporter owns that failure path.
        if std::thread::panicking() {
            return;
        }
        let pe = self.pe;
        self.finish(pe, None);
    }
}

/// Nonblocking broadcast of `nelems` elements from `root`'s `src` into
/// the symmetric `dest` on every PE — one episode of a
/// [`PersistentBroadcast`]. Collective call; complete with
/// [`CollHandle::wait`]. Under the signaled/pipelined disciplines,
/// non-root PEs return immediately after issuing their forwarding work
/// and absorb the incoming transfer at `wait` — the overlap window.
pub fn ixbroadcast<'a, T: XbrType>(
    pe: &'a Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    root: usize,
    sync: SyncMode,
) -> CollHandle<'a, T> {
    plan_create_broadcast(pe, dest, nelems, root, sync).start(pe, src)
}

/// The binomial call of `kind` — what the nonblocking and persistent
/// rooted routes run, sharing warm plans with the blocking bodies.
fn binomial(
    kind: fn(AlgorithmPolicy) -> CallKind,
    root: usize,
    nelems: usize,
    sync: SyncMode,
) -> Call<'static> {
    Call::whole(kind(AlgorithmPolicy::Binomial), root, nelems, 1, sync)
}

/// Nonblocking reduction of every PE's symmetric `src` window toward
/// `root`. Complete with [`CollHandle::wait_into`]; the root's `dest`
/// receives the folded `nelems` elements.
pub fn ixreduce<'a, T: XbrType>(
    pe: &'a Pe,
    src: &SymmAlloc<T>,
    nelems: usize,
    root: usize,
    f: impl Fn(T, T) -> T + Copy,
    sync: SyncMode,
) -> CollHandle<'a, T> {
    let (kind, stride) = (CollectiveKind::Reduce, 1);
    let readout = Readout::Root {
        root,
        nelems,
        stride,
    };
    let plan = || binomial(CallKind::Reduce, root, nelems, sync).plan(pe, size_of::<T>());
    issue_reduce(pe, kind, Some(src), readout, None, plan, f, true)
}

/// Nonblocking allreduce. Complete with [`CollHandle::wait_into`]; every
/// PE's `dest` receives the folded `nelems` elements. The same staged
/// episode as the blocking
/// [`reduce_all_sync`](crate::collectives::extended::reduce_all_sync),
/// left open: every member of the [`AllReduceAlgo`] family —
/// reduce-then-broadcast as the fused schedule
/// ([`allreduce_fused`](crate::collectives::extended::allreduce_fused)),
/// recursive doubling, Rabenseifner and ring — lowers through the plan
/// cache under one key per row, and `Auto` resolves by the same
/// calibrated crossovers, so warm plans are shared between the two.
pub fn ixallreduce<'a, T: XbrType>(
    pe: &'a Pe,
    src: &SymmAlloc<T>,
    nelems: usize,
    f: impl Fn(T, T) -> T + Copy,
    algo: AllReduceAlgo,
    sync: SyncMode,
) -> CollHandle<'a, T> {
    let call = Call::whole(CallKind::AllReduce(algo), 0, nelems, 1, sync);
    let plan = || call.plan(pe, size_of::<T>());
    let (kind, readout) = (CollectiveKind::AllReduce, Readout::All { nelems });
    issue_reduce(pe, kind, Some(src), readout, None, plan, f, true)
}

/// A persistent broadcast: plan compiled (and destination bound) once,
/// then issued any number of times at service rate with
/// [`PersistentBroadcast::start`] — the `plan_create`/`plan_start` shape
/// of MPI persistent collectives.
pub struct PersistentBroadcast<T: XbrType> {
    plan: Arc<Plan>,
    dest: SymmAlloc<T>,
    nelems: usize,
    root: usize,
}

/// Compile a persistent broadcast plan over `dest`. Pure local work (plus
/// at most one shared lowering in the plan cache) — no communication.
pub fn plan_create_broadcast<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    nelems: usize,
    root: usize,
    sync: SyncMode,
) -> PersistentBroadcast<T> {
    PersistentBroadcast {
        plan: binomial(CallKind::Broadcast, root, nelems, sync).plan(pe, size_of::<T>()),
        dest: *dest,
        nelems,
        root,
    }
}

impl<T: XbrType> PersistentBroadcast<T> {
    /// Issue one episode (collective call; `src` is read on the root).
    pub fn start<'a>(&self, pe: &'a Pe, src: &[T]) -> CollHandle<'a, T> {
        let (kind, whole) = (CollectiveKind::Broadcast, (self.root, self.nelems, 1));
        let plan = || Arc::clone(&self.plan);
        issue_broadcast(pe, kind, &self.dest, src, whole, plan, true)
    }
}

/// A persistent allreduce: plan and symmetric staging bound at creation;
/// each [`PersistentAllReduce::start`] folds the current contents of the
/// bound `src` window. Free the staging with
/// [`PersistentAllReduce::destroy`].
pub struct PersistentAllReduce<T: XbrType> {
    plan: Arc<Plan>,
    src: SymmAlloc<T>,
    staging: SymmAlloc<T>,
    nelems: usize,
}

/// Create a persistent allreduce over the symmetric `src` window.
/// Collective call (allocates shared staging).
pub fn plan_create_allreduce<T: XbrType>(
    pe: &Pe,
    src: &SymmAlloc<T>,
    nelems: usize,
    sync: SyncMode,
) -> PersistentAllReduce<T> {
    let fused = CallKind::AllReduce(AllReduceAlgo::ReduceThenBroadcast);
    PersistentAllReduce {
        plan: Call::whole(fused, 0, nelems, 1, sync).plan(pe, size_of::<T>()),
        src: *src,
        staging: pe.shared_malloc::<T>(nelems.max(1)),
        nelems,
    }
}

impl<T: XbrType> PersistentAllReduce<T> {
    /// Issue one episode over the bound `src` window (collective call).
    pub fn start<'a>(&self, pe: &'a Pe, f: impl Fn(T, T) -> T + Copy) -> CollHandle<'a, T> {
        let (kind, readout) = (
            CollectiveKind::AllReduce,
            Readout::All {
                nelems: self.nelems,
            },
        );
        let plan = || Arc::clone(&self.plan);
        issue_reduce(
            pe,
            kind,
            Some(&self.src),
            readout,
            Some(self.staging),
            plan,
            f,
            true,
        )
    }

    /// Release the staging buffer (collective call).
    pub fn destroy(self, pe: &Pe) {
        pe.shared_free(self.staging);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::extended::allreduce_fused;
    use crate::collectives::schedule::{broadcast_binomial, rooted_schedule};
    use crate::collectives::schedule::{Payload, Shape};
    use crate::collectives::verify::{check_schedule, CollectiveSpec, ModelConfig};
    use crate::fabric::{Fabric, FabricConfig};
    use xbgas_sim::hash::WordSet;

    /// Shard loads, the number of distinct low-7 and top-7 bit values of
    /// the word hashes of `keys`, and the fewest distinct low-4 bit values
    /// among the keys of one shard.
    fn spread<K: std::hash::Hash>(keys: &[K]) -> ([usize; PLAN_CACHE_SHARDS], usize, usize, usize) {
        let mut shards = [0; PLAN_CACHE_SHARDS];
        let mut in_shard: [WordSet<u64>; PLAN_CACHE_SHARDS] = Default::default();
        let (mut low, mut top) = (WordSet::default(), WordSet::default());
        for k in keys {
            let h = WordBuildHasher::default().hash_one(k);
            shards[shard_index(h)] += 1;
            in_shard[shard_index(h)].insert(h & 15);
            low.insert(h & 127);
            top.insert(h >> 57);
        }
        let per_shard = in_shard.iter().map(WordSet::len).min().unwrap();
        (shards, low.len(), top.len(), per_shard)
    }

    /// The plan cache's word hash spreads keys over every shard, and over
    /// the low bits a shard map indexes its buckets by (within each shard
    /// too) and the top seven it tags them with: sequential words, and
    /// `coll_cold`-shaped plan keys (every kind at nine sizes, the rooted
    /// ones from each of 8 roots: 504 keys).
    #[test]
    fn word_hash_spreads_keys_over_shards_and_bucket_bits() {
        let words: Vec<u64> = (0..1024).collect();
        let (shards, low, top, per_shard) = spread(&words);
        assert!(
            shards.iter().all(|&s| (32..=128).contains(&s)),
            "{shards:?}"
        );
        assert_eq!((low, top), (128, 128));
        assert!(per_shard >= 12, "{per_shard} of 16 low nibbles in a shard");

        let mut keys = Vec::new();
        for (tag, kind) in CollectiveKind::ALL.into_iter().enumerate() {
            let rooted = tag < 4;
            for j in 0..9 {
                for r in 0..8 {
                    let (root, nelems) = if rooted {
                        (r, 1 + 60 * j)
                    } else {
                        (0, 1 + 511 * (8 * j + r) / 71)
                    };
                    keys.push(PlanKey {
                        kind,
                        algo: Algorithm::Binomial,
                        sync: SyncMode::Auto,
                        n_pes: 8,
                        root,
                        nelems,
                        stride: 1,
                        elem_bytes: 8,
                        shape: vec![tag as u64],
                    });
                }
            }
        }
        assert_eq!(keys.iter().collect::<WordSet<_>>().len(), 504);
        let (shards, low, top, per_shard) = spread(&keys);
        assert!(shards.iter().all(|&s| (16..=63).contains(&s)), "{shards:?}");
        assert!(low >= 112 && top >= 112, "low {low}, top {top} of 128");
        assert!(per_shard >= 8, "{per_shard} of 16 low nibbles in a shard");
    }

    /// Lowering resolves Auto through `CommSchedule::resolve_sync`.
    #[test]
    fn lowering_resolves_auto_once() {
        let sched = broadcast_binomial(8, 0, 4, 1);
        let plan = lower(&sched, SyncMode::Auto, 8);
        assert_eq!(plan.sync, sched.resolve_sync(SyncMode::Auto, 8));
        // Small payload, 8 PEs, multi-stage → Signaled.
        assert_eq!(plan.sync, SyncMode::Signaled);
        assert!(plan.n_slots > 0);
    }

    /// Barrier plans are fully issued (empty drain); signaled plans keep
    /// their drain tail.
    #[test]
    fn drain_split_matches_discipline() {
        let sched = broadcast_binomial(8, 0, 16, 1);
        let barrier = lower(&sched, SyncMode::Barrier, 8);
        for p in &barrier.per_pe {
            assert_eq!(p.drain_from, p.steps.len());
        }
        let signaled = lower(&sched, SyncMode::Signaled, 8);
        for p in &signaled.per_pe {
            assert!(p.drain_from < p.steps.len());
            assert!(matches!(
                p.steps[p.drain_from],
                PlanStep::StageStart { si } if si as usize == signaled.n_stages
            ));
        }
    }

    /// Empty schedules lower to telemetry-only plans.
    #[test]
    fn empty_schedule_lowers_empty() {
        let sched = broadcast_binomial(1, 0, 16, 1);
        let plan = lower(&sched, SyncMode::Signaled, 8);
        assert!(plan.empty);
        assert_eq!(plan.n_slots, 0);
        let sched = broadcast_binomial(4, 0, 0, 1);
        let plan = lower(&sched, SyncMode::Signaled, 8);
        assert!(plan.empty);
    }

    /// The static sample template matches the op/byte structure of the
    /// schedule: a binomial broadcast moves n-1 puts of nelems each.
    #[test]
    fn template_counts_match_schedule() {
        for n in [2usize, 3, 5, 8] {
            let sched = broadcast_binomial(n, 0, 4, 1);
            let plan = lower(&sched, SyncMode::Barrier, 8);
            let puts: u64 = plan.per_pe.iter().map(|p| p.sample.puts).sum();
            assert_eq!(puts, (n - 1) as u64, "n={n}");
            let bytes: u64 = plan.per_pe.iter().map(|p| p.sample.bytes_put).sum();
            assert_eq!(bytes, ((n - 1) * 4 * 8) as u64, "n={n}");
        }
    }

    /// Cache: same key hits, different shapes build distinct plans, and
    /// the counters account every lookup.
    #[test]
    fn cache_hits_and_misses() {
        let cache = PlanCache::new();
        let key = |n: usize, nelems: usize| {
            let shape = Shape::Rooted {
                family: CollectiveKind::Broadcast,
                algo: Algorithm::Binomial,
                root: 0,
                payload: Payload::Whole { nelems, stride: 1 },
            };
            let row = Row {
                shape,
                members: None,
                world: n,
            };
            row.key(CollectiveKind::Broadcast, SyncMode::Auto, 8)
        };
        let k1 = key(4, 8);
        let p1 = cache.get_or_build(&k1, || {
            lower(&broadcast_binomial(4, 0, 8, 1), SyncMode::Auto, 8)
        });
        let p2 = cache.get_or_build(&k1, || unreachable!("second lookup must hit"));
        assert!(Arc::ptr_eq(&p1, &p2));
        let k2 = key(4, 9);
        let p3 = cache.get_or_build(&k2, || {
            lower(&broadcast_binomial(4, 0, 9, 1), SyncMode::Auto, 8)
        });
        assert!(!Arc::ptr_eq(&p1, &p3));
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.entries, 2);
        assert!(s.bytes > 0);
    }

    /// The fused allreduce schedule satisfies the conformance oracle's
    /// AllReduce spec under every concrete sync mode (sizes 2–8).
    #[test]
    fn fused_allreduce_passes_oracle() {
        for n in 2..=8 {
            let sched = allreduce_fused(n, 3);
            for sync in SyncMode::CONCRETE {
                let report = check_schedule(
                    &sched,
                    sync,
                    &CollectiveSpec::AllReduce { nelems: 3 },
                    &ModelConfig::default(),
                );
                assert!(report.ok(), "n={n} sync={sync:?}: {}", report.summary());
            }
        }
    }

    /// Plan execution against the live fabric: every member of the
    /// family — the fused reduce-then-broadcast plan included — folds and
    /// redistributes through `ixallreduce` under every concrete sync mode.
    #[test]
    fn fused_allreduce_executes() {
        for n in [1usize, 2, 5, 8] {
            for (algo, sync) in AllReduceAlgo::CONCRETE
                .into_iter()
                .flat_map(|a| SyncMode::CONCRETE.map(|s| (a, s)))
            {
                let report = Fabric::run(FabricConfig::new(n), move |pe| {
                    let src = pe.shared_malloc::<u64>(2);
                    pe.heap_write(src.whole(), &[pe.rank() as u64 + 1, 10]);
                    pe.barrier();
                    let mut d = [0u64; 2];
                    ixallreduce(pe, &src, 2, |a, b| a + b, algo, sync).wait_into(pe, &mut d);
                    pe.barrier();
                    d
                });
                let n64 = n as u64;
                let expect = [n64 * (n64 + 1) / 2, 10 * n64];
                for (rank, got) in report.results.iter().enumerate() {
                    assert_eq!(got, &expect, "n={n} {algo:?} sync={sync:?} rank={rank}");
                }
                assert_eq!(report.stats.signals, report.stats.signal_waits);
            }
        }
    }

    /// Ring and linear generators lower cleanly too (barrier-only stages,
    /// zero-op stages, GetFoldInto).
    #[test]
    fn other_generators_lower() {
        let whole = |nelems| Payload::Whole { nelems, stride: 1 };
        let ring = rooted_schedule(CollectiveKind::Broadcast, Algorithm::Ring, 5, 1, whole(6));
        let plan = lower(&ring, SyncMode::Signaled, 8);
        assert_eq!(plan.n_stages, 4);
        let lin = rooted_schedule(CollectiveKind::Reduce, Algorithm::Linear, 4, 2, whole(3));
        let plan = lower(&lin, SyncMode::Barrier, 8);
        assert!(plan
            .per_pe
            .iter()
            .flat_map(|p| p.steps.iter())
            .any(|s| matches!(
                s,
                PlanStep::Fold {
                    dst: Space::LocalDst,
                    ..
                }
            )));
    }
}
