//! Communication schedules — the shared plan/execute split behind every
//! collective in this crate.
//!
//! A [`CommSchedule`] materialises a collective as a deterministic sequence
//! of [`Stage`]s, each a list of one-sided [`TransferOp`]s plus an optional
//! per-stage local fold for reductions. Schedules are *pure data*: the
//! generator functions in this module (and the per-collective modules) run
//! without a fabric, so the communication structure of Algorithms 1–4 and
//! their linear/ring/hierarchical/team variants is unit-testable as plain
//! values — op counts, stage counts, PE coverage — without spawning a
//! single PE thread.
//!
//! A schedule runs by being lowered once into a flat per-PE
//! [`Plan`](crate::collectives::plan::Plan) — [`plan::lower`] is the only
//! place the synchronization protocol is written down — and executed by
//! [`plan::execute_plan`], under one of three disciplines ([`SyncMode`]):
//!
//! * **Barrier** — each PE issues the ops it owns (one fabric transfer
//!   each; see the [`OpKind`] table for what each kind's two ends are),
//!   applies any folds, and closes every stage with a barrier —
//!   reproducing, op for op and barrier for barrier, the paper's
//!   Algorithms 1–4.
//! * **Signaled** — the per-stage barriers disappear. Every op depends
//!   only on the point-to-point signals of the ops that feed it: after a
//!   put lands the executor posts its completion flag into a per-op slot
//!   of the fabric's symmetric signal table ([`Pe::signal_post`]), gets
//!   wait for a readiness flag from the producer, and a single barrier
//!   closes the collective. Independent subtrees proceed without waiting
//!   for the slowest PE of each stage.
//! * **Pipelined** — signaled, plus large puts split into
//!   [`pipeline_chunks`](crate::collectives::policy::pipeline_chunks)
//!   segments, each signaled independently, so a child can forward
//!   segment `k` while segment `k+1` is still in flight to it
//!   (Träff-style doubly-pipelined stages).
//!
//! The collective wrappers reach plans through the fabric's plan cache
//! ([`plan::run_schedule`]); [`execute`] here is the uncached one-shot
//! route for ad-hoc schedules. Either way the episode
//! reports per-collective telemetry (ops, bytes, stages, simulated
//! cycles, signal posts/waits/stall cycles) via [`Pe::note_collective`],
//! surfaced through [`RunReport::collectives`](crate::fabric::RunReport).

use crate::collectives::plan::{self, Space};
use crate::collectives::policy::SyncMode;
use crate::collectives::vrank::logical_rank;
use crate::fabric::{ceil_log2, span, CollectiveKind, Pe, SymmRef};
use crate::types::XbrType;

/// `true` for the op kinds that push data (and therefore carry per-chunk
/// completion signals under the signaled/pipelined disciplines).
pub fn is_put_kind(k: OpKind) -> bool {
    matches!(k, OpKind::Put | OpKind::PutNb | OpKind::PutFrom)
}

/// How a [`TransferOp`] moves data, and which side issues it.
///
/// Symmetric offsets (`src_at`/`dst_at`) index elements from the base of
/// the schedule's symmetric working buffer; private offsets index the
/// issuer's `local_src`/`local_dst` slices passed to [`execute`].
///
/// Every kind is one fabric transfer between the issuer's *local space*
/// and a symmetric offset on the other PE; the kinds differ only in this
/// table (encoded by [`TransferOp::issuer`], `OpKind::local_space`,
/// [`TransferOp::is_fold`] and [`is_put_kind`]):
///
/// | kind          | issuer   | local space | fold | non-blocking |
/// |---------------|----------|-------------|------|--------------|
/// | `Put`         | `src_pe` | symmetric   | no   | no           |
/// | `PutFrom`     | `src_pe` | `local_src` | no   | no           |
/// | `PutNb`       | `src_pe` | `local_src` | no   | yes          |
/// | `Get`         | `dst_pe` | symmetric   | no   | no           |
/// | `GetInto`     | `dst_pe` | `local_dst` | no   | no           |
/// | `GetFold`     | `dst_pe` | symmetric   | yes  | no           |
/// | `GetFoldInto` | `dst_pe` | `local_dst` | yes  | no           |
///
/// A fold kind pulls into the issuer's landing buffer first and then
/// combines that into its local space instead of overwriting it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `src_pe` pushes its own segment at `src_at` to `dst_at` on
    /// `dst_pe`, heap to heap.
    Put,
    /// `src_pe` pushes from its private `local_src` without blocking; the
    /// stage-closing barrier (or the completion signal's stamp) absorbs
    /// the flight time.
    PutNb,
    /// `dst_pe` pulls `src_pe`'s segment into its own, heap to heap.
    Get,
    /// `dst_pe` pulls `src_pe`'s segment at `src_at` and folds it into its
    /// *own* segment at `dst_at` (the reduction step of Algorithm 2).
    GetFold,
    /// `dst_pe` pulls `src_pe`'s segment and folds it into its private
    /// `local_dst` at `dst_at` (linear reduction, which must not write
    /// back into the symmetric source).
    GetFoldInto,
    /// `src_pe` pushes from its private `local_src` at `src_at` to
    /// `dst_at` on `dst_pe`, blocking.
    PutFrom,
    /// `dst_pe` pulls `src_pe`'s segment at `src_at` into its private
    /// `local_dst` at `dst_at`.
    GetInto,
}

impl OpKind {
    /// The buffer on the issuer's side the op reads (puts) or leaves its
    /// result in (gets and folds).
    pub(crate) fn local_space(self) -> Space {
        match self {
            OpKind::Put | OpKind::Get | OpKind::GetFold => Space::Sym,
            OpKind::PutNb | OpKind::PutFrom => Space::LocalSrc,
            OpKind::GetInto | OpKind::GetFoldInto => Space::LocalDst,
        }
    }
}

/// One one-sided transfer in a schedule stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferOp {
    /// PE whose data (or private slice) is the source.
    pub src_pe: usize,
    /// PE whose buffer (or private slice) is the destination.
    pub dst_pe: usize,
    /// Element offset of the source span.
    pub src_at: usize,
    /// Element offset of the destination span.
    pub dst_at: usize,
    /// Elements to move (at positions `0, stride, 2·stride, …`).
    pub nelems: usize,
    /// Element stride applied to both spans.
    pub stride: usize,
    /// Transfer flavour and issuing side.
    pub kind: OpKind,
}

impl TransferOp {
    /// The PE that issues this op (puts are pushed, gets are pulled).
    pub fn issuer(&self) -> usize {
        if is_put_kind(self.kind) {
            self.src_pe
        } else {
            self.dst_pe
        }
    }

    /// The op seen from its issuer: `(local offset, remote PE, remote
    /// offset)` — a put's local end is its source, a get's its destination.
    pub(crate) fn ends(&self) -> (usize, usize, usize) {
        if is_put_kind(self.kind) {
            (self.src_at, self.dst_pe, self.dst_at)
        } else {
            (self.dst_at, self.src_pe, self.src_at)
        }
    }

    /// Contiguous element span the strided transfer covers (0 when empty).
    pub fn span(&self) -> usize {
        span(self.nelems, self.stride)
    }

    /// `true` if this op folds data instead of overwriting it.
    pub fn is_fold(&self) -> bool {
        matches!(self.kind, OpKind::GetFold | OpKind::GetFoldInto)
    }
}

/// One stage of a schedule: a set of independent transfers closed by a
/// barrier.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stage {
    /// Transfers this stage performs. A PE issues the ops it owns in list
    /// order; ops owned by different PEs proceed concurrently.
    pub ops: Vec<TransferOp>,
    /// Recursive-doubling shape: when set, every get in the stage lands
    /// *before* a mid-stage barrier and the folds happen after it (both
    /// partners read each other's buffer, so combining must wait until
    /// every read has completed). Costs a second barrier.
    pub deferred_fold: bool,
}

impl Stage {
    /// A stage with the given ops and an ordinary (single-barrier) close.
    pub fn new(ops: Vec<TransferOp>) -> Self {
        Stage {
            ops,
            deferred_fold: false,
        }
    }

    /// `true` if no PE transfers anything (the stage is barrier-only).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A collective materialised as data: an ordered list of stages over a
/// fixed-size fabric, tagged with the [`CollectiveKind`] it implements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommSchedule {
    /// World size the schedule was built for.
    pub n_pes: usize,
    /// Telemetry kind the executor reports under.
    pub kind: CollectiveKind,
    /// Stages, executed in order with a barrier after each.
    pub stages: Vec<Stage>,
}

impl CommSchedule {
    /// An empty schedule (no stages, no barriers).
    pub fn empty(n_pes: usize, kind: CollectiveKind) -> Self {
        CommSchedule {
            n_pes,
            kind,
            stages: Vec::new(),
        }
    }

    /// Total transfers across all stages.
    pub fn total_ops(&self) -> usize {
        self.stages.iter().map(|s| s.ops.len()).sum()
    }

    /// Iterate over every op in stage order.
    pub fn ops(&self) -> impl Iterator<Item = &TransferOp> {
        self.stages.iter().flat_map(|s| s.ops.iter())
    }

    /// Global op index of each stage's first op (stage-major numbering) —
    /// the base the lowering's signal-slot addressing is built on, and the
    /// inverse of [`crate::collectives::policy::slot_role`]'s op index.
    pub fn op_bases(&self) -> Vec<usize> {
        let mut bases = Vec::with_capacity(self.stages.len());
        let mut acc = 0usize;
        for stage in &self.stages {
            bases.push(acc);
            acc += stage.ops.len();
        }
        bases
    }

    /// The `(stage, op-within-stage)` coordinates of global op index `g`,
    /// or `None` when `g` is past the last op.
    pub fn op_coords(&self, g: usize) -> Option<(usize, usize)> {
        let mut acc = 0usize;
        for (si, stage) in self.stages.iter().enumerate() {
            if g < acc + stage.ops.len() {
                return Some((si, g - acc));
            }
            acc += stage.ops.len();
        }
        None
    }

    /// Largest single-op payload in bytes at element size `elem_bytes` —
    /// the quantity `SyncMode::Auto` resolution keys on.
    pub fn max_op_bytes(&self, elem_bytes: usize) -> usize {
        self.ops()
            .map(|op| op.nelems * elem_bytes)
            .max()
            .unwrap_or(0)
    }

    /// The concrete [`SyncMode`] this schedule is lowered under when asked
    /// for `sync` at element size `elem_bytes`: `Auto` keeps the plain
    /// barrier discipline for single-stage schedules (there is no
    /// per-stage barrier to eliminate) and otherwise resolves on PE count
    /// and largest transfer; explicit modes are honoured as given.
    pub fn resolve_sync(&self, sync: SyncMode, elem_bytes: usize) -> SyncMode {
        if sync == SyncMode::Auto && self.stages.len() < 2 {
            SyncMode::Barrier
        } else {
            sync.resolve(self.n_pes, self.max_op_bytes(elem_bytes))
        }
    }

    /// Check structural sanity: every PE index in range, no op sends a
    /// segment from a PE to itself via the fabric kinds that would make it
    /// a pointless self-copy (`Put`/`Get`/`GetFold`).
    ///
    /// # Panics
    /// Panics with a description of the first violated invariant.
    pub fn validate(&self) {
        for (s, stage) in self.stages.iter().enumerate() {
            for op in &stage.ops {
                assert!(
                    op.src_pe < self.n_pes && op.dst_pe < self.n_pes,
                    "stage {s}: op {op:?} references a PE outside 0..{}",
                    self.n_pes
                );
                if matches!(op.kind, OpKind::Put | OpKind::Get | OpKind::GetFold) {
                    assert!(
                        op.src_pe != op.dst_pe,
                        "stage {s}: symmetric op {op:?} is a self-send"
                    );
                }
                assert!(op.stride >= 1, "stage {s}: op {op:?} has zero stride");
            }
        }
    }
}

/// Lower `sched` under `sync` and run it once on this PE, bypassing the
/// plan cache. Every PE of the fabric must call this collectively with the
/// same schedule. `SyncMode::Auto` resolves from the schedule's PE count
/// and largest transfer, identically on every PE.
///
/// `buf` is the base of the symmetric working buffer all symmetric op
/// offsets index. `local_src`/`local_dst` back the private-memory op kinds
/// (`PutFrom`/`PutNb`/`GetInto`/`GetFoldInto`) and may be empty when the
/// schedule uses none. `fold` combines elements for `GetFold`/
/// `GetFoldInto` ops.
///
/// # Panics
/// Panics if the schedule fails [`CommSchedule::validate`], was built for
/// a different world size, or contains fold ops while `fold` is `None`.
pub fn execute<T: XbrType>(
    pe: &Pe,
    sched: &CommSchedule,
    buf: SymmRef<T>,
    local_src: &[T],
    local_dst: &mut [T],
    fold: Option<&dyn Fn(T, T) -> T>,
    sync: SyncMode,
) {
    let plan = plan::lower(sched, sync, std::mem::size_of::<T>());
    plan::execute_plan(pe, &plan, buf, local_src, local_dst, fold);
}

// ---------------------------------------------------------------------------
// Shared stage builders: the paper's binomial trees as pure functions.
// ---------------------------------------------------------------------------

/// Split `nelems` elements into `parts` balanced contiguous segments:
/// segment `j` is `(offset, len)` with the `nelems % parts` leftover
/// elements spread over the first segments. Every PE of a collective
/// computes this from the schedule shape alone, so reduce-scatter owners
/// and allgather forwarders always agree on the segmentation. Segments
/// may be empty when `nelems < parts`.
pub fn balanced_partition(nelems: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts > 0, "cannot partition into zero segments");
    let base = nelems / parts;
    let rem = nelems % parts;
    (0..parts)
        .map(|j| (j * base + j.min(rem), base + usize::from(j < rem)))
        .collect()
}

/// Top-down binomial stages (recursive halving — Algorithms 1 and 3):
/// stage `i` runs from `⌈log2 n⌉ − 1` down to 0 and each holder pushes to
/// the partner `2^i` virtual ranks away. `edge(stage_ops, vir_holder,
/// vir_partner)` appends the ops for one tree edge (virtual ranks; the
/// caller translates to logical PEs and picks offsets).
pub(crate) fn binomial_halving_stages<F: FnMut(&mut Vec<TransferOp>, u32, usize, usize)>(
    n_pes: usize,
    mut edge: F,
) -> Vec<Stage> {
    let stages = ceil_log2(n_pes);
    let mut out = Vec::with_capacity(stages as usize);
    let mut mask = (1usize << stages) - 1;
    for i in (0..stages).rev() {
        mask ^= 1 << i;
        let mut ops = Vec::new();
        for vir in 0..n_pes {
            if vir & mask == 0 && vir & (1 << i) == 0 {
                let vir_part = (vir ^ (1 << i)) % n_pes;
                if vir < vir_part {
                    edge(&mut ops, i, vir, vir_part);
                }
            }
        }
        out.push(Stage::new(ops));
    }
    out
}

/// Bottom-up binomial stages (recursive doubling — Algorithms 2 and 4):
/// stage `i` ascends and each surviving holder pulls from the partner
/// `2^i` virtual ranks away.
pub(crate) fn binomial_doubling_stages<F: FnMut(&mut Vec<TransferOp>, u32, usize, usize)>(
    n_pes: usize,
    mut edge: F,
) -> Vec<Stage> {
    let stages = ceil_log2(n_pes);
    let mut out = Vec::with_capacity(stages as usize);
    let mut mask = (1usize << stages) - 1;
    for i in 0..stages {
        mask ^= 1 << i;
        let mut ops = Vec::new();
        for vir in 0..n_pes {
            if vir | mask == mask && vir & (1 << i) == 0 {
                let vir_part = (vir ^ (1 << i)) % n_pes;
                if vir < vir_part {
                    edge(&mut ops, i, vir, vir_part);
                }
            }
        }
        out.push(Stage::new(ops));
    }
    out
}

// ---------------------------------------------------------------------------
// Schedule generators for the four paper collectives and the baselines.
// The irregular (scatter/gather) generators take the *adjusted*
// displacement table (virtual-rank prefix sums, see `scatter.rs`).
// ---------------------------------------------------------------------------

/// Algorithm 1: binomial-tree broadcast from `root`.
pub fn broadcast_binomial(n_pes: usize, root: usize, nelems: usize, stride: usize) -> CommSchedule {
    assert!(root < n_pes, "root {root} out of range");
    if n_pes == 1 {
        return CommSchedule::empty(n_pes, CollectiveKind::Broadcast);
    }
    let stages = binomial_halving_stages(n_pes, |ops, _i, vir, vir_part| {
        ops.push(TransferOp {
            src_pe: logical_rank(vir, root, n_pes),
            dst_pe: logical_rank(vir_part, root, n_pes),
            src_at: 0,
            dst_at: 0,
            nelems,
            stride,
            kind: OpKind::Put,
        });
    });
    CommSchedule {
        n_pes,
        kind: CollectiveKind::Broadcast,
        stages,
    }
}

/// Linear broadcast: the root pushes to every peer in one stage.
pub fn broadcast_linear_sched(
    n_pes: usize,
    root: usize,
    nelems: usize,
    stride: usize,
) -> CommSchedule {
    assert!(root < n_pes, "root {root} out of range");
    let mut ops = Vec::new();
    if nelems > 0 {
        for peer in 0..n_pes {
            if peer != root {
                ops.push(TransferOp {
                    src_pe: root,
                    dst_pe: peer,
                    src_at: 0,
                    dst_at: 0,
                    nelems,
                    stride,
                    kind: OpKind::Put,
                });
            }
        }
    }
    CommSchedule {
        n_pes,
        kind: CollectiveKind::Broadcast,
        stages: vec![Stage::new(ops)],
    }
}

/// Ring broadcast: the payload hops `vir → vir+1` for `n − 1` stages.
/// A single-PE world needs no stages (and, unlike the pre-schedule
/// implementation, no stray barrier).
pub fn broadcast_ring_sched(
    n_pes: usize,
    root: usize,
    nelems: usize,
    stride: usize,
) -> CommSchedule {
    assert!(root < n_pes, "root {root} out of range");
    let mut stages = Vec::new();
    for vir in 0..n_pes.saturating_sub(1) {
        let mut ops = Vec::new();
        if nelems > 0 {
            ops.push(TransferOp {
                src_pe: logical_rank(vir, root, n_pes),
                dst_pe: logical_rank((vir + 1) % n_pes, root, n_pes),
                src_at: 0,
                dst_at: 0,
                nelems,
                stride,
                kind: OpKind::Put,
            });
        }
        stages.push(Stage::new(ops));
    }
    CommSchedule {
        n_pes,
        kind: CollectiveKind::Broadcast,
        stages,
    }
}

/// Algorithm 2: binomial-tree reduction toward `root` (fold ops pull
/// partners' partial results into each survivor's staging segment).
pub fn reduce_binomial(n_pes: usize, root: usize, nelems: usize, stride: usize) -> CommSchedule {
    assert!(root < n_pes, "root {root} out of range");
    if n_pes == 1 || nelems == 0 {
        return CommSchedule::empty(n_pes, CollectiveKind::Reduce);
    }
    let stages = binomial_doubling_stages(n_pes, |ops, _i, vir, vir_part| {
        ops.push(TransferOp {
            src_pe: logical_rank(vir_part, root, n_pes),
            dst_pe: logical_rank(vir, root, n_pes),
            src_at: 0,
            dst_at: 0,
            nelems,
            stride,
            kind: OpKind::GetFold,
        });
    });
    CommSchedule {
        n_pes,
        kind: CollectiveKind::Reduce,
        stages,
    }
}

/// Linear reduction: the root pulls and folds every peer's contribution
/// into its private accumulator in one stage.
pub fn reduce_linear_sched(
    n_pes: usize,
    root: usize,
    nelems: usize,
    stride: usize,
) -> CommSchedule {
    assert!(root < n_pes, "root {root} out of range");
    let mut ops = Vec::new();
    if nelems > 0 {
        for peer in 0..n_pes {
            if peer != root {
                ops.push(TransferOp {
                    src_pe: peer,
                    dst_pe: root,
                    src_at: 0,
                    dst_at: 0,
                    nelems,
                    stride,
                    kind: OpKind::GetFoldInto,
                });
            }
        }
    }
    CommSchedule {
        n_pes,
        kind: CollectiveKind::Reduce,
        stages: vec![Stage::new(ops)],
    }
}

/// Algorithm 3: binomial-tree scatter. `adj_disp` is the adjusted
/// (virtual-rank-ordered) displacement table of length `n_pes + 1`; each
/// edge moves the partner's whole subtree span in one put.
pub fn scatter_binomial(n_pes: usize, root: usize, adj_disp: &[usize]) -> CommSchedule {
    assert!(root < n_pes, "root {root} out of range");
    assert_eq!(
        adj_disp.len(),
        n_pes + 1,
        "adj_disp must have n_pes + 1 entries"
    );
    let nelems = adj_disp[n_pes];
    if n_pes == 1 || nelems == 0 {
        return CommSchedule::empty(n_pes, CollectiveKind::Scatter);
    }
    let stages = binomial_halving_stages(n_pes, |ops, i, vir, vir_part| {
        // Elements for the partner and the subtree below it.
        let subtree_end = (vir_part + (1 << i)).min(n_pes);
        let msg_size = adj_disp[subtree_end] - adj_disp[vir_part];
        if msg_size > 0 {
            ops.push(TransferOp {
                src_pe: logical_rank(vir, root, n_pes),
                dst_pe: logical_rank(vir_part, root, n_pes),
                src_at: adj_disp[vir_part],
                dst_at: adj_disp[vir_part],
                nelems: msg_size,
                stride: 1,
                kind: OpKind::Put,
            });
        }
    });
    CommSchedule {
        n_pes,
        kind: CollectiveKind::Scatter,
        stages,
    }
}

/// Linear scatter over the same staged layout as the tree: the root pushes
/// each virtual rank's segment directly in one stage.
pub fn scatter_linear_sched(n_pes: usize, root: usize, adj_disp: &[usize]) -> CommSchedule {
    assert!(root < n_pes, "root {root} out of range");
    assert_eq!(
        adj_disp.len(),
        n_pes + 1,
        "adj_disp must have n_pes + 1 entries"
    );
    let mut ops = Vec::new();
    for vir in 1..n_pes {
        let count = adj_disp[vir + 1] - adj_disp[vir];
        if count > 0 {
            ops.push(TransferOp {
                src_pe: root,
                dst_pe: logical_rank(vir, root, n_pes),
                src_at: adj_disp[vir],
                dst_at: adj_disp[vir],
                nelems: count,
                stride: 1,
                kind: OpKind::Put,
            });
        }
    }
    CommSchedule {
        n_pes,
        kind: CollectiveKind::Scatter,
        stages: vec![Stage::new(ops)],
    }
}

/// Algorithm 4: binomial-tree gather. Each survivor pulls its partner's
/// aggregated subtree span toward the root.
pub fn gather_binomial(n_pes: usize, root: usize, adj_disp: &[usize]) -> CommSchedule {
    assert!(root < n_pes, "root {root} out of range");
    assert_eq!(
        adj_disp.len(),
        n_pes + 1,
        "adj_disp must have n_pes + 1 entries"
    );
    let nelems = adj_disp[n_pes];
    if n_pes == 1 || nelems == 0 {
        return CommSchedule::empty(n_pes, CollectiveKind::Gather);
    }
    let stages = binomial_doubling_stages(n_pes, |ops, i, vir, vir_part| {
        // The partner has aggregated its subtree of 2^i ranks.
        let subtree_end = (vir_part + (1 << i)).min(n_pes);
        let msg_size = adj_disp[subtree_end] - adj_disp[vir_part];
        if msg_size > 0 {
            ops.push(TransferOp {
                src_pe: logical_rank(vir_part, root, n_pes),
                dst_pe: logical_rank(vir, root, n_pes),
                src_at: adj_disp[vir_part],
                dst_at: adj_disp[vir_part],
                nelems: msg_size,
                stride: 1,
                kind: OpKind::Get,
            });
        }
    });
    CommSchedule {
        n_pes,
        kind: CollectiveKind::Gather,
        stages,
    }
}

/// Linear gather over the staged layout: the root pulls each virtual
/// rank's segment directly in one stage.
pub fn gather_linear_sched(n_pes: usize, root: usize, adj_disp: &[usize]) -> CommSchedule {
    assert!(root < n_pes, "root {root} out of range");
    assert_eq!(
        adj_disp.len(),
        n_pes + 1,
        "adj_disp must have n_pes + 1 entries"
    );
    let mut ops = Vec::new();
    for vir in 1..n_pes {
        let count = adj_disp[vir + 1] - adj_disp[vir];
        if count > 0 {
            ops.push(TransferOp {
                src_pe: logical_rank(vir, root, n_pes),
                dst_pe: root,
                src_at: adj_disp[vir],
                dst_at: adj_disp[vir],
                nelems: count,
                stride: 1,
                kind: OpKind::Get,
            });
        }
    }
    CommSchedule {
        n_pes,
        kind: CollectiveKind::Gather,
        stages: vec![Stage::new(ops)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::scatter::adjusted_displacements;
    use proptest::prelude::*;

    fn uniform_disp(n_pes: usize, per: usize, root: usize) -> Vec<usize> {
        adjusted_displacements(&vec![per; n_pes], root, n_pes)
    }

    #[test]
    fn balanced_partition_tiles_exactly() {
        for nelems in 0..40usize {
            for parts in 1..9usize {
                let segs = balanced_partition(nelems, parts);
                assert_eq!(segs.len(), parts);
                let mut at = 0usize;
                for &(off, len) in &segs {
                    assert_eq!(off, at, "nelems={nelems} parts={parts}");
                    at += len;
                }
                assert_eq!(at, nelems, "nelems={nelems} parts={parts}");
                // Balanced: lengths differ by at most one element.
                let lens: Vec<usize> = segs.iter().map(|s| s.1).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(hi - lo <= 1);
            }
        }
    }

    #[test]
    fn broadcast_schedule_shape_eight_pes() {
        let s = broadcast_binomial(8, 0, 4, 1);
        assert_eq!(s.stages.len(), 3);
        assert_eq!(s.total_ops(), 7);
        s.validate();
        // Stage op counts double: 1, 2, 4.
        let counts: Vec<usize> = s.stages.iter().map(|st| st.ops.len()).collect();
        assert_eq!(counts, vec![1, 2, 4]);
    }

    #[test]
    fn single_pe_schedules_are_empty() {
        assert_eq!(broadcast_binomial(1, 0, 5, 1).stages.len(), 0);
        assert_eq!(broadcast_ring_sched(1, 0, 5, 1).stages.len(), 0);
        assert_eq!(reduce_binomial(1, 0, 5, 1).stages.len(), 0);
        assert_eq!(scatter_binomial(1, 0, &[0, 3]).stages.len(), 0);
        assert_eq!(gather_binomial(1, 0, &[0, 3]).stages.len(), 0);
    }

    #[test]
    fn ring_has_one_hop_per_stage() {
        let s = broadcast_ring_sched(5, 2, 3, 1);
        assert_eq!(s.stages.len(), 4);
        for st in &s.stages {
            assert_eq!(st.ops.len(), 1);
        }
        // The chain starts at the root and visits every PE once.
        assert_eq!(s.stages[0].ops[0].src_pe, 2);
        let dsts: Vec<usize> = s.ops().map(|o| o.dst_pe).collect();
        assert_eq!(dsts, vec![3, 4, 0, 1]);
    }

    #[test]
    fn reduce_gather_ascend_broadcast_scatter_descend() {
        // Broadcast stage ops double (1,2,4…); reduce mirrors it (4,2,1…
        // reversed: the wide fan-in happens first).
        let b = broadcast_binomial(8, 3, 1, 1);
        let r = reduce_binomial(8, 3, 1, 1);
        let bc: Vec<usize> = b.stages.iter().map(|s| s.ops.len()).collect();
        let rc: Vec<usize> = r.stages.iter().map(|s| s.ops.len()).collect();
        assert_eq!(bc, vec![1, 2, 4]);
        assert_eq!(rc, vec![4, 2, 1]);
    }

    proptest! {
        #[test]
        fn broadcast_covers_all_pes_exactly_once(
            n_pes in 1usize..=16,
            root_seed in 0usize..16,
            nelems in 0usize..40,
            stride in 1usize..4,
        ) {
            let root = root_seed % n_pes;
            let s = broadcast_binomial(n_pes, root, nelems, stride);
            s.validate();
            // Exactly n-1 transfers in ceil(log2 n) stages.
            prop_assert_eq!(s.total_ops(), n_pes - 1);
            if n_pes > 1 {
                prop_assert_eq!(s.stages.len(), ceil_log2(n_pes) as usize);
            }
            // Every non-root PE receives exactly once; the root never does.
            let mut received = vec![0usize; n_pes];
            for op in s.ops() {
                received[op.dst_pe] += 1;
            }
            prop_assert_eq!(received[root], 0);
            for (pe, &r) in received.iter().enumerate() {
                if pe != root {
                    prop_assert_eq!(r, 1, "PE {} received {} times", pe, r);
                }
            }
            // Senders already hold the data: the root sends in stage 0, and
            // every other sender received in an earlier stage.
            let mut holders = vec![false; n_pes];
            holders[root] = true;
            for stage in &s.stages {
                for op in &stage.ops {
                    prop_assert!(holders[op.src_pe], "PE {} sent before holding", op.src_pe);
                }
                for op in &stage.ops {
                    holders[op.dst_pe] = true;
                }
            }
            prop_assert!(holders.iter().all(|&h| h));
        }

        #[test]
        fn reduce_folds_every_contribution_to_root(
            n_pes in 1usize..=16,
            root_seed in 0usize..16,
            stride in 1usize..4,
        ) {
            let root = root_seed % n_pes;
            let s = reduce_binomial(n_pes, root, 3, stride);
            s.validate();
            prop_assert_eq!(s.total_ops(), n_pes - 1);
            // Every non-root PE's partial is consumed exactly once, and the
            // fold sinks form a tree that drains into the root.
            let mut consumed = vec![0usize; n_pes];
            for op in s.ops() {
                prop_assert_eq!(op.kind, OpKind::GetFold);
                consumed[op.src_pe] += 1;
            }
            prop_assert_eq!(consumed[root], 0);
            for (pe, &c) in consumed.iter().enumerate() {
                if pe != root {
                    prop_assert_eq!(c, 1);
                }
            }
            // Once consumed, a PE never appears as a sink again.
            let mut dead = vec![false; n_pes];
            for stage in &s.stages {
                for op in &stage.ops {
                    prop_assert!(!dead[op.dst_pe], "PE {} folded after being drained", op.dst_pe);
                }
                for op in &stage.ops {
                    dead[op.src_pe] = true;
                }
            }
        }

        #[test]
        fn scatter_gather_schedules_partition_the_payload(
            n_pes in 1usize..=16,
            root_seed in 0usize..16,
            per in 1usize..5,
        ) {
            let root = root_seed % n_pes;
            let adj = uniform_disp(n_pes, per, root);
            for s in [scatter_binomial(n_pes, root, &adj), gather_binomial(n_pes, root, &adj)] {
                s.validate();
                prop_assert_eq!(s.total_ops(), n_pes - 1);
                if n_pes > 1 {
                    prop_assert_eq!(s.stages.len(), ceil_log2(n_pes) as usize);
                }
                // Offsets stay inside the staging buffer.
                for op in s.ops() {
                    prop_assert!(op.src_at + op.span() <= per * n_pes);
                }
            }
            // Scatter: every non-root PE's final segment is delivered to it.
            let s = scatter_binomial(n_pes, root, &adj);
            let mut got = vec![false; n_pes];
            got[root] = true;
            for op in s.ops() {
                let vir = crate::collectives::vrank::virtual_rank(op.dst_pe, root, n_pes);
                // The op's span must cover the destination's own segment.
                if op.src_at <= adj[vir] && adj[vir + 1] <= op.src_at + op.nelems {
                    got[op.dst_pe] = true;
                }
            }
            prop_assert!(got.iter().all(|&g| g), "scatter missed a PE: {:?}", got);
        }

        #[test]
        fn linear_and_ring_shapes(
            n_pes in 1usize..=16,
            root_seed in 0usize..16,
        ) {
            let root = root_seed % n_pes;
            let lin = broadcast_linear_sched(n_pes, root, 4, 1);
            lin.validate();
            prop_assert_eq!(lin.stages.len(), 1);
            prop_assert_eq!(lin.total_ops(), n_pes - 1);
            prop_assert!(lin.ops().all(|o| o.src_pe == root));

            let ring = broadcast_ring_sched(n_pes, root, 4, 1);
            ring.validate();
            prop_assert_eq!(ring.stages.len(), n_pes.saturating_sub(1));
            prop_assert_eq!(ring.total_ops(), n_pes.saturating_sub(1));

            let rl = reduce_linear_sched(n_pes, root, 4, 1);
            rl.validate();
            prop_assert_eq!(rl.total_ops(), n_pes - 1);
            prop_assert!(rl.ops().all(|o| o.dst_pe == root && o.kind == OpKind::GetFoldInto));

            let adj = uniform_disp(n_pes, 2, root);
            let sl = scatter_linear_sched(n_pes, root, &adj);
            let gl = gather_linear_sched(n_pes, root, &adj);
            sl.validate();
            gl.validate();
            prop_assert_eq!(sl.total_ops(), n_pes - 1);
            prop_assert_eq!(gl.total_ops(), n_pes - 1);
        }
    }

    #[test]
    fn executor_runs_a_put_nb_schedule() {
        use crate::fabric::{Fabric, FabricConfig};
        // A hand-built one-stage PutNb schedule: PE 0 publishes to all.
        let report = Fabric::run(FabricConfig::new(4), |pe| {
            let buf = pe.shared_malloc::<u64>(2);
            let sched = CommSchedule {
                n_pes: 4,
                kind: CollectiveKind::Broadcast,
                stages: vec![Stage::new(
                    (1..4)
                        .map(|peer| TransferOp {
                            src_pe: 0,
                            dst_pe: peer,
                            src_at: 0,
                            dst_at: 0,
                            nelems: 2,
                            stride: 1,
                            kind: OpKind::PutNb,
                        })
                        .collect(),
                )],
            };
            let src = [11u64, 22];
            if pe.rank() == 0 {
                pe.heap_write(buf.whole(), &src);
            }
            execute(
                pe,
                &sched,
                buf.whole(),
                &src,
                &mut [],
                None,
                SyncMode::Barrier,
            );
            pe.barrier();
            pe.heap_read_vec::<u64>(buf.whole(), 2)
        });
        assert!(report.results.iter().all(|v| v == &vec![11, 22]));
        assert_eq!(report.stats.nb_puts, 3);
        let rec = report.collective(CollectiveKind::Broadcast).unwrap();
        assert_eq!(rec.calls, 1);
        assert_eq!(rec.puts, 3);
        assert_eq!(rec.stages, 1);
    }

    #[test]
    #[should_panic(expected = "no fold function")]
    fn fold_schedule_without_fold_fn_panics() {
        use crate::fabric::{Fabric, FabricConfig};
        Fabric::run(FabricConfig::new(2), |pe| {
            let buf = pe.shared_malloc::<u64>(1);
            let sched = reduce_binomial(2, 0, 1, 1);
            execute(
                pe,
                &sched,
                buf.whole(),
                &[],
                &mut [],
                None,
                SyncMode::Barrier,
            );
        });
    }

    /// 128 KiB broadcast at 8 PEs: large enough that every pipelined put
    /// splits into `MAX_PIPELINE_CHUNKS` segments, so the chunked poster
    /// and waiter sides genuinely disagree-proof each other.
    #[test]
    fn pipelined_large_broadcast_matches_barrier() {
        use crate::fabric::{Fabric, FabricConfig};
        let nelems = 16 * 1024usize; // 128 KiB of u64
        let run = |sync: SyncMode| {
            Fabric::run(FabricConfig::paper(8), move |pe| {
                let buf = pe.shared_malloc::<u64>(nelems);
                let src: Vec<u64> = (0..nelems as u64).map(|i| i * 3 + 7).collect();
                let sched = broadcast_binomial(8, 5, nelems, 1);
                if pe.rank() == 5 {
                    pe.heap_write(buf.whole(), &src);
                }
                execute(pe, &sched, buf.whole(), &[], &mut [], None, sync);
                pe.barrier();
                pe.heap_read_vec::<u64>(buf.whole(), nelems)
            })
        };
        let barrier = run(SyncMode::Barrier);
        let pipelined = run(SyncMode::Pipelined);
        assert_eq!(barrier.results, pipelined.results);
        // Pipelining splits each of the 7 tree puts into 8 segments.
        assert_eq!(pipelined.stats.puts, 7 * 8);
        assert_eq!(pipelined.stats.signals, pipelined.stats.signal_waits);
        // Per-stage barriers are gone: the one-time signal-table growth
        // barrier, the executor's closing barrier and the trailing
        // explicit one remain.
        assert_eq!(pipelined.stats.barriers, 3);
        assert_eq!(barrier.stats.barriers, 4);
    }

    /// Large uneven scatter: a parent's forwarded block covers several
    /// grandchildren segments, so children forward *subspans* of the
    /// chunks they receive — the partial-overlap consume path.
    #[test]
    fn pipelined_scatter_forwards_subspans() {
        use crate::collectives::scatter::adjusted_displacements;
        use crate::fabric::{Fabric, FabricConfig};
        let n_pes = 8usize;
        let per = 4 * 1024usize; // 32 KiB per PE, 256 KiB total
        let msgs = vec![per; n_pes];
        let adj = adjusted_displacements(&msgs, 0, n_pes);
        let total = per * n_pes;
        let run = |sync: SyncMode| {
            let adj = adj.clone();
            Fabric::run(FabricConfig::paper(n_pes), move |pe| {
                let buf = pe.shared_malloc::<u64>(total);
                if pe.rank() == 0 {
                    let src: Vec<u64> = (0..total as u64).map(|i| i ^ 0xfeed).collect();
                    pe.heap_write(buf.whole(), &src);
                }
                pe.barrier();
                let sched = scatter_binomial(n_pes, 0, &adj);
                execute(pe, &sched, buf.whole(), &[], &mut [], None, sync);
                pe.barrier();
                // Each PE's own segment is what scatter delivers.
                pe.heap_read_vec::<u64>(buf.at(adj[pe.rank()]), per)
            })
        };
        let barrier = run(SyncMode::Barrier);
        let pipelined = run(SyncMode::Pipelined);
        assert_eq!(barrier.results, pipelined.results);
        assert_eq!(pipelined.stats.signals, pipelined.stats.signal_waits);
    }

    /// The signaled executor's telemetry: one signal per remote transfer,
    /// every one consumed, and the overlap ratio is a valid fraction.
    #[test]
    fn signaled_telemetry_counts_signals_and_waits() {
        use crate::fabric::{CollectiveKind, Fabric, FabricConfig};
        let report = Fabric::run(FabricConfig::paper(8), |pe| {
            let buf = pe.shared_malloc::<u64>(64);
            let sched = broadcast_binomial(8, 0, 64, 1);
            if pe.rank() == 0 {
                pe.heap_write(buf.whole(), &[9u64; 64]);
            }
            execute(
                pe,
                &sched,
                buf.whole(),
                &[],
                &mut [],
                None,
                SyncMode::Signaled,
            );
            pe.barrier();
        });
        // 7 tree puts → 7 signals posted, 7 consumed, no leaks.
        assert_eq!(report.stats.signals, 7);
        assert_eq!(report.stats.signal_waits, 7);
        let rec = report.collective(CollectiveKind::Broadcast).unwrap();
        assert_eq!(rec.signals, 7);
        assert_eq!(rec.waits, 7);
        let ratio = rec.overlap_ratio();
        assert!((0.0..=1.0).contains(&ratio), "overlap ratio {ratio}");
    }

    /// Zero-payload and single-PE schedules skip every barrier in every
    /// sync mode.
    #[test]
    fn empty_schedules_skip_all_barriers() {
        use crate::fabric::{Fabric, FabricConfig};
        for sync in [SyncMode::Barrier, SyncMode::Signaled, SyncMode::Auto] {
            let report = Fabric::run(FabricConfig::new(4), move |pe| {
                let buf = pe.shared_malloc::<u64>(1);
                let sched = broadcast_binomial(4, 0, 0, 1);
                execute(pe, &sched, buf.whole(), &[], &mut [], None, sync);
            });
            assert_eq!(report.stats.barriers, 0, "sync={sync:?}");
            let report = Fabric::run(FabricConfig::new(1), move |pe| {
                let buf = pe.shared_malloc::<u64>(4);
                let sched = broadcast_binomial(1, 0, 4, 1);
                execute(pe, &sched, buf.whole(), &[], &mut [], None, sync);
            });
            assert_eq!(report.stats.barriers, 0, "sync={sync:?}");
        }
    }

    /// Regression: a zero-`nelems` op sharing a stage with real transfers
    /// must be skipped cleanly by the pipelined chunk bookkeeping (its
    /// empty chunk window once underflowed `c1 - 1` in `chunk_range`).
    #[test]
    fn pipelined_executor_skips_empty_ops() {
        use crate::fabric::{Fabric, FabricConfig};
        for sync in SyncMode::CONCRETE {
            let report = Fabric::run(FabricConfig::new(3), move |pe| {
                let buf = pe.shared_malloc::<u64>(8);
                pe.heap_write(buf.whole(), &[pe.rank() as u64 + 1; 8]);
                pe.barrier();
                let sched = CommSchedule {
                    n_pes: 3,
                    kind: CollectiveKind::Broadcast,
                    stages: vec![Stage::new(vec![
                        TransferOp {
                            src_pe: 0,
                            dst_pe: 1,
                            src_at: 0,
                            dst_at: 0,
                            nelems: 0, // the degenerate op
                            stride: 1,
                            kind: OpKind::Put,
                        },
                        TransferOp {
                            src_pe: 0,
                            dst_pe: 2,
                            src_at: 0,
                            dst_at: 0,
                            nelems: 8,
                            stride: 1,
                            kind: OpKind::Put,
                        },
                    ])],
                };
                execute(pe, &sched, buf.whole(), &[], &mut [], None, sync);
                pe.heap_read_vec(buf.whole(), 8)
            });
            assert_eq!(report.results[2], vec![1u64; 8], "sync={sync:?}");
            assert_eq!(report.results[1], vec![2u64; 8], "sync={sync:?}");
        }
    }
}
