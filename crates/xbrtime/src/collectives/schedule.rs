//! Communication schedules — the shared plan/execute split behind every
//! collective in this crate.
//!
//! A [`CommSchedule`] materialises a collective as a deterministic sequence
//! of [`Stage`]s, each a list of one-sided [`TransferOp`]s plus an optional
//! per-stage local fold for reductions. Schedules are *pure data*: the
//! generator functions in this module (and the per-collective modules) run
//! without a fabric, so the communication structure of Algorithms 1–4 and
//! their linear/ring/hierarchical/team variants is unit-testable as plain
//! values — op counts, stage counts, PE coverage — without launching a
//! fabric.
//!
//! The four rooted collectives are one generator, [`rooted_schedule`]:
//! one root→leaves walk per tree shape over the paper's virtual ranks
//! (binomial, star, chain), one of two [`Payload`] rules for what an edge
//! carries (the whole vector: broadcast; the subtree's slice of the
//! displacement table: scatter), and [`CommSchedule::transposed`] for the
//! leaves→root direction — reduce is broadcast transposed, gather is
//! scatter transposed, recursive doubling is recursive halving run
//! backwards. [`CommSchedule::on`] maps a schedule onto a member list,
//! which is all a team or a hierarchy tier adds to the flat tree. The
//! paper's Algorithms 1–4 keep their names ([`broadcast_binomial`],
//! [`reduce_binomial`], [`scatter_binomial`], [`gather_binomial`]).
//!
//! The symmetric collectives have the same structure: one walker,
//! `exchange_stages`, over three block-exchange shapes in the all-gather
//! direction (ring, XOR butterfly, cyclic-doubling dissemination), one
//! `publish` stage, and the same [`Payload`] rule over a displacement
//! table. All-gather(v) is `publish` plus an arm; a reduce-scatter is an
//! arm pulled as folds — all-gather run backwards — and an all-reduce
//! closes it with the arm pushed or the stages transposed.
//!
//! Which of these a call runs is one value, a [`Row`]: a [`Shape`] (the
//! generator and everything it reads), an optional member list and the
//! world size. [`Row::schedule`] is the only `match` from a resolved
//! algorithm to a generator, [`Row::key`] the only place a plan-cache key
//! is written, and [`Row::check`] rejects a malformed call before either
//! runs — so the collective bodies, the nonblocking and persistent
//! routes, the traffic plane and the conformance harness all name a
//! schedule the same way, and a key can never be paired with the wrong
//! generator.
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
//! (`plan::run_schedule`); [`execute`] here is the uncached one-shot
//! route for ad-hoc schedules. Either way the episode
//! adds per-collective telemetry (ops, bytes, stages, simulated cycles,
//! signal posts/waits/stall cycles) to the PE's own tally, summed into
//! [`RunReport::collectives`](crate::fabric::RunReport) when the run ends.

use crate::collectives::extended::{self, AllReduceAlgo};
use crate::collectives::hierarchical;
use crate::collectives::plan::{self, PlanKey, Space};
use crate::collectives::policy::Algorithm::{self, Binomial, Linear, Ring};
use crate::collectives::policy::SyncMode;
use crate::collectives::vcoll::{self, AllGatherVAlgo};
use crate::collectives::vrank::logical_rank;
use crate::fabric::CollectiveKind::{self, Broadcast, Gather, Reduce, Scatter};
use crate::fabric::{ceil_log2, span, Pe, SymmRef};
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
}

impl OpKind {
    /// The buffer on the issuer's side the op reads (puts) or leaves its
    /// result in (gets and folds).
    pub(crate) fn local_space(self) -> Space {
        match self {
            OpKind::Put | OpKind::Get | OpKind::GetFold => Space::Sym,
            OpKind::PutNb | OpKind::PutFrom => Space::LocalSrc,
            OpKind::GetFoldInto => Space::LocalDst,
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

    /// The same tree run the other way: stage order reversed, each op's
    /// two ends swapped and its kind set to `op_kind`, reporting as
    /// `kind`; in place, nothing allocated. Recursive doubling is recursive
    /// halving transposed into gets (reduce and gather from broadcast and
    /// scatter), an all-gather phase its reduce-scatter transposed into
    /// puts. `deferred_fold` is cleared: a fold stage read both ways, the
    /// transposed stage moves data one way and closes on one barrier.
    pub fn transposed(mut self, kind: CollectiveKind, op_kind: OpKind) -> Self {
        self.kind = kind;
        self.stages.reverse();
        for stage in &mut self.stages {
            stage.deferred_fold = false;
            for op in &mut stage.ops {
                std::mem::swap(&mut op.src_pe, &mut op.dst_pe);
                std::mem::swap(&mut op.src_at, &mut op.dst_at);
                op.kind = op_kind;
            }
        }
        self
    }

    /// A schedule over ranks `0..members.len()` rewritten onto the PEs
    /// `members[rank]` of a `world`-PE fabric (a team, a tenant, a node).
    /// The stage structure — and therefore the signal-slot numbering — is
    /// untouched; slots live on the waiting PE's own table, so schedules
    /// mapped onto disjoint member sets can never collide on a slot.
    pub fn on(mut self, members: &[usize], world: usize) -> Self {
        for op in self.stages.iter_mut().flat_map(|s| &mut s.ops) {
            op.src_pe = members[op.src_pe];
            op.dst_pe = members[op.dst_pe];
        }
        self.n_pes = world;
        self
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
/// (`PutFrom`/`PutNb`/`GetFoldInto`) and may be empty when the
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

/// Split `nelems` elements into `parts` balanced contiguous segments, as
/// a displacement table of `parts + 1` offsets: segment `j` is
/// `table[j]..table[j + 1]`, with the `nelems % parts` leftover elements
/// spread over the first segments. Every PE of a collective computes this
/// from the schedule shape alone, so reduce-scatter owners and allgather
/// forwarders always agree on the segmentation. Segments may be empty
/// when `nelems < parts`.
pub fn balanced_partition(nelems: usize, parts: usize) -> Vec<usize> {
    assert!(parts > 0, "cannot partition into zero segments");
    let (base, rem) = (nelems / parts, nelems % parts);
    (0..=parts).map(|j| j * base + j.min(rem)).collect()
}

// ---------------------------------------------------------------------------
// The rooted collectives: one virtual-rank tree walk root→leaves, two
// payload rules, and `CommSchedule::transposed` for the leaves→root twins.
// ---------------------------------------------------------------------------

/// What a tree edge carries toward the subtree below it.
#[derive(Clone, Copy, Debug)]
pub enum Payload<'a> {
    /// The same `nelems` strided elements at offset 0 on every edge:
    /// broadcast, and — transposed — reduce.
    Whole {
        /// Elements per transfer.
        nelems: usize,
        /// Element stride of both spans.
        stride: usize,
    },
    /// The subtree's slice of the staging buffer: given the adjusted
    /// (virtual-rank prefix-sum, see `scatter.rs`) displacement table of
    /// length `n_pes + 1`, the edge into virtual ranks `child..end` moves
    /// elements `adj_disp[child]..adj_disp[end]` in one transfer and an
    /// empty slice drops its edge: scatter, and — transposed — gather.
    Ranges(&'a [usize]),
}

impl Payload<'_> {
    /// The one rule from blocks to elements: the `kind` transfer carrying
    /// blocks `first..end` of the displacement table from `src_pe` to
    /// `dst_pe`, at the same offset on both sides — `None` when they hold
    /// no elements. `Whole` is a single block that every edge carries.
    #[inline(always)]
    pub(crate) fn op(
        self,
        kind: OpKind,
        src_pe: usize,
        dst_pe: usize,
        first: usize,
        end: usize,
    ) -> Option<TransferOp> {
        let (at, nelems, stride) = match self {
            Payload::Whole { nelems, stride } => (0, nelems, stride),
            Payload::Ranges(disp) => (disp[first], disp[end] - disp[first], 1),
        };
        (nelems > 0).then_some(TransferOp {
            src_pe,
            dst_pe,
            src_at: at,
            dst_at: at,
            nelems,
            stride,
            kind,
        })
    }
}

/// The root→leaves edge walk of one rooted shape over virtual ranks
/// `0..n` (the root is rank 0; Table 2's rotation maps them to PEs):
/// `edge(parent, child, end)` builds the op for the tree edge whose
/// subtree is `child..end`, or drops it with `None`. Each shape keeps its
/// own stage rule. The binomial tree (recursive halving: stage `i`
/// descends from `⌈log2 n⌉ − 1`, `child = parent | 2^i`) always has
/// `⌈log2 n⌉` stages, empty ones included — tier alignment and signal-slot
/// numbering depend on it; the star is one stage; the chain has one stage
/// per surviving hop. A new tree is one more arm here.
fn rooted_stages(
    algo: Algorithm,
    n: usize,
    mut edge: impl FnMut(usize, usize, usize) -> Option<TransferOp>,
) -> Vec<Stage> {
    match algo {
        Binomial => {
            let mut stages = Vec::with_capacity(ceil_log2(n) as usize);
            for i in (0..ceil_log2(n)).rev() {
                let half = 1usize << i;
                let mut ops = Vec::new();
                for p in (0..n - half).step_by(2 * half) {
                    ops.extend(edge(p, p + half, (p + 2 * half).min(n)));
                }
                stages.push(Stage::new(ops));
            }
            stages
        }
        Linear => {
            let mut ops = Vec::new();
            for c in 1..n {
                ops.extend(edge(0, c, c + 1));
            }
            vec![Stage::new(ops)]
        }
        Ring => {
            let mut stages = Vec::new();
            for c in 1..n {
                if let Some(op) = edge(c - 1, c, n) {
                    stages.push(Stage::new(vec![op]));
                }
            }
            stages
        }
    }
}

/// The argument checks of a rooted row over `n_pes` ranks.
fn check_rooted(n_pes: usize, root: usize, payload: Payload<'_>) {
    assert!(root < n_pes, "root {root} out of range");
    if let Payload::Ranges(adj_disp) = payload {
        assert_eq!(
            adj_disp.len(),
            n_pes + 1,
            "adj_disp must have n_pes + 1 entries"
        );
    }
}

/// The one `(family, algorithm)` → schedule generator of the four rooted
/// collectives (`family` is `Broadcast`, `Reduce`, `Scatter` or
/// `Gather`), the [`Shape::Rooted`] arm of [`Row::schedule`]. Broadcast
/// and scatter are the root→leaves walk of `algo`'s tree as puts; reduce
/// and gather are the same schedule
/// [`transposed`](CommSchedule::transposed) — recursive doubling is
/// recursive halving run backwards (Algorithms 2 and 4 against 1 and 3).
/// Asked to move nothing it returns [`CommSchedule::empty`].
///
/// # Panics
/// Panics if `root ≥ n_pes`, if a [`Payload::Ranges`] table does not have
/// `n_pes + 1` entries, or if `family` is not a rooted collective.
pub fn rooted_schedule(
    family: CollectiveKind,
    algo: Algorithm,
    n_pes: usize,
    root: usize,
    payload: Payload<'_>,
) -> CommSchedule {
    check_rooted(n_pes, root, payload);
    let total = match payload {
        Payload::Whole { nelems, .. } => nelems,
        Payload::Ranges(adj_disp) => adj_disp[n_pes],
    };
    if total == 0 {
        return CommSchedule::empty(n_pes, family);
    }
    let stages = rooted_stages(algo, n_pes, |parent, child, end| {
        // The op in virtual ranks first: only an edge that carries something
        // pays for Table 2's rotation (a division and two checks per end).
        let op = payload.op(OpKind::Put, parent, child, child, end)?;
        Some(TransferOp {
            src_pe: logical_rank(parent, root, n_pes),
            dst_pe: logical_rank(child, root, n_pes),
            ..op
        })
    });
    let down = CommSchedule {
        n_pes,
        kind: family,
        stages,
    };
    match (family, algo) {
        (Broadcast | Scatter, _) => down,
        // The root folds into a private accumulator, never into `src`.
        (Reduce, Linear) => down.transposed(family, OpKind::GetFoldInto),
        (Reduce, _) => down.transposed(family, OpKind::GetFold),
        // The chain's hops push, so they ride the pipelined chunk path.
        (Gather, Ring) => down.transposed(family, OpKind::Put),
        (Gather, _) => down.transposed(family, OpKind::Get),
        _ => panic!("{} is not a rooted collective", family.name()),
    }
}

/// Algorithm 1: binomial-tree broadcast from `root`.
pub fn broadcast_binomial(n_pes: usize, root: usize, nelems: usize, stride: usize) -> CommSchedule {
    let whole = Payload::Whole { nelems, stride };
    rooted_schedule(Broadcast, Binomial, n_pes, root, whole)
}

/// Algorithm 2: binomial-tree reduction toward `root` (fold ops pull
/// partners' partial results into each survivor's staging segment).
pub fn reduce_binomial(n_pes: usize, root: usize, nelems: usize, stride: usize) -> CommSchedule {
    let whole = Payload::Whole { nelems, stride };
    rooted_schedule(Reduce, Binomial, n_pes, root, whole)
}

/// Algorithm 3: binomial-tree scatter. `adj_disp` is the adjusted
/// (virtual-rank-ordered) displacement table of length `n_pes + 1`; each
/// edge moves the partner's whole subtree span in one put.
pub fn scatter_binomial(n_pes: usize, root: usize, adj_disp: &[usize]) -> CommSchedule {
    rooted_schedule(Scatter, Binomial, n_pes, root, Payload::Ranges(adj_disp))
}

/// Algorithm 4: binomial-tree gather. Each survivor pulls its partner's
/// aggregated subtree span toward the root.
pub fn gather_binomial(n_pes: usize, root: usize, adj_disp: &[usize]) -> CommSchedule {
    rooted_schedule(Gather, Binomial, n_pes, root, Payload::Ranges(adj_disp))
}

// ---------------------------------------------------------------------------
// The symmetric collectives: one block-exchange walk per shape, one publish
// stage, the same payload rule over a displacement table — and one table
// naming the rows.
// ---------------------------------------------------------------------------

/// Largest power of two at or below `n` (`n ≥ 1`).
pub(crate) fn floor_pof2(n: usize) -> usize {
    debug_assert!(n >= 1);
    1usize << (usize::BITS - 1 - n.leading_zeros())
}

/// The exchange shapes of the symmetric (rootless) collectives, over ranks
/// and blocks `0..n`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Exchange {
    /// `n − 1` stages: in stage `s`, rank `p` hands block `p − s` to
    /// rank `p + 1`.
    Ring,
    /// XOR partners over the `2^⌊log2 n⌋` core, recursive-halving order:
    /// at each `mask` from half the core down to 1, rank `me` receives
    /// from `me ^ mask` the `mask` blocks it keeps, the aligned group
    /// `me & !(mask − 1) ..` its own block lies in.
    Butterfly,
    /// Cyclic doubling windows, exact for any `n`: a rank holding the
    /// `have` blocks that end at its own hands the last
    /// `min(have, n − have)` of them to the rank `have` above it.
    Dissemination,
}

/// The stage walk of one symmetric shape, in the all-gather direction:
/// `edge(src, dst, first_block, n_blocks)` builds the op that moves blocks
/// `first_block .. first_block + n_blocks` from rank `src` to rank `dst`,
/// or drops it with `None`; a window that wraps rank 0 is two edges. Ops
/// are listed by issuer — by destination when they `pull` (gets), by
/// source otherwise — and a stage whose every edge was dropped is elided
/// (unlike the binomial arm of `rooted_stages`, nothing counts on the
/// stage count). Plain loops over pre-sized vectors: the traffic plane and
/// every cold issue generate on the spot. A new shape is one more arm.
pub(crate) fn exchange_stages(
    shape: Exchange,
    n: usize,
    pull: bool,
    mut edge: impl FnMut(usize, usize, usize, usize) -> Option<TransferOp>,
) -> Vec<Stage> {
    let mut stages = Vec::with_capacity(match shape {
        Exchange::Ring => n,
        Exchange::Butterfly | Exchange::Dissemination => ceil_log2(n) as usize,
    });
    // `x mod n` for `x < 2n`, without the division: these loops run once
    // per edge, dropped ones included.
    let wrap = |x: usize| if x >= n { x - n } else { x };
    // Issuer `i`'s edge across a cyclic distance of `by < n` ranks.
    let ends = |i: usize, by: usize| match pull {
        true => (wrap(i + n - by), i),
        false => (i, wrap(i + by)),
    };
    let mut close = |ops: Vec<TransferOp>| {
        if !ops.is_empty() {
            stages.push(Stage::new(ops));
        }
    };
    match shape {
        Exchange::Ring => {
            // Every stage carries each block once, so all of them keep as
            // many ops as the first: a sparse table allocates sparsely.
            let mut kept = n;
            for s in 1..n {
                let mut ops = Vec::with_capacity(kept);
                for i in 0..n {
                    let (src, dst) = ends(i, 1);
                    if let Some(op) = edge(src, dst, wrap(src + n + 1 - s), 1) {
                        ops.push(op);
                    }
                }
                kept = ops.len();
                close(ops);
            }
        }
        Exchange::Butterfly => {
            let core = floor_pof2(n);
            let mut mask = core >> 1;
            while mask > 0 {
                let mut ops = Vec::with_capacity(core);
                for i in 0..core {
                    let (src, dst) = if pull { (i ^ mask, i) } else { (i, i ^ mask) };
                    if let Some(op) = edge(src, dst, dst & !(mask - 1), mask) {
                        ops.push(op);
                    }
                }
                close(ops);
                mask >>= 1;
            }
        }
        Exchange::Dissemination => {
            let mut have = 1;
            while have < n {
                let cnt = have.min(n - have);
                let mut ops = Vec::with_capacity(n + cnt - 1);
                for i in 0..n {
                    let (src, dst) = ends(i, have);
                    let first = wrap(src + 1 + n - cnt);
                    if first <= src {
                        if let Some(op) = edge(src, dst, first, cnt) {
                            ops.push(op);
                        }
                    } else {
                        if let Some(op) = edge(src, dst, first, n - first) {
                            ops.push(op);
                        }
                        if let Some(op) = edge(src, dst, 0, src + 1) {
                            ops.push(op);
                        }
                    }
                }
                close(ops);
                have += cnt;
            }
        }
    }
    stages
}

/// The stage that opens an all-gather: every PE with a non-empty block
/// puts it from its private `local_src` at its displacement `disp[me]` —
/// on its own board, or, `to_all`, on every PE's: that *is* the fan.
pub(crate) fn publish(n: usize, disp: &[usize], to_all: bool) -> Stage {
    let mut ops = Vec::with_capacity(if to_all { n * n } else { n });
    for me in 0..n {
        let nelems = disp[me + 1] - disp[me];
        if nelems == 0 {
            continue;
        }
        for dst_pe in if to_all { 0..n } else { me..me + 1 } {
            ops.push(TransferOp {
                src_pe: me,
                dst_pe,
                src_at: 0,
                dst_at: disp[me],
                nelems,
                stride: 1,
                kind: OpKind::PutFrom,
            });
        }
    }
    Stage::new(ops)
}

// ---------------------------------------------------------------------------
// The row: one value names, checks, keys and builds every schedule.
// ---------------------------------------------------------------------------

/// The generator a [`Row`] runs, with everything that generator reads.
/// Algorithms are already resolved: no `Auto` member names a schedule.
#[derive(Clone, Copy, Debug)]
pub enum Shape<'a> {
    /// [`rooted_schedule`] — `family` (broadcast, reduce, scatter, gather)
    /// on `algo`'s tree from rank `root`.
    Rooted {
        /// Which of the four rooted collectives.
        family: CollectiveKind,
        /// Tree shape.
        algo: Algorithm,
        /// Root rank (a position in the member list, if there is one).
        root: usize,
        /// What an edge carries.
        payload: Payload<'a>,
    },
    /// All-gather(v): rank `r` contributes `counts[r]` elements.
    AllGather {
        /// Exchange shape.
        algo: AllGatherVAlgo,
        /// One count per rank.
        counts: &'a [usize],
    },
    /// All-reduce of `nelems` elements.
    AllReduce {
        /// Strategy.
        algo: AllReduceAlgo,
        /// Vector length.
        nelems: usize,
    },
    /// Personalized all-to-all of `per_pe`-element blocks.
    AllToAll {
        /// Block size.
        per_pe: usize,
    },
    /// The two-tier binomial tree of
    /// [`hierarchical`]: `family` is
    /// `Broadcast` or `Reduce`.
    Hier {
        /// Broadcast, or its transpose.
        family: CollectiveKind,
        /// Ranks per node.
        pes_per_node: usize,
        /// Root rank.
        root: usize,
        /// Vector length.
        nelems: usize,
    },
}

/// One schedule, named: a [`Shape`] over ranks `0..n` — `n` is
/// `members.len()`, or `world` without a member list — mapped
/// [`on`](CommSchedule::on) the members' PEs. Built on the stack from
/// borrowed tables; everything that runs, caches or model-checks a
/// schedule takes one of these.
#[derive(Clone, Copy, Debug)]
pub struct Row<'a> {
    /// The generator and its arguments.
    pub shape: Shape<'a>,
    /// The PEs taking part, in rank order (a team, a tenant, an active
    /// set); `None` for the whole world. Everyone else appears in no op.
    pub members: Option<&'a [usize]>,
    /// World size of the fabric the schedule runs on.
    pub world: usize,
}

impl Row<'_> {
    /// Ranks the shape runs over.
    fn n_ranks(&self) -> usize {
        self.members.map_or(self.world, <[usize]>::len)
    }

    /// `true` if `pe` takes part.
    pub(crate) fn has(&self, pe: usize) -> bool {
        self.members.is_none_or(|members| members.contains(&pe))
    }

    /// `(root's PE, nelems, stride)` of a row that moves one whole vector
    /// from or to a root — what the broadcast and reduce bodies stage by.
    /// Call after [`Row::check`].
    pub(crate) fn rooted_whole(&self) -> (usize, usize, usize) {
        let (root, nelems, stride) = match self.shape {
            Shape::Rooted {
                root,
                payload: Payload::Whole { nelems, stride },
                ..
            } => (root, nelems, stride),
            Shape::Hier { root, nelems, .. } => (root, nelems, 1),
            other => panic!("{other:?} does not move a whole vector from or to a root"),
        };
        (self.members.map_or(root, |m| m[root]), nelems, stride)
    }

    /// Reject a malformed call on the calling PE, with a message naming
    /// the argument — before a key is built or the plan cache is touched
    /// (a panic inside a cache build would poison its shard for every PE).
    ///
    /// # Panics
    /// Panics on a member outside the world, a root outside the ranks, a
    /// table of the wrong length, a family the shape does not have, or an
    /// unresolved `Auto` algorithm.
    pub fn check(&self) {
        let (n, world) = (self.n_ranks(), self.world);
        assert!(n > 0, "a collective needs at least one rank");
        for &m in self.members.unwrap_or_default() {
            assert!(m < world, "team member {m} outside the {world}-PE world");
        }
        match self.shape {
            Shape::Rooted {
                family,
                root,
                payload,
                ..
            } => {
                check_rooted(n, root, payload);
                assert!(family.index() < 4, "{} is not rooted", family.name());
            }
            Shape::AllGather { algo, counts } => {
                assert_eq!(counts.len(), n, "counts must have one entry per rank");
                assert!(algo != AllGatherVAlgo::Auto, "resolve {algo:?} first");
            }
            Shape::AllReduce { algo, .. } => {
                assert!(algo != AllReduceAlgo::Auto, "resolve {algo:?} first");
            }
            Shape::AllToAll { .. } => {}
            Shape::Hier { family, root, .. } => {
                assert!(root < n, "root {root} out of range");
                assert!(family.index() < 2, "no two-tier {}", family.name());
            }
        }
    }

    /// Build the schedule: the only `match` from a resolved algorithm to a
    /// generator. A new algorithm is an arm in its walker and an arm here.
    ///
    /// # Panics
    /// Panics where [`Row::check`] would.
    pub fn schedule(&self) -> CommSchedule {
        let n = self.n_ranks();
        let sched = match self.shape {
            Shape::Rooted {
                family,
                algo,
                root,
                payload,
            } => rooted_schedule(family, algo, n, root, payload),
            Shape::AllGather { algo, counts } => {
                let disp = vcoll::prefix_displacements(counts);
                match algo {
                    AllGatherVAlgo::Fan => vcoll::allgatherv_fan_sched(n, &disp),
                    AllGatherVAlgo::Ring => vcoll::allgatherv_ring_sched(n, &disp),
                    AllGatherVAlgo::Dissemination => {
                        vcoll::allgatherv_dissemination_sched(n, &disp)
                    }
                    AllGatherVAlgo::Auto => panic!("resolve {algo:?} first"),
                }
            }
            Shape::AllReduce { algo, nelems } => match algo {
                AllReduceAlgo::ReduceThenBroadcast => extended::allreduce_fused(n, nelems),
                AllReduceAlgo::RecursiveDoubling => {
                    extended::allreduce_recursive_doubling(n, nelems)
                }
                AllReduceAlgo::Rabenseifner => extended::allreduce_rabenseifner(n, nelems),
                AllReduceAlgo::Ring => extended::allreduce_ring(n, nelems),
                AllReduceAlgo::Auto => panic!("resolve {algo:?} first"),
            },
            Shape::AllToAll { per_pe } => extended::all_to_all_sched(n, per_pe),
            Shape::Hier {
                family,
                pes_per_node,
                root,
                nelems,
            } => match family {
                Reduce => hierarchical::reduce_hier_sched(n, pes_per_node, root, nelems),
                _ => hierarchical::broadcast_hier_sched(n, pes_per_node, root, nelems),
            },
        };
        match self.members {
            Some(members) => sched.on(members, self.world),
            None => sched,
        }
    }

    /// The plan-cache key of this row lowered under `sync` for
    /// `elem_bytes`-sized elements, reporting as `kind` — the only place a
    /// [`PlanKey`] is written, so a key and the generator
    /// [`Row::schedule`] runs for it cannot be mispaired. Two rows with
    /// equal keys build equal schedules: `shape[0]` is a tag naming the
    /// `Shape` variant, its family, whether a member list follows and —
    /// where [`PlanKey::algo`] does not already — the algorithm, and that
    /// fixes the words after it: a rooted displacement table, an
    /// all-gather's [`plan::counts_digest`], a hierarchy's node size, then
    /// the members. Tags are only compared, never persisted:
    ///
    /// | shape       | tag               | key algorithm                        |
    /// |-------------|-------------------|--------------------------------------|
    /// | `Rooted`    | `3·family + algo` | `algo`                               |
    /// | `AllToAll`  | 18                | `Binomial`                           |
    /// | `Hier`      | `23 + family`     | `Binomial`                           |
    /// | `AllReduce` | `32 + algo`       | `Ring` for the ring, else `Binomial` |
    /// | `AllGather` | `40 + algo`       | fan `Linear`, ring `Ring`, dissemination `Binomial` |
    ///
    /// A member list adds 64 — except on a whole-vector rooted row, a
    /// team's broadcast or reduction, which is `12 + family`. The key
    /// algorithm also feeds the algorithm-mask telemetry.
    pub fn key(&self, kind: CollectiveKind, sync: SyncMode, elem_bytes: usize) -> PlanKey {
        let members = self.members.unwrap_or_default();
        let on = self.members.map_or(0, |_| 64);
        let mut shape = Vec::with_capacity(2 + members.len());
        shape.push(0);
        let (tag, algo, root, nelems, stride) = match self.shape {
            Shape::Rooted {
                family,
                algo,
                root,
                payload,
            } => {
                let flat = 3 * family.index() + algo as usize;
                let (tag, nelems, stride) = match payload {
                    Payload::Whole { nelems, stride } if on > 0 => {
                        (12 + family.index(), nelems, stride)
                    }
                    Payload::Whole { nelems, stride } => (flat, nelems, stride),
                    Payload::Ranges(adj_disp) => {
                        shape.extend(adj_disp.iter().map(|&at| at as u64));
                        (flat + on, adj_disp.last().copied().unwrap_or(0), 1)
                    }
                };
                (tag, algo, root, nelems, stride)
            }
            Shape::AllToAll { per_pe } => (18 + on, Binomial, 0, per_pe, 1),
            Shape::Hier {
                family,
                pes_per_node,
                root,
                nelems,
            } => {
                shape.push(pes_per_node as u64);
                (23 + family.index() + on, Binomial, root, nelems, 1)
            }
            Shape::AllReduce { algo, nelems } => {
                let ring = algo == AllReduceAlgo::Ring;
                let key_algo = if ring { Ring } else { Binomial };
                (32 + algo as usize + on, key_algo, 0, nelems, 1)
            }
            Shape::AllGather { algo, counts } => {
                shape.push(plan::counts_digest(counts));
                let key_algo = match algo {
                    AllGatherVAlgo::Fan => Linear,
                    AllGatherVAlgo::Ring => Ring,
                    AllGatherVAlgo::Dissemination | AllGatherVAlgo::Auto => Binomial,
                };
                (40 + algo as usize + on, key_algo, 0, counts.iter().sum(), 1)
            }
        };
        shape[0] = tag as u64;
        shape.extend(members.iter().map(|&m| m as u64));
        PlanKey {
            kind,
            algo,
            sync,
            n_pes: self.world,
            root,
            nelems,
            stride,
            elem_bytes,
            shape,
        }
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

    /// `nelems` contiguous elements on every edge of a rooted row.
    fn whole(
        family: CollectiveKind,
        algo: Algorithm,
        n: usize,
        root: usize,
        nelems: usize,
    ) -> CommSchedule {
        let payload = Payload::Whole { nelems, stride: 1 };
        rooted_schedule(family, algo, n, root, payload)
    }

    #[test]
    fn balanced_partition_tiles_exactly() {
        for nelems in 0..40usize {
            for parts in 1..9usize {
                let table = balanced_partition(nelems, parts);
                assert_eq!(table.len(), parts + 1);
                assert_eq!((table[0], table[parts]), (0, nelems), "parts={parts}");
                // Balanced: lengths differ by at most one element.
                let lens: Vec<usize> = table.windows(2).map(|w| w[1] - w[0]).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(hi - lo <= 1, "nelems={nelems} parts={parts}");
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
        assert_eq!(whole(Broadcast, Ring, 1, 0, 5).stages.len(), 0);
        assert_eq!(reduce_binomial(1, 0, 5, 1).stages.len(), 0);
        assert_eq!(scatter_binomial(1, 0, &[0, 3]).stages.len(), 0);
        assert_eq!(gather_binomial(1, 0, &[0, 3]).stages.len(), 0);
    }

    #[test]
    fn ring_has_one_hop_per_stage() {
        let s = whole(Broadcast, Ring, 5, 2, 3);
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

    /// The rooted table's twelve rows, by index.
    fn row(i: usize) -> (CollectiveKind, Algorithm) {
        (CollectiveKind::ALL[i / 3], [Binomial, Linear, Ring][i % 3])
    }

    /// The zero-length normal form: asked to move nothing, every row of
    /// the rooted table returns `CommSchedule::empty`.
    #[test]
    fn zero_length_rooted_schedules_are_empty() {
        let (nelems, stride, zeros) = (0, 2, [0; 9]);
        for (family, algo) in (0..12).map(row) {
            for n in 1..=8 {
                let whole = Payload::Whole { nelems, stride };
                for nothing in [whole, Payload::Ranges(&zeros[..=n])] {
                    let s = rooted_schedule(family, algo, n, n - 1, nothing);
                    assert_eq!(s, CommSchedule::empty(n, family), "{family:?} {algo:?}");
                }
            }
        }
    }

    /// The paper's Table-2 example written out by hand, as a pin of the
    /// walker that does not go through it: 7 PEs, root 4, so virtual rank
    /// `v` is PE `(v + 4) % 7`. Stages are separated by `|`; `s>d` moves
    /// data from PE `s` to PE `d` — the whole 2-element vector, or with
    /// `@at+n` the `n` staged elements at offset `at`, where the counts
    /// `pe_msgs = [1, 2, 3, 1, 2, 3, 1]` read in virtual-rank order (PEs
    /// 4, 5, 6, 0, 1, 2, 3) give the displacement table below. Every row
    /// but `reduce/ring` (new) was checked against the hand-written
    /// generators this table replaced.
    #[test]
    fn table2_example_seven_pes_root_four() {
        let adj = [0, 2, 5, 6, 7, 9, 12, 13];
        let check = |family, algo, kind: OpKind, want: &str| {
            let whole = matches!(family, Broadcast | Reduce);
            let (nelems, stride) = (2, 1);
            let payload = match whole {
                true => Payload::Whole { nelems, stride },
                false => Payload::Ranges(&adj),
            };
            let s = rooted_schedule(family, algo, 7, 4, payload);
            s.validate();
            assert_eq!(s.kind, family);
            assert!(s.ops().all(|o| o.kind == kind && o.src_at == o.dst_at));
            let op = |o: &TransferOp| match whole {
                true => format!("{}>{}", o.src_pe, o.dst_pe),
                false => format!("{}>{}@{}+{}", o.src_pe, o.dst_pe, o.src_at, o.nelems),
            };
            let stage = |st: &Stage| st.ops.iter().map(op).collect::<Vec<_>>().join(" ");
            let got: Vec<String> = s.stages.iter().map(stage).collect();
            assert_eq!(got.join(" | "), want, "{family:?}/{algo:?}");
            let carried = |o: &TransferOp| (o.src_at, o.nelems, o.stride) == (0, nelems, stride);
            assert!(!whole || s.ops().all(carried));
        };
        // Algorithms 1–4 on the binomial tree.
        check(
            Broadcast,
            Binomial,
            OpKind::Put,
            "4>1 | 4>6 1>3 | 4>5 6>0 1>2",
        );
        check(
            Reduce,
            Binomial,
            OpKind::GetFold,
            "5>4 0>6 2>1 | 6>4 3>1 | 1>4",
        );
        let down = "4>1@7+6 | 4>6@5+2 1>3@12+1 | 4>5@2+3 6>0@6+1 1>2@9+3";
        check(Scatter, Binomial, OpKind::Put, down);
        let up = "5>4@2+3 0>6@6+1 2>1@9+3 | 6>4@5+2 3>1@12+1 | 1>4@7+6";
        check(Gather, Binomial, OpKind::Get, up);
        // The star: one stage, peers in virtual-rank order.
        check(Broadcast, Linear, OpKind::Put, "4>5 4>6 4>0 4>1 4>2 4>3");
        check(
            Reduce,
            Linear,
            OpKind::GetFoldInto,
            "5>4 6>4 0>4 1>4 2>4 3>4",
        );
        let down = "4>5@2+3 4>6@5+1 4>0@6+1 4>1@7+2 4>2@9+3 4>3@12+1";
        check(Scatter, Linear, OpKind::Put, down);
        let up = "5>4@2+3 6>4@5+1 0>4@6+1 1>4@7+2 2>4@9+3 3>4@12+1";
        check(Gather, Linear, OpKind::Get, up);
        // The chain: one hop per stage, the scatter's suffix shrinking.
        check(
            Broadcast,
            Ring,
            OpKind::Put,
            "4>5 | 5>6 | 6>0 | 0>1 | 1>2 | 2>3",
        );
        check(
            Reduce,
            Ring,
            OpKind::GetFold,
            "3>2 | 2>1 | 1>0 | 0>6 | 6>5 | 5>4",
        );
        let down = "4>5@2+11 | 5>6@5+8 | 6>0@6+7 | 0>1@7+6 | 1>2@9+4 | 2>3@12+1";
        check(Scatter, Ring, OpKind::Put, down);
        let up = "3>2@12+1 | 2>1@9+4 | 1>0@7+6 | 0>6@6+7 | 6>5@5+8 | 5>4@2+11";
        check(Gather, Ring, OpKind::Put, up);
    }

    /// The same normal form on the symmetric side: every row of the
    /// all-gather and all-reduce tables, and the all-to-all.
    #[test]
    fn zero_length_symmetric_schedules_are_empty() {
        let zeros = [0; 9];
        for n in 1..=8 {
            let row = |shape| Row {
                shape,
                members: None,
                world: n,
            };
            for algo in AllGatherVAlgo::CONCRETE {
                let counts = &zeros[..n];
                let s = row(Shape::AllGather { algo, counts }).schedule();
                assert_eq!(
                    s,
                    CommSchedule::empty(n, CollectiveKind::AllGather),
                    "{algo:?}"
                );
            }
            for algo in AllReduceAlgo::CONCRETE {
                let s = row(Shape::AllReduce { algo, nelems: 0 }).schedule();
                assert_eq!(
                    s,
                    CommSchedule::empty(n, CollectiveKind::AllReduce),
                    "{algo:?}"
                );
            }
            let s = extended::all_to_all_sched(n, 0);
            assert_eq!(s, CommSchedule::empty(n, CollectiveKind::AllToAll));
        }
    }

    /// The six symmetric rows written out by hand, as a pin that does not
    /// go through `exchange_stages`. A stage reads `<kind> s>d@at+n …`:
    /// `n` elements at board offset `at` from PE `s` to PE `d`, where
    /// `from` is a `PutFrom` out of the private source (offset 0 there),
    /// `put` / `get` the heap-to-heap kinds, `fold` a plain `GetFold` and
    /// `xfold` one whose stage defers its folds. The all-gathers run 5 PEs
    /// on counts `[2, 0, 1, 3, 1]` (a zero block, and dissemination's
    /// second window wraps rank 0 at PE 2); the all-reduces run 6 PEs (a
    /// two-rank tail) on 7 elements (uneven ring segments) and 3 (rank 0's
    /// last Rabenseifner range is empty). Every literal was first run
    /// against the hand-written generators these rows replaced.
    #[test]
    fn symmetric_rows_five_and_six_pes() {
        let spell = |s: &CommSchedule| {
            s.validate();
            let stage = |st: &Stage| {
                let kind = match (st.ops[0].kind, st.deferred_fold) {
                    (OpKind::PutFrom, false) => "from",
                    (OpKind::Put, false) => "put",
                    (OpKind::Get, false) => "get",
                    (OpKind::GetFold, false) => "fold",
                    (OpKind::GetFold, true) => "xfold",
                    other => panic!("unexpected stage {other:?}"),
                };
                let mut out = String::from(kind);
                for o in &st.ops {
                    assert_eq!((o.kind, o.stride), (st.ops[0].kind, 1));
                    assert_eq!(o.src_at, if kind == "from" { 0 } else { o.dst_at });
                    out += &format!(" {}>{}@{}+{}", o.src_pe, o.dst_pe, o.dst_at, o.nelems);
                }
                out
            };
            s.stages.iter().map(stage).collect::<Vec<_>>().join(" | ")
        };
        let disp = vcoll::prefix_displacements(&[2, 0, 1, 3, 1]);
        assert_eq!(
            spell(&vcoll::allgatherv_fan_sched(5, &disp)),
            "from 0>0@0+2 0>1@0+2 0>2@0+2 0>3@0+2 0>4@0+2 \
             2>0@2+1 2>1@2+1 2>2@2+1 2>3@2+1 2>4@2+1 \
             3>0@3+3 3>1@3+3 3>2@3+3 3>3@3+3 3>4@3+3 \
             4>0@6+1 4>1@6+1 4>2@6+1 4>3@6+1 4>4@6+1"
        );
        let publish = "from 0>0@0+2 2>2@2+1 3>3@3+3 4>4@6+1";
        assert_eq!(
            spell(&vcoll::allgatherv_ring_sched(5, &disp)),
            format!(
                "{publish} | put 0>1@0+2 2>3@2+1 3>4@3+3 4>0@6+1 \
                 | put 0>1@6+1 1>2@0+2 3>4@2+1 4>0@3+3 \
                 | put 0>1@3+3 1>2@6+1 2>3@0+2 4>0@2+1 \
                 | put 0>1@2+1 1>2@3+3 2>3@6+1 3>4@0+2"
            )
        );
        assert_eq!(
            spell(&vcoll::allgatherv_dissemination_sched(5, &disp)),
            format!(
                "{publish} | get 4>0@6+1 0>1@0+2 2>3@2+1 3>4@3+3 \
                 | get 3>0@2+4 4>1@3+4 0>2@6+1 0>2@0+2 1>3@0+2 2>4@2+1 \
                 | get 2>1@2+1 3>2@3+3 4>3@6+1 0>4@0+2"
            )
        );
        assert_eq!(
            spell(&extended::allreduce_recursive_doubling(6, 7)),
            "fold 4>0@0+7 5>1@0+7 \
             | xfold 1>0@0+7 0>1@0+7 3>2@0+7 2>3@0+7 \
             | xfold 2>0@0+7 3>1@0+7 0>2@0+7 1>3@0+7 \
             | put 0>4@0+7 1>5@0+7"
        );
        assert_eq!(
            spell(&extended::allreduce_rabenseifner(6, 7)),
            "fold 4>0@0+7 5>1@0+7 \
             | xfold 2>0@0+3 3>1@0+3 0>2@3+4 1>3@3+4 \
             | xfold 1>0@0+1 0>1@1+2 3>2@3+2 2>3@5+2 \
             | put 0>1@0+1 1>0@1+2 2>3@3+2 3>2@5+2 \
             | put 0>2@0+3 1>3@0+3 2>0@3+4 3>1@3+4 \
             | put 0>4@0+7 1>5@0+7"
        );
        assert_eq!(
            spell(&extended::allreduce_rabenseifner(6, 3)),
            "fold 4>0@0+3 5>1@0+3 \
             | xfold 2>0@0+1 3>1@0+1 0>2@1+2 1>3@1+2 \
             | xfold 0>1@0+1 3>2@1+1 2>3@2+1 \
             | put 1>0@0+1 2>3@1+1 3>2@2+1 \
             | put 0>2@0+1 1>3@0+1 2>0@1+2 3>1@1+2 \
             | put 0>4@0+3 1>5@0+3"
        );
        assert_eq!(
            spell(&extended::allreduce_ring(6, 7)),
            "xfold 5>0@6+1 0>1@0+2 1>2@2+1 2>3@3+1 3>4@4+1 4>5@5+1 \
             | xfold 5>0@5+1 0>1@6+1 1>2@0+2 2>3@2+1 3>4@3+1 4>5@4+1 \
             | xfold 5>0@4+1 0>1@5+1 1>2@6+1 2>3@0+2 3>4@2+1 4>5@3+1 \
             | xfold 5>0@3+1 0>1@4+1 1>2@5+1 2>3@6+1 3>4@0+2 4>5@2+1 \
             | xfold 5>0@2+1 0>1@3+1 1>2@4+1 2>3@5+1 3>4@6+1 4>5@0+2 \
             | put 0>1@2+1 1>2@3+1 2>3@4+1 3>4@5+1 4>5@6+1 5>0@0+2 \
             | put 0>1@0+2 1>2@2+1 2>3@3+1 3>4@4+1 4>5@5+1 5>0@6+1 \
             | put 0>1@6+1 1>2@0+2 2>3@2+1 3>4@3+1 4>5@4+1 5>0@5+1 \
             | put 0>1@5+1 1>2@6+1 2>3@0+2 3>4@2+1 4>5@3+1 5>0@4+1 \
             | put 0>1@4+1 1>2@5+1 2>3@6+1 3>4@0+2 4>5@2+1 5>0@3+1"
        );
    }

    proptest! {
        #[test]
        fn broadcast_covers_all_pes_exactly_once(
            n_pes in 1usize..=16,
            root_seed in 0usize..16,
            nelems in 1usize..40,
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
            let lin = whole(Broadcast, Linear, n_pes, root, 4);
            lin.validate();
            prop_assert_eq!(lin.stages.len(), 1);
            prop_assert_eq!(lin.total_ops(), n_pes - 1);
            prop_assert!(lin.ops().all(|o| o.src_pe == root));

            let ring = whole(Broadcast, Ring, n_pes, root, 4);
            ring.validate();
            prop_assert_eq!(ring.stages.len(), n_pes.saturating_sub(1));
            prop_assert_eq!(ring.total_ops(), n_pes.saturating_sub(1));

            let rl = whole(Reduce, Linear, n_pes, root, 4);
            rl.validate();
            prop_assert_eq!(rl.total_ops(), n_pes - 1);
            prop_assert!(rl.ops().all(|o| o.dst_pe == root && o.kind == OpKind::GetFoldInto));

            let adj = uniform_disp(n_pes, 2, root);
            let sl = rooted_schedule(Scatter, Linear, n_pes, root, Payload::Ranges(&adj));
            let gl = rooted_schedule(Gather, Linear, n_pes, root, Payload::Ranges(&adj));
            sl.validate();
            gl.validate();
            prop_assert_eq!(sl.total_ops(), n_pes - 1);
            prop_assert_eq!(gl.total_ops(), n_pes - 1);
        }

        #[test]
        fn transposed_twice_is_identity_and_on_keeps_the_shape(
            n_pes in 1usize..=16,
            root_seed in 0usize..16,
            i in 0usize..12,
            per in 0usize..4,
        ) {
            let root = root_seed % n_pes;
            let (family, algo) = row(i);
            let counts: Vec<usize> = (0..n_pes).map(|r| (r + per) % 3).collect();
            let adj = adjusted_displacements(&counts, root, n_pes);
            let whole = Payload::Whole { nelems: per + 1, stride: 2 };
            let payload = if i < 6 { whole } else { Payload::Ranges(&adj) };
            let s = rooted_schedule(family, algo, n_pes, root, payload);
            // Any other direction and back, under the original kinds.
            if let Some(op_kind) = s.ops().next().map(|o| o.kind) {
                let there = s.clone().transposed(CollectiveKind::AllToAll, OpKind::PutNb);
                prop_assert_eq!(there.total_ops(), s.total_ops());
                prop_assert_eq!(&there.transposed(family, op_kind), &s);
            }
            // Onto the odd ranks of a world twice the size.
            let members: Vec<usize> = (0..n_pes).map(|r| 2 * r + 1).collect();
            let t = s.clone().on(&members, 2 * n_pes + 1);
            t.validate();
            prop_assert_eq!(t.n_pes, 2 * n_pes + 1);
            let lens = |s: &CommSchedule| s.stages.iter().map(|st| st.ops.len()).collect::<Vec<_>>();
            prop_assert_eq!(lens(&t), lens(&s));
            for (a, b) in s.ops().zip(t.ops()) {
                prop_assert_eq!((members[a.src_pe], members[a.dst_pe]), (b.src_pe, b.dst_pe));
            }
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
