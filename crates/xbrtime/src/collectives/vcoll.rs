//! Counts-table collectives — `scatterv`, `gatherv`, `allgatherv` with
//! per-PE counts and displacements.
//!
//! The paper's own `scatter`/`gather` signatures (`pe_msgs`, `pe_disp`)
//! *are* counts-table collectives, so each family has exactly one body:
//! `scatter_core` and `gather_core` live next to Algorithms 3 and 4,
//! `allgather_core` here, each run by
//! [`Call::issue`](crate::collectives::Call::issue), and the uniform
//! entry points are the same bodies on the caller's table (`all_gather`: a constant one, in the
//! spirit of Jocksch et al., who treat the uniform allgather as the
//! constant-count case of allgatherv). The `try_*` entry points differ
//! from the uniform ones only in their `Auto` rule — which also keys on
//! count skew — and in returning a structured error. This module names
//! the three [`Shape::AllGather`] rows: the `publish` stage alone (the
//! fan), or followed by the ring or the dissemination arm of
//! `exchange_stages` over the prefix displacement table.
//!
//! Everything here follows the repo's schedule/executor split: each
//! generator is a pure function from a displacement table to a
//! [`CommSchedule`], checkable by the conformance oracle and the
//! interleaving explorer without a fabric. All-gather plan keys carry a
//! [`plan::counts_digest`] of the count table — `O(1)` key size for
//! `O(n)` irregularity.
//!
//! Count-vector *shape* mistakes (wrong length, root out of range) are
//! rejected up front with a structured [`VCountError`] by the `try_*`
//! entry points, before any allocation, barrier, or signal-slot activity
//! — the failure mode they replace was a much later slot-protocol panic
//! or deadlock once mismatched schedules disagreed across PEs.

use std::fmt;

use crate::collectives::call::{no_fold, Bufs, Call, CallKind};
use crate::collectives::plan;
use crate::collectives::policy::{self, AlgorithmPolicy, SyncMode};
use crate::collectives::schedule::{
    exchange_stages, is_put_kind, publish, CommSchedule, Exchange, OpKind, Payload, Row, Shape,
};
use crate::fabric::CollectiveKind::{self, AllGather, Gather, Scatter};
use crate::fabric::Pe;
use crate::types::XbrType;

// ---------------------------------------------------------------------------
// Structured count-vector validation
// ---------------------------------------------------------------------------

/// A v-collective's count/displacement vectors don't fit the team it was
/// called on. Returned by the `try_*` entry points *before* any
/// collective activity, so a caller can reject a malformed request
/// without wedging the fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VCountError {
    /// The counts vector must have exactly one entry per team member.
    CountsLen {
        /// Team size the vector must match.
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// The displacement vector must have exactly one entry per team
    /// member.
    DisplsLen {
        /// Team size the vector must match.
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// The root rank is not a member of the team.
    RootOutOfRange {
        /// Requested root.
        root: usize,
        /// Team size it must be below.
        n_pes: usize,
    },
}

impl fmt::Display for VCountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VCountError::CountsLen { expected, got } => {
                write!(
                    f,
                    "counts has {got} entries but the team has {expected} PEs"
                )
            }
            VCountError::DisplsLen { expected, got } => {
                write!(
                    f,
                    "displs has {got} entries but the team has {expected} PEs"
                )
            }
            VCountError::RootOutOfRange { root, n_pes } => {
                write!(f, "root {root} out of range for a {n_pes}-PE team")
            }
        }
    }
}

impl std::error::Error for VCountError {}

/// Check a v-collective's count/displacement shape against a team size.
/// Pure in its arguments, so every PE of a collective that passes the
/// same vectors reaches the same verdict before any of them has touched
/// the heap, a barrier, or a signal slot.
pub fn validate_v_shape(
    n_pes: usize,
    root: usize,
    counts: &[usize],
    displs: Option<&[usize]>,
) -> Result<(), VCountError> {
    if root >= n_pes {
        return Err(VCountError::RootOutOfRange { root, n_pes });
    }
    if counts.len() != n_pes {
        return Err(VCountError::CountsLen {
            expected: n_pes,
            got: counts.len(),
        });
    }
    if let Some(d) = displs {
        if d.len() != n_pes {
            return Err(VCountError::DisplsLen {
                expected: n_pes,
                got: d.len(),
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Count-table geometry
// ---------------------------------------------------------------------------

/// Prefix displacements in *logical-rank* order: `disp[r]` is where PE
/// `r`'s block begins in the concatenated result and `disp[n]` is the
/// total element count. The rootless analogue of
/// [`adjusted_displacements`](crate::collectives::scatter::adjusted_displacements),
/// which orders by virtual rank.
pub fn prefix_displacements(counts: &[usize]) -> Vec<usize> {
    let mut disp = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    for &c in counts {
        disp.push(acc);
        acc += c;
    }
    disp.push(acc);
    disp
}

/// Count skew in permille: `max(counts) · n · 1000 / total`. A uniform
/// table scores exactly 1000; 2000 means the largest block is twice its
/// fair share; `n · 1000` means one PE holds everything. Empty or
/// all-zero tables score 1000 (no skew to speak of). This is the
/// irregularity measure the `Auto` crossovers key on alongside total
/// bytes.
pub fn skew_permille(counts: &[usize]) -> u64 {
    let total: usize = counts.iter().sum();
    if counts.is_empty() || total == 0 {
        return 1000;
    }
    let max = *counts.iter().max().expect("non-empty");
    (max as u64) * (counts.len() as u64) * 1000 / (total as u64)
}

// ---------------------------------------------------------------------------
// Schedule generators
// ---------------------------------------------------------------------------

/// The all-gather(v) rows: the `publish` stage, then — unless it already
/// went to everyone — the `arm` carrying board blocks onward as its op
/// kind, their elements read off the prefix displacement table `disp`
/// (`n + 1` entries, [`prefix_displacements`]). Zero-length blocks drop
/// their edges, fully empty stages are elided, and a zero total is
/// [`CommSchedule::empty`].
fn allgatherv_sched(n_pes: usize, disp: &[usize], arm: Option<(Exchange, OpKind)>) -> CommSchedule {
    debug_assert_eq!(disp.len(), n_pes + 1);
    let mut sched = CommSchedule::empty(n_pes, CollectiveKind::AllGather);
    if disp[n_pes] > 0 {
        sched.stages.push(publish(n_pes, disp, arm.is_none()));
        if let Some((shape, kind)) = arm {
            let edge = |src, dst, b, nb| Payload::Ranges(disp).op(kind, src, dst, b, b + nb);
            let forward = exchange_stages(shape, n_pes, !is_put_kind(kind), edge);
            sched.stages.extend(forward);
        }
    }
    sched
}

/// Single-stage allgatherv fan: every PE with a non-empty block puts it
/// at its prefix displacement on every PE (its own included) — `n`
/// concurrent put fans, `O(n²)` ops in one stage: the publish stage sent
/// to everyone, and nothing after it.
pub fn allgatherv_fan_sched(n_pes: usize, disp: &[usize]) -> CommSchedule {
    allgatherv_sched(n_pes, disp, None)
}

/// Ring allgatherv: stage 0 publishes each PE's own block into its board
/// slot; stage `s ≥ 1` has every PE forward the block it received in the
/// previous stage — block `(me − s + 1) mod n` — to its successor (the
/// ring arm as puts). After `n − 1` forwarding stages every board holds
/// every block. Each PE injects exactly one block per stage regardless of
/// who originated it, which makes the ring bandwidth-optimal for
/// near-uniform tables; a heavily skewed table retransmits the giant
/// block on `n − 1` consecutive critical-path hops, which is why the
/// `Auto` crossover abandons the ring at high skew.
pub fn allgatherv_ring_sched(n_pes: usize, disp: &[usize]) -> CommSchedule {
    allgatherv_sched(n_pes, disp, Some((Exchange::Ring, OpKind::Put)))
}

/// Non-uniform dissemination allgatherv (Jocksch-style), exact for any
/// `n`: recursive doubling over arbitrary prefix displacements. Stage 0
/// publishes each PE's block; then `⌈log2 n⌉` stages each pull the cyclic
/// window of `cnt` blocks ending at rank `me − have` from that PE (the
/// dissemination arm as gets; a wrapped window needs two contiguous gets)
/// — `O(log n)` stages and `O(n)` gets per stage versus the fan's single
/// stage of `n²` puts. Every board slot is written exactly once and a
/// stage's READY post follows the poster's own gets in program order, so
/// plain stages suffice. A table where one PE holds everything still
/// completes in `O(log n)` stages with the giant block moved only
/// `⌈log2 n⌉` times, the property that makes this the high-skew `Auto`
/// choice.
pub fn allgatherv_dissemination_sched(n_pes: usize, disp: &[usize]) -> CommSchedule {
    allgatherv_sched(n_pes, disp, Some((Exchange::Dissemination, OpKind::Get)))
}

// ---------------------------------------------------------------------------
// Allgatherv strategy selection
// ---------------------------------------------------------------------------

/// Strategy selector for [`allgatherv`] and the uniform
/// [`all_gather`](crate::collectives::all_gather): single-stage fan,
/// `n − 1`-stage bandwidth-optimal ring, or log-stage non-uniform
/// dissemination. `Auto` resolves at the entry point: `allgatherv` from
/// world size, total bytes and count skew
/// ([`policy::auto_select_allgatherv`]), `all_gather` from world size and
/// block bytes ([`policy::auto_select_all_gather`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AllGatherVAlgo {
    /// One stage of `n²` puts ([`allgatherv_fan_sched`]).
    Fan,
    /// `n − 1` forwarding stages, one block injected per PE per stage
    /// ([`allgatherv_ring_sched`]).
    Ring,
    /// `⌈log2 n⌉` doubling-window stages
    /// ([`allgatherv_dissemination_sched`]).
    Dissemination,
    /// Resolve at the entry point (see the type docs).
    #[default]
    Auto,
}

impl AllGatherVAlgo {
    /// The three concrete strategies, for exhaustive sweeps.
    pub const CONCRETE: [AllGatherVAlgo; 3] = [
        AllGatherVAlgo::Fan,
        AllGatherVAlgo::Ring,
        AllGatherVAlgo::Dissemination,
    ];

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            AllGatherVAlgo::Fan => "fan",
            AllGatherVAlgo::Ring => "ring",
            AllGatherVAlgo::Dissemination => "dissemination",
            AllGatherVAlgo::Auto => "auto",
        }
    }

    /// Resolve `Auto` against the calibrated [`allgatherv`] crossovers;
    /// concrete strategies pass through.
    pub fn resolve(self, n_pes: usize, total_bytes: usize, skew_permille: u64) -> AllGatherVAlgo {
        match self {
            AllGatherVAlgo::Auto => {
                policy::auto_select_allgatherv(n_pes, total_bytes, skew_permille)
            }
            concrete => concrete,
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Scatter `counts[r]` elements to each PE `r` from the root's `src`,
/// where PE `r`'s segment starts at `src[displs[r]]`. Auto algorithm and
/// sync selection; a malformed count vector panics — use
/// [`try_scatterv_policy_sync`] for the structured error.
///
/// ```
/// use xbrtime::{collectives, Fabric, FabricConfig};
/// let report = Fabric::run(FabricConfig::new(3), |pe| {
///     let src = if pe.rank() == 0 { (0..6u64).collect() } else { vec![] };
///     let mut mine = vec![0u64; 3];
///     collectives::vcoll::scatterv(pe, &mut mine, &src, &[1, 2, 3], &[0, 1, 3], 0);
///     pe.barrier();
///     mine
/// });
/// assert_eq!(report.results[2], vec![3, 4, 5]);
/// ```
pub fn scatterv<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &[T],
    counts: &[usize],
    displs: &[usize],
    root: usize,
) {
    try_scatterv_policy_sync(
        pe,
        dest,
        src,
        counts,
        displs,
        root,
        AlgorithmPolicy::Auto,
        SyncMode::Auto,
    )
    .expect("scatterv: malformed count vector");
}

/// The rooted v-variants' `Auto` rule, keyed on total bytes, count skew
/// and the resolved sync mode ([`policy::auto_select_vrooted`]); fixed
/// policies pass through.
fn select_vrooted(
    kind: CollectiveKind,
    n_pes: usize,
    counts: &[usize],
    elem_bytes: usize,
    policy: AlgorithmPolicy,
    sync: SyncMode,
) -> AlgorithmPolicy {
    let total_bytes = counts.iter().sum::<usize>() * elem_bytes;
    let skew = skew_permille(counts);
    match policy {
        AlgorithmPolicy::Auto => {
            let resolved = sync.resolve(n_pes, total_bytes);
            policy::auto_select_vrooted(kind, n_pes, total_bytes, skew, resolved).into()
        }
        fixed => fixed,
    }
}

/// [`scatterv`] with explicit algorithm policy and sync mode, returning
/// a structured [`VCountError`] for malformed count vectors *before* any
/// allocation, barrier, or signal-slot activity. Zero-total scatters are
/// fully inert (telemetry only). Undersized `dest`/`src` buffers still
/// panic: those are local programming errors, not collective-shape
/// disagreements. The body is the one
/// [`scatter_policy_sync`](crate::collectives::scatter_policy_sync) runs;
/// only the `Auto` rule differs.
#[allow(clippy::too_many_arguments)]
pub fn try_scatterv_policy_sync<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &[T],
    counts: &[usize],
    displs: &[usize],
    root: usize,
    policy: AlgorithmPolicy,
    sync: SyncMode,
) -> Result<(), VCountError> {
    let es = std::mem::size_of::<T>();
    let policy = select_vrooted(Scatter, pe.n_pes(), counts, es, policy, sync);
    let call = Call::table(CallKind::Scatter(policy), root, counts, Some(displs), sync);
    call.issue(pe, Bufs::local(dest, src), no_fold)
}

/// Gather `counts[r]` elements from every PE `r`'s `src` to the root,
/// landing at `dest[displs[r]]` there. Auto algorithm and sync; a
/// malformed count vector panics — use [`try_gatherv_policy_sync`] for
/// the structured error.
///
/// ```
/// use xbrtime::{collectives, Fabric, FabricConfig};
/// let report = Fabric::run(FabricConfig::new(3), |pe| {
///     let mine = vec![pe.rank() as u64 + 10; pe.rank() + 1];
///     let mut all = vec![0u64; 6];
///     collectives::vcoll::gatherv(pe, &mut all, &mine, &[1, 2, 3], &[0, 1, 3], 1);
///     pe.barrier();
///     all
/// });
/// assert_eq!(report.results[1], vec![10, 11, 11, 12, 12, 12]);
/// ```
pub fn gatherv<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &[T],
    counts: &[usize],
    displs: &[usize],
    root: usize,
) {
    try_gatherv_policy_sync(
        pe,
        dest,
        src,
        counts,
        displs,
        root,
        AlgorithmPolicy::Auto,
        SyncMode::Auto,
    )
    .expect("gatherv: malformed count vector");
}

/// [`gatherv`] with explicit algorithm policy and sync mode; structured
/// [`VCountError`] for malformed count vectors before any collective
/// activity, fully inert at zero total length. The body is the one
/// [`gather_policy_sync`](crate::collectives::gather_policy_sync) runs;
/// only the `Auto` rule differs.
#[allow(clippy::too_many_arguments)]
pub fn try_gatherv_policy_sync<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &[T],
    counts: &[usize],
    displs: &[usize],
    root: usize,
    policy: AlgorithmPolicy,
    sync: SyncMode,
) -> Result<(), VCountError> {
    let es = std::mem::size_of::<T>();
    let policy = select_vrooted(Gather, pe.n_pes(), counts, es, policy, sync);
    let call = Call::table(CallKind::Gather(policy), root, counts, Some(displs), sync);
    call.issue(pe, Bufs::local(dest, src), no_fold)
}

/// All-gather with per-PE counts (OpenSHMEM `collect` with explicit
/// counts): every PE contributes `counts[rank]` elements from `src`, and
/// every PE's `dest` receives the rank-ordered concatenation (`Σ counts`
/// elements). Auto strategy and sync; a malformed count vector panics —
/// use [`try_allgatherv_algo_sync`] for the structured error.
///
/// ```
/// use xbrtime::{collectives, Fabric, FabricConfig};
/// let report = Fabric::run(FabricConfig::new(3), |pe| {
///     let mine = vec![pe.rank() as u64; pe.rank()]; // PE 0 contributes nothing
///     let mut all = vec![9u64; 3];
///     collectives::vcoll::allgatherv(pe, &mut all, &mine, &[0, 1, 2]);
///     pe.barrier();
///     all
/// });
/// assert_eq!(report.results[0], vec![1, 2, 2]);
/// ```
pub fn allgatherv<T: XbrType>(pe: &Pe, dest: &mut [T], src: &[T], counts: &[usize]) {
    try_allgatherv_algo_sync(pe, dest, src, counts, AllGatherVAlgo::Auto, SyncMode::Auto)
        .expect("allgatherv: malformed count vector");
}

/// [`allgatherv`] with explicit strategy and sync mode; structured
/// [`VCountError`] for malformed count vectors before any collective
/// activity. Zero-total exchanges are fully inert — telemetry only, no
/// staging board, no barriers.
pub fn try_allgatherv_algo_sync<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &[T],
    counts: &[usize],
    algo: AllGatherVAlgo,
    sync: SyncMode,
) -> Result<(), VCountError> {
    let total_bytes = counts.iter().sum::<usize>() * std::mem::size_of::<T>();
    let algo = algo.resolve(pe.n_pes(), total_bytes, skew_permille(counts));
    let call = Call::table(CallKind::AllGather(algo), 0, counts, None, sync);
    call.issue(pe, Bufs::local(dest, src), no_fold)
}

/// The one all-gather body, over `row`'s count table: the uniform
/// [`all_gather`](crate::collectives::all_gather) runs it on a constant
/// one.
pub(crate) fn allgather_core<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &[T],
    row: &Row<'_>,
    sync: SyncMode,
) {
    let Shape::AllGather { counts, .. } = row.shape else {
        panic!("all-gather runs an all-gather row");
    };
    let total: usize = counts.iter().sum();
    let my_count = counts[pe.rank()];
    assert!(
        src.len() >= my_count,
        "src holds {} elements but this PE contributes {my_count}",
        src.len()
    );
    assert!(
        dest.len() >= total,
        "dest holds {} elements but the concatenation has {total}",
        dest.len()
    );
    if total == 0 {
        plan::note_inert(pe, AllGather);
        return;
    }
    let board = pe.shared_malloc::<T>(total);
    plan::run_schedule(pe, row, AllGather, board.whole(), src, &mut [], None, sync);
    pe.heap_read_strided(board.whole(), &mut dest[..total], total, 1);
    pe.barrier();
    pe.shared_free(board);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::policy::Algorithm;
    use crate::collectives::scatter::adjusted_displacements;
    use crate::collectives::schedule::rooted_schedule;
    use crate::fabric::{Fabric, FabricConfig};

    /// Abstract replay of an allgatherv schedule: walk the stages over a
    /// model board per PE, applying puts/gets in stage order, and check
    /// every PE ends with every block at its prefix offset.
    fn replay_allgatherv(sched: &CommSchedule, counts: &[usize]) {
        let n = sched.n_pes;
        let disp = prefix_displacements(counts);
        let total = disp[n];
        // boards[p][i] = Some(origin value) once written.
        let mut boards = vec![vec![None; total]; n];
        let locals: Vec<Vec<u32>> = (0..n)
            .map(|p| (0..counts[p]).map(|k| (p * 1000 + k) as u32).collect())
            .collect();
        for stage in &sched.stages {
            let snapshot = boards.clone();
            for op in &stage.ops {
                for i in 0..op.nelems {
                    let v = match op.kind {
                        OpKind::PutFrom => Some(locals[op.src_pe][op.src_at + i]),
                        OpKind::Put | OpKind::Get => {
                            let v = snapshot[op.src_pe][op.src_at + i];
                            assert!(v.is_some(), "op reads an unwritten board cell");
                            v
                        }
                        other => panic!("unexpected op kind {other:?} in allgatherv"),
                    };
                    boards[op.dst_pe][op.dst_at + i] = v;
                }
            }
        }
        for (p, board) in boards.iter().enumerate() {
            for s in 0..n {
                for k in 0..counts[s] {
                    assert_eq!(
                        board[disp[s] + k],
                        Some((s * 1000 + k) as u32),
                        "PE {p} missing element {k} of block {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn allgatherv_schedules_cover_all_blocks() {
        let tables: &[&[usize]] = &[
            &[1, 2, 3],
            &[0, 4, 0, 1],
            &[7, 0, 0, 0, 0],
            &[1, 1, 1, 1, 1, 1, 1],
            &[3, 1, 4, 1, 5, 9, 2, 6],
        ];
        for counts in tables {
            let n = counts.len();
            let disp = prefix_displacements(counts);
            replay_allgatherv(&allgatherv_fan_sched(n, &disp), counts);
            replay_allgatherv(&allgatherv_ring_sched(n, &disp), counts);
            replay_allgatherv(&allgatherv_dissemination_sched(n, &disp), counts);
        }
    }

    #[test]
    fn dissemination_stage_count_is_logarithmic() {
        for n in 2..=16 {
            let counts = vec![2usize; n];
            let disp = prefix_displacements(&counts);
            let sched = allgatherv_dissemination_sched(n, &disp);
            let log = usize::BITS as usize - (n - 1).leading_zeros() as usize;
            assert_eq!(sched.stages.len(), 1 + log, "n = {n}");
        }
    }

    #[test]
    fn ring_chain_is_one_op_per_stage() {
        let adj = adjusted_displacements(&[2, 1, 3, 2], 1, 4);
        let (chain, ranges) = (Algorithm::Ring, Payload::Ranges(&adj));
        let sched = rooted_schedule(CollectiveKind::Scatter, chain, 4, 1, ranges);
        assert_eq!(sched.stages.len(), 3);
        assert!(sched.stages.iter().all(|s| s.ops.len() == 1));
        let back = rooted_schedule(CollectiveKind::Gather, chain, 4, 1, ranges);
        assert_eq!(back.stages.len(), 3);
    }

    #[test]
    fn skew_measure_anchors() {
        assert_eq!(skew_permille(&[2, 2, 2, 2]), 1000);
        assert_eq!(skew_permille(&[4, 0, 0, 0]), 4000);
        assert_eq!(skew_permille(&[0, 0]), 1000);
    }

    #[test]
    fn scatterv_roundtrip_all_algos() {
        for policy in [
            AlgorithmPolicy::Binomial,
            AlgorithmPolicy::Linear,
            AlgorithmPolicy::Ring,
            AlgorithmPolicy::Auto,
        ] {
            let report = Fabric::run(FabricConfig::new(4), move |pe| {
                let counts = [2usize, 0, 3, 1];
                let displs = [0usize, 2, 2, 5];
                let src: Vec<u64> = if pe.rank() == 2 {
                    (0..6).collect()
                } else {
                    vec![]
                };
                let mut mine = vec![0u64; counts[pe.rank()]];
                try_scatterv_policy_sync(
                    pe,
                    &mut mine,
                    &src,
                    &counts,
                    &displs,
                    2,
                    policy,
                    SyncMode::Auto,
                )
                .unwrap();
                pe.barrier();
                mine
            });
            assert_eq!(report.results[0], vec![0, 1], "{policy:?}");
            assert_eq!(report.results[1], Vec::<u64>::new());
            assert_eq!(report.results[2], vec![2, 3, 4]);
            assert_eq!(report.results[3], vec![5]);
        }
    }

    #[test]
    fn gatherv_roundtrip_all_algos() {
        for policy in [
            AlgorithmPolicy::Binomial,
            AlgorithmPolicy::Linear,
            AlgorithmPolicy::Ring,
            AlgorithmPolicy::Auto,
        ] {
            let report = Fabric::run(FabricConfig::new(4), move |pe| {
                let counts = [1usize, 3, 0, 2];
                let displs = [5usize, 0, 3, 3];
                let mine: Vec<u64> = (0..counts[pe.rank()] as u64)
                    .map(|k| pe.rank() as u64 * 10 + k)
                    .collect();
                let mut all = vec![99u64; 6];
                try_gatherv_policy_sync(
                    pe,
                    &mut all,
                    &mine,
                    &counts,
                    &displs,
                    3,
                    policy,
                    SyncMode::Auto,
                )
                .unwrap();
                pe.barrier();
                all
            });
            // displs place PE1 at 0..3, PE3 at 3..5, PE0 at 5.
            assert_eq!(report.results[3], vec![10, 11, 12, 30, 31, 0], "{policy:?}");
        }
    }

    #[test]
    fn allgatherv_roundtrip_all_algos() {
        for algo in AllGatherVAlgo::CONCRETE {
            let report = Fabric::run(FabricConfig::new(5), move |pe| {
                let counts = [2usize, 0, 1, 4, 0];
                let mine: Vec<u64> = (0..counts[pe.rank()] as u64)
                    .map(|k| pe.rank() as u64 * 10 + k)
                    .collect();
                let mut all = vec![0u64; 7];
                try_allgatherv_algo_sync(pe, &mut all, &mine, &counts, algo, SyncMode::Auto)
                    .unwrap();
                pe.barrier();
                all
            });
            for r in 0..5 {
                assert_eq!(
                    report.results[r],
                    vec![0, 1, 20, 30, 31, 32, 33],
                    "{algo:?} PE {r}"
                );
            }
        }
    }

    #[test]
    fn malformed_counts_rejected_before_any_collective_activity() {
        let report = Fabric::run(FabricConfig::new(3), |pe| {
            let mut dest = vec![0u64; 4];
            // counts has 4 entries for a 3-PE world.
            let err = try_allgatherv_algo_sync(
                pe,
                &mut dest,
                &[1u64],
                &[1, 1, 1, 1],
                AllGatherVAlgo::Auto,
                SyncMode::Auto,
            )
            .unwrap_err();
            assert_eq!(
                err,
                VCountError::CountsLen {
                    expected: 3,
                    got: 4
                }
            );
            // The fabric is still healthy: a follow-up collective works.
            let mut ok = vec![0u64; 3];
            allgatherv(pe, &mut ok, &[pe.rank() as u64], &[1, 1, 1]);
            pe.barrier();
            ok
        });
        assert_eq!(report.results[1], vec![0, 1, 2]);
    }
}
