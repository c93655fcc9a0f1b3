//! Reduction — paper Algorithm 2.
//!
//! All-to-root combination over the same binomial tree as broadcast, with
//! the data flow reversed: the loop index *ascends*, the mask isolates
//! virtual-rank bits right-to-left, and each surviving PE `get`s its
//! partner's partial result and folds it into its own shared buffer
//! (recursive doubling). The paper notes the source must be symmetric —
//! partners read it one-sidedly — while `dest` matters only on the root and
//! may be private. Every reduce schedule is the matching broadcast
//! schedule transposed into folds, so the chain (`AlgorithmPolicy::Ring`)
//! folds partials hop by hop toward the root through the same staging
//! buffer as the tree; only the star (`Linear`) folds into a private
//! accumulator on the root.

use crate::collectives::call::{Buf, Bufs, Call, CallKind};
use crate::collectives::plan::{self, Readout};
use crate::collectives::policy::{Algorithm, AlgorithmPolicy, SyncMode};
use crate::collectives::schedule::{Row, Shape};
use crate::fabric::{span, CollectiveKind, Pe, SymmAlloc};
use crate::types::{with_combiner, ReduceOp, XbrBitwise, XbrNumeric, XbrType};

/// Reduce with an arbitrary combining function, under an explicit
/// [`AlgorithmPolicy`] and executor [`SyncMode`].
///
/// `src` is each PE's symmetric contribution (strided); on return, `root`'s
/// `dest` slice holds the elementwise combination across all PEs at
/// positions `0, stride, 2·stride, …`. Other PEs' `dest` is untouched.
/// `f` must be associative and commutative for a deterministic result.
///
/// # Panics
/// Panics on span violations or `root ≥ n_pes`.
#[allow(clippy::too_many_arguments)]
pub fn reduce_with<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &SymmAlloc<T>,
    nelems: usize,
    stride: usize,
    root: usize,
    f: impl Fn(T, T) -> T,
    policy: AlgorithmPolicy,
    sync: SyncMode,
) {
    let call = Call::whole(CallKind::Reduce(policy), root, nelems, stride, sync);
    call.issue(pe, Bufs::new(Buf::Local(dest), Buf::Heap(src)), &f)
        .expect("a reduction has no count table");
}

/// The one reduction body, over `row` — the flat trees and the two-tier
/// hierarchy, every PE contributing. A zero-length reduction is fully
/// inert (telemetry only).
pub(crate) fn reduce_core<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &SymmAlloc<T>,
    row: &Row<'_>,
    f: impl Fn(T, T) -> T,
    sync: SyncMode,
) {
    row.check();
    let kind = CollectiveKind::Reduce;
    let (root, nelems, stride) = row.rooted_whole();
    let star = Algorithm::Linear;
    if nelems > 0 && matches!(row.shape, Shape::Rooted { algo, .. } if algo == star) {
        // Linear: the root gets every peer's contribution and folds it
        // into a private accumulator (never writing back into `src`).
        // All PEs participate in the barrier; only the root moves data,
        // so only the root's plan has `LocalDst` steps and an accumulator.
        pe.barrier();
        let mut acc = Vec::new();
        if pe.rank() == root {
            acc.resize(span(nelems, stride), T::default());
            pe.heap_read_strided(src.whole(), &mut acc, nelems, stride);
        }
        plan::run_schedule(pe, row, kind, src.whole(), &[], &mut acc, Some(&f), sync);
        if pe.rank() == root {
            for j in 0..nelems {
                dest[j * stride] = acc[j * stride];
            }
        }
        return;
    }
    // Trees, chain and tiers fold partial results on the way to the root
    // through the staged board.
    let readout = Readout::Root {
        root,
        nelems,
        stride,
    };
    let plan = || plan::plan_for(pe, row, kind, sync, std::mem::size_of::<T>());
    plan::issue_reduce(pe, kind, Some(src), readout, None, plan, f, false).wait_into(pe, dest);
}

/// Reduce with a named arithmetic operator (`sum`, `prod`, `min`, `max`) —
/// valid for every Table 1 type. The paper's signature: binomial tree, a
/// barrier after every stage.
///
/// # Panics
/// Panics if `op` is a bitwise operator (those require [`XbrBitwise`] —
/// use [`reduce_bitwise`]).
///
/// ```
/// use xbrtime::{collectives, Fabric, FabricConfig, ReduceOp};
/// let report = Fabric::run(FabricConfig::new(4), |pe| {
///     let src = pe.shared_malloc::<u64>(1);
///     pe.heap_store(src.whole(), pe.rank() as u64 + 1);
///     pe.barrier();
///     let mut out = [0u64];
///     collectives::reduce(pe, &mut out, &src, 1, 1, 0, ReduceOp::Prod);
///     pe.barrier();
///     out[0]
/// });
/// assert_eq!(report.results[0], 24); // 1*2*3*4 on the root
/// ```
pub fn reduce<T: XbrNumeric>(
    pe: &Pe,
    dest: &mut [T],
    src: &SymmAlloc<T>,
    nelems: usize,
    stride: usize,
    root: usize,
    op: ReduceOp,
) {
    reduce_policy_sync(
        pe,
        dest,
        src,
        nelems,
        stride,
        root,
        op,
        AlgorithmPolicy::Binomial,
        SyncMode::Barrier,
    );
}

/// [`reduce`] under an explicit [`AlgorithmPolicy`] and executor
/// [`SyncMode`].
#[allow(clippy::too_many_arguments)]
pub fn reduce_policy_sync<T: XbrNumeric>(
    pe: &Pe,
    dest: &mut [T],
    src: &SymmAlloc<T>,
    nelems: usize,
    stride: usize,
    root: usize,
    op: ReduceOp,
    policy: AlgorithmPolicy,
    sync: SyncMode,
) {
    with_combiner!(op, |f: T| reduce_with(
        pe, dest, src, nelems, stride, root, f, policy, sync
    ));
}

/// Reduce with any operator, including bitwise, for non-floating-point
/// types (binomial tree, per-stage barriers).
pub fn reduce_bitwise<T: XbrBitwise>(
    pe: &Pe,
    dest: &mut [T],
    src: &SymmAlloc<T>,
    nelems: usize,
    stride: usize,
    root: usize,
    op: ReduceOp,
) {
    let (tree, sync) = (AlgorithmPolicy::Binomial, SyncMode::Barrier);
    with_combiner!(bitwise op, |f: T| reduce_with(
        pe, dest, src, nelems, stride, root, f, tree, sync
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::schedule::Payload;
    use crate::fabric::{Fabric, FabricConfig};

    fn check_sum(n_pes: usize, root: usize, nelems: usize, stride: usize) {
        let report = Fabric::run(FabricConfig::new(n_pes), |pe| {
            let span = if nelems == 0 {
                1
            } else {
                (nelems - 1) * stride + 1
            };
            let src = pe.shared_malloc::<u64>(span);
            let contrib: Vec<u64> = (0..span as u64)
                .map(|j| (pe.rank() as u64 + 1) * 1000 + j)
                .collect();
            pe.heap_write(src.whole(), &contrib);
            pe.barrier();
            let mut dest = vec![0u64; span];
            reduce(pe, &mut dest, &src, nelems, stride, root, ReduceOp::Sum);
            pe.barrier();
            dest
        });
        let n = n_pes as u64;
        for (rank, got) in report.results.iter().enumerate() {
            if rank == root {
                for j in 0..nelems {
                    let idx = (j * stride) as u64;
                    let expect: u64 = (1..=n).map(|r| r * 1000 + idx).sum();
                    assert_eq!(
                        got[j * stride],
                        expect,
                        "n={n_pes} root={root} rank={rank} elem={j}"
                    );
                }
            } else {
                assert!(
                    got.iter().all(|&v| v == 0),
                    "non-root rank {rank} dest must be untouched"
                );
            }
        }
    }

    #[test]
    fn all_pe_counts_and_roots() {
        for n in 1..=9 {
            for root in 0..n {
                check_sum(n, root, 4, 1);
            }
        }
    }

    #[test]
    fn strided_reduction() {
        check_sum(5, 3, 3, 2);
        check_sum(8, 0, 2, 4);
    }

    #[test]
    fn larger_counts() {
        check_sum(16, 9, 33, 1);
    }

    #[test]
    fn all_operators_two_pes() {
        let report = Fabric::run(FabricConfig::new(2), |pe| {
            let src = pe.shared_malloc::<u32>(1);
            let v: u32 = if pe.rank() == 0 { 0b1100 } else { 0b1010 };
            pe.heap_store(src.whole(), v);
            pe.barrier();
            let mut out = Vec::new();
            for op in [
                ReduceOp::Sum,
                ReduceOp::Prod,
                ReduceOp::Min,
                ReduceOp::Max,
                ReduceOp::And,
                ReduceOp::Or,
                ReduceOp::Xor,
            ] {
                let mut d = [0u32];
                reduce_bitwise(pe, &mut d, &src, 1, 1, 0, op);
                out.push(d[0]);
            }
            pe.barrier();
            out
        });
        let got = &report.results[0];
        assert_eq!(got[0], 0b1100 + 0b1010); // sum
        assert_eq!(got[1], 0b1100 * 0b1010); // prod
        assert_eq!(got[2], 0b1010); // min
        assert_eq!(got[3], 0b1100); // max
        assert_eq!(got[4], 0b1000); // and
        assert_eq!(got[5], 0b1110); // or
        assert_eq!(got[6], 0b0110); // xor
    }

    #[test]
    fn float_reduction() {
        let report = Fabric::run(FabricConfig::new(4), |pe| {
            let src = pe.shared_malloc::<f64>(2);
            pe.heap_write(src.whole(), &[pe.rank() as f64 + 0.5, -(pe.rank() as f64)]);
            pe.barrier();
            let mut d = [0.0f64; 2];
            reduce(pe, &mut d, &src, 2, 1, 2, ReduceOp::Max);
            pe.barrier();
            d
        });
        assert_eq!(report.results[2], [3.5, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-floating-point")]
    fn bitwise_on_float_rejected() {
        Fabric::run(FabricConfig::new(1), |pe| {
            let src = pe.shared_malloc::<f32>(1);
            let mut d = [0.0f32];
            reduce(pe, &mut d, &src, 1, 1, 0, ReduceOp::Xor);
        });
    }

    /// The linear reduce's private accumulator exists only at the root:
    /// under every sync mode, no other PE's lowered steps touch
    /// `local_dst`.
    #[test]
    fn linear_reduce_touches_local_dst_only_at_the_root() {
        use crate::collectives::plan::{lower, PlanStep, Space};
        // Pipelined chunks the larger payload.
        for (n, nelems) in (2..=8).flat_map(|n| [(n, 3), (n, 40_000)]) {
            for root in 0..n {
                let row = Row {
                    shape: Shape::Rooted {
                        family: CollectiveKind::Reduce,
                        algo: Algorithm::Linear,
                        root,
                        payload: Payload::Whole { nelems, stride: 2 },
                    },
                    members: None,
                    world: n,
                };
                for sync in SyncMode::CONCRETE {
                    let plan = lower(&row.schedule(), sync, 8);
                    for (rank, prog) in plan.per_pe.iter().enumerate() {
                        let private = prog.steps.iter().any(|s| {
                            matches!(
                                s,
                                PlanStep::Copy {
                                    local: Space::LocalDst,
                                    ..
                                } | PlanStep::Fold {
                                    dst: Space::LocalDst,
                                    ..
                                }
                            )
                        });
                        assert_eq!(
                            private,
                            rank == root,
                            "n={n} root={root} {sync:?} rank={rank}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn source_is_not_clobbered() {
        // The staging buffer exists precisely so src survives (paper §4.4).
        let report = Fabric::run(FabricConfig::new(4), |pe| {
            let src = pe.shared_malloc::<i64>(3);
            let mine = [pe.rank() as i64; 3];
            pe.heap_write(src.whole(), &mine);
            pe.barrier();
            let mut d = [0i64; 3];
            reduce(pe, &mut d, &src, 3, 1, 0, ReduceOp::Sum);
            pe.barrier();
            pe.heap_read_vec(src.whole(), 3)
        });
        for (rank, after) in report.results.iter().enumerate() {
            assert_eq!(after, &vec![rank as i64; 3]);
        }
    }

    #[test]
    fn single_pe_copies_through() {
        let report = Fabric::run(FabricConfig::new(1), |pe| {
            let src = pe.shared_malloc::<i32>(4);
            pe.heap_write(src.whole(), &[1, 2, 3, 4]);
            let mut d = [0i32; 4];
            reduce(pe, &mut d, &src, 4, 1, 0, ReduceOp::Prod);
            d
        });
        assert_eq!(report.results[0], [1, 2, 3, 4]);
    }
}
