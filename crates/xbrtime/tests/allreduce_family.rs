//! The allreduce/allgather schedule-generator family as first-class
//! citizens of the verification planes:
//!
//! * every generator (recursive doubling, Rabenseifner, ring,
//!   dissemination allgather) is held to the **dense single-PE
//!   reference** by the byte-provenance oracle for n ∈ 2..=9 under every
//!   concrete sync mode — including the non-power-of-two tails the
//!   generators now fold internally;
//! * proptests sweep arbitrary (generator, n_pes, nelems) cells through
//!   the same oracle;
//! * end-to-end execution equivalence: every family member produces the
//!   identical fold whether every PE runs at once or one seeded worker
//!   interleaves them, and `Auto` always agrees
//!   with whatever it resolved to;
//! * fold kernels: every named operator on `u8`, `i32`, `u64` and `f64`,
//!   through every reduction entry point, against a sequential oracle,
//!   and the operand order of a fold step pinned.

// The `..ProptestConfig::default()` spread is upstream proptest's
// canonical config idiom; the local shim happens to have no other
// fields, which trips needless_update.
#![allow(clippy::needless_update)]

use std::ops::{BitAnd, BitOr, BitXor};

use proptest::prelude::*;
use xbrtime::collectives::extended::{
    allreduce_rabenseifner, allreduce_recursive_doubling, allreduce_ring,
};
use xbrtime::collectives::schedule::{CommSchedule, Row, Shape};
use xbrtime::collectives::verify::{check_schedule, CollectiveSpec, ModelConfig};
use xbrtime::collectives::{
    self, allgatherv_dissemination_sched, prefix_displacements, AllGatherVAlgo, AllReduceAlgo,
};
use xbrtime::shmem::{to_all, ActiveSet};
use xbrtime::{
    AlgorithmPolicy, CollectiveKind, EngineConfig, Fabric, FabricConfig, ReduceOp, SyncMode,
    XbrBitwise, XbrNumeric,
};

// ---------------------------------------------------------------------
// Oracle: dense-reference equivalence of every generator.
// ---------------------------------------------------------------------

/// The uniform dissemination all-gather: the v-generator on a constant
/// count table.
fn uniform_dissemination_sched(n: usize, per_pe: usize) -> CommSchedule {
    allgatherv_dissemination_sched(n, &prefix_displacements(&vec![per_pe; n]))
}

fn oracle_ok(sched: &CommSchedule, sync: SyncMode, spec: &CollectiveSpec, what: &str) {
    let report = check_schedule(sched, sync, spec, &ModelConfig::default());
    assert!(
        report.ok(),
        "{what} [{}]: {}",
        sync.name(),
        report.summary()
    );
}

/// Each allreduce generator against the dense fold reference, n 2..=9 —
/// power-of-two, odd, and the `2^k + 1` worst cases — with payloads that
/// tile unevenly across both the PE count and its power-of-two floor.
#[test]
fn allreduce_generators_match_dense_reference() {
    for n in 2..=9usize {
        for nelems in [1usize, 2, 3, 7, 8, 13] {
            for sync in SyncMode::CONCRETE {
                let spec = CollectiveSpec::AllReduce { nelems };
                oracle_ok(
                    &allreduce_recursive_doubling(n, nelems),
                    sync,
                    &spec,
                    &format!("rec-doubling n={n} nelems={nelems}"),
                );
                oracle_ok(
                    &allreduce_rabenseifner(n, nelems),
                    sync,
                    &spec,
                    &format!("rabenseifner n={n} nelems={nelems}"),
                );
                oracle_ok(
                    &allreduce_ring(n, nelems),
                    sync,
                    &spec,
                    &format!("ring n={n} nelems={nelems}"),
                );
            }
        }
    }
}

/// The log-stage dissemination allgather against the provenance
/// reference (every atom must originate in its contributor's local
/// source), including the cyclic-window wraparound at non-power-of-two n.
#[test]
fn allgather_doubling_matches_reference() {
    for n in 1..=9usize {
        for per_pe in [1usize, 2, 5] {
            for sync in SyncMode::CONCRETE {
                oracle_ok(
                    &uniform_dissemination_sched(n, per_pe),
                    sync,
                    &CollectiveSpec::AllGather { per_pe },
                    &format!("allgather-rd n={n} per_pe={per_pe}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Arbitrary (generator, n, nelems) cells through the oracle.
    #[test]
    fn prop_allreduce_generator_matches_reference(
        n in 2usize..=9,
        nelems in 1usize..=96,
        which in 0usize..4,
        sync_ix in 0usize..3,
    ) {
        let algo = AllReduceAlgo::CONCRETE[which];
        let shape = Shape::AllReduce { algo, nelems };
        let sched = Row { shape, members: None, world: n }.schedule();
        let sync = SyncMode::CONCRETE[sync_ix];
        let report = check_schedule(
            &sched,
            sync,
            &CollectiveSpec::AllReduce { nelems },
            &ModelConfig::default(),
        );
        prop_assert!(
            report.ok(),
            "{} n={} nelems={} [{}]: {}",
            algo.name(), n, nelems, sync.name(), report.summary()
        );
    }

    /// Arbitrary dissemination-allgather cells through the oracle.
    #[test]
    fn prop_allgather_doubling_matches_reference(
        n in 1usize..=9,
        per_pe in 1usize..=24,
        sync_ix in 0usize..3,
    ) {
        let sched = uniform_dissemination_sched(n, per_pe);
        let sync = SyncMode::CONCRETE[sync_ix];
        let report = check_schedule(
            &sched,
            sync,
            &CollectiveSpec::AllGather { per_pe },
            &ModelConfig::default(),
        );
        prop_assert!(
            report.ok(),
            "allgather-rd n={} per_pe={} [{}]: {}",
            n, per_pe, sync.name(), report.summary()
        );
    }
}

// ---------------------------------------------------------------------
// Execution: both interleavings, every family member, exact fold values.
// ---------------------------------------------------------------------

/// One blocking all-reduce per PE: every rank's result, and the
/// all-reduce episodes the run reported.
fn run_allreduce(
    engine: EngineConfig,
    n: usize,
    nelems: usize,
    algo: AllReduceAlgo,
    sync: SyncMode,
) -> (Vec<Vec<u64>>, u64) {
    let cfg = FabricConfig::paper(n)
        .with_shared_bytes(1 << 20)
        .with_engine(engine);
    let report = Fabric::run(cfg, move |pe| {
        let me = pe.rank() as u64;
        let src = pe.shared_malloc::<u64>(nelems);
        let vals: Vec<u64> = (0..nelems as u64).map(|i| me * 37 + i * 5 + 1).collect();
        pe.heap_write(src.whole(), &vals);
        pe.barrier();
        let mut dest = vec![0u64; nelems];
        collectives::reduce_all_with(
            pe,
            &mut dest,
            &src,
            nelems,
            |a, b| a.wrapping_add(b),
            algo,
            sync,
        );
        pe.barrier();
        dest
    });
    let calls = report
        .collective(CollectiveKind::AllReduce)
        .map_or(0, |r| r.calls);
    (report.results, calls)
}

/// Every algorithm × both interleavings (every PE runnable, one seeded
/// worker) lands the exact dense sum on every rank, at power-of-two and
/// ragged PE counts with payloads that split unevenly (nelems ∤ n and
/// nelems < n among them) — and every call, reduce-then-broadcast
/// included, reports as exactly one all-reduce episode.
#[test]
fn allreduce_family_exact_on_both_backends() {
    let algos = AllReduceAlgo::CONCRETE
        .into_iter()
        .chain([AllReduceAlgo::Auto]);
    for n in [2usize, 3, 5, 8] {
        for nelems in [3usize, 17] {
            let expect: Vec<u64> = (0..nelems as u64)
                .map(|i| (0..n as u64).map(|me| me * 37 + i * 5 + 1).sum())
                .collect();
            let one_worker = EngineConfig::coop().with_workers(1).with_seed(11);
            for engine in [EngineConfig::coop().with_workers(n), one_worker] {
                for algo in algos.clone() {
                    let (results, calls) = run_allreduce(engine, n, nelems, algo, SyncMode::Auto);
                    for (rank, got) in results.iter().enumerate() {
                        assert_eq!(
                            got,
                            &expect,
                            "{} n={n} nelems={nelems} rank={rank}",
                            algo.name()
                        );
                    }
                    assert_eq!(calls, 1, "{} n={n} nelems={nelems}", algo.name());
                }
            }
        }
    }
}

/// Every allgather algorithm agrees with the rank-ordered concatenation
/// on both interleavings.
#[test]
fn allgather_algorithms_exact_on_both_backends() {
    for n in [2usize, 5, 9] {
        for per_pe in [1usize, 4] {
            let expect: Vec<u64> = (0..n as u64)
                .flat_map(|me| (0..per_pe as u64).map(move |i| me * 100 + i))
                .collect();
            let one_worker = EngineConfig::coop().with_workers(1).with_seed(7);
            for engine in [EngineConfig::coop().with_workers(n), one_worker] {
                for algo in AllGatherVAlgo::CONCRETE {
                    let cfg = FabricConfig::paper(n)
                        .with_shared_bytes(1 << 20)
                        .with_engine(engine);
                    let results = Fabric::run(cfg, move |pe| {
                        let me = pe.rank() as u64;
                        let src: Vec<u64> = (0..per_pe as u64).map(|i| me * 100 + i).collect();
                        let mut dest = vec![0u64; per_pe * n];
                        collectives::all_gather_algo_sync(
                            pe,
                            &mut dest,
                            &src,
                            per_pe,
                            algo,
                            SyncMode::Auto,
                        );
                        pe.barrier();
                        dest
                    })
                    .results;
                    for (rank, got) in results.iter().enumerate() {
                        assert_eq!(got, &expect, "{algo:?} n={n} per_pe={per_pe} rank={rank}");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fold kernels: every named operator against a sequential oracle.
// ---------------------------------------------------------------------

/// PEs of the fold-kernel runs: not a power of two, so the trees fold
/// their tails too.
const FOLD_PES: usize = 5;
/// Long enough to cross every vector width and leave a remainder.
const FOLD_NELEMS: [usize; 4] = [1, 7, 33, 4_099];

/// An element type of the fold-kernel runs, built from small integers so
/// that every tree order folds `f64` exactly.
trait FoldElem: XbrNumeric {
    fn of(x: u64) -> Self;
}

impl FoldElem for u8 {
    fn of(x: u64) -> Self {
        x as u8
    }
}
impl FoldElem for i32 {
    fn of(x: u64) -> Self {
        x as i32 - 2
    }
}
impl FoldElem for u64 {
    fn of(x: u64) -> Self {
        x
    }
}
impl FoldElem for f64 {
    fn of(x: u64) -> Self {
        x as f64 - 2.0
    }
}

/// PE `me`'s contribution at element index `i`.
fn contribution<T: FoldElem>(me: usize, i: usize) -> T {
    T::of(((me * 7 + i * 3) % 5 + 1) as u64)
}

/// The sequential fold over ranks `0..FOLD_PES` of element `i`.
fn fold_oracle<T: FoldElem>(f: fn(T, T) -> T, i: usize) -> T {
    (1..FOLD_PES).fold(contribution(0, i), |acc, me| f(acc, contribution(me, i)))
}

/// The bitwise combiners, spelled out here rather than taken from the
/// dispatch under test.
fn bitwise_oracle<T>(op: ReduceOp) -> fn(T, T) -> T
where
    T: FoldElem + BitAnd<Output = T> + BitOr<Output = T> + BitXor<Output = T>,
{
    match op {
        ReduceOp::And => |a, b| a & b,
        ReduceOp::Or => |a, b| a | b,
        ReduceOp::Xor => |a, b| a ^ b,
        _ => op.combiner::<T>().expect("arithmetic operator"),
    }
}

/// The root's strided result against the oracle; every gap element of
/// `dest` keeps the sentinel `T::default()`.
fn check_rooted<T: FoldElem>(
    dest: &[T],
    f: fn(T, T) -> T,
    nelems: usize,
    stride: usize,
    what: &str,
) {
    for (k, &got) in dest.iter().enumerate() {
        let expect = if k % stride == 0 && k / stride < nelems {
            fold_oracle(f, k / stride)
        } else {
            T::default()
        };
        assert_eq!(got, expect, "{what} elem {k}");
    }
}

/// A symmetric source window of `span` elements holding this PE's
/// contribution.
fn fold_src<T: FoldElem>(pe: &xbrtime::Pe, span: usize) -> xbrtime::SymmAlloc<T> {
    let src = pe.shared_malloc::<T>(span);
    let vals: Vec<T> = (0..span).map(|i| contribution(pe.rank(), i)).collect();
    pe.heap_write(src.whole(), &vals);
    pe.barrier();
    src
}

/// Every arithmetic operator on `T` through the rooted reduction (the
/// binomial tree's heap folds and the linear star's private folds, strides
/// 1 and 3), every concrete all-reduce and `shmem::to_all`.
fn arithmetic_folds_match_oracle<T: FoldElem>(name: &'static str) {
    let cfg = FabricConfig::paper(FOLD_PES).with_shared_bytes(1 << 20);
    Fabric::run(cfg, move |pe| {
        let root = 1;
        for op in ReduceOp::ARITHMETIC {
            let f = op.combiner::<T>().expect("arithmetic operator");
            for nelems in FOLD_NELEMS {
                for stride in [1, 3] {
                    let span = (nelems - 1) * stride + 1;
                    let src = fold_src::<T>(pe, span);
                    for policy in [AlgorithmPolicy::Binomial, AlgorithmPolicy::Linear] {
                        let mut dest = vec![T::default(); span];
                        collectives::reduce_policy_sync(
                            pe,
                            &mut dest,
                            &src,
                            nelems,
                            stride,
                            root,
                            op,
                            policy,
                            SyncMode::Barrier,
                        );
                        if pe.rank() == root {
                            let what = format!("{name} {op:?} {policy:?} n={nelems} s={stride}");
                            check_rooted(&dest, f, nelems, stride, &what);
                        }
                    }
                    pe.shared_free(src);
                }
                let src = fold_src::<T>(pe, nelems);
                let expect: Vec<T> = (0..nelems).map(|i| fold_oracle(f, i)).collect();
                for algo in AllReduceAlgo::CONCRETE {
                    let mut dest = vec![T::default(); nelems];
                    collectives::reduce_all_sync(
                        pe,
                        &mut dest,
                        &src,
                        nelems,
                        op,
                        algo,
                        SyncMode::Auto,
                    );
                    assert_eq!(dest, expect, "{name} {op:?} {} n={nelems}", algo.name());
                }
                let dest = pe.shared_malloc::<T>(nelems);
                to_all(pe, &dest, &src, nelems, op, &ActiveSet::world(FOLD_PES));
                let got = pe.heap_read_vec(dest.whole(), nelems);
                assert_eq!(got, expect, "{name} {op:?} to_all n={nelems}");
                pe.barrier();
                pe.shared_free(dest);
                pe.shared_free(src);
            }
        }
    });
}

/// Every operator, bitwise ones included, through `reduce_bitwise`.
fn bitwise_folds_match_oracle<T>(name: &'static str)
where
    T: FoldElem + XbrBitwise + BitAnd<Output = T> + BitOr<Output = T> + BitXor<Output = T>,
{
    let cfg = FabricConfig::paper(FOLD_PES).with_shared_bytes(1 << 20);
    Fabric::run(cfg, move |pe| {
        let root = 3;
        for op in ReduceOp::ARITHMETIC.into_iter().chain(ReduceOp::BITWISE) {
            for nelems in FOLD_NELEMS {
                for stride in [1, 3] {
                    let span = (nelems - 1) * stride + 1;
                    let src = fold_src::<T>(pe, span);
                    let mut dest = vec![T::default(); span];
                    collectives::reduce_bitwise(pe, &mut dest, &src, nelems, stride, root, op);
                    if pe.rank() == root {
                        let what = format!("{name} {op:?} bitwise n={nelems} s={stride}");
                        check_rooted(&dest, bitwise_oracle::<T>(op), nelems, stride, &what);
                    }
                    pe.barrier();
                    pe.shared_free(src);
                }
            }
        }
    });
}

#[test]
fn fold_kernels_match_oracle_u8() {
    arithmetic_folds_match_oracle::<u8>("u8");
    bitwise_folds_match_oracle::<u8>("u8");
}

#[test]
fn fold_kernels_match_oracle_i32() {
    arithmetic_folds_match_oracle::<i32>("i32");
    bitwise_folds_match_oracle::<i32>("i32");
}

#[test]
fn fold_kernels_match_oracle_u64() {
    arithmetic_folds_match_oracle::<u64>("u64");
    bitwise_folds_match_oracle::<u64>("u64");
}

#[test]
fn fold_kernels_match_oracle_f64() {
    arithmetic_folds_match_oracle::<f64>("f64");
}

/// A fold step computes `f(mine, incoming)`, never the reverse: with the
/// non-commutative `3·d + w` on two PEs the root must read `3·a + b`,
/// where `a` is its own element and `b` its peer's — on the heap folds of
/// the tree and the private folds of the star, contiguous and strided,
/// under every sync mode.
#[test]
fn fold_operand_order_is_pinned() {
    Fabric::run(FabricConfig::paper(2), |pe| {
        let (nelems, me) = (33, pe.rank() as u64);
        for stride in [1, 3] {
            let span = (nelems - 1) * stride + 1;
            let src = pe.shared_malloc::<u64>(span);
            let vals: Vec<u64> = (0..span as u64).map(|i| 10 * i + me + 1).collect();
            pe.heap_write(src.whole(), &vals);
            pe.barrier();
            for policy in [AlgorithmPolicy::Binomial, AlgorithmPolicy::Linear] {
                for sync in SyncMode::CONCRETE {
                    let mut dest = vec![0u64; span];
                    collectives::reduce_with(
                        pe,
                        &mut dest,
                        &src,
                        nelems,
                        stride,
                        0,
                        |d, w| d.wrapping_mul(3).wrapping_add(w),
                        policy,
                        sync,
                    );
                    if pe.rank() == 0 {
                        for j in 0..nelems {
                            let i = (j * stride) as u64;
                            let (a, b) = (10 * i + 1, 10 * i + 2);
                            assert_eq!(
                                dest[j * stride],
                                3 * a + b,
                                "{policy:?} {sync:?} s={stride} j={j}"
                            );
                        }
                    }
                }
            }
            pe.barrier();
            pe.shared_free(src);
        }
    });
}

/// A bitwise operator through an arithmetic entry point names the entry
/// point that takes it, even for an integer type.
#[test]
#[should_panic(expected = "use reduce_bitwise")]
fn bitwise_op_on_arithmetic_entry_names_reduce_bitwise() {
    Fabric::run(FabricConfig::new(2), |pe| {
        let src = pe.shared_malloc::<u64>(1);
        let mut dest = [0u64];
        collectives::reduce_all_sync(
            pe,
            &mut dest,
            &src,
            1,
            ReduceOp::Xor,
            AllReduceAlgo::Auto,
            SyncMode::Auto,
        );
    });
}
