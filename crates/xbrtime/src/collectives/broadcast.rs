//! Broadcast — paper Algorithm 1.
//!
//! Root-to-all dissemination over a binomial tree with recursive halving:
//! the loop index starts at `⌈log2 n⌉ − 1` and decrements, so the mask
//! isolates virtual-rank bits left-to-right and each stage doubles the set
//! of PEs holding the data while halving the distance between partners.
//! A barrier closes every stage (paper: *"While not shown in Algorithm 1, a
//! barrier operation takes place at the end of each loop iteration"*).
//!
//! The paper's §4.7 compares the tree against OpenSHMEM's collectives;
//! since those do not exist here, the comparators are the two shapes a
//! flat runtime would use — **linear** (the root puts to every peer in one
//! stage) and **ring** (the payload hops neighbour to neighbour for
//! `N − 1` stages). Both are the same body under a different schedule
//! generator, selected through [`broadcast_policy_sync`].

use crate::collectives::plan;
use crate::collectives::policy::{auto_select_broadcast_sync, AlgorithmPolicy, SyncMode};
use crate::collectives::schedule::{Payload, Row, Shape};
use crate::fabric::{CollectiveKind, Pe, SymmAlloc};
use crate::types::XbrType;

/// Broadcast `nelems` elements (at element `stride`, applied to both `src`
/// and `dest`) from `root`'s `src` into every PE's symmetric `dest` — the
/// paper's signature: binomial tree, a barrier after every stage.
///
/// `src` is read only on the root and need not be symmetric (paper §4.3:
/// *"src is a pointer to the (not-necessarily shared) address for these
/// values on the root pe"*). On return every PE's `dest` holds the values
/// at positions `0, stride, 2·stride, …`.
///
/// # Panics
/// Panics if `dest` cannot hold the strided span, if `root ≥ n_pes`, or —
/// on the root — if `src` is shorter than the strided span.
///
/// ```
/// use xbrtime::{collectives, Fabric, FabricConfig};
/// let report = Fabric::run(FabricConfig::new(4), |pe| {
///     let dest = pe.shared_malloc::<u64>(3);
///     collectives::broadcast(pe, &dest, &[7, 8, 9], 3, 1, 2);
///     pe.barrier();
///     pe.heap_read_vec::<u64>(dest.whole(), 3)
/// });
/// assert!(report.results.iter().all(|v| v == &vec![7, 8, 9]));
/// ```
pub fn broadcast<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    stride: usize,
    root: usize,
) {
    let (tree, barriers) = (AlgorithmPolicy::Binomial, SyncMode::Barrier);
    broadcast_policy_sync(pe, dest, src, nelems, stride, root, tree, barriers);
}

/// [`broadcast`] under an explicit [`AlgorithmPolicy`] and executor
/// [`SyncMode`]. `Auto` selects the algorithm *jointly* with the resolved
/// sync mode: a pipelined executor makes the chain (ring) shape the
/// bandwidth winner for large payloads (see
/// [`auto_select_broadcast_sync`]).
#[allow(clippy::too_many_arguments)]
pub fn broadcast_policy_sync<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    stride: usize,
    root: usize,
    policy: AlgorithmPolicy,
    sync: SyncMode,
) {
    broadcast_on(pe, dest, src, nelems, stride, root, None, policy, sync);
}

/// [`broadcast_policy_sync`] over `members` (`root` is a position in the
/// list; everyone else appears in no op) or, without a list, the world.
#[allow(clippy::too_many_arguments)]
pub(crate) fn broadcast_on<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    stride: usize,
    root: usize,
    members: Option<&[usize]>,
    policy: AlgorithmPolicy,
    sync: SyncMode,
) {
    let family = CollectiveKind::Broadcast;
    let n = members.map_or(pe.n_pes(), <[usize]>::len);
    let nbytes = nelems * std::mem::size_of::<T>();
    // For broadcast every schedule op carries the full payload, so
    // resolving from `nbytes` here matches the executor's own
    // max-op-bytes resolution exactly.
    let resolved = sync.resolve(n, nbytes);
    let algo = match policy {
        AlgorithmPolicy::Auto => auto_select_broadcast_sync(n, nbytes, resolved),
        _ => policy.select(family, n, nbytes),
    };
    let row = Row {
        shape: Shape::Rooted {
            family,
            algo,
            root,
            payload: Payload::Whole { nelems, stride },
        },
        members,
        world: pe.n_pes(),
    };
    // The *original* mode goes to the executor: it re-resolves `Auto`
    // with the schedule in hand (falling back to plain barriers for
    // single-stage shapes), which `resolved` above cannot know about.
    broadcast_core(pe, dest, src, &row, sync);
}

/// The one blocking broadcast body: the one stage-in, then `row` — the
/// flat trees, a team's, the two-tier hierarchy. A zero-length broadcast
/// is fully inert (telemetry only).
pub(crate) fn broadcast_core<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    row: &Row<'_>,
    sync: SyncMode,
) {
    row.check();
    let kind = CollectiveKind::Broadcast;
    let plan = || plan::plan_for(pe, row, kind, sync, std::mem::size_of::<T>());
    plan::issue_broadcast(pe, kind, dest, src, row.rooted_whole(), plan, false).wait(pe);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricConfig};

    fn check_broadcast(n_pes: usize, root: usize, nelems: usize, stride: usize) {
        let report = Fabric::run(FabricConfig::new(n_pes), |pe| {
            let span = if nelems == 0 {
                1
            } else {
                (nelems - 1) * stride + 1
            };
            let dest = pe.shared_malloc::<u64>(span);
            // Poison dest so stale values are detectable.
            pe.heap_write(dest.whole(), &vec![u64::MAX; span]);
            pe.barrier();
            let src: Vec<u64> = (0..span as u64).map(|i| i * 7 + 1).collect();
            broadcast(pe, &dest, &src, nelems, stride, root);
            pe.barrier();
            pe.heap_read_vec(dest.whole(), span)
        });
        for (rank, got) in report.results.iter().enumerate() {
            for j in 0..nelems {
                assert_eq!(
                    got[j * stride],
                    (j * stride) as u64 * 7 + 1,
                    "n={n_pes} root={root} rank={rank} elem={j}"
                );
            }
        }
    }

    #[test]
    fn all_pe_counts_and_roots() {
        for n in 1..=9 {
            for root in 0..n {
                check_broadcast(n, root, 5, 1);
            }
        }
    }

    #[test]
    fn power_of_two_and_larger() {
        check_broadcast(8, 3, 64, 1);
        check_broadcast(16, 11, 17, 1);
    }

    #[test]
    fn strided_broadcast() {
        check_broadcast(4, 1, 4, 3);
        check_broadcast(7, 6, 3, 2);
    }

    #[test]
    fn single_element() {
        check_broadcast(5, 2, 1, 1);
    }

    #[test]
    fn zero_elements_is_noop() {
        let report = Fabric::run(FabricConfig::new(3), |pe| {
            let dest = pe.shared_malloc::<u64>(1);
            pe.heap_store(dest.whole(), 42);
            pe.barrier();
            broadcast(pe, &dest, &[], 0, 1, 0);
            pe.barrier();
            pe.heap_load(dest.whole())
        });
        assert_eq!(report.results, vec![42, 42, 42]);
    }

    #[test]
    fn uses_log_rounds_of_puts() {
        // 8 PEs: a binomial broadcast issues exactly n-1 = 7 puts in
        // ceil(log2 8) = 3 stages; a linear one would also use 7 puts but
        // from a single PE — the tree's signature is that puts are spread.
        let report = Fabric::run(FabricConfig::new(8), |pe| {
            let dest = pe.shared_malloc::<u64>(4);
            broadcast(pe, &dest, &[1, 2, 3, 4], 4, 1, 0);
            pe.barrier();
        });
        assert_eq!(report.stats.puts, 7);
        // 3 stage barriers per PE + the trailing explicit one.
        assert_eq!(report.stats.barriers, 4);
        // The same counts surface as per-collective telemetry.
        let rec = report.collective(CollectiveKind::Broadcast).unwrap();
        assert_eq!(rec.calls, 1);
        assert_eq!(rec.puts, 7);
        assert_eq!(rec.bytes_put, 7 * 4 * 8);
        assert_eq!(rec.stages, 3);
    }

    #[test]
    fn linear_uses_more_sequential_root_traffic_than_tree() {
        // Timing sanity: with the paper cost model and a serialised root,
        // linear broadcast's makespan should exceed the tree's for 8 PEs.
        let msg = 4096usize;
        let run = |policy| {
            let report = Fabric::run(FabricConfig::paper(8), move |pe| {
                let d = pe.shared_malloc::<u64>(msg);
                let src = vec![7u64; msg];
                broadcast_policy_sync(pe, &d, &src, msg, 1, 0, policy, SyncMode::Barrier);
                pe.cycles()
            });
            report.makespan_cycles()
        };
        let tree_cycles = run(AlgorithmPolicy::Binomial);
        let linear_cycles = run(AlgorithmPolicy::Linear);
        assert!(
            linear_cycles > tree_cycles,
            "linear {linear_cycles} should exceed tree {tree_cycles} at 8 PEs"
        );
    }
}
