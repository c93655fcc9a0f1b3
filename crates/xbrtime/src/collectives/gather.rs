//! Gather — paper Algorithm 4.
//!
//! Symmetric to scatter "in the same manner that reduction is to broadcast":
//! each PE stages its contribution at its adjusted virtual-rank displacement,
//! the tree runs with recursive doubling and `get`s subtree aggregates
//! toward the root, and the root finally reorders the staging buffer back
//! into *logical*-rank order through `pe_disp`.
//!
//! As for scatter, one body (`gather_core`) serves the binomial, linear
//! and chain (`AlgorithmPolicy::Ring`) shapes and the irregular
//! [`gatherv`](crate::collectives::vcoll::gatherv).

use crate::collectives::call::{no_fold, Bufs, Call, CallKind};
use crate::collectives::plan;
use crate::collectives::policy::{AlgorithmPolicy, SyncMode};
use crate::collectives::schedule::{Payload, Row, Shape};
use crate::collectives::vrank::virtual_rank;
use crate::fabric::{CollectiveKind, Pe};
use crate::types::XbrType;

/// Gather `pe_msgs[r]` elements from every PE `r`'s `src` to the root:
/// PE `r`'s values land at `dest[pe_disp[r]]` on the root. `nelems` is the
/// total gathered count; `dest` is written only on the root.
///
/// # Panics
/// Panics on inconsistent counts/displacements or undersized buffers.
///
/// ```
/// use xbrtime::{collectives, Fabric, FabricConfig};
/// let report = Fabric::run(FabricConfig::new(2), |pe| {
///     let mine = vec![pe.rank() as u64 + 100];
///     let mut all = vec![0u64; 2];
///     collectives::gather(pe, &mut all, &mine, &[1, 1], &[0, 1], 2, 1);
///     pe.barrier();
///     all
/// });
/// assert_eq!(report.results[1], vec![100, 101]); // root is PE 1
/// ```
pub fn gather<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &[T],
    pe_msgs: &[usize],
    pe_disp: &[usize],
    nelems: usize,
    root: usize,
) {
    gather_policy_sync(
        pe,
        dest,
        src,
        pe_msgs,
        pe_disp,
        nelems,
        root,
        AlgorithmPolicy::Binomial,
        SyncMode::Barrier,
    );
}

/// [`gather`] under an explicit [`AlgorithmPolicy`] and executor
/// [`SyncMode`]: the paper's signature over the one counts-table body
/// ([`gatherv`](crate::collectives::vcoll::gatherv) is the same body with
/// the total inferred from the counts). `Auto` resolves through
/// [`AlgorithmPolicy::select`] on the total payload.
#[allow(clippy::too_many_arguments)]
pub fn gather_policy_sync<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &[T],
    pe_msgs: &[usize],
    pe_disp: &[usize],
    nelems: usize,
    root: usize,
    policy: AlgorithmPolicy,
    sync: SyncMode,
) {
    let total: usize = pe_msgs.iter().sum();
    assert_eq!(
        total, nelems,
        "pe_msgs sums to {total} but nelems is {nelems}"
    );
    let call = Call::table(CallKind::Gather(policy), root, pe_msgs, Some(pe_disp), sync);
    call.issue(pe, Bufs::local(dest, src), no_fold)
        .unwrap_or_else(|e| panic!("gather: {e}"));
}

/// The one gather body, over a validated, non-empty call's `row` — a
/// rooted row on the adjusted displacements of `pe_msgs`: every PE stages
/// its contribution at its virtual offset, the row runs, and the root
/// reorders the staging buffer back into logical order through `pe_disp`.
pub(crate) fn gather_core<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &[T],
    pe_msgs: &[usize],
    pe_disp: &[usize],
    row: &Row<'_>,
    sync: SyncMode,
) {
    let Shape::Rooted {
        root,
        payload: Payload::Ranges(adj_disp),
        ..
    } = row.shape
    else {
        panic!("gather runs a rooted count-table row");
    };
    let (n_pes, log_rank) = (pe.n_pes(), pe.rank());
    let (nelems, my_count) = (adj_disp[n_pes], pe_msgs[log_rank]);
    assert!(
        src.len() >= my_count,
        "src holds {} elements but this PE contributes {my_count}",
        src.len()
    );

    // Stage this PE's candidate gather data at its virtual offset.
    let s_buff = pe.shared_malloc::<T>(nelems);
    if my_count > 0 {
        let vir_rank = virtual_rank(log_rank, root, n_pes);
        pe.heap_write(s_buff.at(adj_disp[vir_rank]), &src[..my_count]);
    }
    pe.barrier();

    let family = CollectiveKind::Gather;
    let staged = s_buff.whole();
    plan::run_schedule(pe, row, family, staged, &[], &mut [], None, sync);

    // Root: reorder from virtual-rank staging order back to logical order.
    if log_rank == root {
        for l in 0..n_pes {
            let count = pe_msgs[l];
            if count > 0 {
                assert!(
                    dest.len() >= pe_disp[l] + count,
                    "dest holds {} elements but PE {l}'s segment ends at {}",
                    dest.len(),
                    pe_disp[l] + count
                );
                let v = virtual_rank(l, root, n_pes);
                pe.heap_read_strided(
                    s_buff.at(adj_disp[v]),
                    &mut dest[pe_disp[l]..pe_disp[l] + count],
                    count,
                    1,
                );
            }
        }
    }
    pe.barrier();
    pe.shared_free(s_buff);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricConfig};

    fn uniform(n_pes: usize, per: usize) -> (Vec<usize>, Vec<usize>) {
        let msgs = vec![per; n_pes];
        let disp = (0..n_pes).map(|r| r * per).collect();
        (msgs, disp)
    }

    fn check_gather(n_pes: usize, root: usize, msgs: Vec<usize>, disp: Vec<usize>) {
        let nelems: usize = msgs.iter().sum();
        let report = Fabric::run(FabricConfig::new(n_pes), |pe| {
            let mine = msgs[pe.rank()];
            // Each PE contributes rank*1000 + local index.
            let src: Vec<u64> = (0..mine as u64)
                .map(|j| pe.rank() as u64 * 1000 + j)
                .collect();
            let mut dest = vec![u64::MAX; nelems.max(1)];
            gather(pe, &mut dest, &src, &msgs, &disp, nelems, root);
            pe.barrier();
            dest
        });
        let got = &report.results[root];
        for r in 0..n_pes {
            for j in 0..msgs[r] {
                assert_eq!(
                    got[disp[r] + j],
                    r as u64 * 1000 + j as u64,
                    "n={n_pes} root={root} from_rank={r} elem={j}"
                );
            }
        }
        // Non-root dests untouched.
        for (rank, d) in report.results.iter().enumerate() {
            if rank != root && nelems > 0 {
                assert!(d.iter().all(|&v| v == u64::MAX), "rank {rank} clobbered");
            }
        }
    }

    #[test]
    fn uniform_all_pe_counts_and_roots() {
        for n in 1..=8 {
            for root in 0..n {
                let (msgs, disp) = uniform(n, 2);
                check_gather(n, root, msgs, disp);
            }
        }
    }

    #[test]
    fn paper_mirror_of_scatter_example() {
        let (msgs, disp) = uniform(7, 2);
        check_gather(7, 4, msgs, disp);
    }

    #[test]
    fn irregular_counts() {
        let msgs = vec![3, 0, 1, 2];
        let disp = vec![0, 3, 3, 4];
        check_gather(4, 0, msgs.clone(), disp.clone());
        check_gather(4, 3, msgs, disp);
    }

    #[test]
    fn sixteen_pes() {
        let (msgs, disp) = uniform(16, 4);
        check_gather(16, 13, msgs, disp);
    }

    #[test]
    fn scatter_then_gather_roundtrips() {
        // Scatter from root, then gather back: dest == original src.
        let n = 6;
        let (msgs, disp) = uniform(n, 3);
        let nelems = 18;
        let report = Fabric::run(FabricConfig::new(n), |pe| {
            let original: Vec<u64> = (0..nelems as u64).map(|i| i * 3 + 7).collect();
            let src: Vec<u64> = if pe.rank() == 2 {
                original.clone()
            } else {
                vec![]
            };
            let mut mine = vec![0u64; 3];
            crate::collectives::scatter::scatter(pe, &mut mine, &src, &msgs, &disp, nelems, 2);
            pe.barrier();
            let mut back = vec![0u64; nelems];
            gather(pe, &mut back, &mine, &msgs, &disp, nelems, 2);
            pe.barrier();
            (back, original)
        });
        let (back, original) = &report.results[2];
        assert_eq!(back, original);
    }

    #[test]
    fn gathers_into_displaced_dest_with_gaps() {
        let n = 3;
        let msgs = vec![1, 1, 1];
        let disp = vec![0, 2, 4]; // gaps in dest
        let report = Fabric::run(FabricConfig::new(n), |pe| {
            let src = vec![pe.rank() as u64 + 10];
            let mut dest = vec![0u64; 5];
            gather(pe, &mut dest, &src, &msgs, &disp, 3, 0);
            pe.barrier();
            dest
        });
        assert_eq!(report.results[0], vec![10, 0, 11, 0, 12]);
    }
}
