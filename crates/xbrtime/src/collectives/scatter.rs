//! Scatter — paper Algorithm 3.
//!
//! Distributes a *distinct* segment of the root's data to every PE, with
//! per-PE message counts (`pe_msgs`) and source displacements (`pe_disp`) —
//! a flexibility OpenSHMEM's collectives lack (paper §4.7).
//!
//! The key implementation detail (paper §4.5): with a non-zero-rank root the
//! per-PE segments of a combined message are not contiguous at `src`, and a
//! put cannot move non-contiguous data in one transfer. The root therefore
//! **reorders the values by virtual rank** into its shared staging buffer
//! before communication begins, which "guarantees that the data for each
//! tree node and its children is contiguous and ensures that a single put
//! is sufficient at each stage". An adjusted-displacement array keeps the
//! indexing straight.
//!
//! The staging is independent of the communication shape, so the module
//! has one body (`scatter_core`) under three shapes — the paper's
//! binomial tree, the root-sequential baseline and a chain
//! (`AlgorithmPolicy::Ring`) — and the irregular
//! [`scatterv`](crate::collectives::vcoll::scatterv) is the same body with
//! the total inferred from `pe_msgs`.

use crate::collectives::plan;
use crate::collectives::policy::{Algorithm, AlgorithmPolicy, SyncMode};
use crate::collectives::schedule::{Payload, Row, Shape};
use crate::collectives::vcoll::{validate_v_shape, VCountError};
use crate::collectives::vrank::{logical_rank, virtual_rank};
use crate::fabric::{CollectiveKind, Pe};
use crate::types::XbrType;

/// Prefix displacements in *virtual-rank* order: `adj_disp[v]` is where
/// virtual rank `v`'s segment begins in the reordered staging buffer, and
/// `adj_disp[n]` is the total element count.
///
/// Public because the conformance plane builds scatter/gather specs from
/// the same table the schedule generators consume.
pub fn adjusted_displacements(pe_msgs: &[usize], root: usize, n_pes: usize) -> Vec<usize> {
    let mut adj = Vec::with_capacity(n_pes + 1);
    let mut acc = 0usize;
    for v in 0..n_pes {
        adj.push(acc);
        acc += pe_msgs[logical_rank(v, root, n_pes)];
    }
    adj.push(acc);
    adj
}

/// Scatter `nelems` total elements from `root`'s `src` so that each PE `r`
/// receives `pe_msgs[r]` elements into `dest`; on the root, PE `r`'s
/// segment starts at `src[pe_disp[r]]`.
///
/// `src` is read only on the root (pass `&[]` elsewhere). `dest` must hold
/// at least `pe_msgs[rank]` elements on every PE.
///
/// # Panics
/// Panics on inconsistent counts/displacements or an undersized buffer.
///
/// ```
/// use xbrtime::{collectives, Fabric, FabricConfig};
/// let report = Fabric::run(FabricConfig::new(2), |pe| {
///     // PE 0 gets 1 element, PE 1 gets 2.
///     let src = if pe.rank() == 0 { vec![10u64, 20, 21] } else { vec![] };
///     let mut mine = vec![0u64; 2];
///     collectives::scatter(pe, &mut mine, &src, &[1, 2], &[0, 1], 3, 0);
///     pe.barrier();
///     mine
/// });
/// assert_eq!(report.results[0][0], 10);
/// assert_eq!(report.results[1], vec![20, 21]);
/// ```
pub fn scatter<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &[T],
    pe_msgs: &[usize],
    pe_disp: &[usize],
    nelems: usize,
    root: usize,
) {
    scatter_policy_sync(
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

/// [`scatter`] under an explicit [`AlgorithmPolicy`] and executor
/// [`SyncMode`]: the paper's signature over the one counts-table body
/// ([`scatterv`](crate::collectives::vcoll::scatterv) is the same body
/// with the total inferred from the counts), so `pe_msgs`/`pe_disp`
/// semantics are identical across shapes. `Auto` resolves through
/// [`AlgorithmPolicy::select`] on the total payload.
#[allow(clippy::too_many_arguments)]
pub fn scatter_policy_sync<T: XbrType>(
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
    let nbytes = nelems * std::mem::size_of::<T>();
    let algo = policy.select(CollectiveKind::Scatter, pe.n_pes(), nbytes);
    scatter_core(pe, dest, src, pe_msgs, pe_disp, root, algo, sync)
        .unwrap_or_else(|e| panic!("scatter: {e}"));
}

/// The one scatter body, under an already-resolved algorithm. A malformed
/// count vector is rejected before any allocation, barrier or signal-slot
/// activity, and a zero-total scatter is fully inert (telemetry only).
#[allow(clippy::too_many_arguments)]
pub(crate) fn scatter_core<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &[T],
    pe_msgs: &[usize],
    pe_disp: &[usize],
    root: usize,
    algo: Algorithm,
    sync: SyncMode,
) -> Result<(), VCountError> {
    let n_pes = pe.n_pes();
    let log_rank = pe.rank();
    validate_v_shape(n_pes, root, pe_msgs, Some(pe_disp))?;
    let nelems: usize = pe_msgs.iter().sum();
    let my_count = pe_msgs[log_rank];
    assert!(
        dest.len() >= my_count,
        "dest holds {} elements but this PE receives {my_count}",
        dest.len()
    );
    if nelems == 0 {
        plan::note_inert(pe, CollectiveKind::Scatter);
        return Ok(());
    }

    let adj_disp = adjusted_displacements(pe_msgs, root, n_pes);
    let s_buff = pe.shared_malloc::<T>(nelems);
    // Root: reorder src by virtual rank into the staging buffer
    // (adj_disp's trailing entry is the total, not a displacement).
    if log_rank == root {
        for (v, &disp) in adj_disp.iter().take(n_pes).enumerate() {
            let l = logical_rank(v, root, n_pes);
            let count = pe_msgs[l];
            if count > 0 {
                assert!(
                    src.len() >= pe_disp[l] + count,
                    "src holds {} elements but PE {l}'s segment ends at {}",
                    src.len(),
                    pe_disp[l] + count
                );
                pe.heap_write(s_buff.at(disp), &src[pe_disp[l]..pe_disp[l] + count]);
            }
        }
    }
    pe.barrier();

    let family = CollectiveKind::Scatter;
    let row = Row {
        shape: Shape::Rooted {
            family,
            algo,
            root,
            payload: Payload::Ranges(&adj_disp),
        },
        members: None,
        world: n_pes,
    };
    let staged = s_buff.whole();
    plan::run_schedule(pe, &row, family, staged, &[], &mut [], None, sync);

    // Relocate this PE's assigned values from the staging buffer to dest.
    if my_count > 0 {
        let vir_rank = virtual_rank(log_rank, root, n_pes);
        pe.heap_read_strided(
            s_buff.at(adj_disp[vir_rank]),
            &mut dest[..my_count],
            my_count,
            1,
        );
    }
    pe.barrier();
    pe.shared_free(s_buff);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricConfig};

    /// Uniform counts helper.
    fn uniform(n_pes: usize, per: usize) -> (Vec<usize>, Vec<usize>) {
        let msgs = vec![per; n_pes];
        let disp = (0..n_pes).map(|r| r * per).collect();
        (msgs, disp)
    }

    fn check_scatter(n_pes: usize, root: usize, msgs: Vec<usize>, disp: Vec<usize>) {
        let nelems: usize = msgs.iter().sum();
        let report = Fabric::run(FabricConfig::new(n_pes), |pe| {
            let src: Vec<u64> = if pe.rank() == root {
                (0..nelems as u64).map(|i| i + 500).collect()
            } else {
                vec![]
            };
            let mut dest = vec![0u64; msgs[pe.rank()].max(1)];
            scatter(pe, &mut dest, &src, &msgs, &disp, nelems, root);
            pe.barrier();
            dest
        });
        for (rank, got) in report.results.iter().enumerate() {
            for (j, &g) in got.iter().take(msgs[rank]).enumerate() {
                assert_eq!(
                    g,
                    (disp[rank] + j) as u64 + 500,
                    "n={n_pes} root={root} rank={rank} elem={j}"
                );
            }
        }
    }

    #[test]
    fn uniform_all_pe_counts_and_roots() {
        for n in 1..=8 {
            for root in 0..n {
                let (msgs, disp) = uniform(n, 3);
                check_scatter(n, root, msgs, disp);
            }
        }
    }

    #[test]
    fn paper_example_seven_pes_root_four() {
        // The exact configuration the paper walks through in §4.5.
        let (msgs, disp) = uniform(7, 2);
        check_scatter(7, 4, msgs, disp);
    }

    #[test]
    fn irregular_counts() {
        // Distinct number of elements per PE — the feature pe_msgs exists for.
        let msgs = vec![1, 0, 4, 2];
        let disp = vec![0, 1, 1, 5];
        check_scatter(4, 0, msgs.clone(), disp.clone());
        check_scatter(4, 2, msgs, disp);
    }

    #[test]
    fn irregular_with_gaps_in_src() {
        // pe_disp need not be dense: leave holes in src.
        let n = 3;
        let msgs = vec![2, 2, 2];
        let disp = vec![0, 4, 8]; // gaps at src[2..4] and src[6..8]
        let nelems = 6;
        let report = Fabric::run(FabricConfig::new(n), |pe| {
            let src: Vec<u64> = if pe.rank() == 1 {
                (0..10).collect()
            } else {
                vec![]
            };
            let mut dest = vec![0u64; 2];
            scatter(pe, &mut dest, &src, &msgs, &disp, nelems, 1);
            pe.barrier();
            dest
        });
        assert_eq!(report.results[0], vec![0, 1]);
        assert_eq!(report.results[1], vec![4, 5]);
        assert_eq!(report.results[2], vec![8, 9]);
    }

    #[test]
    fn sixteen_pes() {
        let (msgs, disp) = uniform(16, 5);
        check_scatter(16, 7, msgs, disp);
    }

    #[test]
    #[should_panic(expected = "pe_msgs sums to")]
    fn count_mismatch_rejected() {
        Fabric::run(FabricConfig::new(2), |pe| {
            let mut d = [0u32; 1];
            scatter(pe, &mut d, &[1, 2], &[1, 1], &[0, 1], 3, 0);
        });
    }

    #[test]
    fn adjusted_displacements_rotate_with_root() {
        // 7 PEs, root 4, uniform 2 elements: virtual order is logical
        // 4,5,6,0,1,2,3 → displacements are just 0,2,4,…,12 in that order.
        let adj = adjusted_displacements(&[2; 7], 4, 7);
        assert_eq!(adj, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        // Irregular: logical msgs [1,2,3], root 1 → virtual order 1,2,0.
        let adj = adjusted_displacements(&[1, 2, 3], 1, 3);
        assert_eq!(adj, vec![0, 2, 5, 6]);
    }
}
