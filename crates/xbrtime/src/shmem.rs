//! OpenSHMEM-style compatibility veneer (the §4.7 comparison surface).
//!
//! Paper §4.7 contrasts the xBGAS library with the OpenSHMEM 1.4 API on
//! several axes; this module implements the OpenSHMEM side of each
//! contrast over the same runtime, so the differences can be exercised
//! and benchmarked rather than just described:
//!
//! * **Size-based naming** — OpenSHMEM distinguishes collectives "by the
//!   underlying data type size" (`broadcast32`/`broadcast64`), where the
//!   xBGAS library names every type explicitly ([`crate::typed`]).
//! * **Active sets** — OpenSHMEM collectives operate over
//!   `(PE_start, logPE_stride, PE_size)` triples; xBGAS's initial library
//!   is world-only (teams are its future work). A set is a member list:
//!   the broadcasts here are the one broadcast body on a row that carries
//!   `active.members()`, so a strided subset honours the caller's
//!   algorithm policy and sync mode exactly as the world does.
//! * **Root exclusion** — OpenSHMEM's broadcast does *not* copy the data
//!   into the root's own `dest`; the xBGAS broadcast does. Faithfully
//!   reproduced (and tested) here because it is exactly the kind of
//!   semantic wart the paper's "more intuitive" argument is about.
//! * **`to_all` reductions, `collect`/`fcollect`** — results arrive on
//!   every PE of the active set, where the xBGAS reduction is rooted
//!   (paper: the distributed result "must instead be accomplished through
//!   the use of a broadcast operation following the original call").
//! * **No stride support** — the OpenSHMEM collectives here take no
//!   element stride, matching the paper's observation that "the
//!   OpenSHMEM model does not support a non-default stride size".

use crate::collectives::broadcast::broadcast_on;
use crate::collectives::extended::Team;
use crate::collectives::{AlgorithmPolicy, CollHandle, SyncMode};
use crate::fabric::{Pe, SymmAlloc, SymmRef};
use crate::types::{with_combiner, XbrNumeric, XbrType};

/// An OpenSHMEM active set: `PE_start`, `logPE_stride`, `PE_size`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActiveSet {
    /// First PE in the set.
    pub pe_start: usize,
    /// log2 of the stride between consecutive member PEs.
    pub log_pe_stride: u32,
    /// Number of PEs in the set.
    pub pe_size: usize,
}

impl ActiveSet {
    /// The active set covering all `n_pes` PEs.
    pub const fn world(n_pes: usize) -> Self {
        ActiveSet {
            pe_start: 0,
            log_pe_stride: 0,
            pe_size: n_pes,
        }
    }

    /// Member global ranks, in set order.
    pub fn members(&self) -> Vec<usize> {
        (0..self.pe_size)
            .map(|i| self.pe_start + (i << self.log_pe_stride))
            .collect()
    }

    /// Translate to a [`Team`].
    ///
    /// # Panics
    /// Panics if the set is empty.
    pub fn team(&self) -> Team {
        Team::new(self.members())
    }

    /// Whether this set covers exactly the whole `n_pes`-PE world (the
    /// common case, where `collect` can go through the v-collective
    /// engine and a broadcast can be issued nonblocking).
    pub fn is_world(&self, n_pes: usize) -> bool {
        self.pe_start == 0 && self.log_pe_stride == 0 && self.pe_size == n_pes
    }

    /// Set-rank of a global rank, if it is a member.
    pub fn set_rank(&self, global: usize) -> Option<usize> {
        if global < self.pe_start {
            return None;
        }
        let delta = global - self.pe_start;
        let stride = 1usize << self.log_pe_stride;
        if delta.is_multiple_of(stride) && delta / stride < self.pe_size {
            Some(delta / stride)
        } else {
            None
        }
    }
}

fn assert_elem_size<T>(bits: usize, call: &str) {
    assert_eq!(
        std::mem::size_of::<T>() * 8,
        bits,
        "{call} requires a {bits}-bit element type (OpenSHMEM names \
         collectives by size, not type — see paper §4.7)"
    );
}

/// `shmem_broadcast64`: broadcast 64-bit elements from the set-relative
/// `pe_root` over the active set.
///
/// OpenSHMEM semantics, faithfully including the quirk that the **root's
/// own `dest` is not written** — only non-root members receive.
pub fn broadcast64<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    pe_root: usize,
    active: &ActiveSet,
) {
    broadcast64_sync(
        pe,
        dest,
        src,
        nelems,
        pe_root,
        active,
        AlgorithmPolicy::Binomial,
        SyncMode::Barrier,
    );
}

/// `shmem_broadcast32`: 32-bit variant of [`broadcast64`].
pub fn broadcast32<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    pe_root: usize,
    active: &ActiveSet,
) {
    broadcast32_sync(
        pe,
        dest,
        src,
        nelems,
        pe_root,
        active,
        AlgorithmPolicy::Binomial,
        SyncMode::Barrier,
    );
}

/// [`broadcast64`] under an explicit [`AlgorithmPolicy`] and executor
/// [`SyncMode`]: the one broadcast body over the active set's members,
/// whether they are the world or a proper subset of it.
#[allow(clippy::too_many_arguments)]
pub fn broadcast64_sync<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    pe_root: usize,
    active: &ActiveSet,
    policy: AlgorithmPolicy,
    sync: SyncMode,
) {
    assert_elem_size::<T>(64, "shmem_broadcast64");
    shmem_broadcast_sync(pe, dest, src, nelems, pe_root, active, policy, sync);
}

/// 32-bit variant of [`broadcast64_sync`].
#[allow(clippy::too_many_arguments)]
pub fn broadcast32_sync<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    pe_root: usize,
    active: &ActiveSet,
    policy: AlgorithmPolicy,
    sync: SyncMode,
) {
    assert_elem_size::<T>(32, "shmem_broadcast32");
    shmem_broadcast_sync(pe, dest, src, nelems, pe_root, active, policy, sync);
}

#[allow(clippy::too_many_arguments)]
fn shmem_broadcast_sync<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    pe_root: usize,
    active: &ActiveSet,
    policy: AlgorithmPolicy,
    sync: SyncMode,
) {
    let members = active.members();
    assert!(pe_root < members.len(), "pe_root outside the active set");
    // Preserve the root's dest across the broadcast (which writes it),
    // restoring it afterwards to honour the OpenSHMEM root-exclusion rule.
    let root_is_me = pe.rank() == members[pe_root];
    let span = nelems.max(1).min(dest.len());
    let saved: Vec<T> = if root_is_me && nelems > 0 {
        pe.heap_read_vec(dest.whole(), span)
    } else {
        Vec::new()
    };
    let set = Some(&members[..]);
    broadcast_on(pe, dest, src, nelems, 1, pe_root, set, policy, sync);
    pe.barrier();
    if root_is_me && nelems > 0 {
        pe.heap_write(dest.whole(), &saved);
    }
    pe.barrier();
}

/// In-flight nonblocking SHMEM broadcast returned by [`broadcast64_nbi`].
///
/// The root's `dest` doubles as the communication buffer while the episode
/// is in flight, so OpenSHMEM's root-exclusion quirk cannot hold mid-air;
/// it is restored at [`wait`](BcastNbiHandle::wait) time instead.
#[must_use = "a nonblocking SHMEM broadcast must be completed with wait()"]
pub struct BcastNbiHandle<'a, T: XbrType> {
    inner: CollHandle<'a, T>,
    dest: SymmRef<T>,
    saved: Vec<T>,
}

impl<T: XbrType> BcastNbiHandle<'_, T> {
    /// Nonblocking poll: has the in-flight portion completed?
    pub fn test(&self, pe: &Pe) -> bool {
        self.inner.test(pe)
    }

    /// Complete the broadcast, then restore the root's `dest` to honour
    /// the OpenSHMEM root-exclusion rule (safe here: the plan's own
    /// completion barrier has quiesced every peer's reads of the root
    /// buffer by the time `wait` returns control).
    pub fn wait(self, pe: &Pe) {
        self.inner.wait(pe);
        if !self.saved.is_empty() {
            pe.heap_write(self.dest, &self.saved);
        }
        pe.barrier();
    }
}

/// `shmem_broadcast64_nbi`-style nonblocking broadcast over the **world**
/// active set: issues immediately and returns a handle to overlap with
/// local work; complete with [`BcastNbiHandle::wait`].
///
/// # Panics
/// Panics if `active` is not the full world (nonblocking issue is keyed
/// on world-spanning compiled plans) or on a non-64-bit element type.
pub fn broadcast64_nbi<'a, T: XbrType>(
    pe: &'a Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    pe_root: usize,
    active: &ActiveSet,
) -> BcastNbiHandle<'a, T> {
    assert_elem_size::<T>(64, "shmem_broadcast64_nbi");
    assert!(
        active.is_world(pe.n_pes()),
        "shmem_broadcast64_nbi requires the world active set"
    );
    assert!(pe_root < pe.n_pes(), "pe_root outside the active set");
    let root_is_me = pe.rank() == pe_root;
    let span = nelems.min(dest.len());
    let saved: Vec<T> = if root_is_me && span > 0 {
        pe.heap_read_vec(dest.whole(), span)
    } else {
        Vec::new()
    };
    let inner = crate::collectives::ixbroadcast(pe, dest, src, nelems, pe_root, SyncMode::Auto);
    BcastNbiHandle {
        inner,
        dest: dest.whole(),
        saved,
    }
}

/// `shmem_TYPE_sum_to_all`-style reduction: the combined result lands in
/// `dest` on **every** member of the active set (paper §4.7: OpenSHMEM
/// results "are automatically distributed to each PE").
pub fn to_all<T: XbrNumeric>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &SymmAlloc<T>,
    nreduce: usize,
    op: crate::types::ReduceOp,
    active: &ActiveSet,
) {
    with_combiner!(op, |f: T| to_all_with(pe, dest, src, nreduce, f, active));
}

/// [`to_all`] with an arbitrary combiner.
pub fn to_all_with<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &SymmAlloc<T>,
    nreduce: usize,
    f: impl Fn(T, T) -> T + Copy,
    active: &ActiveSet,
) {
    let team = active.team();
    let mut result = vec![T::default(); nreduce.max(1)];
    team.reduce_all(pe, &mut result, src, nreduce, f, SyncMode::Barrier);
    if active.set_rank(pe.rank()).is_some() && nreduce > 0 {
        pe.heap_write(dest.whole(), &result[..nreduce]);
    }
    pe.barrier();
}

/// `shmem_fcollect64`: every member contributes exactly `nelems` elements;
/// every member's `dest` receives the set-rank-ordered concatenation.
pub fn fcollect64<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    active: &ActiveSet,
) {
    assert_elem_size::<T>(64, "shmem_fcollect64");
    let counts = vec![nelems; active.pe_size];
    collect_impl(pe, dest, src, &counts, active);
}

/// `shmem_collect64`: like [`fcollect64`] but each member contributes its
/// own `nelems` (which must match the caller's position in `counts` as
/// exchanged internally).
pub fn collect64<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    active: &ActiveSet,
) {
    assert_elem_size::<T>(64, "shmem_collect64");
    // Exchange per-member counts first (the "variable" part of collect).
    let counts_sym = pe.shared_malloc::<u64>(active.pe_size);
    if let Some(sr) = active.set_rank(pe.rank()) {
        for &peer in &active.members() {
            pe.put(counts_sym.at(sr), &[nelems as u64], 1, 1, peer);
        }
    }
    pe.barrier();
    let counts: Vec<usize> = pe
        .heap_read_vec::<u64>(counts_sym.whole(), active.pe_size)
        .iter()
        .map(|&c| c as usize)
        .collect();
    pe.barrier();
    pe.shared_free(counts_sym);
    collect_impl(pe, dest, src, &counts, active);
}

fn collect_impl<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    counts: &[usize],
    active: &ActiveSet,
) {
    let total: usize = counts.iter().sum();
    // World sets route through the v-collective engine: the skew/size
    // crossovers pick log-stage dissemination, ring, or fan instead of
    // the unconditional n² put fan below (which stays for strided
    // subsets, where board offsets and set ranks diverge from the
    // world's).
    if active.is_world(pe.n_pes()) && total > 0 {
        let me = pe.rank();
        assert!(src.len() >= counts[me], "src shorter than contribution");
        assert!(dest.len() >= total, "dest shorter than total collect size");
        let mut out = vec![T::default(); total];
        crate::collectives::vcoll::try_allgatherv_algo_sync(
            pe,
            &mut out,
            &src[..counts[me]],
            counts,
            crate::collectives::vcoll::AllGatherVAlgo::Auto,
            SyncMode::Auto,
        )
        .expect("collect counts match the world by construction");
        pe.heap_write(dest.at(0), &out);
        pe.barrier();
        return;
    }
    if let Some(sr) = active.set_rank(pe.rank()) {
        assert!(src.len() >= counts[sr], "src shorter than contribution");
        assert!(dest.len() >= total, "dest shorter than total collect size");
        let offset: usize = counts[..sr].iter().sum();
        if counts[sr] > 0 {
            for &peer in &active.members() {
                pe.put(dest.at(offset), &src[..counts[sr]], counts[sr], 1, peer);
            }
        }
    }
    pe.barrier();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::broadcast;
    use crate::fabric::{CollectiveKind, Fabric, FabricConfig};
    use crate::types::ReduceOp;

    #[test]
    fn active_set_membership() {
        // PEs 1, 3, 5, 7: start 1, stride 2^1, size 4.
        let set = ActiveSet {
            pe_start: 1,
            log_pe_stride: 1,
            pe_size: 4,
        };
        assert_eq!(set.members(), vec![1, 3, 5, 7]);
        assert_eq!(set.set_rank(3), Some(1));
        assert_eq!(set.set_rank(2), None);
        assert_eq!(set.set_rank(9), None);
        assert_eq!(set.set_rank(0), None);
        assert_eq!(ActiveSet::world(4).members(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn shmem_broadcast_excludes_root_dest() {
        let report = Fabric::run(FabricConfig::new(4), |pe| {
            let dest = pe.shared_malloc::<u64>(2);
            pe.heap_write(dest.whole(), &[111, 222]); // sentinel
            pe.barrier();
            broadcast64(pe, &dest, &[5, 6], 2, 1, &ActiveSet::world(4));
            pe.barrier();
            pe.heap_read_vec::<u64>(dest.whole(), 2)
        });
        // Root (world set-rank 1 = global 1) keeps its sentinel — the
        // OpenSHMEM quirk.
        assert_eq!(report.results[1], vec![111, 222]);
        for rank in [0usize, 2, 3] {
            assert_eq!(report.results[rank], vec![5, 6], "rank {rank}");
        }
    }

    #[test]
    fn xbgas_broadcast_includes_root_unlike_shmem() {
        // The §4.7 contrast in executable form.
        let report = Fabric::run(FabricConfig::new(3), |pe| {
            let xb = pe.shared_malloc::<u64>(1);
            let sh = pe.shared_malloc::<u64>(1);
            pe.heap_store(xb.whole(), 9);
            pe.heap_store(sh.whole(), 9);
            pe.barrier();
            broadcast(pe, &xb, &[1], 1, 1, 0);
            broadcast64(pe, &sh, &[1], 1, 0, &ActiveSet::world(3));
            pe.barrier();
            (pe.heap_load(xb.whole()), pe.heap_load(sh.whole()))
        });
        assert_eq!(report.results[0], (1, 9)); // xBGAS writes root; SHMEM doesn't
        assert_eq!(report.results[1], (1, 1));
    }

    #[test]
    fn policy_broadcast_keeps_shmem_semantics() {
        // Root exclusion must survive every algorithm the policy can pick.
        for policy in [
            AlgorithmPolicy::Binomial,
            AlgorithmPolicy::Linear,
            AlgorithmPolicy::Ring,
            AlgorithmPolicy::Auto,
        ] {
            let report = Fabric::run(FabricConfig::new(4), move |pe| {
                let dest = pe.shared_malloc::<u64>(2);
                pe.heap_write(dest.whole(), &[111, 222]); // sentinel
                pe.barrier();
                let (world, sync) = (ActiveSet::world(4), SyncMode::Barrier);
                broadcast64_sync(pe, &dest, &[5, 6], 2, 1, &world, policy, sync);
                pe.barrier();
                pe.heap_read_vec::<u64>(dest.whole(), 2)
            });
            assert_eq!(report.results[1], vec![111, 222], "{policy:?}");
            for rank in [0usize, 2, 3] {
                assert_eq!(report.results[rank], vec![5, 6], "{policy:?} rank {rank}");
            }
        }
    }

    /// A proper-subset active set gets the algorithm and the executor
    /// discipline it asks for — it used to run the binomial tree under
    /// per-stage barriers whatever the caller said.
    #[test]
    fn strided_set_broadcast_honours_policy_and_sync() {
        // PEs 1, 3, 5 of 8; the root is set-rank 1, PE 3.
        let set = ActiveSet {
            pe_start: 1,
            log_pe_stride: 1,
            pe_size: 3,
        };
        for policy in [
            AlgorithmPolicy::Binomial,
            AlgorithmPolicy::Linear,
            AlgorithmPolicy::Ring,
        ] {
            for sync in SyncMode::CONCRETE {
                let report = Fabric::run(FabricConfig::new(8), move |pe| {
                    let dest = pe.shared_malloc::<u64>(2);
                    pe.heap_write(dest.whole(), &[111, 222]); // sentinel
                    pe.barrier();
                    broadcast64_sync(pe, &dest, &[5, 6], 2, 1, &set, policy, sync);
                    pe.barrier();
                    pe.heap_read_vec::<u64>(dest.whole(), 2)
                });
                for (rank, got) in report.results.iter().enumerate() {
                    let delivered = rank == 1 || rank == 5;
                    let expect = if delivered { [5, 6] } else { [111, 222] };
                    assert_eq!(got, &expect, "{policy:?} {sync:?} rank {rank}");
                }
                let rec = report.collective(CollectiveKind::Broadcast).unwrap();
                let asked = format!("{policy:?}").to_lowercase();
                assert_eq!(rec.algorithms(), [asked], "{policy:?} {sync:?}");
                assert_eq!(rec.sync_modes(), [sync.name()], "{policy:?} {sync:?}");
            }
        }
    }

    #[test]
    fn to_all_lands_on_every_member() {
        let report = Fabric::run(FabricConfig::new(6), |pe| {
            let src = pe.shared_malloc::<i64>(2);
            let dest = pe.shared_malloc::<i64>(2);
            pe.heap_write(src.whole(), &[pe.rank() as i64, 1]);
            pe.heap_write(dest.whole(), &[-1, -1]);
            pe.barrier();
            // Active set: even PEs only.
            let set = ActiveSet {
                pe_start: 0,
                log_pe_stride: 1,
                pe_size: 3,
            };
            to_all(pe, &dest, &src, 2, ReduceOp::Sum, &set);
            pe.barrier();
            pe.heap_read_vec::<i64>(dest.whole(), 2)
        });
        // Members 0, 2, 4 contribute ranks 0+2+4 = 6 and 1+1+1 = 3.
        for rank in [0usize, 2, 4] {
            assert_eq!(report.results[rank], vec![6, 3], "member {rank}");
        }
        for rank in [1usize, 3, 5] {
            assert_eq!(report.results[rank], vec![-1, -1], "non-member {rank}");
        }
    }

    #[test]
    fn fcollect_concatenates_in_set_order() {
        let report = Fabric::run(FabricConfig::new(4), |pe| {
            let dest = pe.shared_malloc::<u64>(8);
            let src = [pe.rank() as u64 * 10, pe.rank() as u64 * 10 + 1];
            pe.barrier();
            fcollect64(pe, &dest, &src, 2, &ActiveSet::world(4));
            pe.barrier();
            pe.heap_read_vec::<u64>(dest.whole(), 8)
        });
        let expect = vec![0, 1, 10, 11, 20, 21, 30, 31];
        for got in &report.results {
            assert_eq!(got, &expect);
        }
    }

    #[test]
    fn collect_handles_variable_counts() {
        let report = Fabric::run(FabricConfig::new(3), |pe| {
            let dest = pe.shared_malloc::<u64>(16);
            // PE r contributes r+1 elements.
            let mine: Vec<u64> = (0..pe.rank() as u64 + 1)
                .map(|j| pe.rank() as u64 * 100 + j)
                .collect();
            pe.barrier();
            collect64(pe, &dest, &mine, mine.len(), &ActiveSet::world(3));
            pe.barrier();
            pe.heap_read_vec::<u64>(dest.whole(), 6)
        });
        let expect = vec![0, 100, 101, 200, 201, 202];
        for got in &report.results {
            assert_eq!(got, &expect);
        }
    }

    #[test]
    fn broadcast32_works_for_32bit_types() {
        let report = Fabric::run(FabricConfig::new(3), |pe| {
            let dest = pe.shared_malloc::<u32>(2);
            pe.heap_write(dest.whole(), &[0, 0]);
            pe.barrier();
            broadcast32(pe, &dest, &[7u32, 8], 2, 0, &ActiveSet::world(3));
            pe.barrier();
            pe.heap_read_vec::<u32>(dest.whole(), 2)
        });
        assert_eq!(report.results[0], vec![0, 0]); // root excluded
        assert_eq!(report.results[1], vec![7, 8]);
        assert_eq!(report.results[2], vec![7, 8]);
    }

    #[test]
    fn active_set_strided_collect() {
        // collect over PEs {0, 2} in a 4-PE world.
        let set = ActiveSet {
            pe_start: 0,
            log_pe_stride: 1,
            pe_size: 2,
        };
        let report = Fabric::run(FabricConfig::new(4), move |pe| {
            let dest = pe.shared_malloc::<u64>(8);
            let mine = vec![pe.rank() as u64 + 40];
            pe.barrier();
            collect64(pe, &dest, &mine, 1, &set);
            pe.barrier();
            pe.heap_read_vec::<u64>(dest.whole(), 2)
        });
        assert_eq!(report.results[0], vec![40, 42]);
        assert_eq!(report.results[2], vec![40, 42]);
        // Non-members' dests untouched.
        assert_eq!(report.results[1], vec![0, 0]);
    }

    #[test]
    fn nbi_broadcast_overlaps_and_keeps_root_exclusion() {
        let report = Fabric::run(FabricConfig::new(4), |pe| {
            let dest = pe.shared_malloc::<u64>(2);
            pe.heap_write(dest.whole(), &[111, 222]); // sentinel
            pe.barrier();
            let h = broadcast64_nbi(pe, &dest, &[5, 6], 2, 1, &ActiveSet::world(4));
            // Overlap window: local work while the broadcast is in flight.
            let local: u64 = (0..32u64).sum();
            h.wait(pe);
            pe.barrier();
            (pe.heap_read_vec::<u64>(dest.whole(), 2), local)
        });
        // Root keeps its sentinel — the quirk survives the nonblocking path.
        assert_eq!(report.results[1].0, vec![111, 222]);
        for rank in [0usize, 2, 3] {
            assert_eq!(report.results[rank].0, vec![5, 6], "rank {rank}");
        }
    }

    #[test]
    #[should_panic(expected = "64-bit element type")]
    fn size_naming_is_enforced() {
        Fabric::run(FabricConfig::new(1), |pe| {
            let dest = pe.shared_malloc::<u32>(1);
            broadcast64(pe, &dest, &[1u32], 1, 0, &ActiveSet::world(1));
        });
    }
}
