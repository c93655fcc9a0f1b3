//! Extended collectives (paper §7 future work, plus §4.7 gaps).
//!
//! The paper's initial library ships broadcast, reduction, scatter and
//! gather, and §4.7/§7 name the missing pieces: results "automatically
//! distributed to each PE" (OpenSHMEM's reduce-to-all and
//! collect/fcollect), "personalized all-to-all communication", and
//! "integration of collective functionality between a subset of PEs".
//! This module implements them:
//!
//! * [`reduce_all_sync`] — reduction whose result lands on every PE. Four
//!   strategies ([`AllReduceAlgo`]): the paper's own composition ("must
//!   instead be accomplished through the use of a broadcast operation
//!   following the original call"), run as one fused schedule
//!   ([`allreduce_fused`]), a direct recursive-doubling exchange,
//!   Rabenseifner's recursive-halving reduce-scatter + recursive-doubling
//!   allgather, and a bandwidth-optimal ring — all exact for any `n`,
//!   with the non-power-of-two tail folded inside the generators. Every
//!   route — blocking, team, nonblocking, persistent — issues one staged
//!   episode of the strategy's row. The other three are rows over the
//!   symmetric walker (`exchange_stages`): a reduce-scatter is an arm
//!   pulled as deferred folds, all-gather run backwards — the butterfly
//!   for recursive doubling (whole vector) and Rabenseifner (bisection
//!   table), the ring for the ring — and Rabenseifner's allgather half
//!   and both fold-out tails are the stages before them
//!   [`transposed`](crate::collectives::schedule::CommSchedule::transposed)
//!   into puts; [`Shape::AllReduce`] names the four for every body;
//! * [`all_gather`] — OpenSHMEM `fcollect` (equal counts, every PE receives
//!   the concatenation): the [`vcoll`](crate::collectives::vcoll)
//!   all-gather body on a constant count table, so every
//!   [`AllGatherVAlgo`] shape is available;
//! * [`all_to_all_sync`] — personalized all-to-all via pairwise exchange;
//! * [`Team`] — a subset of PEs with translated ranks; team-scoped
//!   broadcast and all-reduce are the broadcast body and the fused
//!   all-reduce row on a [`Row`] that carries the member list.

use crate::collectives::broadcast::broadcast_on;
use crate::collectives::plan::{self, Readout};
use crate::collectives::policy::{self, AlgorithmPolicy, SyncMode};
use crate::collectives::schedule::{
    balanced_partition, broadcast_binomial, exchange_stages, floor_pof2, reduce_binomial,
    CommSchedule, Exchange, OpKind, Payload, Row, Shape, Stage, TransferOp,
};
use crate::collectives::vcoll::{allgather_core, AllGatherVAlgo};
use crate::fabric::{CollectiveKind, Pe, SymmAlloc};
use crate::types::{with_combiner, ReduceOp, XbrNumeric, XbrType};

/// The non-power-of-two head of an all-reduce: each *extra* rank
/// `pof2 + i`'s full vector is folded into core partner `i`'s buffer, in
/// one stage (none when `n_pes` is a power of two). The read is
/// one-directional (extras are never read by anyone else in this stage),
/// so an ordinary stage suffices — the reader's later READY posts follow
/// its fold in program order. Its transpose under `Put` is the fold-out:
/// core partners push the finished vector back to the extras, and since
/// issuer `i` is the PE that read the extra's buffer here, program order
/// alone keeps the two from racing.
fn tail_fold_in(n_pes: usize, whole: Payload<'_>) -> CommSchedule {
    let pof2 = floor_pof2(n_pes);
    let fold = |extra| whole.op(OpKind::GetFold, extra, extra - pof2, 0, 0);
    let ops: Vec<TransferOp> = (pof2..n_pes).filter_map(fold).collect();
    let mut sched = CommSchedule::empty(n_pes, CollectiveKind::AllReduce);
    if !ops.is_empty() {
        sched.stages.push(Stage::new(ops));
    }
    sched
}

/// The reduce-scatter half of an all-reduce — all-gather run backwards:
/// `shape`'s edges pulled as folds of `payload`'s blocks. Both ends of an
/// exchange read each other's buffer before either may overwrite its own,
/// so every stage defers its folds past the read acknowledgements.
fn reduce_scatter(shape: Exchange, n_pes: usize, payload: Payload<'_>) -> Vec<Stage> {
    let fold = |src, dst, b, nb| payload.op(OpKind::GetFold, src, dst, b, b + nb);
    let mut stages = exchange_stages(shape, n_pes, true, fold);
    for stage in &mut stages {
        stage.deferred_fold = true;
    }
    stages
}

/// Recursive-bisection displacement table over `parts` (a power of two)
/// blocks of `nelems` elements: every halving splits a range `lo..hi` at
/// `lo + (hi − lo) / 2`, so block `j` is what rank `j` still owns after
/// `log2 parts` of them — empty when `nelems < parts`, with both ends
/// parked at the shared split boundary.
fn bisection(parts: usize, nelems: usize) -> Vec<usize> {
    let mut disp = vec![0; parts + 1];
    disp[parts] = nelems;
    let mut width = parts;
    while width > 1 {
        for lo in (0..parts).step_by(width) {
            disp[lo + width / 2] = disp[lo] + (disp[lo + width] - disp[lo]) / 2;
        }
        width /= 2;
    }
    disp
}

/// Recursive-doubling all-reduce schedule, exact for **any** `n`: ranks at
/// or above the largest power of two `pof2 ≤ n` first fold their vectors
/// into partners `rank − pof2` (fold-in stage), the `pof2` core ranks run
/// the classic `log2(pof2)` butterfly of symmetric pairwise folds — the
/// butterfly arm over the whole vector, its halving order reversed — and a
/// final fold-out stage — the fold-in transposed — puts the finished
/// vector back on the extras. Power-of-two worlds get the pure butterfly
/// with no tail stages. Because the tail lives inside the generator,
/// invoking the schedule directly (plan cache, nonblocking path,
/// conformance oracle) can never disagree with the [`reduce_all_with`]
/// entry point.
pub fn allreduce_recursive_doubling(n_pes: usize, nelems: usize) -> CommSchedule {
    let whole = Payload::Whole { nelems, stride: 1 };
    let mut sched = tail_fold_in(n_pes, whole);
    let fold_out = sched.clone().transposed(sched.kind, OpKind::Put);
    let halving = reduce_scatter(Exchange::Butterfly, n_pes, whole);
    sched.stages.extend(halving.into_iter().rev());
    sched.stages.extend(fold_out.stages);
    sched
}

/// Rabenseifner all-reduce schedule, exact for any `n`: after the
/// non-power-of-two fold-in, the `pof2` core ranks run a recursive-halving
/// reduce-scatter (the butterfly arm over the `bisection` table: each
/// stage halves the element range a rank is responsible for and folds the
/// partner's copy of the kept half); the second half is the first
/// [`transposed`](CommSchedule::transposed) into puts — a
/// recursive-doubling allgather that replays the splits in reverse, each
/// rank putting its finished range into its stage partner, then the
/// fold-out. Per-PE fold traffic is `~2·nelems·(pof2−1)/pof2` elements
/// instead of the butterfly's `nelems·log2(pof2)` — the win at large
/// payloads. Allgather stages are plain puts into disjoint, write-once
/// ranges, and the writer of a range is the same partner that read it at
/// the matching split, so program order covers write-after-read.
pub fn allreduce_rabenseifner(n_pes: usize, nelems: usize) -> CommSchedule {
    let mut sched = tail_fold_in(n_pes, Payload::Whole { nelems, stride: 1 });
    let owned = bisection(floor_pof2(n_pes), nelems);
    let halving = reduce_scatter(Exchange::Butterfly, n_pes, Payload::Ranges(&owned));
    sched.stages.extend(halving);
    let regather = sched.clone().transposed(sched.kind, OpKind::Put);
    sched.stages.extend(regather.stages);
    sched
}

/// Ring all-reduce schedule, exact for any `n`: the vector is cut into `n`
/// balanced segments ([`balanced_partition`]); `n−1` reduce-scatter stages
/// each fold the predecessor's running segment into the local copy (the
/// ring arm pulled), then `n−1` allgather stages each put the freshest
/// finished segment to the successor — the ring arm again, pushed, with
/// its block labels rotated by one, because PE `p` ends the reduce-scatter
/// owning segment `p + 1` (transposing the first phase instead would
/// reverse the ring's direction). Per-PE traffic is `~2·nelems·(n−1)/n`
/// elements in `nelems/n`-sized messages — bandwidth-optimal, and the
/// put-based allgather half rides the `Pipelined` chunked path. The
/// deferred folds' read acknowledgements are what transitively order a
/// later allgather put into a segment after the last reduce-scatter read
/// of it (ring dependencies alone only flow one way).
pub fn allreduce_ring(n_pes: usize, nelems: usize) -> CommSchedule {
    let seg = balanced_partition(nelems, n_pes);
    let segments = Payload::Ranges(&seg);
    let mut stages = reduce_scatter(Exchange::Ring, n_pes, segments);
    let forward = |src, dst, b: usize, _| {
        let owned = if b + 1 == n_pes { 0 } else { b + 1 };
        segments.op(OpKind::Put, src, dst, owned, owned + 1)
    };
    stages.extend(exchange_stages(Exchange::Ring, n_pes, false, forward));
    CommSchedule {
        n_pes,
        kind: CollectiveKind::AllReduce,
        stages,
    }
}

/// Fused reduce-then-broadcast all-reduce schedule: binomial reduction to
/// rank 0 followed by a binomial broadcast from rank 0, as **one**
/// schedule — the composition the paper prescribes, with no read-out,
/// staging board or barrier between the two trees. It is what
/// [`AllReduceAlgo::ReduceThenBroadcast`] runs on every route, and what
/// [`Team::reduce_all`] runs over the members.
pub fn allreduce_fused(n_pes: usize, nelems: usize) -> CommSchedule {
    let mut sched = reduce_binomial(n_pes, 0, nelems, 1);
    let bcast = broadcast_binomial(n_pes, 0, nelems, 1);
    sched.stages.extend(bcast.stages);
    sched.kind = CollectiveKind::AllReduce;
    sched
}

/// Personalized all-to-all schedule: one stage of pairwise-exchange puts,
/// each PE targeting `(rank + s) mod n` at hop `s` to spread traffic;
/// [`CommSchedule::empty`] when there is nothing to exchange.
pub fn all_to_all_sched(n_pes: usize, per_pe: usize) -> CommSchedule {
    let mut sched = CommSchedule::empty(n_pes, CollectiveKind::AllToAll);
    if per_pe > 0 {
        let mut ops = Vec::new();
        for s in 0..n_pes {
            for me in 0..n_pes {
                let target = (me + s) % n_pes;
                ops.push(TransferOp {
                    src_pe: me,
                    dst_pe: target,
                    src_at: target * per_pe,
                    dst_at: me * per_pe,
                    nelems: per_pe,
                    stride: 1,
                    kind: OpKind::PutFrom,
                });
            }
        }
        sched.stages.push(Stage::new(ops));
    }
    sched
}

/// Strategy for [`reduce_all_sync`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AllReduceAlgo {
    /// Tree reduction to rank 0 followed by a tree broadcast — the
    /// composition the paper prescribes for its initial library.
    ReduceThenBroadcast,
    /// Direct recursive-doubling butterfly over full vectors: `⌈log2 N⌉`
    /// exchange stages, no root bottleneck; best at small payloads.
    RecursiveDoubling,
    /// Recursive-halving reduce-scatter + recursive-doubling allgather
    /// ([`allreduce_rabenseifner`]): log stages but only `~2/n` of the
    /// vector folded per PE — wins at medium/large payloads.
    Rabenseifner,
    /// Ring reduce-scatter + ring allgather ([`allreduce_ring`]):
    /// bandwidth-optimal `nelems/n` segments; the put half rides the
    /// `Pipelined` chunked path. Wins at large payloads, modest `n`.
    Ring,
    /// Pick per call from `(n_pes, payload bytes)` using crossovers
    /// calibrated from the `ablation` grid
    /// ([`policy::auto_select_allreduce`]).
    #[default]
    Auto,
}

impl AllReduceAlgo {
    /// Stable lowercase label for reports and bench output.
    pub fn name(self) -> &'static str {
        match self {
            AllReduceAlgo::ReduceThenBroadcast => "reduce+bcast",
            AllReduceAlgo::RecursiveDoubling => "recursive-doubling",
            AllReduceAlgo::Rabenseifner => "rabenseifner",
            AllReduceAlgo::Ring => "ring",
            AllReduceAlgo::Auto => "auto",
        }
    }

    /// Resolve `Auto` for one call; concrete strategies pass through.
    pub fn resolve(self, n_pes: usize, nbytes: usize) -> AllReduceAlgo {
        match self {
            AllReduceAlgo::Auto => policy::auto_select_allreduce(n_pes, nbytes),
            other => other,
        }
    }

    /// The four concrete strategies (everything but `Auto`), for
    /// exhaustive sweeps.
    pub const CONCRETE: [AllReduceAlgo; 4] = [
        AllReduceAlgo::ReduceThenBroadcast,
        AllReduceAlgo::RecursiveDoubling,
        AllReduceAlgo::Rabenseifner,
        AllReduceAlgo::Ring,
    ];
}

/// All-reduce with a named operator: every PE receives the elementwise
/// combination of all contributions. `src` must be symmetric; `dest`
/// receives `nelems` elements (contiguous) on every PE.
pub fn reduce_all_sync<T: XbrNumeric>(
    pe: &Pe,
    dest: &mut [T],
    src: &SymmAlloc<T>,
    nelems: usize,
    op: ReduceOp,
    algo: AllReduceAlgo,
    sync: SyncMode,
) {
    with_combiner!(op, |f: T| reduce_all_with(
        pe, dest, src, nelems, f, algo, sync
    ));
}

/// All-reduce with an arbitrary associative, commutative combiner. `Auto`
/// algorithm selection resolves here from `(n_pes, payload bytes)`. Every
/// strategy runs as one episode of its [`Shape::AllReduce`] row — the
/// staged reduction that [`ixallreduce`](crate::collectives::ixallreduce)
/// and a persistent all-reduce issue too, so the three share warm plans.
/// Reduce-then-broadcast is both binomial trees as one schedule
/// ([`allreduce_fused`]), and the non-power-of-two tail is folded inside
/// the generators: there is no caller-side reduce-through-rank-0 step.
pub fn reduce_all_with<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &SymmAlloc<T>,
    nelems: usize,
    f: impl Fn(T, T) -> T + Copy,
    algo: AllReduceAlgo,
    sync: SyncMode,
) {
    assert!(dest.len() >= nelems, "dest too small for all-reduce result");
    let algo = algo.resolve(pe.n_pes(), nelems * std::mem::size_of::<T>());
    let plan = || plan::allreduce_plan::<T>(pe, algo, nelems, sync);
    let (kind, readout) = (CollectiveKind::AllReduce, Readout::All { nelems });
    plan::issue_reduce(pe, kind, Some(src), readout, None, plan, f, false).wait_into(pe, dest);
}

/// All-gather (OpenSHMEM `fcollect`): every PE contributes `per_pe`
/// elements from `src`; every PE's `dest` receives the rank-ordered
/// concatenation (`n_pes * per_pe` elements). Auto algorithm and sync.
pub fn all_gather<T: XbrType>(pe: &Pe, dest: &mut [T], src: &[T], per_pe: usize) {
    all_gather_algo_sync(pe, dest, src, per_pe, AllGatherVAlgo::Auto, SyncMode::Auto);
}

/// [`all_gather`] with explicit strategy and sync mode: the
/// [`allgatherv`](crate::collectives::allgatherv) body on a constant
/// count table. `Auto` resolves through
/// [`policy::auto_select_all_gather`] on `(n_pes, block bytes)`.
/// Zero-length gathers are fully inert: telemetry only — no staging
/// board, no barriers, no trace events.
pub fn all_gather_algo_sync<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &[T],
    per_pe: usize,
    algo: AllGatherVAlgo,
    sync: SyncMode,
) {
    let n_pes = pe.n_pes();
    let algo = match algo {
        AllGatherVAlgo::Auto => {
            policy::auto_select_all_gather(n_pes, per_pe * std::mem::size_of::<T>())
        }
        concrete => concrete,
    };
    allgather_core(pe, dest, src, &vec![per_pe; n_pes], algo, sync)
        .expect("a constant table has one count per PE");
}

/// Personalized all-to-all: PE `s`'s block `src[d*per_pe..]` lands in PE
/// `d`'s `dest[s*per_pe..]`. Pairwise-exchange schedule: stage `s` pairs
/// each PE with `(rank + s) mod n`, spreading traffic evenly. Zero-length
/// exchanges are fully inert (telemetry only).
pub fn all_to_all_sync<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &[T],
    per_pe: usize,
    sync: SyncMode,
) {
    let n_pes = pe.n_pes();
    let total = per_pe * n_pes;
    assert!(src.len() >= total, "src shorter than n_pes * per_pe");
    assert!(dest.len() >= total, "dest shorter than n_pes * per_pe");
    if total == 0 {
        plan::note_inert(pe, CollectiveKind::AllToAll);
        return;
    }
    let board = pe.shared_malloc::<T>(total);
    let row = Row {
        shape: Shape::AllToAll { per_pe },
        members: None,
        world: n_pes,
    };
    let kind = CollectiveKind::AllToAll;
    plan::run_schedule(pe, &row, kind, board.whole(), src, &mut [], None, sync);
    pe.heap_read_strided(board.whole(), &mut dest[..total], total, 1);
    pe.barrier();
    pe.shared_free(board);
}

/// A subset of PEs participating in team-scoped collectives.
///
/// Rank translation only: synchronisation still uses the global barrier
/// (every PE must therefore *call* team operations, members and
/// non-members alike — non-members contribute nothing and receive
/// nothing). Fully independent team barriers are the paper's own future
/// work ("Integration of collective functionality between a subset of
/// PEs").
#[derive(Clone, Debug)]
pub struct Team {
    members: Vec<usize>,
}

impl Team {
    /// Build a team from distinct global ranks.
    ///
    /// # Panics
    /// Panics on duplicates or an empty member list.
    pub fn new(members: Vec<usize>) -> Self {
        assert!(!members.is_empty(), "team must have at least one member");
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), members.len(), "duplicate team members");
        Team { members }
    }

    /// Number of member PEs.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Global rank of team-rank `t`.
    pub fn global(&self, t: usize) -> usize {
        self.members[t]
    }

    /// Team rank of a global rank, if it is a member.
    pub fn team_rank(&self, global: usize) -> Option<usize> {
        self.members.iter().position(|&m| m == global)
    }

    /// Team-scoped broadcast from team-rank `team_root`: the binomial row
    /// of the broadcast body over the members. Every PE (member or not)
    /// must call this; only members move data. Non-members appear in no
    /// op, so under signaled/pipelined sync they post and wait on no
    /// slots; like members, they join the collective's single closing
    /// barrier.
    pub fn broadcast<T: XbrType>(
        &self,
        pe: &Pe,
        dest: &SymmAlloc<T>,
        src: &[T],
        nelems: usize,
        team_root: usize,
        sync: SyncMode,
    ) {
        let (tree, members) = (AlgorithmPolicy::Binomial, Some(&self.members[..]));
        broadcast_on(pe, dest, src, nelems, 1, team_root, members, tree, sync);
    }

    /// Team-scoped all-reduce: one episode of the reduce-then-broadcast
    /// row ([`allreduce_fused`]) over the members — the binomial reduction
    /// to the first member and the binomial broadcast back, as one plan.
    /// Every PE must call; only members contribute and receive. A
    /// non-member stages nothing and drops its handle, which closes the
    /// episode in step with the members but skips the read-out, so its
    /// `dest` is untouched.
    pub fn reduce_all<T: XbrType>(
        &self,
        pe: &Pe,
        dest: &mut [T],
        src: &SymmAlloc<T>,
        nelems: usize,
        f: impl Fn(T, T) -> T + Copy,
        sync: SyncMode,
    ) {
        let row = Row {
            shape: Shape::AllReduce {
                algo: AllReduceAlgo::ReduceThenBroadcast,
                nelems,
            },
            members: Some(&self.members),
            world: pe.n_pes(),
        };
        let (kind, readout) = (CollectiveKind::AllReduce, Readout::All { nelems });
        let plan = || plan::plan_for(pe, &row, kind, sync, std::mem::size_of::<T>());
        let src = row.has(pe.rank()).then_some(src);
        let h = plan::issue_reduce(pe, kind, src, readout, None, plan, f, false);
        if src.is_some() {
            h.wait_into(pe, dest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricConfig};

    #[test]
    fn reduce_all_all_algorithms_agree() {
        for n in 1..=8 {
            for algo in AllReduceAlgo::CONCRETE
                .into_iter()
                .chain([AllReduceAlgo::Auto])
            {
                let report = Fabric::run(FabricConfig::new(n), |pe| {
                    let src = pe.shared_malloc::<u64>(3);
                    pe.heap_write(src.whole(), &[pe.rank() as u64, 1, pe.rank() as u64 * 2]);
                    pe.barrier();
                    let mut d = [0u64; 3];
                    reduce_all_sync(pe, &mut d, &src, 3, ReduceOp::Sum, algo, SyncMode::Barrier);
                    pe.barrier();
                    d
                });
                let n64 = n as u64;
                let expect = [
                    (0..n64).sum::<u64>(),
                    n64,
                    (0..n64).map(|r| r * 2).sum::<u64>(),
                ];
                for (rank, got) in report.results.iter().enumerate() {
                    assert_eq!(got, &expect, "n={n} algo={algo:?} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        for n in 1..=6 {
            let report = Fabric::run(FabricConfig::new(n), |pe| {
                let src = [pe.rank() as u32 * 10, pe.rank() as u32 * 10 + 1];
                let mut dest = vec![0u32; n * 2];
                all_gather(pe, &mut dest, &src, 2);
                pe.barrier();
                dest
            });
            let expect: Vec<u32> = (0..n as u32).flat_map(|r| [r * 10, r * 10 + 1]).collect();
            for got in &report.results {
                assert_eq!(got, &expect, "n={n}");
            }
        }
    }

    #[test]
    fn all_to_all_transposes_blocks() {
        for n in 1..=6 {
            let report = Fabric::run(FabricConfig::new(n), |pe| {
                // src block for destination d: value 100*me + d.
                let src: Vec<u64> = (0..n).map(|d| 100 * pe.rank() as u64 + d as u64).collect();
                let mut dest = vec![0u64; n];
                all_to_all_sync(pe, &mut dest, &src, 1, SyncMode::Barrier);
                pe.barrier();
                dest
            });
            for (me, got) in report.results.iter().enumerate() {
                let expect: Vec<u64> = (0..n).map(|s| 100 * s as u64 + me as u64).collect();
                assert_eq!(got, &expect, "n={n} rank={me}");
            }
        }
    }

    #[test]
    fn all_to_all_multielement_blocks() {
        let n = 4;
        let per = 3;
        let report = Fabric::run(FabricConfig::new(n), |pe| {
            let src: Vec<u32> = (0..n * per)
                .map(|i| (pe.rank() * 1000 + i) as u32)
                .collect();
            let mut dest = vec![0u32; n * per];
            all_to_all_sync(pe, &mut dest, &src, per, SyncMode::Barrier);
            pe.barrier();
            dest
        });
        for (me, got) in report.results.iter().enumerate() {
            for s in 0..n {
                for j in 0..per {
                    assert_eq!(got[s * per + j], (s * 1000 + me * per + j) as u32);
                }
            }
        }
    }

    #[test]
    fn team_broadcast_reaches_members_only() {
        let report = Fabric::run(FabricConfig::new(6), |pe| {
            let team = Team::new(vec![1, 3, 5]);
            let dest = pe.shared_malloc::<u64>(2);
            pe.heap_write(dest.whole(), &[0, 0]);
            pe.barrier();
            let src = [42u64, 43];
            // Team root = global rank 1.
            team.broadcast(pe, &dest, &src, 2, 0, SyncMode::Barrier);
            pe.barrier();
            pe.heap_read_vec(dest.whole(), 2)
        });
        for (rank, got) in report.results.iter().enumerate() {
            if [1, 3, 5].contains(&rank) {
                assert_eq!(got, &vec![42, 43], "member {rank}");
            } else {
                assert_eq!(got, &vec![0, 0], "non-member {rank} must be untouched");
            }
        }
    }

    #[test]
    fn team_reduce_all_sums_members() {
        let report = Fabric::run(FabricConfig::new(5), |pe| {
            let team = Team::new(vec![0, 2, 4]);
            let src = pe.shared_malloc::<i64>(1);
            pe.heap_store(src.whole(), pe.rank() as i64 + 1);
            pe.barrier();
            let mut d = [0i64];
            team.reduce_all(pe, &mut d, &src, 1, |a, b| a + b, SyncMode::Barrier);
            pe.barrier();
            d[0]
        });
        // Members 0,2,4 contribute 1,3,5 → 9 on members; 0 on non-members.
        assert_eq!(report.results[0], 9);
        assert_eq!(report.results[2], 9);
        assert_eq!(report.results[4], 9);
        assert_eq!(report.results[1], 0);
        assert_eq!(report.results[3], 0);
    }

    /// A one-member team: the broadcast reaches only the member, and the
    /// all-reduce — an empty fused plan over a staged board — hands the
    /// member its own contribution and leaves non-members untouched.
    #[test]
    fn team_of_one() {
        let report = Fabric::run(FabricConfig::new(3), |pe| {
            let team = Team::new(vec![2]);
            let dest = pe.shared_malloc::<u32>(1);
            pe.heap_store(dest.whole(), 0);
            let src = pe.shared_malloc::<u32>(2);
            pe.heap_write(src.whole(), &[pe.rank() as u32 + 7, 5]);
            pe.barrier();
            team.broadcast(pe, &dest, &[99], 1, 0, SyncMode::Barrier);
            let mut sum = [0u32; 2];
            team.reduce_all(pe, &mut sum, &src, 2, |a, b| a + b, SyncMode::Barrier);
            pe.barrier();
            (pe.heap_load(dest.whole()), sum)
        });
        let expect = vec![(0, [0, 0]), (0, [0, 0]), (99, [9, 5])];
        assert_eq!(report.results, expect);
        let calls = report
            .collective(CollectiveKind::AllReduce)
            .map(|r| r.calls);
        assert_eq!(calls, Some(1));
    }

    #[test]
    #[should_panic(expected = "duplicate team members")]
    fn duplicate_members_rejected() {
        let _ = Team::new(vec![0, 1, 1]);
    }

    /// Team collectives under every concrete sync mode: non-members must
    /// neither receive data nor strand signal slots (a stranded slot would
    /// hang the drain, and the short watchdog would turn that hang into a
    /// failure here rather than a stuck test run).
    #[test]
    fn team_collectives_under_all_sync_modes() {
        use std::time::Duration;
        for sync in SyncMode::CONCRETE {
            let cfg = FabricConfig::new(6).with_watchdog(Duration::from_secs(5));
            let report = Fabric::run(cfg, move |pe| {
                let team = Team::new(vec![1, 3, 4, 5]);
                let dest = pe.shared_malloc::<u64>(2);
                pe.heap_write(dest.whole(), &[0, 0]);
                let src_sum = pe.shared_malloc::<i64>(1);
                pe.heap_store(src_sum.whole(), pe.rank() as i64 + 1);
                pe.barrier();
                team.broadcast(pe, &dest, &[42, 43], 2, 0, sync);
                let mut sum = [0i64];
                team.reduce_all(pe, &mut sum, &src_sum, 1, |a, b| a + b, sync);
                pe.barrier();
                (pe.heap_read_vec(dest.whole(), 2), sum[0])
            });
            for (rank, (bcast, sum)) in report.results.iter().enumerate() {
                if [1, 3, 4, 5].contains(&rank) {
                    assert_eq!(bcast, &vec![42, 43], "sync={sync:?} member {rank}");
                    // Members 1,3,4,5 contribute rank+1: 2+4+5+6 = 17.
                    assert_eq!(*sum, 17, "sync={sync:?} member {rank}");
                } else {
                    assert_eq!(bcast, &vec![0, 0], "sync={sync:?} non-member {rank}");
                    assert_eq!(*sum, 0, "sync={sync:?} non-member {rank}");
                }
            }
            // Every posted signal was consumed: nothing left stranded in
            // the symmetric table by the non-members.
            assert_eq!(
                report.stats.signals, report.stats.signal_waits,
                "sync={sync:?}: stranded signal slots"
            );
            // The team all-reduce is one episode, not a reduction plus a
            // broadcast.
            let calls = report
                .collective(CollectiveKind::AllReduce)
                .map(|r| r.calls);
            assert_eq!(calls, Some(1), "sync={sync:?}");
        }
    }

    /// Non-power-of-two worlds across every strategy and sync mode: the
    /// fold-in/fold-out tail stages live *inside* the generators, and the
    /// fused trees are binomial over an uneven world, so the schedules
    /// themselves must be exact.
    #[test]
    fn reduce_all_non_power_of_two_tail_all_sync_modes() {
        use std::time::Duration;
        for n in [3usize, 5, 6, 7] {
            for algo in AllReduceAlgo::CONCRETE {
                for sync in SyncMode::CONCRETE {
                    let cfg = FabricConfig::new(n).with_watchdog(Duration::from_secs(5));
                    let report = Fabric::run(cfg, move |pe| {
                        let src = pe.shared_malloc::<u64>(3);
                        pe.heap_write(src.whole(), &[pe.rank() as u64, 1, pe.rank() as u64 * 2]);
                        pe.barrier();
                        let mut d = [0u64; 3];
                        reduce_all_with(pe, &mut d, &src, 3, |a, b| a.wrapping_add(b), algo, sync);
                        pe.barrier();
                        d
                    });
                    let n64 = n as u64;
                    let expect = [
                        (0..n64).sum::<u64>(),
                        n64,
                        (0..n64).map(|r| r * 2).sum::<u64>(),
                    ];
                    for (rank, got) in report.results.iter().enumerate() {
                        assert_eq!(
                            got, &expect,
                            "n={n} algo={algo:?} sync={sync:?} rank={rank}"
                        );
                    }
                    assert_eq!(
                        report.stats.signals, report.stats.signal_waits,
                        "n={n} algo={algo:?} sync={sync:?}: stranded signal slots"
                    );
                }
            }
        }
    }

    /// The fold-happens-somewhere check for large segmented payloads:
    /// ring and Rabenseifner partition the vector, so run enough elements
    /// that every PE owns a non-trivial segment and the balanced
    /// partition has a remainder.
    #[test]
    fn segmented_allreduce_algorithms_large_uneven_vector() {
        for n in [4usize, 5, 7] {
            let nelems = 4 * n + 3; // not divisible by n
            for algo in [AllReduceAlgo::Rabenseifner, AllReduceAlgo::Ring] {
                let report = Fabric::run(FabricConfig::new(n), move |pe| {
                    let src = pe.shared_malloc::<u64>(nelems);
                    let mine: Vec<u64> = (0..nelems)
                        .map(|i| (pe.rank() as u64 + 1) * 1000 + i as u64)
                        .collect();
                    pe.heap_write(src.whole(), &mine);
                    pe.barrier();
                    let mut d = vec![0u64; nelems];
                    reduce_all_with(
                        pe,
                        &mut d,
                        &src,
                        nelems,
                        |a, b| a.wrapping_add(b),
                        algo,
                        SyncMode::Auto,
                    );
                    pe.barrier();
                    d
                });
                let expect: Vec<u64> = (0..nelems)
                    .map(|i| (1..=n as u64).map(|r| r * 1000 + i as u64).sum())
                    .collect();
                for (rank, got) in report.results.iter().enumerate() {
                    assert_eq!(got, &expect, "n={n} algo={algo:?} rank={rank}");
                }
            }
        }
    }

    /// `all_gather` strategies agree with the rank-ordered concatenation
    /// for every n, including the wrapped-window dissemination cases.
    #[test]
    fn all_gather_doubling_matches_fan() {
        for n in 1..=9 {
            for algo in AllGatherVAlgo::CONCRETE {
                let report = Fabric::run(FabricConfig::new(n), move |pe| {
                    let src = [pe.rank() as u32 * 10, pe.rank() as u32 * 10 + 1];
                    let mut dest = vec![0u32; n * 2];
                    all_gather_algo_sync(pe, &mut dest, &src, 2, algo, SyncMode::Auto);
                    pe.barrier();
                    dest
                });
                let expect: Vec<u32> = (0..n as u32).flat_map(|r| [r * 10, r * 10 + 1]).collect();
                for got in &report.results {
                    assert_eq!(got, &expect, "n={n} algo={algo:?}");
                }
            }
        }
    }
}
