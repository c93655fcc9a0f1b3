//! Policy-driven algorithm selection.
//!
//! The paper's design discussion (§4.1–4.2) observes that *"there is no
//! universally optimal solution"* for a collective: latency-bound small
//! transfers and bandwidth-bound large transfers favour different
//! communication shapes, and production libraries switch algorithms at
//! runtime. This module provides that switch for our library: an
//! [`AlgorithmPolicy`] names either a fixed [`Algorithm`] or [`Auto`]
//! selection from `(collective, n_pes, message bytes)`, with crossover
//! constants calibrated against the grid tables the `ablation` harness
//! prints (`cargo run --release -p xbgas-bench --bin ablation`; table
//! numbers below). The cycle figures quoted at each constant were read
//! from `ablation` on the engine it ran before PR 25, the retired
//! thread-per-PE backend (every PE runnable at once) — except the chain
//! cap's rows, read once on the cooperative scheduler (see
//! `AUTO_CHAIN_MAX_PES`). `ablation` now runs on
//! `EngineConfig::default()`; multi-PE makespans wobble by a percent or
//! so between runs on any worker count above one, the winners on these
//! cells do not.
//!
//! The module is pure selection — enums, crossover constants and the
//! `auto_select_*` functions. The entry points that take a policy
//! (`*_policy_sync`) live next to their collective's body.
//!
//! [`Auto`]: AlgorithmPolicy::Auto

use crate::fabric::CollectiveKind;

/// A concrete collective algorithm shape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Binomial tree with recursive halving/doubling (paper Algorithms 1–4).
    #[default]
    Binomial,
    /// Root-sequential: the root exchanges with every peer in one stage.
    Linear,
    /// Neighbour-to-neighbour chain in `n − 1` stages: the payload (or a
    /// scatter's shrinking suffix) hops away from the root; reduce and
    /// gather run the same chain toward it.
    Ring,
}

impl Algorithm {
    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Binomial => "binomial",
            Algorithm::Linear => "linear",
            Algorithm::Ring => "ring",
        }
    }
}

/// How the library picks an [`Algorithm`] for each call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AlgorithmPolicy {
    /// Always the paper's binomial tree.
    #[default]
    Binomial,
    /// Always root-sequential.
    Linear,
    /// Always the chain.
    Ring,
    /// Pick per call from `(collective, n_pes, nbytes)` using the
    /// calibrated crossovers in [`AlgorithmPolicy::select`].
    Auto,
}

/// How the schedule executor synchronizes the stages of a collective.
///
/// The paper's Algorithms 1–4 close every stage with a full barrier.
/// The alternative modes replace that global synchronization with the
/// point-to-point signal plane ([`Pe::signal_post`](crate::fabric::Pe) /
/// [`Pe::signal_wait`](crate::fabric::Pe)): each transfer waits only on
/// the signals of the transfers that feed it, and one barrier closes the
/// whole collective.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SyncMode {
    /// A full-fabric barrier after every stage — the paper's Algorithms
    /// 1–4 exactly as written.
    #[default]
    Barrier,
    /// Put-with-signal / wait-until between communicating pairs; the
    /// per-stage barriers disappear and one final barrier closes the
    /// collective.
    Signaled,
    /// [`Signaled`](SyncMode::Signaled), plus segmented pipelining: large
    /// puts are split into [`pipeline_chunks`] segments, each signaled
    /// independently, so a child can forward chunk `k` while chunk `k+1`
    /// is still in flight to it.
    Pipelined,
    /// Pick per call from `(n_pes, payload bytes)` using the crossovers
    /// calibrated from `ablation`'s sync-mode makespan grid (Ablation 6).
    Auto,
}

/// Below this PE count the schedules are one or two stages deep and a
/// barrier costs no more than the signal exchange that would replace it
/// (Ablation 6 at 2 PEs: barrier wins every swept cell by the signal
/// bookkeeping, ~30 cycles): `Auto` stays with the paper's barrier
/// discipline. Lowering additionally falls back to barriers for
/// single-stage schedules at any scale (see
/// [`CommSchedule::resolve_sync`](crate::collectives::schedule::CommSchedule::resolve_sync)).
const AUTO_SYNC_MIN_PES: usize = 4;

/// Payload size (bytes per transfer) from which `Auto` turns on
/// segmented pipelining. Calibrated from Ablation 6's broadcast grid on
/// the paper cost model: from 512 KiB broadcasts the pipelined chain
/// overlaps hop `k`'s forwarding with hop `k + 1`'s arrival and beats the
/// barrier executor's best algorithm by 12% at 8 PEs (720k vs 818k
/// cycles) and 24% at 4 PEs (363k vs 478k); at 32 KiB and below the
/// per-segment fabric overhead (OLB + flight latency + remote DRAM per
/// chunk) eats the overlap win and plain signaling is the better
/// point-to-point mode.
const AUTO_PIPELINE_MIN_BYTES: usize = 64 * 1024;

/// Segment size for [`SyncMode::Pipelined`]: large enough that the
/// per-segment fixed fabric cost (OLB lookup + flight latency + remote
/// DRAM ≈ 230 cycles) stays small against the segment's channel
/// occupancy (8 KiB / 8 B-per-cycle = 1024 cycles), small enough that a
/// binomial tree's forwarding chain gets several segments in flight.
pub const PIPELINE_CHUNK_BYTES: usize = 8 * 1024;

/// Upper bound on segments per transfer, which also sizes the signal
/// table's per-op chunk slots.
pub const MAX_PIPELINE_CHUNKS: usize = 8;

/// Deterministic segment count for a transfer of `nbytes` under
/// [`SyncMode::Pipelined`]. Every PE computes this from the schedule
/// alone, so posters and waiters always agree on the chunking.
pub fn pipeline_chunks(nbytes: usize) -> usize {
    if nbytes < 2 * PIPELINE_CHUNK_BYTES {
        1
    } else {
        nbytes
            .div_ceil(PIPELINE_CHUNK_BYTES)
            .min(MAX_PIPELINE_CHUNKS)
    }
}

/// Signal-table slots reserved per schedule op: one per possible pipeline
/// segment, plus a readiness slot (get-kind ops: "my segment is valid,
/// pull away") and an acknowledgement slot (deferred folds: "I have read
/// your segment, you may overwrite yours"). The executor, the watchdog's
/// slot naming, and the conformance oracle all derive slot addresses from
/// this one layout.
pub const SLOTS_PER_OP: usize = MAX_PIPELINE_CHUNKS + 2;

/// Per-op slot index of the readiness flag.
pub const READY_SLOT: usize = MAX_PIPELINE_CHUNKS;

/// Per-op slot index of the deferred-fold acknowledgement flag.
pub const ACK_SLOT: usize = MAX_PIPELINE_CHUNKS + 1;

/// What a signal-table slot is used for, under the executor's
/// [`SLOTS_PER_OP`] per-op layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotRole {
    /// Completion flag of pipeline segment `.0` of the op's payload.
    Chunk(usize),
    /// The op's readiness flag.
    Ready,
    /// The op's deferred-fold read acknowledgement.
    Ack,
}

impl std::fmt::Display for SlotRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotRole::Chunk(c) => write!(f, "chunk {c}"),
            SlotRole::Ready => write!(f, "ready"),
            SlotRole::Ack => write!(f, "ack"),
        }
    }
}

/// Decompose a global signal-table slot index into the executor's
/// `(global op index, role)` addressing. The op index is global in
/// stage-major order (`CommSchedule::op_bases` recovers the stage).
pub fn slot_role(slot: usize) -> (usize, SlotRole) {
    let role = match slot % SLOTS_PER_OP {
        READY_SLOT => SlotRole::Ready,
        ACK_SLOT => SlotRole::Ack,
        c => SlotRole::Chunk(c),
    };
    (slot / SLOTS_PER_OP, role)
}

impl SyncMode {
    /// The concrete (non-`Auto`) modes, in display order — the axis chaos
    /// and equivalence sweeps iterate over.
    pub const CONCRETE: [SyncMode; 3] =
        [SyncMode::Barrier, SyncMode::Signaled, SyncMode::Pipelined];

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            SyncMode::Barrier => "barrier",
            SyncMode::Signaled => "signaled",
            SyncMode::Pipelined => "pipelined",
            SyncMode::Auto => "auto",
        }
    }

    /// Resolve `Auto` to a concrete mode for one call. `nbytes` is the
    /// largest single transfer in the schedule. Deterministic in its
    /// inputs, so every PE of a collective resolves identically.
    pub fn resolve(self, n_pes: usize, nbytes: usize) -> SyncMode {
        match self {
            SyncMode::Auto => {
                if n_pes < AUTO_SYNC_MIN_PES {
                    SyncMode::Barrier
                } else if nbytes >= AUTO_PIPELINE_MIN_BYTES {
                    SyncMode::Pipelined
                } else {
                    SyncMode::Signaled
                }
            }
            m => m,
        }
    }
}

/// With 2 PEs every shape degenerates to one transfer and the swept
/// cycles are identical across algorithms; `Auto` goes linear (one stage,
/// one barrier, no tree bookkeeping).
const AUTO_LINEAR_MAX_PES: usize = 2;

/// From this PE count up the root's serialised `n − 1` transfers dominate
/// at *every* swept payload, so `Auto` always takes the tree. Calibrated
/// from Ablation 5's broadcast grid on the paper cost model: at 8 PEs
/// binomial beats linear already at 8-byte broadcasts (2176 vs 2392
/// cycles) and the gap widens with size (793k vs 1296k at 512 KiB).
const AUTO_TREE_ALWAYS_PES: usize = 8;

/// Calibrated payload crossover (bytes) for the intermediate PE counts:
/// under it the tree's `⌈log2 n⌉` stage barriers dominate and linear
/// wins; above it the root's serialised transfers dominate and the tree
/// wins. From Ablation 5's broadcast grid at 4 PEs: linear wins up to
/// 2 KiB payloads (2706 vs 2861 cycles at 2 KiB), the tree wins from
/// 32 KiB (30.4k vs 39.1k cycles); the crossover sits between, at roughly
/// 8 KiB.
const AUTO_TREE_MIN_BYTES: usize = 8 * 1024;

impl AlgorithmPolicy {
    /// Resolve the policy for one call. `nbytes` is the per-call payload
    /// (the strided message size in bytes). Deterministic in its inputs,
    /// so every PE of a collective resolves identically.
    pub fn select(self, kind: CollectiveKind, n_pes: usize, nbytes: usize) -> Algorithm {
        match self {
            AlgorithmPolicy::Binomial => Algorithm::Binomial,
            AlgorithmPolicy::Linear => Algorithm::Linear,
            AlgorithmPolicy::Ring => Algorithm::Ring,
            AlgorithmPolicy::Auto => auto_select(kind, n_pes, nbytes),
        }
    }
}

fn auto_select(kind: CollectiveKind, n_pes: usize, nbytes: usize) -> Algorithm {
    let _ = kind; // crossovers are shared across the four rooted collectives
    if n_pes <= AUTO_LINEAR_MAX_PES {
        Algorithm::Linear
    } else if n_pes >= AUTO_TREE_ALWAYS_PES || nbytes >= AUTO_TREE_MIN_BYTES {
        Algorithm::Binomial
    } else {
        Algorithm::Linear
    }
}

/// Broadcast algorithm selection when the executor's sync mode is known.
///
/// The binomial tree is bandwidth-bound at the root: the root injects
/// `⌈log2 n⌉` full copies back to back, and no synchronization scheme can
/// shorten that serialisation. The chain (ring) shape injects the payload
/// exactly once — but under per-stage barriers its `n − 1` hops serialise
/// into `(n − 1) · T`, which is why the barrier-mode `Auto` never picks
/// it. Segmented pipelining changes the trade: each hop forwards segment
/// `k` while segment `k + 1` is still arriving, so the chain completes in
/// roughly `T + (n − 2) · T_chunk`, beating the tree's `⌈log2 n⌉ · T`
/// root bottleneck once the payload is deep enough to pipeline
/// (Ablation 6's broadcast grid: 720k vs 818k cycles at 8 PEs / 512 KiB,
/// 363k vs 478k at 4 PEs). This is the calibrated coupling: `Auto`
/// switches broadcast to the chain exactly when the resolved mode
/// pipelines and the payload clears the 64 KiB pipelining threshold
/// (`AUTO_PIPELINE_MIN_BYTES`).
pub fn auto_select_broadcast_sync(n_pes: usize, nbytes: usize, resolved: SyncMode) -> Algorithm {
    if resolved == SyncMode::Pipelined
        && n_pes > 2
        && n_pes <= AUTO_CHAIN_MAX_PES
        && nbytes >= AUTO_PIPELINE_MIN_BYTES
    {
        Algorithm::Ring
    } else {
        auto_select(CollectiveKind::Broadcast, n_pes, nbytes)
    }
}

/// Largest PE count at which `Auto` keeps the pipelined chain. Two
/// models pull in opposite directions above this point. The depth model
/// says the chain's linear term — `T + (n − 2) ·
/// T/`[`MAX_PIPELINE_CHUNKS`] — passes the tree's `⌈log2 n⌉ · T`
/// between 32 PEs (`4.75·T` vs `5·T`) and 64 (`8.75·T` vs `6·T`). The
/// chain-cap rows — pipelined ring vs pipelined binomial broadcast of
/// 64 Ki u64 at 16–128 PEs on the cooperative engine, measured once and
/// not regenerated by any harness — disagree: under the M/M/1 channel
/// model the tree's doubling fan-out saturates the links and the chain
/// stays ahead at 64 PEs (6.0M vs 9.2M cycles) and 128 (3.9M vs
/// 18.6M), while at 16 the tree wins (1.55M vs 1.76M). The cap sits at
/// the edge of model agreement: through 32 PEs both say the chain is
/// at worst near-par (measured 3.20M vs 3.76M), beyond it `Auto`
/// prefers the tree's predictable log-depth over a 100+-hop failure
/// domain that only one model endorses.
const AUTO_CHAIN_MAX_PES: usize = 32;

/// Payload (bytes) from which `Auto` all-reduce abandons the full-vector
/// butterfly for a reduce-scatter-composed shape: below this the extra
/// stages cost more than the saved fold traffic. Calibrated from the
/// all-reduce family grid (Ablation 2): recursive doubling wins every 128-byte
/// cell, Rabenseifner already leads at 2 KiB (2792 vs 2985 cycles at
/// 4 PEs) — and at `n = 2`, where the two shapes coincide stage-for-stage
/// at small payloads, the halved fold traffic still wins from 8 KiB
/// (6839 vs 7873), so there is deliberately no small-`n` escape hatch.
pub(crate) const AUTO_ALLREDUCE_SEGMENT_MIN_BYTES: usize = 2 * 1024;

/// Payload (bytes) from which the ring's bandwidth-optimal `nelems/n`
/// segments beat Rabenseifner's halving splits (Ablation 2: ring
/// leads the 64 KiB cells — 133610 vs 147566 cycles at 8 PEs — while
/// Rabenseifner still leads at 8 KiB).
pub(crate) const AUTO_ALLREDUCE_RING_MIN_BYTES: usize = 64 * 1024;

/// Largest PE count at which `Auto` all-reduce keeps the ring: its
/// `2·(n − 1)` stage depth grows linearly while Rabenseifner stays
/// logarithmic, the same depth-versus-injection trade as
/// [`AUTO_CHAIN_MAX_PES`].
pub(crate) const AUTO_ALLREDUCE_RING_MAX_PES: usize = 32;

/// Joint algorithm selection for all-reduce under
/// [`AllReduceAlgo::Auto`](crate::collectives::extended::AllReduceAlgo):
/// recursive doubling at small payloads (latency-bound, fewest stages
/// that still avoid the reduce-then-broadcast root bottleneck), ring at
/// large payloads and modest PE counts (bandwidth-optimal segments,
/// chunk-pipelinable puts), Rabenseifner everywhere else (log depth with
/// `~2/n` fold traffic). Crossovers calibrated from the all-reduce
/// family grid `ablation` prints (Ablation 2).
pub fn auto_select_allreduce(
    n_pes: usize,
    nbytes: usize,
) -> crate::collectives::extended::AllReduceAlgo {
    use crate::collectives::extended::AllReduceAlgo;
    if nbytes < AUTO_ALLREDUCE_SEGMENT_MIN_BYTES {
        AllReduceAlgo::RecursiveDoubling
    } else if nbytes >= AUTO_ALLREDUCE_RING_MIN_BYTES && n_pes <= AUTO_ALLREDUCE_RING_MAX_PES {
        AllReduceAlgo::Ring
    } else {
        AllReduceAlgo::Rabenseifner
    }
}

/// Smallest PE count at which `Auto` all-gather switches from the
/// single-stage n² put fan to log-stage dissemination: the fan's one
/// stage is unbeatable on latency until its `n²` op count saturates the
/// fabric (Ablation 7, the all-gather grid: dissemination leads from 8 PEs
/// at every block size — 2120 vs 4093 cycles at 128-byte blocks —
/// decisively at ≥64).
pub(crate) const AUTO_ALLGATHER_DOUBLING_MIN_PES: usize = 8;

/// Per-PE block size (bytes) from which dissemination also wins *below*
/// the PE-count crossover: big blocks make the exchange bandwidth-bound,
/// and the fan pushes each contribution over `n − 1` separate wires
/// while dissemination forwards doubling aggregates (Ablation 7:
/// 22043 vs 26302 cycles at 4 PEs × 8 KiB blocks).
pub(crate) const AUTO_ALLGATHER_DOUBLING_MIN_BYTES: usize = 8 * 1024;

/// Joint algorithm selection for the uniform
/// [`all_gather`](crate::collectives::all_gather) under
/// [`AllGatherVAlgo::Auto`](crate::collectives::vcoll::AllGatherVAlgo),
/// keyed on the per-PE block size. PE count dominates the trade (op count
/// scales n² vs n·log n); block size decides the low-PE-count cells,
/// where only bandwidth-bound payloads make the extra dissemination
/// stages pay.
pub fn auto_select_all_gather(
    n_pes: usize,
    nbytes: usize,
) -> crate::collectives::vcoll::AllGatherVAlgo {
    use crate::collectives::vcoll::AllGatherVAlgo;
    if n_pes >= AUTO_ALLGATHER_DOUBLING_MIN_PES || nbytes >= AUTO_ALLGATHER_DOUBLING_MIN_BYTES {
        AllGatherVAlgo::Dissemination
    } else {
        AllGatherVAlgo::Fan
    }
}

/// Count-skew (permille) above which `Auto` v-collectives abandon chain
/// and fan shapes for log-stage dissemination. Skew is measured as
/// `max(counts) · n · 1000 / total` — a uniform table scores exactly
/// 1000, and 2000 means one PE holds twice its fair share. Chain shapes
/// serialise every hop on whatever block is in flight, so a single giant
/// block is retransmitted `n − 1` times on the critical path; the fan
/// pushes it over `n − 1` separate wires from one root-side link.
/// Dissemination moves the giant block only `⌈log2 n⌉` times and each
/// time as part of a doubling aggregate, so its worst-case stage cost
/// grows with the *window* total rather than a single block — the same
/// observation Jocksch's non-uniform dissemination allgatherv is built
/// on.
pub(crate) const AUTO_VCOLL_SKEW_PERMILLE: u64 = 2000;

/// Total payload (bytes) from which the `Auto` allgatherv ring pays:
/// below it the ring's `n − 1` stage depth dominates; above it its
/// bandwidth-optimal per-stage injection (each PE forwards exactly one
/// block per stage) wins, mirroring the broadcast chain crossover at
/// [`AUTO_PIPELINE_MIN_BYTES`].
pub(crate) const AUTO_ALLGATHERV_RING_MIN_BYTES: usize = 64 * 1024;

/// Joint algorithm selection for
/// [`allgatherv`](crate::collectives::allgatherv) under
/// [`AllGatherVAlgo::Auto`](crate::collectives::vcoll::AllGatherVAlgo),
/// keyed on total bytes *and* count skew — the irregular axis the
/// uniform [`auto_select_all_gather`] doesn't have. High skew always
/// takes dissemination (see `AUTO_VCOLL_SKEW_PERMILLE`); near-uniform
/// tables follow the calibrated uniform crossovers: ring for
/// bandwidth-bound totals at modest PE counts, dissemination from the
/// n² fan-saturation point, fan for small latency-bound exchanges.
pub fn auto_select_allgatherv(
    n_pes: usize,
    total_bytes: usize,
    skew_permille: u64,
) -> crate::collectives::vcoll::AllGatherVAlgo {
    use crate::collectives::vcoll::AllGatherVAlgo;
    let per_pe_bytes = total_bytes / n_pes.max(1);
    if skew_permille >= AUTO_VCOLL_SKEW_PERMILLE {
        AllGatherVAlgo::Dissemination
    } else if total_bytes >= AUTO_ALLGATHERV_RING_MIN_BYTES
        && n_pes > 2
        && n_pes <= AUTO_CHAIN_MAX_PES
    {
        AllGatherVAlgo::Ring
    } else if n_pes >= AUTO_ALLGATHER_DOUBLING_MIN_PES
        || per_pe_bytes >= AUTO_ALLGATHER_DOUBLING_MIN_BYTES
    {
        AllGatherVAlgo::Dissemination
    } else {
        AllGatherVAlgo::Fan
    }
}

/// Algorithm selection for rooted v-collectives (scatterv/gatherv) under
/// [`AlgorithmPolicy::Auto`], keyed on total bytes, skew, and the
/// resolved sync mode. The chain shape is only worth its `n − 1` hop
/// depth when the executor pipelines, the total is bandwidth-bound, and
/// no single block dominates the chain (mirroring
/// [`auto_select_broadcast_sync`] with the skew guard added); otherwise
/// the uniform binomial/linear crossovers apply to the total payload.
pub fn auto_select_vrooted(
    kind: CollectiveKind,
    n_pes: usize,
    total_bytes: usize,
    skew_permille: u64,
    resolved: SyncMode,
) -> Algorithm {
    if resolved == SyncMode::Pipelined
        && n_pes > 2
        && n_pes <= AUTO_CHAIN_MAX_PES
        && total_bytes >= AUTO_PIPELINE_MIN_BYTES
        && skew_permille < AUTO_VCOLL_SKEW_PERMILLE
    {
        Algorithm::Ring
    } else {
        auto_select(kind, n_pes, total_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{
        broadcast_policy_sync, gather_policy_sync, reduce_policy_sync, scatter_policy_sync,
    };
    use crate::fabric::{Fabric, FabricConfig};
    use crate::types::ReduceOp;

    /// The measured crossover cells (`ablation`, Ablation 2) the allreduce
    /// selector is calibrated against — each row a (n_pes, nbytes) cell
    /// and its winning family member.
    #[test]
    fn auto_allreduce_tracks_measured_crossovers() {
        use crate::collectives::extended::AllReduceAlgo as A;
        for (n, nbytes, want) in [
            (2usize, 128usize, A::RecursiveDoubling),
            (8, 128, A::RecursiveDoubling),
            (4, 2 * 1024, A::Rabenseifner),
            (2, 8 * 1024, A::Rabenseifner),
            (8, 8 * 1024, A::Rabenseifner),
            (4, 64 * 1024, A::Ring),
            (32, 64 * 1024, A::Ring),
            // Past the ring's stage-depth cap, bandwidth cells fall back
            // to the logarithmic shape.
            (64, 64 * 1024, A::Rabenseifner),
            (256, 512 * 1024, A::Rabenseifner),
        ] {
            assert_eq!(
                auto_select_allreduce(n, nbytes),
                want,
                "n={n} nbytes={nbytes}"
            );
        }
    }

    /// Same for the all-gather fan/dissemination crossover.
    #[test]
    fn auto_all_gather_tracks_measured_crossovers() {
        use crate::collectives::vcoll::AllGatherVAlgo as G;
        for (n, nbytes, want) in [
            (2usize, 128usize, G::Fan),
            (4, 128, G::Fan),
            (4, 8 * 1024, G::Dissemination),
            (8, 128, G::Dissemination),
            (16, 128, G::Dissemination),
            (64, 8 * 1024, G::Dissemination),
        ] {
            assert_eq!(
                auto_select_all_gather(n, nbytes),
                want,
                "n={n} nbytes={nbytes}"
            );
        }
    }

    #[test]
    fn fixed_policies_are_constant() {
        for kind in CollectiveKind::ALL {
            for n in [1, 2, 8, 64] {
                for nbytes in [0, 100, 1 << 20] {
                    assert_eq!(
                        AlgorithmPolicy::Binomial.select(kind, n, nbytes),
                        Algorithm::Binomial
                    );
                    assert_eq!(
                        AlgorithmPolicy::Linear.select(kind, n, nbytes),
                        Algorithm::Linear
                    );
                    assert_eq!(
                        AlgorithmPolicy::Ring.select(kind, n, nbytes),
                        Algorithm::Ring
                    );
                }
            }
        }
    }

    #[test]
    fn auto_switches_on_size_and_scale() {
        let k = CollectiveKind::Broadcast;
        // Mid-scale (4 PEs): tiny messages stay linear, big ones go tree.
        assert_eq!(AlgorithmPolicy::Auto.select(k, 4, 8), Algorithm::Linear);
        assert_eq!(
            AlgorithmPolicy::Auto.select(k, 4, 1 << 20),
            Algorithm::Binomial
        );
        // At 8 PEs the serialised root loses at every size — always tree.
        assert_eq!(AlgorithmPolicy::Auto.select(k, 8, 8), Algorithm::Binomial);
        assert_eq!(
            AlgorithmPolicy::Auto.select(k, 8, 1 << 20),
            Algorithm::Binomial
        );
        // Two PEs never pay for tree staging.
        assert_eq!(
            AlgorithmPolicy::Auto.select(k, 2, 1 << 20),
            Algorithm::Linear
        );
    }

    #[test]
    fn auto_broadcast_goes_chain_only_when_pipelining_pays() {
        let big = 1 << 20;
        // Pipelined executor + deep payload → chain.
        assert_eq!(
            auto_select_broadcast_sync(8, big, SyncMode::Pipelined),
            Algorithm::Ring
        );
        assert_eq!(
            auto_select_broadcast_sync(8, big, SyncMode::Auto.resolve(8, big)),
            Algorithm::Ring
        );
        // Shallow payloads can't fill the pipeline — stay with the tree.
        assert_eq!(
            auto_select_broadcast_sync(8, 1 << 10, SyncMode::Pipelined),
            Algorithm::Binomial
        );
        // Barrier/signaled executors serialise the chain's n−1 hops.
        assert_eq!(
            auto_select_broadcast_sync(8, big, SyncMode::Barrier),
            Algorithm::Binomial
        );
        assert_eq!(
            auto_select_broadcast_sync(8, big, SyncMode::Signaled),
            Algorithm::Binomial
        );
        // Two PEs have no chain to pipeline.
        assert_eq!(
            auto_select_broadcast_sync(2, big, SyncMode::Pipelined),
            Algorithm::Linear
        );
    }

    #[test]
    fn auto_broadcast_chain_caps_out_at_large_pe_counts() {
        let big = 1 << 20;
        // Up to the cap the chain's single-injection shape still wins.
        assert_eq!(
            auto_select_broadcast_sync(32, big, SyncMode::Pipelined),
            Algorithm::Ring
        );
        // Past it the linear depth term `(n − 2) · T/8` overtakes the
        // tree's `⌈log2 n⌉ · T` and Auto must fall back to the tree,
        // however deep the payload.
        for n in [64usize, 256, 1024, 4096] {
            assert_eq!(
                auto_select_broadcast_sync(n, big, SyncMode::Pipelined),
                Algorithm::Binomial,
                "n_pes = {n}"
            );
            assert_eq!(
                auto_select_broadcast_sync(n, big, SyncMode::Auto.resolve(n, big)),
                Algorithm::Binomial,
                "n_pes = {n} (auto-resolved)"
            );
        }
    }

    #[test]
    fn policy_entry_points_agree_with_fixed_algorithms() {
        for policy in [
            AlgorithmPolicy::Binomial,
            AlgorithmPolicy::Linear,
            AlgorithmPolicy::Ring,
            AlgorithmPolicy::Auto,
        ] {
            let report = Fabric::run(FabricConfig::new(5), |pe| {
                let b = pe.shared_malloc::<u64>(4);
                let sync = SyncMode::Barrier;
                broadcast_policy_sync(pe, &b, &[5, 6, 7, 8], 4, 1, 3, policy, sync);
                pe.barrier();

                let src = pe.shared_malloc::<i64>(2);
                pe.heap_write(src.whole(), &[pe.rank() as i64 + 1, 2]);
                pe.barrier();
                let mut sum = [0i64; 2];
                reduce_policy_sync(pe, &mut sum, &src, 2, 1, 0, ReduceOp::Sum, policy, sync);
                pe.barrier();

                let msgs = vec![2usize; 5];
                let disp: Vec<usize> = (0..5).map(|r| r * 2).collect();
                let full: Vec<u64> = (0..10).collect();
                let sc_src: Vec<u64> = if pe.rank() == 1 { full } else { vec![] };
                let mut mine = [0u64; 2];
                scatter_policy_sync(pe, &mut mine, &sc_src, &msgs, &disp, 10, 1, policy, sync);
                pe.barrier();
                let mut back = vec![0u64; 10];
                gather_policy_sync(pe, &mut back, &mine, &msgs, &disp, 10, 1, policy, sync);
                pe.barrier();
                (pe.heap_read_vec::<u64>(b.whole(), 4), sum, mine, back)
            });
            for (rank, (b, sum, mine, back)) in report.results.iter().enumerate() {
                assert_eq!(b, &vec![5, 6, 7, 8], "{policy:?}");
                if rank == 0 {
                    assert_eq!(sum, &[15, 10], "{policy:?}");
                }
                assert_eq!(mine, &[2 * rank as u64, 2 * rank as u64 + 1], "{policy:?}");
                if rank == 1 {
                    assert_eq!(back, &(0..10).collect::<Vec<u64>>(), "{policy:?}");
                }
            }
        }
    }
}
