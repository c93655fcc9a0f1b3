//! Collective communication operations (paper §4).
//!
//! The initial xBGAS collective library is built around the binomial tree
//! with recursive halving/doubling (paper §4.2): broadcast, reduction,
//! scatter and gather — "the collective operations most often utilized",
//! combinable "to accomplish the semantics of several more complex
//! operations". [`extended`] adds the §7 future-work operations
//! (reduce-to-all, all-gather, all-to-all, teams), [`vcoll`] the
//! counts-table view of scatter, gather and all-gather (the v-variants)
//! and [`hierarchical`] the topology-aware tiers.
//!
//! Every collective has exactly two public forms: the paper's signature
//! ([`broadcast()`], [`reduce()`], [`scatter()`], [`gather()`] — binomial
//! tree, a barrier after every stage, Algorithms 1–4 as written) and one
//! *full* form whose trailing arguments are the call descriptor — an
//! [`AlgorithmPolicy`] (or the family's own algorithm enum) and a
//! [`SyncMode`]: [`broadcast_policy_sync`], [`reduce_policy_sync`] /
//! [`reduce_with`], [`scatter_policy_sync`], [`gather_policy_sync`],
//! [`reduce_all_sync`] / [`reduce_all_with`], [`all_gather_algo_sync`],
//! [`all_to_all_sync`]. A new algorithm is an arm of its walker plus an
//! arm of [`schedule::Row::schedule`], not a new entry point.
//!
//! Every entry point is a wrapper of a few lines around one value: it
//! builds a [`Call`] — the collective with its algorithm arm, the root,
//! the vector or count table it moves, the members and the sync mode —
//! on the stack, borrowing the caller's tables, and issues it
//! ([`Call::issue`]). [`Call::row`] is the one place an `Auto` arm is
//! resolved into the [`schedule::Row`] a body runs, and [`Call::spec`]
//! the contract the conformance oracle holds that row's schedule to, so
//! the harnesses, the conformance plane and the traffic plane describe a
//! call the same way the library does.
//!
//! Scatter, gather and all-gather are *counts-table* collectives — the
//! paper's own `pe_msgs`/`pe_disp` signatures say so — and each family
//! has one body: the uniform entry points above and the v-variants
//! ([`scatterv`], [`gatherv`], [`allgatherv`] and their `try_*` forms)
//! run it on the caller's table, [`all_gather`] on a constant one. They
//! differ only in how `Auto` resolves — the v-variants resolve theirs by
//! the skew-aware rules before they build the call — and in how a
//! malformed table is reported.
//!
//! Every collective here is built on the [`schedule`] layer: a generator
//! materialises the communication pattern as a [`schedule::CommSchedule`]
//! (pure data, unit-testable without a fabric), [`plan::lower`] turns it
//! into a flat per-PE step program — the one place the synchronization
//! protocol is written — and one generic executor runs those steps on a
//! PE. [`policy`] selects among algorithm shapes at runtime.
//!
//! Because a lowered plan is pure data too, it can be checked without a
//! fabric: [`verify`] interprets the same steps against an abstract
//! provenance memory model (final-buffer equivalence, happens-before,
//! write races) and [`explore`] enumerates their interleavings — up to
//! exhaustively — and mutation-tests the oracle itself.

pub mod broadcast;
pub mod call;
pub mod explore;
pub mod extended;
pub mod gather;
pub mod hierarchical;
pub mod plan;
pub mod policy;
pub mod reduce;
pub mod scatter;
pub mod schedule;
pub mod vcoll;
pub mod verify;
pub mod vrank;

pub use broadcast::{broadcast, broadcast_policy_sync};
pub use call::{no_fold, Buf, Bufs, Call, CallKind, Extent};
pub use explore::{
    explore_exhaustive, run_mutation_harness, ExploreOutcome, Mutation, MutationReport,
    RandomPriority, RoundRobin, Scheduler,
};
pub use extended::{
    all_gather, all_gather_algo_sync, all_to_all_sync, allreduce_fused, allreduce_rabenseifner,
    allreduce_recursive_doubling, allreduce_ring, reduce_all_sync, reduce_all_with, AllReduceAlgo,
    Team,
};
pub use gather::{gather, gather_policy_sync};
pub use hierarchical::{broadcast_hier, reduce_hier};
pub use plan::{
    execute_plan, ixallreduce, ixbroadcast, ixreduce, lower, plan_create_allreduce,
    plan_create_broadcast, CollHandle, PersistentAllReduce, PersistentBroadcast, Plan, PlanCache,
    PlanCacheStats, PlanKey, PlanStep,
};
pub use policy::{
    pipeline_chunks, Algorithm, AlgorithmPolicy, SyncMode, MAX_PIPELINE_CHUNKS,
    PIPELINE_CHUNK_BYTES,
};
pub use reduce::{reduce, reduce_bitwise, reduce_policy_sync, reduce_with};
pub use scatter::{scatter, scatter_policy_sync};
pub use vcoll::{
    allgatherv, allgatherv_dissemination_sched, allgatherv_fan_sched, allgatherv_ring_sched,
    gatherv, prefix_displacements, scatterv, skew_permille, try_allgatherv_algo_sync,
    try_gatherv_policy_sync, try_scatterv_policy_sync, AllGatherVAlgo, VCountError,
};
pub use verify::{check_schedule, CollectiveSpec, ConformanceReport, ModelConfig};
pub use vrank::{logical_rank, rank_table, virtual_rank};
