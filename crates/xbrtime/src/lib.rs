//! # xbrtime — the xBGAS runtime library and its collectives, in Rust
//!
//! This crate reproduces the primary contribution of *Collective
//! Communication for the RISC-V xBGAS ISA Extension* (ICPP 2019): a PGAS
//! runtime in the Cray-SHMEM mould (symmetric shared segments, one-sided
//! `put`/`get`, a barrier — paper §3.3) and the initial collective library
//! built on it — broadcast, reduction, scatter and gather over a binomial
//! tree with recursive halving/doubling and virtual-rank rotation
//! (Algorithms 1–4).
//!
//! Each processing element runs as a coroutine on one of a few worker
//! threads ([`Fabric::run`] launches them and a scheduler decides which
//! PEs run);
//! remote accesses are raw one-sided copies, timed by the deterministic
//! simulated clock from `xbgas-sim`'s cost model (the substitution for the
//! paper's Spike environment — see DESIGN.md).
//!
//! ## Quickstart
//!
//! ```
//! use xbrtime::{Fabric, FabricConfig, collectives, types::ReduceOp};
//!
//! let report = Fabric::run(FabricConfig::new(4), |pe| {
//!     // Symmetric allocation: same offset on every PE.
//!     let src = pe.shared_malloc::<u64>(1);
//!     pe.heap_store(src.whole(), pe.rank() as u64 + 1);
//!     pe.barrier();
//!
//!     // Reduce 1+2+3+4 to rank 0, then broadcast the result.
//!     let mut sum = [0u64];
//!     collectives::reduce(pe, &mut sum, &src, 1, 1, 0, ReduceOp::Sum);
//!
//!     let bcast = pe.shared_malloc::<u64>(1);
//!     collectives::broadcast(pe, &bcast, &sum, 1, 1, 0);
//!     pe.barrier();
//!     pe.heap_load(bcast.whole())
//! });
//! assert_eq!(report.results, vec![10, 10, 10, 10]);
//! ```
//!
//! The per-type C API (`xbrtime_int_put`, `xbrtime_double_broadcast`, …)
//! lives in [`typed`] as `typed::int::put`, `typed::double::broadcast`, etc.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod collectives;
mod coro;
pub mod engine;
pub mod fabric;
pub mod heap;
pub mod shmem;
pub mod timing;
pub mod trace;
pub mod traffic;
pub mod typed;
pub mod types;

pub use collectives::policy::{Algorithm, AlgorithmPolicy, SyncMode};
pub use collectives::schedule::{CommSchedule, OpKind, Stage, TransferOp};
pub use engine::{EngineConfig, PeSchedState};
pub use fabric::{
    ceil_log2, CollectiveKind, CollectiveRecord, Context, DeadlockReport, Fabric, FabricConfig,
    FabricStats, FaultConfig, NbHandle, Pe, PeProbe, RunError, RunReport, SymmAlloc, SymmRef,
    Topology, WaitSite, DEFAULT_WATCHDOG,
};
pub use timing::TimingConfig;
pub use trace::{CriticalPath, Trace, TraceCategory, TraceEvent, TraceKind};
pub use traffic::{
    run_traffic, tenant_members, tenant_of, tenant_plan, PeTraffic, TenantStats, TrafficConfig,
    TrafficConfigError, TrafficError, TrafficKind, TrafficOp, TrafficReport,
};
pub use types::{ReduceOp, TypeEntry, XbrBitwise, XbrNumeric, XbrType, TABLE1};
