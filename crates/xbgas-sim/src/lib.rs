//! # xbgas-sim — the paper's simulation environment, rebuilt in Rust
//!
//! *Collective Communication for the RISC-V xBGAS ISA Extension* (ICPP 2019)
//! evaluates its runtime on a Spike-based environment: RV64I cores extended
//! with xBGAS, 256-entry TLBs, 8-way 16 KB L1 and 8 MB L2 caches, and an
//! MPICH bridge standing in for the inter-node fabric (§5.1). This crate is
//! that environment as a self-contained library:
//!
//! * [`mem::Memory`] — per-PE flat physical memory,
//! * [`cache`] — set-associative L1/L2 models with LRU and statistics, and
//!   [`cache::MemModel`], the TLB + L1 + L2 walk every local access takes,
//! * [`tlb::Tlb`] — the 256-entry TLB model,
//! * [`olb::Olb`] — the Object Look-Aside Buffer of paper §3.2,
//! * [`noc`] — the interconnect calibration, the shared-channel reservation
//!   that prices the machine's remote accesses, and traffic counters,
//! * [`hart::Hart`] — one RV64IM+xBGAS core (x0–x31 **and** e0–e31),
//! * [`machine::Machine`] — the N-core discrete-event machine with
//!   exit/putchar/my_pe/num_pes/barrier environment calls,
//! * [`asm`] — a two-pass assembler for authoring xBGAS kernels,
//! * [`cost`] — the timing calibration (`paper()` presets),
//! * [`hash`] — the seedless word hasher behind every internal map.
//!
//! The instruction-level machine verifies ISA semantics and produces the
//! micro-level timing parameters; the `xbrtime` crate implements the paper's
//! runtime and collectives on a fabric of natively executing PEs that
//! reuses this crate's cost model for its simulated clock.
//!
//! ## Example: a remote store between two PEs
//!
//! ```
//! use xbgas_sim::{asm::assemble, cost::MachineConfig, machine::{Machine, RunExit}};
//!
//! let mut m = Machine::new(MachineConfig::test(2));
//! // SPMD: every PE stores (my_pe + 100) into its right neighbour's slot 0x8000.
//! let img = assemble(0x1000, r#"
//!     li   a7, 2          # MY_PE
//!     ecall
//!     addi t1, a0, 100    # value = my_pe + 100
//!     addi t2, a0, 1      # neighbour rank
//!     li   t3, 2
//!     rem  t2, t2, t3     # (my_pe + 1) % 2
//!     addi t2, t2, 1      # object ID = rank + 1
//!     lui  t0, 0x8        # address 0x8000
//!     eaddie e5, t2, 0    # e5 (pairs with t0=x5) = neighbour object ID
//!     esd  t1, 0(t0)      # remote store
//!     li   a7, 4          # BARRIER
//!     ecall
//!     li   a7, 0          # EXIT
//!     ecall
//! "#).unwrap();
//! m.load_program(0x1000, &img.words);
//! let summary = m.run();
//! assert_eq!(summary.exit, RunExit::AllHalted);
//! assert_eq!(m.mem(0).load_u64(0x8000).unwrap(), 101); // from PE 1
//! assert_eq!(m.mem(1).load_u64(0x8000).unwrap(), 100); // from PE 0
//! ```

#![warn(missing_docs)]

pub mod asm;
mod block;
pub mod cache;
pub mod cost;
pub mod hart;
pub mod hash;
pub mod machine;
pub mod mem;
pub mod noc;
pub mod olb;
pub mod tlb;

pub use cost::{CostConfig, ExecMode, MachineConfig};
pub use machine::{Machine, RunExit, RunSummary};
