//! Timing parameters for the simulator and the runtime's simulated clock.
//!
//! All latencies are in core cycles. `CostConfig::paper()` is the
//! calibration used by the figure-reproduction harnesses; EXPERIMENTS.md
//! records the values and the shapes they produce.

use crate::cache::CacheConfig;
use crate::noc::NocConfig;
use crate::tlb::TlbConfig;
use xbgas_isa::AluOp;

/// Per-instruction-class and memory-system latencies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostConfig {
    /// Instruction fetch (assumes a perfect I-cache).
    pub fetch_cycles: u64,
    /// Simple ALU operations, branches, jumps, address management.
    pub alu_cycles: u64,
    /// Integer multiply.
    pub mul_cycles: u64,
    /// Integer divide/remainder.
    pub div_cycles: u64,
    /// `fence`.
    pub fence_cycles: u64,
    /// Environment-call overhead (the xBGAS story: syscalls are what remote
    /// accesses *avoid*, so this is deliberately large relative to a load).
    pub ecall_cycles: u64,
    /// DRAM access latency (paid on an L2 miss, and by the remote side of a
    /// remote access).
    pub mem_cycles: u64,
    /// Effective per-line cost for *streaming* (sequential) misses, where
    /// the hardware prefetcher hides most of `mem_cycles`. Charged for every
    /// line after the first in a contiguous bulk access.
    pub stream_miss_cycles: u64,
    /// OLB translation latency for nonzero object IDs.
    pub olb_lookup_cycles: u64,
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// L2 data cache geometry.
    pub l2: CacheConfig,
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// Interconnect parameters.
    pub noc: NocConfig,
}

impl CostConfig {
    /// Execute cycles of a register-register op by class (multiply, divide,
    /// simple ALU) — the one table both the stepper and the block
    /// translator charge from.
    pub(crate) const fn op_cycles(&self, op: AluOp) -> u64 {
        use AluOp::*;
        match op {
            Mul | Mulh | Mulhsu | Mulhu | Mulw => self.mul_cycles,
            Div | Divu | Rem | Remu | Divw | Divuw | Remw | Remuw => self.div_cycles,
            _ => self.alu_cycles,
        }
    }

    /// The calibration used to reproduce the paper's figures: the §5.1 cache
    /// and TLB geometry with latencies typical of a simple in-order RV64
    /// core, and a lightweight xBGAS fabric.
    pub const fn paper() -> Self {
        CostConfig {
            fetch_cycles: 1,
            alu_cycles: 1,
            mul_cycles: 3,
            div_cycles: 20,
            fence_cycles: 3,
            ecall_cycles: 200,
            mem_cycles: 200,
            stream_miss_cycles: 8,
            olb_lookup_cycles: 2,
            l1: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
            tlb: TlbConfig::paper(),
            noc: NocConfig::paper(),
        }
    }

    /// A functional-only configuration: every action costs one cycle and the
    /// fabric is free. Useful when a test cares about architectural state,
    /// not timing.
    pub const fn functional() -> Self {
        CostConfig {
            fetch_cycles: 1,
            alu_cycles: 1,
            mul_cycles: 1,
            div_cycles: 1,
            fence_cycles: 1,
            ecall_cycles: 1,
            mem_cycles: 0,
            stream_miss_cycles: 0,
            olb_lookup_cycles: 0,
            l1: CacheConfig {
                size_bytes: 1024,
                ways: 1,
                line_bytes: 64,
                hit_cycles: 0,
            },
            l2: CacheConfig {
                size_bytes: 4096,
                ways: 1,
                line_bytes: 64,
                hit_cycles: 0,
            },
            tlb: TlbConfig {
                entries: 16,
                page_bytes: 4096,
                miss_cycles: 0,
            },
            noc: NocConfig::free(),
        }
    }
}

/// Which execution engine [`crate::machine::Machine::run`] drives.
///
/// Both engines produce bit-identical architectural results — registers,
/// memory, `instret`, *and* cycle totals — which the differential suite
/// (`tests/sim_differential.rs`) enforces on every end-to-end kernel, at
/// every cycle budget and under adversarial register aliasing. The
/// interpretive stepper is the oracle; the block engine is the fast one,
/// and it too has a single pass over its ops (no unchecked variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Decode-dispatch interpreter: fetch + decode on every step.
    #[default]
    Interp,
    /// Basic-block translation: blocks are discovered at first execution,
    /// pre-decoded into a cached flat IR with fused superinstructions, and
    /// dispatched without re-fetch/re-decode (see `xbgas_sim::block`).
    Block,
}

/// Whole-machine configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineConfig {
    /// Number of harts (the paper's environment has 12 RISC-V cores).
    pub n_harts: usize,
    /// Physical memory per PE, in bytes.
    pub mem_bytes: usize,
    /// Timing parameters.
    pub cost: CostConfig,
    /// Hard cap on simulated cycles per hart before [`crate::machine::RunExit::CycleLimit`].
    pub max_cycles: u64,
    /// Execution engine (interpretive stepper or block translation).
    pub exec: ExecMode,
}

impl MachineConfig {
    /// The paper's §5.1 environment: 12 cores, 256-entry TLB, 16 KB L1,
    /// 8 MB L2; 16 MiB of memory per PE.
    pub const fn paper() -> Self {
        MachineConfig {
            n_harts: 12,
            mem_bytes: 16 * 1024 * 1024,
            cost: CostConfig::paper(),
            max_cycles: u64::MAX,
            exec: ExecMode::Interp,
        }
    }

    /// A small machine for unit tests: `n` harts, 64 KiB each, functional costs.
    pub const fn test(n_harts: usize) -> Self {
        MachineConfig {
            n_harts,
            mem_bytes: 64 * 1024,
            cost: CostConfig::functional(),
            max_cycles: 10_000_000,
            exec: ExecMode::Interp,
        }
    }

    /// The same configuration running on the block-translation engine.
    pub const fn with_block_engine(mut self) -> Self {
        self.exec = ExecMode::Block;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_section_5_1() {
        let c = MachineConfig::paper();
        assert_eq!(c.n_harts, 12);
        assert_eq!(c.cost.tlb.entries, 256);
        assert_eq!(c.cost.l1.size_bytes, 16 * 1024);
        assert_eq!(c.cost.l1.ways, 8);
        assert_eq!(c.cost.l2.size_bytes, 8 * 1024 * 1024);
        assert_eq!(c.cost.l2.ways, 8);
    }

    #[test]
    fn functional_charges_nothing_for_memory() {
        let c = CostConfig::functional();
        assert_eq!(c.mem_cycles, 0);
        assert_eq!(c.noc.transfer_cost(1024, 5), 0);
    }
}
