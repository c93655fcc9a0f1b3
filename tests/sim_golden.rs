//! Golden pin of the simulator's memory-model timing.
//!
//! `sim_differential` runs both engines over the *same* TLB / cache model,
//! so it cannot see that model change. This suite can: it runs the
//! benchmark's `sim_gups` kernel shape (one hart, xorshift-indexed 8-byte
//! read-modify-write over a table the L2 only partly holds, the paper's
//! timing) and compares simulated time and every per-level hit / miss
//! count with constants. The simulator takes no host address, so they are
//! exact on every machine. They were recorded at commit d496eca, before
//! the TLB and the cache were rebuilt for host speed; a mismatch is a
//! change of the *modelled* machine and needs its own justification.

use xbgas_sim::asm::assemble;
use xbgas_sim::cache::CacheStats;
use xbgas_sim::cost::{CostConfig, ExecMode, MachineConfig};
use xbgas_sim::machine::{Machine, RunExit};
use xbgas_sim::tlb::TlbStats;

const PROGRAM_BASE: u64 = 0x1000;
const TABLE_BASE: u64 = 0x10_0000;
const LOG2_ENTRIES: u32 = 18;
const UPDATES: u64 = 20_000;

const GOLDEN_CYCLES: u64 = 4_943_459;
/// 14 per update, plus the `li` expansions and the exit call around them.
const GOLDEN_INSTRET: u64 = 14 * UPDATES + 10;
/// One load and one store per update; the store always hits.
const GOLDEN_L1: CacheStats = CacheStats {
    hits: 20_164,
    misses: 19_836,
};
const GOLDEN_L2: CacheStats = CacheStats {
    hits: 4_905,
    misses: 14_931,
};
const GOLDEN_TLB: TlbStats = TlbStats {
    hits: 30_011,
    misses: 9_989,
};

/// The 14-instruction GUPS update loop of `bench/src/workloads/sim.rs`.
fn gups_src() -> String {
    format!(
        "    li   s1, 0x2545F491
    li   s2, {mask}
    li   s3, {TABLE_BASE}
    li   s0, {UPDATES}
loop:
    slli t0, s1, 13
    xor  s1, s1, t0
    srli t0, s1, 7
    xor  s1, s1, t0
    slli t0, s1, 17
    xor  s1, s1, t0
    and  t1, s1, s2
    slli t1, t1, 3
    add  t2, s3, t1
    ld   t3, 0(t2)
    xor  t3, t3, s1
    sd   t3, 0(t2)
    addi s0, s0, -1
    bnez s0, loop
    li   a7, 0
    ecall
",
        mask = (1u64 << LOG2_ENTRIES) - 1,
    )
}

fn run_gups(cost: CostConfig, exec: ExecMode) -> Machine {
    let img = assemble(PROGRAM_BASE, &gups_src()).expect("gups kernel");
    let mut m = Machine::new(MachineConfig {
        n_harts: 1,
        mem_bytes: TABLE_BASE as usize + (8usize << LOG2_ENTRIES),
        cost,
        max_cycles: u64::MAX,
        exec,
    });
    m.load_program(PROGRAM_BASE, &img.words);
    assert_eq!(m.run().exit, RunExit::AllHalted);
    m
}

#[test]
fn gups_paper_timing_is_pinned() {
    for exec in [ExecMode::Interp, ExecMode::Block] {
        let m = run_gups(CostConfig::paper(), exec);
        let hart = m.hart(0);
        assert_eq!(hart.cycles, GOLDEN_CYCLES, "{exec:?}: cycles");
        assert_eq!(hart.instret, GOLDEN_INSTRET, "{exec:?}: instret");
        let (l1, l2, tlb) = m.mem_stats(0);
        assert_eq!(l1, GOLDEN_L1, "{exec:?}: L1");
        assert_eq!(l2, GOLDEN_L2, "{exec:?}: L2");
        assert_eq!(tlb, GOLDEN_TLB, "{exec:?}: TLB");
    }
}

/// The functional preset charges nothing for a local access, so the
/// machine skips the model and its counters stay at zero.
#[test]
fn functional_preset_leaves_the_counters_at_zero() {
    let m = run_gups(CostConfig::functional(), ExecMode::Block);
    assert_eq!(m.hart(0).instret, GOLDEN_INSTRET);
    assert_eq!(
        m.mem_stats(0),
        (
            CacheStats::default(),
            CacheStats::default(),
            TlbStats::default()
        )
    );
}
