//! Differential suite: the block-translation engine vs the interpretive
//! stepper.
//!
//! Every kernel here runs twice — once on `ExecMode::Interp` (the oracle)
//! and once on `ExecMode::Block` — and the two machines must finish in
//! **bit-identical** states: exit reason, per-hart `pc`, both register
//! files, `cycles`, `instret`, hart state, console output, NoC statistics
//! and every byte of every PE's memory. This is the contract that lets the
//! block engine replace the stepper for benchmarking without changing any
//! simulated result.

// The `..ProptestConfig::default()` spread is upstream proptest's
// canonical config idiom; the local shim happens to have no other
// fields, which trips needless_update.
#![allow(clippy::needless_update)]

use proptest::prelude::*;
use xbgas_isa::{encode, AluImmOp, AluOp, BranchCond, Inst, LoadWidth, StoreWidth, XReg};
use xbgas_sim::asm::assemble;
use xbgas_sim::cost::{CostConfig, ExecMode, MachineConfig};
use xbgas_sim::hart::SimFault;
use xbgas_sim::machine::{Machine, RunExit};

/// Build, run and compare the two engines on the same initial machine.
/// `setup` is applied identically to both (program load, memory seeding).
fn differential(what: &str, cfg: MachineConfig, setup: impl Fn(&mut Machine)) -> RunExit {
    assert_eq!(cfg.exec, ExecMode::Interp, "pass the base config");
    let mut interp = Machine::new(cfg);
    setup(&mut interp);
    let si = interp.run();

    let mut block = Machine::new(cfg.with_block_engine());
    setup(&mut block);
    let sb = block.run();

    assert_eq!(si.exit, sb.exit, "{what}: exit reason diverged");
    assert_eq!(si.cycles, sb.cycles, "{what}: summary cycles diverged");
    assert_eq!(si.instret, sb.instret, "{what}: summary instret diverged");
    for pe in 0..interp.n_harts() {
        let (hi, hb) = (interp.hart(pe), block.hart(pe));
        assert_eq!(hi.pc, hb.pc, "{what}: pe{pe} pc diverged");
        assert_eq!(hi.x, hb.x, "{what}: pe{pe} x register file diverged");
        assert_eq!(hi.e, hb.e, "{what}: pe{pe} e register file diverged");
        assert_eq!(hi.cycles, hb.cycles, "{what}: pe{pe} cycles diverged");
        assert_eq!(hi.instret, hb.instret, "{what}: pe{pe} instret diverged");
        assert_eq!(hi.state, hb.state, "{what}: pe{pe} state diverged");
        assert_eq!(
            interp.output(pe),
            block.output(pe),
            "{what}: pe{pe} console output diverged"
        );
        let sz = interp.mem(pe).size();
        assert_eq!(sz, block.mem(pe).size());
        assert_eq!(
            interp.mem(pe).read_bytes(0, sz).unwrap(),
            block.mem(pe).read_bytes(0, sz).unwrap(),
            "{what}: pe{pe} memory diverged"
        );
    }
    let (ni, nb) = (interp.noc_stats(), block.noc_stats());
    assert_eq!(ni.transactions, nb.transactions, "{what}: noc transactions");
    assert_eq!(ni.bytes, nb.bytes, "{what}: noc bytes");
    si.exit
}

fn asm_setup(src: &'static str) -> impl Fn(&mut Machine) {
    move |m: &mut Machine| {
        let img = assemble(0x1000, src).unwrap();
        m.load_program(0x1000, &img.words);
    }
}

/// test(n) but with the paper's timing calibration (TLB walks, cache
/// hierarchy, 200-cycle DRAM, a real interconnect) so the differential also
/// covers every memory-model code path.
fn paper_cost(n: usize) -> MachineConfig {
    let mut cfg = MachineConfig::test(n);
    cfg.cost = CostConfig::paper();
    cfg
}

/// The GUPS inner loop: xorshift RNG, masked index, 8-byte read-modify-write
/// — exercises ShiftXor, LoadOpStore, AddiBranch and Li fusion.
const GUPS: &str = r#"
    li   s1, 0x2545F491     # rng state
    li   s2, 0x3ff          # table mask (1024 entries)
    li   s3, 0x8000         # table base
    li   s0, 2000           # updates
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
"#;

/// IS-style bucket counting: generate keys with the RNG, then histogram
/// the low bits — a second loop shape with lw/andi and blt back-edge.
const IS_RANK: &str = r#"
    li   s1, 0x12345        # rng state
    li   s2, 0x8000         # keys base
    li   s0, 1024           # key count
gen:
    slli t0, s1, 13
    xor  s1, s1, t0
    srli t0, s1, 7
    xor  s1, s1, t0
    slli t0, s1, 17
    xor  s1, s1, t0
    sw   s1, 0(s2)
    addi s2, s2, 4
    addi s0, s0, -1
    bnez s0, gen
    li   s2, 0x8000
    li   s3, 0xC000         # counts base
    li   s0, 1024
rank:
    lw   t1, 0(s2)
    andi t2, t1, 255
    slli t2, t2, 3
    add  t2, s3, t2
    ld   t3, 0(t2)
    addi t3, t3, 1
    sd   t3, 0(t2)
    addi s2, s2, 4
    addi s0, s0, -1
    bnez s0, rank
    li   a7, 0
    ecall
"#;

#[test]
fn gups_functional() {
    let exit = differential("gups/functional", MachineConfig::test(1), asm_setup(GUPS));
    assert_eq!(exit, RunExit::AllHalted);
}

#[test]
fn gups_paper_timing() {
    let exit = differential("gups/paper", paper_cost(1), asm_setup(GUPS));
    assert_eq!(exit, RunExit::AllHalted);
}

#[test]
fn is_rank_functional() {
    let exit = differential("is/functional", MachineConfig::test(1), asm_setup(IS_RANK));
    assert_eq!(exit, RunExit::AllHalted);
}

#[test]
fn is_rank_paper_timing() {
    let exit = differential("is/paper", paper_cost(1), asm_setup(IS_RANK));
    assert_eq!(exit, RunExit::AllHalted);
}

/// SPMD ring exchange over the fabric with a barrier — remote stores,
/// OLB translation, channel occupancy and barrier release timing.
const RING: &str = r#"
    li   a7, 2
    ecall                   # a0 = my_pe
    addi t2, a0, 1
    li   t3, 4
    rem  t2, t2, t3
    addi t2, t2, 1          # neighbour object id
    lui  t0, 0x8
    eaddie e5, t2, 0
    li   t4, 7
    mul  t4, t4, a0
    addi s0, t4, 20         # per-PE iteration count: 20 + 7*my_pe
loop:
    esd  s0, 0(t0)
    addi s0, s0, -1
    bnez s0, loop
    li   a7, 4
    ecall
    li   a7, 0
    ecall
"#;

#[test]
fn ring_exchange_skewed_paper_timing() {
    let exit = differential("ring/skewed", paper_cost(4), asm_setup(RING));
    assert_eq!(exit, RunExit::AllHalted);
}

/// Same ring but with identical per-PE timing: the scheduler ties on every
/// step, so this pins the block engine's tie-break horizon (`< lo`,
/// `<= hi`) against the interpreter's first-index `min_by_key`.
const RING_TIED: &str = r#"
    li   a7, 2
    ecall
    addi t2, a0, 1
    li   t3, 3
    rem  t2, t2, t3
    addi t2, t2, 1
    lui  t0, 0x8
    eaddie e5, t2, 0
    li   s0, 40
loop:
    esd  s0, 0(t0)
    addi s0, s0, -1
    bnez s0, loop
    li   a7, 4
    ecall
    li   a7, 0
    ecall
"#;

#[test]
fn ring_exchange_tied_paper_timing() {
    let exit = differential("ring/tied", paper_cost(3), asm_setup(RING_TIED));
    assert_eq!(exit, RunExit::AllHalted);
}

#[test]
fn ring_exchange_tied_functional() {
    let exit = differential(
        "ring/tied-functional",
        MachineConfig::test(3),
        asm_setup(RING_TIED),
    );
    assert_eq!(exit, RunExit::AllHalted);
}

/// Pointer-chasing through the extended register file (erle + erld) plus
/// erse — the raw xBGAS group, all through the Generic path.
const DIRECTORY: &str = r#"
    li   a7, 2
    ecall
    bnez a0, follower
    eaddie e8, zero, 2      # e8 names PE1 (the directory host)
    lui  t0, 0x8
    erle e9, t0, e8         # e9 = directory[0] = object 2
    lui  t1, 0x9
    erld a0, t1, e9         # follow the pointer
    eaddie e7, a0, 0        # e7 = loaded payload
    lui  t2, 0xA
    erse e7, t2, e8         # write it back to PE1 at 0xA000
follower:
    li   a7, 4
    ecall
    li   a7, 0
    ecall
"#;

#[test]
fn directory_pointer_chase() {
    let exit = differential("directory", paper_cost(2), |m| {
        let img = assemble(0x1000, DIRECTORY).unwrap();
        m.load_program(0x1000, &img.words);
        m.mem_mut(1).store_u64(0x8000, 2).unwrap();
        m.mem_mut(1).store_u64(0x9000, 777).unwrap();
    });
    assert_eq!(exit, RunExit::AllHalted);
}

/// Call/return through jal+jalr, console syscalls, CSR self-timing and the
/// address-management group — the Generic and control paths.
const MIXED: &str = r#"
    rdcycle s4
    li   a0, 10
    call fib
    mv   s5, a0
    rdcycle s6
    sub  s6, s6, s4         # elapsed cycles
    rdinstret s7
    li   a0, 72             # 'H'
    li   a7, 1
    ecall
    mv   a0, s5
    li   a7, 5
    ecall                   # print fib(10)
    eaddie e4, s5, 11
    eaddix e6, e4, -1
    eaddi  s8, e6, 5
    fence
    li   a7, 0
    ecall
fib:
    li   t0, 0
    li   t1, 1
    li   t2, 0
fib_loop:
    beqz a0, fib_done
    add  t2, t0, t1
    mv   t0, t1
    mv   t1, t2
    addi a0, a0, -1
    j    fib_loop
fib_done:
    mv   a0, t0
    ret
"#;

#[test]
fn mixed_control_csr_console() {
    for cfg in [MachineConfig::test(1), paper_cost(1)] {
        let exit = differential("mixed", cfg, asm_setup(MIXED));
        assert_eq!(exit, RunExit::AllHalted);
    }
}

/// A jump lands in the *middle* of a lui+addi pair that elsewhere executes
/// fused — the block engine must translate an overlapping block at the
/// mid-span entry pc.
const MIDSPAN: &str = r#"
    li   s0, 7
    j    mid
    lui  s0, 0x8            # dead when entered via `mid`
mid:
    addi s0, s0, 4          # s0 = 11
    lui  s1, 0x8
    addi s1, s1, 4          # the same pair, fused and fully executed
    li   a7, 0
    ecall
"#;

#[test]
fn jump_into_fused_span() {
    let exit = differential("midspan", MachineConfig::test(1), asm_setup(MIDSPAN));
    assert_eq!(exit, RunExit::AllHalted);
}

/// Straight-line code longer than a single translated block (the 64-inst
/// cap): execution must fall through from one block into the next.
#[test]
fn long_straight_line_crosses_block_cap() {
    let mut src = String::new();
    for _ in 0..150 {
        src.push_str("    addi a0, a0, 1\n");
    }
    src.push_str("    li a7, 0\n    ecall\n");
    let src: &'static str = Box::leak(src.into_boxed_str());
    let exit = differential("long-line", MachineConfig::test(1), asm_setup(src));
    assert_eq!(exit, RunExit::AllHalted);
}

/// ebreak must retire like ecall on both engines: cost charged, instret
/// bumped, pc left at the ebreak, then the Breakpoint fault delivered.
#[test]
fn ebreak_retires_consistently() {
    let exit = differential(
        "ebreak",
        MachineConfig::test(1),
        asm_setup("nop\nnop\nebreak\nnop"),
    );
    assert!(
        matches!(
            exit,
            RunExit::Fault {
                pe: 0,
                fault: SimFault::Breakpoint { pc: 0x1008 }
            }
        ),
        "got {exit:?}"
    );
}

/// Misaligned jalr target: precise InstructionMisaligned fault on both
/// engines, with the link register left unwritten.
#[test]
fn misaligned_jalr_faults_identically() {
    let src = "li t0, 0x1002\njalr ra, 0(t0)\nli a7, 0\necall";
    let exit = differential("misaligned-jalr", MachineConfig::test(1), asm_setup(src));
    match exit {
        RunExit::Fault {
            pe: 0,
            fault: SimFault::InstructionMisaligned { target: 0x1002, .. },
        } => {}
        other => panic!("expected misaligned fault, got {other:?}"),
    }
}

/// Misaligned jal and taken-branch targets (offset ≡ 2 mod 4), hand-encoded
/// because the assembler only emits aligned label offsets.
#[test]
fn misaligned_jal_and_branch_fault_identically() {
    use xbgas_isa::{encode, BranchCond, Inst, XReg};
    for (what, inst) in [
        (
            "jal",
            Inst::Jal {
                rd: XReg::RA,
                offset: 6,
            },
        ),
        (
            "branch",
            Inst::Branch {
                cond: BranchCond::Eq,
                rs1: XReg::ZERO,
                rs2: XReg::ZERO,
                offset: 6,
            },
        ),
    ] {
        let words = [encode(&inst).unwrap()];
        let exit = differential(what, MachineConfig::test(1), move |m| {
            m.load_program(0x1000, &words);
        });
        match exit {
            RunExit::Fault {
                pe: 0,
                fault:
                    SimFault::InstructionMisaligned {
                        pc: 0x1000,
                        target: 0x1006,
                    },
            } => {}
            other => panic!("{what}: expected misaligned fault, got {other:?}"),
        }
    }
}

/// A tight self-loop against an odd cycle budget: both engines must stop on
/// exactly the same cycle count at the CycleLimit boundary.
#[test]
fn cycle_limit_boundary() {
    let mut cfg = MachineConfig::test(1);
    cfg.max_cycles = 997;
    let exit = differential("cycle-limit", cfg, asm_setup("loop:\n    j loop"));
    assert_eq!(exit, RunExit::CycleLimit);
}

/// An unmapped-object OLB miss mid-kernel faults identically.
#[test]
fn olb_miss_faults_identically() {
    let src = "eset e5, 99\neld a0, 0(t0)\nli a7, 0\necall";
    let exit = differential("olb-miss", MachineConfig::test(1), asm_setup(src));
    assert!(
        matches!(
            exit,
            RunExit::Fault {
                pe: 0,
                fault: SimFault::OlbMiss { object_id: 99, .. }
            }
        ),
        "got {exit:?}"
    );
}

/// Undecodable word reached by fall-through: the block engine's
/// single-step fallback must reproduce the interpreter's fault exactly.
#[test]
fn illegal_instruction_fall_through() {
    let exit = differential(
        "illegal",
        MachineConfig::test(1),
        asm_setup("li t0, 3\nli t1, 4\nadd t2, t0, t1\n.word 0xffffffff"),
    );
    assert!(
        matches!(
            exit,
            RunExit::Fault {
                pe: 0,
                fault: SimFault::IllegalInstruction { pc: 0x100c, .. }
            }
        ),
        "got {exit:?}"
    );
}

/// The eaddie + remote-load fused pair, including a mid-pair use where the
/// loaded object id addresses a second PE.
const EADDIE_PAIR: &str = r#"
    li   a7, 2
    ecall
    bnez a0, follower
    li   t0, 0x8000
    eaddie e5, zero, 2      # fused with the following eld
    eld  s0, 0(t0)          # s0 = PE1's 0x8000
    li   t1, 0x9000
    li   t2, 2
    eaddie e9, t2, 0        # fused with the following erld
    erld s1, t1, e9         # s1 = PE1's 0x9000
    add  s2, s0, s1
follower:
    li   a7, 4
    ecall
    li   a7, 0
    ecall
"#;

#[test]
fn eaddie_remote_load_pair() {
    let exit = differential("eaddie-pair", paper_cost(2), |m| {
        let img = assemble(0x1000, EADDIE_PAIR).unwrap();
        m.load_program(0x1000, &img.words);
        m.mem_mut(1).store_u64(0x8000, 40).unwrap();
        m.mem_mut(1).store_u64(0x9000, 2).unwrap();
    });
    assert_eq!(exit, RunExit::AllHalted);
}

/// Barrier deadlock shape: PE1 halts before the barrier, PE0 then owns it.
#[test]
fn barrier_after_peer_halt() {
    let exit = differential("barrier-halt", MachineConfig::test(2), |m| {
        let a = assemble(0x1000, "li a7, 4\necall\nli a7, 0\necall").unwrap();
        let b = assemble(0x1000, "li a7, 0\necall").unwrap();
        m.load_words(0, 0x1000, &a.words);
        m.load_words(1, 0x1000, &b.words);
        m.hart_mut(0).pc = 0x1000;
        m.hart_mut(1).pc = 0x1000;
    });
    assert_eq!(exit, RunExit::AllHalted);
}

/// A bare load / op / store triad under a bump / decrement / branch tail:
/// `LoadOpStore` and `Addi2Branch` next to each other. GUPS and IS ranking
/// swallow their triads into `IdxRmw`, so neither reaches the bare one.
const STREAM_RMW: &str = r#"
    li   s2, 0x8000
    li   s0, 3
loop:
    ld   t3, 0(s2)
    addi t3, t3, 1
    sd   t3, 0(s2)
    addi s2, s2, 8
    addi s0, s0, -1
    bnez s0, loop
    li   a7, 0
    ecall
"#;

/// Run `src` once per cycle budget in `budgets`. With one hart the budget
/// *is* the scheduling horizon, so consecutive budgets land the block
/// engine's yield after every guest instruction in turn — between every
/// pair of components of every fused op the kernel translates to — and
/// each stop must match the interpreter's bit for bit.
fn sweep_budgets(
    what: &str,
    base: MachineConfig,
    words: &[u32],
    budgets: std::ops::RangeInclusive<u64>,
) {
    for max_cycles in budgets {
        let cfg = MachineConfig { max_cycles, ..base };
        differential(&format!("{what}/max_cycles={max_cycles}"), cfg, |m| {
            m.load_program(0x1000, words)
        });
    }
}

/// Three iterations of every loop of GUPS, IS (key generation and ranking)
/// and the bare triad, cut off at every cycle from 1 to past the exit
/// syscall: a horizon exit between every pair of components of `Li`,
/// `XorShift3`, `IdxRmw` (register and immediate forms), `LoadOpStore`,
/// `StoreInc`, `AddiBranch` and `Addi2Branch`, under both cost models.
#[test]
fn every_cycle_budget_stops_identically() {
    let gups = GUPS.replace("li   s0, 2000", "li   s0, 3");
    let is_rank = IS_RANK.replace("li   s0, 1024", "li   s0, 3");
    assert!(gups != GUPS && is_rank != IS_RANK, "iteration counts moved");
    for (kernel, src) in [
        ("gups", gups.as_str()),
        ("is", is_rank.as_str()),
        ("triad", STREAM_RMW),
    ] {
        let words = assemble(0x1000, src).unwrap().words;
        for (model, base) in [
            ("functional", MachineConfig::test(1)),
            ("paper", paper_cost(1)),
        ] {
            let mut whole = Machine::new(base);
            whole.load_program(0x1000, &words);
            let total = whole.run();
            assert_eq!(total.exit, RunExit::AllHalted);
            let budgets = 1..=total.makespan() + 1;
            sweep_budgets(&format!("{kernel}/{model}"), base, &words, budgets);
        }
    }
}

/// The same sweep over the full-length kernels: 1..=400 cycles functional
/// (14 GUPS iterations), 1..=6000 paper — 12 800 cut-offs. Too slow for a
/// debug build; CI's release step runs it with `-- --ignored`.
#[test]
#[ignore = "12 800 machine pairs; run in release with -- --ignored"]
fn every_cycle_budget_stops_identically_full_range() {
    for (kernel, src) in [("gups", GUPS), ("is", IS_RANK)] {
        let words = assemble(0x1000, src).unwrap().words;
        let functional = MachineConfig::test(1);
        sweep_budgets(&format!("{kernel}/functional"), functional, &words, 1..=400);
        sweep_budgets(&format!("{kernel}/paper"), paper_cost(1), &words, 1..=6000);
    }
}

const T0: u8 = 5;
const T1: u8 = 6;
const T2: u8 = 7;
const S0: u8 = 8;
const S1: u8 = 9;
const S2: u8 = 18;
const S3: u8 = 19;
/// Operand pool of the aliasing property below: `zero`, the scratch
/// registers, the loop counter `s0` with its neighbour `s1`, and the two
/// address bases `s2` / `s3`.
const POOL: [u8; 8] = [0, T0, T1, T2, S0, S1, S2, S3];

/// The random draws behind one idiom instance.
struct Operands {
    picks: [usize; 8],
    bits: u64,
    drawn: usize,
}

impl Operands {
    /// The idiom's canonical register three draws in four — so most
    /// instances still fuse — and any pool register otherwise, which is
    /// where `rd == base`, `x0` destinations and clobbered feeds come from.
    fn reg(&mut self, role: u8) -> XReg {
        let wild = (self.bits >> (2 * self.drawn)) & 3 == 3;
        let any = POOL[(self.picks[self.drawn % 8] + self.drawn / 8) % POOL.len()];
        self.drawn += 1;
        XReg::new(if wild { any } else { role })
    }

    fn flag(&mut self) -> bool {
        let bit = (self.bits >> (2 * self.drawn)) & 1 == 1;
        self.drawn += 1;
        bit
    }

    /// A backward (or self) branch offset of up to 15 instructions from
    /// instruction index `at`, one time in eight misaligned by two bytes.
    fn back_edge(&self, at: usize) -> i32 {
        let back = ((self.bits >> 56) & 15) as usize;
        let misalign = if (self.bits >> 60) & 7 == 7 { 2 } else { 0 };
        -4 * back.min(at) as i32 + misalign
    }
}

/// Append one instance of fusible template `kind` to `prog`.
fn push_idiom(prog: &mut Vec<Inst>, kind: u8, mut o: Operands) {
    let rmw_op = |o: &mut Operands| {
        if o.flag() {
            Inst::Op {
                op: AluOp::Xor,
                rd: o.reg(T2),
                rs1: o.reg(T2),
                rs2: o.reg(S1),
            }
        } else {
            Inst::OpImm {
                op: AluImmOp::Addi,
                rd: o.reg(T2),
                rs1: o.reg(T2),
                imm: 1,
            }
        }
    };
    let branch = |o: &mut Operands, at: usize| Inst::Branch {
        cond: if o.flag() {
            BranchCond::Ne
        } else {
            BranchCond::Lt
        },
        rs1: o.reg(S0),
        rs2: o.reg(0),
        offset: o.back_edge(at),
    };
    match kind {
        // One or three shift + xor pairs over the state register.
        0 => {
            let pairs = if o.flag() { 3 } else { 1 };
            for shamt in [13, 7, 17].into_iter().take(pairs) {
                prog.push(Inst::OpImm {
                    op: if o.flag() {
                        AluImmOp::Slli
                    } else {
                        AluImmOp::Srli
                    },
                    rd: o.reg(T0),
                    rs1: o.reg(S1),
                    imm: shamt,
                });
                prog.push(Inst::Op {
                    op: AluOp::Xor,
                    rd: o.reg(S1),
                    rs1: o.reg(S1),
                    rs2: o.reg(T0),
                });
            }
        }
        // Load / op / store, the store sometimes through the second base
        // or a different slot.
        1 => {
            let imm = if o.flag() { 8 } else { 0 };
            prog.push(Inst::Load {
                width: if o.flag() { LoadWidth::D } else { LoadWidth::W },
                rd: o.reg(T2),
                rs1: o.reg(S2),
                imm,
            });
            prog.push(rmw_op(&mut o));
            let store_base = if o.flag() && o.flag() { S3 } else { S2 };
            prog.push(Inst::Store {
                width: StoreWidth::D,
                rs1: o.reg(store_base),
                rs2: o.reg(T2),
                imm: if o.flag() && o.flag() { 8 - imm } else { imm },
            });
        }
        // Index / scale / base add, then the triad on the computed address.
        2 => {
            prog.push(if o.flag() {
                Inst::Op {
                    op: AluOp::And,
                    rd: o.reg(T1),
                    rs1: o.reg(S1),
                    rs2: o.reg(T0),
                }
            } else {
                Inst::OpImm {
                    op: AluImmOp::Andi,
                    rd: o.reg(T1),
                    rs1: o.reg(S1),
                    imm: 255,
                }
            });
            prog.push(Inst::OpImm {
                op: AluImmOp::Slli,
                rd: o.reg(T1),
                rs1: o.reg(T1),
                imm: 3,
            });
            prog.push(Inst::Op {
                op: AluOp::Add,
                rd: o.reg(T1),
                rs1: o.reg(S2),
                rs2: o.reg(T1),
            });
            prog.push(Inst::Load {
                width: LoadWidth::D,
                rd: o.reg(T2),
                rs1: o.reg(T1),
                imm: 0,
            });
            prog.push(rmw_op(&mut o));
            prog.push(Inst::Store {
                width: StoreWidth::D,
                rs1: o.reg(T1),
                rs2: o.reg(T2),
                imm: 0,
            });
        }
        // Streaming store + pointer bump.
        3 => {
            prog.push(Inst::Store {
                width: StoreWidth::W,
                rs1: o.reg(S3),
                rs2: o.reg(S1),
                imm: 0,
            });
            prog.push(Inst::OpImm {
                op: AluImmOp::Addi,
                rd: o.reg(S3),
                rs1: o.reg(S3),
                imm: 4,
            });
        }
        // Pointer bump + counter decrement + back-edge, or the two-
        // instruction back-edge alone.
        4 | 5 => {
            if kind == 4 {
                prog.push(Inst::OpImm {
                    op: AluImmOp::Addi,
                    rd: o.reg(S3),
                    rs1: o.reg(S3),
                    imm: 4,
                });
            }
            prog.push(Inst::OpImm {
                op: AluImmOp::Addi,
                rd: o.reg(S0),
                rs1: o.reg(S0),
                imm: -1,
            });
            let at = prog.len();
            prog.push(branch(&mut o, at));
        }
        // Constant materialisation; 0x1000 + lo points into the program.
        _ => {
            prog.push(Inst::Lui {
                rd: o.reg(T0),
                imm20: if o.flag() { 1 } else { 8 },
            });
            prog.push(Inst::OpImm {
                op: AluImmOp::Addi,
                rd: o.reg(T0),
                rs1: o.reg(T0),
                imm: 4 * (o.bits >> 58) as i32,
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Programs assembled from the fusible idioms with their operands
    /// drawn adversarially (see [`Operands::reg`]): whatever the translator
    /// decides to fuse, forward or refuse, and wherever a wild store lands
    /// — data, its own code, past the end of memory — both engines agree.
    /// Harts start with different counter values, so on two and three
    /// harts the scheduling horizon also cuts the fused ops mid-span.
    #[test]
    fn fused_idioms_survive_aliased_operands(
        idioms in prop::collection::vec(
            (0u8..7, prop::array::uniform8(0usize..POOL.len()), any::<u64>()),
            1..8,
        ),
    ) {
        let mut prog = Vec::new();
        for (kind, picks, bits) in idioms {
            push_idiom(&mut prog, kind, Operands { picks, bits, drawn: 0 });
        }
        prog.push(Inst::OpImm { op: AluImmOp::Addi, rd: XReg::new(17), rs1: XReg::ZERO, imm: 0 });
        prog.push(Inst::Ecall);
        let words: Vec<u32> = prog.iter().map(|i| encode(i).unwrap()).collect();
        let listing: Vec<String> = words.iter().map(|&w| xbgas_isa::disasm_word(w)).collect();
        for (model, cost) in [("functional", CostConfig::functional()), ("paper", CostConfig::paper())] {
            for n_harts in 1..=3 {
                let cfg = MachineConfig { cost, max_cycles: 4_000, ..MachineConfig::test(n_harts) };
                differential(&format!("{model}/{n_harts} harts/{listing:?}"), cfg, |m| {
                    m.load_program(0x1000, &words);
                    for pe in 0..n_harts {
                        let x = &mut m.hart_mut(pe).x;
                        x[T0 as usize] = 0x1004; // inside the program
                        x[T1 as usize] = 0xFFF8; // last doubleword of memory
                        x[T2 as usize] = 0x3FF;
                        x[S0 as usize] = 3 + pe as u64;
                        x[S1 as usize] = 0x2545_F491_4F6C_DD1D; // far out of range as a base
                        x[S2 as usize] = 0x8000;
                        x[S3 as usize] = 0x9000;
                    }
                });
            }
        }
    }
}
