//! The two simulator workloads: `sim_gups` (one hart, memory-path-bound)
//! and `sim_remote` (four harts, OLB + NoC + multi-hart scheduling).
//! Both run self-assembled kernels on the block engine under the paper's
//! timing model and check simulated memory against a native Rust replay.
//!
//! One machine serves a whole timed pass, run slice by slice: the guest
//! program does one slice of loop iterations and exits, the harness re-arms
//! every hart at the loop head, and the next `Machine::run` continues the
//! same computation (registers, memory, cache models and translated blocks
//! carry over). A slice is a rep of about 10 ms, short enough to fit
//! between the host's interference bursts.

use std::time::Instant;

use xbgas_sim::asm::assemble;
use xbgas_sim::cost::CostConfig;
use xbgas_sim::hart::HartState;
use xbgas_sim::{ExecMode, Machine, MachineConfig, RunExit};

use super::Metric;
use crate::measure::{Budget, Ctx, Rep};

const PROGRAM_BASE: u64 = 0x1000;

/// A machine whose kernel runs one slice of iterations per `Machine::run`.
struct Sliced {
    m: Machine,
    /// Address of the kernel's `loop` label.
    loop_pc: u64,
    /// Index of the x-register holding the remaining iteration count.
    count_reg: usize,
    /// Iterations per slice (per hart).
    slice: u64,
    /// Slices run so far.
    done: u64,
}

impl Sliced {
    /// Run the next slice as one rep of `ops` operations. A slice the
    /// machine does not run to its exit call fails every op.
    fn rep(&mut self, ops: u64) -> Rep {
        let harts = self.m.n_harts();
        let before: Vec<u64> = (0..harts).map(|pe| self.m.hart(pe).cycles).collect();
        if self.done > 0 {
            for pe in 0..harts {
                let hart = self.m.hart_mut(pe);
                hart.state = HartState::Running;
                hart.pc = self.loop_pc;
                hart.x[self.count_reg] = self.slice;
            }
        }
        let t0 = Instant::now();
        let summary = self.m.run();
        let host_s = t0.elapsed().as_secs_f64();
        self.done += 1;
        Rep {
            ops,
            host_s,
            sim_cycles: (0..harts)
                .map(|pe| self.m.hart(pe).cycles - before[pe])
                .max()
                .unwrap_or(0),
            failed: if summary.exit == RunExit::AllHalted {
                0
            } else {
                ops
            },
        }
    }
}

// ---------------------------------------------------------------------------
// sim_gups
// ---------------------------------------------------------------------------

/// Table base in guest memory.
const TABLE_BASE: u64 = 0x10_0000;

struct GupsShape {
    log2_entries: u32,
    /// Updates per slice.
    slice: u64,
}

/// 32 MiB table — four times the modelled 8 MB L2, so nearly every update
/// pays the full TLB → L1 → L2 → DRAM path; the caches start empty.
fn gups_shape(ctx: &Ctx) -> GupsShape {
    GupsShape {
        log2_entries: if ctx.quick { 18 } else { 22 },
        slice: 20_000,
    }
}

/// The xorshift start state: the seed's only way into the kernel (it moves
/// every table index), kept to 31 bits so one `li` loads it.
fn gups_rng_seed(ctx: &Ctx) -> u64 {
    (ctx.rng(1).next_u64() & 0x7fff_fffe) | 1
}

/// The GUPS inner loop of `xbench_sim`: 14 guest instructions per update.
fn gups_src(shape: &GupsShape, rng_seed: u64) -> String {
    format!(
        "    li   s1, {rng_seed}
    li   s2, {mask}
    li   s3, {TABLE_BASE}
    li   s0, {updates}
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
        mask = (1u64 << shape.log2_entries) - 1,
        updates = shape.slice,
    )
}

fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// From nothing to ready-to-issue: assemble, build the machine (the OLB is
/// filled by `Machine::new`), load the program, write the HPCC table
/// initialisation `T[i] = i`.
fn gups_machine(ctx: &Ctx) -> Sliced {
    let shape = gups_shape(ctx);
    let img = assemble(PROGRAM_BASE, &gups_src(&shape, gups_rng_seed(ctx))).expect("gups kernel");
    let table_bytes = 8usize << shape.log2_entries;
    let mut m = Machine::new(MachineConfig {
        n_harts: 1,
        mem_bytes: TABLE_BASE as usize + table_bytes,
        cost: CostConfig::paper(),
        max_cycles: u64::MAX,
        exec: ExecMode::Block,
    });
    m.load_program(PROGRAM_BASE, &img.words);
    let mem = m.mem_mut(0);
    let mut chunk = Vec::with_capacity(8 * 4096);
    for base in (0..1u64 << shape.log2_entries).step_by(4096) {
        chunk.clear();
        for i in base..base + 4096 {
            chunk.extend_from_slice(&i.to_le_bytes());
        }
        mem.write_bytes(TABLE_BASE + 8 * base, &chunk)
            .expect("table fits guest memory");
    }
    Sliced {
        m,
        loop_pc: img.label("loop").expect("kernel has a loop"),
        count_reg: 8, // s0
        slice: shape.slice,
        done: 0,
    }
}

/// One fresh `sim_gups` set-up, in seconds.
pub fn gups_setup(ctx: &Ctx) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(gups_machine(ctx));
    t0.elapsed().as_secs_f64()
}

/// Undo the update stream natively (XOR is an involution, as in the HPCC
/// verification pass) and count table words that do not return to `i`.
fn gups_mismatches(ctx: &Ctx, run: &mut Sliced) -> u64 {
    let shape = gups_shape(ctx);
    let mask = (1u64 << shape.log2_entries) - 1;
    let mem = run.m.mem_mut(0);
    let mut s = gups_rng_seed(ctx);
    for _ in 0..run.done * shape.slice {
        s = xorshift(s);
        let addr = TABLE_BASE + 8 * (s & mask);
        let v = mem.load_u64(addr).expect("table in range");
        mem.store_u64(addr, v ^ s).expect("table in range");
    }
    (0..=mask)
        .filter(|&i| mem.load_u64(TABLE_BASE + 8 * i).ok() != Some(i))
        .count() as u64
}

/// Timed `sim_gups` slices; op = one table update. The table is checked
/// once, after the last slice; mismatches are charged to the last rep.
pub fn gups_run(ctx: &Ctx, budget: &Budget, layers: &mut Vec<Metric>) -> Vec<Rep> {
    let ops = gups_shape(ctx).slice;
    let mut run = gups_machine(ctx);
    let mut reps = budget.run(|| {
        let _span = ctx.span("sim.machine.run");
        run.rep(ops)
    });
    if let Some(last) = reps.last_mut() {
        last.failed += gups_mismatches(ctx, &mut run);
    }
    let hart = run.m.hart(0);
    layers.push(Metric::new(
        "sim.ipc",
        hart.instret as f64 / hart.cycles.max(1) as f64,
        "inst/cycle",
    ));
    reps
}

// ---------------------------------------------------------------------------
// sim_remote
// ---------------------------------------------------------------------------

const HARTS: usize = 4;
/// Read-only source region on every PE: 8192 words (64 KiB) — L2-resident,
/// so the memory model stays out of the way.
const REGION_BASE: u64 = 0x10_0000;
const REGION_WORDS: u64 = 8192;
/// Mailbox on every PE, written only by its right neighbour.
const MAILBOX_BASE: u64 = 0x20_0000;
const MAILBOX_WORDS: u64 = 1024;
const REMOTE_MEM_BYTES: usize = 0x30_0000;
const INDEX_STRIDE: u64 = 7;

/// Loop iterations per hart per slice.
const REMOTE_SLICE: u64 = 5_000;

/// Each hart loads from its right neighbour's region (`eld`), folds the
/// value into an accumulator and stores it into its mailbox on the left
/// neighbour (`esd`). Every target word has one writer, so final memory
/// does not depend on how the harts interleave.
fn remote_src(iters: u64, start: u64) -> String {
    format!(
        "    li   a7, 2
    ecall
    mv   s0, a0
    addi t1, s0, 1
    andi t1, t1, 3
    addi t1, t1, 1
    addi t2, s0, 3
    andi t2, t2, 3
    addi t2, t2, 1
    eaddie e28, t1, 0
    eaddie e29, t2, 0
    li   s1, {start}
    add  s1, s1, s0
    li   s2, {rmask}
    li   s3, {REGION_BASE}
    li   s4, {MAILBOX_BASE}
    li   s5, {mmask}
    li   s6, {iters}
    li   s7, 0
    li   s8, 0
loop:
    and  t0, s1, s2
    slli t0, t0, 3
    add  t3, s3, t0
    eld  t5, 0(t3)
    add  s7, s7, t5
    xor  s7, s7, s8
    and  t0, s8, s5
    slli t0, t0, 3
    add  t4, s4, t0
    esd  s7, 0(t4)
    addi s1, s1, {INDEX_STRIDE}
    addi s8, s8, 1
    addi s6, s6, -1
    bnez s6, loop
    li   a7, 4
    ecall
    li   a7, 0
    ecall
",
        rmask = REGION_WORDS - 1,
        mmask = MAILBOX_WORDS - 1,
    )
}

fn remote_start(ctx: &Ctx) -> u64 {
    ctx.rng(2).next_u64() & 0xf_ffff
}

/// The seed-derived contents of PE `pe`'s read-only region.
fn region_word(ctx: &Ctx, pe: usize, i: u64) -> u64 {
    let mut rng = ctx.rng(3 + ((pe as u64) << 32 | i));
    rng.next_u64()
}

fn remote_machine(ctx: &Ctx) -> Sliced {
    let img = assemble(PROGRAM_BASE, &remote_src(REMOTE_SLICE, remote_start(ctx)))
        .expect("remote kernel");
    let mut m = Machine::new(MachineConfig {
        n_harts: HARTS,
        mem_bytes: REMOTE_MEM_BYTES,
        cost: CostConfig::paper(),
        max_cycles: u64::MAX,
        exec: ExecMode::Block,
    });
    m.load_program(PROGRAM_BASE, &img.words);
    for pe in 0..HARTS {
        let mut bytes = Vec::with_capacity(8 * REGION_WORDS as usize);
        for i in 0..REGION_WORDS {
            bytes.extend_from_slice(&region_word(ctx, pe, i).to_le_bytes());
        }
        m.mem_mut(pe)
            .write_bytes(REGION_BASE, &bytes)
            .expect("region fits guest memory");
    }
    Sliced {
        m,
        loop_pc: img.label("loop").expect("kernel has a loop"),
        count_reg: 22, // s6
        slice: REMOTE_SLICE,
        done: 0,
    }
}

/// One fresh `sim_remote` set-up, in seconds.
pub fn remote_setup(ctx: &Ctx) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(remote_machine(ctx));
    t0.elapsed().as_secs_f64()
}

/// Native replay of the kernel: mailbox words that differ from the
/// simulated ones.
fn remote_mismatches(ctx: &Ctx, run: &Sliced) -> u64 {
    let iters = run.done * REMOTE_SLICE;
    let mut bad = 0;
    for hart in 0..HARTS {
        let (right, left) = ((hart + 1) % HARTS, (hart + 3) % HARTS);
        let mut mailbox = vec![0u64; MAILBOX_WORDS as usize];
        let mut idx = remote_start(ctx) + hart as u64;
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_add(region_word(ctx, right, idx & (REGION_WORDS - 1))) ^ i;
            mailbox[(i & (MAILBOX_WORDS - 1)) as usize] = acc;
            idx += INDEX_STRIDE;
        }
        bad += mailbox
            .iter()
            .enumerate()
            .filter(|&(j, &want)| {
                run.m.mem(left).load_u64(MAILBOX_BASE + 8 * j as u64).ok() != Some(want)
            })
            .count() as u64;
    }
    bad
}

/// Timed `sim_remote` slices; op = one remote access (an `eld` or an
/// `esd`). The mailboxes are checked once, after the last slice.
pub fn remote_run(ctx: &Ctx, budget: &Budget, layers: &mut Vec<Metric>) -> Vec<Rep> {
    let ops = 2 * REMOTE_SLICE * HARTS as u64;
    let mut run = remote_machine(ctx);
    let mut reps = budget.run(|| {
        let _span = ctx.span("sim.machine.run");
        run.rep(ops)
    });
    if let Some(last) = reps.last_mut() {
        last.failed += remote_mismatches(ctx, &run);
    }

    let m = &mut run.m;
    let noc = m.noc_stats();
    layers.push(Metric::new(
        "sim.noc.transactions",
        noc.transactions as f64,
        "count",
    ));
    // Cycles the interconnect charged beyond an uncontended transfer of the
    // same bytes: what congestion and occupancy added.
    let free = noc.transactions * m.config().cost.noc.transfer_cost(8, 0);
    layers.push(Metric::new(
        "sim.noc.stall_cycles",
        noc.cycles.saturating_sub(free) as f64,
        "cycles",
    ));
    let (mut hit, mut all) = (0u64, 0u64);
    for pe in 0..HARTS {
        let s = m.olb_mut(pe).stats();
        hit += s.translated + s.local;
        all += s.translated + s.local + s.faults;
    }
    layers.push(Metric::new(
        "sim.olb.hit_rate",
        hit as f64 / all.max(1) as f64,
        "ratio",
    ));
    reps
}
