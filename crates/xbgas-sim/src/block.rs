//! Basic-block translation engine.
//!
//! The interpretive stepper in [`crate::machine`] pays a fetch, a decode and
//! a full dispatch for every guest instruction. This module removes that
//! overhead for the common case: at first execution of a `pc`, the
//! contiguous run of instructions up to the next control transfer (or
//! `ecall`/`ebreak`) is decoded **once** into a flat IR of [`BlockOp`]s and
//! cached per PE. Subsequent visits dispatch straight over the pre-decoded
//! ops. Hot idioms from the paper's GUPS/IS kernels are additionally fused
//! into superinstructions with translation-time-precomputed operands:
//!
//! * `lui`+`addi` constant materialisation ([`BlockOp::Li`]),
//! * the xorshift `slli`/`srli`+`xor` pair ([`BlockOp::ShiftXor`]) and the
//!   full three-pair RNG round ([`BlockOp::XorShift3`]),
//! * load / ALU-op / store read-modify-write triads
//!   ([`BlockOp::LoadOpStore`]) and the six-instruction indexed
//!   table-update of GUPS and IS ranking ([`BlockOp::IdxRmw`]),
//! * the streaming store + pointer-bump pair ([`BlockOp::StoreInc`]),
//! * `addi`+conditional-branch loop back-edges ([`BlockOp::AddiBranch`])
//!   and the three-instruction bump/decrement/branch loop tail
//!   ([`BlockOp::Addi2Branch`]),
//! * `eaddie` + the remote load it feeds ([`BlockOp::EaddiePair`]).
//!
//! Within a fused op, intermediate values are forwarded in host registers
//! (the guest dependency chain never round-trips through the in-memory
//! register file); every architectural register write still happens, and
//! the fusion guards — `x0` exclusions, base-register preservation,
//! feeds-chains — make the forwarded values provably identical.
//!
//! **Exactness contract.** The block engine must be bit-identical to the
//! stepper — registers, memory, `instret` *and* per-hart cycle counts — so
//! the interpreter remains a usable differential oracle
//! (`tests/sim_differential.rs`). Three rules make that hold:
//!
//! 1. *Per-component commit.* Every guest instruction, including each
//!    component of a fused superinstruction, commits `pc`/`cycles`/`instret`
//!    individually and re-checks the scheduling horizon first, so a block
//!    can yield (or fault) mid-fusion exactly where the stepper would have
//!    interleaved another hart. Resuming mid-span simply translates a fresh
//!    (overlapping) block keyed at the resume `pc`. There is one pass
//!    (`exec_ops`) and it always checks: an earlier pre-paid pass without
//!    horizon checks could not be entered by any block containing a memory
//!    access under a charging memory model, i.e. by no timed kernel.
//! 2. *Scheduling horizon.* The discrete-event scheduler runs the hart with
//!    the smallest cycle count, ties to the smallest index. While a block
//!    executes, every other hart is frozen, so hart `pe` stays the
//!    scheduler's choice exactly while `cycles < lo` (the minimum over
//!    running lower-index harts) and `cycles <= hi` (minimum over running
//!    higher-index harts) — a single precomputed `limit = min(lo, hi + 1,
//!    max_cycles)` per dispatch.
//! 3. *Invalidation.* Every store (local, remote, from either engine) passes
//!    through [`Machine::note_store`]; a hit on translated bytes drops the
//!    affected blocks and raises `code_dirty`, which forces the engine out
//!    of the current block before it can execute a stale op — the next
//!    dispatch re-translates from current memory (self-modifying code, see
//!    `tests/sim_smc.rs`).
//!
//! Instructions without a specialised op (CSR, fences, environment calls,
//! most xBGAS ops) fall back to [`Machine::exec_inst`] — the same code the
//! stepper runs — so only the specialised component bodies of the one pass
//! need differential scrutiny: `tests/sim_differential.rs` stops it at
//! every component boundary and aliases every operand of every fused idiom.
//!
//! **Hart hand-over.** Harts are boxed in [`Machine`]. For the length of a
//! block the running hart's box trades places with the run loop's one
//! spare box, and around each `exec_inst` fallback (every remote access
//! among them) it trades back and forth again: each hand-over moves a
//! pointer, never the ~560-byte hart. The translated-block cache is a
//! [`WordMap`] keyed by start pc.

use std::sync::Arc;

use crate::cost::CostConfig;
use crate::hart::{branch_taken, eval_op, eval_op_imm, Hart, HartState, SimFault};
use crate::hash::WordMap;
use crate::machine::{Machine, RunExit, RunSummary};
use xbgas_isa::{decode_all, AluImmOp, AluOp, BranchCond, EReg, Inst, LoadWidth, StoreWidth, XReg};

/// Upper bound on guest instructions per translated block. Keeps
/// translation cost bounded when straight-line code runs into data.
const MAX_BLOCK_INSTS: usize = 64;

/// One op of the flat block IR. Operands are resolved at translation time;
/// the cycle cost of a component is `fetch` plus its class's execute cost,
/// which the pass reads from the machine's [`CostConfig`] once per dispatch
/// — only register-register ops, whose class varies (ALU / mul / div),
/// carry theirs. Memory components add [`Machine::local_access_cost`] at
/// run time, exactly as the stepper does.
#[derive(Debug)]
pub(crate) enum BlockOp {
    /// `lui`, or `auipc` with the pc (a static property of the block)
    /// folded in: the result is fully precomputed either way.
    Const { rd: XReg, value: u64 },
    /// Register-immediate ALU op.
    OpImm(ImmOp),
    /// Register-register ALU op; `cost` reflects the mul/div class.
    Op {
        op: AluOp,
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
        cost: u64,
    },
    /// Local load.
    Load {
        width: LoadWidth,
        rd: XReg,
        rs1: XReg,
        imm: i64,
    },
    /// Local store.
    Store(MemStore),
    /// `jal` with the target precomputed.
    Jal { rd: XReg, target: u64 },
    /// `jalr` (target is register-dependent).
    Jalr { rd: XReg, rs1: XReg, imm: i64 },
    /// Conditional branch with the taken target precomputed.
    Branch {
        cond: BranchCond,
        rs1: XReg,
        rs2: XReg,
        taken: u64,
    },
    /// Fused `lui rd, hi` + `addi rd, rd, lo`: both the intermediate and the
    /// final constant are precomputed.
    Li { rd: XReg, hi: u64, value: u64 },
    /// Fused `slli`/`srli` + `xor` consuming the shifted value — the
    /// xorshift RNG idiom at the heart of GUPS. The shift direction and
    /// masked amount are resolved at translation time so execution is a
    /// raw shift, not an ALU-op dispatch.
    ShiftXor {
        left: bool,
        shamt: u32,
        srd: XReg,
        srs1: XReg,
        xrd: XReg,
        xrs1: XReg,
        xrs2: XReg,
    },
    /// Fused load / ALU op / store to the same address (read-modify-write).
    /// Fusion guards guarantee neither the load nor the op clobbers the base
    /// register, so the effective address is computed once.
    LoadOpStore { base_reg: XReg, triad: Triad },
    /// Fused three chained `slli`/`srli`+`xor` pairs over one state
    /// register — the complete xorshift RNG round shared by GUPS and the
    /// IS key generator. The state value is forwarded in a host register
    /// across all six components (each intermediate is still written to
    /// the architectural file), so the round costs pure ALU work instead
    /// of six store-to-load round-trips.
    XorShift3 {
        s: XReg,
        t: [XReg; 3],
        left: [bool; 3],
        shamt: [u32; 3],
    },
    /// Fused six-instruction indexed read-modify-write — the table-update
    /// idiom at the heart of both GUPS and IS rank: an index-producing ALU
    /// op, a scale (`slli`, reading `idx.rd` by the feeds guard), the base
    /// add, then a [`Triad`] on the computed address `add_rd`. One dispatch
    /// covers six guest instructions.
    IdxRmw {
        idx: Rmw,
        shamt: u32,
        sh_rd: XReg,
        add_rd: XReg,
        add_rs1: XReg,
        add_rs2: XReg,
        triad: Triad,
    },
    /// Fused store + the register-immediate op that follows it — the
    /// streaming post-increment idiom (`sw`/`addi`) of the IS key
    /// generation loop.
    StoreInc { store: MemStore, inc: ImmOp },
    /// Fused `addi` + conditional branch reading its result — the canonical
    /// counted-loop back-edge.
    AddiBranch(BackEdge),
    /// Fused register-immediate op + `addi` + conditional branch reading
    /// the `addi`'s result — the "bump pointer, decrement counter, loop"
    /// tail shared by streaming kernels.
    Addi2Branch { bump: ImmOp, edge: BackEdge },
    /// Fused `eaddie` + the remote load it feeds the object ID to. The
    /// first component is specialised; the load half runs through
    /// [`Machine::exec_inst`] (remote resolution involves the OLB, the
    /// interconnect and the remote memory model).
    EaddiePair {
        ext: EReg,
        rs1: XReg,
        imm: i32,
        inst: Inst,
        word: u32,
    },
    /// Anything else: pre-decoded, executed by the stepper's own
    /// [`Machine::exec_inst`].
    Generic { inst: Inst, word: u32 },
}

/// `op rd, rs1, imm`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ImmOp {
    op: AluImmOp,
    rd: XReg,
    rs1: XReg,
    imm: i32,
}

/// `s<width> rs2, imm(rs1)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemStore {
    width: StoreWidth,
    rs1: XReg,
    rs2: XReg,
    imm: i64,
}

/// A plain ALU instruction as a component of a fused read-modify-write:
/// register-register (`and`, `xor`: GUPS) or register-immediate (`andi`,
/// `addi`: IS ranking), with its cycle cost.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rmw {
    op: RmwOp,
    rd: XReg,
    rs1: XReg,
    cost: u64,
}

/// The operation and second operand of an [`Rmw`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum RmwOp {
    /// `op rd, rs1, rs2`.
    Reg { op: AluOp, rs2: XReg },
    /// `op rd, rs1, imm`.
    Imm { op: AluImmOp, imm: i32 },
}

/// Load / ALU op / store on one address: `l<lw> lrd, imm(base)`, an
/// [`Rmw`] reading `lrd`, `s<sw> rmw.rd, imm(base)`. The store's base,
/// offset and source register are the load's and the op's by the
/// `same_slot` guard, so they are not recorded twice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Triad {
    lw: LoadWidth,
    lrd: XReg,
    imm: i64,
    rmw: Rmw,
    sw: StoreWidth,
}

/// `addi ard, ars1, aimm` + a conditional branch reading `ard`, with the
/// taken target precomputed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BackEdge {
    ard: XReg,
    ars1: XReg,
    aimm: i32,
    cond: BranchCond,
    brs1: XReg,
    brs2: XReg,
    taken: u64,
}

/// A translated basic block: the guest address range it was decoded from
/// and its fused op sequence.
#[derive(Debug)]
pub(crate) struct Block {
    /// Guest pc of the first instruction (cache key).
    pub(crate) start: u64,
    /// One past the last instruction byte (for invalidation overlap tests).
    pub(crate) end: u64,
    ops: Vec<BlockOp>,
}

/// Per-PE cache of translated blocks, keyed by start pc, plus the covering
/// address range so the store-side invalidation probe is two compares.
pub(crate) struct BlockCache {
    map: WordMap<u64, Arc<Block>>,
    lo: u64,
    hi: u64,
}

impl BlockCache {
    pub(crate) fn new() -> Self {
        BlockCache {
            map: WordMap::default(),
            lo: u64::MAX,
            hi: 0,
        }
    }

    /// Drop every translation (program reload, direct memory mutation).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.lo = u64::MAX;
        self.hi = 0;
    }

    /// Does `[addr, addr + bytes)` touch any translated bytes? False in
    /// O(1) for the overwhelmingly common data-store case (and always false
    /// when the cache is empty, e.g. in interpreter mode).
    pub(crate) fn overlaps(&self, addr: u64, bytes: usize) -> bool {
        addr < self.hi && addr + bytes as u64 > self.lo
    }

    /// Remove every block whose range intersects `[addr, addr + bytes)`.
    pub(crate) fn invalidate(&mut self, addr: u64, bytes: usize) {
        let end = addr + bytes as u64;
        self.map.retain(|_, b| b.end <= addr || b.start >= end);
        self.lo = u64::MAX;
        self.hi = 0;
        for b in self.map.values() {
            self.lo = self.lo.min(b.start);
            self.hi = self.hi.max(b.end);
        }
    }

    fn get(&self, pc: u64) -> Option<Arc<Block>> {
        self.map.get(&pc).cloned()
    }

    fn insert(&mut self, block: Arc<Block>) {
        self.lo = self.lo.min(block.start);
        self.hi = self.hi.max(block.end);
        self.map.insert(block.start, block);
    }

    /// Number of resident translations (used by tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// Discover and translate the basic block starting at `start` on PE `pe`.
/// Returns `None` when even the first word cannot be fetched or decoded —
/// the caller then takes one interpretive step to reproduce the exact fault.
fn translate(m: &Machine, pe: usize, start: u64) -> Option<Block> {
    let mut words = Vec::with_capacity(MAX_BLOCK_INSTS);
    for i in 0..MAX_BLOCK_INSTS {
        match m.mems[pe].load_u32(start + 4 * i as u64) {
            Ok(w) => words.push(w),
            Err(_) => break,
        }
    }
    let mut insts: Vec<(Inst, u32)> = Vec::with_capacity(words.len());
    for (i, d) in decode_all(&words).into_iter().enumerate() {
        match d {
            Ok(inst) => {
                insts.push((inst, words[i]));
                if inst.ends_block() {
                    break;
                }
            }
            // An undecodable word ends the block; if execution actually
            // falls through to it, the next dispatch single-steps and
            // faults exactly as the interpreter would.
            Err(_) => break,
        }
    }
    if insts.is_empty() {
        return None;
    }
    Some(Block {
        start,
        end: start + 4 * insts.len() as u64,
        ops: fuse(&m.config.cost, start, &insts),
    })
}

/// Classify a component of a read-modify-write fusion candidate: `Some`
/// when `inst` is a plain ALU op, paired with whether it reads `lrd` (for
/// the op in the middle of a triad: the freshly loaded value).
fn rmw_parts(cost: &CostConfig, inst: Inst, lrd: XReg) -> Option<(Rmw, bool)> {
    let fetch = cost.fetch_cycles;
    match inst {
        Inst::Op { op, rd, rs1, rs2 } => Some((
            Rmw {
                op: RmwOp::Reg { op, rs2 },
                rd,
                rs1,
                cost: fetch + cost.op_cycles(op),
            },
            rs1 == lrd || rs2 == lrd,
        )),
        Inst::OpImm { op, rd, rs1, imm } => Some((
            Rmw {
                op: RmwOp::Imm { op, imm },
                rd,
                rs1,
                cost: fetch + cost.alu_cycles,
            },
            rs1 == lrd,
        )),
        _ => None,
    }
}

/// Match a load / ALU op / store triad on one slot at the head of `insts`;
/// the middle op may be register-register (GUPS `xor`) or
/// register-immediate (IS `addi`). Returns the base register and the
/// operand record.
fn triad_at(cost: &CostConfig, insts: &[(Inst, u32)]) -> Option<(XReg, Triad)> {
    let &[(
        Inst::Load {
            width: lw,
            rd: lrd,
            rs1: base,
            imm,
        },
        _,
    ), (mid, _), (
        Inst::Store {
            width: sw,
            rs1: srs1,
            rs2: srs2,
            imm: simm,
        },
        _,
    )] = insts.get(..3)?
    else {
        return None;
    };
    let (rmw, consumes_load) = rmw_parts(cost, mid, lrd)?;
    // The base register must survive all three components so the
    // effective address can be computed once.
    let base_preserved = lrd != base && rmw.rd != base;
    let same_slot = srs1 == base && simm == imm && srs2 == rmw.rd;
    (consumes_load && base_preserved && same_slot).then_some((
        base,
        Triad {
            lw,
            lrd,
            imm: imm as i64,
            rmw,
            sw,
        },
    ))
}

/// Match `addi` + a conditional branch reading its result at the head of
/// `insts`, the `addi` sitting at `pc`.
fn back_edge_at(pc: u64, insts: &[(Inst, u32)]) -> Option<BackEdge> {
    let &[(
        Inst::OpImm {
            op: AluImmOp::Addi,
            rd: ard,
            rs1: ars1,
            imm: aimm,
        },
        _,
    ), (
        Inst::Branch {
            cond,
            rs1: brs1,
            rs2: brs2,
            offset,
        },
        _,
    )] = insts.get(..2)?
    else {
        return None;
    };
    (brs1 == ard || brs2 == ard).then_some(BackEdge {
        ard,
        ars1,
        aimm,
        cond,
        brs1,
        brs2,
        taken: (pc + 4).wrapping_add(offset as i64 as u64),
    })
}

/// Lower decoded instructions to the fused IR. Patterns are tried longest
/// first; anything unmatched becomes a specialised single or a
/// [`BlockOp::Generic`].
fn fuse(cost: &CostConfig, start: u64, insts: &[(Inst, u32)]) -> Vec<BlockOp> {
    let mut ops = Vec::with_capacity(insts.len());
    let mut i = 0;
    while i < insts.len() {
        let pc = start + 4 * i as u64;

        // Three chained shift+xor pairs over one state register: the full
        // xorshift round. Matched before the generic pair so the whole RNG
        // chain runs in host registers.
        if i + 5 < insts.len() {
            let pair = |j: usize| -> Option<(XReg, XReg, bool, u32)> {
                if let (
                    Inst::OpImm {
                        op: sop,
                        rd: srd,
                        rs1: srs1,
                        imm: simm,
                    },
                    Inst::Op {
                        op: AluOp::Xor,
                        rd: xrd,
                        rs1: xrs1,
                        rs2: xrs2,
                    },
                ) = (insts[j].0, insts[j + 1].0)
                {
                    let left = match sop {
                        AluImmOp::Slli => true,
                        AluImmOp::Srli => false,
                        _ => return None,
                    };
                    // xor is commutative, so either operand order works.
                    let feeds = (xrs1 == xrd && xrs2 == srd) || (xrs1 == srd && xrs2 == xrd);
                    // x0 would silently zero a forwarded value; refuse.
                    if feeds && srs1 == xrd && srd != xrd && srd != XReg::ZERO && xrd != XReg::ZERO
                    {
                        return Some((xrd, srd, left, (simm as u32) & 0x3F));
                    }
                }
                None
            };
            if let (Some(p0), Some(p1), Some(p2)) = (pair(i), pair(i + 2), pair(i + 4)) {
                if p0.0 == p1.0 && p1.0 == p2.0 {
                    ops.push(BlockOp::XorShift3 {
                        s: p0.0,
                        t: [p0.1, p1.1, p2.1],
                        left: [p0.2, p1.2, p2.2],
                        shamt: [p0.3, p1.3, p2.3],
                    });
                    i += 6;
                    continue;
                }
            }
        }

        // Six-instruction indexed read-modify-write: index ALU op, scale
        // (`slli`), base add, then a triad on the computed address — the
        // table-update idiom of both GUPS and IS rank.
        if i + 5 < insts.len() {
            if let (
                Some((idx, _)),
                Inst::OpImm {
                    op: AluImmOp::Slli,
                    rd: sh_rd,
                    rs1: sh_rs1,
                    imm: sh_imm,
                },
                Inst::Op {
                    op: AluOp::Add,
                    rd: add_rd,
                    rs1: add_rs1,
                    rs2: add_rs2,
                },
                Some((base, triad)),
            ) = (
                rmw_parts(cost, insts[i].0, XReg::ZERO),
                insts[i + 1].0,
                insts[i + 2].0,
                triad_at(cost, &insts[i + 3..]),
            ) {
                // Every forwarded intermediate must live in a real
                // register — x0 would silently zero it.
                let no_zero = idx.rd != XReg::ZERO
                    && sh_rd != XReg::ZERO
                    && add_rd != XReg::ZERO
                    && triad.lrd != XReg::ZERO
                    && triad.rmw.rd != XReg::ZERO;
                let feeds = no_zero
                    && sh_rs1 == idx.rd
                    && (add_rs1 == sh_rd || add_rs2 == sh_rd)
                    && base == add_rd;
                if feeds {
                    ops.push(BlockOp::IdxRmw {
                        idx,
                        shamt: (sh_imm as u32) & 0x3F,
                        sh_rd,
                        add_rd,
                        add_rs1,
                        add_rs2,
                        triad,
                    });
                    i += 6;
                    continue;
                }
            }
        }

        if let Some((base_reg, triad)) = triad_at(cost, &insts[i..]) {
            ops.push(BlockOp::LoadOpStore { base_reg, triad });
            i += 3;
            continue;
        }

        // Register-immediate op ; addi ; branch reading the addi's result —
        // the "bump pointer, decrement counter, loop" tail of streaming
        // kernels (IS ranking and key generation both end this way).
        if let (Inst::OpImm { op, rd, rs1, imm }, Some(edge)) =
            (insts[i].0, back_edge_at(pc + 4, &insts[i + 1..]))
        {
            let bump = ImmOp { op, rd, rs1, imm };
            ops.push(BlockOp::Addi2Branch { bump, edge });
            i += 3;
            continue;
        }

        // addi ; branch reading its result — counted-loop back-edge.
        if let Some(edge) = back_edge_at(pc, &insts[i..]) {
            ops.push(BlockOp::AddiBranch(edge));
            i += 2;
            continue;
        }

        if i + 1 < insts.len() {
            let (a, b) = (insts[i].0, insts[i + 1].0);

            // lui rd, hi ; addi rd, rd, lo — constant/address materialisation.
            if let (
                Inst::Lui { rd, imm20 },
                Inst::OpImm {
                    op: AluImmOp::Addi,
                    rd: ard,
                    rs1: ars1,
                    imm,
                },
            ) = (a, b)
            {
                if ard == rd && ars1 == rd {
                    let hi = ((imm20 as i64) << 12) as u64;
                    ops.push(BlockOp::Li {
                        rd,
                        hi,
                        value: eval_op_imm(AluImmOp::Addi, hi, imm),
                    });
                    i += 2;
                    continue;
                }
            }

            // slli/srli t, s, k ; xor consuming t — the xorshift step.
            if let (
                Inst::OpImm {
                    op: sop @ (AluImmOp::Slli | AluImmOp::Srli),
                    rd: srd,
                    rs1: srs1,
                    imm: simm,
                },
                Inst::Op {
                    op: AluOp::Xor,
                    rd: xrd,
                    rs1: xrs1,
                    rs2: xrs2,
                },
            ) = (a, b)
            {
                if xrs1 == srd || xrs2 == srd {
                    ops.push(BlockOp::ShiftXor {
                        left: matches!(sop, AluImmOp::Slli),
                        // Same masking as `eval_op` for Sll/Srl.
                        shamt: (simm as u32) & 0x3F,
                        srd,
                        srs1,
                        xrd,
                        xrs1,
                        xrs2,
                    });
                    i += 2;
                    continue;
                }
            }

            // store ; register-immediate op — the streaming post-increment
            // idiom (`sw`/`addi`). Skipped when the following instruction
            // is a branch, which pairs more profitably as a back-edge.
            if let (
                Inst::Store {
                    width,
                    rs1,
                    rs2,
                    imm,
                },
                Inst::OpImm {
                    op: p_op,
                    rd: p_rd,
                    rs1: p_rs1,
                    imm: p_imm,
                },
            ) = (a, b)
            {
                let next_is_branch = matches!(insts.get(i + 2), Some((Inst::Branch { .. }, _)));
                if !next_is_branch {
                    ops.push(BlockOp::StoreInc {
                        store: MemStore {
                            width,
                            rs1,
                            rs2,
                            imm: imm as i64,
                        },
                        inc: ImmOp {
                            op: p_op,
                            rd: p_rd,
                            rs1: p_rs1,
                            imm: p_imm,
                        },
                    });
                    i += 2;
                    continue;
                }
            }

            // eaddie ; remote load addressed through the just-written e-reg.
            if let (Inst::Eaddie { ext, rs1, imm }, second) = (a, b) {
                let feeds_load = match second {
                    Inst::ELoad { rs1: lrs1, .. } => EReg::paired_with(lrs1) == ext,
                    Inst::ERLoad { ext2, .. } => ext2 == ext,
                    _ => false,
                };
                if feeds_load {
                    ops.push(BlockOp::EaddiePair {
                        ext,
                        rs1,
                        imm,
                        inst: second,
                        word: insts[i + 1].1,
                    });
                    i += 2;
                    continue;
                }
            }
        }

        // Specialised singles; the rest run through the stepper's executor.
        let (inst, word) = insts[i];
        ops.push(match inst {
            Inst::Lui { rd, imm20 } => BlockOp::Const {
                rd,
                value: ((imm20 as i64) << 12) as u64,
            },
            Inst::Auipc { rd, imm20 } => BlockOp::Const {
                rd,
                value: pc.wrapping_add(((imm20 as i64) << 12) as u64),
            },
            Inst::OpImm { op, rd, rs1, imm } => BlockOp::OpImm(ImmOp { op, rd, rs1, imm }),
            Inst::Op { op, rd, rs1, rs2 } => BlockOp::Op {
                op,
                rd,
                rs1,
                rs2,
                cost: cost.fetch_cycles + cost.op_cycles(op),
            },
            Inst::Load {
                width,
                rd,
                rs1,
                imm,
            } => BlockOp::Load {
                width,
                rd,
                rs1,
                imm: imm as i64,
            },
            Inst::Store {
                width,
                rs1,
                rs2,
                imm,
            } => BlockOp::Store(MemStore {
                width,
                rs1,
                rs2,
                imm: imm as i64,
            }),
            Inst::Jal { rd, offset } => BlockOp::Jal {
                rd,
                target: pc.wrapping_add(offset as i64 as u64),
            },
            Inst::Jalr { rd, rs1, imm } => BlockOp::Jalr {
                rd,
                rs1,
                imm: imm as i64,
            },
            Inst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => BlockOp::Branch {
                cond,
                rs1,
                rs2,
                taken: pc.wrapping_add(offset as i64 as u64),
            },
            other => BlockOp::Generic { inst: other, word },
        });
        i += 1;
    }
    ops
}

/// Read `r`, taking `v` host-side instead of round-tripping through the
/// register file when `r` is `from`, the register the previous component
/// just wrote `v` to. `x0` never forwards: that write was discarded.
#[inline(always)]
fn fwd(h: &Hart, r: XReg, from: XReg, v: u64) -> u64 {
    if from != XReg::ZERO && r == from {
        v
    } else {
        h.read_x(r)
    }
}

/// The xorshift step's shift: direction and masked amount are translation-
/// time constants, so this is a raw shift rather than an ALU-op dispatch.
#[inline(always)]
fn shift(v: u64, left: bool, shamt: u32) -> u64 {
    if left {
        v.wrapping_shl(shamt)
    } else {
        v.wrapping_shr(shamt)
    }
}

/// Execute `block` on hart `pe` until it exits (control transfer, fall
/// through, environment call), the scheduling horizon `limit` is reached, a
/// store invalidates translated code, or a fault occurs. A control transfer
/// back to the block's own start restarts it in place — the hot-loop fast
/// path that skips the cache lookup entirely.
///
/// `parked` is the run loop's spare hart box. It trades places with hart
/// `pe`'s box for the whole block, so the pass reaches the hart through a
/// box of its own, with no bounds check, rather than by indexing the
/// `harts` vec; only pointers move. The spare that stands in the vec
/// meanwhile is never read: nothing on the block path reads `harts` except
/// `exec_inst`, around which the two boxes trade back.
fn exec_block(
    m: &mut Machine,
    pe: usize,
    block: &Block,
    limit: u64,
    parked: &mut Box<Hart>,
) -> Result<(), SimFault> {
    std::mem::swap(&mut m.harts[pe], parked);
    let r = exec_ops(m, pe, block, limit, parked);
    std::mem::swap(&mut m.harts[pe], parked);
    r
}

/// The one pass over a block's ops. A fused op is a sequence of
/// *components*, one per guest instruction; every component retires its own
/// `pc`/`cycles`/`instret` and is preceded by a scheduling-horizon test, so
/// a hart never runs past `limit` and can stop between any two guest
/// instructions. Each kind of component — local load, local store, ALU
/// step, conditional branch, jump — has one body below, shared by every op
/// that contains it. Returns on any block exit: horizon reached, control
/// left the block, fault, or self-modifying code.
fn exec_ops(
    m: &mut Machine,
    pe: usize,
    block: &Block,
    limit: u64,
    h: &mut Box<Hart>,
) -> Result<(), SimFault> {
    // The functional cost preset can never charge for an access, so the
    // model call is skipped wholesale on the hottest paths.
    let free = m.mem_model_free;
    let fetch = m.config.cost.fetch_cycles;
    let alu = fetch + m.config.cost.alu_cycles;
    let ops = block.ops.as_slice();
    // Architectural counters live in plain locals so the hot loop keeps
    // them in host registers; `commit!` flushes them to the hart at every
    // exit (and around `exec_inst`, which operates on the hart directly).
    let mut pc = h.pc;
    let mut cycles = h.cycles;
    let mut instret = h.instret;
    macro_rules! commit {
        () => {
            h.pc = pc;
            h.cycles = cycles;
            h.instret = instret;
        };
    }
    let mut i = 0;
    // After a control transfer: loop straight back to the block start (the
    // hot-loop path, no cache lookup) when the budget still allows;
    // otherwise exit.
    macro_rules! restart_or_exit {
        () => {
            if pc == block.start && cycles < limit {
                i = 0;
                continue;
            }
            commit!();
            return Ok(());
        };
    }
    // Retire a fall-through component.
    macro_rules! retire {
        ($cost:expr) => {
            pc += 4;
            cycles += $cost;
            instret += 1;
        };
    }
    // Yield at the scheduling horizon: before every op, and between the
    // components of a fused one.
    macro_rules! horizon {
        () => {
            if cycles >= limit {
                commit!();
                return Ok(());
            }
        };
    }
    macro_rules! mem_cost {
        ($addr:expr) => {
            fetch
                + if free {
                    0
                } else {
                    m.local_access_cost(pe, $addr)
                }
        };
    }
    // Local load component; evaluates to the loaded value.
    macro_rules! load {
        ($width:expr, $rd:expr, $addr:expr) => {{
            let addr: u64 = $addr;
            let cost = mem_cost!(addr);
            match Machine::load_value(&m.mems[pe], $width, addr) {
                Ok(v) => {
                    h.write_x($rd, v);
                    retire!(cost);
                    v
                }
                Err(e) => {
                    commit!();
                    return Err(SimFault::Memory(e));
                }
            }
        }};
    }
    // Local store component, with the self-modifying-code exit.
    macro_rules! store {
        ($width:expr, $addr:expr, $value:expr) => {{
            let addr: u64 = $addr;
            let cost = mem_cost!(addr);
            if let Err(e) = Machine::store_value(&mut m.mems[pe], $width, addr, $value) {
                commit!();
                return Err(SimFault::Memory(e));
            }
            retire!(cost);
            m.note_store(pe, addr, $width.bytes());
            if m.code_dirty {
                m.code_dirty = false;
                commit!();
                return Ok(());
            }
        }};
    }
    // Register-immediate ALU component; evaluates to the result.
    macro_rules! imm_op {
        ($o:expr) => {{
            let v = eval_op_imm($o.op, h.read_x($o.rs1), $o.imm);
            h.write_x($o.rd, v);
            retire!(alu);
            v
        }};
    }
    // ALU component of a fused read-modify-write, forwarding `$v` from
    // `$from` (see `fwd`); evaluates to the result.
    macro_rules! rmw {
        ($r:expr, $from:expr, $v:expr) => {{
            let a = fwd(h, $r.rs1, $from, $v);
            let out = match $r.op {
                RmwOp::Reg { op, rs2 } => eval_op(op, a, fwd(h, rs2, $from, $v)),
                RmwOp::Imm { op, imm } => eval_op_imm(op, a, imm),
            };
            h.write_x($r.rd, out);
            retire!($r.cost);
            out
        }};
    }
    // Load / op / store on `$addr`. The fusion guards keep the address
    // register intact across load and op, so it is computed once.
    macro_rules! triad {
        ($t:expr, $addr:expr) => {{
            let addr: u64 = $addr;
            let lv = load!($t.lw, $t.lrd, addr);
            horizon!();
            let rv = rmw!($t.rmw, $t.lrd, lv);
            horizon!();
            // The store's source is the op's destination (`same_slot`);
            // as `x0` it stores zero, not the discarded result.
            store!($t.sw, addr, fwd(h, $t.rmw.rd, $t.rmw.rd, rv));
        }};
    }
    // Conditional branch component on operand values `$a`, `$b`.
    macro_rules! branch {
        ($cond:expr, $a:expr, $b:expr, $taken:expr) => {{
            if branch_taken($cond, $a, $b) {
                if $taken & 3 != 0 {
                    commit!();
                    return Err(SimFault::InstructionMisaligned { pc, target: $taken });
                }
                pc = $taken;
            } else {
                pc += 4;
            }
            cycles += alu;
            instret += 1;
            restart_or_exit!();
        }};
    }
    // `addi` + branch on its result, forwarding `$v` from `$from` (the
    // bump of an `Addi2Branch`; `x0` when there is none).
    macro_rules! back_edge {
        ($e:expr, $from:expr, $v:expr) => {{
            let av = fwd(h, $e.ars1, $from, $v).wrapping_add($e.aimm as i64 as u64);
            h.write_x($e.ard, av);
            retire!(alu);
            horizon!();
            // An operand other than `ard` reads the file, which already
            // holds `$from`'s write.
            let a = fwd(h, $e.brs1, $e.ard, av);
            let b = fwd(h, $e.brs2, $e.ard, av);
            branch!($e.cond, a, b, $e.taken);
        }};
    }
    // Unconditional jump component, linking through `$rd`.
    macro_rules! jump {
        ($rd:expr, $target:expr) => {{
            let target: u64 = $target;
            if target & 3 != 0 {
                commit!();
                return Err(SimFault::InstructionMisaligned { pc, target });
            }
            h.write_x($rd, pc.wrapping_add(4));
            pc = target;
            cycles += alu;
            instret += 1;
            restart_or_exit!();
        }};
    }
    // A component the stepper executes: it works on the hart in the vec,
    // so the hart's box trades places with the spare for the call.
    macro_rules! interp {
        ($inst:expr, $word:expr) => {{
            commit!();
            std::mem::swap(&mut m.harts[pe], h);
            let r = m.exec_inst(pe, pc, $word, $inst);
            std::mem::swap(&mut m.harts[pe], h);
            pc = h.pc;
            cycles = h.cycles;
            instret = h.instret;
            r?;
        }};
    }
    loop {
        horizon!();
        let Some(op) = ops.get(i) else {
            // Fell off the end of a block capped by MAX_BLOCK_INSTS or an
            // undecodable word; pc already points at the next instruction.
            commit!();
            return Ok(());
        };
        match *op {
            BlockOp::Const { rd, value } => {
                h.write_x(rd, value);
                retire!(alu);
            }
            BlockOp::OpImm(o) => {
                imm_op!(o);
            }
            BlockOp::Op {
                op,
                rd,
                rs1,
                rs2,
                cost,
            } => {
                let v = eval_op(op, h.read_x(rs1), h.read_x(rs2));
                h.write_x(rd, v);
                retire!(cost);
            }
            BlockOp::Load {
                width,
                rd,
                rs1,
                imm,
            } => {
                load!(width, rd, h.read_x(rs1).wrapping_add(imm as u64));
            }
            BlockOp::Store(s) => {
                store!(
                    s.width,
                    h.read_x(s.rs1).wrapping_add(s.imm as u64),
                    h.read_x(s.rs2)
                );
            }
            BlockOp::Jal { rd, target } => jump!(rd, target),
            BlockOp::Jalr { rd, rs1, imm } => {
                jump!(rd, h.read_x(rs1).wrapping_add(imm as u64) & !1)
            }
            BlockOp::Branch {
                cond,
                rs1,
                rs2,
                taken,
            } => branch!(cond, h.read_x(rs1), h.read_x(rs2), taken),
            BlockOp::Li { rd, hi, value } => {
                h.write_x(rd, hi);
                retire!(alu);
                horizon!();
                h.write_x(rd, value);
                retire!(alu);
            }
            BlockOp::ShiftXor {
                left,
                shamt,
                srd,
                srs1,
                xrd,
                xrs1,
                xrs2,
            } => {
                let sh = shift(h.read_x(srs1), left, shamt);
                h.write_x(srd, sh);
                retire!(alu);
                horizon!();
                let v = fwd(h, xrs1, srd, sh) ^ fwd(h, xrs2, srd, sh);
                h.write_x(xrd, v);
                retire!(alu);
            }
            BlockOp::LoadOpStore {
                base_reg,
                ref triad,
            } => triad!(triad, h.read_x(base_reg).wrapping_add(triad.imm as u64)),
            BlockOp::XorShift3 { s, t, left, shamt } => {
                let mut sv = h.read_x(s);
                for k in 0..3 {
                    let tv = shift(sv, left[k], shamt[k]);
                    h.write_x(t[k], tv);
                    retire!(alu);
                    horizon!();
                    sv ^= tv;
                    h.write_x(s, sv);
                    retire!(alu);
                    horizon!();
                }
            }
            BlockOp::IdxRmw {
                ref idx,
                shamt,
                sh_rd,
                add_rd,
                add_rs1,
                add_rs2,
                ref triad,
            } => {
                // The feeds guards chain index → scale → add → load base
                // through real (non-`x0`) registers, so every intermediate
                // forwards host-side while the architectural writes still
                // all happen.
                let vi = rmw!(idx, XReg::ZERO, 0);
                horizon!();
                let vs = vi.wrapping_shl(shamt);
                h.write_x(sh_rd, vs);
                retire!(alu);
                horizon!();
                let va = fwd(h, add_rs1, sh_rd, vs).wrapping_add(fwd(h, add_rs2, sh_rd, vs));
                h.write_x(add_rd, va);
                retire!(alu);
                horizon!();
                triad!(triad, va.wrapping_add(triad.imm as u64));
            }
            BlockOp::StoreInc { ref store, ref inc } => {
                store!(
                    store.width,
                    h.read_x(store.rs1).wrapping_add(store.imm as u64),
                    h.read_x(store.rs2)
                );
                horizon!();
                imm_op!(inc);
            }
            BlockOp::Addi2Branch { ref bump, ref edge } => {
                let pv = imm_op!(bump);
                horizon!();
                back_edge!(edge, bump.rd, pv);
            }
            BlockOp::AddiBranch(ref edge) => back_edge!(edge, XReg::ZERO, 0),
            BlockOp::EaddiePair {
                ext,
                rs1,
                imm,
                inst,
                word,
            } => {
                let v = h.read_x(rs1).wrapping_add(imm as i64 as u64);
                h.write_e(ext, v);
                retire!(alu);
                horizon!();
                interp!(inst, word);
            }
            BlockOp::Generic { inst, word } => {
                interp!(inst, word);
                if m.code_dirty {
                    m.code_dirty = false;
                    return Ok(());
                }
                // An environment call may have halted this hart, parked it
                // at a barrier, or (by releasing a barrier) moved *other*
                // harts — in every such case the scheduling horizon is
                // stale, so hand control back. `ends_block` guarantees
                // ecall/ebreak are a block's final op, so falling out below
                // covers the released-and-still-running case too.
                if h.state != HartState::Running {
                    return Ok(());
                }
            }
        }
        i += 1;
    }
}

/// The block-translation run loop: scheduling and exit determination are
/// shared with the interpreter ([`Machine::next_runnable`]); only the
/// per-hart execution between scheduling points differs.
pub(crate) fn run_block(m: &mut Machine) -> RunSummary {
    debug_assert_eq!(m.trace_depth, 0, "block engine never runs while tracing");
    // The spare box each dispatch trades with the running hart's.
    let mut parked = Box::new(Hart::new(0));
    let exit = loop {
        let pe = match m.next_runnable() {
            Ok(pe) => pe,
            Err(exit) => break exit,
        };
        if m.harts[pe].cycles >= m.config.max_cycles {
            break RunExit::CycleLimit;
        }

        // Scheduling horizon (see module docs): other harts are frozen
        // while this one executes, so the bound holds for the whole
        // dispatch.
        let mut lo = u64::MAX;
        let mut hi = u64::MAX;
        for (i, h) in m.harts.iter().enumerate() {
            if i == pe || h.state != HartState::Running {
                continue;
            }
            if i < pe {
                lo = lo.min(h.cycles);
            } else {
                hi = hi.min(h.cycles);
            }
        }
        let limit = lo.min(hi.saturating_add(1)).min(m.config.max_cycles);

        let pc = m.harts[pe].pc;
        let block = match m.blocks[pe].get(pc) {
            Some(b) => b,
            None => match translate(m, pe, pc) {
                Some(b) => {
                    let b = Arc::new(b);
                    m.blocks[pe].insert(Arc::clone(&b));
                    b
                }
                None => {
                    // Unfetchable or undecodable first word: a single
                    // interpretive step reproduces the exact fault.
                    if let Err(fault) = m.step(pe) {
                        break RunExit::Fault { pe, fault };
                    }
                    continue;
                }
            },
        };
        if let Err(fault) = exec_block(m, pe, &block, limit, &mut parked) {
            m.harts[pe].state = HartState::Faulted(fault.clone());
            break RunExit::Fault { pe, fault };
        }
    };
    m.summary(exit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cost::MachineConfig;

    fn machine_with(src: &str) -> Machine {
        let mut m = Machine::new(MachineConfig::test(1));
        let img = assemble(0x1000, src).unwrap();
        m.load_program(0x1000, &img.words);
        m
    }

    #[test]
    fn gups_loop_fuses_to_superinstructions() {
        // The 14-instruction GUPS inner loop collapses to 3 ops:
        // XorShift3 (the full RNG round), IdxRmw (and/slli/add/ld/xor/sd),
        // AddiBranch.
        let m = machine_with(
            "loop:\n slli t0, s1, 13\n xor s1, s1, t0\n srli t0, s1, 7\n\
             xor s1, s1, t0\n slli t0, s1, 17\n xor s1, s1, t0\n\
             and t1, s1, s2\n slli t1, t1, 3\n add t2, s3, t1\n\
             ld t3, 0(t2)\n xor t3, t3, s1\n sd t3, 0(t2)\n\
             addi s0, s0, -1\n bnez s0, loop",
        );
        let b = translate(&m, 0, 0x1000).unwrap();
        assert_eq!(b.end - b.start, 14 * 4);
        assert_eq!(b.ops.len(), 3, "ops: {:?}", b.ops);
        assert!(matches!(
            b.ops[0],
            BlockOp::XorShift3 {
                shamt: [13, 7, 17],
                left: [true, false, true],
                ..
            }
        ));
        assert!(matches!(b.ops[1], BlockOp::IdxRmw { shamt: 3, .. }));
        assert!(matches!(
            b.ops[2],
            BlockOp::AddiBranch(BackEdge { taken: 0x1000, .. })
        ));
    }

    #[test]
    fn is_loops_fuse_to_superinstructions() {
        // IS key generation: the store + pointer bump pair one StoreInc.
        let m = machine_with(
            "gen:\n slli t0, s1, 13\n xor s1, s1, t0\n sw s1, 0(s2)\n\
             addi s2, s2, 4\n addi s0, s0, -1\n bnez s0, gen",
        );
        let b = translate(&m, 0, 0x1000).unwrap();
        assert_eq!(b.ops.len(), 3, "ops: {:?}", b.ops);
        assert!(matches!(b.ops[0], BlockOp::ShiftXor { .. }));
        assert!(matches!(b.ops[1], BlockOp::StoreInc { .. }));
        assert!(matches!(
            b.ops[2],
            BlockOp::AddiBranch(BackEdge { taken: 0x1000, .. })
        ));

        // IS ranking: andi/slli/add/ld/addi/sd is the same indexed
        // read-modify-write shape as the GUPS update (imm index and imm op).
        let m = machine_with(
            "rank:\n lw t1, 0(s2)\n andi t2, t1, 255\n slli t2, t2, 3\n\
             add t2, s3, t2\n ld t3, 0(t2)\n addi t3, t3, 1\n sd t3, 0(t2)\n\
             addi s2, s2, 4\n addi s0, s0, -1\n bnez s0, rank",
        );
        let b = translate(&m, 0, 0x1000).unwrap();
        assert_eq!(b.ops.len(), 3, "ops: {:?}", b.ops);
        assert!(matches!(b.ops[0], BlockOp::Load { .. }));
        assert!(matches!(
            b.ops[1],
            BlockOp::IdxRmw {
                idx: Rmw {
                    op: RmwOp::Imm { .. },
                    ..
                },
                triad: Triad {
                    rmw: Rmw {
                        op: RmwOp::Imm { .. },
                        ..
                    },
                    ..
                },
                ..
            }
        ));
        assert!(matches!(
            b.ops[2],
            BlockOp::Addi2Branch {
                edge: BackEdge { taken: 0x1000, .. },
                ..
            }
        ));
    }

    #[test]
    fn li_fusion_precomputes_both_constants() {
        let m = machine_with("lui a0, 0x12345\naddi a0, a0, -273\nret");
        let b = translate(&m, 0, 0x1000).unwrap();
        match b.ops[0] {
            BlockOp::Li { rd, hi, value, .. } => {
                assert_eq!(rd, XReg::A0);
                assert_eq!(hi, 0x12345000);
                assert_eq!(value, 0x12345000u64.wrapping_add((-273i64) as u64));
            }
            ref other => panic!("expected Li, got {other:?}"),
        }
    }

    #[test]
    fn rmw_triad_not_fused_when_load_clobbers_base() {
        // `ld t2, 0(t2)` overwrites the address register: the address would
        // change between load and store, so fusion must refuse.
        let m = machine_with("ld t2, 0(t2)\nxor t2, t2, s1\nsd t2, 0(t2)\nret");
        let b = translate(&m, 0, 0x1000).unwrap();
        assert!(
            !b.ops
                .iter()
                .any(|op| matches!(op, BlockOp::LoadOpStore { .. })),
            "ops: {:?}",
            b.ops
        );
    }

    #[test]
    fn translation_stops_at_block_cap() {
        let mut src = String::new();
        for _ in 0..100 {
            src.push_str("addi a0, a0, 1\n");
        }
        src.push_str("ret\n");
        let m = machine_with(&src);
        let b = translate(&m, 0, 0x1000).unwrap();
        assert_eq!(b.end, 0x1000 + 4 * MAX_BLOCK_INSTS as u64);
    }

    #[test]
    fn cache_overlap_probe_and_range_invalidation() {
        let mut c = BlockCache::new();
        assert!(!c.overlaps(0x1000, 8)); // empty cache: always false
        c.insert(Arc::new(Block {
            start: 0x1000,
            end: 0x1040,
            ops: Vec::new(),
        }));
        c.insert(Arc::new(Block {
            start: 0x2000,
            end: 0x2010,
            ops: Vec::new(),
        }));
        assert_eq!(c.len(), 2);
        assert!(c.overlaps(0x103c, 8));
        assert!(!c.overlaps(0x0ff8, 8)); // ends exactly at lo
        assert!(!c.overlaps(0x2010, 8)); // starts exactly at hi

        // A store into the gap hits the coarse range but removes nothing.
        c.invalidate(0x1800, 8);
        assert_eq!(c.len(), 2);
        // A store into the first block removes only that block and shrinks
        // the covering range so the gap no longer probes true.
        c.invalidate(0x1020, 4);
        assert_eq!(c.len(), 1);
        assert!(!c.overlaps(0x1800, 8));
        assert!(c.overlaps(0x2000, 1));
        c.clear();
        assert_eq!(c.len(), 0);
        assert!(!c.overlaps(0x2000, 1));
    }

    #[test]
    fn note_store_drops_translations_and_raises_dirty() {
        let mut m = machine_with("addi a0, a0, 1\nret");
        let b = Arc::new(translate(&m, 0, 0x1000).unwrap());
        m.blocks[0].insert(b);
        // Data store: no overlap, no flag.
        m.note_store(0, 0x8000, 8);
        assert_eq!(m.blocks[0].len(), 1);
        assert!(!m.code_dirty);
        // Code store: translation dropped, dirty flag raised.
        m.note_store(0, 0x1004, 4);
        assert_eq!(m.blocks[0].len(), 0);
        assert!(m.code_dirty);
    }
}
