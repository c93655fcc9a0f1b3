//! The multi-core xBGAS machine.
//!
//! [`Machine`] assembles N harts, each with private physical memory, a TLB,
//! an L1/L2 cache hierarchy and an OLB, joined by a shared interconnect —
//! the organisation of the paper's §5.1 simulation environment (12 RV64
//! cores, 256-entry TLB, 8-way 16 KB L1 / 8 MB L2). Execution is
//! discrete-event: the runnable hart with the smallest cycle count steps
//! next, so cross-PE timing interleaves realistically while the simulator
//! itself stays single-threaded and deterministic.
//!
//! Remote xBGAS instructions resolve their extended register through the
//! issuing hart's OLB (object ID 0 = local, per §3.2) and charge interconnect
//! plus remote-DRAM latency.

use crate::block::BlockCache;
use crate::cache::{CacheStats, MemModel};
use crate::cost::{ExecMode, MachineConfig};
use crate::hart::{branch_taken, eval_op, eval_op_imm, Hart, HartState, SimFault};
use crate::mem::Memory;
use crate::noc::{Noc, NocStats, SharedChannel};
use crate::olb::{Olb, OlbTarget};
use crate::tlb::TlbStats;
use xbgas_isa::{decode, EReg, Inst, LoadWidth, StoreWidth, XReg};

/// Environment-call numbers recognised by the machine (placed in `a7`).
pub mod syscall {
    /// Exit with the code in `a0`.
    pub const EXIT: u64 = 0;
    /// Append the byte in `a0` to the PE's console.
    pub const PUTCHAR: u64 = 1;
    /// Return the calling PE's rank in `a0`.
    pub const MY_PE: u64 = 2;
    /// Return the number of PEs in `a0`.
    pub const NUM_PES: u64 = 3;
    /// Block until every live PE has entered the barrier.
    pub const BARRIER: u64 = 4;
    /// Append the decimal rendering of `a0` to the PE's console.
    pub const PRINT_UINT: u64 = 5;
}

/// Why [`Machine::run`] returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunExit {
    /// Every hart halted via the exit syscall.
    AllHalted,
    /// A hart faulted; its rank is given.
    Fault {
        /// Rank of the faulting PE.
        pe: usize,
        /// The fault.
        fault: SimFault,
    },
    /// The per-hart cycle budget was exhausted.
    CycleLimit,
    /// Live harts remain but none can make progress (e.g. a barrier that can
    /// never complete because a peer halted).
    Deadlock,
}

/// Result of a completed run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Why the run ended.
    pub exit: RunExit,
    /// Final cycle count of each hart.
    pub cycles: Vec<u64>,
    /// Final retired-instruction count of each hart.
    pub instret: Vec<u64>,
}

impl RunSummary {
    /// The machine-level makespan: the maximum cycle count over harts.
    pub fn makespan(&self) -> u64 {
        self.cycles.iter().copied().max().unwrap_or(0)
    }
}

/// The simulated multi-core machine.
pub struct Machine {
    pub(crate) config: MachineConfig,
    /// Boxed, so the block engine takes a hart out and hands it back to
    /// [`Machine::exec_inst`] by swapping pointers, not 560-byte harts.
    #[allow(clippy::vec_box)] // boxed on purpose, see above
    pub(crate) harts: Vec<Box<Hart>>,
    pub(crate) mems: Vec<Memory>,
    /// Per-PE TLB + cache-hierarchy timing models.
    mem_models: Vec<MemModel>,
    pub(crate) olbs: Vec<Olb>,
    pub(crate) noc: Noc,
    pub(crate) channel: SharedChannel,
    pub(crate) outputs: Vec<String>,
    /// Per-hart ring buffer of recently executed (pc, word); empty unless
    /// tracing is enabled.
    traces: Vec<std::collections::VecDeque<(u64, u32)>>,
    pub(crate) trace_depth: usize,
    /// Per-PE translated basic blocks (populated only in block mode).
    pub(crate) blocks: Vec<BlockCache>,
    /// Set by [`Machine::note_store`] when a store invalidated cached
    /// translations; the block engine drops out of the current block so it
    /// cannot keep executing stale instructions.
    pub(crate) code_dirty: bool,
    /// True when the memory model can never charge a cycle (the
    /// `functional()` cost preset): TLB walks, cache hits and DRAM are all
    /// zero-latency, so [`Machine::local_access_cost`] may skip the model
    /// state updates entirely; the [`Machine::mem_stats`] counters then
    /// read zero.
    pub(crate) mem_model_free: bool,
}

impl Machine {
    /// Build a machine; every hart starts at `pc = 0x1000` with empty caches
    /// and the canonical OLB mapping (object `k` → PE `k − 1`).
    pub fn new(config: MachineConfig) -> Self {
        let n = config.n_harts;
        assert!(n > 0, "machine needs at least one hart");
        let cost = config.cost;
        let mem_model_free = cost.tlb.miss_cycles == 0
            && cost.l1.hit_cycles == 0
            && cost.l2.hit_cycles == 0
            && cost.mem_cycles == 0;
        Machine {
            config,
            harts: (0..n).map(|_| Box::new(Hart::new(0x1000))).collect(),
            mems: (0..n).map(|_| Memory::new(config.mem_bytes)).collect(),
            mem_models: (0..n).map(|_| MemModel::new(&cost)).collect(),
            olbs: (0..n)
                .map(|_| Olb::identity_for_pes(n, cost.olb_lookup_cycles))
                .collect(),
            noc: Noc::new(cost.noc),
            channel: SharedChannel::new(),
            outputs: vec![String::new(); n],
            traces: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
            trace_depth: 0,
            blocks: (0..n).map(|_| BlockCache::new()).collect(),
            code_dirty: false,
            mem_model_free,
        }
    }

    /// Keep a rolling trace of the last `depth` instructions per hart —
    /// invaluable when a guest kernel faults. Zero disables tracing.
    pub fn enable_trace(&mut self, depth: usize) {
        self.trace_depth = depth;
        for t in &mut self.traces {
            t.clear();
        }
    }

    /// Disassembled rolling trace of a hart (oldest first).
    pub fn trace(&self, pe: usize) -> Vec<String> {
        self.traces[pe]
            .iter()
            .map(|&(pc, word)| format!("{pc:#x}: {}", xbgas_isa::disasm_word(word)))
            .collect()
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of harts.
    pub fn n_harts(&self) -> usize {
        self.config.n_harts
    }

    /// Immutable view of a hart's architectural state.
    pub fn hart(&self, pe: usize) -> &Hart {
        &self.harts[pe]
    }

    /// Mutable access to a hart (for test setup: seeding registers, pc).
    pub fn hart_mut(&mut self, pe: usize) -> &mut Hart {
        &mut self.harts[pe]
    }

    /// Immutable view of a PE's memory.
    pub fn mem(&self, pe: usize) -> &Memory {
        &self.mems[pe]
    }

    /// Mutable access to a PE's memory (for loading data images).
    ///
    /// The caller may rewrite instruction bytes through this handle, so any
    /// cached block translations for the PE are dropped.
    pub fn mem_mut(&mut self, pe: usize) -> &mut Memory {
        self.blocks[pe].clear();
        &mut self.mems[pe]
    }

    /// Mutable access to a PE's OLB (to install custom object windows).
    pub fn olb_mut(&mut self, pe: usize) -> &mut Olb {
        &mut self.olbs[pe]
    }

    /// Console output produced by a PE via the putchar/print syscalls.
    pub fn output(&self, pe: usize) -> &str {
        &self.outputs[pe]
    }

    /// Interconnect statistics.
    pub fn noc_stats(&self) -> NocStats {
        self.noc.stats()
    }

    /// Snapshot of a PE's (L1, L2, TLB) model counters. All zero under a
    /// cost preset that can never charge a local access
    /// ([`CostConfig::functional`](crate::cost::CostConfig::functional)),
    /// which skips the models.
    pub fn mem_stats(&self, pe: usize) -> (CacheStats, CacheStats, TlbStats) {
        self.mem_models[pe].stats()
    }

    /// Load encoded instruction words at `addr` in one PE's memory.
    pub fn load_words(&mut self, pe: usize, addr: u64, words: &[u32]) {
        self.blocks[pe].clear();
        for (i, w) in words.iter().enumerate() {
            self.mems[pe]
                .store_u32(addr + 4 * i as u64, *w)
                .expect("program image exceeds PE memory");
        }
    }

    /// Load the same program at `addr` on every PE (SPMD) and point every
    /// hart's `pc` there.
    pub fn load_program(&mut self, addr: u64, words: &[u32]) {
        for pe in 0..self.n_harts() {
            self.load_words(pe, addr, words);
            self.harts[pe].pc = addr;
        }
    }

    /// Cost of one local data access (TLB + cache hierarchy).
    pub(crate) fn local_access_cost(&mut self, pe: usize, addr: u64) -> u64 {
        if self.mem_model_free {
            return 0;
        }
        self.mem_models[pe].access(addr)
    }

    /// Record that `bytes` bytes were stored at `addr` in PE `pe`'s memory.
    /// If the store lands on instruction bytes that have been translated,
    /// the affected blocks are invalidated and `code_dirty` is raised so the
    /// block engine abandons its current block (self-modifying code).
    #[inline]
    pub(crate) fn note_store(&mut self, pe: usize, addr: u64, bytes: usize) {
        if self.blocks[pe].overlaps(addr, bytes) {
            self.blocks[pe].invalidate(addr, bytes);
            self.code_dirty = true;
        }
    }

    /// Resolve the remote side of an xBGAS access. Returns
    /// `(target_pe, physical_addr, latency)`.
    pub(crate) fn resolve_remote(
        &mut self,
        pe: usize,
        object_id: u64,
        base_addr: u64,
        bytes: usize,
    ) -> Result<(usize, u64, u64), SimFault> {
        let pc = self.harts[pe].pc;
        let (target, olb_cycles) =
            self.olbs[pe]
                .translate(object_id)
                .map_err(|e| SimFault::OlbMiss {
                    pc,
                    object_id: e.object_id,
                })?;
        match target {
            OlbTarget::Local => {
                // Local fast path: plain cached access, no fabric involved.
                let cost = self.local_access_cost(pe, base_addr);
                Ok((pe, base_addr, cost))
            }
            OlbTarget::Remote(entry) => {
                let addr = entry.base.wrapping_add(base_addr);
                // Reserve the shared channel in simulated time: the
                // discrete-event scheduler makes this exact (the hart with
                // the smallest cycle count always steps next), so queueing
                // delays under contention fall out naturally.
                let noc_cfg = *self.noc.config();
                let occupancy = noc_cfg.occupancy(bytes);
                let now = self.harts[pe].cycles;
                let start = self.channel.reserve(now, occupancy);
                let queue_wait = start - now;
                // The remote end services the request from its DRAM.
                let remote_mem = self.config.cost.mem_cycles;
                let total = olb_cycles + queue_wait + occupancy + noc_cfg.base_latency + remote_mem;
                self.noc.record(bytes, total);
                Ok((entry.pe, addr, total))
            }
        }
    }

    /// The load half of every xBGAS access: the object ID in `ext` and the
    /// address `rs1 + imm` go through [`Machine::resolve_remote`], and
    /// `width` is read where they land. Returns `(value, latency)`.
    fn remote_load(
        &mut self,
        pe: usize,
        ext: EReg,
        rs1: XReg,
        imm: i32,
        width: LoadWidth,
    ) -> Result<(u64, u64), SimFault> {
        let object_id = self.harts[pe].read_e(ext);
        let addr = self.harts[pe].read_x(rs1).wrapping_add(imm as i64 as u64);
        let (tpe, taddr, c) = self.resolve_remote(pe, object_id, addr, width.bytes())?;
        let v = Self::load_value(&self.mems[tpe], width, taddr).map_err(SimFault::Memory)?;
        Ok((v, c))
    }

    /// The store half: as [`Machine::remote_load`], then the target PE's
    /// translations are checked for the stored bytes. Returns the latency.
    fn remote_store(
        &mut self,
        pe: usize,
        ext: EReg,
        rs1: XReg,
        imm: i32,
        width: StoreWidth,
        value: u64,
    ) -> Result<u64, SimFault> {
        let object_id = self.harts[pe].read_e(ext);
        let addr = self.harts[pe].read_x(rs1).wrapping_add(imm as i64 as u64);
        let (tpe, taddr, c) = self.resolve_remote(pe, object_id, addr, width.bytes())?;
        Self::store_value(&mut self.mems[tpe], width, taddr, value).map_err(SimFault::Memory)?;
        self.note_store(tpe, taddr, width.bytes());
        Ok(c)
    }

    #[inline]
    pub(crate) fn load_value(mem: &Memory, width: LoadWidth, addr: u64) -> Result<u64, String> {
        let raw = match width.bytes() {
            1 => mem.load_u8(addr).map(|v| v as u64),
            2 => mem.load_u16(addr).map(|v| v as u64),
            4 => mem.load_u32(addr).map(|v| v as u64),
            _ => mem.load_u64(addr),
        }
        .map_err(|e| e.to_string())?;
        Ok(if width.signed() {
            match width.bytes() {
                1 => raw as u8 as i8 as i64 as u64,
                2 => raw as u16 as i16 as i64 as u64,
                4 => raw as u32 as i32 as i64 as u64,
                _ => raw,
            }
        } else {
            raw
        })
    }

    #[inline]
    pub(crate) fn store_value(
        mem: &mut Memory,
        width: StoreWidth,
        addr: u64,
        value: u64,
    ) -> Result<(), String> {
        match width.bytes() {
            1 => mem.store_u8(addr, value as u8),
            2 => mem.store_u16(addr, value as u16),
            4 => mem.store_u32(addr, value as u32),
            _ => mem.store_u64(addr, value),
        }
        .map_err(|e| e.to_string())
    }

    /// Release a completed barrier: all waiting harts resume at the maximum
    /// cycle count among them (they leave the barrier together).
    fn try_release_barrier(&mut self) {
        let live = self.harts.iter().filter(|h| h.is_live()).count();
        let waiting = self
            .harts
            .iter()
            .filter(|h| h.state == HartState::WaitingBarrier)
            .count();
        if live > 0 && waiting == live {
            let release_at = self
                .harts
                .iter()
                .filter(|h| h.state == HartState::WaitingBarrier)
                .map(|h| h.cycles)
                .max()
                .unwrap_or(0);
            for h in &mut self.harts {
                if h.state == HartState::WaitingBarrier {
                    h.state = HartState::Running;
                    h.cycles = release_at;
                }
            }
        }
    }

    fn syscall(&mut self, pe: usize) -> Result<(), SimFault> {
        let number = self.harts[pe].read_x(XReg::new(17)); // a7
        let a0 = self.harts[pe].read_x(XReg::A0);
        match number {
            syscall::EXIT => {
                self.harts[pe].state = HartState::Halted { code: a0 };
                // A peer halting can complete (or deadlock) a barrier.
                self.try_release_barrier();
            }
            syscall::PUTCHAR => {
                self.outputs[pe].push(a0 as u8 as char);
            }
            syscall::MY_PE => {
                self.harts[pe].write_x(XReg::A0, pe as u64);
            }
            syscall::NUM_PES => {
                let n = self.n_harts() as u64;
                self.harts[pe].write_x(XReg::A0, n);
            }
            syscall::BARRIER => {
                self.harts[pe].state = HartState::WaitingBarrier;
                self.try_release_barrier();
            }
            syscall::PRINT_UINT => {
                use std::fmt::Write;
                let _ = write!(self.outputs[pe], "{a0}");
            }
            other => {
                return Err(SimFault::UnknownSyscall {
                    pc: self.harts[pe].pc,
                    number: other,
                })
            }
        }
        Ok(())
    }

    /// Execute one instruction on hart `pe`.
    ///
    /// Faults transition the hart to [`HartState::Faulted`] and are also
    /// returned for the caller's convenience.
    pub fn step(&mut self, pe: usize) -> Result<(), SimFault> {
        if let Err(fault) = self.step_inner(pe) {
            self.harts[pe].state = HartState::Faulted(fault.clone());
            return Err(fault);
        }
        Ok(())
    }

    fn step_inner(&mut self, pe: usize) -> Result<(), SimFault> {
        debug_assert!(matches!(self.harts[pe].state, HartState::Running));
        let pc = self.harts[pe].pc;

        let word = self.mems[pe]
            .load_u32(pc)
            .map_err(|e| SimFault::Memory(format!("fetch: {e}")))?;
        if self.trace_depth > 0 {
            let t = &mut self.traces[pe];
            if t.len() == self.trace_depth {
                t.pop_front();
            }
            t.push_back((pc, word));
        }
        let inst = decode(word).map_err(|_| SimFault::IllegalInstruction { pc, word })?;
        self.exec_inst(pe, pc, word, inst)
    }

    /// Execute one already-decoded instruction at `pc` on hart `pe`,
    /// committing `pc`/`cycles`/`instret` exactly as the interpretive
    /// stepper does. This is the single source of truth for instruction
    /// semantics: the stepper reaches it through fetch + decode, the block
    /// engine (`crate::block`) reaches it directly for instructions it does
    /// not specialise. `word` is the raw encoding, needed only for fault
    /// reporting.
    pub(crate) fn exec_inst(
        &mut self,
        pe: usize,
        pc: u64,
        word: u32,
        inst: Inst,
    ) -> Result<(), SimFault> {
        let cost_cfg = self.config.cost;
        let mut cost = cost_cfg.fetch_cycles;
        let mut next_pc = pc.wrapping_add(4);

        match inst {
            Inst::Lui { rd, imm20 } => {
                cost += cost_cfg.alu_cycles;
                self.harts[pe].write_x(rd, ((imm20 as i64) << 12) as u64);
            }
            Inst::Auipc { rd, imm20 } => {
                cost += cost_cfg.alu_cycles;
                self.harts[pe].write_x(rd, pc.wrapping_add(((imm20 as i64) << 12) as u64));
            }
            Inst::Jal { rd, offset } => {
                cost += cost_cfg.alu_cycles;
                let target = pc.wrapping_add(offset as i64 as u64);
                // Trap precisely at the jump, before the link register is
                // written, rather than surfacing a confusing fetch error at
                // the bogus target later.
                if target & 3 != 0 {
                    return Err(SimFault::InstructionMisaligned { pc, target });
                }
                self.harts[pe].write_x(rd, next_pc);
                next_pc = target;
            }
            Inst::Jalr { rd, rs1, imm } => {
                cost += cost_cfg.alu_cycles;
                let target = self.harts[pe].read_x(rs1).wrapping_add(imm as i64 as u64) & !1;
                if target & 3 != 0 {
                    return Err(SimFault::InstructionMisaligned { pc, target });
                }
                self.harts[pe].write_x(rd, next_pc);
                next_pc = target;
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                cost += cost_cfg.alu_cycles;
                let a = self.harts[pe].read_x(rs1);
                let b = self.harts[pe].read_x(rs2);
                if branch_taken(cond, a, b) {
                    let target = pc.wrapping_add(offset as i64 as u64);
                    if target & 3 != 0 {
                        return Err(SimFault::InstructionMisaligned { pc, target });
                    }
                    next_pc = target;
                }
            }
            Inst::Load {
                width,
                rd,
                rs1,
                imm,
            } => {
                let addr = self.harts[pe].read_x(rs1).wrapping_add(imm as i64 as u64);
                cost += self.local_access_cost(pe, addr);
                let v = Self::load_value(&self.mems[pe], width, addr).map_err(SimFault::Memory)?;
                self.harts[pe].write_x(rd, v);
            }
            Inst::Store {
                width,
                rs1,
                rs2,
                imm,
            } => {
                let addr = self.harts[pe].read_x(rs1).wrapping_add(imm as i64 as u64);
                cost += self.local_access_cost(pe, addr);
                let v = self.harts[pe].read_x(rs2);
                Self::store_value(&mut self.mems[pe], width, addr, v).map_err(SimFault::Memory)?;
                self.note_store(pe, addr, width.bytes());
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                cost += cost_cfg.alu_cycles;
                let a = self.harts[pe].read_x(rs1);
                self.harts[pe].write_x(rd, eval_op_imm(op, a, imm));
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                cost += cost_cfg.op_cycles(op);
                let a = self.harts[pe].read_x(rs1);
                let b = self.harts[pe].read_x(rs2);
                self.harts[pe].write_x(rd, eval_op(op, a, b));
            }
            Inst::Fence => cost += cost_cfg.fence_cycles,
            Inst::Ecall => {
                cost += cost_cfg.ecall_cycles;
                self.harts[pe].pc = next_pc; // syscall observes post-ecall pc
                self.harts[pe].cycles += cost;
                self.harts[pe].instret += 1;
                return self.syscall(pe);
            }
            Inst::Ebreak => {
                // Like ecall, ebreak is a retired environment transfer: it
                // charges its cost and counts toward instret before the trap
                // is delivered. `pc` is left at the ebreak itself so a
                // debugger can resume there.
                cost += cost_cfg.ecall_cycles;
                self.harts[pe].cycles += cost;
                self.harts[pe].instret += 1;
                return Err(SimFault::Breakpoint { pc });
            }
            Inst::Csr { op, rd, rs1, csr } => {
                use xbgas_isa::inst::{csr as csr_addr, CsrOp};
                cost += cost_cfg.alu_cycles;
                let value = match csr {
                    // The cycle count observed includes this instruction.
                    csr_addr::CYCLE | csr_addr::TIME => self.harts[pe].cycles + cost,
                    csr_addr::INSTRET => self.harts[pe].instret,
                    _ => return Err(SimFault::IllegalInstruction { pc, word }),
                };
                // The exposed counters are read-only: any write attempt
                // (csrrw, or set/clear with rs1 != x0) is illegal.
                let writes = match op {
                    CsrOp::Rw => true,
                    CsrOp::Rs | CsrOp::Rc => rs1.num() != 0,
                };
                if writes {
                    return Err(SimFault::IllegalInstruction { pc, word });
                }
                self.harts[pe].write_x(rd, value);
            }

            // --- xBGAS base integer load/store (implicit e-register) ---
            Inst::ELoad {
                width,
                rd,
                rs1,
                imm,
            } => {
                let (v, c) = self.remote_load(pe, EReg::paired_with(rs1), rs1, imm, width)?;
                cost += c;
                self.harts[pe].write_x(rd, v);
            }
            Inst::EStore {
                width,
                rs1,
                rs2,
                imm,
            } => {
                let v = self.harts[pe].read_x(rs2);
                cost += self.remote_store(pe, EReg::paired_with(rs1), rs1, imm, width, v)?;
            }

            // --- xBGAS raw integer load/store (explicit e-register) ---
            Inst::ERLoad {
                width,
                rd,
                rs1,
                ext2,
            } => {
                let (v, c) = self.remote_load(pe, ext2, rs1, 0, width)?;
                cost += c;
                self.harts[pe].write_x(rd, v);
            }
            Inst::ERStore {
                width,
                rs1,
                rs2,
                ext3,
            } => {
                let v = self.harts[pe].read_x(rs2);
                cost += self.remote_store(pe, ext3, rs1, 0, width, v)?;
            }
            Inst::ERse { ext1, rs1, ext2 } => {
                let v = self.harts[pe].read_e(ext1);
                cost += self.remote_store(pe, ext2, rs1, 0, StoreWidth::D, v)?;
            }
            Inst::ERle { ext1, rs1, ext2 } => {
                let (v, c) = self.remote_load(pe, ext2, rs1, 0, LoadWidth::D)?;
                cost += c;
                self.harts[pe].write_e(ext1, v);
            }

            // --- xBGAS address management ---
            Inst::Eaddi { rd, ext1, imm } => {
                cost += cost_cfg.alu_cycles;
                let v = self.harts[pe].read_e(ext1).wrapping_add(imm as i64 as u64);
                self.harts[pe].write_x(rd, v);
            }
            Inst::Eaddie { ext, rs1, imm } => {
                cost += cost_cfg.alu_cycles;
                let v = self.harts[pe].read_x(rs1).wrapping_add(imm as i64 as u64);
                self.harts[pe].write_e(ext, v);
            }
            Inst::Eaddix { ext1, ext2, imm } => {
                cost += cost_cfg.alu_cycles;
                let v = self.harts[pe].read_e(ext2).wrapping_add(imm as i64 as u64);
                self.harts[pe].write_e(ext1, v);
            }
        }

        self.harts[pe].pc = next_pc;
        self.harts[pe].cycles += cost;
        self.harts[pe].instret += 1;
        Ok(())
    }

    /// Discrete-event scheduling decision: the runnable hart with the
    /// smallest cycle count executes next (ties broken by smallest index,
    /// per `min_by_key`). When no hart is runnable, the terminal exit is
    /// derived from the remaining hart states. Shared by both execution
    /// engines so they schedule identically.
    pub(crate) fn next_runnable(&self) -> Result<usize, RunExit> {
        let next = self
            .harts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.state == HartState::Running)
            .min_by_key(|(_, h)| h.cycles)
            .map(|(i, _)| i);

        let Some(pe) = next else {
            if self.harts.iter().any(|h| h.is_live()) {
                // Live harts but none runnable: barrier deadlock.
                return Err(RunExit::Deadlock);
            }
            if let Some((pe, fault)) =
                self.harts
                    .iter()
                    .enumerate()
                    .find_map(|(i, h)| match &h.state {
                        HartState::Faulted(f) => Some((i, f.clone())),
                        _ => None,
                    })
            {
                return Err(RunExit::Fault { pe, fault });
            }
            return Err(RunExit::AllHalted);
        };
        Ok(pe)
    }

    pub(crate) fn summary(&self, exit: RunExit) -> RunSummary {
        RunSummary {
            exit,
            cycles: self.harts.iter().map(|h| h.cycles).collect(),
            instret: self.harts.iter().map(|h| h.instret).collect(),
        }
    }

    /// Run until every hart halts, a hart faults, a barrier deadlocks, or
    /// the cycle budget is exhausted.
    ///
    /// Which engine executes instructions is selected by
    /// [`crate::cost::ExecMode`] in the configuration; both produce
    /// bit-identical registers, memory, `instret` and cycle counts. The
    /// block engine defers to the interpreter while tracing is enabled (the
    /// trace ring buffer is a per-fetch side effect of the stepper).
    pub fn run(&mut self) -> RunSummary {
        if self.config.exec == ExecMode::Block && self.trace_depth == 0 {
            return crate::block::run_block(self);
        }
        self.run_interp()
    }

    /// The interpretive engine: one fetch + decode + dispatch per step.
    fn run_interp(&mut self) -> RunSummary {
        let exit = loop {
            let pe = match self.next_runnable() {
                Ok(pe) => pe,
                Err(exit) => break exit,
            };
            if self.harts[pe].cycles >= self.config.max_cycles {
                break RunExit::CycleLimit;
            }
            if let Err(fault) = self.step(pe) {
                break RunExit::Fault { pe, fault };
            }
        };
        self.summary(exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MachineConfig;
    use xbgas_isa::{encode, pseudo, AluImmOp, EReg, Inst, LoadWidth, StoreWidth, XReg};

    fn enc(insts: &[Inst]) -> Vec<u32> {
        insts.iter().map(|i| encode(i).unwrap()).collect()
    }

    fn exit_inst() -> [Inst; 2] {
        [pseudo::li(XReg::new(17), syscall::EXIT as i32), Inst::Ecall]
    }

    #[test]
    fn trivial_program_halts() {
        let mut m = Machine::new(MachineConfig::test(1));
        let mut prog = vec![pseudo::li(XReg::A0, 7)];
        prog.extend(exit_inst());
        m.load_program(0x1000, &enc(&prog));
        let s = m.run();
        assert_eq!(s.exit, RunExit::AllHalted);
        assert_eq!(m.hart(0).state, HartState::Halted { code: 7 });
        assert_eq!(s.instret[0], 3);
    }

    #[test]
    fn local_load_store_roundtrip() {
        let mut m = Machine::new(MachineConfig::test(1));
        // sw then lw through memory at address 0x8000.
        let mut prog = vec![
            Inst::Lui {
                rd: XReg::new(5),
                imm20: 0x8,
            }, // t0 = 0x8000
            pseudo::li(XReg::new(6), 1234), // t1
            Inst::Store {
                width: StoreWidth::W,
                rs1: XReg::new(5),
                rs2: XReg::new(6),
                imm: 0,
            },
            Inst::Load {
                width: LoadWidth::W,
                rd: XReg::A0,
                rs1: XReg::new(5),
                imm: 0,
            },
        ];
        prog.extend(exit_inst());
        m.load_program(0x1000, &enc(&prog));
        let s = m.run();
        assert_eq!(s.exit, RunExit::AllHalted);
        assert_eq!(m.hart(0).state, HartState::Halted { code: 1234 });
    }

    #[test]
    fn remote_store_lands_on_peer() {
        let mut m = Machine::new(MachineConfig::test(2));
        // PE0 stores 0xBEEF to PE1's address 0x8000 via esd; PE1 just exits.
        // SPMD: both run the same program, branching on my_pe.
        let prog = vec![
            pseudo::li(XReg::new(17), syscall::MY_PE as i32),
            Inst::Ecall, // a0 = my_pe
            Inst::Branch {
                cond: xbgas_isa::BranchCond::Ne,
                rs1: XReg::A0,
                rs2: XReg::ZERO,
                offset: 32, // jump from inst 2 to the join at inst 10
            },
            // --- PE0 only ---
            Inst::Lui {
                rd: XReg::new(5),
                imm20: 0x8,
            }, // t0 = 0x8000
            pseudo::eset(EReg::paired_with(XReg::new(5)), 2), // e5 = object 2 (PE1)
            pseudo::li(XReg::new(6), 0x7BE),
            Inst::EStore {
                width: StoreWidth::D,
                rs1: XReg::new(5),
                rs2: XReg::new(6),
                imm: 0,
            },
            pseudo::nop(),
            pseudo::nop(),
            pseudo::nop(),
            // --- join ---
            pseudo::li(XReg::new(17), syscall::BARRIER as i32),
            Inst::Ecall,
            pseudo::li(XReg::new(17), syscall::EXIT as i32),
            Inst::Ecall,
        ];
        m.load_program(0x1000, &enc(&prog));
        let s = m.run();
        assert_eq!(s.exit, RunExit::AllHalted, "harts: {:?}", {
            let h0 = m.hart(0).state.clone();
            let h1 = m.hart(1).state.clone();
            (h0, h1)
        });
        assert_eq!(m.mem(1).load_u64(0x8000).unwrap(), 0x7BE);
        assert_eq!(m.mem(0).load_u64(0x8000).unwrap(), 0); // PE0 untouched
        assert_eq!(m.noc_stats().transactions, 1);
    }

    #[test]
    fn object_zero_accesses_local_memory() {
        let mut m = Machine::new(MachineConfig::test(2));
        // e-register left at 0 → esd is a local store (paper §3.2).
        let mut prog = vec![
            Inst::Lui {
                rd: XReg::new(5),
                imm20: 0x8,
            },
            pseudo::li(XReg::new(6), 77),
            Inst::EStore {
                width: StoreWidth::D,
                rs1: XReg::new(5),
                rs2: XReg::new(6),
                imm: 0,
            },
        ];
        prog.extend(exit_inst());
        m.load_program(0x1000, &enc(&prog));
        let s = m.run();
        assert_eq!(s.exit, RunExit::AllHalted);
        assert_eq!(m.mem(0).load_u64(0x8000).unwrap(), 77);
        assert_eq!(m.mem(1).load_u64(0x8000).unwrap(), 77); // SPMD: PE1 did the same locally
        assert_eq!(m.noc_stats().transactions, 0); // no fabric traffic
    }

    #[test]
    fn raw_load_reads_peer() {
        let mut m = Machine::new(MachineConfig::test(2));
        m.mem_mut(1).store_u64(0x8000, 4242).unwrap();
        // PE0: erld a0, t0, e9  with e9 = 2 (PE1), t0 = 0x8000.
        let mut prog = vec![
            Inst::Lui {
                rd: XReg::new(5),
                imm20: 0x8,
            },
            pseudo::eset(EReg::new(9), 2),
            Inst::ERLoad {
                width: LoadWidth::D,
                rd: XReg::A0,
                rs1: XReg::new(5),
                ext2: EReg::new(9),
            },
        ];
        prog.extend(exit_inst());
        // Only run on PE0; halt PE1 immediately.
        m.load_words(0, 0x1000, &enc(&prog));
        m.load_words(1, 0x1000, &enc(&exit_inst()));
        let s = m.run();
        assert_eq!(s.exit, RunExit::AllHalted);
        assert_eq!(m.hart(0).state, HartState::Halted { code: 4242 });
    }

    #[test]
    fn erse_stores_extended_register() {
        let mut m = Machine::new(MachineConfig::test(2));
        let mut prog = vec![
            Inst::Lui {
                rd: XReg::new(5),
                imm20: 0x8,
            },
            pseudo::eset(EReg::new(3), 1999), // data in e3
            pseudo::eset(EReg::new(9), 2),    // target PE1
            Inst::ERse {
                ext1: EReg::new(3),
                rs1: XReg::new(5),
                ext2: EReg::new(9),
            },
        ];
        prog.extend(exit_inst());
        m.load_words(0, 0x1000, &enc(&prog));
        m.load_words(1, 0x1000, &enc(&exit_inst()));
        let s = m.run();
        assert_eq!(s.exit, RunExit::AllHalted);
        assert_eq!(m.mem(1).load_u64(0x8000).unwrap(), 1999);
    }

    #[test]
    fn address_management_moves_values() {
        let mut m = Machine::new(MachineConfig::test(1));
        let mut prog = vec![
            pseudo::li(XReg::new(5), 100),
            Inst::Eaddie {
                ext: EReg::new(4),
                rs1: XReg::new(5),
                imm: 11,
            }, // e4 = 111
            Inst::Eaddix {
                ext1: EReg::new(6),
                ext2: EReg::new(4),
                imm: -1,
            }, // e6 = 110
            Inst::Eaddi {
                rd: XReg::A0,
                ext1: EReg::new(6),
                imm: 5,
            }, // a0 = 115
        ];
        prog.extend(exit_inst());
        m.load_program(0x1000, &enc(&prog));
        let s = m.run();
        assert_eq!(s.exit, RunExit::AllHalted);
        assert_eq!(m.hart(0).state, HartState::Halted { code: 115 });
        assert_eq!(m.hart(0).read_e(EReg::new(4)), 111);
    }

    #[test]
    fn olb_miss_faults() {
        let mut m = Machine::new(MachineConfig::test(1));
        let prog = vec![
            pseudo::eset(EReg::paired_with(XReg::new(5)), 99), // unmapped object
            Inst::ELoad {
                width: LoadWidth::D,
                rd: XReg::A0,
                rs1: XReg::new(5),
                imm: 0,
            },
        ];
        m.load_program(0x1000, &enc(&prog));
        let s = m.run();
        match s.exit {
            RunExit::Fault {
                pe: 0,
                fault: SimFault::OlbMiss { object_id: 99, .. },
            } => {}
            other => panic!("expected OLB miss, got {other:?}"),
        }
    }

    #[test]
    fn barrier_synchronises_cycles() {
        let mut m = Machine::new(MachineConfig::test(2));
        // PE0 wastes time in a loop before the barrier; both exit after.
        // Use SPMD with per-PE iteration count = (my_pe == 0) ? 50 : 1.
        let prog = vec![
            pseudo::li(XReg::new(17), syscall::MY_PE as i32),
            Inst::Ecall,
            // t0 = (a0 == 0) ? 50 : 1
            pseudo::li(XReg::new(5), 1),
            Inst::Branch {
                cond: xbgas_isa::BranchCond::Ne,
                rs1: XReg::A0,
                rs2: XReg::ZERO,
                offset: 8,
            },
            pseudo::li(XReg::new(5), 50),
            // loop: t0 -= 1; bnez t0, loop
            Inst::OpImm {
                op: AluImmOp::Addi,
                rd: XReg::new(5),
                rs1: XReg::new(5),
                imm: -1,
            },
            Inst::Branch {
                cond: xbgas_isa::BranchCond::Ne,
                rs1: XReg::new(5),
                rs2: XReg::ZERO,
                offset: -4,
            },
            pseudo::li(XReg::new(17), syscall::BARRIER as i32),
            Inst::Ecall,
            pseudo::li(XReg::new(17), syscall::EXIT as i32),
            Inst::Ecall,
        ];
        m.load_program(0x1000, &enc(&prog));
        let s = m.run();
        assert_eq!(s.exit, RunExit::AllHalted);
        // Both harts left the barrier at the same simulated time, so their
        // final cycle counts differ only by the two trailing instructions.
        let d = s.cycles[0].abs_diff(s.cycles[1]);
        assert!(d <= 1, "cycle divergence {d} too large: {:?}", s.cycles);
    }

    #[test]
    fn deadlock_detected_when_peer_halts_before_barrier() {
        let mut m = Machine::new(MachineConfig::test(2));
        // PE0 hits the barrier, PE1 exits immediately — deadlock is reported
        // only if *all* live harts wait while none can be released... here
        // PE1 halting makes PE0 the only live hart, so the barrier releases
        // (matching runtimes where exit implies barrier participation is
        // over). PE0 then proceeds to exit: AllHalted.
        let barrier_then_exit = vec![
            pseudo::li(XReg::new(17), syscall::BARRIER as i32),
            Inst::Ecall,
            pseudo::li(XReg::new(17), syscall::EXIT as i32),
            Inst::Ecall,
        ];
        m.load_words(0, 0x1000, &enc(&barrier_then_exit));
        m.load_words(1, 0x1000, &enc(&exit_inst()));
        let s = m.run();
        assert_eq!(s.exit, RunExit::AllHalted);
    }

    #[test]
    fn console_syscalls() {
        let mut m = Machine::new(MachineConfig::test(1));
        let mut prog = vec![
            pseudo::li(XReg::A0, 'h' as i32),
            pseudo::li(XReg::new(17), syscall::PUTCHAR as i32),
            Inst::Ecall,
            pseudo::li(XReg::A0, 'i' as i32),
            Inst::Ecall,
            pseudo::li(XReg::A0, 1234),
            pseudo::li(XReg::new(17), syscall::PRINT_UINT as i32),
            Inst::Ecall,
        ];
        prog.extend(exit_inst());
        m.load_program(0x1000, &enc(&prog));
        let s = m.run();
        assert_eq!(s.exit, RunExit::AllHalted);
        assert_eq!(m.output(0), "hi1234");
    }

    #[test]
    fn cycle_limit_stops_infinite_loop() {
        let mut cfg = MachineConfig::test(1);
        cfg.max_cycles = 1000;
        let mut m = Machine::new(cfg);
        // jal x0, 0 — tight infinite loop.
        let prog = vec![Inst::Jal {
            rd: XReg::ZERO,
            offset: 0,
        }];
        m.load_program(0x1000, &enc(&prog));
        let s = m.run();
        assert_eq!(s.exit, RunExit::CycleLimit);
    }

    #[test]
    fn illegal_instruction_faults() {
        let mut m = Machine::new(MachineConfig::test(1));
        m.load_program(0x1000, &[0xFFFF_FFFF]);
        let s = m.run();
        assert!(matches!(
            s.exit,
            RunExit::Fault {
                pe: 0,
                fault: SimFault::IllegalInstruction { .. }
            }
        ));
    }

    #[test]
    fn remote_access_costs_more_than_local() {
        let mut cfg = MachineConfig::test(2);
        cfg.cost = crate::cost::CostConfig::paper();
        cfg.mem_bytes = 1 << 20;
        let mut m = Machine::new(cfg);

        let eld = Inst::ELoad {
            width: LoadWidth::D,
            rd: XReg::A0,
            rs1: XReg::new(5),
            imm: 0,
        };
        // Program A: four local elds (e-reg = 0); the first is a cold miss,
        // the rest hit in L1.
        let mut local = vec![
            Inst::Lui {
                rd: XReg::new(5),
                imm20: 0x8,
            },
            eld,
            eld,
            eld,
            eld,
        ];
        local.extend(exit_inst());
        // Program B: four remote elds to PE1 — every one crosses the fabric.
        let mut remote = vec![
            Inst::Lui {
                rd: XReg::new(5),
                imm20: 0x8,
            },
            pseudo::eset(EReg::paired_with(XReg::new(5)), 2),
            eld,
            eld,
            eld,
            eld,
        ];
        remote.extend(exit_inst());

        m.load_words(0, 0x1000, &enc(&local));
        m.load_words(1, 0x1000, &enc(&exit_inst()));
        let cycles_local = {
            let s = m.run();
            assert_eq!(s.exit, RunExit::AllHalted);
            s.cycles[0]
        };

        let mut m2 = Machine::new(cfg);
        m2.load_words(0, 0x1000, &enc(&remote));
        m2.load_words(1, 0x1000, &enc(&exit_inst()));
        let cycles_remote = {
            let s = m2.run();
            assert_eq!(s.exit, RunExit::AllHalted);
            s.cycles[0]
        };
        // One extra eset (a couple of cycles) can't explain the gap; the
        // repeated fabric crossings must.
        assert!(
            cycles_remote > cycles_local + 2 * m2.config().cost.noc.base_latency,
            "remote {cycles_remote} vs local {cycles_local}"
        );
    }
}

#[cfg(test)]
mod csr_tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cost::MachineConfig;

    fn run(kernel: &str) -> (Machine, RunSummary) {
        let mut m = Machine::new(MachineConfig::test(1));
        let img = assemble(0x1000, kernel).unwrap();
        m.load_program(0x1000, &img.words);
        let s = m.run();
        (m, s)
    }

    #[test]
    fn rdcycle_is_monotonic_and_kernel_can_self_time() {
        // Measure the cycle delta across a 10-iteration loop.
        let (m, s) = run(r#"
            rdcycle s0
            li t0, 10
        loop:
            addi t0, t0, -1
            bnez t0, loop
            rdcycle s1
            sub a0, s1, s0
            li a7, 0
            ecall
            "#);
        assert_eq!(s.exit, RunExit::AllHalted);
        let delta = match m.hart(0).state {
            crate::hart::HartState::Halted { code } => code,
            _ => unreachable!(),
        };
        // 20 loop instructions at 2 cycles each (functional cost), plus the
        // closing rdcycle itself.
        assert!(delta >= 40, "measured {delta}");
        assert!(delta <= 60, "measured {delta}");
    }

    #[test]
    fn rdinstret_counts_retired_instructions() {
        let (m, s) = run(r#"
            nop
            nop
            nop
            rdinstret a0
            li a7, 0
            ecall
            "#);
        assert_eq!(s.exit, RunExit::AllHalted);
        // 3 nops retired before the rdinstret executes.
        assert_eq!(m.hart(0).state, HartState::Halted { code: 3 });
    }

    #[test]
    fn writes_to_counters_fault() {
        let (_, s) = run("csrrw a0, cycle, t0\nli a7, 0\necall");
        assert!(matches!(
            s.exit,
            RunExit::Fault {
                fault: SimFault::IllegalInstruction { .. },
                ..
            }
        ));
        // csrrs with rs1 = x0 is the read idiom and must NOT fault.
        let (_, s) = run("csrrs a0, instret, zero\nli a7, 0\necall");
        assert_eq!(s.exit, RunExit::AllHalted);
    }

    #[test]
    fn unknown_csr_faults() {
        let (_, s) = run("csrrs a0, 0x300, zero\nli a7, 0\necall");
        assert!(matches!(
            s.exit,
            RunExit::Fault {
                fault: SimFault::IllegalInstruction { .. },
                ..
            }
        ));
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cost::MachineConfig;

    #[test]
    fn trace_records_last_instructions_before_fault() {
        let mut m = Machine::new(MachineConfig::test(1));
        m.enable_trace(4);
        let img = assemble(
            0x1000,
            "li t0, 1\nli t1, 2\nadd t2, t0, t1\n.word 0xffffffff",
        )
        .unwrap();
        m.load_program(0x1000, &img.words);
        let s = m.run();
        assert!(matches!(s.exit, RunExit::Fault { .. }));
        let trace = m.trace(0);
        assert_eq!(trace.len(), 4);
        assert!(trace[2].contains("add t2, t0, t1"), "{trace:?}");
        assert!(trace[3].contains(".word 0xffffffff"), "{trace:?}");
    }

    #[test]
    fn trace_is_bounded() {
        let mut m = Machine::new(MachineConfig::test(1));
        m.enable_trace(2);
        let img = assemble(
            0x1000,
            "li t0, 100\nloop:\naddi t0, t0, -1\nbnez t0, loop\nli a7, 0\necall",
        )
        .unwrap();
        m.load_program(0x1000, &img.words);
        let s = m.run();
        assert_eq!(s.exit, RunExit::AllHalted);
        assert_eq!(m.trace(0).len(), 2);
    }

    #[test]
    fn tracing_disabled_by_default() {
        let mut m = Machine::new(MachineConfig::test(1));
        let img = assemble(0x1000, "li a7, 0\necall").unwrap();
        m.load_program(0x1000, &img.words);
        m.run();
        assert!(m.trace(0).is_empty());
    }
}

#[cfg(test)]
mod erle_tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cost::MachineConfig;

    #[test]
    fn erle_loads_object_id_from_remote_memory() {
        // A distributed directory: PE1's memory holds an object ID at
        // 0x8000; PE0 erle-loads it into e9 and then uses it to address a
        // third location — pointer-chasing through the extended file.
        let mut m = Machine::new(MachineConfig::test(2));
        m.mem_mut(1).store_u64(0x8000, 2).unwrap(); // directory says "PE1"
        m.mem_mut(1).store_u64(0x9000, 777).unwrap(); // the payload
        let img = assemble(
            0x1000,
            r#"
            eaddie e8, zero, 2      # e8 names PE1 (the directory host)
            lui  t0, 0x8
            erle e9, t0, e8         # e9 = directory[0] = object 2
            lui  t1, 0x9
            erld a0, t1, e9         # follow the pointer
            li   a7, 0
            ecall
            "#,
        )
        .unwrap();
        m.load_words(0, 0x1000, &img.words);
        let exit = assemble(0x1000, "li a7, 0\necall").unwrap();
        m.load_words(1, 0x1000, &exit.words);
        let s = m.run();
        assert_eq!(s.exit, RunExit::AllHalted);
        assert_eq!(m.hart(0).state, HartState::Halted { code: 777 });
        assert_eq!(m.hart(0).read_e(xbgas_isa::EReg::new(9)), 2);
    }
}
