//! The simulated clock and the fabric's price list.
//!
//! The paper reports *simulated* performance (Spike + timing configuration,
//! §5.1). Our fabric executes the PE bodies at native speed but carries a
//! deterministic per-PE cycle counter fed by the `xbgas-sim` cost model.
//! Every simulated cycle the fabric charges is priced here: `fabric.rs`
//! moves bytes and synchronises, and makes one call on the PE's clock per
//! charge. The price list:
//!
//! - `heap(off, len)` / `local(at, len)`: a TLB + L1/L2 walk of a window of
//!   the PE's own symmetric heap, or of a private range. The models are
//!   keyed on a per-PE logical address laid out like one `xbgas-sim`
//!   hart's flat memory: the heap at `HEAP_BASE`, private pages above
//!   it, numbered in the PE's first-touch order with their in-page offsets
//!   kept. No host page number reaches a model;
//! - `hop(target)`: one flight of base latency, scaled on-node by the
//!   [`Topology`]; a signal arrives one hop after it is posted;
//! - `remote(target, bytes)`: one fabric crossing — OLB lookup, queueing
//!   behind the other PEs' offered load, channel occupancy, a hop and the
//!   remote side's DRAM;
//! - `transfer(target, bytes, nelems, nb)`: a put or get once its ends are
//!   walked — per-element overhead plus the crossing, or (non-blocking) the
//!   issue cost now and a completion stamp behind the injection port;
//! - `amo(target, off)`: one crossing, or an ALU op plus a one-word walk;
//! - `advance_to(t)`: the one clamp behind `wait`, `quiet`, `signal_wait`
//!   and the barrier release, returning the stall;
//! - `barrier(arrived)`: release at the latest arrival plus `⌈log2 n⌉`
//!   dissemination rounds;
//! - `fold(nelems)`, `alloc()`, `free()`, `post()`: ALU charges.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use xbgas_sim::cache::{CacheStats, MemModel};
use xbgas_sim::cost::CostConfig;
use xbgas_sim::hash::WordMap;
use xbgas_sim::tlb::TlbStats;

/// The splitmix64 generator — the single PRNG behind every deterministic
/// stream in the runtime (the fault plane's per-PE rolls, the conformance
/// explorer's random-priority schedulers).
///
/// All arithmetic is on `u64` with wrapping semantics, so a given seed
/// produces the identical stream on every platform regardless of
/// `usize` width or endianness — the property the golden-seed tests in
/// `tests/conformance.rs` pin down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting from `seed` (the first output mixes `seed +
    /// 0x9E3779B97F4A7C15`, never `seed` itself).
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The raw generator state (exposed so callers that persist the state
    /// in a `Cell<u64>` can round-trip it).
    pub const fn state(&self) -> u64 {
        self.state
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut z = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.state = z;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough pick in `0..n` (`n > 0`); modulo bias is irrelevant
    /// for scheduling choices.
    pub fn pick(&mut self, n: u64) -> u64 {
        assert!(n > 0, "pick from an empty range");
        self.next_u64() % n
    }
}

/// Physical grouping of PEs into nodes, for location-aware costing.
///
/// Paper §7 lists "location aware communication optimization using the
/// xBGAS OLB" as future work: the OLB's object-ID mapping tells the
/// runtime *where* a peer lives, so intra-node transfers can be priced
/// (and scheduled) differently from inter-node ones. PEs are grouped
/// contiguously: node `k` owns PEs `k·pes_per_node ..`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Topology {
    /// PEs per node (the last node may be smaller).
    pub pes_per_node: usize,
    /// Scale applied to flight latency and channel occupancy for
    /// intra-node transfers (e.g. `0.25` = 4× cheaper on-node).
    pub intra_node_factor: f64,
}

impl Topology {
    /// Node index owning a PE.
    ///
    /// `pes_per_node` must be at least 1;
    /// [`FabricConfig::with_topology`](crate::fabric::FabricConfig::with_topology)
    /// and [`Fabric::run`](crate::fabric::Fabric::run) validate this up
    /// front so a zero never reaches the division here.
    pub fn node_of(&self, pe: usize) -> usize {
        assert!(
            self.pes_per_node > 0,
            "topology with pes_per_node == 0 (every node must own at least one PE)"
        );
        pe / self.pes_per_node
    }

    /// Whether two PEs share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

/// Timing parameters for the fabric.
#[derive(Clone, Copy, Debug)]
pub struct TimingConfig {
    /// When `false`, no cycle accounting is performed (wall-clock benches).
    pub enabled: bool,
    /// Component latencies and geometries.
    pub cost: CostConfig,
    /// `nelems` threshold above which transfers use the unrolled fast path
    /// (paper §3.3: *"further optimized … by utilizing loop unrolling when
    /// nelems exceeds a given threshold"*).
    pub unroll_threshold: usize,
}

/// Per-element overhead divisor on the unrolled transfer path.
const UNROLL_FACTOR: u64 = 4;

impl TimingConfig {
    /// The calibration used by the figure harnesses.
    pub const fn paper() -> Self {
        TimingConfig {
            enabled: true,
            cost: CostConfig::paper(),
            unroll_threshold: 8,
        }
    }

    /// Cycle accounting off; for wall-clock benchmarking.
    pub const fn disabled() -> Self {
        TimingConfig {
            enabled: false,
            cost: CostConfig::functional(),
            ..Self::paper()
        }
    }

    /// Per-element software overhead (address generation + copy) for a
    /// transfer of `nelems`, honouring the unroll threshold.
    pub fn element_overhead(&self, nelems: usize) -> u64 {
        let total = self.cost.alu_cycles * nelems as u64;
        if nelems >= self.unroll_threshold {
            total / UNROLL_FACTOR
        } else {
            total
        }
    }
}

/// Every PE's offered load on the shared channel: the cumulative channel
/// occupancy it has issued and its latest published simulated time.
///
/// Queueing is modelled from channel *utilization*: the sum of the other
/// PEs' occupancy / time ratios estimates the offered load ρ, and a
/// crossing waits the M/M/1-style `occupancy · ρ/(1−ρ)`, bounded by an
/// `n_pes`-deep queue. Per-PE ratios (instead of a shared busy-until
/// timeline) make the estimate immune to wall-clock skew between PEs, so
/// saturated makespans are stable run-to-run.
pub(crate) struct OfferedLoad {
    occupancy: Vec<AtomicU64>,
    now: Vec<AtomicU64>,
}

impl OfferedLoad {
    /// No load yet on an `n_pes`-PE fabric.
    pub(crate) fn new(n_pes: usize) -> Self {
        OfferedLoad {
            occupancy: (0..n_pes).map(|_| AtomicU64::new(0)).collect(),
            now: (0..n_pes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Publish `occupancy` more cycles issued by `rank` at `now`, and
    /// return how long that crossing queues behind everyone else.
    fn queue_wait(&self, rank: usize, now: u64, occupancy: u64) -> u64 {
        /// Ignore PEs that have simulated less than this (cold ratios).
        const WARMUP_CYCLES: u64 = 2_000;
        self.occupancy[rank].fetch_add(occupancy, Ordering::Relaxed);
        self.now[rank].store(now.max(1), Ordering::Relaxed);
        // Offered load from the *other* PEs: a sequential issuer never
        // queues behind itself, and excluding the self-ratio keeps one-shot
        // measurements (a single collective from a cold start) unbiased.
        let mut rho = 0.0f64;
        for j in (0..self.now.len()).filter(|&j| j != rank) {
            let t = self.now[j].load(Ordering::Relaxed);
            if t >= WARMUP_CYCLES {
                rho += self.occupancy[j].load(Ordering::Relaxed) as f64 / t as f64;
            }
        }
        let cap = self.now.len() as f64;
        let depth = if rho < 1.0 { rho / (1.0 - rho) } else { cap };
        (occupancy as f64 * depth.min(cap)) as u64
    }
}

/// `cycles × scale`, rounded to the nearest cycle. Out of line: `round`
/// is a library call on the baseline x86-64 target, and only on-node
/// flights pay it. Below 2^53 cycles a scale of 1.0 returns `cycles`.
#[inline(never)]
fn scaled(cycles: u64, scale: f64) -> u64 {
    (cycles as f64 * scale).round() as u64
}

/// Where every PE's symmetric heap starts in its logical address space
/// (page-aligned).
const HEAP_BASE: u64 = 0;

/// A PE's first-touch page table: each host page its private walks reach
/// gets the next free logical page above the heap, so the cache and TLB
/// models see the PE's touch order, never the host's page numbers.
struct PageTable {
    shift: u32,
    /// The logical page the next first touch gets.
    next: u64,
    /// The last lookup, `(host page, logical page)`: a one-page walk (a
    /// GUPS update's stack word) is a compare.
    last: (u64, u64),
    pages: WordMap<u64, u64>,
}

impl PageTable {
    /// No page touched yet; the first gets the page above a heap of
    /// `heap_len` bytes.
    fn new(page_bytes: u64, heap_len: usize) -> Self {
        PageTable {
            shift: page_bytes.trailing_zeros(),
            next: (HEAP_BASE + heap_len as u64).div_ceil(page_bytes),
            last: (u64::MAX, 0),
            pages: WordMap::default(),
        }
    }

    /// The logical address of host address `at`.
    fn logical(&mut self, at: u64) -> u64 {
        let page = at >> self.shift;
        if page != self.last.0 {
            let fresh = self.next;
            let logical = *self.pages.entry(page).or_insert(fresh);
            self.next += (logical == fresh) as u64;
            self.last = (page, logical);
        }
        self.last.1 << self.shift | at & ((1 << self.shift) - 1)
    }
}

/// One PE's simulated clock, its private TLB and cache models, and
/// everything its prices read.
///
/// Single-threaded by construction (owned by one PE); the only state it
/// shares is the fabric's [`OfferedLoad`], and clocks meet only at
/// barriers and signal stamps.
pub(crate) struct PeClock<'f> {
    rank: usize,
    cfg: TimingConfig,
    topology: Option<Topology>,
    load: &'f OfferedLoad,
    cycles: Cell<u64>,
    /// This PE's injection port: the simulated time until which its own
    /// previously-issued non-blocking transfers occupy the channel
    /// interface. Purely local (own clock), so it is exact and skew-free.
    port_busy: Cell<u64>,
    mem: RefCell<MemModel>,
    pages: RefCell<PageTable>,
}

impl<'f> PeClock<'f> {
    /// PE `rank`'s clock at cycle 0, with cold cache/TLB models and a
    /// symmetric heap of `heap_len` bytes.
    pub(crate) fn new(
        rank: usize,
        cfg: TimingConfig,
        topology: Option<Topology>,
        heap_len: usize,
        load: &'f OfferedLoad,
    ) -> Self {
        PeClock {
            rank,
            cfg,
            topology,
            load,
            cycles: Cell::new(0),
            port_busy: Cell::new(0),
            mem: RefCell::new(MemModel::new(&cfg.cost)),
            pages: RefCell::new(PageTable::new(cfg.cost.tlb.page_bytes, heap_len)),
        }
    }

    /// The timing configuration the prices come from.
    pub(crate) fn config(&self) -> &TimingConfig {
        &self.cfg
    }

    /// The physical topology, if one was configured.
    pub(crate) fn topology(&self) -> Option<Topology> {
        self.topology
    }

    /// Current simulated cycle count.
    #[inline]
    pub(crate) fn cycles(&self) -> u64 {
        self.cycles.get()
    }

    /// Add `c` cycles.
    #[inline]
    pub(crate) fn charge(&self, c: u64) {
        if self.cfg.enabled {
            self.cycles.set(self.cycles.get() + c);
        }
    }

    /// Charge a local memory access to `len` bytes at offset `off` of this
    /// PE's symmetric heap, logical address `HEAP_BASE + off`, priced by
    /// [`MemModel::access_range`] as one access per touched cache line:
    /// the first line pays full demand-miss latency, the rest of the
    /// contiguous range are prefetched streaming misses. The model does
    /// that work per page and per cache set, not per line.
    pub(crate) fn heap(&self, off: usize, len: usize) {
        if self.cfg.enabled {
            let at = HEAP_BASE + off as u64;
            self.charge(self.mem.borrow_mut().access_range(at, len));
        }
    }

    /// [`PeClock::heap`]'s walk over the private byte range `[at, at+len)`
    /// at its logical pages (the [`PageTable`]). Each maximal run of
    /// consecutive logical pages is its own demand stream, as a hardware
    /// prefetcher stops at a physical page boundary.
    pub(crate) fn local(&self, at: *const u8, len: usize) {
        if !self.cfg.enabled || len == 0 {
            return;
        }
        let (mut pages, mut mem) = (self.pages.borrow_mut(), self.mem.borrow_mut());
        let (at, shift) = (at as u64, pages.shift);
        let end = at + len as u64;
        // The current run starts at host address `host`, logical `logical`.
        let (mut host, mut logical) = (at, pages.logical(at));
        let mut cycles = 0;
        for page in (at >> shift) + 1..=(end - 1) >> shift {
            let (h, l) = (page << shift, pages.logical(page << shift));
            if l != logical + (h - host) {
                cycles += mem.access_range(logical, (h - host) as usize);
                (host, logical) = (h, l);
            }
        }
        cycles += mem.access_range(logical, (end - host) as usize);
        self.charge(cycles);
    }

    /// Location-aware scale for a flight to `target`: an intra-node
    /// transfer flies a shorter, wider path (the OLB tells the runtime
    /// where the object lives). `None` is a full-length flight, priced in
    /// integers: only an on-node flight needs the `f64` product.
    fn on_node_scale(&self, target: usize) -> Option<f64> {
        match self.topology {
            Some(t) if t.same_node(self.rank, target) => Some(t.intra_node_factor),
            _ => None,
        }
    }

    /// How long `bytes` to `target` hold the channel (never 0 cycles).
    fn occupancy(&self, target: usize, bytes: usize) -> u64 {
        let occ = self.cfg.cost.noc.occupancy(bytes);
        match self.on_node_scale(target) {
            None => occ.max(1),
            Some(s) => scaled(occ, s).max(1),
        }
    }

    /// One flight's base latency to `target`: 0 to itself or with
    /// accounting off.
    pub(crate) fn hop(&self, target: usize) -> u64 {
        if !self.cfg.enabled || target == self.rank {
            return 0;
        }
        let base = self.cfg.cost.noc.base_latency;
        self.on_node_scale(target).map_or(base, |s| scaled(base, s))
    }

    /// Simulated cost of moving `bytes` to/from `target` (excluding the
    /// per-element software overhead): OLB lookup, queueing delay on the
    /// shared channel ([`OfferedLoad`]), channel occupancy, flight latency,
    /// and the remote side's DRAM access. Local copies cost 0 here: they
    /// charge through the cache model instead. Publishes this PE's load.
    fn remote(&self, target: usize, bytes: usize) -> u64 {
        if !self.cfg.enabled || target == self.rank {
            return 0;
        }
        let occupancy = self.occupancy(target, bytes);
        let queue = self.load.queue_wait(self.rank, self.cycles(), occupancy);
        let cost = &self.cfg.cost;
        cost.olb_lookup_cycles + queue + occupancy + self.hop(target) + cost.mem_cycles
    }

    /// Price a put or get of `nelems` elements (`bytes`) to or from
    /// `target` whose ends have been walked, and return the simulated
    /// cycle at which the data lands.
    ///
    /// Blocking charges the per-element overhead and the crossing; the
    /// clock has absorbed the whole transfer on return. Non-blocking
    /// charges only the `alu + olb` issue cost, and the transfer starts
    /// once this PE's injection port is free (back-to-back bursts
    /// serialize at channel occupancy, capping message rate at channel
    /// bandwidth): the returned stamp lies in the future.
    pub(crate) fn transfer(&self, target: usize, bytes: usize, nelems: usize, nb: bool) -> u64 {
        let overhead = self.cfg.element_overhead(nelems);
        if !nb {
            self.charge(overhead);
            self.charge(self.remote(target, bytes));
            return self.cycles();
        }
        let full = overhead + self.remote(target, bytes);
        let cost = &self.cfg.cost;
        self.charge(cost.alu_cycles + cost.olb_lookup_cycles);
        let mut start = self.cycles();
        if self.cfg.enabled && target != self.rank {
            start = start.max(self.port_busy.get());
            self.port_busy.set(start + self.occupancy(target, bytes));
        }
        start + full
    }

    /// A remote atomic on the word at heap offset `off` of `target`: one
    /// fabric crossing — the whole advantage over get+modify+put — or, on
    /// this PE, an ALU op plus one cache-hierarchy access.
    pub(crate) fn amo(&self, target: usize, off: usize) {
        if target != self.rank {
            self.charge(self.remote(target, 8));
        } else if self.cfg.enabled {
            let at = HEAP_BASE + off as u64;
            self.charge(self.cfg.cost.alu_cycles + self.mem.borrow_mut().access(at));
        }
    }

    /// Advance the clock to at least `t`; returns the cycles stalled (0
    /// when `t` is already past, or with accounting off).
    pub(crate) fn advance_to(&self, t: u64) -> u64 {
        let now = self.cycles();
        if !self.cfg.enabled || t <= now {
            return 0;
        }
        self.cycles.set(t);
        t - now
    }

    /// Leave a barrier whose latest arrival was at `arrived`: a
    /// dissemination barrier costs `⌈log2 n⌉` rounds of one flight plus
    /// two ALU ops.
    pub(crate) fn barrier(&self, arrived: u64) {
        let cost = &self.cfg.cost;
        let rounds = crate::fabric::ceil_log2(self.load.now.len().max(2)) as u64;
        self.advance_to(arrived);
        self.charge(rounds * (cost.noc.base_latency + 2 * cost.alu_cycles));
    }

    /// Combine `nelems` element pairs.
    pub(crate) fn fold(&self, nelems: usize) {
        self.charge(self.cfg.cost.alu_cycles * nelems as u64);
    }

    /// Allocate from the symmetric heap.
    pub(crate) fn alloc(&self) {
        self.charge(self.cfg.cost.alu_cycles * 8);
    }

    /// Free to the symmetric heap.
    pub(crate) fn free(&self) {
        self.charge(self.cfg.cost.alu_cycles * 4);
    }

    /// Issue a signal post (the flight is in its arrival stamp).
    pub(crate) fn post(&self) {
        self.charge(self.cfg.cost.alu_cycles);
    }

    /// Snapshot of the (L1, L2, TLB) model statistics.
    pub(crate) fn mem_stats(&self) -> (CacheStats, CacheStats, TlbStats) {
        self.mem.borrow().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test clocks' heap length; private pages start right above it.
    const HEAP_LEN: usize = 1 << 20;

    /// PE 0's clock on `load`, with a [`HEAP_LEN`]-byte heap.
    fn clock(cfg: TimingConfig, topology: Option<Topology>, load: &OfferedLoad) -> PeClock<'_> {
        PeClock::new(0, cfg, topology, HEAP_LEN, load)
    }

    const NODES_OF_TWO: Topology = Topology {
        pes_per_node: 2,
        intra_node_factor: 0.25,
    };

    #[test]
    fn disabled_clock_charges_nothing() {
        let load = OfferedLoad::new(4);
        let c = clock(TimingConfig::disabled(), Some(NODES_OF_TWO), &load);
        c.charge(100);
        c.heap(0x1000, 4096);
        c.local(0x2000 as *const u8, 8);
        assert_eq!((c.hop(1), c.hop(2), c.remote(2, 64)), (0, 0, 0));
        c.transfer(2, 64, 8, false);
        c.transfer(2, 64, 8, true);
        c.amo(0, 0);
        c.amo(2, 0);
        assert_eq!(c.advance_to(500), 0);
        c.barrier(900);
        c.fold(10);
        c.alloc();
        c.free();
        c.post();
        assert_eq!(c.cycles(), 0);
        assert_eq!(c.mem_stats().0.accesses(), 0, "no model walked");
    }

    #[test]
    fn enabled_clock_accumulates() {
        let load = OfferedLoad::new(1);
        let c = clock(TimingConfig::paper(), None, &load);
        c.charge(5);
        assert_eq!(c.cycles(), 5);
        assert_eq!(c.advance_to(100), 95);
        assert_eq!(c.cycles(), 100);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let load = OfferedLoad::new(1);
        let c = clock(TimingConfig::paper(), None, &load);
        c.charge(40);
        assert_eq!(c.advance_to(10), 0);
        assert_eq!(c.advance_to(40), 0);
        assert_eq!(c.cycles(), 40);
        assert_eq!(c.advance_to(41), 1);
    }

    #[test]
    fn range_charge_is_per_line() {
        let cfg = TimingConfig::paper();
        let load = OfferedLoad::new(1);
        let c = clock(cfg, None, &load);
        // One cold line: TLB miss + L1 miss + L2 miss + DRAM.
        c.heap(0, 8);
        let one_line = c.cycles();
        assert!(one_line > 0);
        // Re-touch: everything hot → just an L1 hit.
        let before = c.cycles();
        c.heap(0, 8);
        assert_eq!(c.cycles() - before, cfg.cost.l1.hit_cycles);
        // A two-line fresh range: the first line pays the demand miss, the
        // second only the streaming (prefetched) cost.
        let before = c.cycles();
        c.heap(128, 128); // lines 2 and 3
        let two_lines = c.cycles() - before;
        let demand = cfg.cost.l1.hit_cycles + cfg.cost.l2.hit_cycles + cfg.cost.mem_cycles;
        let stream = cfg.cost.l1.hit_cycles + cfg.cost.stream_miss_cycles;
        assert_eq!(two_lines, demand + stream);
    }

    #[test]
    fn unroll_threshold_reduces_overhead() {
        let cfg = TimingConfig::paper();
        let below = cfg.element_overhead(cfg.unroll_threshold - 1);
        let at = cfg.element_overhead(cfg.unroll_threshold);
        // 7 elements cost 7 cycles; 8 elements unrolled cost 8/4 = 2.
        assert!(at < below, "unrolled {at} should undercut rolled {below}");
    }

    #[test]
    fn hop_scales_on_node_only() {
        let cost = TimingConfig::paper().cost;
        let load = OfferedLoad::new(4);
        let c = clock(TimingConfig::paper(), Some(NODES_OF_TWO), &load);
        assert_eq!(c.hop(0), 0, "no flight to itself");
        assert_eq!(
            c.hop(1),
            (cost.noc.base_latency as f64 * 0.25).round() as u64
        );
        assert_eq!(c.hop(2), cost.noc.base_latency);
        let flat = clock(TimingConfig::paper(), None, &load);
        assert_eq!(flat.hop(1), cost.noc.base_latency);
    }

    #[test]
    fn remote_on_an_idle_channel_is_one_crossing() {
        let cost = TimingConfig::paper().cost;
        let load = OfferedLoad::new(4);
        let c = clock(TimingConfig::paper(), Some(NODES_OF_TWO), &load);
        let crossing =
            |occupancy: u64, hop: u64| cost.olb_lookup_cycles + occupancy + hop + cost.mem_cycles;
        let bytes = 4096;
        let occ = cost.noc.occupancy(bytes);
        assert_eq!(
            c.remote(0, bytes),
            0,
            "local copies walk the caches instead"
        );
        assert_eq!(c.remote(2, bytes), crossing(occ, cost.noc.base_latency));
        assert_eq!(
            c.remote(1, bytes),
            crossing((occ as f64 * 0.25).round() as u64, c.hop(1))
        );
        // Pricing reads, and never charges, the clock.
        assert_eq!(c.cycles(), 0);
    }

    #[test]
    fn remote_queues_behind_the_other_pes_load() {
        let cost = TimingConfig::paper().cost;
        let load = OfferedLoad::new(2);
        let c = clock(TimingConfig::paper(), None, &load);
        let idle = c.remote(1, 8);
        // PE 1 has kept the channel half busy for 4 000 cycles: ρ = 0.5,
        // so PE 0 waits one more occupancy (ρ/(1−ρ) = 1).
        load.queue_wait(1, 4_000, 2_000);
        assert_eq!(c.remote(1, 8), idle + cost.noc.occupancy(8));
    }

    #[test]
    fn barrier_releases_after_the_latest_arrival() {
        let cost = TimingConfig::paper().cost;
        let load = OfferedLoad::new(8);
        let c = clock(TimingConfig::paper(), None, &load);
        let rounds = 3 * (cost.noc.base_latency + 2 * cost.alu_cycles);
        c.barrier(1_000);
        assert_eq!(c.cycles(), 1_000 + rounds);
        // Arriving last, the PE leaves at its own time plus the rounds.
        c.charge(5_000);
        let late = c.cycles();
        c.barrier(10);
        assert_eq!(c.cycles(), late + rounds);
    }

    #[test]
    fn page_numbers_no_longer_price() {
        const PAGE: u64 = 4096;
        let load = OfferedLoad::new(1);
        // 16 pages, one line each at the same in-page offset, walked three
        // times. 1 MiB apart, the host pages would share one 8-way L2 set.
        let walk = |stride: u64, base: u64| {
            let c = clock(TimingConfig::paper(), None, &load);
            for _ in 0..3 {
                for i in 0..16 {
                    c.local((base + i * stride + 0x40) as *const u8, 8);
                }
            }
            (c.cycles(), c.mem_stats())
        };
        let (spread, dense) = (
            walk(1 << 20, 0x7f3a_0000_0000),
            walk(PAGE, 0x5581_2345_6000),
        );
        assert_eq!(spread.0, dense.0);
        assert_eq!(spread.1, dense.1);
    }

    #[test]
    fn private_runs_are_demand_streams() {
        let cfg = TimingConfig::paper();
        let page = cfg.cost.tlb.page_bytes;
        let first = (HEAP_BASE + HEAP_LEN as u64).div_ceil(page) * page;
        let load = OfferedLoad::new(1);
        let charged = |c: &PeClock, at: u64, len: usize| {
            let before = c.cycles();
            c.local(at as *const u8, len);
            c.cycles() - before
        };
        // Pages first touched in order: one stream at the first private page.
        let host = 0x7f3a_1234_5880;
        let c = clock(cfg, None, &load);
        let mut m = MemModel::new(&cfg.cost);
        let len = 2 * page as usize + 100;
        assert_eq!(
            charged(&c, host, len),
            m.access_range(first + (host & (page - 1)), len)
        );
        assert_eq!(c.mem_stats(), m.stats());
        // Page p + 1 first touched before page p: a walk over both is two
        // demand streams, at logical `first + page`, then at `first`.
        let (c, mut m) = (clock(cfg, None, &load), MemModel::new(&cfg.cost));
        let p = 0x7f3a_1234_5000;
        charged(&c, p + page, 8);
        m.access_range(first, 8);
        let two =
            m.access_range(first + page, page as usize) + m.access_range(first, page as usize);
        assert_eq!(charged(&c, p, 2 * page as usize), two);
        // The heap walks its own window at HEAP_BASE.
        let before = c.cycles();
        c.heap(3000, 5000);
        assert_eq!(c.cycles() - before, m.access_range(HEAP_BASE + 3000, 5000));
        assert_eq!(c.mem_stats(), m.stats());
    }
}
