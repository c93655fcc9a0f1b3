//! Differential suite: the TLB and cache models vs their textbook forms.
//!
//! `tlb::Tlb` and `cache::Cache` are built for host speed (an intrusive
//! recency list behind a hash, a footprint of presence masks until a set
//! overflows, packed tag arrays with a most-recent-line memo after, one
//! TLB lookup per page of a range, the L1 priced set by set past its
//! capacity). The oracles below are the structures they replaced — a
//! timestamp per entry and a minimum scan, an array of `{tag, valid, lru}`
//! lines, one TLB lookup per line — and every returned latency, every hit
//! flag and the counters after every call must agree, on the access
//! patterns that stress the differences: capacity-sized round-robins,
//! same-line and same-page repeats, flushes mid-stream, non-power-of-two
//! capacities, L2 lines wider and narrower than the L1's, the access that
//! first overflows a set (by word, mid-range, as a range's first line,
//! from cold and after a flush), and ranges around the lengths where
//! `MemModel::access_range` changes how it prices the L1.

// The `..ProptestConfig::default()` spread is upstream proptest's
// canonical config idiom; the local shim happens to have no other
// fields, which trips needless_update.
#![allow(clippy::needless_update)]

use std::collections::HashMap;

use proptest::prelude::*;
use xbgas_sim::cache::{Cache, CacheConfig, CacheStats, MemModel};
use xbgas_sim::cost::CostConfig;
use xbgas_sim::tlb::{Tlb, TlbConfig, TlbStats};

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Fully-associative TLB: (vpn, last-touch tick) pairs, victim = the
/// minimum tick, found by scanning every entry.
struct RefTlb {
    config: TlbConfig,
    entries: Vec<(u64, u64)>,
    index: HashMap<u64, usize>,
    tick: u64,
    stats: TlbStats,
}

impl RefTlb {
    // The oracle is looked up, never iterated: its order cannot matter.
    #[allow(clippy::disallowed_methods)]
    fn new(config: TlbConfig) -> Self {
        RefTlb {
            config,
            entries: Vec::new(),
            index: HashMap::new(),
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    fn access(&mut self, addr: u64) -> u64 {
        self.tick += 1;
        let vpn = addr / self.config.page_bytes;
        if let Some(&slot) = self.index.get(&vpn) {
            self.entries[slot].1 = self.tick;
            self.stats.hits += 1;
            return 0;
        }
        self.stats.misses += 1;
        if self.entries.len() < self.config.entries {
            self.index.insert(vpn, self.entries.len());
            self.entries.push((vpn, self.tick));
        } else {
            let lru = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].1)
                .unwrap();
            self.index.remove(&self.entries[lru].0);
            self.index.insert(vpn, lru);
            self.entries[lru] = (vpn, self.tick);
        }
        self.config.miss_cycles
    }

    fn flush(&mut self) {
        self.entries.clear();
        self.index.clear();
    }
}

#[derive(Clone, Copy)]
struct RefLine {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// Set-associative cache as an array of lines: scan the set for a valid
/// matching tag, else fill the first invalid way, else the minimum tick.
struct RefCache {
    config: CacheConfig,
    lines: Vec<RefLine>,
    tick: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let invalid = RefLine {
            tag: 0,
            valid: false,
            lru: 0,
        };
        RefCache {
            config,
            lines: vec![invalid; config.sets() * config.ways],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line_addr = addr / self.config.line_bytes as u64;
        let sets = self.config.sets() as u64;
        let (set, tag) = ((line_addr % sets) as usize, line_addr / sets);
        let ways = &mut self.lines[set * self.config.ways..][..self.config.ways];
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, line) in ways.iter().enumerate() {
            if !line.valid {
                victim = i;
                break;
            }
            if line.lru < oldest {
                oldest = line.lru;
                victim = i;
            }
        }
        ways[victim] = RefLine {
            tag,
            valid: true,
            lru: self.tick,
        };
        false
    }

    fn flush(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
        }
    }
}

/// The whole local-access walk as it was written three times: TLB then
/// L1 → L2 → DRAM per access, and per touched line of a range.
struct RefModel {
    cost: CostConfig,
    tlb: RefTlb,
    l1: RefCache,
    l2: RefCache,
}

impl RefModel {
    fn new(cost: CostConfig) -> Self {
        RefModel {
            cost,
            tlb: RefTlb::new(cost.tlb),
            l1: RefCache::new(cost.l1),
            l2: RefCache::new(cost.l2),
        }
    }

    fn hier(&mut self, addr: u64) -> u64 {
        if self.l1.access(addr) {
            self.cost.l1.hit_cycles
        } else if self.l2.access(addr) {
            self.cost.l1.hit_cycles + self.cost.l2.hit_cycles
        } else {
            self.cost.l1.hit_cycles + self.cost.l2.hit_cycles + self.cost.mem_cycles
        }
    }

    fn hier_streaming(&mut self, addr: u64) -> u64 {
        if self.l1.access(addr) {
            self.cost.l1.hit_cycles
        } else if self.l2.access(addr) {
            self.cost.l1.hit_cycles + self.cost.l2.hit_cycles
        } else {
            self.cost.l1.hit_cycles + self.cost.stream_miss_cycles
        }
    }

    fn access(&mut self, addr: u64) -> u64 {
        self.tlb.access(addr) + self.hier(addr)
    }

    fn access_range(&mut self, addr: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let line_bytes = self.cost.l1.line_bytes as u64;
        let first = addr / line_bytes;
        let last = (addr + len as u64 - 1) / line_bytes;
        let mut total = 0;
        for line in first..=last {
            let a = line * line_bytes;
            total += self.tlb.access(a);
            total += if line == first {
                self.hier(a)
            } else {
                self.hier_streaming(a)
            };
        }
        total
    }

    fn flush(&mut self) {
        self.tlb.flush();
        self.l1.flush();
        self.l2.flush();
    }

    fn stats(&self) -> (CacheStats, CacheStats, TlbStats) {
        (self.l1.stats, self.l2.stats, self.tlb.stats)
    }
}

// ---------------------------------------------------------------------------
// Access streams
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Op {
    Access(u64),
    /// A contiguous byte range (whole-model runs only).
    Range(u64, usize),
    /// The stream's previous `Range` again, if there was one.
    Again,
    /// Flush the TLB and both caches.
    Flush,
}

const BASE: u64 = 0x10_0000;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// An address in the `bytes` (a power of two) above `BASE`.
    fn addr(&mut self, bytes: u64) -> u64 {
        BASE + (self.next() & (bytes - 1))
    }
}

/// The named streams, about `n` accesses each.
fn streams(n: u64) -> Vec<(&'static str, Vec<Op>)> {
    let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
    let mut out = vec![
        // GUPS: a 32 MiB table, four times the paper's L2, 8192 pages.
        (
            "uniform over 32 MiB",
            (0..n).map(|_| Op::Access(rng.addr(32 << 20))).collect(),
        ),
        // 512 pages: about half the accesses hit a 256-entry TLB, so the
        // replacement order decides most outcomes.
        (
            "uniform over 2 MiB",
            (0..n).map(|_| Op::Access(rng.addr(2 << 20))).collect(),
        ),
        // One page more than the paper's TLB holds: LRU's worst case.
        (
            "257-page round-robin",
            (0..n)
                .map(|i| Op::Access(BASE + (i % 257) * 4096))
                .collect(),
        ),
        (
            "sequential lines",
            (0..n).map(|i| Op::Access(BASE + i * 64)).collect(),
        ),
    ];
    // A load / store pair on one word, a neighbour on the same line, a
    // word elsewhere on the page, then back.
    let mut repeats = Vec::new();
    for _ in 0..n / 5 {
        let a = rng.addr(4 << 20) & !7;
        repeats.extend([a, a, a ^ 8, a ^ 0x800, a].map(Op::Access));
    }
    out.push(("same-line and same-page repeats", repeats));
    // A resident working set, flushed every so often — and the very line
    // just touched re-touched right after the flush.
    let mut flushed = Vec::new();
    for i in 0..n / 2 {
        let a = rng.addr(64 << 10);
        flushed.push(Op::Access(a));
        if i % 1000 == 999 {
            flushed.extend([Op::Flush, Op::Access(a)]);
        }
        flushed.push(Op::Access(rng.addr(64 << 10)));
    }
    out.push(("flush mid-stream", flushed));
    // Bulk copies between word accesses: short and long, any alignment.
    let mut ranges = Vec::new();
    for _ in 0..n / 40 {
        let len = match rng.next() % 4 {
            0 => 0,
            1 => 1 + rng.next() % 64,
            2 => 1 + rng.next() % 4096,
            _ => 1 + rng.next() % 20_000,
        };
        ranges.push(Op::Range(rng.addr(1 << 20), len as usize));
        ranges.push(Op::Access(rng.addr(1 << 20)));
    }
    out.push(("ranges", ranges));
    // Every range walked twice back to back: the second walk is the one
    // the closed form prices.
    let mut twice = Vec::new();
    for _ in 0..n / 40 {
        let len = match rng.next() % 3 {
            0 => 1 + rng.next() % 4096,
            1 => 1 + rng.next() % 40_000,
            _ => 64 * (256 + rng.next() % 3) - rng.next() % 2,
        };
        twice.extend([Op::Range(rng.addr(1 << 20), len as usize), Op::Again]);
        twice.push(Op::Access(rng.addr(1 << 20)));
    }
    out.push(("back-to-back ranges", twice));
    out
}

/// Ranges of the lengths where a walk changes regime on `cost`'s
/// machine — L1 capacity −1 / +0 / +1 lines, twice that ±1, 512 and 4 096
/// lines, one line more than the L2 has sets, one page more than the TLB
/// holds — each walked twice back to back, then again across a word
/// access to the same L1 set, across a flush, and across a range that
/// starts on the line the previous walk ended on.
fn regime_ranges(cost: &CostConfig) -> Vec<Op> {
    let line = cost.l1.line_bytes as u64;
    let capacity = (cost.l1.sets() * cost.l1.ways) as u64;
    let tlb_lines = cost.tlb.entries as u64 * cost.tlb.page_bytes / line;
    let l2_stride = (cost.l2.sets() * cost.l2.line_bytes) as u64;
    let lengths = [
        capacity - 1,
        capacity,
        capacity + 1,
        2 * capacity - 1,
        2 * capacity,
        2 * capacity + 1,
        512,
        4096,
        cost.l2.sets() as u64 + 1,
        tlb_lines + 1,
    ];
    let mut ops = Vec::new();
    for (k, lines) in lengths.into_iter().enumerate() {
        // Each length from its own L1 set; line-aligned, then one byte
        // in (the same lines plus one).
        for skew in [0, 1] {
            let a = BASE + k as u64 * 3 * line + skew;
            let range = Op::Range(a, (lines * line) as usize);
            let end = a + lines * line - 1;
            // Leave the first line in the L1 but not in the L2: re-touch
            // it (an L1 hit, which the L2 never sees) after each of
            // `l2.ways` lines that share both its sets.
            ops.push(Op::Access(a));
            for j in 1..=cost.l2.ways as u64 {
                ops.extend([Op::Access(a + j * l2_stride), Op::Access(a)]);
            }
            ops.extend([range, Op::Again, Op::Access(a + cost.l1.size_bytes as u64)]);
            ops.extend([range, range, Op::Flush, range, range]);
            ops.extend([Op::Range(end & !(line - 1), 8), range, range]);
        }
    }
    ops
}

// ---------------------------------------------------------------------------
// Comparisons
// ---------------------------------------------------------------------------

fn check_tlb(what: &str, config: TlbConfig, ops: &[Op]) {
    let (mut new, mut old) = (Tlb::new(config), RefTlb::new(config));
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Access(a) => assert_eq!(
                new.access(a),
                old.access(a),
                "{what}, {} entries: access {i} at {a:#x}",
                config.entries
            ),
            Op::Range(..) | Op::Again => {}
            Op::Flush => {
                new.flush();
                old.flush();
            }
        }
    }
    assert_eq!(new.stats(), old.stats, "{what}, {} entries", config.entries);
}

fn check_cache(what: &str, config: CacheConfig, ops: &[Op]) {
    let (mut new, mut old) = (Cache::new(config), RefCache::new(config));
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Access(a) => assert_eq!(
                new.access(a),
                old.access(a),
                "{what}, {config:?}: access {i} at {a:#x}"
            ),
            Op::Range(..) | Op::Again => {}
            Op::Flush => {
                new.flush();
                old.flush();
            }
        }
    }
    assert_eq!(new.stats(), old.stats, "{what}, {config:?}");
}

fn check_model(what: &str, cost: CostConfig, ops: &[Op]) {
    let (mut new, mut old) = (MemModel::new(&cost), RefModel::new(cost));
    let mut previous = None;
    for (i, &op) in ops.iter().enumerate() {
        let op = match op {
            Op::Range(a, len) => {
                previous = Some((a, len));
                op
            }
            Op::Again => match previous {
                Some((a, len)) => Op::Range(a, len),
                None => continue,
            },
            _ => op,
        };
        match op {
            Op::Access(a) => {
                assert_eq!(new.access(a), old.access(a), "{what}: access {i} at {a:#x}")
            }
            Op::Range(a, len) => assert_eq!(
                new.access_range(a, len),
                old.access_range(a, len),
                "{what}: range {i} at {a:#x} + {len}"
            ),
            Op::Again => unreachable!("resolved above"),
            Op::Flush => {
                new.flush();
                old.flush();
            }
        }
        assert_eq!(new.stats(), old.stats(), "{what}: counters after op {i}");
    }
}

const TLB_ENTRIES: [usize; 5] = [1, 2, 3, 255, 256];

/// Small enough that every stream thrashes it, the paper's L1, and an
/// 8 MiB L2 at each associativity.
fn cache_configs() -> Vec<CacheConfig> {
    let mut out = vec![CacheConfig::paper_l1()];
    for ways in [1, 2, 8] {
        out.push(CacheConfig {
            size_bytes: 4 * ways * 16,
            ways,
            line_bytes: 16,
            hit_cycles: 1,
        });
        out.push(CacheConfig {
            ways,
            ..CacheConfig::paper_l2()
        });
    }
    out
}

/// A machine so small that a few dozen accesses evict at every level.
fn tiny_cost() -> CostConfig {
    let cache = |size_bytes, hit_cycles| CacheConfig {
        size_bytes,
        ways: 2,
        line_bytes: 16,
        hit_cycles,
    };
    CostConfig {
        l1: cache(128, 1),
        l2: cache(512, 10),
        tlb: TlbConfig {
            entries: 3,
            page_bytes: 256,
            miss_cycles: 120,
        },
        ..CostConfig::paper()
    }
}

/// The paper's machine with an L2 line twice the L1's: an L1 miss run
/// touches each L2 line once, its second L1 line a memo hit.
fn wide_l2() -> CostConfig {
    let paper = CostConfig::paper();
    CostConfig {
        l2: CacheConfig {
            line_bytes: 2 * paper.l1.line_bytes,
            ..paper.l2
        },
        ..paper
    }
}

/// The paper's machine with an L2 line half the L1's: each L1 line
/// touches the L2 line of its first byte only.
fn narrow_l2() -> CostConfig {
    let paper = CostConfig::paper();
    CostConfig {
        l2: CacheConfig {
            line_bytes: paper.l1.line_bytes / 2,
            ..paper.l2
        },
        ..paper
    }
}

/// Every stream through every structure; returns the accesses compared.
fn sweep(n: u64) -> u64 {
    let caches = cache_configs();
    let mut compared = 0;
    for (what, ops) in streams(n) {
        let runs = TLB_ENTRIES.len() + caches.len() + 3;
        compared += (runs * ops.len()) as u64;
        for entries in TLB_ENTRIES {
            let config = TlbConfig {
                entries,
                ..TlbConfig::paper()
            };
            check_tlb(what, config, &ops);
        }
        for &config in &caches {
            check_cache(what, config, &ops);
        }
        for cost in [CostConfig::paper(), tiny_cost(), wide_l2()] {
            check_model(what, cost, &ops);
        }
    }
    compared
}

#[test]
fn models_match_their_references() {
    sweep(20_000);
}

/// The paper's machine, the tiny one, a direct-mapped L2 (two lines of a
/// range in one L2 set evict each other), a three-entry TLB, and L2 lines
/// wider and narrower than the L1's.
#[test]
fn ranges_at_regime_boundaries_match() {
    let direct_l2 = CostConfig {
        l2: CacheConfig {
            ways: 1,
            ..tiny_cost().l2
        },
        tlb: TlbConfig {
            entries: 64,
            ..tiny_cost().tlb
        },
        ..tiny_cost()
    };
    let small_tlb = CostConfig {
        tlb: TlbConfig {
            entries: 3,
            ..TlbConfig::paper()
        },
        ..CostConfig::paper()
    };
    for (what, cost) in [
        ("paper", CostConfig::paper()),
        ("tiny", tiny_cost()),
        ("direct-mapped L2", direct_l2),
        ("three-entry TLB", small_tlb),
        ("L2 line twice the L1's", wide_l2()),
        ("L2 line half the L1's", narrow_l2()),
    ] {
        check_model(what, cost, &regime_ranges(&cost));
    }
}

/// A tiny L1 (4 sets of 2 ways, 16 B lines) in front of a 16-set L2 of
/// `ways`: lines one L2 stride (256 B) apart share an L1 set as well, so
/// the L1 holds only the last two of them and the rest reach the L2.
fn overflow_cost(ways: usize) -> CostConfig {
    let cache = |size_bytes, ways, hit_cycles| CacheConfig {
        size_bytes,
        ways,
        line_bytes: 16,
        hit_cycles,
    };
    CostConfig {
        l1: cache(128, 2, 1),
        l2: cache(16 * ways * 16, ways, 10),
        tlb: TlbConfig {
            entries: 64,
            page_bytes: 256,
            miss_cycles: 120,
        },
        ..CostConfig::paper()
    }
}

/// On `overflow_cost(ways)`: L2 set 3 filled from cold with `ways` lines
/// in falling address order, its oldest re-touched, then its `ways + 1`-th
/// line arriving by `arrival`; then every line of the set read back in
/// both orders, and one range over all of them.
fn overflow_ops(ways: usize, arrival: &str) -> Vec<Op> {
    let (line, stride) = (16, 256);
    let at = |k: u64| BASE + 3 * line + k * stride;
    let ways = ways as u64;
    let mut ops: Vec<Op> = (0..ways).rev().map(|k| Op::Access(at(k))).collect();
    ops.extend([Op::Access(at(ways - 1)), Op::Access(BASE + 9 * line)]);
    let new = at(ways);
    ops.push(match arrival {
        "word" => Op::Access(new),
        // Lines of L2 sets 1 to 5, the new line of set 3 in the middle.
        "mid-range" => Op::Range(new - 2 * line, 5 * line as usize),
        "first line" => Op::Range(new, 4 * line as usize),
        _ => unreachable!("unknown arrival {arrival}"),
    });
    ops.extend((0..=ways).map(|k| Op::Access(at(k))));
    ops.extend((0..=ways).rev().map(|k| Op::Access(at(k))));
    ops.push(Op::Range(at(0), ((ways + 1) * stride) as usize));
    ops
}

/// The first overflow of an L2 set at each associativity and by each
/// kind of arrival, from cold and again after a flush that lands in
/// footprint mode.
#[test]
fn first_overflows_match() {
    for ways in [1, 2, 8] {
        for arrival in ["word", "mid-range", "first line"] {
            let once = overflow_ops(ways, arrival);
            let mut ops = once.clone();
            ops.push(Op::Flush);
            ops.extend(once[..ways].iter().copied());
            ops.push(Op::Flush);
            ops.extend(once);
            let what = format!("{ways}-way L2, {arrival} arrival");
            check_model(&what, overflow_cost(ways), &ops);
        }
    }
}

/// On the paper machine, with the L1 on its set arrays: ranges of at
/// least the L1's capacity `C` with none, one (at four positions) and all
/// of their first `C` lines L1-resident, and back-to-back repeats.
#[test]
fn ranges_past_l1_capacity_match_whatever_their_residency() {
    let cost = CostConfig::paper();
    let line = cost.l1.line_bytes as u64;
    let capacity = (cost.l1.sets() * cost.l1.ways) as u64;
    let elsewhere = Op::Range(BASE + (64 << 20), (2 * capacity * line) as usize);
    let a = BASE + 0x1040;
    let range = |lines: u64| Op::Range(a, (lines * line) as usize);
    let mut ops = vec![elsewhere, range(capacity + 40), range(capacity + 40)];
    for k in [0, 1, capacity / 2, capacity - 1] {
        ops.extend([elsewhere, Op::Access(a + k * line), range(capacity + 40)]);
        ops.extend([elsewhere, Op::Access(a + k * line), range(capacity)]);
    }
    ops.extend([elsewhere, range(capacity), range(capacity + 40)]);
    ops.extend([range(capacity), range(capacity), range(3 * capacity + 7)]);
    check_model("paper", cost, &ops);
    check_model("L2 line twice the L1's", wide_l2(), &ops);
}

/// `coll_large`'s access shape on the paper machine: `buffers` 256 KiB
/// buffers walked whole in rotation, `reps` times, each then re-walked in
/// 8 KiB chunks, every chunk twice back to back (a fold reads it, then
/// writes it), with a word access between chunks.
fn coll_large_ops(buffers: u64, reps: u64) -> Vec<Op> {
    const BUF: u64 = 256 << 10;
    const CHUNK: u64 = 8 << 10;
    let mut ops = Vec::new();
    for _ in 0..reps {
        for b in 0..buffers {
            // Staggered, as separately allocated buffers are.
            let base = BASE + b * (BUF + 0x3040);
            ops.push(Op::Range(base, BUF as usize));
            for c in (0..BUF).step_by(CHUNK as usize) {
                ops.extend([Op::Range(base + c, CHUNK as usize), Op::Again]);
                ops.push(Op::Access(base + c + 8));
            }
        }
    }
    ops
}

/// Lines the ranges of `ops` cover, a repeat counted again.
fn lines_walked(ops: &[Op], line: u64) -> u64 {
    let mut previous = 0;
    ops.iter()
        .map(|op| match *op {
            Op::Range(a, len) if len > 0 => {
                previous = (a + len as u64 - 1) / line - a / line + 1;
                previous
            }
            Op::Again => previous,
            _ => 0,
        })
        .sum()
}

#[test]
#[ignore = "over 1 M lines; run in release with -- --ignored"]
fn a_coll_large_shaped_replay_matches() {
    // Eight buffers stay in the L2's footprint; forty overflow it.
    let mut ops = coll_large_ops(8, 11);
    ops.extend(coll_large_ops(40, 1));
    let lines = lines_walked(&ops, 64);
    assert!(lines >= 1_000_000, "only {lines} lines walked");
    check_model("coll_large replay", CostConfig::paper(), &ops);
}

#[test]
#[ignore = "over 10 M compared accesses; run in release with -- --ignored"]
fn models_match_their_references_full_sweep() {
    let compared = sweep(400_000);
    assert!(compared >= 10_000_000, "only {compared} accesses compared");
}

/// Mostly word accesses, some ranges and repeats of the previous range,
/// an occasional flush, over six of the tiny machine's 256-byte pages:
/// twice its TLB, three times its L2.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..16, 0u64..6 * 256, 0usize..600).prop_map(|(kind, a, len)| match kind {
        0 => Op::Flush,
        1..=3 => Op::Range(a, len),
        4..=5 => Op::Again,
        _ => Op::Access(a),
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Random interleavings of accesses, ranges and flushes on a machine
    /// where all three levels evict constantly.
    #[test]
    fn random_streams_match_on_a_tiny_machine(ops in prop::collection::vec(arb_op(), 1..300)) {
        check_tlb("random", tiny_cost().tlb, &ops);
        check_cache("random", tiny_cost().l1, &ops);
        check_model("random", tiny_cost(), &ops);
    }
}
