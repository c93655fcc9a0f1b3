//! Property-based tests for the runtime's core invariants:
//! the symmetric allocator (model-based), transfer round-trips under
//! arbitrary strides, and collective correctness over arbitrary
//! (n_pes, root, payload) configurations.

// The `..ProptestConfig::default()` spread is upstream proptest's
// canonical config idiom; the local shim happens to have no other
// fields, which trips needless_update.
#![allow(clippy::needless_update)]

use proptest::prelude::*;
use xbrtime::collectives;
use xbrtime::heap::{FreeList, HEAP_ALIGN};
use xbrtime::{
    AlgorithmPolicy, EngineConfig, Fabric, FabricConfig, FabricStats, ReduceOp, SyncMode,
    TimingConfig, Topology,
};

// ---------------------------------------------------------------------
// Allocator: model-based testing against a set of live intervals.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc(usize),
    /// Free the i-th live allocation (index modulo the live count).
    Free(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<AllocOp>> {
    prop::collection::vec(
        prop_oneof![
            (1usize..512).prop_map(AllocOp::Alloc),
            (0usize..16).prop_map(AllocOp::Free),
        ],
        1..60,
    )
}

proptest! {
    /// Allocations never overlap, are aligned, and in_use bookkeeping is
    /// exact; after freeing everything the arena is fully coalesced.
    #[test]
    fn freelist_never_overlaps_and_coalesces(ops in arb_ops()) {
        const CAP: usize = 8192;
        let mut fl = FreeList::new(CAP);
        let mut live: Vec<(usize, usize)> = Vec::new(); // (offset, rounded size)
        let round = |n: usize| n.max(1).div_ceil(HEAP_ALIGN) * HEAP_ALIGN;

        for op in ops {
            match op {
                AllocOp::Alloc(sz) => {
                    if let Ok(off) = fl.alloc(sz) {
                        let rsz = round(sz);
                        prop_assert_eq!(off % HEAP_ALIGN, 0, "alignment");
                        prop_assert!(off + rsz <= CAP, "within arena");
                        for &(o, s) in &live {
                            prop_assert!(
                                off + rsz <= o || o + s <= off,
                                "overlap: new [{}, {}) vs live [{}, {})",
                                off, off + rsz, o, o + s
                            );
                        }
                        live.push((off, rsz));
                    } else {
                        // Exhaustion is only legal if in_use + request
                        // can't fit the largest block.
                        prop_assert!(fl.largest_free() < round(sz));
                    }
                }
                AllocOp::Free(i) => {
                    if !live.is_empty() {
                        let (off, sz) = live.swap_remove(i % live.len());
                        fl.free(off, sz);
                    }
                }
            }
            let in_use: usize = live.iter().map(|&(_, s)| s).sum();
            prop_assert_eq!(fl.in_use(), in_use, "in_use bookkeeping");
        }

        for (off, sz) in live.drain(..) {
            fl.free(off, sz);
        }
        prop_assert_eq!(fl.in_use(), 0);
        prop_assert_eq!(fl.largest_free(), CAP, "full coalescing after free-all");
    }

    /// Deterministic symmetry: two allocators fed the same op sequence
    /// return identical offsets (the property SHMEM symmetry rests on).
    #[test]
    fn freelist_is_deterministic(ops in arb_ops()) {
        let mut a = FreeList::new(4096);
        let mut b = FreeList::new(4096);
        let mut live_a = Vec::new();
        let mut live_b = Vec::new();
        for op in ops {
            match op {
                AllocOp::Alloc(sz) => {
                    let ra = a.alloc(sz);
                    let rb = b.alloc(sz);
                    prop_assert_eq!(&ra, &rb);
                    if let Ok(off) = ra {
                        live_a.push((off, sz));
                        live_b.push((off, sz));
                    }
                }
                AllocOp::Free(i) => {
                    if !live_a.is_empty() {
                        let ia = i % live_a.len();
                        let (off, sz) = live_a.swap_remove(ia);
                        a.free(off, sz);
                        let (off_b, sz_b) = live_b.swap_remove(ia);
                        b.free(off_b, sz_b);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Transfers: put∘get round-trips under arbitrary strides.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn put_then_get_roundtrips(
        nelems in 0usize..40,
        stride in 1usize..4,
        seed in any::<u64>(),
    ) {
        let span = if nelems == 0 { 1 } else { (nelems - 1) * stride + 1 };
        let payload: Vec<u64> = (0..span as u64).map(|i| i.wrapping_mul(seed | 1)).collect();
        let p2 = payload.clone();
        let report = Fabric::run(FabricConfig::new(2), move |pe| {
            let buf = pe.shared_malloc::<u64>(span);
            pe.barrier();
            if pe.rank() == 0 {
                pe.put(buf.whole(), &p2, nelems, stride, 1);
            }
            pe.barrier();
            let mut back = vec![0u64; span];
            if pe.rank() == 0 {
                pe.get(&mut back, buf.whole(), nelems, stride, 1);
            }
            pe.barrier();
            back
        });
        for j in 0..nelems {
            prop_assert_eq!(report.results[0][j * stride], payload[j * stride]);
        }
    }

    /// Strided puts must not disturb the gap elements.
    #[test]
    fn strided_put_preserves_gaps(nelems in 1usize..16, stride in 2usize..4) {
        let span = (nelems - 1) * stride + 1;
        let report = Fabric::run(FabricConfig::new(2), move |pe| {
            let buf = pe.shared_malloc::<u64>(span);
            pe.heap_write(buf.whole(), &vec![u64::MAX; span]);
            pe.barrier();
            if pe.rank() == 0 {
                let src = vec![7u64; span];
                pe.put(buf.whole(), &src, nelems, stride, 1);
            }
            pe.barrier();
            pe.heap_read_vec::<u64>(buf.whole(), span)
        });
        let got = &report.results[1];
        for (i, &v) in got.iter().enumerate() {
            if i % stride == 0 && i / stride < nelems {
                prop_assert_eq!(v, 7, "written slot {}", i);
            } else {
                prop_assert_eq!(v, u64::MAX, "gap slot {} must be preserved", i);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The six transfer names against a dense reference, and what they charge.
// ---------------------------------------------------------------------

const NAMES: [&str; 6] = ["put", "put_nb", "put_symm", "get", "get_nb", "get_symm"];

/// Distinct initial contents per (PE, buffer): `a` is the symmetric
/// buffer every name targets on the far PE, `b` the issuer's own
/// symmetric window (the local end of the `_symm` names), `p` the
/// issuer's private slice.
fn pattern(pe: usize, buf: u64, span: usize, seed: u64) -> Vec<u64> {
    (0..span as u64)
        .map(|i| (seed | 1).wrapping_mul(i + 1) ^ (pe as u64 * 3 + buf) << 56)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every public transfer name moves exactly `dst[j·stride] =
    /// src[j·stride]` for `j < nelems` between the right pair of buffers
    /// — gaps and every other buffer untouched — and counts itself once
    /// in the right `FabricStats` cells, to a peer and to itself.
    #[test]
    fn six_transfer_names_match_dense_reference(
        nelems in 0usize..40,
        stride in 1usize..4,
        to_self in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let span = if nelems == 0 { 1 } else { (nelems - 1) * stride + 1 };
        let target = usize::from(!to_self);
        for name in NAMES {
            let report = Fabric::run(FabricConfig::new(2), move |pe| {
                let me = pe.rank();
                let a = pe.shared_malloc::<u64>(span);
                let b = pe.shared_malloc::<u64>(span);
                pe.heap_write(a.whole(), &pattern(me, 0, span, seed));
                pe.heap_write(b.whole(), &pattern(me, 1, span, seed));
                let mut p = pattern(me, 2, span, seed);
                pe.barrier();
                if me == 0 {
                    match name {
                        "put" => pe.put(a.whole(), &p, nelems, stride, target),
                        "put_nb" => {
                            let h = pe.put_nb(a.whole(), &p, nelems, stride, target);
                            pe.wait(h);
                        }
                        "put_symm" => pe.put_symm(a.whole(), b.whole(), nelems, stride, target),
                        "get" => pe.get(&mut p, a.whole(), nelems, stride, target),
                        "get_nb" => {
                            let h = pe.get_nb(&mut p, a.whole(), nelems, stride, target);
                            pe.wait(h);
                        }
                        "get_symm" => pe.get_symm(b.whole(), a.whole(), nelems, stride, target),
                        _ => unreachable!(),
                    }
                }
                pe.barrier();
                [
                    pe.heap_read_vec::<u64>(a.whole(), span),
                    pe.heap_read_vec::<u64>(b.whole(), span),
                    p,
                ]
            });

            // Dense reference: the same initial buffers, one strided loop.
            let mut want: Vec<[Vec<u64>; 3]> = (0..2)
                .map(|pe| [0, 1, 2].map(|buf| pattern(pe, buf, span, seed)))
                .collect();
            let (push, local) = match name {
                "put" | "put_nb" => (true, 2),
                "put_symm" => (true, 1),
                "get" | "get_nb" => (false, 2),
                _ => (false, 1),
            };
            for j in (0..nelems).map(|j| j * stride) {
                if push {
                    want[target][0][j] = want[0][local][j];
                } else {
                    want[0][local][j] = want[target][0][j];
                }
            }
            prop_assert_eq!(&report.results, &want, "{} buffers", name);

            let one = |on: bool| u64::from(on);
            let nb = name.ends_with("_nb");
            let bytes = (nelems * 8) as u64;
            let closed_form = FabricStats {
                puts: one(push && !nb),
                nb_puts: one(push && nb),
                gets: one(!push && !nb),
                nb_gets: one(!push && nb),
                bytes_put: if push { bytes } else { 0 },
                bytes_get: if push { 0 } else { bytes },
                local_transfers: one(to_self),
                remote_transfers: one(!to_self),
                barriers: report.stats.barriers,
                ..FabricStats::default()
            };
            prop_assert_eq!(report.stats, closed_form, "{} stats", name);
        }
    }

    /// A same-PE contiguous heap-to-heap copy between overlapping windows
    /// has memmove semantics: the destination receives the source as it
    /// was before the copy began, whichever way the windows overlap.
    #[test]
    fn overlapping_heap_to_heap_copy_is_a_memmove(
        nelems in 1usize..40,
        shift in 0usize..40,
        forward in any::<bool>(),
        as_put in any::<bool>(),
    ) {
        let len = nelems + shift;
        let (src_at, dst_at) = if forward { (0, shift) } else { (shift, 0) };
        let report = Fabric::run(FabricConfig::new(1), move |pe| {
            let c = pe.shared_malloc::<u64>(len);
            pe.heap_write(c.whole(), &pattern(0, 0, len, 5));
            if as_put {
                pe.put_symm(c.at(dst_at), c.at(src_at), nelems, 1, 0);
            } else {
                pe.get_symm(c.at(dst_at), c.at(src_at), nelems, 1, 0);
            }
            pe.heap_read_vec::<u64>(c.whole(), len)
        });
        let mut want = pattern(0, 0, len, 5);
        want.copy_within(src_at..src_at + nelems, dst_at);
        prop_assert_eq!(&report.results[0], &want);
    }
}

/// What one transfer charges, pinned against `TimingConfig::paper().cost`
/// so a change to the fabric's one transfer body is a deliberate one:
/// single 8-byte transfers on a warmed, idle 2-PE fabric (the peer never
/// transmits, so the channel-queue term is zero; 8-byte elements in
/// 16-aligned allocations never straddle a cache line, so a warm walk is
/// one TLB hit and one L1 hit whatever the host addresses are).
#[test]
fn transfer_cost_table() {
    let timing = TimingConfig::paper();
    let cost = timing.cost;
    let walk = cost.l1.hit_cycles;
    let overhead = timing.element_overhead(1);
    let fabric = cost.olb_lookup_cycles
        + cost.noc.occupancy(8).max(1)
        + cost.noc.base_latency
        + cost.mem_cycles;
    let issue = cost.alu_cycles + cost.olb_lookup_cycles;

    let config = FabricConfig::paper(2).with_engine(EngineConfig::coop().with_workers(1));
    let report = Fabric::run(config, |pe| {
        let a = pe.shared_malloc::<u64>(1);
        let b = pe.shared_malloc::<u64>(1);
        let mut p = [7u64];
        let mut rows = Vec::new();
        pe.barrier();
        if pe.rank() == 0 {
            for target in [1usize, 0] {
                for name in NAMES {
                    // Twice: the first issue warms both ends; the second
                    // is measured at return and again after the wait.
                    let mut measured = (0, 0);
                    for _ in 0..2 {
                        let t0 = pe.cycles();
                        let h = match name {
                            "put" => {
                                pe.put(a.whole(), &p, 1, 1, target);
                                None
                            }
                            "put_nb" => Some(pe.put_nb(a.whole(), &p, 1, 1, target)),
                            "put_symm" => {
                                pe.put_symm(a.whole(), b.whole(), 1, 1, target);
                                None
                            }
                            "get" => {
                                pe.get(&mut p, a.whole(), 1, 1, target);
                                None
                            }
                            "get_nb" => Some(pe.get_nb(&mut p, a.whole(), 1, 1, target)),
                            "get_symm" => {
                                pe.get_symm(b.whole(), a.whole(), 1, 1, target);
                                None
                            }
                            _ => unreachable!(),
                        };
                        let at_return = pe.cycles() - t0;
                        if let Some(h) = h {
                            pe.wait(h);
                        }
                        measured = (at_return, pe.cycles() - t0);
                    }
                    rows.push((name, target, measured));
                }
            }
        }
        pe.barrier();
        rows
    });

    assert_eq!(report.results[0].len(), 12);
    for &(name, target, measured) in &report.results[0] {
        let expect = match (name.ends_with("_nb"), target) {
            // Blocking: the local-end walk, the per-element overhead, then
            // the fabric crossing …
            (false, 1) => (walk + overhead + fabric, walk + overhead + fabric),
            // … or, to itself, the remote-end walk instead.
            (false, _) => (2 * walk + overhead, 2 * walk + overhead),
            // Non-blocking: the issue cost now and the rest at `wait`. The
            // private end is never walked; a self-target's heap end is.
            (true, 1) => (issue, issue + overhead + fabric),
            (true, _) => (walk + issue, walk + issue + overhead),
        };
        assert_eq!(measured, expect, "{name} to PE {target}");
    }
}

/// Two nodes of two PEs, on-node flights four times cheaper.
const TWO_NODES: Topology = Topology {
    pes_per_node: 2,
    intra_node_factor: 0.25,
};

/// `x` cycles scaled by `factor`, rounded as the fabric rounds.
fn scaled(x: u64, factor: f64) -> u64 {
    (x as f64 * factor).round() as u64
}

/// What topology pricing charges, on the same warm, idle fabric as
/// [`transfer_cost_table`] with four PEs in two nodes: a blocking 8-byte
/// put or get to the node-mate (PE 1) pays the on-node occupancy and
/// flight, one to the other node (PE 2) the full ones; and a signal posted
/// to either arrives one scaled flight after the post.
#[test]
fn topology_transfer_cost_table() {
    let timing = TimingConfig::paper();
    let cost = timing.cost;
    let walk = cost.l1.hit_cycles;
    let overhead = timing.element_overhead(1);
    let fabric = |factor: f64| {
        cost.olb_lookup_cycles
            + scaled(cost.noc.occupancy(8), factor).max(1)
            + scaled(cost.noc.base_latency, factor)
            + cost.mem_cycles
    };

    let config = FabricConfig::paper(4)
        .with_topology(TWO_NODES)
        .with_engine(EngineConfig::coop().with_workers(1));
    let report = Fabric::run(config, |pe| {
        let a = pe.shared_malloc::<u64>(1);
        let sig = pe.shared_malloc::<u64>(1);
        pe.heap_store(sig.whole(), 0);
        let mut p = [7u64];
        let mut rows = Vec::new();
        pe.barrier();
        if pe.rank() == 0 {
            for target in [1usize, 2] {
                for name in ["put", "get"] {
                    let mut measured = 0;
                    for _ in 0..2 {
                        let t0 = pe.cycles();
                        match name {
                            "put" => pe.put(a.whole(), &p, 1, 1, target),
                            _ => pe.get(&mut p, a.whole(), 1, 1, target),
                        }
                        measured = pe.cycles() - t0;
                    }
                    rows.push((name, target, measured));
                }
            }
        }
        // Every clock leaves the barrier at the same cycle, so a waiter's
        // stall is the stamp minus the post's issue time.
        pe.barrier();
        let mut stall = 0;
        match pe.rank() {
            0 => {
                pe.signal_post(sig.whole(), 1);
                pe.signal_post(sig.whole(), 2);
            }
            1 | 2 => stall = pe.signal_wait(sig.whole()),
            _ => {}
        }
        pe.barrier();
        (rows, stall)
    });

    let rows = &report.results[0].0;
    assert_eq!(rows.len(), 4);
    for &(name, target, measured) in rows {
        let factor = if target == 1 { 0.25 } else { 1.0 };
        assert_eq!(
            measured,
            walk + overhead + fabric(factor),
            "{name} to PE {target}"
        );
    }
    // The second post issues one ALU op after the first.
    assert_eq!(report.results[1].1, scaled(cost.noc.base_latency, 0.25));
    assert_eq!(report.results[2].1, cost.alu_cycles + cost.noc.base_latency);
}

/// A non-blocking transfer holds its injection port for the same
/// topology-scaled occupancy its crossing is charged: two back-to-back
/// 64 KiB `put_nb`s to a node-mate complete one *on-node* occupancy apart,
/// not one inter-node occupancy.
#[test]
fn intra_node_nb_burst_drains_at_node_bandwidth() {
    const N: usize = 8 * 1024; // 64 KiB of u64
    let cost = TimingConfig::paper().cost;
    let config = FabricConfig::paper(4)
        .with_topology(TWO_NODES)
        .with_engine(EngineConfig::coop().with_workers(1));
    let report = Fabric::run(config, |pe| {
        let buf = pe.shared_malloc::<u64>(2 * N);
        let data = vec![3u64; N];
        pe.barrier();
        let mut apart = 0;
        if pe.rank() == 0 {
            let first = pe.put_nb(buf.whole(), &data, N, 1, 1);
            let second = pe.put_nb(buf.at(N), &data, N, 1, 1);
            apart = second.completion_cycles() - first.completion_cycles();
            pe.quiet();
        }
        pe.barrier();
        apart
    });
    assert_eq!(
        report.results[0],
        scaled(cost.noc.occupancy(N * 8), 0.25),
        "an on-node burst drains at on-node bandwidth"
    );
}

// ---------------------------------------------------------------------
// Collectives: arbitrary configurations against sequential oracles.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn broadcast_delivers_everywhere(
        n_pes in 1usize..9,
        root_seed in any::<usize>(),
        nelems in 0usize..24,
        stride in 1usize..3,
    ) {
        let root = root_seed % n_pes;
        let span = if nelems == 0 { 1 } else { (nelems - 1) * stride + 1 };
        let payload: Vec<u64> = (0..span as u64).map(|i| i * 31 + 5).collect();
        let p2 = payload.clone();
        let report = Fabric::run(FabricConfig::new(n_pes), move |pe| {
            let dest = pe.shared_malloc::<u64>(span);
            collectives::broadcast(pe, &dest, &p2, nelems, stride, root);
            pe.barrier();
            pe.heap_read_vec::<u64>(dest.whole(), span)
        });
        for got in &report.results {
            for j in 0..nelems {
                prop_assert_eq!(got[j * stride], payload[j * stride]);
            }
        }
    }

    #[test]
    fn reduce_sum_matches_oracle(
        n_pes in 1usize..9,
        root_seed in any::<usize>(),
        nelems in 1usize..24,
        contrib_seed in any::<u32>(),
    ) {
        let root = root_seed % n_pes;
        let report = Fabric::run(FabricConfig::new(n_pes), move |pe| {
            let src = pe.shared_malloc::<u64>(nelems);
            let mine: Vec<u64> = (0..nelems as u64)
                .map(|j| (pe.rank() as u64 + 1).wrapping_mul(contrib_seed as u64 + j))
                .collect();
            pe.heap_write(src.whole(), &mine);
            pe.barrier();
            let mut d = vec![0u64; nelems];
            collectives::reduce(pe, &mut d, &src, nelems, 1, root, ReduceOp::Sum);
            pe.barrier();
            d
        });
        for j in 0..nelems {
            let expect: u64 = (0..n_pes as u64)
                .map(|r| (r + 1).wrapping_mul(contrib_seed as u64 + j as u64))
                .fold(0u64, u64::wrapping_add);
            prop_assert_eq!(report.results[root][j], expect);
        }
    }

    #[test]
    fn scatter_gather_identity(
        n_pes in 1usize..8,
        root_seed in any::<usize>(),
        msg_seed in any::<u64>(),
    ) {
        let root = root_seed % n_pes;
        // Derive irregular counts from the seed.
        let msgs: Vec<usize> = (0..n_pes)
            .map(|r| ((msg_seed >> (r * 3)) & 0x7) as usize)
            .collect();
        let nelems: usize = msgs.iter().sum();
        let disp: Vec<usize> = msgs
            .iter()
            .scan(0usize, |acc, &m| { let d = *acc; *acc += m; Some(d) })
            .collect();
        let data: Vec<u64> = (0..nelems as u64).map(|i| i ^ msg_seed).collect();

        let (m2, d2, dat) = (msgs.clone(), disp.clone(), data.clone());
        let report = Fabric::run(FabricConfig::new(n_pes), move |pe| {
            let src = if pe.rank() == root { dat.clone() } else { vec![] };
            let mine_n = m2[pe.rank()];
            let mut mine = vec![0u64; mine_n.max(1)];
            collectives::scatter(pe, &mut mine, &src, &m2, &d2, nelems, root);
            pe.barrier();
            let mut back = vec![0u64; nelems.max(1)];
            collectives::gather(pe, &mut back, &mine[..mine_n], &m2, &d2, nelems, root);
            pe.barrier();
            back
        });
        if nelems > 0 {
            prop_assert_eq!(&report.results[root][..nelems], &data[..]);
        }
    }

    /// The signaled and pipelined executors are drop-in replacements for
    /// the barrier executor: byte-identical results across the four
    /// rooted collectives at arbitrary (n_pes, root, payload, stride),
    /// and every posted signal is consumed (no slot leaks into the next
    /// collective — the invariant signal-table reuse rests on).
    #[test]
    fn sync_modes_are_equivalent(
        n_pes in 1usize..9,
        root_seed in any::<usize>(),
        nelems in 0usize..40,
        stride in 1usize..3,
        seed in any::<u64>(),
    ) {
        let root = root_seed % n_pes;
        let span = if nelems == 0 { 1 } else { (nelems - 1) * stride + 1 };
        let mut outcomes = Vec::new();
        for sync in [SyncMode::Barrier, SyncMode::Signaled, SyncMode::Pipelined, SyncMode::Auto] {
            let payload: Vec<u64> = (0..span as u64).map(|i| i.wrapping_mul(seed | 1)).collect();
            let report = Fabric::run(FabricConfig::new(n_pes), move |pe| {
                // Broadcast.
                let b = pe.shared_malloc::<u64>(span);
                pe.heap_write(b.whole(), &vec![u64::MAX; span]);
                pe.barrier();
                collectives::broadcast_policy_sync(pe, &b, &payload, nelems, stride, root, AlgorithmPolicy::Binomial, sync);
                pe.barrier();
                let bcast = pe.heap_read_vec::<u64>(b.whole(), span);

                // Reduce.
                let src = pe.shared_malloc::<u64>(span);
                let mine: Vec<u64> = (0..span as u64)
                    .map(|j| (pe.rank() as u64 + 1).wrapping_mul(seed ^ j))
                    .collect();
                pe.heap_write(src.whole(), &mine);
                pe.barrier();
                let mut red = vec![0u64; span];
                collectives::reduce_with(pe, &mut red, &src, nelems, stride, root, u64::wrapping_add, AlgorithmPolicy::Binomial, sync);
                pe.barrier();

                // Scatter + gather round-trip with irregular counts.
                let msgs: Vec<usize> = (0..n_pes).map(|r| ((seed >> (r * 3)) & 0x7) as usize).collect();
                let total: usize = msgs.iter().sum();
                let disp: Vec<usize> = msgs
                    .iter()
                    .scan(0usize, |acc, &m| { let d = *acc; *acc += m; Some(d) })
                    .collect();
                let sc_src: Vec<u64> = if pe.rank() == root {
                    (0..total as u64).map(|i| i ^ seed).collect()
                } else {
                    vec![]
                };
                let mine_n = msgs[pe.rank()];
                let mut mine = vec![0u64; mine_n.max(1)];
                collectives::scatter_policy_sync(
                    pe, &mut mine, &sc_src, &msgs, &disp, total, root,
                    AlgorithmPolicy::Binomial, sync,
                );
                pe.barrier();
                let mut back = vec![0u64; total.max(1)];
                collectives::gather_policy_sync(
                    pe, &mut back, &mine[..mine_n], &msgs, &disp, total, root,
                    AlgorithmPolicy::Binomial, sync,
                );
                pe.barrier();
                (bcast, red, back)
            });
            // No leaked waits: every signal posted was consumed.
            prop_assert_eq!(
                report.stats.signals, report.stats.signal_waits,
                "sync={:?}: leaked signal-table slots", sync
            );
            outcomes.push(report.results);
        }
        let barrier = &outcomes[0];
        for (i, other) in outcomes.iter().enumerate().skip(1) {
            prop_assert_eq!(barrier, other, "mode #{} diverged from barrier", i);
        }
    }

    #[test]
    fn all_to_all_is_a_transpose(n_pes in 1usize..7, per_pe in 1usize..5) {
        let report = Fabric::run(FabricConfig::new(n_pes), move |pe| {
            let src: Vec<u64> = (0..n_pes * per_pe)
                .map(|i| (pe.rank() * 10_000 + i) as u64)
                .collect();
            let mut dest = vec![0u64; n_pes * per_pe];
            collectives::all_to_all_sync(pe, &mut dest, &src, per_pe, SyncMode::Barrier);
            pe.barrier();
            dest
        });
        for (d, got) in report.results.iter().enumerate() {
            for s in 0..n_pes {
                for j in 0..per_pe {
                    prop_assert_eq!(
                        got[s * per_pe + j],
                        (s * 10_000 + d * per_pe + j) as u64,
                        "dest {} block from {} elem {}", d, s, j
                    );
                }
            }
        }
    }
}
