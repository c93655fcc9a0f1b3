//! Topology-aware (hierarchical) collectives — paper §7's "location aware
//! communication optimization using the xBGAS OLB".
//!
//! When the fabric carries a [`Topology`](crate::fabric::Topology), the
//! runtime knows which PEs share a node (in real xBGAS this is exactly
//! what the OLB's object-ID mapping encodes). Hierarchical collectives
//! exploit it by running the binomial tree in two tiers:
//!
//! * **broadcast**: root → node leaders over the (expensive) inter-node
//!   fabric, then each leader → its node over the (cheap) intra-node
//!   links, so each payload crosses the inter-node fabric exactly
//!   `#nodes − 1` times instead of up to `N − 1` times;
//! * **reduce**: the mirror image — combine within each node first, then
//!   across leaders to the root.
//!
//! Both degrade gracefully to the flat algorithms when no topology is
//! configured (one node, or `pes_per_node = 1`). A tier is the flat
//! broadcast generator itself ([`broadcast_binomial`]) mapped
//! [`on`](CommSchedule::on) a member list — the node leaders, or every
//! node's members side by side — so the hierarchy is a two-level partner
//! function, not a second tree. Stage counts are fixed from the *maximum*
//! node size so every PE executes the same number of barriers regardless
//! of ragged last nodes. The two tiers are emitted as a single
//! [`CommSchedule`] (tier-1 stages then tier-2 stages), and the reduction
//! is that schedule [`transposed`](CommSchedule::transposed), so the
//! generator's output is inspectable — the inter-node crossing count the
//! hierarchy exists to minimise is just a filter over the ops.
//!
//! There is no hierarchical body: [`broadcast_hier`] and [`reduce_hier`]
//! name their schedule as a [`Shape::Hier`] row (the flat binomial row
//! without a topology) and hand it to the broadcast and reduction bodies,
//! which stage, check, key and run it like any other row.

use crate::collectives::broadcast::broadcast_core;
use crate::collectives::policy::{Algorithm, SyncMode};
use crate::collectives::reduce::reduce_core;
use crate::collectives::schedule::{
    broadcast_binomial, CommSchedule, OpKind, Payload, Row, Shape, Stage,
};
use crate::fabric::{CollectiveKind, Pe, SymmAlloc};
use crate::types::XbrType;

/// The two-tier structure of a run, derived purely from
/// `(n_pes, pes_per_node, root)`: every group is a member list (global
/// ranks) and the index of the member its tree is rooted at.
struct Tiers {
    /// The node leaders, in node order, rooted at the root — the root's
    /// node's leader is the root itself, so this tier is rooted correctly.
    leaders: (Vec<usize>, usize),
    /// Every node's members, in node order, rooted at the node's leader.
    nodes: Vec<(Vec<usize>, usize)>,
}

fn tiers(n_pes: usize, pes_per_node: usize, root: usize) -> Tiers {
    let k = pes_per_node.max(1);
    let n_nodes = n_pes.div_ceil(k);
    let root_node = root / k;
    let leaders = (0..n_nodes)
        .map(|n| if root_node == n { root } else { n * k })
        .collect();
    let nodes = (0..n_nodes)
        .map(|n| {
            let members: Vec<usize> = (n * k..(n * k + k).min(n_pes)).collect();
            (members, if root_node == n { root - n * k } else { 0 })
        })
        .collect();
    Tiers {
        leaders: (leaders, root_node),
        nodes,
    }
}

/// One tier: the flat binomial broadcast tree over every group, mapped
/// [`on`](CommSchedule::on) the group's members, all trees sharing
/// barrier-aligned stages. The stage count is the deepest tree's, so every
/// PE executes the same number of barriers regardless of ragged last
/// nodes: a smaller group's shallower tree aligns with the small-distance
/// end of the tier (its last stages).
fn tier(groups: &[(Vec<usize>, usize)], n_pes: usize, nelems: usize) -> Vec<Stage> {
    let trees: Vec<CommSchedule> = groups
        .iter()
        .map(|(members, root)| {
            broadcast_binomial(members.len(), *root, nelems, 1).on(members, n_pes)
        })
        .collect();
    let depth = trees.iter().map(|t| t.stages.len()).max().unwrap_or(0);
    let mut stages = vec![Stage::default(); depth];
    for tree in trees {
        let skip = depth - tree.stages.len();
        for (stage, t) in stages[skip..].iter_mut().zip(tree.stages) {
            stage.ops.extend(t.ops);
        }
    }
    stages
}

/// Two-tier hierarchical broadcast schedule: binomial push across node
/// leaders, then each leader's push inside its own node — all nodes
/// fanning out concurrently within shared, barrier-aligned stages.
pub fn broadcast_hier_sched(
    n_pes: usize,
    pes_per_node: usize,
    root: usize,
    nelems: usize,
) -> CommSchedule {
    assert!(root < n_pes, "root {root} out of range");
    let t = tiers(n_pes, pes_per_node, root);
    let mut stages = tier(&[t.leaders], n_pes, nelems);
    stages.extend(tier(&t.nodes, n_pes, nelems));
    CommSchedule {
        n_pes,
        kind: CollectiveKind::Broadcast,
        stages,
    }
}

/// Two-tier hierarchical reduction schedule, [`broadcast_hier_sched`]
/// transposed: fold within each node toward its leader, then fold leaders
/// toward the root.
pub fn reduce_hier_sched(
    n_pes: usize,
    pes_per_node: usize,
    root: usize,
    nelems: usize,
) -> CommSchedule {
    broadcast_hier_sched(n_pes, pes_per_node, root, nelems)
        .transposed(CollectiveKind::Reduce, OpKind::GetFold)
}

/// The row a hierarchical call runs: two tiers under the fabric's
/// topology, the flat binomial tree without one.
fn hier_row(pe: &Pe, family: CollectiveKind, root: usize, nelems: usize) -> Row<'static> {
    let shape = match pe.topology() {
        Some(topo) => Shape::Hier {
            family,
            pes_per_node: topo.pes_per_node,
            root,
            nelems,
        },
        None => Shape::Rooted {
            family,
            algo: Algorithm::Binomial,
            root,
            payload: Payload::Whole { nelems, stride: 1 },
        },
    };
    Row {
        shape,
        members: None,
        world: pe.n_pes(),
    }
}

/// Hierarchical broadcast: tier 1 across node leaders, tier 2 within
/// nodes, under an explicit synchronization discipline — the broadcast
/// body on the two-tier row, which lowers unchanged under the signaled and
/// pipelined disciplines. Falls back to the flat binomial tree when the
/// fabric has no topology.
pub fn broadcast_hier<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    root: usize,
    sync: SyncMode,
) {
    let row = hier_row(pe, CollectiveKind::Broadcast, root, nelems);
    broadcast_core(pe, dest, src, &row, sync);
}

/// Hierarchical reduction with an arbitrary combiner under an explicit
/// synchronization discipline: tier 1 within nodes (cheap links), tier 2
/// across leaders to the root — the reduction body on the two-tier row.
/// `src` must be symmetric; `dest` receives the result on the root only.
pub fn reduce_hier<T: XbrType>(
    pe: &Pe,
    dest: &mut [T],
    src: &SymmAlloc<T>,
    nelems: usize,
    root: usize,
    f: impl Fn(T, T) -> T + Copy,
    sync: SyncMode,
) {
    let row = hier_row(pe, CollectiveKind::Reduce, root, nelems);
    reduce_core(pe, dest, src, &row, f, sync);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::policy::AlgorithmPolicy;
    use crate::fabric::{Fabric, FabricConfig, Topology};

    fn topo_cfg(n_pes: usize, pes_per_node: usize) -> FabricConfig {
        FabricConfig::paper(n_pes).with_topology(Topology {
            pes_per_node,
            intra_node_factor: 0.25,
        })
    }

    /// Inter-node crossings are now a pure property of the schedule.
    fn inter_node_ops(sched: &CommSchedule, k: usize) -> usize {
        sched
            .ops()
            .filter(|op| op.src_pe / k != op.dst_pe / k)
            .count()
    }

    #[test]
    fn hier_schedule_minimises_inter_node_crossings() {
        // 12 PEs, 4 nodes of 3: the hierarchy crosses the inter-node
        // fabric exactly #nodes − 1 = 3 times.
        let sched = broadcast_hier_sched(12, 3, 0, 64);
        sched.validate();
        assert_eq!(sched.total_ops(), 11);
        assert_eq!(inter_node_ops(&sched, 3), 3);
        // The flat tree crosses more often on the same layout.
        let flat = crate::collectives::schedule::broadcast_binomial(12, 0, 64, 1);
        assert!(inter_node_ops(&flat, 3) > 3);
        // Reduce mirrors broadcast.
        let red = reduce_hier_sched(12, 3, 0, 64);
        red.validate();
        assert_eq!(red.total_ops(), 11);
        assert_eq!(inter_node_ops(&red, 3), 3);
    }

    #[test]
    fn hier_broadcast_delivers_everywhere() {
        for (n, k, root) in [
            (8, 4, 0),
            (8, 4, 5),
            (6, 4, 3),
            (8, 2, 7),
            (7, 3, 2),
            (5, 2, 4),
        ] {
            let report = Fabric::run(topo_cfg(n, k), move |pe| {
                let dest = pe.shared_malloc::<u64>(4);
                broadcast_hier(pe, &dest, &[9, 8, 7, 6], 4, root, SyncMode::Barrier);
                pe.barrier();
                pe.heap_read_vec::<u64>(dest.whole(), 4)
            });
            for (rank, got) in report.results.iter().enumerate() {
                assert_eq!(
                    got,
                    &vec![9, 8, 7, 6],
                    "n={n} k={k} root={root} rank={rank}"
                );
            }
        }
    }

    #[test]
    fn hier_reduce_matches_flat() {
        for (n, k, root) in [(8, 4, 0), (8, 4, 6), (6, 3, 1), (7, 3, 5)] {
            let report = Fabric::run(topo_cfg(n, k), move |pe| {
                let src = pe.shared_malloc::<u64>(3);
                pe.heap_write(src.whole(), &[pe.rank() as u64, 1, 2 * pe.rank() as u64]);
                pe.barrier();
                let mut hier = [0u64; 3];
                reduce_hier(
                    pe,
                    &mut hier,
                    &src,
                    3,
                    root,
                    |a, b| a + b,
                    SyncMode::Barrier,
                );
                let mut flat = [0u64; 3];
                crate::collectives::reduce_with(
                    pe,
                    &mut flat,
                    &src,
                    3,
                    1,
                    root,
                    |a: u64, b| a + b,
                    AlgorithmPolicy::Binomial,
                    SyncMode::Barrier,
                );
                pe.barrier();
                (hier, flat)
            });
            let (hier, flat) = report.results[root];
            assert_eq!(hier, flat, "n={n} k={k} root={root}");
            let n64 = n as u64;
            assert_eq!(hier[1], n64);
        }
    }

    #[test]
    fn hier_without_topology_falls_back_to_flat() {
        let report = Fabric::run(FabricConfig::new(4), |pe| {
            let dest = pe.shared_malloc::<u64>(1);
            broadcast_hier(pe, &dest, &[42], 1, 2, SyncMode::Barrier);
            pe.barrier();
            pe.heap_load(dest.whole())
        });
        assert_eq!(report.results, vec![42, 42, 42, 42]);
    }

    /// The no-topology fallback must run under the caller's sync mode,
    /// not silently revert to per-stage barriers.
    #[test]
    fn hier_without_topology_keeps_sync_mode() {
        let report = Fabric::run(FabricConfig::new(6), |pe| {
            let dest = pe.shared_malloc::<u64>(2);
            broadcast_hier(pe, &dest, &[4, 2], 2, 1, SyncMode::Signaled);
            let src = pe.shared_malloc::<u64>(1);
            pe.heap_store(src.whole(), pe.rank() as u64);
            pe.barrier();
            let mut sum = [0u64];
            reduce_hier(pe, &mut sum, &src, 1, 1, |a, b| a + b, SyncMode::Signaled);
            pe.barrier();
            (pe.heap_read_vec::<u64>(dest.whole(), 2), sum[0])
        });
        assert!(report.results.iter().all(|(b, _)| b == &vec![4, 2]));
        assert_eq!(report.results[1].1, 15);
        for kind in [CollectiveKind::Broadcast, CollectiveKind::Reduce] {
            let rec = report.collective(kind).unwrap();
            assert_eq!(rec.sync_modes(), ["signaled"], "{}", kind.name());
            assert!(rec.signals > 0, "{}: no signals posted", kind.name());
        }
    }

    #[test]
    fn hier_broadcast_crosses_fewer_inter_node_links() {
        // Note: for power-of-two node sizes the flat binomial tree with
        // recursive halving is *already* topology-friendly — exactly the
        // paper's §4.3 assumption that "PE ranks are likely to be assigned
        // sequentially within a given node". The hierarchy pays off when
        // node boundaries don't align with the tree's power-of-two splits:
        // 12 PEs in 4 nodes of 3, where the flat tree crosses the
        // inter-node fabric six times vs the hierarchy's three.
        let msg = 8192usize;
        let run = |hier: bool| {
            let report = Fabric::run(
                topo_cfg(12, 3).with_shared_bytes(msg * 8 + (1 << 20)),
                move |pe| {
                    let dest = pe.shared_malloc::<u64>(msg);
                    let src = vec![5u64; msg];
                    pe.barrier();
                    let t0 = pe.cycles();
                    if hier {
                        broadcast_hier(pe, &dest, &src, msg, 0, SyncMode::Barrier);
                    } else {
                        crate::collectives::broadcast(pe, &dest, &src, msg, 1, 0);
                    }
                    pe.barrier();
                    pe.cycles() - t0
                },
            );
            report.results.iter().copied().max().unwrap()
        };
        let hier = run(true);
        let flat = run(false);
        assert!(
            hier < flat,
            "hierarchical {hier} should beat flat {flat} on a 2-node topology"
        );
    }

    #[test]
    fn hier_ragged_nodes_across_all_sync_modes() {
        // `pes_per_node ∤ n_pes`: the last node is short, so tier-2 trees
        // differ in shape across nodes while stage counts stay uniform.
        // Every sync discipline must deliver identical results on these
        // ragged layouts.
        for (n, k, root) in [(7, 3, 2), (5, 2, 4), (10, 4, 9)] {
            for sync in SyncMode::CONCRETE {
                let report = Fabric::run(topo_cfg(n, k), move |pe| {
                    let dest = pe.shared_malloc::<u64>(4);
                    broadcast_hier(pe, &dest, &[11, 22, 33, 44], 4, root, sync);
                    pe.barrier();
                    pe.heap_read_vec::<u64>(dest.whole(), 4)
                });
                for (rank, got) in report.results.iter().enumerate() {
                    assert_eq!(
                        got,
                        &vec![11, 22, 33, 44],
                        "bcast n={n} k={k} root={root} rank={rank} {}",
                        sync.name()
                    );
                }

                let report = Fabric::run(topo_cfg(n, k), move |pe| {
                    let src = pe.shared_malloc::<u64>(2);
                    pe.heap_write(src.whole(), &[pe.rank() as u64 + 1, 1]);
                    pe.barrier();
                    let mut out = [0u64; 2];
                    reduce_hier(pe, &mut out, &src, 2, root, |a, b| a + b, sync);
                    pe.barrier();
                    out
                });
                let n64 = n as u64;
                assert_eq!(
                    report.results[root],
                    [n64 * (n64 + 1) / 2, n64],
                    "reduce n={n} k={k} root={root} {}",
                    sync.name()
                );
            }
        }
    }

    #[test]
    fn single_node_topology_works() {
        let report = Fabric::run(topo_cfg(4, 8), |pe| {
            let dest = pe.shared_malloc::<u64>(1);
            broadcast_hier(pe, &dest, &[3], 1, 1, SyncMode::Barrier);
            pe.barrier();
            pe.heap_load(dest.whole())
        });
        assert_eq!(report.results, vec![3, 3, 3, 3]);
    }
}
