//! Cross-crate integration: the tree collectives (Algorithms 1–4) checked
//! against the linear baselines and against sequential oracles over
//! randomized configurations, through the public `xbgas` facade.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xbgas::xbrtime::collectives;
use xbgas::xbrtime::{AlgorithmPolicy, CollectiveKind, Fabric, FabricConfig, ReduceOp, SyncMode};

/// Oracle for reduction: fold contributions sequentially.
fn oracle_reduce(contribs: &[Vec<i64>], f: impl Fn(i64, i64) -> i64) -> Vec<i64> {
    let mut acc = contribs[0].clone();
    for c in &contribs[1..] {
        for (a, b) in acc.iter_mut().zip(c) {
            *a = f(*a, *b);
        }
    }
    acc
}

#[test]
fn randomized_reduce_matches_oracle_and_baseline() {
    let mut rng = SmallRng::seed_from_u64(0xB10_CA57);
    for trial in 0..12 {
        let n_pes = rng.gen_range(1..=9);
        let root = rng.gen_range(0..n_pes);
        let nelems = rng.gen_range(1..=64);
        let stride = rng.gen_range(1..=3);
        let op = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max][rng.gen_range(0..3)];
        let contribs: Vec<Vec<i64>> = (0..n_pes)
            .map(|_| (0..nelems).map(|_| rng.gen_range(-1000..1000)).collect())
            .collect();

        let span = (nelems - 1) * stride + 1;
        let expect = oracle_reduce(&contribs, op.combiner::<i64>().unwrap());
        for policy in [
            AlgorithmPolicy::Binomial,
            AlgorithmPolicy::Linear,
            AlgorithmPolicy::Ring,
        ] {
            let c2 = contribs.clone();
            let report = Fabric::run(FabricConfig::new(n_pes), move |pe| {
                let src = pe.shared_malloc::<i64>(span);
                let mine = &c2[pe.rank()];
                // Place contribution at strided positions.
                let mut staged = vec![0i64; span];
                for (j, &v) in mine.iter().enumerate() {
                    staged[j * stride] = v;
                }
                pe.heap_write(src.whole(), &staged);
                pe.barrier();

                let mut out = vec![0i64; span];
                let sync = SyncMode::Barrier;
                collectives::reduce_policy_sync(
                    pe, &mut out, &src, nelems, stride, root, op, policy, sync,
                );
                pe.barrier();
                out
            });
            for (j, want) in expect.iter().enumerate() {
                assert_eq!(
                    report.results[root][j * stride],
                    *want,
                    "trial {trial}: {policy:?} vs oracle (n={n_pes} root={root} op={op:?})"
                );
            }
            if policy == AlgorithmPolicy::Ring {
                // `Ring` runs — and reports — the chain's n − 1 hops, not
                // a one-stage fallback.
                let rec = report.collective(CollectiveKind::Reduce).expect("recorded");
                assert_eq!(rec.algorithms(), ["ring"], "trial {trial}: n={n_pes}");
                assert_eq!(rec.stages, n_pes as u64 - 1, "trial {trial}: n={n_pes}");
            }
        }
    }
}

#[test]
fn randomized_scatter_gather_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x5CA77E2);
    for trial in 0..12 {
        let n_pes = rng.gen_range(1..=8);
        let root = rng.gen_range(0..n_pes);
        // Irregular counts, possibly zero for some PEs.
        let msgs: Vec<usize> = (0..n_pes).map(|_| rng.gen_range(0..=7)).collect();
        let nelems: usize = msgs.iter().sum();
        let disp: Vec<usize> = msgs
            .iter()
            .scan(0usize, |acc, &m| {
                let d = *acc;
                *acc += m;
                Some(d)
            })
            .collect();
        let data: Vec<u64> = (0..nelems as u64).map(|i| i * 13 + trial).collect();
        // The chain hops once per virtual rank whose suffix still holds
        // data: the stage count `Ring` must report for both directions.
        let hops = (1..n_pes)
            .filter(|&v| (v..n_pes).any(|u| msgs[(u + root) % n_pes] > 0))
            .count() as u64;

        for policy in [
            AlgorithmPolicy::Binomial,
            AlgorithmPolicy::Linear,
            AlgorithmPolicy::Ring,
        ] {
            let (m2, d2, dat2) = (msgs.clone(), disp.clone(), data.clone());
            let report = Fabric::run(FabricConfig::new(n_pes), move |pe| {
                let src: Vec<u64> = if pe.rank() == root {
                    dat2.clone()
                } else {
                    vec![]
                };
                let my_count = m2[pe.rank()];
                let mut mine = vec![0u64; my_count.max(1)];
                let sync = SyncMode::Barrier;
                collectives::scatter_policy_sync(
                    pe, &mut mine, &src, &m2, &d2, nelems, root, policy, sync,
                );
                pe.barrier();
                let mut back = vec![0u64; nelems.max(1)];
                collectives::gather_policy_sync(
                    pe,
                    &mut back,
                    &mine[..my_count],
                    &m2,
                    &d2,
                    nelems,
                    root,
                    policy,
                    sync,
                );
                pe.barrier();
                back
            });
            if nelems > 0 {
                assert_eq!(
                    &report.results[root][..nelems],
                    &data[..],
                    "trial {trial}: {policy:?} scatter∘gather must be identity \
                     (n={n_pes} root={root} msgs={msgs:?})"
                );
                if policy == AlgorithmPolicy::Ring {
                    for kind in [CollectiveKind::Scatter, CollectiveKind::Gather] {
                        let rec = report.collective(kind).expect("episode recorded");
                        assert_eq!(
                            rec.stages,
                            hops,
                            "trial {trial}: ring {} must run the chain, not the \
                             one-stage linear fallback (n={n_pes} root={root} msgs={msgs:?})",
                            kind.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn broadcast_equivalence_across_all_algorithms() {
    let mut rng = SmallRng::seed_from_u64(0xB40ADCA5);
    for _ in 0..10 {
        let n_pes = rng.gen_range(1..=9);
        let root = rng.gen_range(0..n_pes);
        let nelems = rng.gen_range(0..=40);
        let payload: Vec<u64> = (0..nelems as u64).map(|i| i ^ 0xAA).collect();

        let p2 = payload.clone();
        let report = Fabric::run(FabricConfig::new(n_pes), move |pe| {
            let a = pe.shared_malloc::<u64>(nelems.max(1));
            let b = pe.shared_malloc::<u64>(nelems.max(1));
            let c = pe.shared_malloc::<u64>(nelems.max(1));
            pe.barrier();
            collectives::broadcast(pe, &a, &p2, nelems, 1, root);
            collectives::broadcast_policy_sync(
                pe,
                &b,
                &p2,
                nelems,
                1,
                root,
                AlgorithmPolicy::Linear,
                SyncMode::Barrier,
            );
            collectives::broadcast_policy_sync(
                pe,
                &c,
                &p2,
                nelems,
                1,
                root,
                AlgorithmPolicy::Ring,
                SyncMode::Barrier,
            );
            pe.barrier();
            (
                pe.heap_read_vec::<u64>(a.whole(), nelems),
                pe.heap_read_vec::<u64>(b.whole(), nelems),
                pe.heap_read_vec::<u64>(c.whole(), nelems),
            )
        });
        for (rank, (a, b, c)) in report.results.iter().enumerate() {
            assert_eq!(a, &payload, "tree delivery to rank {rank}");
            assert_eq!(b, &payload, "linear delivery to rank {rank}");
            assert_eq!(c, &payload, "ring delivery to rank {rank}");
        }
    }
}

#[test]
fn composed_semantics_allreduce_equals_reduce_plus_broadcast() {
    // Paper §4.2: the four base collectives "can be combined together to
    // accomplish the semantics of several more complex operations" — check
    // the library's reduce_all against the manual composition.
    for n_pes in [1usize, 3, 4, 7] {
        let report = Fabric::run(FabricConfig::new(n_pes), move |pe| {
            let src = pe.shared_malloc::<u64>(8);
            let mine: Vec<u64> = (0..8).map(|j| (pe.rank() as u64 + 1) * (j + 1)).collect();
            pe.heap_write(src.whole(), &mine);
            pe.barrier();

            // Manual composition.
            let mut reduced = vec![0u64; 8];
            collectives::reduce(pe, &mut reduced, &src, 8, 1, 0, ReduceOp::Sum);
            let bcast = pe.shared_malloc::<u64>(8);
            collectives::broadcast(pe, &bcast, &reduced, 8, 1, 0);
            pe.barrier();
            let manual = pe.heap_read_vec::<u64>(bcast.whole(), 8);

            // Library reduce_all.
            let mut auto = vec![0u64; 8];
            collectives::reduce_all_sync(
                pe,
                &mut auto,
                &src,
                8,
                ReduceOp::Sum,
                collectives::AllReduceAlgo::ReduceThenBroadcast,
                SyncMode::Barrier,
            );
            pe.barrier();
            (manual, auto)
        });
        for (rank, (manual, auto)) in report.results.iter().enumerate() {
            assert_eq!(manual, auto, "n={n_pes} rank={rank}");
        }
    }
}

#[test]
fn typed_api_agrees_with_generic_api() {
    use xbgas::xbrtime::typed;
    let report = Fabric::run(FabricConfig::new(4), |pe| {
        let src = pe.shared_malloc::<i32>(4);
        pe.heap_write(src.whole(), &[pe.rank() as i32; 4]);
        pe.barrier();

        let mut a = [0i32; 4];
        collectives::reduce(pe, &mut a, &src, 4, 1, 2, ReduceOp::Max);
        let mut b = [0i32; 4];
        typed::int::reduce_max(pe, &mut b, &src, 4, 1, 2);
        pe.barrier();
        (a, b)
    });
    assert_eq!(report.results[2].0, report.results[2].1);
    assert_eq!(report.results[2].0, [3; 4]);
}
