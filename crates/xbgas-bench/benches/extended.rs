//! Criterion benches for the extended (§7 future work) collectives:
//! all-reduce strategies, all-gather, all-to-all, and team operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xbrtime::collectives::{self, AllReduceAlgo, Team};
use xbrtime::shmem::{self, ActiveSet};
use xbrtime::{Fabric, FabricConfig, ReduceOp, SyncMode, Topology};

const N_PES: usize = 4;

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce");
    for nelems in [16usize, 4096] {
        g.throughput(Throughput::Bytes((nelems * 8) as u64));
        for (name, algo) in [
            ("reduce_bcast", AllReduceAlgo::ReduceThenBroadcast),
            ("recursive_doubling", AllReduceAlgo::RecursiveDoubling),
        ] {
            g.bench_with_input(BenchmarkId::new(name, nelems), &nelems, |b, &n| {
                b.iter(|| {
                    Fabric::run(FabricConfig::new(N_PES), move |pe| {
                        let src = pe.shared_malloc::<u64>(n);
                        pe.heap_write(src.whole(), &vec![pe.rank() as u64; n]);
                        pe.barrier();
                        let mut dest = vec![0u64; n];
                        collectives::reduce_all_sync(
                            pe,
                            &mut dest,
                            &src,
                            n,
                            ReduceOp::Sum,
                            algo,
                            SyncMode::Barrier,
                        );
                    })
                })
            });
        }
    }
    g.finish();
}

fn bench_allgather_alltoall(c: &mut Criterion) {
    let mut g = c.benchmark_group("allgather_alltoall");
    for per_pe in [16usize, 4096] {
        g.throughput(Throughput::Bytes((per_pe * N_PES * 8) as u64));
        g.bench_with_input(BenchmarkId::new("allgather", per_pe), &per_pe, |b, &n| {
            b.iter(|| {
                Fabric::run(FabricConfig::new(N_PES), move |pe| {
                    let src = vec![pe.rank() as u64; n];
                    let mut dest = vec![0u64; n * N_PES];
                    collectives::all_gather(pe, &mut dest, &src, n);
                })
            })
        });
        g.bench_with_input(BenchmarkId::new("alltoall", per_pe), &per_pe, |b, &n| {
            b.iter(|| {
                Fabric::run(FabricConfig::new(N_PES), move |pe| {
                    let src = vec![pe.rank() as u64; n * N_PES];
                    let mut dest = vec![0u64; n * N_PES];
                    collectives::all_to_all_sync(pe, &mut dest, &src, n, SyncMode::Barrier);
                })
            })
        });
    }
    g.finish();
}

fn bench_team(c: &mut Criterion) {
    c.bench_function("team_broadcast_half", |b| {
        b.iter(|| {
            Fabric::run(FabricConfig::new(N_PES), |pe| {
                let team = Team::new((0..N_PES).step_by(2).collect());
                let dest = pe.shared_malloc::<u64>(256);
                let src = vec![1u64; 256];
                team.broadcast(pe, &dest, &src, 256, 0, SyncMode::Barrier);
            })
        })
    });
}

fn bench_amo(c: &mut Criterion) {
    c.bench_function("amo_fetch_add_x100", |b| {
        b.iter(|| {
            Fabric::run(FabricConfig::new(2), |pe| {
                let w = pe.shared_malloc::<u64>(1);
                pe.barrier();
                if pe.rank() == 0 {
                    for _ in 0..100 {
                        pe.amo_fetch_add(w.whole(), 1, 1);
                    }
                }
                pe.barrier();
            })
        })
    });
}

fn bench_hierarchical(c: &mut Criterion) {
    let mut g = c.benchmark_group("hier_vs_flat_broadcast");
    for nelems in [256usize, 16384] {
        g.throughput(Throughput::Bytes((nelems * 8) as u64));
        let cfg = FabricConfig::new(12).with_topology(Topology {
            pes_per_node: 3,
            intra_node_factor: 0.25,
        });
        g.bench_with_input(BenchmarkId::new("hier", nelems), &nelems, move |b, &n| {
            b.iter(|| {
                Fabric::run(cfg, move |pe| {
                    let d = pe.shared_malloc::<u64>(n);
                    let src = vec![1u64; n];
                    collectives::broadcast_hier(pe, &d, &src, n, 0, SyncMode::Barrier);
                })
            })
        });
        g.bench_with_input(BenchmarkId::new("flat", nelems), &nelems, move |b, &n| {
            b.iter(|| {
                Fabric::run(cfg, move |pe| {
                    let d = pe.shared_malloc::<u64>(n);
                    let src = vec![1u64; n];
                    collectives::broadcast(pe, &d, &src, n, 1, 0);
                })
            })
        });
    }
    g.finish();
}

fn bench_shmem_compat(c: &mut Criterion) {
    c.bench_function("shmem_fcollect64_4pes", |b| {
        b.iter(|| {
            Fabric::run(FabricConfig::new(4), |pe| {
                let dest = pe.shared_malloc::<u64>(4 * 64);
                let src = vec![pe.rank() as u64; 64];
                shmem::fcollect64(pe, &dest, &src, 64, &ActiveSet::world(4));
            })
        })
    });
    c.bench_function("shmem_to_all_4pes", |b| {
        b.iter(|| {
            Fabric::run(FabricConfig::new(4), |pe| {
                let src = pe.shared_malloc::<i64>(64);
                let dest = pe.shared_malloc::<i64>(64);
                pe.heap_write(src.whole(), &vec![pe.rank() as i64; 64]);
                pe.barrier();
                shmem::to_all(pe, &dest, &src, 64, ReduceOp::Sum, &ActiveSet::world(4));
            })
        })
    });
}

criterion_group!(
    benches,
    bench_allreduce,
    bench_allgather_alltoall,
    bench_team,
    bench_amo,
    bench_hierarchical,
    bench_shmem_compat
);
criterion_main!(benches);
