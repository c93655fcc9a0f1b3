//! Criterion benches for the point-to-point layer: blocking/non-blocking
//! put/get, strided transfers, the unrolled bulk path (paper §3.3), and
//! the collective executor's synchronization disciplines (barrier vs
//! signaled vs pipelined).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xbrtime::{collectives, AlgorithmPolicy, Fabric, FabricConfig, ReduceOp, SyncMode};

fn bench_put(c: &mut Criterion) {
    let mut g = c.benchmark_group("put");
    for nelems in [1usize, 64, 4096, 262144] {
        g.throughput(Throughput::Bytes((nelems * 8) as u64));
        g.bench_with_input(BenchmarkId::new("blocking", nelems), &nelems, |b, &n| {
            b.iter(|| {
                Fabric::run(
                    FabricConfig::new(2).with_shared_bytes((n * 8).max(1 << 20)),
                    move |pe| {
                        let dest = pe.shared_malloc::<u64>(n);
                        pe.barrier();
                        if pe.rank() == 0 {
                            let src = vec![1u64; n];
                            pe.put(dest.whole(), &src, n, 1, 1);
                        }
                        pe.barrier();
                    },
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("nonblocking", nelems), &nelems, |b, &n| {
            b.iter(|| {
                Fabric::run(
                    FabricConfig::new(2).with_shared_bytes((n * 8).max(1 << 20)),
                    move |pe| {
                        let dest = pe.shared_malloc::<u64>(n);
                        pe.barrier();
                        if pe.rank() == 0 {
                            let src = vec![1u64; n];
                            let h = pe.put_nb(dest.whole(), &src, n, 1, 1);
                            pe.wait(h);
                        }
                        pe.barrier();
                    },
                )
            })
        });
    }
    g.finish();
}

fn bench_strided(c: &mut Criterion) {
    let mut g = c.benchmark_group("strided_get");
    let nelems = 4096usize;
    for stride in [1usize, 2, 8] {
        g.throughput(Throughput::Bytes((nelems * 8) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(stride), &stride, |b, &s| {
            b.iter(|| {
                Fabric::run(
                    FabricConfig::new(2).with_shared_bytes((nelems * s * 8).max(1 << 20)),
                    move |pe| {
                        let src = pe.shared_malloc::<u64>(nelems * s);
                        pe.barrier();
                        if pe.rank() == 0 {
                            let mut dest = vec![0u64; nelems * s];
                            pe.get(&mut dest, src.whole(), nelems, s, 1);
                        }
                        pe.barrier();
                    },
                )
            })
        });
    }
    g.finish();
}

/// Host wall-clock of one broadcast under each executor sync mode.
/// Complements `xbench_sweep`, which reports the *simulated* cycles the
/// figures are drawn from: this measures what the host pays to run the
/// signal plane (spin waits, chunk bookkeeping) relative to barriers.
fn bench_broadcast_sync(c: &mut Criterion) {
    let mut g = c.benchmark_group("broadcast_sync_modes");
    g.sample_size(10);
    let nelems = 16_384usize;
    g.throughput(Throughput::Bytes((nelems * 8) as u64));
    for n_pes in [2usize, 4, 8] {
        for sync in [SyncMode::Barrier, SyncMode::Signaled, SyncMode::Pipelined] {
            let id = BenchmarkId::new(sync.name(), n_pes);
            g.bench_with_input(id, &n_pes, |b, &n| {
                b.iter(|| {
                    Fabric::run(
                        FabricConfig::new(n).with_shared_bytes((nelems * 8).max(1 << 20)),
                        move |pe| {
                            let dest = pe.shared_malloc::<u64>(nelems);
                            let src = vec![7u64; nelems];
                            collectives::broadcast_policy_sync(
                                pe,
                                &dest,
                                &src,
                                nelems,
                                1,
                                0,
                                AlgorithmPolicy::Binomial,
                                sync,
                            );
                            pe.barrier();
                        },
                    )
                })
            });
        }
    }
    g.finish();
}

/// Host wall-clock of one sum-reduction under each executor sync mode.
fn bench_reduce_sync(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduce_sync");
    g.sample_size(10);
    let nelems = 16_384usize;
    g.throughput(Throughput::Bytes((nelems * 8) as u64));
    for n_pes in [2usize, 4, 8] {
        for sync in [SyncMode::Barrier, SyncMode::Signaled, SyncMode::Pipelined] {
            let id = BenchmarkId::new(sync.name(), n_pes);
            g.bench_with_input(id, &n_pes, |b, &n| {
                b.iter(|| {
                    Fabric::run(
                        FabricConfig::new(n).with_shared_bytes((nelems * 8 * 4).max(1 << 20)),
                        move |pe| {
                            let src = pe.shared_malloc::<u64>(nelems);
                            pe.heap_write(src.whole(), &vec![pe.rank() as u64; nelems]);
                            pe.barrier();
                            let mut dest = vec![0u64; nelems];
                            collectives::reduce_policy_sync(
                                pe,
                                &mut dest,
                                &src,
                                nelems,
                                1,
                                0,
                                ReduceOp::Sum,
                                AlgorithmPolicy::Binomial,
                                sync,
                            );
                            pe.barrier();
                        },
                    )
                })
            });
        }
    }
    g.finish();
}

fn bench_symmetric_alloc(c: &mut Criterion) {
    c.bench_function("shared_malloc_free_x100", |b| {
        b.iter(|| {
            Fabric::run(FabricConfig::new(2), |pe| {
                for _ in 0..100 {
                    let a = pe.shared_malloc::<u64>(256);
                    pe.shared_free(a);
                }
            })
        })
    });
}

criterion_group!(
    benches,
    bench_put,
    bench_strided,
    bench_broadcast_sync,
    bench_reduce_sync,
    bench_symmetric_alloc
);
criterion_main!(benches);
