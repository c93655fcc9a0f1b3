//! Criterion wall-clock benches for the four paper collectives
//! (Algorithms 1–4) against the linear/ring baselines.
//!
//! These measure host throughput of the runtime itself; the paper-shape
//! figures come from the simulated-cycle harness binaries instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xbrtime::collectives;
use xbrtime::{AlgorithmPolicy, Fabric, FabricConfig, ReduceOp, SyncMode};

const N_PES: usize = 4;

fn bench_broadcast(c: &mut Criterion) {
    let mut g = c.benchmark_group("broadcast");
    for nelems in [16usize, 1024, 65536] {
        g.throughput(Throughput::Bytes((nelems * 8) as u64));
        for (name, policy) in [
            ("binomial", AlgorithmPolicy::Binomial),
            ("linear", AlgorithmPolicy::Linear),
            ("ring", AlgorithmPolicy::Ring),
        ] {
            g.bench_with_input(BenchmarkId::new(name, nelems), &nelems, |b, &n| {
                b.iter(|| {
                    Fabric::run(FabricConfig::new(N_PES), move |pe| {
                        let dest = pe.shared_malloc::<u64>(n);
                        let src = vec![3u64; n];
                        let sync = SyncMode::Barrier;
                        collectives::broadcast_policy_sync(pe, &dest, &src, n, 1, 0, policy, sync);
                    })
                })
            });
        }
    }
    g.finish();
}

fn bench_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduce");
    for nelems in [16usize, 1024, 65536] {
        g.throughput(Throughput::Bytes((nelems * 8) as u64));
        for (name, policy) in [
            ("binomial_sum", AlgorithmPolicy::Binomial),
            ("linear_sum", AlgorithmPolicy::Linear),
        ] {
            g.bench_with_input(BenchmarkId::new(name, nelems), &nelems, |b, &n| {
                b.iter(|| {
                    Fabric::run(FabricConfig::new(N_PES), move |pe| {
                        let src = pe.shared_malloc::<u64>(n);
                        pe.heap_write(src.whole(), &vec![pe.rank() as u64; n]);
                        pe.barrier();
                        let mut dest = vec![0u64; n];
                        let (op, sync) = (ReduceOp::Sum, SyncMode::Barrier);
                        collectives::reduce_policy_sync(
                            pe, &mut dest, &src, n, 1, 0, op, policy, sync,
                        );
                    })
                })
            });
        }
    }
    g.finish();
}

fn bench_scatter_gather(c: &mut Criterion) {
    let mut g = c.benchmark_group("scatter_gather");
    for per_pe in [64usize, 4096] {
        let nelems = per_pe * N_PES;
        let msgs = vec![per_pe; N_PES];
        let disp: Vec<usize> = (0..N_PES).map(|r| r * per_pe).collect();
        g.throughput(Throughput::Bytes((nelems * 8) as u64));
        let (m1, d1) = (msgs.clone(), disp.clone());
        g.bench_with_input(BenchmarkId::new("scatter", per_pe), &nelems, |b, &n| {
            b.iter(|| {
                let (msgs, disp) = (m1.clone(), d1.clone());
                Fabric::run(FabricConfig::new(N_PES), move |pe| {
                    let src: Vec<u64> = if pe.rank() == 0 {
                        (0..n as u64).collect()
                    } else {
                        vec![]
                    };
                    let mut dest = vec![0u64; per_pe];
                    collectives::scatter(pe, &mut dest, &src, &msgs, &disp, n, 0);
                })
            })
        });
        let (m2, d2) = (msgs.clone(), disp.clone());
        g.bench_with_input(BenchmarkId::new("gather", per_pe), &nelems, |b, &n| {
            b.iter(|| {
                let (msgs, disp) = (m2.clone(), d2.clone());
                Fabric::run(FabricConfig::new(N_PES), move |pe| {
                    let src: Vec<u64> = vec![pe.rank() as u64; per_pe];
                    let mut dest = vec![0u64; n];
                    collectives::gather(pe, &mut dest, &src, &msgs, &disp, n, 0);
                })
            })
        });
    }
    g.finish();
}

fn bench_barrier(c: &mut Criterion) {
    c.bench_function("barrier_x100_4pes", |b| {
        b.iter(|| {
            Fabric::run(FabricConfig::new(N_PES), |pe| {
                for _ in 0..100 {
                    pe.barrier();
                }
            })
        })
    });
}

criterion_group!(
    benches,
    bench_broadcast,
    bench_reduce,
    bench_scatter_gather,
    bench_barrier
);
criterion_main!(benches);
