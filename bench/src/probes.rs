//! Per-layer micro-probes of the traced pass: each calls one layer
//! directly through its public functions, under a span named after the
//! layer, and reports the fastest of three timings.

use std::hint::black_box;
use std::time::Instant;

use xbgas_apps::micro;
use xbgas_isa::{decode, encode};
use xbgas_sim::asm::assemble;
use xbgas_sim::cache::MemHierarchy;
use xbgas_sim::cost::CostConfig;
use xbgas_sim::noc::{Noc, NocConfig};
use xbgas_sim::olb::Olb;
use xbgas_sim::tlb::{Tlb, TlbConfig};
use xbgas_sim::{ExecMode, Machine, MachineConfig, RunExit};
use xbrtime::collectives::lower;
use xbrtime::collectives::schedule::broadcast_binomial;
use xbrtime::collectives::verify::{check_schedule, CollectiveSpec, ModelConfig};
use xbrtime::heap::FreeList;
use xbrtime::timing::SplitMix64;
use xbrtime::{AlgorithmPolicy, CollectiveKind, Fabric, FabricConfig, Pe, SyncMode, TimingConfig};

use crate::host;
use crate::measure::{best_of, Ctx};
use crate::workloads::Metric;

/// Fastest of three passes of `iters` calls of `f`, in nanoseconds a call.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    best_of(3, || (0..iters).for_each(&mut f)) * 1e9 / iters as f64
}

/// The cache-resident GUPS kernel of `xbench_sim` (512 KiB table, inside
/// the modelled 8 MB L2): the BENCH_sim cells.
const SIM_KERNEL: &str = "    li   s1, 0x2545F491
    li   s2, 65535
    li   s3, 0x100000
    li   s0, 150000
loop:
    slli t0, s1, 13
    xor  s1, s1, t0
    srli t0, s1, 7
    xor  s1, s1, t0
    slli t0, s1, 17
    xor  s1, s1, t0
    and  t1, s1, s2
    slli t1, t1, 3
    add  t2, s3, t1
    ld   t3, 0(t2)
    xor  t3, t3, s1
    sd   t3, 0(t2)
    addi s0, s0, -1
    bnez s0, loop
    li   a7, 0
    ecall
";

fn isa_and_asm(out: &mut Vec<Metric>) {
    let words = assemble(0x1000, SIM_KERNEL).expect("probe kernel").words;
    let passes = 20_000;
    let per_pass = words.len() as f64;
    let secs = best_of(3, || {
        for _ in 0..passes {
            for &w in &words {
                black_box(decode(black_box(w)).is_ok());
            }
        }
    });
    out.push(Metric::new(
        "isa.decode_minst_per_s",
        passes as f64 * per_pass / secs / 1e6,
        "Minst/s",
    ));
    let insts: Vec<_> = words.iter().map(|&w| decode(w).expect("decodes")).collect();
    let secs = best_of(3, || {
        for _ in 0..passes {
            for inst in &insts {
                black_box(encode(black_box(inst)).is_ok());
            }
        }
    });
    out.push(Metric::new(
        "isa.encode_minst_per_s",
        passes as f64 * per_pass / secs / 1e6,
        "Minst/s",
    ));

    let body: String = SIM_KERNEL
        .lines()
        .filter(|l| l.starts_with("    ") && !l.contains("loop"))
        .map(|l| format!("{l}\n"))
        .collect();
    let source = body.repeat(200);
    let lines = source.lines().count() as f64;
    let secs = best_of(3, || {
        black_box(assemble(0x1000, &source).is_ok());
    });
    out.push(Metric::new("sim.asm.lines_per_s", lines / secs, "1/s"));
}

/// Host MIPS of the probe kernel on one engine under one cost model
/// (fastest of three runs; only `Machine::run` is on the clock).
fn sim_mips(cost: CostConfig, exec: ExecMode) -> f64 {
    let img = assemble(0x1000, SIM_KERNEL).expect("probe kernel");
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut m = Machine::new(MachineConfig {
            n_harts: 1,
            mem_bytes: 2 << 20,
            cost,
            max_cycles: u64::MAX,
            exec,
        });
        m.load_program(0x1000, &img.words);
        let t0 = Instant::now();
        let summary = m.run();
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(summary.exit, RunExit::AllHalted, "probe kernel must exit");
        best = best.max(m.hart(0).instret as f64 / secs / 1e6);
    }
    best
}

fn simulator(out: &mut Vec<Metric>) {
    let cells = [
        (
            "sim.machine.interp_mips_functional",
            CostConfig::functional(),
            ExecMode::Interp,
        ),
        (
            "sim.machine.interp_mips_paper",
            CostConfig::paper(),
            ExecMode::Interp,
        ),
        (
            "sim.block.mips_functional",
            CostConfig::functional(),
            ExecMode::Block,
        ),
        ("sim.block.mips_paper", CostConfig::paper(), ExecMode::Block),
    ];
    let mips: Vec<f64> = cells
        .iter()
        .map(|&(name, cost, exec)| {
            let v = sim_mips(cost, exec);
            out.push(Metric::new(name, v, "MIPS"));
            v
        })
        .collect();
    out.push(Metric::new(
        "sim.block.speedup_paper",
        mips[3] / mips[1],
        "ratio",
    ));

    // The memory-model components, driven directly over a 32 MiB range
    // (four times the modelled L2), as `sim_gups` and `xbrtime::timing` do.
    let mut rng = SplitMix64::new(7);
    let addrs: Vec<u64> = (0..1 << 16)
        .map(|_| 0x10_0000 + (rng.next_u64() & 0x1ff_fff8))
        .collect();
    let at = |i: u64| addrs[i as usize & 0xffff];
    let mut hier = MemHierarchy::paper(CostConfig::paper().mem_cycles);
    out.push(Metric::new(
        "sim.cache.access_ns",
        ns_per_call(400_000, |i| {
            black_box(hier.access(at(i)));
        }),
        "ns",
    ));
    let mut tlb = Tlb::new(TlbConfig::paper());
    out.push(Metric::new(
        "sim.tlb.access_ns",
        ns_per_call(400_000, |i| {
            black_box(tlb.access(at(i)));
        }),
        "ns",
    ));
    let mut olb = Olb::identity_for_pes(4, CostConfig::paper().olb_lookup_cycles);
    out.push(Metric::new(
        "sim.olb.translate_ns",
        ns_per_call(400_000, |i| {
            black_box(olb.translate(1 + (i & 3)).is_ok());
        }),
        "ns",
    ));
    let mut noc = Noc::new(NocConfig::paper());
    out.push(Metric::new(
        "sim.noc.transact_ns",
        ns_per_call(400_000, |_| {
            black_box(noc.transact(8));
        }),
        "ns",
    ));
}

fn fabric(ctx: &Ctx, n_pes: usize) -> FabricConfig {
    FabricConfig::paper(n_pes)
        .with_shared_bytes(4 << 20)
        .with_engine(ctx.engine())
}

/// Run `body` on a coop fabric and return rank 0's result.
fn on_rank0<R: Send + Default>(ctx: &Ctx, n_pes: usize, body: impl Fn(&Pe) -> R + Sync) -> R {
    let mut report = Fabric::run(fabric(ctx, n_pes), body);
    std::mem::take(&mut report.results[0])
}

fn engine_and_heap(ctx: &Ctx, out: &mut Vec<Metric>) {
    for (name, n) in [
        ("engine.launch_us_per_pe_n8", 8),
        ("engine.launch_us_per_pe_n64", 64),
    ] {
        let secs = best_of(5, || {
            Fabric::run(fabric(ctx, n).with_shared_bytes(1 << 16), |_| ());
        });
        out.push(Metric::new(name, secs * 1e6 / n as f64, "us"));
    }

    // Two PEs on one worker slot: every barrier parks and resumes each PE
    // once, so a barrier is two hand-offs.
    const BARRIERS: u32 = 20_000;
    let secs = on_rank0(ctx, 2, |pe| {
        pe.barrier();
        best_of(3, || (0..BARRIERS).for_each(|_| pe.barrier()))
    });
    out.push(Metric::new(
        "engine.handoff_us",
        secs * 1e6 / (2 * BARRIERS) as f64,
        "us",
    ));

    let mut heap = FreeList::new(1 << 20);
    out.push(Metric::new(
        "heap.alloc_free_ns",
        ns_per_call(200_000, |i| {
            let bytes = 64 + (i as usize & 7) * 64;
            let off = heap.alloc(bytes).expect("probe heap has room");
            heap.free(black_box(off), bytes);
        }),
        "ns",
    ));
}

fn one_sided(ctx: &Ctx, out: &mut Vec<Metric>) {
    const OPS: u64 = 100_000;
    // Rank 0 works while rank 1 waits in the closing barrier.
    let ns = on_rank0(ctx, 2, |pe| {
        let cell = pe.shared_malloc::<u64>(8);
        let mut buf = [0u64; 1];
        pe.barrier();
        let mut ns = [0.0; 4];
        if pe.rank() == 0 {
            ns[0] = ns_per_call(OPS, |i| pe.put(cell.at(i as usize & 7), &[i], 1, 1, 1));
            ns[1] = ns_per_call(OPS, |i| pe.get(&mut buf, cell.at(i as usize & 7), 1, 1, 1));
            ns[2] = ns_per_call(OPS, |i| {
                black_box(pe.amo_fetch_add(cell.at(i as usize & 7), 1, 1));
            });
            ns[3] = ns_per_call(OPS, |i| {
                let slot = cell.at(i as usize & 7);
                pe.heap_store(slot, pe.heap_load(slot) ^ i);
            });
        }
        pe.barrier();
        ns
    });
    for (name, v) in [
        "fabric.put_small_ns",
        "fabric.get_small_ns",
        "fabric.amo_ns",
        "fabric.local_access_ns",
    ]
    .into_iter()
    .zip(ns)
    {
        out.push(Metric::new(name, v, "ns"));
    }

    let timing = TimingConfig::paper();
    out.push(Metric::new(
        "fabric.put_small_cycles",
        micro::put_latency(timing, 1, 200).cycles_per_op,
        "cycles",
    ));
    out.push(Metric::new(
        "fabric.get_small_cycles",
        micro::get_latency(timing, 1, 200).cycles_per_op,
        "cycles",
    ));

    const LARGE: usize = 1 << 17; // 1 MiB of u64
    let secs = on_rank0(ctx, 2, |pe| {
        let dest = pe.shared_malloc::<u64>(LARGE);
        let src = vec![1u64; LARGE];
        pe.barrier();
        let mut secs = 0.0;
        if pe.rank() == 0 {
            secs = best_of(3, || {
                (0..16).for_each(|_| pe.put(dest.whole(), &src, LARGE, 1, 1))
            });
        }
        pe.barrier();
        secs / 16.0
    });
    out.push(Metric::new(
        "fabric.put_large_gbps",
        (LARGE * 8) as f64 / secs / 1e9,
        "GB/s",
    ));
}

fn synchronisation(ctx: &Ctx, out: &mut Vec<Metric>) {
    const BARRIERS: u32 = 5_000;
    let (secs, cycles) = on_rank0(ctx, 8, |pe| {
        pe.barrier();
        let c0 = pe.cycles();
        let secs = best_of(3, || (0..BARRIERS).for_each(|_| pe.barrier()));
        (secs, (pe.cycles() - c0) as f64 / (3 * BARRIERS) as f64)
    });
    out.push(Metric::new(
        "fabric.barrier_us",
        secs * 1e6 / BARRIERS as f64,
        "us",
    ));
    out.push(Metric::new("fabric.barrier_cycles", cycles, "cycles"));

    const TRIPS: u32 = 10_000;
    let secs = on_rank0(ctx, 2, |pe| {
        let sig = pe.signal_table(2);
        let peer = 1 - pe.rank();
        pe.barrier();
        best_of(3, || {
            for _ in 0..TRIPS {
                if pe.rank() == 0 {
                    pe.signal_post(sig, peer);
                    pe.signal_wait(sig.offset(1));
                } else {
                    pe.signal_wait(sig);
                    pe.signal_post(sig.offset(1), peer);
                }
            }
        })
    });
    out.push(Metric::new(
        "fabric.signal_roundtrip_us",
        secs * 1e6 / TRIPS as f64,
        "us",
    ));
}

fn plan_stack(ctx: &Ctx, out: &mut Vec<Metric>) {
    for (n, gen_name, lower_name) in [
        (8, "sched.gen_us_n8", "plan.lower_us_n8"),
        (64, "sched.gen_us_n64", "plan.lower_us_n64"),
    ] {
        out.push(Metric::new(
            gen_name,
            ns_per_call(2_000, |i| {
                black_box(broadcast_binomial(n, i as usize % n, 128, 1));
            }) / 1e3,
            "us",
        ));
        let sched = broadcast_binomial(n, 1, 128, 1);
        out.push(Metric::new(
            lower_name,
            ns_per_call(2_000, |_| {
                black_box(lower(black_box(&sched), SyncMode::Signaled, 8));
            }) / 1e3,
            "us",
        ));
    }
    out.push(Metric::new(
        "policy.select_ns",
        ns_per_call(1_000_000, |i| {
            let (n, bytes) = (2 + (i as usize & 63), 8usize << (i & 15));
            black_box(AlgorithmPolicy::Auto.select(CollectiveKind::Broadcast, n, bytes));
            black_box(SyncMode::Auto.resolve(n, bytes));
        }),
        "ns",
    ));
    let cell = xbgas_bench::issue_rate(ctx.engine(), 8, 128, 4_000);
    out.push(Metric::new(
        "plan.issue_warm_per_s",
        cell.warm_per_sec,
        "1/s",
    ));
    out.push(Metric::new(
        "plan.issue_cold_per_s",
        cell.cold_per_sec,
        "1/s",
    ));

    let sched = broadcast_binomial(8, 0, 4, 1);
    let spec = CollectiveSpec::Broadcast {
        root: 0,
        nelems: 4,
        stride: 1,
    };
    out.push(Metric::new(
        "verify.oracle_us_n8",
        ns_per_call(500, |_| {
            let report = check_schedule(&sched, SyncMode::Signaled, &spec, &ModelConfig::default());
            assert!(report.ok(), "oracle rejects the binomial broadcast");
        }) / 1e3,
        "us",
    ));
}

/// Every probe, each under a span named after its layer.
pub fn run_all(ctx: &Ctx) -> Vec<Metric> {
    let mut out = Vec::new();
    {
        let _s = ctx.span("isa+asm");
        isa_and_asm(&mut out);
    }
    {
        let _s = ctx.span("sim");
        simulator(&mut out);
    }
    {
        let _s = ctx.span("engine+heap");
        engine_and_heap(ctx, &mut out);
    }
    {
        let _s = ctx.span("fabric.one_sided");
        one_sided(ctx, &mut out);
    }
    {
        let _s = ctx.span("fabric.sync");
        synchronisation(ctx, &mut out);
    }
    {
        let _s = ctx.span("sched+plan+policy+verify");
        plan_stack(ctx, &mut out);
    }
    out.push(Metric::new("host.calib_ns", host::calib_ns(), "ns"));
    out
}
