//! `traffic_mt`: the multi-tenant traffic plane at 64 PEs — the
//! cooperative scheduler at scale, teams, v-variant collectives, and five
//! 64-PE-class launches (one shared run plus four solo baselines) per rep.

use std::time::Instant;

use xbrtime::{run_traffic, Fabric, FabricConfig, SyncMode, TrafficConfig};

use super::Metric;
use crate::measure::{Budget, Ctx, Rep};

const PES: usize = 64;

/// Both seeds of this workload are pinned, so `--seed` changes nothing
/// here. The tenants' op streams are drawn by `tenant_plan` from the
/// traffic seed, and a different palette is a different workload (cost per
/// call differs by tens of percent). The scheduler's grant seed moves the
/// *simulated* makespan of the 64-PE shared run: nine of ten grant seeds
/// gave 8496–8545 cycles per call and one gave 10398 (+22 %) — a finding
/// for the determinism work, and far outside the bound on
/// `sim_cycles_per_op`.
const TRAFFIC_SEED: u64 = 0xB16_B00B5;

fn config(ctx: &Ctx) -> TrafficConfig {
    TrafficConfig {
        tenants: 4,
        ops_per_tenant: if ctx.quick { 8 } else { 32 },
        palette: 6,
        max_block: 256,
        seed: TRAFFIC_SEED,
        sync: SyncMode::Signaled,
    }
}

/// 2 MiB of symmetric heap a PE: the largest staging board is 32 KiB
/// (16 PEs × 256 elements), and the default 16 MiB × 64 PEs would make
/// every launch zero a gigabyte.
fn fabric() -> FabricConfig {
    FabricConfig::paper(PES)
        .with_shared_bytes(2 << 20)
        .with_engine(Ctx::pinned_engine())
}

/// A 64-PE launch that sizes the signal table and joins: what a traffic
/// run pays before its first op.
pub fn setup(_: &Ctx) -> f64 {
    Fabric::run(fabric(), |pe| {
        pe.signal_table(64);
        pe.barrier();
    })
    .wall
    .as_secs_f64()
}

/// Timed `traffic_mt` reps; op = one collective call of the shared run.
/// `run_traffic` checks every tenant's digest against its solo replay; any
/// error fails every op of the rep.
pub fn run(ctx: &Ctx, budget: &Budget, layers: &mut Vec<Metric>) -> Vec<Rep> {
    let cfg = config(ctx);
    let ops = (cfg.tenants * cfg.ops_per_tenant) as u64;
    let mut last = None;
    let reps = budget.run(|| {
        let _span = ctx.span("traffic.run_traffic");
        let t0 = Instant::now();
        let result = run_traffic(fabric(), &cfg);
        let host_s = t0.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                let rep = Rep {
                    ops,
                    host_s,
                    sim_cycles: report.makespan_cycles,
                    failed: 0,
                };
                last = Some(report);
                rep
            }
            Err(e) => {
                eprintln!("traffic_mt: {e}");
                Rep::failed(ops, t0)
            }
        }
    });
    if let Some(report) = last {
        let worst = |f: fn(&xbrtime::TenantStats) -> u64| {
            report.tenants.iter().map(f).max().unwrap_or(0) as f64
        };
        layers.push(Metric::new(
            "traffic.p50_cycles",
            worst(|t| t.p50),
            "cycles",
        ));
        layers.push(Metric::new(
            "traffic.p99_cycles",
            worst(|t| t.p99),
            "cycles",
        ));
        layers.push(Metric::new(
            "traffic.p999_cycles",
            worst(|t| t.p999),
            "cycles",
        ));
        layers.push(Metric::new("traffic.fairness", report.fairness, "ratio"));
        if let Some(pc) = report.plan_cache {
            layers.push(Metric::new(
                "plan.cache_hit_rate.traffic_mt",
                pc.hit_rate(),
                "ratio",
            ));
        }
    }
    reps
}
