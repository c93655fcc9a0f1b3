//! The paper's two application benchmarks on 8 PEs: `gups_8pe`
//! (Figure 4, the fabric's one-sided path) and `is_8pe` (Figure 5, local
//! compute plus a 32 KiB reduce + broadcast per iteration). One rep is one
//! `Fabric::run` of the app; host time is the run's wall time, simulated
//! time is the app's own timed region — the number the figures are drawn
//! from.

use std::time::Instant;

use xbgas_apps::{run_gups, run_is, GupsConfig, IsConfig};
use xbrtime::{Fabric, FabricConfig};

use super::Metric;
use crate::measure::{Budget, Ctx, Rep};

const PES: usize = 8;

// ---------------------------------------------------------------------------
// gups_8pe
// ---------------------------------------------------------------------------

/// `GupsConfig::fig4(8)` with 2^15 updates per PE. `--seed` changes
/// nothing here: `run_gups` has no seed input (the stream offset is a
/// constant of the library; moving the streams through `updates_per_pe` by
/// as little as 0–7 flipped cycles per update between 60.34 and 60.47), and
/// the scheduler's grant seed flips the simulated makespan between the
/// same two values, so the engine is the pinned one.
fn gups_cfg(ctx: &Ctx) -> GupsConfig {
    let mut cfg = GupsConfig::fig4(PES);
    cfg.updates_per_pe = if ctx.quick { 1 << 13 } else { 1 << 15 };
    cfg
}

fn gups_fabric(cfg: &GupsConfig) -> FabricConfig {
    FabricConfig::paper(PES)
        .with_shared_bytes(cfg.table_bytes() / PES + (1 << 20))
        .with_engine(Ctx::pinned_engine())
}

/// Launch, table allocation and initialisation, join: `run_gups` with an
/// empty update loop.
pub fn gups_setup(ctx: &Ctx) -> f64 {
    let mut cfg = gups_cfg(ctx);
    cfg.updates_per_pe = 0;
    Fabric::run(gups_fabric(&cfg), move |pe| run_gups(pe, &cfg))
        .wall
        .as_secs_f64()
}

/// Timed `gups_8pe` reps (unverified, as Figure 4's timed loop), preceded
/// by one verified rep outside the timing whose residual errors are the
/// output check; op = one update.
pub fn gups_run(ctx: &Ctx, budget: &Budget, layers: &mut Vec<Metric>) -> Vec<Rep> {
    let cfg = gups_cfg(ctx);
    let ops = (cfg.updates_per_pe * PES) as u64;
    let fabric = gups_fabric(&cfg);

    let verified = GupsConfig {
        verify: true,
        ..cfg
    };
    let errors = match Fabric::try_run(fabric, move |pe| run_gups(pe, &verified)) {
        Ok(report) => report.results.iter().map(|r| r.errors as u64).sum(),
        Err(_) => ops,
    };

    let mut stats = None;
    let mut reps = budget.run(|| {
        let _span = ctx.span("apps.run_gups");
        let t0 = Instant::now();
        match Fabric::try_run(fabric, move |pe| (run_gups(pe, &cfg), pe.mem_stats())) {
            Ok(report) => {
                let rep = Rep {
                    ops,
                    host_s: report.wall.as_secs_f64(),
                    sim_cycles: report.results.iter().map(|r| r.0.cycles).max().unwrap_or(0),
                    failed: 0,
                };
                stats = Some(report.results);
                rep
            }
            Err(e) => {
                eprintln!("fabric run failed: {e}");
                Rep::failed(ops, t0)
            }
        }
    });
    reps[0].failed += errors;

    if let Some(per_pe) = stats {
        let n = per_pe.len() as f64;
        let mean =
            |f: &dyn Fn(&(xbgas_apps::GupsResult, _)) -> f64| per_pe.iter().map(f).sum::<f64>() / n;
        layers.push(Metric::new(
            "apps.gups.remote_frac",
            mean(&|r| r.0.remote_fraction),
            "ratio",
        ));
        layers.push(Metric::new(
            "apps.gups.l1_hit_rate",
            mean(&|r| r.1 .0.hit_rate()),
            "ratio",
        ));
        layers.push(Metric::new(
            "apps.gups.l2_hit_rate",
            mean(&|r| r.1 .1.hit_rate()),
            "ratio",
        ));
        layers.push(Metric::new(
            "apps.gups.tlb_hit_rate",
            mean(&|r| {
                let t = r.1 .2;
                t.hits as f64 / (t.hits + t.misses).max(1) as f64
            }),
            "ratio",
        ));
    }
    reps
}

// ---------------------------------------------------------------------------
// is_8pe
// ---------------------------------------------------------------------------

/// `IsConfig::fig5()` with 40 ranking iterations. The NPB key sequence is
/// fixed by the benchmark's own constants, so the seed reaches this
/// workload only through the scheduler's grant seed.
fn is_cfg(ctx: &Ctx) -> IsConfig {
    IsConfig {
        iterations: if ctx.quick { 4 } else { 40 },
        ..IsConfig::fig5()
    }
}

fn is_fabric(ctx: &Ctx, cfg: &IsConfig) -> FabricConfig {
    let (total_keys, max_key) = cfg.class.sizes();
    // Histogram + mailbox (total keys) + slack, as `run_fig5` sizes it.
    FabricConfig::paper(PES)
        .with_shared_bytes(max_key * 8 + total_keys * 4 + (1 << 22))
        .with_engine(ctx.engine())
}

/// Launch, key generation, allocations and the redistribution tail:
/// `run_is` with no ranking iterations.
pub fn is_setup(ctx: &Ctx) -> f64 {
    let cfg = IsConfig {
        iterations: 0,
        verify: false,
        ..is_cfg(ctx)
    };
    Fabric::run(is_fabric(ctx, &cfg), move |pe| run_is(pe, &cfg))
        .wall
        .as_secs_f64()
}

/// Timed `is_8pe` reps, every one verified by the app itself
/// (`IsResult::verified`); op = one key ranked.
pub fn is_run(ctx: &Ctx, budget: &Budget, _layers: &mut Vec<Metric>) -> Vec<Rep> {
    let cfg = is_cfg(ctx);
    let ops = (cfg.class.sizes().0 * cfg.iterations) as u64;
    let fabric = is_fabric(ctx, &cfg);
    budget.run(|| {
        let _span = ctx.span("apps.run_is");
        let t0 = Instant::now();
        match Fabric::try_run(fabric, move |pe| run_is(pe, &cfg)) {
            Ok(report) => Rep {
                ops,
                host_s: report.wall.as_secs_f64(),
                sim_cycles: report.results.iter().map(|r| r.cycles).max().unwrap_or(0),
                failed: if report.results.iter().all(|r| r.verified) {
                    0
                } else {
                    ops
                },
            },
            Err(e) => {
                eprintln!("fabric run failed: {e}");
                Rep::failed(ops, t0)
            }
        }
    })
}
