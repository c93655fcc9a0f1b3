//! Multi-tenant traffic harness: T concurrent tenant teams issuing
//! overlapping irregular collectives (scatterv / gatherv / allgatherv /
//! broadcast) over the signal-slot plane, reporting per-tenant
//! p50/p99/p999 completion-cycle percentiles, a solo-baseline efficiency
//! fairness ratio (max/min tenant efficiency), and plan-cache hit rates.
//!
//! ```text
//! xbench_traffic [--pes N] [--tenants T] [--ops K] [--seed S]
//!                [--chaos] [--smoke]
//! ```
//!
//! `--chaos` reruns the same workload under the seeded delay fault plane
//! and reports both tables. `--smoke` is the CI gate: 8 tenants over 256
//! PEs, asserting fairness ≤ 4, zero deadlocks, and that the chaos-delay
//! p999 stays within a constant factor of the fault-free p999 — exits
//! nonzero on any violation.

use std::time::{Duration, Instant};
use xbgas_bench::usize_arg;
use xbrtime::traffic::{run_traffic, TrafficConfig, TrafficError, TrafficReport};
use xbrtime::{FabricConfig, FaultConfig, SyncMode};

/// Fairness ceiling the smoke gate enforces (max/min tenant efficiency).
const SMOKE_FAIRNESS_MAX: f64 = 4.0;
/// Chaos p999 must stay within this factor of the fault-free p999.
const SMOKE_CHAOS_P999_FACTOR: u64 = 16;

fn fabric(n_pes: usize, chaos: Option<u64>) -> FabricConfig {
    let mut cfg = FabricConfig::paper(n_pes).with_watchdog(Duration::from_secs(60));
    if let Some(seed) = chaos {
        cfg = cfg.with_faults(FaultConfig::delays(seed));
    }
    cfg
}

fn print_report(label: &str, report: &TrafficReport) {
    println!("# {label}");
    println!(
        "{:>6} {:>4} {:>4} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10} {:>6} {:>18}",
        "tenant",
        "PEs",
        "ops",
        "bytes",
        "p50",
        "p99",
        "p999",
        "B/cycle",
        "solo_cyc",
        "eff",
        "digest"
    );
    for t in &report.tenants {
        println!(
            "{:>6} {:>4} {:>4} {:>9} {:>9} {:>9} {:>9} {:>10.4} {:>10} {:>6.3} {:>18}",
            t.tenant,
            t.pes,
            t.ops,
            t.bytes,
            t.p50,
            t.p99,
            t.p999,
            t.throughput,
            t.solo_cycles,
            t.efficiency,
            format!("{:016x}", t.digest),
        );
    }
    let stats = report.plan_cache.unwrap_or_default();
    println!(
        "# fairness {:.3}  plan-cache hit rate {:.1}% ({} hits / {} misses)  makespan {} cycles",
        report.fairness,
        stats.hit_rate() * 100.0,
        stats.hits,
        stats.misses,
        report.makespan_cycles
    );
}

fn run_or_die(fab: FabricConfig, cfg: &TrafficConfig) -> TrafficReport {
    match run_traffic(fab, cfg) {
        Ok(report) => report,
        Err(TrafficError::Deadlock { tenant, report }) => {
            eprintln!("tenant {tenant} deadlocked:\n{report}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("traffic run failed: {e}");
            std::process::exit(1);
        }
    }
}

fn smoke(seed: u64) -> ! {
    // The CI shape: 8 tenants multiplexed over 256 PEs.
    let cfg = TrafficConfig {
        tenants: 8,
        ops_per_tenant: 12,
        palette: 4,
        max_block: 64,
        seed,
        sync: SyncMode::Signaled,
    };
    let started = Instant::now();
    let mut failures = 0usize;
    println!("# traffic smoke: 8 tenants x 256 PEs");

    let clean = run_or_die(fabric(256, None), &cfg);
    print_report("fault-free", &clean);
    if clean.fairness > SMOKE_FAIRNESS_MAX {
        failures += 1;
        println!(
            "# NO: fairness {:.3} exceeds the {SMOKE_FAIRNESS_MAX} gate",
            clean.fairness
        );
    }

    let chaos = run_or_die(fabric(256, Some(seed ^ 0xC0FFEE)), &cfg);
    print_report("chaos (seeded delays)", &chaos);
    let worst_clean = clean.tenants.iter().map(|t| t.p999).max().unwrap_or(0);
    let worst_chaos = chaos.tenants.iter().map(|t| t.p999).max().unwrap_or(0);
    let bounded = worst_chaos <= worst_clean.max(1) * SMOKE_CHAOS_P999_FACTOR;
    if !bounded {
        failures += 1;
        println!(
            "# NO: chaos p999 {worst_chaos} exceeds {SMOKE_CHAOS_P999_FACTOR}x fault-free p999 {worst_clean}"
        );
    }

    println!(
        "# smoke finished in {:.2?}: {}",
        started.elapsed(),
        if failures == 0 {
            "fairness bounded, chaos p999 bounded, zero deadlocks".to_string()
        } else {
            format!("{failures} gate(s) VIOLATED")
        }
    );
    std::process::exit(if failures == 0 { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = usize_arg(&args, "--seed", 0x7EA) as u64;
    if args.iter().any(|a| a == "--smoke") {
        smoke(seed);
    }

    let pes = usize_arg(&args, "--pes", 32);
    let cfg = TrafficConfig {
        tenants: usize_arg(&args, "--tenants", 4),
        ops_per_tenant: usize_arg(&args, "--ops", 32),
        seed,
        ..Default::default()
    };
    println!(
        "# traffic: {} tenants x {} ops on {} PEs",
        cfg.tenants, cfg.ops_per_tenant, pes
    );
    let report = run_or_die(fabric(pes, None), &cfg);
    print_report("fault-free", &report);
    if args.iter().any(|a| a == "--chaos") {
        let chaos = run_or_die(fabric(pes, Some(seed ^ 0xC0FFEE)), &cfg);
        print_report("chaos (seeded delays)", &chaos);
    }
}
