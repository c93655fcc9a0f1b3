//! Determinism and fault-plane tests for the multi-tenant traffic
//! harness: the same seed must reproduce the same per-tenant op
//! sequences and byte-identical result digests (single-worker coop is
//! the strictest schedule), seeded chaos delays must change timing but
//! never data, and permanent signal loss must surface as a structured
//! [`TrafficError::Deadlock`] naming a valid tenant instead of a hang.

use std::time::Duration;

use xbrtime::traffic::{run_traffic, tenant_members, tenant_plan, TrafficConfig, TrafficError};
use xbrtime::{EngineConfig, FabricConfig, FaultConfig, SyncMode};

/// A traffic shape small enough for test latency but with enough tenants
/// and ops to exercise overlapping irregular collectives of every kind.
fn small_cfg(seed: u64) -> TrafficConfig {
    TrafficConfig {
        tenants: 3,
        ops_per_tenant: 6,
        palette: 3,
        max_block: 24,
        seed,
        sync: SyncMode::Signaled,
    }
}

#[test]
fn tenant_plans_are_pure_and_seed_sensitive() {
    let cfg = small_cfg(0x5EED);
    for t in 0..cfg.tenants {
        let team = tenant_members(t, 9, cfg.tenants).len();
        assert_eq!(
            tenant_plan(&cfg, t, team),
            tenant_plan(&cfg, t, team),
            "tenant {t}: same seed must give the same op sequence"
        );
        let other = TrafficConfig {
            seed: cfg.seed ^ 1,
            ..cfg.clone()
        };
        assert_ne!(
            tenant_plan(&cfg, t, team),
            tenant_plan(&other, t, team),
            "tenant {t}: a different seed must perturb the op sequence"
        );
    }
}

#[test]
fn same_seed_coop_runs_are_byte_identical() {
    // The data plane is fully seed-determined: two runs must issue the
    // same op sequences and land byte-identical per-tenant digests. Raw
    // cycle counts are *not* asserted — the scheduler interleaving (and
    // with it the congestion model's view of concurrent channel
    // occupancy) may differ run to run, but the barrier discipline makes
    // every payload byte independent of it.
    let cfg = small_cfg(0xD00D);
    let fab = || {
        FabricConfig::paper(9)
            .with_engine(EngineConfig::coop().with_workers(1))
            .with_watchdog(Duration::from_secs(30))
    };
    let a = run_traffic(fab(), &cfg).expect("first run");
    let b = run_traffic(fab(), &cfg).expect("second run");
    assert_eq!(a.tenants.len(), b.tenants.len());
    for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(ta.digest, tb.digest, "tenant {} digest", ta.tenant);
        assert_eq!(ta.bytes, tb.bytes, "tenant {} bytes", ta.tenant);
        assert_eq!(ta.kinds, tb.kinds, "tenant {} op-kind mix", ta.tenant);
        assert!(
            ta.p50 <= ta.p99 && ta.p99 <= ta.p999 && ta.p999 > 0,
            "tenant {}: percentiles must be ordered and nonzero",
            ta.tenant
        );
    }
    assert!(a.fairness >= 1.0 && b.fairness >= 1.0);
}

#[test]
fn chaos_delays_change_timing_but_never_data() {
    // Seeded wall-clock delays reorder real execution without touching
    // the simulated clock's inputs or any payload byte: the run must
    // complete with digests identical to the fault-free run.
    let cfg = small_cfg(0xCAFE);
    let clean = run_traffic(
        FabricConfig::paper(9).with_watchdog(Duration::from_secs(30)),
        &cfg,
    )
    .expect("fault-free run");
    for seed in [1u64, 7] {
        let chaotic = run_traffic(
            FabricConfig::paper(9)
                .with_watchdog(Duration::from_secs(30))
                .with_faults(FaultConfig::delays(seed)),
            &cfg,
        )
        .expect("delays must never deadlock or corrupt");
        for (tc, tx) in clean.tenants.iter().zip(&chaotic.tenants) {
            assert_eq!(
                tc.digest, tx.digest,
                "delay seed {seed}: tenant {} data diverged",
                tc.tenant
            );
        }
    }
}

#[test]
fn permanent_signal_loss_names_the_deadlocked_tenant() {
    // Every signal dropped forever wedges the signaled collectives; the
    // watchdog must convert the hang into a structured report routed to
    // the tenant that owns the stuck PE — not a silent hang, not a bare
    // panic. (The watchdog fires by panicking inside the PEs, so the
    // per-thread backtraces on stderr are expected noise.)
    let cfg = small_cfg(0xBAD);
    let result = run_traffic(
        FabricConfig::new(9)
            .with_watchdog(Duration::from_millis(400))
            .with_faults(FaultConfig::drops_forever(13, 1000)),
        &cfg,
    );
    match result {
        Err(TrafficError::Deadlock { tenant, report }) => {
            assert!(
                tenant < cfg.tenants,
                "reported tenant {tenant} out of range"
            );
            // The stuck PE must actually belong to the named tenant.
            let members = tenant_members(tenant, 9, cfg.tenants);
            assert!(
                members.contains(&report.stuck().rank),
                "stuck PE {} is not in tenant {tenant}'s team {members:?}",
                report.stuck().rank
            );
        }
        other => panic!("expected Err(Deadlock), got {other:?}"),
    }
}
