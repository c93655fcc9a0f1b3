//! Cross-layer conformance-plane tests: golden-seed determinism of every
//! RNG stream the explorer and fault plane consume, oracle coverage of
//! the team/hierarchical generators (including ragged layouts), and
//! model↔fabric agreement on the same schedules.
//!
//! The golden constants pin *exact* `u64` outputs, so any platform- or
//! refactor-induced drift in the streams (usize-width dependence, hash
//! iteration order, reseeding changes) fails loudly instead of silently
//! changing which interleavings and faults a seed reproduces.

use xbrtime::collectives::explore::{
    explore_exhaustive, run_mutation_harness, RandomPriority, Scheduler,
};
use xbrtime::collectives::extended::allreduce_recursive_doubling;
use xbrtime::collectives::hierarchical::{broadcast_hier_sched, reduce_hier_sched};
use xbrtime::collectives::schedule::{CommSchedule, Payload, Row, Shape};
use xbrtime::collectives::verify::{check_plan, check_schedule, CollectiveSpec, ModelConfig};
use xbrtime::collectives::{Algorithm, SyncMode};
use xbrtime::fabric::FaultConfig;
use xbrtime::timing::SplitMix64;
use xbrtime::CollectiveKind;

/// The binomial `family` row over `members` of an `n`-PE world, rooted
/// at their position `root` — what a `Team` runs.
fn team_sched(
    family: CollectiveKind,
    members: &[usize],
    n: usize,
    root: usize,
    nelems: usize,
) -> CommSchedule {
    let shape = Shape::Rooted {
        family,
        algo: Algorithm::Binomial,
        root,
        payload: Payload::Whole { nelems, stride: 1 },
    };
    let row = Row {
        shape,
        members: Some(members),
        world: n,
    };
    row.schedule()
}

// ---------------------------------------------------------------------------
// Golden-seed streams (platform-identical by construction: u64-only).
// ---------------------------------------------------------------------------

#[test]
fn splitmix64_golden_stream() {
    let mut rng = SplitMix64::new(0);
    assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
    assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    assert_eq!(rng.next_u64(), 0xf88b_b8a8_724c_81ec);

    let mut rng = SplitMix64::new(0xDEAD_BEEF);
    assert_eq!(rng.next_u64(), 0x4adf_b90f_68c9_eb9b);
    assert_eq!(rng.next_u64(), 0xde58_6a31_41a1_0922);
}

#[test]
fn splitmix64_state_round_trips() {
    let mut a = SplitMix64::new(99);
    a.next_u64();
    let mut b = SplitMix64::new(a.state());
    assert_eq!(a.next_u64(), b.next_u64());
}

#[test]
fn pe_stream_seed_golden() {
    let seed = 0x1234_5678_9ABC_DEF0;
    let want = [
        0x1234_5678_9abc_def0u64,
        0xb242_4b1c_e201_badf,
        0x52d8_6cb0_6bc6_16ae,
        0xf356_0e55_f084_f27d,
    ];
    for (rank, &w) in want.iter().enumerate() {
        assert_eq!(FaultConfig::pe_stream_seed(seed, rank), w, "rank {rank}");
    }
}

#[test]
fn fault_plane_drop_rolls_are_pinned() {
    // The per-PE fault stream the fabric consumes: SplitMix64 seeded by
    // pe_stream_seed, reduced mod 1000 for the drop roll. Pinning the
    // rolls pins which signals a given (seed, permille) config drops.
    let mut rng = SplitMix64::new(FaultConfig::pe_stream_seed(42, 3));
    let rolls: Vec<u64> = (0..8).map(|_| rng.next_u64() % 1000).collect();
    assert_eq!(rolls, vec![447, 596, 387, 525, 60, 572, 899, 519]);
}

#[test]
fn random_priority_pick_sequence_is_pinned() {
    // Fully-enabled world of 4: the pick sequence is a pure function of
    // the seed, including the PCT priority-change point at pick 9.
    let mut s = RandomPriority::new(7, 4);
    let enabled = [0usize, 1, 2, 3];
    let picks: Vec<usize> = (0..16).map(|_| s.pick(&enabled)).collect();
    assert_eq!(picks, vec![2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3]);
}

// ---------------------------------------------------------------------------
// Oracle coverage: team and hierarchical schedules, ragged layouts.
// ---------------------------------------------------------------------------

#[test]
fn oracle_passes_team_schedules_all_modes() {
    let cfg = ModelConfig::default();
    // Ragged, gappy teams inside worlds of 5 and 6.
    for (n, members) in [(5usize, vec![0, 2, 4]), (6, vec![1, 2, 5]), (6, vec![3])] {
        for sync in SyncMode::CONCRETE {
            let root = members.len() - 1;
            let sched = team_sched(CollectiveKind::Broadcast, &members, n, root, 3);
            let report = check_schedule(
                &sched,
                sync,
                &CollectiveSpec::TeamBroadcast {
                    members: members.clone(),
                    root_global: members[root],
                    nelems: 3,
                },
                &cfg,
            );
            assert!(
                report.ok(),
                "team bcast n={n} m={members:?} {}: {}",
                sync.name(),
                report.summary()
            );

            let sched = team_sched(CollectiveKind::Reduce, &members, n, 0, 3);
            let report = check_schedule(
                &sched,
                sync,
                &CollectiveSpec::TeamReduce {
                    members: members.clone(),
                    nelems: 3,
                },
                &cfg,
            );
            assert!(
                report.ok(),
                "team reduce n={n} m={members:?} {}: {}",
                sync.name(),
                report.summary()
            );
        }
    }
}

#[test]
fn oracle_passes_ragged_hierarchical_schedules() {
    let cfg = ModelConfig::default();
    for (n, k, root) in [(7usize, 3usize, 2usize), (5, 2, 4), (10, 4, 9)] {
        for sync in SyncMode::CONCRETE {
            let sched = broadcast_hier_sched(n, k, root, 3);
            let report = check_schedule(
                &sched,
                sync,
                &CollectiveSpec::Broadcast {
                    root,
                    nelems: 3,
                    stride: 1,
                },
                &cfg,
            );
            assert!(
                report.ok(),
                "hier bcast n={n} k={k} root={root} {}: {}",
                sync.name(),
                report.summary()
            );

            let sched = reduce_hier_sched(n, k, root, 3);
            let report = check_schedule(
                &sched,
                sync,
                &CollectiveSpec::ReduceTree {
                    root,
                    nelems: 3,
                    stride: 1,
                },
                &cfg,
            );
            assert!(
                report.ok(),
                "hier reduce n={n} k={k} root={root} {}: {}",
                sync.name(),
                report.summary()
            );
        }
    }
}

#[test]
fn exhaustive_exploration_covers_ragged_hier_and_team() {
    let cfg = ModelConfig::default();
    for sync in SyncMode::CONCRETE {
        let sched = broadcast_hier_sched(3, 2, 0, 2);
        let out = explore_exhaustive(
            &sched,
            sync,
            &CollectiveSpec::Broadcast {
                root: 0,
                nelems: 2,
                stride: 1,
            },
            &cfg,
        );
        assert!(
            out.ok(),
            "hier bcast 3/2 {}: {}",
            sync.name(),
            out.summary()
        );

        let out = explore_exhaustive(
            &team_sched(CollectiveKind::Broadcast, &[0, 2], 4, 1, 2),
            sync,
            &CollectiveSpec::TeamBroadcast {
                members: vec![0, 2],
                root_global: 2,
                nelems: 2,
            },
            &cfg,
        );
        assert!(out.ok(), "team bcast {}: {}", sync.name(), out.summary());
    }
}

/// The oracle interprets the artefact the fabric executes: damage done
/// to the lowered *plan* — which no schedule-level mutant can express,
/// because the schedule stays correct — is flagged.
#[test]
fn oracle_flags_hand_broken_plans() {
    use xbrtime::collectives::schedule::{broadcast_binomial, reduce_binomial};
    use xbrtime::collectives::{lower, PlanStep};

    let spec = CollectiveSpec::Broadcast {
        root: 0,
        nelems: 4,
        stride: 1,
    };
    let good = lower(&broadcast_binomial(4, 0, 4, 1), SyncMode::Signaled, 8);
    let report = check_plan(&good, &spec);
    assert!(report.ok(), "intact plan: {}", report.summary());

    // A leaf forgets to consume its incoming put's completion signal in
    // the drain: the slot is still raised when the collective closes.
    let mut no_wait = good.clone();
    let (leaf, at) = no_wait
        .per_pe
        .iter()
        .enumerate()
        .find_map(|(pe, p)| {
            let i = p.steps[p.drain_from..]
                .iter()
                .position(|s| matches!(s, PlanStep::Wait { .. }))?;
            Some((pe, p.drain_from + i))
        })
        .expect("a signaled broadcast drains at least one wait");
    no_wait.per_pe[leaf].steps.remove(at);
    let report = check_plan(&no_wait, &spec);
    assert!(!report.violations.is_empty(), "{}", report.summary());

    // A put loses its completion signal: its receiver waits forever.
    let mut no_sig = good.clone();
    let sig = no_sig
        .per_pe
        .iter_mut()
        .flat_map(|p| p.steps.iter_mut())
        .find_map(|s| match s {
            PlanStep::Copy { sig, .. } if sig.is_some() => Some(sig),
            _ => None,
        })
        .expect("a signaled broadcast has a signaled put");
    *sig = None;
    let report = check_plan(&no_sig, &spec);
    assert!(report.deadlock.is_some(), "{}", report.summary());

    // Barrier parity: one PE skips one of its barriers. On the fabric its
    // peers wait for it forever (or, were another barrier to follow, the
    // generations shift under the next episode); the oracle must not let
    // the finished PE count as present at the rendezvous.
    let rows = [
        (broadcast_binomial(4, 0, 4, 1), spec.clone()),
        (
            reduce_binomial(4, 0, 4, 1),
            CollectiveSpec::ReduceTree {
                root: 0,
                nelems: 4,
                stride: 1,
            },
        ),
    ];
    let mut mutants = 0;
    for (sched, spec) in &rows {
        for sync in SyncMode::CONCRETE {
            let intact = lower(sched, sync, 8);
            for (pe, prog) in intact.per_pe.iter().enumerate() {
                let barriers = prog.steps.iter().enumerate();
                for (at, _) in barriers.filter(|(_, s)| matches!(s, PlanStep::Barrier)) {
                    let mut skip = intact.clone();
                    skip.per_pe[pe].steps.remove(at);
                    let report = check_plan(&skip, spec);
                    assert!(
                        !report.ok(),
                        "PE {pe} skips barrier step {at} under {sync:?} unflagged: {}",
                        report.summary()
                    );
                    mutants += 1;
                }
            }
        }
    }
    assert_eq!(mutants, 32, "every PE × every barrier × three sync modes");
}

#[test]
fn butterfly_mutants_die_under_the_oracle() {
    // The deferred-fold ack protocol is the one dependency class the
    // fabric can't check at runtime; the harness must kill its removal.
    let sched = allreduce_recursive_doubling(4, 2);
    let report = run_mutation_harness(
        &sched,
        &CollectiveSpec::AllReduce { nelems: 2 },
        &ModelConfig::default(),
        &SyncMode::CONCRETE,
    );
    assert!(!report.outcomes.is_empty());
    assert_eq!(
        report.kill_rate(),
        1.0,
        "survivors: {:?}",
        report
            .survivors()
            .map(|s| format!("{} [{}] {}", s.mutation, s.sync.name(), s.how))
            .collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------------
// Model ↔ fabric agreement on identical schedules.
// ---------------------------------------------------------------------------

#[test]
fn model_and_fabric_agree_on_hier_broadcast() {
    use xbrtime::collectives::broadcast_hier;
    use xbrtime::fabric::{Fabric, FabricConfig, Topology};

    // Same ragged schedule the oracle just cleared, now on the real fabric:
    // both layers must accept it.
    for sync in SyncMode::CONCRETE {
        let report = Fabric::run(
            FabricConfig::paper(5).with_topology(Topology {
                pes_per_node: 2,
                intra_node_factor: 0.25,
            }),
            move |pe| {
                let dest = pe.shared_malloc::<u64>(3);
                broadcast_hier(pe, &dest, &[7, 5, 3], 3, 4, sync);
                pe.barrier();
                pe.heap_read_vec::<u64>(dest.whole(), 3)
            },
        );
        for got in &report.results {
            assert_eq!(got, &vec![7, 5, 3], "{}", sync.name());
        }

        let sched = broadcast_hier_sched(5, 2, 4, 3);
        let model = check_schedule(
            &sched,
            sync,
            &CollectiveSpec::Broadcast {
                root: 4,
                nelems: 3,
                stride: 1,
            },
            &ModelConfig::default(),
        );
        assert!(model.ok(), "{}: {}", sync.name(), model.summary());
    }
}
