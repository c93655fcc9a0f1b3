//! The plan cache and the nonblocking collectives built on it:
//! cache-key determinism (same key ⇒ one shared plan, shape change ⇒
//! distinct entries), exact hit/miss telemetry — including concurrent
//! issue at 256 PEs under the work-stealing engine — nonblocking overlap
//! of ≥2 in-flight collectives, blocking collectives issued above an
//! in-flight slot window, and slot-window recycling when a handle is
//! dropped.
//!
//! There is one lowering ([`xbrtime::collectives::plan::lower`]) and the
//! fabric executes nothing else, so there is no second executor for a
//! plan to be "equivalent" to; what every collective computes is checked
//! against dense references in `collectives_crosscheck`,
//! `allreduce_family`, `vcoll`, `backend_equiv`, `proptest_runtime` and
//! `zero_length`.

// The `..ProptestConfig::default()` spread is upstream proptest's
// canonical config idiom; the local shim happens to have no other
// fields, which trips needless_update.
#![allow(clippy::needless_update)]

use proptest::prelude::*;
use xbrtime::collectives::plan::{PlanCache, PlanCacheStats, PlanKey};
use xbrtime::collectives::policy::Algorithm;
use xbrtime::collectives::schedule::broadcast_binomial;
use xbrtime::collectives::{self, AllReduceAlgo};
use xbrtime::{CollectiveKind, EngineConfig, Fabric, FabricConfig, SyncMode, Topology};

const SYNCS: [SyncMode; 4] = [
    SyncMode::Auto,
    SyncMode::Barrier,
    SyncMode::Signaled,
    SyncMode::Pipelined,
];

/// Exact cache telemetry: each lookup is either a hit or a miss, and each
/// miss created one entry.
#[test]
fn cache_telemetry_is_exact() {
    let report = Fabric::run(FabricConfig::new(4), |pe| {
        let dest = pe.shared_malloc::<u64>(8);
        for _ in 0..5 {
            collectives::broadcast(pe, &dest, &[1, 2, 3, 4, 5, 6, 7, 8], 8, 1, 0);
        }
        pe.barrier();
    });
    let stats = report.plan_cache.expect("plan cache on by default");
    // 4 PEs x 5 episodes = 20 lookups of one key: 1 miss, 19 hits.
    assert_eq!(stats.misses, 1, "one distinct key");
    assert_eq!(stats.hits, 19, "all other lookups hit");
    assert_eq!(stats.entries, 1);
    assert!(stats.bytes > 0);
    assert!(stats.hit_rate() > 0.9);
}

/// 256 PEs concurrently issuing the same collective over the
/// work-stealing pool: the sharded counters must stay exact — no lost
/// updates, one miss per distinct key, every other lookup a hit.
#[test]
fn concurrent_issue_counters_exact_at_256_pes() {
    let n = 256usize;
    let rounds = 3u64;
    let report = Fabric::run(
        FabricConfig::paper(n)
            .with_shared_bytes(1 << 21)
            .with_engine(EngineConfig::coop().with_seed(7)),
        move |pe| {
            let dest = pe.shared_malloc::<u64>(4);
            for r in 0..rounds {
                collectives::broadcast(pe, &dest, &[r, r + 1, r + 2, r + 3], 4, 1, 0);
            }
            pe.barrier();
            pe.heap_read_vec::<u64>(dest.whole(), 4)
        },
    );
    for (rank, got) in report.results.iter().enumerate() {
        assert_eq!(
            got,
            &vec![rounds - 1, rounds, rounds + 1, rounds + 2],
            "rank {rank}"
        );
    }
    let stats = report.plan_cache.expect("plan cache on");
    let lookups = (n as u64) * rounds;
    assert_eq!(
        stats.hits + stats.misses,
        lookups,
        "every lookup counted exactly once"
    );
    assert_eq!(
        stats.misses, stats.entries,
        "each miss created exactly one entry"
    );
    assert_eq!(stats.entries, 1, "one distinct key across all PEs");
}

/// Two nonblocking collectives overlap: both are issued (in flight)
/// before either is completed, land in disjoint buffers, and both
/// produce correct results.
#[test]
fn two_collectives_overlap_in_flight() {
    for sync in SyncMode::CONCRETE {
        let report = Fabric::run(FabricConfig::new(8), move |pe| {
            let me = pe.rank() as u64;
            let d1 = pe.shared_malloc::<u64>(16);
            let src2 = pe.shared_malloc::<u64>(8);
            let vals: Vec<u64> = (0..8).map(|i| me + i).collect();
            pe.heap_write(src2.whole(), &vals);
            pe.barrier();

            // Issue both before waiting on either: >= 2 in flight.
            let bcast_src: Vec<u64> = (0..16u64).map(|i| i * 2 + 1).collect();
            let h1 = collectives::ixbroadcast(pe, &d1, &bcast_src, 16, 3, sync);
            let h2 = collectives::ixallreduce(
                pe,
                &src2,
                8,
                |a, b| a.wrapping_add(b),
                AllReduceAlgo::Auto,
                sync,
            );

            let mut sum = vec![0u64; 8];
            h2.wait_into(pe, &mut sum);
            h1.wait(pe);
            pe.barrier();
            (pe.heap_read_vec::<u64>(d1.whole(), 16), sum)
        });
        let n = 8u64;
        for (rank, (bc, sum)) in report.results.iter().enumerate() {
            let expect_bc: Vec<u64> = (0..16u64).map(|i| i * 2 + 1).collect();
            assert_eq!(bc, &expect_bc, "{sync:?} rank {rank} broadcast");
            // allreduce of me+i over me in 0..8: sum_me(me) + 8*i = 28 + 8i.
            let expect_sum: Vec<u64> = (0..8u64).map(|i| n * (n - 1) / 2 + n * i).collect();
            assert_eq!(sum, &expect_sum, "{sync:?} rank {rank} allreduce");
        }
    }
}

/// Regression: dropping a live `CollHandle` without `wait()` must drain
/// its in-flight steps and release its signal-slot window and episode
/// cursor. Before the `Drop` impl, the leaked reservation strided the
/// nonblocking cursor forward permanently, and ~16 further episodes
/// tripped the `OVERLAP_HEADROOM` slot-table assert.
#[test]
fn dropped_handle_releases_slots_and_cursor() {
    for sync in [SyncMode::Signaled, SyncMode::Pipelined] {
        let report = Fabric::run(FabricConfig::new(6), move |pe| {
            let me = pe.rank() as u64;
            let src = pe.shared_malloc::<u64>(8);
            let vals: Vec<u64> = (0..8).map(|i| me * 7 + i).collect();
            pe.heap_write(src.whole(), &vals);
            pe.barrier();

            // Two live collectives, abandoned on every PE. The broadcast
            // goes first so its shape sizes the slot table: a leaked
            // reservation would then consume exactly its own headroom
            // window across the same-shaped episodes below. The allreduce
            // additionally abandons a pending all-readout.
            let dest = pe.shared_malloc::<u64>(4);
            let h = collectives::ixbroadcast(pe, &dest, &[9u64, 9, 9, 9], 4, 0, sync);
            drop(h);
            let h = collectives::ixallreduce(
                pe,
                &src,
                8,
                |a, b| a.wrapping_add(b),
                AllReduceAlgo::Auto,
                sync,
            );
            drop(h);
            pe.barrier();

            // The cursor and slot table must be fully recycled: twice
            // OVERLAP_HEADROOM more same-shaped episodes, all correct.
            // With the reservations stranded, the striding cursor would
            // overrun the table sized at the first issue (the table
            // rounds its capacity to a power of two, hence 2x).
            let mut out = Vec::new();
            for ep in 0..32u64 {
                let bsrc = [ep * 4, ep * 4 + 1, ep * 4 + 2, ep * 4 + 3];
                collectives::ixbroadcast(pe, &dest, &bsrc, 4, (ep as usize) % 6, sync).wait(pe);
                pe.barrier();
                out.extend(pe.heap_read_vec::<u64>(dest.whole(), 4));
                pe.barrier();
            }
            out
        });
        for (rank, got) in report.results.iter().enumerate() {
            let expect: Vec<u64> = (0..32u64)
                .flat_map(|ep| (0..4u64).map(move |j| ep * 4 + j))
                .collect();
            assert_eq!(got, &expect, "{sync:?} rank {rank}");
        }
    }
}

/// Regression: hierarchical collectives once ran on a separate executor
/// that took the signal table at slot base 0, so a signaled hierarchical
/// broadcast issued while a same-rooted nonblocking handle was in flight
/// reused the handle's slots and deadlocked. Through the plan path they run above
/// the outstanding slot window like every other blocking collective.
#[test]
fn hierarchical_runs_above_in_flight_handle() {
    // A short watchdog turns the regression into a prompt Err, not a
    // minute-long hang; a healthy run finishes in milliseconds.
    let cfg = FabricConfig::new(6)
        .with_watchdog(std::time::Duration::from_secs(5))
        .with_topology(Topology {
            pes_per_node: 2,
            intra_node_factor: 0.25,
        });
    let result = Fabric::try_run(cfg, |pe| {
        let flat = pe.shared_malloc::<u64>(4);
        let hier: Vec<_> = (0..2).map(|_| pe.shared_malloc::<u64>(4)).collect();
        pe.barrier();
        let h = collectives::ixbroadcast(pe, &flat, &[1, 2, 3, 4], 4, 0, SyncMode::Signaled);
        for (dest, sync) in hier.iter().zip([SyncMode::Signaled, SyncMode::Pipelined]) {
            collectives::broadcast_hier(pe, dest, &[5, 6, 7, 8], 4, 0, sync);
        }
        h.wait(pe);
        pe.barrier();
        let mut out = pe.heap_read_vec::<u64>(flat.whole(), 4);
        for dest in &hier {
            out.extend(pe.heap_read_vec::<u64>(dest.whole(), 4));
        }
        out
    });
    let report = result.expect("hierarchical broadcast under an in-flight handle must not wedge");
    for (rank, got) in report.results.iter().enumerate() {
        assert_eq!(got, &[1, 2, 3, 4, 5, 6, 7, 8, 5, 6, 7, 8], "rank {rank}");
    }
}

/// Persistent handles re-issue the same compiled plan: one miss, then
/// hits for every subsequent start, with correct results each episode.
#[test]
fn persistent_reissue_hits_cache() {
    let report = Fabric::run(FabricConfig::new(4), |pe| {
        let dest = pe.shared_malloc::<u64>(4);
        let p = collectives::plan_create_broadcast(pe, &dest, 4, 2, SyncMode::Signaled);
        let mut out = Vec::new();
        for r in 0..4u64 {
            let src = [r * 10, r * 10 + 1, r * 10 + 2, r * 10 + 3];
            p.start(pe, &src).wait(pe);
            pe.barrier();
            out.extend(pe.heap_read_vec::<u64>(dest.whole(), 4));
            // Quiesce reads of `dest` before the next episode's root put.
            pe.barrier();
        }
        out
    });
    for (rank, got) in report.results.iter().enumerate() {
        let expect: Vec<u64> = (0..4u64)
            .flat_map(|r| (0..4u64).map(move |j| r * 10 + j))
            .collect();
        assert_eq!(got, &expect, "rank {rank}");
    }
    // plan_create compiles once per PE lookup; start() reuses the Arc and
    // never performs another lookup.
    let one_miss_then_hits = |stats: Option<PlanCacheStats>| {
        let stats = stats.expect("plan cache on");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3, "3 other PEs' plan_create lookups hit");
    };
    one_miss_then_hits(report.plan_cache);

    // The allreduce case: each start folds the *current* contents of the
    // bound `src` window.
    let report = Fabric::run(FabricConfig::new(4), |pe| {
        let me = pe.rank() as u64;
        let src = pe.shared_malloc::<u64>(4);
        let p = collectives::plan_create_allreduce(pe, &src, 4, SyncMode::Signaled);
        let mut out = Vec::new();
        for r in 0..3u64 {
            let mine: Vec<u64> = (0..4u64).map(|j| r * 100 + me * 10 + j).collect();
            pe.heap_write(src.whole(), &mine);
            pe.barrier();
            let mut sum = [0u64; 4];
            p.start(pe, u64::wrapping_add).wait_into(pe, &mut sum);
            out.extend(sum);
        }
        p.destroy(pe);
        out
    });
    for (rank, got) in report.results.iter().enumerate() {
        // Sum over me in 0..4 of r*100 + me*10 + j.
        let expect: Vec<u64> = (0..3u64)
            .flat_map(|r| (0..4u64).map(move |j| 4 * (r * 100 + j) + 60))
            .collect();
        assert_eq!(got, &expect, "allreduce rank {rank}");
    }
    one_miss_then_hits(report.plan_cache);
}

/// Regression: the resolved algorithm/sync choice is recorded where the
/// blocking and nonblocking routes meet, so a run that only issues
/// nonblocking or persistent collectives reports the same
/// `CollectiveRecord::{algorithms, sync_modes}` as its blocking twin.
/// Before, `Pe::note_choice` was only reached through
/// `plan::run_schedule` and every route below reported `[]` / `[]`.
#[test]
fn nonblocking_routes_record_their_choice() {
    type Choice = (Vec<&'static str>, Vec<&'static str>);
    fn choice(kind: CollectiveKind, body: impl Fn(&xbrtime::Pe) + Send + Sync) -> Choice {
        let report = Fabric::run(FabricConfig::new(4), body);
        let rec = report.collective(kind).expect("the collective ran");
        (rec.algorithms(), rec.sync_modes())
    }
    let sync = SyncMode::Signaled;
    let add = |a: u64, b: u64| a.wrapping_add(b);

    let blocking = choice(CollectiveKind::AllReduce, move |pe| {
        let src = pe.shared_malloc::<u64>(8);
        let mut d = [0u64; 8];
        collectives::reduce_all_with(pe, &mut d, &src, 8, add, AllReduceAlgo::Ring, sync);
    });
    let nonblocking = choice(CollectiveKind::AllReduce, move |pe| {
        let src = pe.shared_malloc::<u64>(8);
        let mut d = [0u64; 8];
        collectives::ixallreduce(pe, &src, 8, add, AllReduceAlgo::Ring, sync).wait_into(pe, &mut d);
    });
    assert_eq!(blocking, (vec!["ring"], vec!["signaled"]));
    assert_eq!(nonblocking, blocking, "ixallreduce");

    let binomial = (vec!["binomial"], vec!["signaled"]);
    let got = choice(CollectiveKind::Broadcast, move |pe| {
        let dest = pe.shared_malloc::<u64>(8);
        collectives::ixbroadcast(pe, &dest, &[7; 8], 8, 1, sync).wait(pe);
    });
    assert_eq!(got, binomial, "ixbroadcast");
    let got = choice(CollectiveKind::Reduce, move |pe| {
        let src = pe.shared_malloc::<u64>(8);
        let mut d = [0u64; 8];
        collectives::ixreduce(pe, &src, 8, 1, add, sync).wait_into(pe, &mut d);
    });
    assert_eq!(got, binomial, "ixreduce");
    let got = choice(CollectiveKind::Broadcast, move |pe| {
        let dest = pe.shared_malloc::<u64>(8);
        let p = collectives::plan_create_broadcast(pe, &dest, 8, 1, sync);
        p.start(pe, &[7; 8]).wait(pe);
    });
    assert_eq!(got, binomial, "PersistentBroadcast::start");
    let got = choice(CollectiveKind::AllReduce, move |pe| {
        let src = pe.shared_malloc::<u64>(8);
        let p = collectives::plan_create_allreduce(pe, &src, 8, sync);
        let mut d = [0u64; 8];
        p.start(pe, add).wait_into(pe, &mut d);
        p.destroy(pe);
    });
    assert_eq!(got, binomial, "PersistentAllReduce::start");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Cache-key determinism: looking up the same key twice returns the
    /// same shared plan (no rebuild); varying any shape axis produces a
    /// distinct entry.
    #[test]
    fn cache_keys_are_deterministic(
        n in 2usize..=16,
        nelems in 1usize..=64,
        root_i in 0usize..16,
        sync_i in 0usize..SYNCS.len(),
    ) {
        let root = root_i % n;
        let sync = SYNCS[sync_i];
        let cache = PlanCache::new();
        let key = PlanKey::rooted(
            CollectiveKind::Broadcast,
            Algorithm::Binomial,
            sync,
            n,
            root,
            nelems,
            1,
            8,
            0, // tag::rooted(Broadcast, Binomial)
        );
        let build = || {
            collectives::plan::lower(&broadcast_binomial(n, root, nelems, 1), sync, 8)
        };
        let a = cache.get_or_build(&key, build);
        let b = cache.get_or_build(&key, build);
        prop_assert!(std::sync::Arc::ptr_eq(&a, &b), "same key must share one plan");
        let s = cache.stats();
        prop_assert_eq!(s.misses, 1);
        prop_assert_eq!(s.hits, 1);

        // Perturb one axis at a time: each variant is a distinct entry.
        let mut variants = Vec::new();
        if n > 2 {
            variants.push(PlanKey::rooted(
                CollectiveKind::Broadcast, Algorithm::Binomial, sync,
                n - 1, root.min(n - 2), nelems, 1, 8, 0,
            ));
        }
        variants.push(PlanKey::rooted(
            CollectiveKind::Broadcast, Algorithm::Binomial, sync,
            n, root, nelems + 1, 1, 8, 0,
        ));
        variants.push(PlanKey::rooted(
            CollectiveKind::Broadcast, Algorithm::Binomial, sync,
            n, root, nelems, 1, 4, 0,
        ));
        for v in &variants {
            prop_assert!(v != &key, "perturbed key must differ");
            let p = cache.get_or_build(v, || {
                collectives::plan::lower(
                    &broadcast_binomial(v.n_pes, v.root, v.nelems, 1),
                    sync,
                    v.elem_bytes,
                )
            });
            prop_assert!(!std::sync::Arc::ptr_eq(&a, &p));
        }
        let s = cache.stats();
        prop_assert_eq!(s.entries, 1 + variants.len() as u64);
        prop_assert_eq!(s.misses, 1 + variants.len() as u64);
    }
}
