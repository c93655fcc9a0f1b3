//! The plan cache and the nonblocking collectives built on it:
//! cache-key determinism (same key ⇒ one shared plan, and over arbitrary
//! [`Row`]s same key ⇒ same schedule, any one field changed ⇒ distinct
//! key), a pinned digest of every row's lowered plan, exact hit/miss
//! telemetry — including concurrent
//! issue at 256 PEs under the cooperative engine — nonblocking overlap
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

use std::fmt::Write;

use proptest::prelude::*;
use xbrtime::collectives::plan::{lower, Plan, PlanCache, PlanCacheStats};
use xbrtime::collectives::policy::Algorithm;
use xbrtime::collectives::scatter::adjusted_displacements;
use xbrtime::collectives::schedule::{Payload, Row, Shape};
use xbrtime::collectives::{self, AllGatherVAlgo, AllReduceAlgo};
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
/// cooperative engine: the sharded counters must stay exact — no lost
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

const TREES: [Algorithm; 3] = [Algorithm::Binomial, Algorithm::Linear, Algorithm::Ring];

/// A [`Row`] with its tables owned, so a test can draw one from integers
/// and change one field at a time. `family` picks between a shape's two
/// families, `algo` indexes its algorithm enum, `table` is a count per
/// rank (made a displacement table where the shape wants one).
#[derive(Clone, Debug)]
struct RowSpec {
    /// 0 rooted/whole, 1 rooted/ranges, 2 all-gather, 3 all-reduce,
    /// 4 all-to-all, 5 two-tier.
    shape: usize,
    family: usize,
    algo: usize,
    root: usize,
    nelems: usize,
    stride: usize,
    pes_per_node: usize,
    table: Vec<usize>,
    members: Option<Vec<usize>>,
    world: usize,
}

impl RowSpec {
    fn n(&self) -> usize {
        self.members.as_ref().map_or(self.world, Vec::len)
    }

    /// The row, and the kind its family reports as. `adj` is scratch for
    /// the displacement table a ranges row borrows.
    fn row<'a>(&'a self, adj: &'a mut Vec<usize>) -> (CollectiveKind, Row<'a>) {
        let (root, nelems, stride) = (self.root, self.nelems, self.stride);
        let algo = TREES[self.algo % 3];
        let (kind, shape) = match self.shape {
            0 => {
                let family = CollectiveKind::ALL[self.family];
                let payload = Payload::Whole { nelems, stride };
                let shape = Shape::Rooted {
                    family,
                    algo,
                    root,
                    payload,
                };
                (family, shape)
            }
            1 => {
                let family = CollectiveKind::ALL[2 + self.family];
                *adj = adjusted_displacements(&self.table, root, self.n());
                let payload = Payload::Ranges(adj);
                let shape = Shape::Rooted {
                    family,
                    algo,
                    root,
                    payload,
                };
                (family, shape)
            }
            2 => {
                let algo = AllGatherVAlgo::CONCRETE[self.algo % 3];
                let counts = &self.table[..];
                (CollectiveKind::AllGather, Shape::AllGather { algo, counts })
            }
            3 => {
                let algo = AllReduceAlgo::CONCRETE[self.algo];
                (CollectiveKind::AllReduce, Shape::AllReduce { algo, nelems })
            }
            4 => (CollectiveKind::AllToAll, Shape::AllToAll { per_pe: nelems }),
            _ => {
                let family = CollectiveKind::ALL[self.family];
                let pes_per_node = self.pes_per_node;
                let shape = Shape::Hier {
                    family,
                    pes_per_node,
                    root,
                    nelems,
                };
                (family, shape)
            }
        };
        let row = Row {
            shape,
            members: self.members.as_deref(),
            world: self.world,
        };
        (kind, row)
    }

    /// Everything a key is made from, and the schedule it stands for.
    fn key_and_schedule(&self, sync: SyncMode, elem_bytes: usize) -> (String, String) {
        let mut adj = Vec::new();
        let (kind, row) = self.row(&mut adj);
        row.check();
        let key = row.key(kind, sync, elem_bytes);
        (format!("{key:?}"), format!("{:?}", row.schedule()))
    }

    /// This row with field `which` changed (and nothing else), or `None`
    /// where the shape has no such field.
    fn with_one_change(&self, which: usize) -> Option<RowSpec> {
        let mut s = self.clone();
        let reads_table = matches!(self.shape, 1 | 2);
        match which {
            0 if self.shape < 4 => s.algo = (s.algo + 1) % if self.shape == 3 { 4 } else { 3 },
            1 if matches!(self.shape, 0 | 1 | 5) && self.n() > 1 => {
                s.root = (s.root + 1) % self.n();
            }
            2 if reads_table => s.table[self.root] += 1,
            3 if !reads_table => s.nelems += 1,
            4 if self.shape == 0 => s.stride += 1,
            5 if self.shape == 5 => s.pes_per_node += 1,
            6 if matches!(self.shape, 0 | 1 | 5) => s.family = 1 - s.family,
            // One member swapped for a PE outside the list.
            7 if self.members.is_some() => {
                let members = s.members.as_mut().unwrap();
                let spare = (0..self.world).find(|pe| !members.contains(pe))?;
                members[0] = spare;
            }
            // The same ranks, one more PE in the world around them.
            8 if self.members.is_some() || !reads_table => s.world += 1,
            _ => return None,
        }
        // A growing world changes the rank count under a table.
        (s.table.len() == s.n() || !reads_table).then_some(s)
    }
}

/// Rows small enough that two independent draws are often the same row,
/// and often differ in exactly one place.
fn row_spec() -> impl Strategy<Value = RowSpec> {
    // 48 is a multiple of every field's range, so each stays uniform.
    proptest::collection::vec(0usize..48, 13..14).prop_map(|draw| {
        let (shape, world, team) = (draw[0] % 6, 1 + draw[1] % 4, draw[2] % 16);
        // Bit `pe` of `team` picks PE `pe`; an empty pick is the world.
        let picked: Vec<usize> = (0..world).filter(|pe| team >> pe & 1 == 1).collect();
        let members = (!picked.is_empty() && draw[3] % 3 != 0).then_some(picked);
        let n = members.as_ref().map_or(world, Vec::len);
        RowSpec {
            shape,
            family: draw[4] % 2,
            algo: draw[5] % if shape == 3 { 4 } else { 3 },
            root: draw[6] % n,
            nelems: draw[7] % 3,
            stride: 1 + draw[8] % 2,
            pes_per_node: 1 + draw[8] / 2 % 2,
            table: draw[9..9 + n].iter().map(|d| d % 3).collect(),
            members,
            world,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Cache-key determinism: looking up the same key twice returns the
    /// same shared plan (no rebuild), and keys are injective by
    /// construction — over arbitrary rows of all five shapes, with and
    /// without a member list, equal keys mean equal schedules, and a row
    /// differing in any single field (algorithm, root, one table entry,
    /// element count, stride, node size, family, one member, world size,
    /// element size, sync mode) has a different key and its own entry.
    #[test]
    fn cache_keys_are_deterministic(
        a in row_spec(),
        b in row_spec(),
        sync_i in 0usize..SYNCS.len(),
        wide in 0usize..2,
    ) {
        let (sync, elem_bytes) = (SYNCS[sync_i], 4 << wide);
        let (key_a, sched_a) = a.key_and_schedule(sync, elem_bytes);
        let (key_b, sched_b) = b.key_and_schedule(sync, elem_bytes);
        prop_assert!(key_a != key_b || sched_a == sched_b, "{a:?} and {b:?} share {key_a}");

        let cache = PlanCache::new();
        let lookup = |spec: &RowSpec, sync, elem_bytes| {
            let mut adj = Vec::new();
            let (kind, row) = spec.row(&mut adj);
            let key = row.key(kind, sync, elem_bytes);
            cache.get_or_build(&key, || lower(&row.schedule(), sync, elem_bytes))
        };
        let first = lookup(&a, sync, elem_bytes);
        let again = lookup(&a, sync, elem_bytes);
        prop_assert!(std::sync::Arc::ptr_eq(&first, &again), "same key must share one plan");

        // Perturb one axis at a time: each variant is a distinct entry.
        let mut distinct = 1;
        let mut differs = |key: String, what: &str| {
            distinct += 1;
            assert!(key != key_a, "{what} changed, key did not: {a:?}");
        };
        for which in 0..9 {
            if let Some(changed) = a.with_one_change(which) {
                differs(changed.key_and_schedule(sync, elem_bytes).0, "one field");
                lookup(&changed, sync, elem_bytes);
            }
        }
        differs(a.key_and_schedule(sync, 12 - elem_bytes).0, "element size");
        lookup(&a, sync, 12 - elem_bytes);
        differs(a.key_and_schedule(SYNCS[(sync_i + 1) % 4], elem_bytes).0, "sync mode");
        lookup(&a, SYNCS[(sync_i + 1) % 4], elem_bytes);
        let s = cache.stats();
        prop_assert_eq!((s.entries, s.misses, s.hits), (distinct, distinct, 1));
    }
}

/// FNV-1a over everything written to it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// "Same plans", committed: one digest over `{plan:?}` of every row shape
/// lowered over a grid of world sizes, roots, sync modes, element sizes
/// and payloads — uniform, empty, the ragged `i % 3` tables, a 3-of-8
/// team, three PEs to a node. The plans were first pinned at commit
/// b1bdfa3, before `Row` existed, from that commit's own entry points
/// (`rooted_schedule`, its two symmetric algorithm → generator tables,
/// `all_to_all_sched`, `Team::{broadcast,reduce}_schedule`,
/// `{broadcast,reduce}_hier_sched`) over this same grid in this same
/// order, as `0x5d82_5d92_909b_095f`. The constant moved once since, when
/// `Plan` gained its `lead` field: the digest with `, lead: N` cut from
/// each plan's text still reads b1bdfa3's value, and the 90 team plans
/// carry `lead: 1`. A refactor of the generators, the row table or the
/// lowering that keeps it has changed no plan, and one that means to
/// change plans says so by changing it.
#[test]
fn lowered_plan_digests_are_pinned() {
    const PINNED: u64 = 0x1719_cc76_10f9_2fc7;
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut plans = 0;
    for n in [1usize, 2, 3, 5, 8, 16] {
        for root in [0, n - 1] {
            for sync in SyncMode::CONCRETE {
                for elem_bytes in [4usize, 8] {
                    let mut emit = |shape: Shape<'_>, members: Option<&[usize]>, kind| {
                        let row = Row {
                            shape,
                            members,
                            world: n,
                        };
                        let plan = Plan {
                            kind,
                            algo: Some(row.key(kind, sync, elem_bytes).algo),
                            lead: members.map_or(0, |m| m[0]),
                            ..lower(&row.schedule(), sync, elem_bytes)
                        };
                        write!(digest, "{plan:?}").unwrap();
                        plans += 1;
                    };
                    // Size 2 stands for the ragged `i % 3` tables.
                    for size in [0usize, 1, 3, 1024, 65_536, 2] {
                        let ragged = size == 2;
                        let counts: Vec<usize> = match ragged {
                            true => (0..n).map(|i| i % 3).collect(),
                            false => vec![size; n],
                        };
                        let adj = adjusted_displacements(&counts, root, n);
                        let whole = Payload::Whole {
                            nelems: size,
                            stride: 1 + size % 2,
                        };
                        let tree = |family, algo, payload| Shape::Rooted {
                            family,
                            algo,
                            root,
                            payload,
                        };
                        for algo in TREES {
                            for family in &CollectiveKind::ALL[..2] {
                                if !ragged {
                                    emit(tree(*family, algo, whole), None, *family);
                                }
                            }
                            for family in &CollectiveKind::ALL[2..4] {
                                let ranges = Payload::Ranges(&adj);
                                emit(tree(*family, algo, ranges), None, *family);
                            }
                        }
                        if root == 0 {
                            for algo in AllGatherVAlgo::CONCRETE {
                                let counts = &counts[..];
                                let shape = Shape::AllGather { algo, counts };
                                emit(shape, None, CollectiveKind::AllGather);
                            }
                        }
                        if ragged {
                            continue;
                        }
                        if root == 0 {
                            for algo in AllReduceAlgo::CONCRETE {
                                let shape = Shape::AllReduce { algo, nelems: size };
                                emit(shape, None, CollectiveKind::AllReduce);
                            }
                            let shape = Shape::AllToAll { per_pe: size };
                            emit(shape, None, CollectiveKind::AllToAll);
                        }
                        for family in &CollectiveKind::ALL[..2] {
                            let shape = Shape::Hier {
                                family: *family,
                                pes_per_node: 3,
                                root,
                                nelems: size,
                            };
                            emit(shape, None, *family);
                        }
                        if n == 8 {
                            let (team, flat) = (Some(&[1, 4, 6][..]), Algorithm::Binomial);
                            let whole = Payload::Whole {
                                nelems: size,
                                stride: 1,
                            };
                            let on_team = |family, root| Shape::Rooted {
                                family,
                                algo: flat,
                                root,
                                payload: whole,
                            };
                            let family = CollectiveKind::Broadcast;
                            emit(on_team(family, root.min(2)), team, family);
                            if root == 0 {
                                // A team reduction is half an all-reduce.
                                let shape = on_team(CollectiveKind::Reduce, 0);
                                emit(shape, team, CollectiveKind::AllReduce);
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(plans, 7368, "the grid itself moved");
    assert_eq!(
        digest.0, PINNED,
        "a lowered plan differs from the pinned one: got {:#018x}",
        digest.0
    );
}
