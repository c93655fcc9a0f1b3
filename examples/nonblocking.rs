//! Nonblocking collectives riding the compiled-plan layer: issue a
//! broadcast and an all-reduce back-to-back, overlap them in flight,
//! then re-issue a fixed-shape broadcast through a persistent handle
//! (the `MPI_Bcast_init` idea) and read the plan-cache telemetry.
//!
//! ```sh
//! cargo run --release --example nonblocking
//! ```

use xbgas::xbrtime::collectives::{self, AllReduceAlgo, SyncMode};
use xbgas::xbrtime::{Fabric, FabricConfig};

fn main() {
    let report = Fabric::run(FabricConfig::new(8), |pe| {
        let bc = pe.shared_malloc::<u64>(16);
        let sum = pe.shared_malloc::<u64>(1);
        pe.heap_store(sum.whole(), pe.rank() as u64);
        pe.barrier();

        // Issue a broadcast and an all-reduce back-to-back; both are
        // now in flight. `test` polls without consuming; `wait` drains.
        let payload = [7u64; 16];
        let h1 = collectives::ixbroadcast(pe, &bc, &payload, 16, 0, SyncMode::Auto);
        let h2 = collectives::ixallreduce(
            pe,
            &sum,
            1,
            |a, b| a + b,
            AllReduceAlgo::Auto,
            SyncMode::Auto,
        );

        let mut total = [0u64];
        h2.wait_into(pe, &mut total); // 0 + 1 + ... + 7 = 28
        h1.wait(pe); // bc now holds the payload everywhere
        assert_eq!(pe.heap_load(bc.whole()), 7);
        // Puts are one-sided: quiesce reads of `bc` before anyone
        // re-uses it as the persistent broadcast's destination.
        pe.barrier();

        // Fixed-shape iteration: one cache lookup at creation, zero per
        // re-issue.
        let p = collectives::plan_create_broadcast(pe, &bc, 16, 0, SyncMode::Auto);
        for round in 0..4u64 {
            let epoch = [round; 16];
            p.start(pe, &epoch).wait(pe);
            assert_eq!(pe.heap_load(bc.whole()), round);
            pe.barrier(); // quiesce reads before the next root put
        }
        total[0]
    });
    assert!(report.results.iter().all(|&t| t == 28));

    let stats = report.plan_cache.expect("plan cache on by default");
    println!("all-reduce total on every PE: 28");
    println!(
        "plan cache: {} hits / {} misses over {} plans ({} bytes), hit rate {:.0}%",
        stats.hits,
        stats.misses,
        stats.entries,
        stats.bytes,
        stats.hit_rate() * 100.0
    );
}
