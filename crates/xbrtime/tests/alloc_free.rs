//! Warm plan execution allocates nothing (DESIGN §8): heap-to-heap
//! transfers copy directly, folds combine in place over the heap window,
//! and the landing buffer's box is recycled, not rebuilt, every episode.
//!
//! A file of its own because it installs a counting `#[global_allocator]`,
//! which every test in the same binary would share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xbrtime::collectives::schedule::{broadcast_binomial, reduce_binomial};
use xbrtime::collectives::{execute_plan, lower};
use xbrtime::{EngineConfig, Fabric, FabricConfig, SyncMode};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N_PES: usize = 8;
const WARM_UP: usize = 3;
const EPISODES: usize = 10;

#[test]
fn warm_plan_execution_does_not_allocate() {
    let fold = |a: u64, b: u64| a.wrapping_add(b);
    for nelems in [16usize, 32_768] {
        for (name, sched) in [
            ("broadcast", broadcast_binomial(N_PES, 0, nelems, 1)),
            ("reduce", reduce_binomial(N_PES, 0, nelems, 1)),
        ] {
            for sync in SyncMode::CONCRETE {
                let plan = lower(&sched, sync, std::mem::size_of::<u64>());
                let config =
                    FabricConfig::new(N_PES).with_engine(EngineConfig::coop().with_workers(1));
                let report = Fabric::run(config, |pe| {
                    let buf = pe.shared_malloc::<u64>(nelems);
                    pe.heap_write(buf.whole(), &vec![pe.rank() as u64 + 1; nelems]);
                    let episodes = |n: usize| {
                        for _ in 0..n {
                            execute_plan(pe, &plan, buf.whole(), &[], &mut [], Some(&fold));
                        }
                        pe.barrier();
                    };
                    episodes(WARM_UP);
                    let before = ALLOCATIONS.load(Ordering::Relaxed);
                    episodes(EPISODES);
                    (before, ALLOCATIONS.load(Ordering::Relaxed))
                });
                // Every PE's episodes lie between the earliest `before`
                // and the latest `after`.
                let first = report.results.iter().map(|r| r.0).min().unwrap();
                let last = report.results.iter().map(|r| r.1).max().unwrap();
                let per_episode = (last - first) as f64 / EPISODES as f64;
                assert!(
                    per_episode < 1.0,
                    "{name} × {} × {nelems} u64: {per_episode} allocations per warm episode",
                    sync.name()
                );
            }
        }
    }
}
