//! The host side of the noise protocol: CPU pinning, peak RSS, the
//! calibration loop and the environment block.

use std::time::Instant;

extern "C" {
    // Declared here rather than through a `libc` crate: std already links
    // the platform C library and the build is offline.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc `mallopt` parameters.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Pin glibc malloc's two self-adjusting thresholds where its own
/// heuristic ends up once a process has freed a few large blocks: serve
/// everything below 32 MiB from the heap and never trim it. Left dynamic,
/// whether a fabric's multi-megabyte zeroed heaps are fresh `mmap` pages
/// or recycled (and so memset, resident) heap depends on how early the
/// first large `free` happened, and `VmHWM` comes out bimodal run to run
/// (is_8pe 57 or 117 MB, coll_cold 89 or 93 MB). Pinned, host time and
/// set-up time read as in the default's common mode and `VmHWM` repeats
/// within 0.5 % (README, "Noise protocol").
pub fn steady_malloc() {
    // SAFETY: `mallopt` only records the two settings; it runs before any
    // other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_WORDS: usize = 16;

/// Pin the calling thread (and every thread it spawns afterwards) to the
/// highest CPU of its current affinity mask and return that CPU. Eight
/// cooperative PEs with one worker slot on one CPU never contend with each
/// other, which is what makes simulated cycles repeat and host time steady
/// on a two-core shared host (README, "Noise protocol").
pub fn pin_to_highest_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_WORDS];
    // SAFETY: `mask` is a valid, writable buffer of the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; CPU_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid buffer of the size passed; the kernel only
    // reads it.
    (unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0).then_some(cpu)
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed arithmetic loop, timed: nanoseconds for the fastest of five
/// passes. Taken before and after each workload; a changed reading flags a
/// disturbed run. It is detail only and never normalises another metric.
pub fn calib_ns() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..200_000u64 {
            x = std::hint::black_box(x ^ (x << 13)).wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ i;
        }
        std::hint::black_box(x);
        best = best.min(t0.elapsed().as_secs_f64() * 1e9);
    }
    best
}

/// The commit of the checkout the benchmark runs from, read from `.git`
/// directly (no `git` child process); `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| head.clone()),
        None => head,
    }
}

/// Where and how a run was taken.
pub struct Env {
    /// CPUs available before pinning.
    pub nproc: usize,
    /// The CPU the process pinned itself to, if pinning worked.
    pub pinned_cpu: Option<usize>,
    /// Workload seed.
    pub seed: u64,
}

impl Env {
    /// Record the parallelism, then pin.
    pub fn capture_and_pin(seed: u64) -> Env {
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        Env {
            nproc,
            pinned_cpu: pin_to_highest_cpu(),
            seed,
        }
    }

    /// The environment block printed at the top of every report.
    pub fn render(&self) -> String {
        format!(
            "# env: nproc={} pinned_cpu={} rustc=\"{}\" commit={} seed={}",
            self.nproc,
            self.pinned_cpu
                .map_or_else(|| "none".to_string(), |c| c.to_string()),
            env!("PERFBENCH_RUSTC"),
            git_commit(),
            self.seed
        )
    }
}
