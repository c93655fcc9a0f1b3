//! §4.7-style comparison sweep: binomial tree vs linear vs ring across
//! message sizes and PE counts, with a crossover report and the
//! `AlgorithmPolicy::Auto` evidence cells.
//!
//! The paper's design discussion (§4.1–4.2) argues that "there is no
//! universally optimal solution": tree algorithms win at small transaction
//! sizes where latency dominates, and state-of-the-art libraries switch
//! algorithms at runtime. This sweep regenerates that evidence for our
//! cost model, and checks that the library's `Auto` policy actually tracks
//! the per-cell winner. Pass `--json` to print the machine-readable report
//! to stdout; the same report is always written to `BENCH_sweep.json` so
//! future changes can track the perf trajectory.
//!
//! Engine flags:
//!
//! - `--backend {threads,coop}` runs every fabric in the sweep on the
//!   chosen execution engine (default: thread-per-PE).
//! - `--large` extends the sweep to n_pes ∈ {64, 256, 1024, 4096} —
//!   broadcast (`Auto`/`Auto`) and all-reduce cells plus the ring-vs-tree
//!   chain-cap calibration rows — and records them under `large` in
//!   `BENCH_sweep.json`, each row tagged with its backend. Only the
//!   cooperative engine makes these PE counts practical on a small host.
//! - `--coop-smoke` runs the CI gate instead of the sweep: 256 PEs on the
//!   cooperative backend, broadcast/reduce/allreduce under every concrete
//!   sync mode, required to converge with verified buffers and zero
//!   deadlock reports.

use std::time::Duration;
use xbgas_bench::json::{to_string_pretty, Json, ToJson};
use xbgas_bench::{
    ablation_allreduce, backend_arg, export_trace, issue_rate, sweep_all_gather, sweep_allreduce,
    sweep_broadcast, sweep_gather, sweep_reduce, sweep_scatter, trace_arg, traced_broadcast,
    SweepPoint,
};
use xbrtime::collectives::{self, policy, AllGatherVAlgo, AllReduceAlgo};
use xbrtime::traffic::{run_traffic, TrafficConfig};
use xbrtime::{
    Algorithm, AlgorithmPolicy, CollectiveKind, EngineConfig, Fabric, FabricConfig, FaultConfig,
    ReduceOp, RunError, SyncMode,
};

/// `Auto` vs always-binomial on one sweep cell.
struct PolicyCell {
    n_pes: usize,
    nelems: usize,
    auto_cycles: u64,
    binomial_cycles: u64,
}

impl PolicyCell {
    fn auto_wins(&self) -> bool {
        self.auto_cycles < self.binomial_cycles
    }
}

impl ToJson for PolicyCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n_pes", self.n_pes.to_json()),
            ("nelems", self.nelems.to_json()),
            ("auto_cycles", self.auto_cycles.to_json()),
            ("binomial_cycles", self.binomial_cycles.to_json()),
            ("auto_wins", self.auto_wins().to_json()),
        ])
    }
}

/// One executor sync-mode cell: barrier vs signaled vs pipelined vs
/// `SyncMode::Auto` on the same collective, PE count and payload.
struct SyncCell {
    collective: &'static str,
    n_pes: usize,
    nelems: usize,
    barrier_cycles: u64,
    signaled_cycles: u64,
    pipelined_cycles: u64,
    auto_cycles: u64,
}

/// Queue-occupancy noise tolerance for makespan comparisons (the fabric's
/// M/M/1 wait term makes repeated runs jitter by a couple percent).
const SYNC_TOLERANCE: f64 = 1.05;

impl SyncCell {
    fn measure(
        engine: EngineConfig,
        collective: &'static str,
        n_pes: usize,
        nelems: usize,
    ) -> SyncCell {
        let run = |sync| match collective {
            "broadcast" => {
                sweep_broadcast(engine, AlgorithmPolicy::Auto, sync, true, n_pes, nelems)
            }
            _ => sweep_reduce(engine, AlgorithmPolicy::Binomial, sync, true, n_pes, nelems),
        };
        SyncCell {
            collective,
            n_pes,
            nelems,
            barrier_cycles: run(SyncMode::Barrier),
            signaled_cycles: run(SyncMode::Signaled),
            pipelined_cycles: run(SyncMode::Pipelined),
            auto_cycles: run(SyncMode::Auto),
        }
    }

    fn best_fixed(&self) -> u64 {
        self.barrier_cycles
            .min(self.signaled_cycles)
            .min(self.pipelined_cycles)
    }

    fn winner(&self) -> &'static str {
        let best = self.best_fixed();
        if best == self.barrier_cycles {
            "barrier"
        } else if best == self.signaled_cycles {
            "signaled"
        } else {
            "pipelined"
        }
    }

    /// The smoke gate: `Auto` must not lose to always-barrier on any cell
    /// beyond measurement noise.
    fn auto_ok(&self) -> bool {
        (self.auto_cycles as f64) <= self.barrier_cycles as f64 * SYNC_TOLERANCE
    }

    /// `Auto` also has to track the best fixed mode, not merely tie the
    /// baseline — this is what the JSON report records per cell.
    fn auto_tracks_winner(&self) -> bool {
        (self.auto_cycles as f64) <= self.best_fixed() as f64 * SYNC_TOLERANCE
    }
}

impl ToJson for SyncCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("collective", Json::Str(self.collective.into())),
            ("n_pes", self.n_pes.to_json()),
            ("nelems", self.nelems.to_json()),
            ("barrier_cycles", self.barrier_cycles.to_json()),
            ("signaled_cycles", self.signaled_cycles.to_json()),
            ("pipelined_cycles", self.pipelined_cycles.to_json()),
            ("auto_cycles", self.auto_cycles.to_json()),
            ("winner", Json::Str(self.winner().into())),
            ("auto_tracks_winner", self.auto_tracks_winner().to_json()),
            ("auto_beats_always_barrier", self.auto_ok().to_json()),
        ])
    }
}

/// One allreduce-family cell: every member of the algorithm family on
/// the same PE count and payload, under `SyncMode::Auto`. The measured
/// evidence behind `policy::auto_select_allreduce`'s crossovers, and the
/// CI gate that `AllReduceAlgo::Auto` never loses to the historical
/// always-reduce-then-broadcast default.
struct AllReduceCell {
    n_pes: usize,
    nelems: usize,
    reduce_bcast_cycles: u64,
    rec_doubling_cycles: u64,
    rabenseifner_cycles: u64,
    ring_cycles: u64,
    auto_cycles: u64,
}

impl AllReduceCell {
    fn measure(engine: EngineConfig, n_pes: usize, nelems: usize) -> AllReduceCell {
        eprintln!("allreduce family: n_pes={n_pes} nelems={nelems}");
        // Min-of-three per arm: the same discipline the issue-rate cells
        // use, because the M/M/1 queue-occupancy term jitters repeated
        // runs by a few percent — enough to fake a crossover.
        let run = |algo| {
            (0..3)
                .map(|_| sweep_allreduce(engine, algo, SyncMode::Auto, n_pes, nelems))
                .min()
                .expect("three samples")
        };
        AllReduceCell {
            n_pes,
            nelems,
            reduce_bcast_cycles: run(AllReduceAlgo::ReduceThenBroadcast),
            rec_doubling_cycles: run(AllReduceAlgo::RecursiveDoubling),
            rabenseifner_cycles: run(AllReduceAlgo::Rabenseifner),
            ring_cycles: run(AllReduceAlgo::Ring),
            auto_cycles: run(AllReduceAlgo::Auto),
        }
    }

    fn best_fixed(&self) -> u64 {
        self.reduce_bcast_cycles
            .min(self.rec_doubling_cycles)
            .min(self.rabenseifner_cycles)
            .min(self.ring_cycles)
    }

    fn winner(&self) -> &'static str {
        let best = self.best_fixed();
        if best == self.rec_doubling_cycles {
            "recursive-doubling"
        } else if best == self.rabenseifner_cycles {
            "rabenseifner"
        } else if best == self.ring_cycles {
            "ring"
        } else {
            "reduce+bcast"
        }
    }

    /// What `AllReduceAlgo::Auto` resolves to on this cell — a pure
    /// function of (n_pes, payload bytes), so no extra measurement.
    fn auto_pick(&self) -> AllReduceAlgo {
        AllReduceAlgo::Auto.resolve(self.n_pes, self.nelems * 8)
    }

    fn cycles_of(&self, algo: AllReduceAlgo) -> u64 {
        match algo {
            AllReduceAlgo::ReduceThenBroadcast => self.reduce_bcast_cycles,
            AllReduceAlgo::RecursiveDoubling => self.rec_doubling_cycles,
            AllReduceAlgo::Rabenseifner => self.rabenseifner_cycles,
            AllReduceAlgo::Ring => self.ring_cycles,
            AllReduceAlgo::Auto => self.auto_cycles,
        }
    }

    /// The CI gate: `Auto` must never lose to always-reduce-then-broadcast
    /// beyond measurement noise.
    fn auto_beats_reduce_bcast(&self) -> bool {
        (self.auto_cycles as f64) <= self.reduce_bcast_cycles as f64 * SYNC_TOLERANCE
    }

    /// `Auto` also has to select a family member that tracks the best
    /// one per cell. Judged on the resolved arm's own measurement (the
    /// resolution is deterministic), so the check compares algorithms,
    /// not two noisy runs of the same schedule.
    fn auto_tracks_winner(&self) -> bool {
        (self.cycles_of(self.auto_pick()) as f64) <= self.best_fixed() as f64 * SYNC_TOLERANCE
    }
}

impl ToJson for AllReduceCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n_pes", self.n_pes.to_json()),
            ("nelems", self.nelems.to_json()),
            ("reduce_bcast_cycles", self.reduce_bcast_cycles.to_json()),
            ("rec_doubling_cycles", self.rec_doubling_cycles.to_json()),
            ("rabenseifner_cycles", self.rabenseifner_cycles.to_json()),
            ("ring_cycles", self.ring_cycles.to_json()),
            ("auto_cycles", self.auto_cycles.to_json()),
            ("winner", Json::Str(self.winner().into())),
            (
                "auto_resolves_to",
                Json::Str(self.auto_pick().name().into()),
            ),
            ("auto_tracks_winner", self.auto_tracks_winner().to_json()),
            (
                "auto_beats_reduce_bcast",
                self.auto_beats_reduce_bcast().to_json(),
            ),
        ])
    }
}

/// One allgather cell: the one-stage n² fan against the log-stage
/// dissemination schedule, plus `AllGatherVAlgo::Auto` — the evidence
/// behind `policy::auto_select_all_gather`'s PE-count crossover.
struct AllGatherCell {
    n_pes: usize,
    per_pe: usize,
    fan_cycles: u64,
    doubling_cycles: u64,
    auto_cycles: u64,
}

impl AllGatherCell {
    fn measure(engine: EngineConfig, n_pes: usize, per_pe: usize) -> AllGatherCell {
        eprintln!("allgather: n_pes={n_pes} per_pe={per_pe}");
        // Min-of-three per arm, as in [`AllReduceCell::measure`].
        let run = |algo| {
            (0..3)
                .map(|_| sweep_all_gather(engine, algo, SyncMode::Auto, n_pes, per_pe))
                .min()
                .expect("three samples")
        };
        AllGatherCell {
            n_pes,
            per_pe,
            fan_cycles: run(AllGatherVAlgo::Fan),
            doubling_cycles: run(AllGatherVAlgo::Dissemination),
            auto_cycles: run(AllGatherVAlgo::Auto),
        }
    }

    fn winner(&self) -> &'static str {
        if self.doubling_cycles < self.fan_cycles {
            "dissemination"
        } else {
            "fan"
        }
    }

    /// What the uniform `all_gather`'s `Auto` resolves to on this cell
    /// (pure function of the cell shape, as in
    /// [`AllReduceCell::auto_pick`]).
    fn auto_pick(&self) -> AllGatherVAlgo {
        policy::auto_select_all_gather(self.n_pes, self.per_pe * 8)
    }

    fn auto_tracks_winner(&self) -> bool {
        let picked = match self.auto_pick() {
            AllGatherVAlgo::Fan => self.fan_cycles,
            _ => self.doubling_cycles,
        };
        let best = self.fan_cycles.min(self.doubling_cycles);
        (picked as f64) <= best as f64 * SYNC_TOLERANCE
    }
}

impl ToJson for AllGatherCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n_pes", self.n_pes.to_json()),
            ("per_pe", self.per_pe.to_json()),
            ("fan_cycles", self.fan_cycles.to_json()),
            ("doubling_cycles", self.doubling_cycles.to_json()),
            ("auto_cycles", self.auto_cycles.to_json()),
            ("winner", Json::Str(self.winner().into())),
            (
                "auto_resolves_to",
                Json::Str(self.auto_pick().name().into()),
            ),
            ("auto_tracks_winner", self.auto_tracks_winner().to_json()),
        ])
    }
}

/// Chaos p999 must stay within this factor of the fault-free p999 for
/// every tenant (the same bound `xbench_traffic --smoke` gates on).
const TRAFFIC_CHAOS_P999_FACTOR: u64 = 16;

/// One traffic-plane row: a tenant's completion-cycle percentile profile
/// from the multi-tenant harness, fault-free and under seeded chaos
/// delays on the same seed and shape.
struct TrafficCell {
    tenant: usize,
    pes: usize,
    ops: usize,
    bytes: u64,
    p50: u64,
    p99: u64,
    p999: u64,
    chaos_p999: u64,
    efficiency: f64,
}

impl TrafficCell {
    /// The per-tenant half of the `p999_under_chaos_bounded` gate.
    fn chaos_bounded(&self) -> bool {
        self.chaos_p999 <= self.p999.max(1) * TRAFFIC_CHAOS_P999_FACTOR
    }
}

impl ToJson for TrafficCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("tenant", self.tenant.to_json()),
            ("pes", self.pes.to_json()),
            ("ops", self.ops.to_json()),
            ("bytes", self.bytes.to_json()),
            ("p50", self.p50.to_json()),
            ("p99", self.p99.to_json()),
            ("p999", self.p999.to_json()),
            ("chaos_p999", self.chaos_p999.to_json()),
            ("efficiency", self.efficiency.to_json()),
            ("chaos_bounded", self.chaos_bounded().to_json()),
        ])
    }
}

/// Multi-tenant traffic rows: 4 tenants of irregular collectives over 16
/// PEs, fault-free and replayed under seeded chaos delays. Returns the
/// per-tenant cells and the fault-free fairness figure.
fn traffic_sweep(engine: EngineConfig) -> (Vec<TrafficCell>, f64) {
    eprintln!("traffic: 4 tenants x 12 ops on 16 PEs");
    let cfg = TrafficConfig {
        tenants: 4,
        ops_per_tenant: 12,
        palette: 4,
        max_block: 32,
        seed: 0x7EA,
        sync: SyncMode::Signaled,
    };
    let fab = |chaos: Option<u64>| {
        let mut f = FabricConfig::paper(16)
            .with_watchdog(Duration::from_secs(60))
            .with_engine(engine);
        if let Some(seed) = chaos {
            f = f.with_faults(FaultConfig::delays(seed));
        }
        f
    };
    let clean = run_traffic(fab(None), &cfg).expect("fault-free traffic run");
    let chaos = run_traffic(fab(Some(0xC0FFEE)), &cfg).expect("chaos-delay traffic run");
    let cells = clean
        .tenants
        .iter()
        .zip(&chaos.tenants)
        .map(|(c, x)| TrafficCell {
            tenant: c.tenant,
            pes: c.pes,
            ops: c.ops,
            bytes: c.bytes,
            p50: c.p50,
            p99: c.p99,
            p999: c.p999,
            chaos_p999: x.p999,
            efficiency: c.efficiency,
        })
        .collect();
    (cells, clean.fairness)
}

/// Smallest swept payload (bytes) at which a point-to-point mode strictly
/// beats the per-stage-barrier executor for a PE count, if any — the
/// crossover `SyncMode::Auto`'s constants are calibrated against.
fn sync_crossover_bytes(cells: &[SyncCell], collective: &str, n_pes: usize) -> Option<usize> {
    cells
        .iter()
        .filter(|c| c.collective == collective && c.n_pes == n_pes)
        .find(|c| c.signaled_cycles.min(c.pipelined_cycles) < c.barrier_cycles)
        .map(|c| c.nelems * 8)
}

/// Smallest swept payload (bytes) at which binomial wins for a PE count,
/// if any — the crossover the `Auto` constants are calibrated against.
fn crossover_bytes(points: &[SweepPoint], n_pes: usize, sizes: &[usize]) -> Option<usize> {
    sizes
        .iter()
        .copied()
        .find(|&sz| {
            let cycles = |algo| {
                points
                    .iter()
                    .find(|p| p.algo == algo && p.n_pes == n_pes && p.nelems == sz)
                    .map(|p| p.cycles)
                    .unwrap_or(u64::MAX)
            };
            let b = cycles(Algorithm::Binomial);
            b <= cycles(Algorithm::Linear) && b <= cycles(Algorithm::Ring)
        })
        .map(|sz| sz * 8)
}

/// One large-`n` measurement: a collective at a PE count the thread
/// backend cannot reasonably host, tagged with the engine that ran it.
struct LargeCell {
    collective: &'static str,
    algo: &'static str,
    n_pes: usize,
    nelems: usize,
    cycles: u64,
    backend: &'static str,
}

impl ToJson for LargeCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("collective", Json::Str(self.collective.into())),
            ("algo", Json::Str(self.algo.into())),
            ("n_pes", self.n_pes.to_json()),
            ("nelems", self.nelems.to_json()),
            ("cycles", self.cycles.to_json()),
            ("backend", Json::Str(self.backend.into())),
        ])
    }
}

/// Ring-vs-tree under the pipelined executor at one PE count — the
/// measured evidence behind `AUTO_CHAIN_MAX_PES` in `policy.rs`.
struct ChainCapCell {
    n_pes: usize,
    nelems: usize,
    ring_cycles: u64,
    binomial_cycles: u64,
    backend: &'static str,
}

impl ToJson for ChainCapCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n_pes", self.n_pes.to_json()),
            ("nelems", self.nelems.to_json()),
            ("ring_pipelined_cycles", self.ring_cycles.to_json()),
            ("binomial_pipelined_cycles", self.binomial_cycles.to_json()),
            (
                "ring_wins",
                (self.ring_cycles < self.binomial_cycles).to_json(),
            ),
            ("backend", Json::Str(self.backend.into())),
        ])
    }
}

/// The `--large` extension: broadcast + all-reduce at 64–4096 PEs, plus
/// the chain-cap calibration rows. PE counts and payloads shrink together
/// so the host wall-clock stays in minutes: the big counts answer "does
/// the engine scale", the mid counts answer "where do the algorithm
/// crossovers sit".
fn large_sweep(engine: EngineConfig) -> (Vec<LargeCell>, Vec<ChainCapCell>) {
    let backend = engine.name();
    let mut cells = Vec::new();
    let plan: [(usize, &[usize]); 4] = [
        (64, &[16, 4096, 65536]),
        (256, &[16, 4096, 65536]),
        (1024, &[16, 4096]),
        (4096, &[16]),
    ];
    for (n, sizes) in plan {
        for &sz in sizes {
            eprintln!("large: broadcast auto n_pes={n} nelems={sz}");
            cells.push(LargeCell {
                collective: "broadcast",
                algo: "auto",
                n_pes: n,
                nelems: sz,
                cycles: sweep_broadcast(engine, AlgorithmPolicy::Auto, SyncMode::Auto, true, n, sz),
                backend,
            });
            eprintln!("large: allreduce recursive-doubling n_pes={n} nelems={sz}");
            cells.push(LargeCell {
                collective: "allreduce",
                algo: "recursive-doubling",
                n_pes: n,
                nelems: sz,
                cycles: ablation_allreduce(engine, AllReduceAlgo::RecursiveDoubling, n, sz),
                backend,
            });
        }
    }
    // Chain-cap evidence: the pipelined ring's linear depth term against
    // the pipelined tree's logarithmic one, across the cap boundary.
    let chain_cap = [16usize, 32, 64, 128]
        .into_iter()
        .map(|n| {
            eprintln!("large: chain-cap ring vs tree n_pes={n}");
            let run =
                |policy| sweep_broadcast(engine, policy, SyncMode::Pipelined, true, n, 65_536);
            ChainCapCell {
                n_pes: n,
                nelems: 65_536,
                ring_cycles: run(AlgorithmPolicy::Ring),
                binomial_cycles: run(AlgorithmPolicy::Binomial),
                backend,
            }
        })
        .collect();
    (cells, chain_cap)
}

/// The `--coop-smoke` CI gate: broadcast, reduce and all-reduce at 256
/// PEs on the cooperative backend, under every concrete sync mode. Every
/// run must converge (no deadlock report, no panic) with byte-verified
/// result buffers. Exits the process with the verdict.
fn coop_smoke() -> ! {
    const N: usize = 256;
    const NELEMS: usize = 64;
    let engine = EngineConfig::coop();
    let mut failures = 0usize;
    println!("# coop smoke: {N} PEs on the cooperative backend (workers auto)");
    println!(
        "{:>10} {:>10} {:>12} {:>9}",
        "collective", "sync", "cycles", "ok"
    );
    for kind in ["broadcast", "reduce", "allreduce"] {
        for sync in SyncMode::CONCRETE {
            let cfg = FabricConfig::paper(N)
                .with_shared_bytes(1 << 20)
                .with_watchdog(Duration::from_secs(120))
                .with_engine(engine);
            let result = Fabric::try_run(cfg, move |pe| {
                let me = pe.rank() as u64;
                match kind {
                    "broadcast" => {
                        let dest = pe.shared_malloc::<u64>(NELEMS);
                        let src: Vec<u64> = (0..NELEMS as u64).map(|i| i * 3 + 1).collect();
                        collectives::broadcast_policy_sync(
                            pe,
                            &dest,
                            &src,
                            NELEMS,
                            1,
                            0,
                            AlgorithmPolicy::Binomial,
                            sync,
                        );
                        pe.barrier();
                        pe.heap_read_vec(dest.whole(), NELEMS)
                    }
                    "reduce" => {
                        let src = pe.shared_malloc::<u64>(NELEMS);
                        pe.heap_write(src.whole(), &[me + 1; NELEMS]);
                        pe.barrier();
                        let mut dest = vec![0u64; NELEMS];
                        collectives::reduce_with(
                            pe,
                            &mut dest,
                            &src,
                            NELEMS,
                            1,
                            0,
                            u64::wrapping_add,
                            AlgorithmPolicy::Binomial,
                            sync,
                        );
                        pe.barrier();
                        dest
                    }
                    _ => {
                        let src = pe.shared_malloc::<u64>(NELEMS);
                        pe.heap_write(src.whole(), &[me * 2 + 1; NELEMS]);
                        pe.barrier();
                        let mut dest = vec![0u64; NELEMS];
                        collectives::reduce_all_sync(
                            pe,
                            &mut dest,
                            &src,
                            NELEMS,
                            ReduceOp::Sum,
                            AllReduceAlgo::RecursiveDoubling,
                            sync,
                        );
                        pe.barrier();
                        dest
                    }
                }
            });
            let verdict = match result {
                Ok(report) => {
                    let ranks = 0..N as u64;
                    let expect: Vec<u64> = match kind {
                        "broadcast" => (0..NELEMS as u64).map(|i| i * 3 + 1).collect(),
                        "reduce" => vec![ranks.clone().map(|r| r + 1).sum(); NELEMS],
                        _ => vec![ranks.map(|r| r * 2 + 1).sum(); NELEMS],
                    };
                    let data_ok = match kind {
                        // Only the root's reduce buffer is defined.
                        "reduce" => report.results[0] == expect,
                        _ => report.results.iter().all(|r| *r == expect),
                    };
                    if data_ok {
                        let makespan = report.cycles.iter().copied().max().unwrap_or(0);
                        println!("{kind:>10} {:>10} {makespan:>12} {:>9}", sync.name(), "yes");
                        true
                    } else {
                        println!(
                            "{kind:>10} {:>10} {:>12} {:>9}",
                            sync.name(),
                            "-",
                            "BAD DATA"
                        );
                        false
                    }
                }
                Err(RunError::Deadlock(report)) => {
                    println!(
                        "{kind:>10} {:>10} {:>12} {:>9}\n  {report}",
                        sync.name(),
                        "-",
                        "DEADLOCK"
                    );
                    false
                }
                Err(RunError::Panic(msg)) => {
                    println!(
                        "{kind:>10} {:>10} {:>12} {:>9}: {msg}",
                        sync.name(),
                        "-",
                        "PANIC"
                    );
                    false
                }
            };
            if !verdict {
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("\ncoop smoke OK: 9 cells converged with verified buffers, zero deadlock reports");
        std::process::exit(0);
    }
    eprintln!("\ncoop smoke FAILED: {failures} cell(s) violated");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let large = args.iter().any(|a| a == "--large");
    let engine = backend_arg(&args);
    if args.iter().any(|a| a == "--coop-smoke") {
        coop_smoke();
    }

    // `--trace <out.json>`: export a Perfetto timeline of one traced
    // pipelined broadcast (8 PEs, 32 KiB) — large enough to exercise
    // segmented chunk forwarding and signal flow arrows, small enough for
    // the CI smoke gate.
    if let Some(path) = trace_arg(&args) {
        let report = traced_broadcast(engine, SyncMode::Pipelined, 8, 4096);
        export_trace(&path, report.trace.as_ref().expect("traced run"));
    }

    let pe_counts = [2usize, 4, 8];
    let sizes = [1usize, 16, 256, 4096, 65536];
    let algos = [
        AlgorithmPolicy::Binomial,
        AlgorithmPolicy::Linear,
        AlgorithmPolicy::Ring,
    ];

    // Executor sync-mode sweep: barrier vs signaled vs pipelined vs Auto.
    // Run first so `--smoke` (the CI gate) skips the algorithm sweep.
    let mut sync_cells = Vec::new();
    for &n in &pe_counts {
        for &sz in &sizes {
            sync_cells.push(SyncCell::measure(engine, "broadcast", n, sz));
        }
        for &sz in &[256usize, 65536] {
            sync_cells.push(SyncCell::measure(engine, "reduce", n, sz));
        }
    }

    let sync_crossovers: Vec<(usize, Option<usize>)> = pe_counts
        .iter()
        .map(|&n| (n, sync_crossover_bytes(&sync_cells, "broadcast", n)))
        .collect();

    if !json {
        println!("# Executor sync modes: simulated cycles per warmed call (lower is better)");
        println!(
            "{:>10} {:>5} {:>9} {:>12} {:>12} {:>12} {:>12}  winner",
            "collective", "PEs", "elems", "barrier", "signaled", "pipelined", "auto"
        );
        for c in &sync_cells {
            println!(
                "{:>10} {:>5} {:>9} {:>12} {:>12} {:>12} {:>12}  {}{}",
                c.collective,
                c.n_pes,
                c.nelems,
                c.barrier_cycles,
                c.signaled_cycles,
                c.pipelined_cycles,
                c.auto_cycles,
                c.winner(),
                if c.auto_ok() { "" } else { "  [AUTO LOSES]" }
            );
        }
        println!(
            "\n# Sync crossover: smallest broadcast payload where point-to-point beats barrier"
        );
        for (n, bytes) in &sync_crossovers {
            match bytes {
                Some(b) => println!("  {n} PEs: signaled/pipelined from {b} bytes"),
                None => println!("  {n} PEs: per-stage barrier wins at every swept size"),
            }
        }
    }

    // Allreduce-family cells. The head of the list doubles as the smoke
    // gate: `AllReduceAlgo::Auto` must never lose to the historical
    // always-reduce-then-broadcast strategy, at small payloads where the
    // butterfly's latency advantage carries it and at 64 KiB+ where the
    // segmented algorithms' bandwidth advantage must kick in.
    let gate_plan: &[(usize, usize)] = &[(4, 256), (8, 1024), (4, 8192), (8, 8192)];
    let mut allreduce_cells: Vec<AllReduceCell> = gate_plan
        .iter()
        .map(|&(n, sz)| AllReduceCell::measure(engine, n, sz))
        .collect();

    if smoke {
        let losses: Vec<&SyncCell> = sync_cells.iter().filter(|c| !c.auto_ok()).collect();
        let ar_losses: Vec<&AllReduceCell> = allreduce_cells
            .iter()
            .filter(|c| !c.auto_beats_reduce_bcast())
            .collect();
        if losses.is_empty() && ar_losses.is_empty() {
            println!(
                "\nsmoke OK: SyncMode::Auto within {:.0}% of always-barrier on all {} cells; \
                 AllReduceAlgo::Auto within {:.0}% of reduce+bcast on all {} cells",
                (SYNC_TOLERANCE - 1.0) * 100.0,
                sync_cells.len(),
                (SYNC_TOLERANCE - 1.0) * 100.0,
                allreduce_cells.len()
            );
            return;
        }
        eprintln!("\nsmoke FAILED:");
        for c in losses {
            eprintln!(
                "  SyncMode::Auto loses: {} n_pes={} nelems={}: auto {} vs barrier {}",
                c.collective, c.n_pes, c.nelems, c.auto_cycles, c.barrier_cycles
            );
        }
        for c in ar_losses {
            eprintln!(
                "  AllReduceAlgo::Auto loses: n_pes={} nelems={}: auto {} vs reduce+bcast {}",
                c.n_pes, c.nelems, c.auto_cycles, c.reduce_bcast_cycles
            );
        }
        std::process::exit(1);
    }

    // The full family sweep: payload × PE-count crossover evidence for
    // `policy::auto_select_allreduce` / `auto_select_all_gather`.
    for &n in &pe_counts {
        for &sz in &[16usize, 1024, 8192, 65536] {
            if !gate_plan.contains(&(n, sz)) {
                allreduce_cells.push(AllReduceCell::measure(engine, n, sz));
            }
        }
    }
    let all_gather_cells: Vec<AllGatherCell> = [4usize, 8, 16, 64]
        .iter()
        .flat_map(|&n| {
            [16usize, 1024]
                .iter()
                .map(move |&per| (n, per))
                .collect::<Vec<_>>()
        })
        .map(|(n, per)| AllGatherCell::measure(engine, n, per))
        .collect();

    // The §4.7 comparison cells: one cold call under per-stage barriers.
    let cold_broadcast =
        |policy, n, sz| sweep_broadcast(engine, policy, SyncMode::Barrier, false, n, sz);
    let mut points = Vec::new();
    for &n in &pe_counts {
        for &sz in &sizes {
            for &policy in &algos {
                points.push(SweepPoint {
                    algo: policy.select(CollectiveKind::Broadcast, n, sz * 8),
                    n_pes: n,
                    nelems: sz,
                    cycles: cold_broadcast(policy, n, sz),
                });
            }
        }
    }

    // Crossover table: where the tree starts winning, per PE count.
    let crossovers: Vec<(usize, Option<usize>)> = pe_counts
        .iter()
        .map(|&n| (n, crossover_bytes(&points, n, &sizes)))
        .collect();

    // Policy evidence: Auto vs always-binomial on every broadcast cell.
    let policy_cells: Vec<PolicyCell> = pe_counts
        .iter()
        .flat_map(|&n| {
            sizes.iter().map(move |&sz| PolicyCell {
                n_pes: n,
                nelems: sz,
                auto_cycles: cold_broadcast(AlgorithmPolicy::Auto, n, sz),
                binomial_cycles: cold_broadcast(AlgorithmPolicy::Binomial, n, sz),
            })
        })
        .collect();

    // `--large`: the coop-engine scaling cells plus the chain-cap
    // calibration rows, appended to the report under "large".
    let large_section = large.then(|| {
        let (cells, chain_cap) = large_sweep(engine);
        (cells, chain_cap)
    });

    // Plan-cache cold/warm issue rate (host wall-clock, not simulated
    // cycles — see `xbench_issue` for the full table and the CI gate).
    // Best-of-three per cell: the min-of-three discipline the rest of
    // the sweep uses for noisy host-clock comparisons.
    let issue_cells =
        [(8usize, 1usize, 300usize), (8, 128, 300), (64, 1, 100)].map(|(n, nelems, iters)| {
            (0..3)
                .map(|_| issue_rate(engine, n, nelems, iters))
                .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
                .expect("three samples")
        });

    // Multi-tenant traffic rows plus the chaos-boundedness evidence.
    let (traffic_cells, traffic_fairness) = traffic_sweep(engine);

    let mut report_fields = vec![
        ("benchmark", Json::Str("xbench_sweep".into())),
        ("backend", Json::Str(engine.name().into())),
        ("broadcast_points", points.to_json()),
        (
            "crossovers",
            Json::Arr(
                crossovers
                    .iter()
                    .map(|&(n, bytes)| {
                        Json::obj([
                            ("n_pes", n.to_json()),
                            (
                                "binomial_wins_from_bytes",
                                bytes.map_or(Json::Null, |b| b.to_json()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("policy_auto_vs_binomial", policy_cells.to_json()),
        (
            "auto_beats_binomial_somewhere",
            policy_cells.iter().any(|c| c.auto_wins()).to_json(),
        ),
        ("sync_mode_points", sync_cells.to_json()),
        (
            "sync_crossovers",
            Json::Arr(
                sync_crossovers
                    .iter()
                    .map(|&(n, bytes)| {
                        Json::obj([
                            ("n_pes", n.to_json()),
                            (
                                "point_to_point_wins_from_bytes",
                                bytes.map_or(Json::Null, |b| b.to_json()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sync_auto_tracks_winner_everywhere",
            sync_cells.iter().all(|c| c.auto_tracks_winner()).to_json(),
        ),
        (
            "point_to_point_beats_barrier_somewhere",
            sync_cells
                .iter()
                .any(|c| c.signaled_cycles.min(c.pipelined_cycles) < c.barrier_cycles)
                .to_json(),
        ),
        ("allreduce_family_points", allreduce_cells.to_json()),
        (
            "allreduce_auto_never_loses_to_reduce_bcast",
            allreduce_cells
                .iter()
                .all(|c| c.auto_beats_reduce_bcast())
                .to_json(),
        ),
        (
            "allreduce_segmented_wins_at_64kib",
            allreduce_cells
                .iter()
                .filter(|c| c.nelems * 8 >= 64 * 1024)
                .all(|c| c.rabenseifner_cycles.min(c.ring_cycles) < c.reduce_bcast_cycles)
                .to_json(),
        ),
        ("all_gather_points", all_gather_cells.to_json()),
        (
            "allgather_doubling_wins_at_64_pes",
            all_gather_cells
                .iter()
                .filter(|c| c.n_pes >= 64)
                .all(|c| c.doubling_cycles < c.fan_cycles)
                .to_json(),
        ),
        (
            "issue_rate",
            Json::Arr(issue_cells.iter().map(|c| c.to_json()).collect()),
        ),
        (
            "warm_issue_2x_at_small_payloads",
            issue_cells
                .iter()
                .filter(|c| c.nelems * 8 <= 1024)
                .all(|c| c.speedup() >= 2.0)
                .to_json(),
        ),
        ("traffic_points", traffic_cells.to_json()),
        ("traffic_fairness", traffic_fairness.to_json()),
        (
            "p999_under_chaos_bounded",
            traffic_cells.iter().all(|c| c.chaos_bounded()).to_json(),
        ),
    ];
    if let Some((cells, chain_cap)) = &large_section {
        report_fields.push((
            "large",
            Json::obj([
                ("cells", cells.to_json()),
                ("chain_cap", chain_cap.to_json()),
            ]),
        ));
    }
    let report = Json::obj(report_fields);
    let rendered = to_string_pretty(&report);
    if let Err(e) = std::fs::write("BENCH_sweep.json", &rendered) {
        eprintln!("warning: could not write BENCH_sweep.json: {e}");
    }

    if json {
        println!("{rendered}");
        return;
    }

    println!("# Broadcast: simulated cycles per call (lower is better)");
    println!(
        "{:>5} {:>9} {:>12} {:>12} {:>12}  winner",
        "PEs", "elems", "binomial", "linear", "ring"
    );
    for &n in &pe_counts {
        for &sz in &sizes {
            let row: Vec<u64> = points
                .iter()
                .filter(|p| p.n_pes == n && p.nelems == sz)
                .map(|p| p.cycles)
                .collect();
            let winner = match row.iter().enumerate().min_by_key(|(_, c)| **c) {
                Some((0, _)) => "binomial",
                Some((1, _)) => "linear",
                _ => "ring",
            };
            println!(
                "{:>5} {:>9} {:>12} {:>12} {:>12}  {}",
                n, sz, row[0], row[1], row[2], winner
            );
        }
    }

    println!("\n# Crossover: smallest payload where the tree wins");
    for (n, bytes) in &crossovers {
        match bytes {
            Some(b) => println!("  {n} PEs: binomial from {b} bytes"),
            None => println!("  {n} PEs: linear/ring win at every swept size"),
        }
    }

    println!("\n# AlgorithmPolicy::Auto vs always-binomial (broadcast, makespan cycles)");
    println!(
        "{:>5} {:>9} {:>12} {:>12}  auto wins",
        "PEs", "elems", "auto", "binomial"
    );
    for c in &policy_cells {
        println!(
            "{:>5} {:>9} {:>12} {:>12}  {}",
            c.n_pes,
            c.nelems,
            c.auto_cycles,
            c.binomial_cycles,
            if c.auto_wins() { "yes" } else { "no" }
        );
    }

    println!("\n# Scatter / gather (uniform counts): binomial tree vs linear");
    println!(
        "{:>5} {:>9} {:>14} {:>14} {:>14} {:>14}",
        "PEs", "elems/PE", "scatter tree", "scatter lin", "gather tree", "gather lin"
    );
    for &n in &pe_counts {
        for per in [16usize, 1024, 8192] {
            let st = sweep_scatter(engine, AlgorithmPolicy::Binomial, n, per);
            let sl = sweep_scatter(engine, AlgorithmPolicy::Linear, n, per);
            let gt = sweep_gather(engine, AlgorithmPolicy::Binomial, n, per);
            let gl = sweep_gather(engine, AlgorithmPolicy::Linear, n, per);
            println!("{n:>5} {per:>9} {st:>14} {sl:>14} {gt:>14} {gl:>14}");
        }
    }

    println!("\n# Reduction (sum): binomial tree vs linear");
    println!(
        "{:>5} {:>9} {:>12} {:>12}  winner",
        "PEs", "elems", "binomial", "linear"
    );
    for &n in &pe_counts {
        for &sz in &sizes {
            let cold = |policy| sweep_reduce(engine, policy, SyncMode::Barrier, false, n, sz);
            let t = cold(AlgorithmPolicy::Binomial);
            let l = cold(AlgorithmPolicy::Linear);
            println!(
                "{:>5} {:>9} {:>12} {:>12}  {}",
                n,
                sz,
                t,
                l,
                if t <= l { "binomial" } else { "linear" }
            );
        }
    }

    println!("\n# All-reduce family: simulated cycles per warmed call (SyncMode::Auto)");
    println!(
        "{:>5} {:>9} {:>13} {:>13} {:>13} {:>13} {:>13}  winner",
        "PEs", "elems", "reduce+bcast", "rec-doubling", "rabenseifner", "ring", "auto"
    );
    for c in &allreduce_cells {
        println!(
            "{:>5} {:>9} {:>13} {:>13} {:>13} {:>13} {:>13}  {}{}",
            c.n_pes,
            c.nelems,
            c.reduce_bcast_cycles,
            c.rec_doubling_cycles,
            c.rabenseifner_cycles,
            c.ring_cycles,
            c.auto_cycles,
            c.winner(),
            if c.auto_tracks_winner() {
                ""
            } else {
                "  [AUTO OFF-WINNER]"
            }
        );
    }

    println!("\n# All-gather: one-stage n2 fan vs log-stage dissemination");
    println!(
        "{:>5} {:>9} {:>13} {:>13} {:>13}  winner",
        "PEs", "elems/PE", "fan", "doubling", "auto"
    );
    for c in &all_gather_cells {
        println!(
            "{:>5} {:>9} {:>13} {:>13} {:>13}  {}{}",
            c.n_pes,
            c.per_pe,
            c.fan_cycles,
            c.doubling_cycles,
            c.auto_cycles,
            c.winner(),
            if c.auto_tracks_winner() {
                ""
            } else {
                "  [AUTO OFF-WINNER]"
            }
        );
    }

    println!("\n# Plan cache: nonblocking issue rate, cold vs warm (host wall-clock)");
    println!(
        "{:>5} {:>9} {:>14} {:>14} {:>10}",
        "PEs", "elems", "cold /s", "warm /s", "warm/cold"
    );
    for c in &issue_cells {
        println!(
            "{:>5} {:>9} {:>14.0} {:>14.0} {:>9.2}x",
            c.n_pes,
            c.nelems,
            c.cold_per_sec,
            c.warm_per_sec,
            c.speedup()
        );
    }

    println!("\n# Multi-tenant traffic: per-tenant completion-cycle percentiles");
    println!(
        "{:>6} {:>4} {:>4} {:>9} {:>9} {:>9} {:>9} {:>11} {:>6}  chaos bounded",
        "tenant", "PEs", "ops", "bytes", "p50", "p99", "p999", "chaos p999", "eff"
    );
    for c in &traffic_cells {
        println!(
            "{:>6} {:>4} {:>4} {:>9} {:>9} {:>9} {:>9} {:>11} {:>6.3}  {}",
            c.tenant,
            c.pes,
            c.ops,
            c.bytes,
            c.p50,
            c.p99,
            c.p999,
            c.chaos_p999,
            c.efficiency,
            if c.chaos_bounded() { "yes" } else { "NO" }
        );
    }
    println!("  fairness {traffic_fairness:.3} (max/min tenant efficiency)");

    if let Some((cells, chain_cap)) = &large_section {
        println!(
            "\n# Large-n cells ({} backend): makespan cycles",
            engine.name()
        );
        println!(
            "{:>10} {:>20} {:>6} {:>9} {:>14}",
            "collective", "algo", "PEs", "elems", "cycles"
        );
        for c in cells {
            println!(
                "{:>10} {:>20} {:>6} {:>9} {:>14}",
                c.collective, c.algo, c.n_pes, c.nelems, c.cycles
            );
        }
        println!("\n# Chain cap: pipelined ring vs pipelined binomial at 64 KiB elems");
        println!("{:>6} {:>14} {:>14}  ring wins", "PEs", "ring", "binomial");
        for c in chain_cap {
            println!(
                "{:>6} {:>14} {:>14}  {}",
                c.n_pes,
                c.ring_cycles,
                c.binomial_cycles,
                if c.ring_cycles < c.binomial_cycles {
                    "yes"
                } else {
                    "no"
                }
            );
        }
    }
}
