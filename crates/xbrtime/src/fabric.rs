//! The PGAS fabric: SPMD execution, symmetric allocation, one-sided
//! communication.
//!
//! [`Fabric::run`] runs every processing element as a coroutine on a
//! worker thread and hands each a [`Pe`] context — the Rust analogue of
//! the xbrtime runtime environment (paper §3.3): `my_pe`/`num_pes`
//! queries, a barrier, symmetric shared allocation, blocking and
//! non-blocking `put`/`get` with element strides, and the simulated clock
//! that stands in for the paper's Spike timing environment.
//!
//! ## Race discipline
//!
//! One-sided transfers are unsynchronised raw copies, exactly like remote
//! loads/stores travelling over xBGAS hardware. Callers must separate
//! conflicting accesses to the same symmetric bytes with [`Pe::barrier`]
//! (the collectives in this crate do so after every tree stage, as the
//! paper prescribes). See [`crate::heap::HeapData`] for the full contract.

use crate::collectives::plan::SampleTemplate;
use crate::engine::{CoopSched, EngineConfig, Park, PeSchedState};
use crate::heap::{FreeList, HeapData};
pub use crate::timing::Topology;
use crate::timing::{OfferedLoad, PeClock, TimingConfig};
use crate::trace::{self, Trace, TraceEvent, TraceKind, TraceRing};
use crate::types::XbrType;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use xbgas_sim::{cache::CacheStats, tlb::TlbStats};

/// Seeded, deterministic fault injection for a fabric run.
///
/// Real xBGAS hardware can lose progress in ways the simulated fabric's
/// lossless shared-memory transport never does on its own: a NIC can
/// coalesce or delay a put-with-signal, a preempted PE can stall mid
/// collective, a control word can be dropped and retransmitted. This
/// config injects those behaviours *on purpose* so the watchdog and the
/// signal plane's recovery paths are testable: every decision is drawn
/// from a per-PE splitmix64 stream seeded from `seed ^ rank`, so every
/// fault decision is reproducible from `(FaultConfig, n_pes)`.
///
/// A delay is a **yield**: the PE gives up its worker slot and rejoins
/// the scheduler's ready set, and the engine's seeded pick decides who
/// runs next. No wall-clock time passes and no cycle is charged, so a
/// delays-only run must produce buffers identical to the fault-free run
/// — the invariant the chaos harness asserts — and at one worker the
/// whole schedule replays from `(FaultConfig, EngineConfig::seed)`.
///
/// Probabilities are in permille (0–1000: 25 ⇒ 2.5% of events faulted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Base seed for the per-PE deterministic fault streams.
    pub seed: u64,
    /// Permille of fabric operations at which the PE yields its worker
    /// slot: rolled at the head of every transfer (`put`/`get`/
    /// `put_symm`/`get_symm`/`put_nb`/`get_nb`), at every signal post
    /// before its slot is raised, and at barrier entry. 1000 makes every
    /// such operation a preemption point.
    pub yield_permille: u16,
    /// Permille of signal posts *dropped*. With
    /// `signal_redeliver_after_cycles > 0` the control word is
    /// retransmitted: the slot is raised at post time but stamped that
    /// many simulated cycles after the original arrival. With 0 the
    /// signal is lost forever and only the watchdog can save the run.
    pub signal_drop_permille: u16,
    /// Redelivery delay (simulated cycles) for dropped signals; 0 means
    /// never.
    pub signal_redeliver_after_cycles: u64,
}

impl FaultConfig {
    /// No faults at all — the identity config, useful as a builder base.
    pub const fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            yield_permille: 0,
            signal_drop_permille: 0,
            signal_redeliver_after_cycles: 0,
        }
    }

    /// Benign chaos: 6 % of transfers, signal posts and barrier entries
    /// yield, but nothing is ever lost. A run under this config must
    /// produce buffers identical to the fault-free run.
    pub const fn delays(seed: u64) -> Self {
        let mut f = FaultConfig::none(seed);
        f.yield_permille = 60;
        f
    }

    /// Lossy-but-recovering: some signals are dropped at post time and
    /// arrive `redeliver_cycles` simulated cycles late. Collectives still
    /// converge with the fault-free buffers; only the waiters' clocks see
    /// the loss.
    pub const fn drops_with_redelivery(seed: u64, permille: u16, redeliver_cycles: u64) -> Self {
        let mut f = FaultConfig::none(seed);
        f.signal_drop_permille = permille;
        f.signal_redeliver_after_cycles = redeliver_cycles;
        f
    }

    /// Permanently lossy: dropped signals are never redelivered, so a
    /// signaled collective will hang until the watchdog converts the hang
    /// into a [`DeadlockReport`].
    pub const fn drops_forever(seed: u64, permille: u16) -> Self {
        Self::drops_with_redelivery(seed, permille, 0)
    }

    /// Seed of PE `rank`'s private fault stream under base seed `seed`.
    ///
    /// Each PE's stream is independent so PE count and rank order never
    /// perturb each other's rolls; the mix is pure `u64` arithmetic, so a
    /// `(seed, rank)` pair names the identical stream on every platform.
    /// Public so tests (and the chaos harness) can replay a PE's rolls
    /// through [`crate::timing::SplitMix64`] and predict exactly which
    /// events a config will fault.
    pub const fn pe_stream_seed(seed: u64, rank: usize) -> u64 {
        seed ^ (rank as u64).wrapping_mul(0xA076_1D64_78BD_642F)
    }
}

/// Default watchdog timeout: generous enough that debug-mode test runs
/// under heavy host load never trip it, small enough that a genuinely
/// wedged run fails the same CI job that started it.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(60);

/// Trace events per PE embedded in a [`DeadlockReport`] when the run was
/// traced: the tail of each PE's ring, i.e. what it did before the
/// watchdog fired.
const DEADLOCK_RECENT_EVENTS: usize = 8;

/// Configuration for a fabric run.
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// Number of processing elements.
    pub n_pes: usize,
    /// Symmetric shared segment size per PE, in bytes.
    pub shared_bytes: usize,
    /// Timing model.
    pub timing: TimingConfig,
    /// Optional physical topology; `None` prices every remote transfer
    /// identically (the flat model the paper's initial library assumes).
    pub topology: Option<Topology>,
    /// Optional fault-injection plane; `None` is the lossless fabric.
    pub faults: Option<FaultConfig>,
    /// Progress watchdog: the longest any spin wait (barrier, signal
    /// wait, executor drain) may starve before the run fails fast with a
    /// [`DeadlockReport`].
    pub watchdog: Duration,
    /// Tracing plane: when on, every transfer, signal, barrier, stage and
    /// local reduction is recorded into a ring buffer per PE (64 Ki events
    /// each up to 16 PEs, 1 Mi events over the run past that) and merged
    /// into [`RunReport::trace`]. Off (the default) records nothing and
    /// adds one untaken branch per instrumented site — zero
    /// simulated-clock perturbation.
    pub trace: bool,
    /// Execution engine: how many PEs run at once and the scheduler's
    /// grant seed ([`EngineConfig`]).
    pub engine: EngineConfig,
}

impl FabricConfig {
    /// `n` PEs with a 16 MiB shared segment and no timing (functional runs).
    pub const fn new(n_pes: usize) -> Self {
        FabricConfig {
            n_pes,
            shared_bytes: 16 * 1024 * 1024,
            timing: TimingConfig::disabled(),
            topology: None,
            faults: None,
            watchdog: DEFAULT_WATCHDOG,
            trace: false,
            engine: EngineConfig::coop(),
        }
    }

    /// `n` PEs with the paper's timing calibration enabled.
    pub const fn paper(n_pes: usize) -> Self {
        FabricConfig {
            timing: TimingConfig::paper(),
            ..Self::new(n_pes)
        }
    }

    /// Builder-style override of the shared segment size.
    pub const fn with_shared_bytes(mut self, bytes: usize) -> Self {
        self.shared_bytes = bytes;
        self
    }

    /// Builder-style topology override.
    ///
    /// # Panics
    /// Panics if `topology.pes_per_node` is zero — [`Topology::node_of`]
    /// divides by it, so the degenerate value is rejected at
    /// configuration time with a clear error instead of a bare
    /// divide-by-zero inside the first transfer.
    pub const fn with_topology(mut self, topology: Topology) -> Self {
        assert!(
            topology.pes_per_node > 0,
            "topology pes_per_node must be at least 1"
        );
        self.topology = Some(topology);
        self
    }

    /// Builder-style fault-injection plane.
    pub const fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Builder-style watchdog timeout override.
    ///
    /// A structural wedge — every PE parked or finished, nothing
    /// runnable — trips at once, whichever PE's park or return left it,
    /// so the window's one remaining job is a PE that holds its slot and
    /// never parks (a host-side stall inside a PE body).
    pub const fn with_watchdog(mut self, timeout: Duration) -> Self {
        self.watchdog = timeout;
        self
    }

    /// Enable the tracing plane. The merged event log lands in
    /// [`RunReport::trace`].
    pub const fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Builder-style execution-engine override (see [`EngineConfig`]).
    pub const fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

/// Smallest number of tree stages covering `n` PEs: `⌈log2 n⌉`.
pub fn ceil_log2(n: usize) -> u32 {
    assert!(n > 0, "ceil_log2(0) is undefined");
    (usize::BITS - (n - 1).leading_zeros()).min(usize::BITS - 1)
}

/// Aggregate communication counters for a fabric run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Blocking puts issued.
    pub puts: u64,
    /// Blocking gets issued.
    pub gets: u64,
    /// Non-blocking puts issued.
    pub nb_puts: u64,
    /// Non-blocking gets issued.
    pub nb_gets: u64,
    /// Payload bytes moved by puts.
    pub bytes_put: u64,
    /// Payload bytes moved by gets.
    pub bytes_get: u64,
    /// Barrier episodes (counted once per barrier, not per PE).
    pub barriers: u64,
    /// Transfers whose target was the issuing PE.
    pub local_transfers: u64,
    /// Transfers that crossed the fabric.
    pub remote_transfers: u64,
    /// Remote atomic operations issued.
    pub amos: u64,
    /// Completion signals posted ([`Pe::signal_post`],
    /// [`Pe::signal_post_at`]).
    pub signals: u64,
    /// Completion signals consumed by [`Pe::signal_wait`]. Equal to
    /// `signals` after a clean run (every posted slot is consumed).
    pub signal_waits: u64,
    /// Injected yields ([`FaultConfig::yield_permille`]).
    pub yields: u64,
    /// Signals dropped at post time by the fault plane (redelivered late
    /// when [`FaultConfig::signal_redeliver_after_cycles`] is set).
    pub signals_dropped: u64,
}

impl FabricStats {
    /// Add another PE's counts to these.
    fn add(&mut self, o: &FabricStats) {
        self.puts += o.puts;
        self.gets += o.gets;
        self.nb_puts += o.nb_puts;
        self.nb_gets += o.nb_gets;
        self.bytes_put += o.bytes_put;
        self.bytes_get += o.bytes_get;
        self.barriers += o.barriers;
        self.local_transfers += o.local_transfers;
        self.remote_transfers += o.remote_transfers;
        self.amos += o.amos;
        self.signals += o.signals;
        self.signal_waits += o.signal_waits;
        self.yields += o.yields;
        self.signals_dropped += o.signals_dropped;
    }
}

/// Telemetry key: which collective an executor episode belongs to.
///
/// Every collective in `collectives/` routes through the shared
/// [`CommSchedule`](crate::collectives::schedule::CommSchedule) executor,
/// which tags its counters with one of these kinds. Variants (teams,
/// hierarchical, linear/ring baselines) fold into the kind of the paper
/// collective they implement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Algorithm 1 and its linear/ring/hierarchical/team variants.
    #[default]
    Broadcast,
    /// Algorithm 2 and its linear/ring/hierarchical variants.
    Reduce,
    /// Algorithm 3 and its linear variant.
    Scatter,
    /// Algorithm 4 and its linear variant.
    Gather,
    /// Reduce-to-all (either strategy, world or team scoped).
    AllReduce,
    /// Gather-to-all.
    AllGather,
    /// Personalised all-to-all exchange.
    AllToAll,
}

impl CollectiveKind {
    /// Every kind, in display order.
    pub const ALL: [CollectiveKind; 7] = [
        CollectiveKind::Broadcast,
        CollectiveKind::Reduce,
        CollectiveKind::Scatter,
        CollectiveKind::Gather,
        CollectiveKind::AllReduce,
        CollectiveKind::AllGather,
        CollectiveKind::AllToAll,
    ];

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Scatter => "scatter",
            CollectiveKind::Gather => "gather",
            CollectiveKind::AllReduce => "allreduce",
            CollectiveKind::AllGather => "allgather",
            CollectiveKind::AllToAll => "alltoall",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            CollectiveKind::Broadcast => 0,
            CollectiveKind::Reduce => 1,
            CollectiveKind::Scatter => 2,
            CollectiveKind::Gather => 3,
            CollectiveKind::AllReduce => 4,
            CollectiveKind::AllGather => 5,
            CollectiveKind::AllToAll => 6,
        }
    }

    pub(crate) fn from_index(i: usize) -> CollectiveKind {
        Self::ALL[i]
    }
}

/// Aggregated telemetry for one collective kind over a whole fabric run.
///
/// `calls` and `stages` are counted once per episode, by the plan's lead
/// rank ([`Plan::lead`](crate::collectives::plan::Plan::lead): a team's
/// first member, rank 0 for a world-scoped episode), so every tenant's
/// episodes under the traffic plane ([`crate::traffic`]) are counted;
/// `puts`/`gets`/`bytes_*`/`cycles`/`signals`/`waits`/`wait_cycles` are
/// summed over all PEs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectiveRecord {
    /// Which collective this row describes.
    pub kind: CollectiveKind,
    /// Executor episodes observed.
    pub calls: u64,
    /// Total puts issued across PEs.
    pub puts: u64,
    /// Total gets issued across PEs.
    pub gets: u64,
    /// Total payload bytes pushed.
    pub bytes_put: u64,
    /// Total payload bytes pulled.
    pub bytes_get: u64,
    /// Total schedule stages (summed over episodes, not PEs).
    pub stages: u64,
    /// Simulated cycles spent inside the executor, summed over PEs.
    pub cycles: u64,
    /// Completion signals posted across PEs (signaled/pipelined modes).
    pub signals: u64,
    /// Signal waits performed across PEs.
    pub waits: u64,
    /// Simulated cycles stalled inside signal waits, summed over PEs.
    pub wait_cycles: u64,
    /// Bitmask of algorithms that actually ran for this kind (bit 0 =
    /// binomial, bit 1 = linear, bit 2 = ring) — the *resolved* policy
    /// choice, recorded at plan-build/issue time.
    pub algo_mask: u64,
    /// Bitmask of sync disciplines that actually ran (bit 0 = barrier,
    /// bit 1 = signaled, bit 2 = pipelined) after `Auto` resolution.
    pub sync_mask: u64,
}

impl CollectiveRecord {
    /// Fraction of executor time spent making progress rather than
    /// stalled on point-to-point signal waits: `1 − wait_cycles/cycles`.
    /// Barrier-mode episodes (no signal waits) report 1.0; the barrier
    /// tax itself hides inside `cycles`, which is the quantity the
    /// sync-mode ablation compares across modes.
    pub fn overlap_ratio(&self) -> f64 {
        if self.cycles == 0 {
            return 1.0;
        }
        1.0 - (self.wait_cycles as f64 / self.cycles as f64).min(1.0)
    }

    /// Human-readable names of the algorithms recorded in `algo_mask`.
    pub fn algorithms(&self) -> Vec<&'static str> {
        ["binomial", "linear", "ring"]
            .iter()
            .enumerate()
            .filter(|(i, _)| self.algo_mask & (1 << i) != 0)
            .map(|(_, s)| *s)
            .collect()
    }

    /// Human-readable names of the sync disciplines recorded in
    /// `sync_mask`.
    pub fn sync_modes(&self) -> Vec<&'static str> {
        ["barrier", "signaled", "pipelined"]
            .iter()
            .enumerate()
            .filter(|(i, _)| self.sync_mask & (1 << i) != 0)
            .map(|(_, s)| *s)
            .collect()
    }

    /// Add another PE's share of this kind's episodes to this row.
    fn add(&mut self, o: &CollectiveRecord) {
        self.calls += o.calls;
        self.puts += o.puts;
        self.gets += o.gets;
        self.bytes_put += o.bytes_put;
        self.bytes_get += o.bytes_get;
        self.stages += o.stages;
        self.cycles += o.cycles;
        self.signals += o.signals;
        self.waits += o.waits;
        self.wait_cycles += o.wait_cycles;
        self.algo_mask |= o.algo_mask;
        self.sync_mask |= o.sync_mask;
    }
}

/// One PE's counters and trace. Only that PE writes them, with plain
/// `+=` and pushes (through [`Pe`]'s guard on its slot of
/// `Shared::tallies`), and [`Fabric::run`] sums the counters and merges
/// the traces once the workers have joined.
#[derive(Default)]
struct Tally {
    stats: FabricStats,
    /// One row per [`CollectiveKind`], in [`CollectiveKind::ALL`] order
    /// (each row's `kind` is set when the tallies are summed).
    coll: [CollectiveRecord; CollectiveKind::ALL.len()],
    /// The PE's trace events when the run is traced. Boxed so an untraced
    /// tally stays its old size: 48 bytes more inline put `coll_small`'s
    /// peak RSS into its second glibc-arena mode (+9 %).
    trace: Option<Box<TraceRing>>,
    /// Where the PE stood when it stopped, written as its [`Pe`] drops.
    position: Position,
}

/// Where a PE is in its program: the collective episode and stage it is
/// in and its count of progress events (transfers, signal posts and
/// consumes, barrier crossings, stage starts). Only the PE writes it, and
/// not once the fabric is poisoned, so after the join it still reads as
/// it did when the watchdog fired.
#[derive(Clone, Copy, Default)]
struct Position {
    collective: Option<CollectiveKind>,
    /// A value equal to the schedule's stage count denotes the executor's
    /// final drain.
    stage: Option<usize>,
    ops: u64,
}

// ---------------------------------------------------------------------------
// The progress watchdog's structured failure report.
// ---------------------------------------------------------------------------

/// Where a PE was last observed when the watchdog fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitSite {
    /// Executing user or collective code (not blocked in the fabric).
    Running,
    /// Spinning inside [`Pe::barrier`].
    Barrier,
    /// Spinning inside [`Pe::signal_wait`] on the symmetric slot at this
    /// byte offset in the PE's own shared segment.
    Signal {
        /// Byte offset of the awaited slot in the symmetric heap.
        off: usize,
    },
    /// The PE's SPMD body returned; it will never make further progress.
    Finished,
}

/// One PE's row in a [`DeadlockReport`]: where the PE stood when the
/// watchdog fired. `site` and `sched` come from the scheduler's snapshot
/// and `pending_signals` from the PE's heap, both taken at the trip; the
/// rest is filled from the PE's own tally once every PE has stopped, and
/// a PE updates none of it after the fabric is poisoned.
#[derive(Clone, Debug)]
pub struct PeProbe {
    /// The PE's rank.
    pub rank: usize,
    /// Collective episode the PE was inside, if any (set by the schedule
    /// executor as the episode opens and closes).
    pub collective: Option<CollectiveKind>,
    /// Stage index within that collective. A value equal to the
    /// schedule's stage count denotes the executor's final drain.
    pub stage: Option<usize>,
    /// Where the PE was blocked (or not): the site it last parked at, as
    /// the scheduler recorded it, until a grant or its finish.
    pub site: WaitSite,
    /// Monotonic count of progress events (transfers, signals, barrier
    /// crossings, stage starts) the PE had completed — two probes with
    /// the same value mean the PE made no progress in between.
    pub progress_ops: u64,
    /// Nonzero slots of this PE's signal table: `(slot index, stamp)` for
    /// every signal posted to this PE but not yet consumed.
    pub pending_signals: Vec<(usize, u64)>,
    /// The newest trace events this PE emitted before the watchdog fired
    /// (empty when the run was not traced) — what the PE was doing just
    /// before the hang. Filled from the PE's ring once every PE has
    /// stopped; a PE records nothing after the fabric is poisoned.
    pub recent_events: Vec<TraceEvent>,
    /// The scheduler's view of the PE (running, runnable, parked, …).
    pub sched: PeSchedState,
}

/// Structured report produced when the progress watchdog fires: a
/// whole-fabric snapshot naming which PE is stuck where, inside which
/// collective and stage, and which signal slots are still pending.
///
/// Returned through [`Fabric::try_run`] as
/// [`RunError::Deadlock`]; [`Fabric::run`] panics with its [`Display`]
/// rendering. The PE that trips the watchdog poisons the fabric, so
/// every peer unwinds promptly instead of spinning forever.
///
/// [`Display`]: std::fmt::Display
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// Rank of the PE whose watchdog fired first.
    pub detector: usize,
    /// Why it fired: `true` for a structural wedge (every PE parked or
    /// finished, nothing runnable), seen the moment it forms; `false`
    /// when `timeout` elapsed with no grant anywhere in the fabric.
    pub wedged: bool,
    /// The configured watchdog timeout (exceeded unless `wedged`).
    pub timeout: Duration,
    /// Byte offset and slot count of the symmetric signal table, if the
    /// signal plane was in use (lets slot offsets be named as indices).
    pub signal_table: Option<(usize, usize)>,
    /// One probe per PE, indexed by rank.
    pub pes: Vec<PeProbe>,
}

impl DeadlockReport {
    /// The most likely culprit PE. A PE parked at the barrier is a
    /// *victim* — it waits on every PE that has not arrived — so a PE
    /// blocked on a signal, still running or already returned (one that
    /// left while its peers wait) is preferred over it, in that order,
    /// and the detector breaks ties.
    pub fn stuck(&self) -> &PeProbe {
        let score = |p: &PeProbe| match p.site {
            WaitSite::Signal { .. } => 0,
            WaitSite::Running => 1,
            WaitSite::Finished => 2,
            WaitSite::Barrier => 3,
        };
        self.pes
            .iter()
            .min_by_key(|p| (score(p), p.rank != self.detector))
            .unwrap_or(&self.pes[self.detector])
    }

    /// Translate a symmetric-heap byte offset (e.g. a
    /// [`WaitSite::Signal`]'s `off`) into a signal-table slot index, when
    /// a signal table was in use and the offset falls inside it.
    pub fn signal_slot(&self, off: usize) -> Option<usize> {
        match self.signal_table {
            Some((base, len)) if off >= base && (off - base) / 8 < len => Some((off - base) / 8),
            _ => None,
        }
    }

    fn slot_name(&self, off: usize) -> String {
        match self.signal_slot(off) {
            Some(slot) => {
                // The executor is the only in-tree signal-table user, so a
                // slot decomposes under its per-op layout: which global op
                // the waiter was stuck on, and which chunk/ready/ack flag.
                let (op, role) = crate::collectives::policy::slot_role(slot);
                format!("slot {slot} (op {op}, {role})")
            }
            None => format!("heap offset {off:#x}"),
        }
    }
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.wedged {
            write!(f, "structural deadlock: nothing can run")?;
        } else {
            write!(f, "no progress for {:?}", self.timeout)?;
        }
        writeln!(f, ": PE {} tripped the watchdog", self.detector)?;
        let culprit = self.stuck().rank;
        for p in &self.pes {
            let coll = match p.collective {
                Some(k) => k.name(),
                None => "-",
            };
            let stage = match p.stage {
                Some(s) => s.to_string(),
                None => "-".to_string(),
            };
            let site = match p.site {
                WaitSite::Running => "running".to_string(),
                WaitSite::Barrier => "blocked at barrier".to_string(),
                WaitSite::Finished => "finished".to_string(),
                WaitSite::Signal { off } => {
                    format!("blocked on signal {}", self.slot_name(off))
                }
            };
            let pending = if p.pending_signals.is_empty() {
                String::new()
            } else {
                let list: Vec<String> = p
                    .pending_signals
                    .iter()
                    .map(|&(s, v)| format!("{s}:{v}"))
                    .collect();
                format!(" pending[{}]", list.join(", "))
            };
            writeln!(
                f,
                "  PE {}: {} [sched {}] | collective {} stage {} | progress {} {}{}",
                p.rank,
                site,
                p.sched.name(),
                coll,
                stage,
                p.progress_ops,
                if p.rank == culprit { "<- stuck" } else { "" },
                pending
            )?;
            for ev in &p.recent_events {
                writeln!(f, "      {ev}")?;
            }
        }
        Ok(())
    }
}

/// Why [`Fabric::try_run`] failed.
#[derive(Debug)]
pub enum RunError {
    /// The progress watchdog fired; the report names the stuck PE.
    Deadlock(DeadlockReport),
    /// A PE panicked (the payload's message, when it carried one).
    Panic(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock(report) => write!(f, "deadlock detected: {report}"),
            RunError::Panic(msg) => write!(f, "a PE panicked: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

struct BarrierState {
    count: AtomicUsize,
    generation: AtomicUsize,
    max_cycles: [AtomicU64; 2],
}

struct Shared {
    n_pes: usize,
    heaps: Vec<HeapData>,
    barrier: BarrierState,
    /// Every PE's offered load on the channel, which prices queueing.
    load: OfferedLoad,
    poisoned: AtomicBool,
    /// Published byte offset of the symmetric signal table, plus one
    /// (0 = table not yet allocated). Lets the watchdog name slots.
    sig_off: AtomicUsize,
    /// Published slot count of the symmetric signal table.
    sig_len: AtomicUsize,
    /// First deadlock report wins; peers that trip later keep it.
    deadlock: Mutex<Option<DeadlockReport>>,
    /// Watchdog timeout every spin loop must respect.
    watchdog: Duration,
    /// Whether the run is traced (each tally then holds a ring).
    trace: bool,
    /// The scheduler that grants PEs their worker slots.
    coop: CoopSched,
    /// Compiled-plan memo shared by every PE.
    plan_cache: crate::collectives::PlanCache,
    /// One tally per PE, each locked by its own PE for the whole run (so
    /// never contended) and read by `run_impl` after the join. The slots
    /// are allocated here, up front, rather than owned by the `Pe`:
    /// on a 2-core x86-64 host, returning a ~0.9 KB tally through each
    /// PE's coroutine return path made a 64-PE launch ~35 % slower, and
    /// boxing it on the worker thread gave `coll_small` and `is_8pe` a
    /// second glibc arena (+9 % peak RSS).
    tallies: Vec<Mutex<RefCell<Tally>>>,
}

impl Shared {
    fn new(cfg: &FabricConfig) -> Self {
        Shared {
            n_pes: cfg.n_pes,
            heaps: (0..cfg.n_pes)
                .map(|_| HeapData::new(cfg.shared_bytes))
                .collect(),
            barrier: BarrierState {
                count: AtomicUsize::new(0),
                generation: AtomicUsize::new(0),
                max_cycles: [AtomicU64::new(0), AtomicU64::new(0)],
            },
            load: OfferedLoad::new(cfg.n_pes),
            poisoned: AtomicBool::new(false),
            sig_off: AtomicUsize::new(0),
            sig_len: AtomicUsize::new(0),
            deadlock: Mutex::new(None),
            watchdog: cfg.watchdog,
            trace: cfg.trace,
            coop: CoopSched::new(cfg.n_pes, cfg.engine, cfg.watchdog),
            plan_cache: crate::collectives::PlanCache::new(),
            tallies: (0..cfg.n_pes)
                .map(|_| {
                    let trace = cfg
                        .trace
                        .then(|| Box::new(TraceRing::new(trace::ring_capacity(cfg.n_pes))));
                    Mutex::new(RefCell::new(Tally {
                        trace,
                        ..Tally::default()
                    }))
                })
                .collect(),
        }
    }

    /// Build a whole-fabric probe: one row per PE from the scheduler's
    /// snapshot plus the nonzero slots of each PE's signal table. The
    /// rows' positions and recent events are filled after the join, from
    /// the PEs' own tallies.
    fn probe(&self, detector: usize, wedged: bool) -> DeadlockReport {
        let sig_off = self.sig_off.load(Ordering::Acquire);
        let sig_len = self.sig_len.load(Ordering::Acquire);
        let signal_table = (sig_off != 0).then(|| (sig_off - 1, sig_len));
        let pes = (self.coop.snapshot().into_iter().enumerate())
            .map(|(rank, (sched, site))| {
                let pending_signals = match signal_table {
                    Some((base, len)) => {
                        let table = self.heaps[rank].window("probe", base, len * 8) as *mut u64;
                        (0..len)
                            .filter_map(|s| {
                                // SAFETY: slot `s < len` lies in the window,
                                // 8-byte aligned (HEAP_ALIGN), and signal
                                // slots are only ever accessed atomically.
                                let slot = unsafe { AtomicU64::from_ptr(table.add(s)) };
                                let v = slot.load(Ordering::Acquire);
                                (v != 0).then_some((s, v))
                            })
                            .collect()
                    }
                    None => Vec::new(),
                };
                PeProbe {
                    rank,
                    collective: None,
                    stage: None,
                    site,
                    progress_ops: 0,
                    pending_signals,
                    recent_events: Vec::new(),
                    sched,
                }
            })
            .collect();
        DeadlockReport {
            detector,
            wedged,
            timeout: self.watchdog,
            signal_table,
            pes,
        }
    }
}

/// A symmetric allocation: `nelems` elements of `T` at the same offset in
/// every PE's shared segment.
///
/// Produced by [`Pe::shared_malloc`], which every PE must call collectively
/// and in the same order (the standard SHMEM contract).
pub struct SymmAlloc<T> {
    off: usize,
    nelems: usize,
    _m: PhantomData<fn() -> T>,
}

impl<T> Clone for SymmAlloc<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SymmAlloc<T> {}

impl<T> std::fmt::Debug for SymmAlloc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SymmAlloc<{}>(off={:#x}, nelems={})",
            std::any::type_name::<T>(),
            self.off,
            self.nelems
        )
    }
}

impl<T: XbrType> SymmAlloc<T> {
    /// Number of elements in the allocation.
    pub fn len(&self) -> usize {
        self.nelems
    }

    /// `true` if the allocation holds no elements.
    pub fn is_empty(&self) -> bool {
        self.nelems == 0
    }

    /// A reference to element `idx` (and everything after it), the
    /// symmetric-heap analogue of `&buf[idx]` pointer arithmetic.
    ///
    /// # Panics
    /// Panics if `idx > len`.
    pub fn at(&self, idx: usize) -> SymmRef<T> {
        assert!(
            idx <= self.nelems,
            "symmetric index {idx} out of bounds (len {})",
            self.nelems
        );
        SymmRef {
            off: self.off + idx * std::mem::size_of::<T>(),
            limit: self.nelems - idx,
            _m: PhantomData,
        }
    }

    /// A reference to the start of the allocation.
    pub fn whole(&self) -> SymmRef<T> {
        self.at(0)
    }
}

/// A typed reference into the symmetric heap: an offset plus the number of
/// elements remaining in its allocation (for bounds checking).
pub struct SymmRef<T> {
    off: usize,
    limit: usize,
    _m: PhantomData<fn() -> T>,
}

impl<T> Clone for SymmRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SymmRef<T> {}

impl<T> std::fmt::Debug for SymmRef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SymmRef<{}>(off={:#x}, remaining={})",
            std::any::type_name::<T>(),
            self.off,
            self.limit
        )
    }
}

impl<T: XbrType> SymmRef<T> {
    /// Elements remaining from this reference to the end of its allocation.
    pub fn remaining(&self) -> usize {
        self.limit
    }

    /// Advance by `idx` elements.
    ///
    /// # Panics
    /// Panics if `idx > remaining()`.
    pub fn offset(&self, idx: usize) -> SymmRef<T> {
        assert!(
            idx <= self.limit,
            "symmetric offset {idx} out of bounds (remaining {})",
            self.limit
        );
        SymmRef {
            off: self.off + idx * std::mem::size_of::<T>(),
            limit: self.limit - idx,
            _m: PhantomData,
        }
    }

    fn check_span(&self, nelems: usize, stride: usize) {
        assert!(stride >= 1, "stride must be at least 1");
        let need = span(nelems, stride);
        assert!(
            need <= self.limit,
            "transfer of {nelems} elements at stride {stride} needs {need} \
             elements but only {} remain in the allocation",
            self.limit
        );
    }
}

/// Handle for a non-blocking transfer, completed by [`Pe::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NbHandle {
    completion_cycles: u64,
}

/// A stream of non-blocking transfers (a PE's default one or a
/// [`Context`]'s): how many were issued since its last `quiet`, and the
/// latest completion stamp among them, which that `quiet` advances the
/// clock to.
#[derive(Default)]
pub(crate) struct Stream {
    pending: Cell<usize>,
    latest: Cell<u64>,
}

impl NbHandle {
    /// Simulated cycle at which the transfer lands on the target — the
    /// arrival stamp a signal tied to this transfer should carry
    /// ([`Pe::signal_post_at`]).
    pub fn completion_cycles(&self) -> u64 {
        self.completion_cycles
    }
}

/// The per-PE runtime context handed to the SPMD body.
pub struct Pe<'f> {
    rank: usize,
    shared: &'f Shared,
    /// Every cycle this PE is charged is priced here.
    pub(crate) clock: PeClock<'f>,
    allocator: RefCell<FreeList>,
    /// The default stream: non-blocking transfers [`Pe::wait`],
    /// [`Pe::quiet`] and [`Pe::barrier`] complete.
    pub(crate) outstanding: Stream,
    /// Cached symmetric signal table for signaled collectives. Grown on
    /// demand by [`Pe::signal_table`] and kept alive for the rest of the
    /// run; the executor's drain invariant keeps it all-zero between
    /// collectives so reuse needs no re-zeroing barrier.
    signal_table: RefCell<Option<SymmAlloc<u64>>>,
    /// Fault-injection config, when the fabric runs in chaos mode.
    faults: Option<FaultConfig>,
    /// splitmix64 state for this PE's deterministic fault rolls.
    fault_rng: std::cell::Cell<u64>,
    /// This PE's counters: its own slot of `Shared::tallies`, held for
    /// the whole run.
    tally: MutexGuard<'f, RefCell<Tally>>,
    /// Where this PE is; written into its tally when it drops.
    position: Cell<Position>,
    /// Per-PE collective episode counter. Episodes are collective calls,
    /// which every PE makes in the same order, so the counter agrees
    /// across PEs and groups one episode's events.
    trace_episode: Cell<u32>,
    /// Reusable scratch buffers (landing vectors of any element type),
    /// recycled across collective episodes so the executor hot path
    /// allocates only on first use per type.
    scratch: RefCell<Vec<Box<dyn std::any::Any>>>,
    /// Next free plan-relative signal-slot window for nonblocking
    /// collectives; blocking plan episodes run above this floor.
    nb_slot_base: Cell<usize>,
    /// Outstanding nonblocking collective episodes (resets the slot
    /// cursor when it drains to zero).
    nb_inflight: Cell<usize>,
}

/// The issuing PE's end of a one-sided transfer ([`Pe::transfer`]): where
/// the data leaves from (a put) or lands (a get) on the issuer's side. The
/// far end is always a symmetric offset on the target PE.
pub(crate) enum Local<'a, T> {
    /// A window of the issuer's own shared segment (heap-to-heap).
    Heap(SymmRef<T>),
    /// A private source slice; puts only.
    Src(&'a [T]),
    /// A private destination slice (or, for a put, a source the caller
    /// happens to hold mutably).
    Dst(&'a mut [T]),
}

/// Contiguous element span of `nelems` elements `stride` apart (0 when
/// empty): a strided window at offset `at` is `at .. at + span(..)`.
pub(crate) fn span(nelems: usize, stride: usize) -> usize {
    match nelems {
        0 => 0,
        n => (n - 1) * stride + 1,
    }
}

/// The combine loop of one [`PlanStep::Fold`](crate::collectives::plan::PlanStep::Fold),
/// type-erased once per step: every combiner `f: Fn(T, T) -> T` is its
/// own kernel, so the executor makes one indirect call per step and `f`
/// inlines into the loop.
pub(crate) trait FoldKernel<T> {
    /// `dst[j·stride] = f(dst[j·stride], with[j·stride])` for every
    /// `j < nelems`.
    ///
    /// # Safety
    /// `dst` must be valid for reads and writes of `span(nelems, stride)`
    /// elements; it need not be aligned.
    ///
    /// # Panics
    /// Panics if `with` holds fewer than `span(nelems, stride)` elements.
    unsafe fn fold_loop(&self, dst: *mut T, with: &[T], nelems: usize, stride: usize);
}

impl<T: Copy, F: Fn(T, T) -> T> FoldKernel<T> for F {
    unsafe fn fold_loop(&self, dst: *mut T, with: &[T], nelems: usize, stride: usize) {
        let with = &with[..span(nelems, stride)];
        if stride == 1 {
            // Contiguous on its own, so the loop vectorises.
            for (j, &w) in with.iter().enumerate() {
                // SAFETY: `j < span`, inside the caller's window; unaligned
                // accesses assume nothing about `T`'s alignment.
                unsafe {
                    let p = dst.add(j);
                    p.write_unaligned(self(p.read_unaligned(), w));
                }
            }
        } else {
            for (j, &w) in with.iter().step_by(stride).enumerate() {
                // SAFETY: `j·stride < span`, as above.
                unsafe {
                    let p = dst.add(j * stride);
                    p.write_unaligned(self(p.read_unaligned(), w));
                }
            }
        }
    }
}

/// Elements the cache model walks for a strided window: its span, and one
/// element even when the window is empty.
fn walk_span(nelems: usize, stride: usize) -> usize {
    span(nelems, stride).max(1)
}

/// Cover `nelems` `es`-byte elements `stride` apart with `copy(byte
/// offset, byte length)` runs: one run when contiguous, one per element
/// otherwise.
#[inline]
fn strided_runs(nelems: usize, stride: usize, es: usize, mut copy: impl FnMut(usize, usize)) {
    if stride == 1 {
        copy(0, nelems * es);
    } else {
        for i in 0..nelems {
            copy(i * stride * es, es);
        }
    }
}

/// A private slice of `len` elements must cover the strided window.
fn check_src(len: usize, nelems: usize, stride: usize) {
    assert!(stride >= 1, "stride must be at least 1");
    assert!(
        len >= span(nelems, stride),
        "buffer of {len} elements too small for {nelems} elements at stride {stride}"
    );
}

/// On return or unwind, a PE leaves its position in its tally for a
/// watchdog report's row.
impl Drop for Pe<'_> {
    fn drop(&mut self) {
        self.tally.get_mut().position = self.position.get();
    }
}

impl<'f> Pe<'f> {
    fn new(rank: usize, shared: &'f Shared, cfg: &FabricConfig) -> Self {
        // Seed each PE's fault stream independently so PE count and rank
        // order do not perturb each other's rolls.
        let seed = FaultConfig::pe_stream_seed(cfg.faults.map_or(0, |f| f.seed), rank);
        let heap = &shared.heaps[rank];
        Pe {
            rank,
            shared,
            clock: PeClock::new(rank, cfg.timing, cfg.topology, heap.len(), &shared.load),
            allocator: RefCell::new(FreeList::new(heap.len())),
            outstanding: Stream::default(),
            signal_table: RefCell::new(None),
            faults: cfg.faults,
            fault_rng: std::cell::Cell::new(seed),
            tally: shared.tallies[rank]
                .lock()
                .expect("a PE's tally is its own"),
            position: Cell::default(),
            trace_episode: Cell::new(0),
            scratch: RefCell::new(Vec::new()),
            nb_slot_base: Cell::new(0),
            nb_inflight: Cell::new(0),
        }
    }

    // ------------------------------------------------------------------
    // Compiled-plan support: scratch recycling, slot-window reservation
    // for overlapping nonblocking episodes, and cache/telemetry access.
    // ------------------------------------------------------------------

    /// Take a recycled scratch vector of element type `T` (empty, but
    /// with whatever capacity earlier episodes grew it to), or a fresh
    /// empty one. Return it with [`Pe::scratch_put`] when done. The box is
    /// the type-erased pool's own storage unit, handed back and forth so a
    /// warm episode neither allocates nor frees.
    #[allow(clippy::box_collection)]
    pub(crate) fn scratch_take<T: 'static>(&self) -> Box<Vec<T>> {
        let mut pool = self.scratch.borrow_mut();
        match pool.iter().position(|b| b.is::<Vec<T>>()) {
            Some(i) => pool
                .swap_remove(i)
                .downcast::<Vec<T>>()
                .expect("checked via Any::is"),
            None => Box::default(),
        }
    }

    /// Recycle a scratch vector for later [`Pe::scratch_take`] calls.
    #[allow(clippy::box_collection)]
    pub(crate) fn scratch_put<T: 'static>(&self, mut v: Box<Vec<T>>) {
        v.clear();
        self.scratch.borrow_mut().push(v);
    }

    /// The fabric's compiled-plan cache.
    pub(crate) fn plan_cache(&self) -> &crate::collectives::PlanCache {
        &self.shared.plan_cache
    }

    /// Record the resolved algorithm/sync choice for a collective kind
    /// (bits defined on [`CollectiveRecord::algo_mask`]).
    pub(crate) fn note_choice(&self, kind: CollectiveKind, algo_bit: u64, sync_bit: u64) {
        let r = &mut self.tally.borrow_mut().coll[kind.index()];
        r.algo_mask |= algo_bit;
        r.sync_mask |= sync_bit;
    }

    /// Current floor of the nonblocking slot window: blocking plan
    /// episodes rebase their signal slots here so they never collide
    /// with in-flight nonblocking collectives.
    pub(crate) fn nb_slot_floor(&self) -> usize {
        self.nb_slot_base.get()
    }

    /// Reserve a window of `n_slots` signal-table slots for a nonblocking
    /// episode; returns the window base. Released (LIFO-agnostic — the
    /// cursor rewinds only when *all* episodes drain) via
    /// [`Pe::nb_slot_release`].
    pub(crate) fn nb_slot_reserve(&self, n_slots: usize) -> usize {
        let base = self.nb_slot_base.get();
        self.nb_slot_base.set(base + n_slots);
        self.nb_inflight.set(self.nb_inflight.get() + 1);
        base
    }

    /// Mark one nonblocking episode complete; when none remain in flight
    /// the slot cursor rewinds to zero.
    pub(crate) fn nb_slot_release(&self) {
        let left = self.nb_inflight.get() - 1;
        self.nb_inflight.set(left);
        if left == 0 {
            self.nb_slot_base.set(0);
        }
    }

    // ------------------------------------------------------------------
    // Fault plane: seeded, deterministic chaos. An injected delay is a
    // yield to the scheduler — it never touches the simulated clock, so a
    // delays-only run produces byte-identical buffers (and, whenever the
    // timing model itself is interleaving-deterministic, identical
    // cycles).
    // ------------------------------------------------------------------

    /// One step of this PE's private fault stream
    /// ([`crate::timing::SplitMix64`] state persisted in a `Cell`).
    fn fault_next(&self) -> u64 {
        let mut rng = crate::timing::SplitMix64::new(self.fault_rng.get());
        let v = rng.next_u64();
        self.fault_rng.set(rng.state());
        v
    }

    /// Roll against a permille probability. A zero probability draws
    /// nothing, so a drops-only config's stream is all drop rolls.
    fn fault_roll(&self, permille: u16) -> bool {
        permille > 0 && self.fault_next() % 1000 < u64::from(permille)
    }

    /// Fault hook at the head of every transfer, at a signal post before
    /// its slot is raised, and at barrier entry: on a
    /// [`FaultConfig::yield_permille`] roll the PE gives up its worker
    /// slot and the scheduler's seeded pick decides who runs next.
    #[inline]
    fn fault_yield(&self) {
        let Some(f) = self.faults else { return };
        if self.fault_roll(f.yield_permille) {
            self.tally.borrow_mut().stats.yields += 1;
            self.shared.coop.yield_now(self.rank);
        }
    }

    // ------------------------------------------------------------------
    // Position: where this PE is, for a watchdog report's row. Plain
    // cells, frozen once the fabric is poisoned.
    // ------------------------------------------------------------------

    /// Apply `step` to this PE's position, unless the fabric is poisoned.
    #[inline]
    fn move_to(&self, step: impl FnOnce(&mut Position)) {
        if !self.shared.poisoned.load(Ordering::Relaxed) {
            let mut at = self.position.get();
            step(&mut at);
            self.position.set(at);
        }
    }

    /// Count one progress event.
    #[inline]
    fn progress_tick(&self) {
        self.move_to(|at| at.ops += 1);
    }

    /// Enter the collective episode `kind` (`None` leaves it). Called by
    /// the schedule executor.
    pub(crate) fn progress_collective(&self, kind: Option<CollectiveKind>) {
        self.move_to(|at| (at.collective, at.stage) = (kind, None));
        if kind.is_some() && self.shared.trace {
            self.trace_episode.set(self.trace_episode.get() + 1);
        }
    }

    /// Enter stage `stage` of the current episode, a progress event. A
    /// value equal to the schedule's stage count denotes the executor's
    /// final drain. Called by the schedule executor.
    pub(crate) fn progress_stage(&self, stage: usize) {
        self.move_to(|at| (at.stage, at.ops) = (Some(stage), at.ops + 1));
    }

    // ------------------------------------------------------------------
    // Tracing plane: record cycle-timestamped events into this PE's ring,
    // which lives in its tally.
    // Every instrumented site pays one untaken branch when tracing is off
    // and never touches the simulated clock either way.
    // ------------------------------------------------------------------

    /// Start stamp for a traced operation: `Some(current cycle)` when
    /// tracing is on, `None` (making the paired [`Pe::trace_emit`] a
    /// no-op) when off.
    #[inline]
    pub(crate) fn trace_start(&self) -> Option<u64> {
        self.shared.trace.then(|| self.clock.cycles())
    }

    /// Record an event spanning `start`..now. No-op when `start` is `None`
    /// (tracing off) or once the fabric is poisoned, so a watchdog
    /// report's recent events end where it fired.
    #[inline]
    pub(crate) fn trace_emit(
        &self,
        start: Option<u64>,
        kind: TraceKind,
        peer: Option<usize>,
        bytes: u64,
        aux: u64,
    ) {
        let Some(cycle_start) = start else { return };
        if self.shared.poisoned.load(Ordering::Relaxed) {
            return;
        }
        let at = self.position.get();
        let ev = TraceEvent {
            cycle_start,
            cycle_end: self.clock.cycles().max(cycle_start),
            pe: self.rank,
            kind,
            collective: at.collective,
            episode: self.trace_episode.get(),
            stage: at.stage.map(|s| s as u32),
            peer,
            bytes,
            aux,
        };
        if let Some(ring) = &mut self.tally.borrow_mut().trace {
            ring.record(ev);
        }
    }

    /// Trip the watchdog on a wedge or an elapsed window: record a
    /// whole-fabric DeadlockReport (first detector wins), poison the
    /// fabric so peers unwind, and panic. The report is completed and
    /// rendered after the join ([`Fabric::run`]).
    fn watchdog_trip(&self, wedged: bool) -> ! {
        let report = self.shared.probe(self.rank, wedged);
        {
            let mut slot = self.shared.deadlock.lock().unwrap();
            if slot.is_none() {
                *slot = Some(report);
            }
        }
        self.shared.poisoned.store(true, Ordering::Release);
        // Parked peers cannot observe the poison flag until they run
        // again; hand every one of them a slot so they unwind promptly.
        self.shared.coop.unpark_all(self.rank);
        panic!("PE {}: watchdog tripped", self.rank);
    }

    /// One step of a blocked fabric wait (barrier, signal, executor
    /// drain), after the caller has re-checked its condition: park, so
    /// the worker slot goes to a runnable PE and this PE wakes when a peer
    /// unparks it. Parking may return spuriously (consumed unpark token,
    /// poison wake); the caller's loop re-checks its condition either way.
    /// A wait the scheduler cannot park (every other PE parked or
    /// finished, nothing runnable) is a structural deadlock — nothing
    /// outside the PEs can raise a slot — and trips the watchdog at once
    /// rather than after the full window.
    fn wait_step(&self, site: WaitSite) {
        match self.shared.coop.park(self.rank, site) {
            Park::Granted => {}
            Park::Wedged => self.watchdog_trip(true),
            Park::TimedOut => self.watchdog_trip(false),
        }
    }

    /// This PE's rank (`xbrtime_mype`).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of PEs in the job (`xbrtime_num_pes`).
    #[inline]
    pub fn n_pes(&self) -> usize {
        self.shared.n_pes
    }

    /// The active timing configuration.
    pub fn timing(&self) -> &TimingConfig {
        self.clock.config()
    }

    /// The physical topology, if one was configured.
    pub fn topology(&self) -> Option<Topology> {
        self.clock.topology()
    }

    /// Current simulated cycle count of this PE.
    pub fn cycles(&self) -> u64 {
        self.clock.cycles()
    }

    /// Add `c` simulated cycles (for app kernels to charge compute work).
    pub fn charge(&self, c: u64) {
        self.clock.charge(c);
    }

    /// Snapshot of this PE's (L1, L2, TLB) simulation statistics —
    /// useful when analysing why a workload's simulated time behaves as
    /// it does (e.g. the Figure 4 cache-locality mechanism).
    pub fn mem_stats(&self) -> (CacheStats, CacheStats, TlbStats) {
        self.clock.mem_stats()
    }

    // ------------------------------------------------------------------
    // Symmetric allocation
    // ------------------------------------------------------------------

    /// Allocate `nelems` elements of `T` in the symmetric shared segment
    /// (`xbrtime_malloc`). Collective: every PE must call in the same order.
    ///
    /// # Panics
    /// Panics when the symmetric heap is exhausted; use
    /// [`Pe::try_shared_malloc`] for fallible allocation.
    pub fn shared_malloc<T: XbrType>(&self, nelems: usize) -> SymmAlloc<T> {
        self.try_shared_malloc(nelems)
            .unwrap_or_else(|e| panic!("PE {}: {e}", self.rank))
    }

    /// Fallible variant of [`Pe::shared_malloc`]. Still collective: every
    /// PE must make the same call and observe the same outcome (the
    /// allocators are deterministic, so they do).
    pub fn try_shared_malloc<T: XbrType>(
        &self,
        nelems: usize,
    ) -> Result<SymmAlloc<T>, crate::heap::AllocError> {
        let bytes = nelems * std::mem::size_of::<T>();
        let off = self.allocator.borrow_mut().alloc(bytes)?;
        self.clock.alloc();
        Ok(SymmAlloc {
            off,
            nelems,
            _m: PhantomData,
        })
    }

    /// Bytes currently allocated in this PE's symmetric segment.
    pub fn heap_in_use(&self) -> usize {
        self.allocator.borrow().in_use()
    }

    /// Capacity of this PE's symmetric segment in bytes.
    pub fn heap_capacity(&self) -> usize {
        self.allocator.borrow().capacity()
    }

    /// Release a symmetric allocation (`xbrtime_free`). Collective, like
    /// [`Pe::shared_malloc`].
    pub fn shared_free<T: XbrType>(&self, alloc: SymmAlloc<T>) {
        let bytes = alloc.nelems * std::mem::size_of::<T>();
        self.allocator.borrow_mut().free(alloc.off, bytes);
        self.clock.free();
    }

    // ------------------------------------------------------------------
    // Local symmetric-heap access
    // ------------------------------------------------------------------

    fn my_heap(&self) -> &HeapData {
        &self.shared.heaps[self.rank]
    }

    /// Store one element into this PE's own shared segment.
    pub fn heap_store<T: XbrType>(&self, dest: SymmRef<T>, v: T) {
        self.heap_fill(dest, 1, |_| v);
    }

    /// Load one element from this PE's own shared segment.
    pub fn heap_load<T: XbrType>(&self, src: SymmRef<T>) -> T {
        src.check_span(1, 1);
        self.clock.heap(src.off, std::mem::size_of::<T>());
        let mut v = T::default();
        // SAFETY: `v` is valid for its size; the span was checked above.
        unsafe {
            self.my_heap().read_into(
                src.off,
                &mut v as *mut T as *mut u8,
                std::mem::size_of::<T>(),
            );
        }
        v
    }

    /// Write a contiguous slice into this PE's own shared segment.
    pub fn heap_write<T: XbrType>(&self, dest: SymmRef<T>, vals: &[T]) {
        self.heap_write_strided(dest, vals, vals.len(), 1);
    }

    /// Write `f(i)` into element `i` of `dest` for `i < n`, straight
    /// into this PE's own shared segment: [`Pe::heap_write`] of the same
    /// values, checked and priced alike, without building them first.
    /// `f` may run while the segment is locked, so it must not touch the
    /// fabric.
    pub fn heap_fill<T: XbrType>(&self, dest: SymmRef<T>, n: usize, mut f: impl FnMut(usize) -> T) {
        dest.check_span(n, 1);
        self.clock.heap(dest.off, walk_span(n, 1) * size_of::<T>());
        self.my_heap().fill(dest.off, n * size_of::<T>(), |d| {
            // SAFETY: the heap checked that the `n` elements at `d` lie
            // inside it, and `HEAP_ALIGN` aligns them for `T`.
            (0..n).for_each(|i| unsafe { d.cast::<T>().add(i).write(f(i)) })
        });
    }

    /// Write `nelems` elements at `stride` (in both the source slice and the
    /// destination) into this PE's own shared segment.
    pub fn heap_write_strided<T: XbrType>(
        &self,
        dest: SymmRef<T>,
        vals: &[T],
        nelems: usize,
        stride: usize,
    ) {
        dest.check_span(nelems, stride);
        check_src(vals.len(), nelems, stride);
        let es = std::mem::size_of::<T>();
        let heap = self.my_heap();
        self.clock.heap(dest.off, walk_span(nelems, stride) * es);
        let src = vals.as_ptr() as *const u8;
        // SAFETY: `check_src` bounds every run inside `vals`.
        strided_runs(nelems, stride, es, |at, n| unsafe {
            heap.write_from(dest.off + at, src.add(at), n)
        });
    }

    /// Read `nelems` contiguous elements from this PE's own shared segment.
    pub fn heap_read_vec<T: XbrType>(&self, src: SymmRef<T>, nelems: usize) -> Vec<T> {
        let mut out = vec![T::default(); nelems];
        self.heap_read_strided(src, &mut out, nelems, 1);
        out
    }

    /// Read `nelems` elements at `stride` from this PE's own shared segment.
    pub fn heap_read_strided<T: XbrType>(
        &self,
        src: SymmRef<T>,
        out: &mut [T],
        nelems: usize,
        stride: usize,
    ) {
        src.check_span(nelems, stride);
        check_src(out.len(), nelems, stride);
        let es = std::mem::size_of::<T>();
        let heap = self.my_heap();
        self.clock.heap(src.off, walk_span(nelems, stride) * es);
        let dst = out.as_mut_ptr() as *mut u8;
        // SAFETY: `check_src` bounds every run inside `out`.
        strided_runs(nelems, stride, es, |at, n| unsafe {
            heap.read_into(src.off + at, dst.add(at), n)
        });
    }

    /// Fold `with[j·stride]` into element `j·stride` of this PE's own
    /// shared segment at `dst`, in place: `dst = f(dst, with)` for
    /// `nelems` elements, as one call of `fold`'s loop. Charged as the
    /// read-modify-write it models — a walk of the (never empty) window,
    /// one ALU op per element, and the walk back.
    pub(crate) fn heap_fold<T: XbrType>(
        &self,
        dst: SymmRef<T>,
        with: &[T],
        nelems: usize,
        stride: usize,
        fold: &dyn FoldKernel<T>,
    ) {
        let window = walk_span(nelems, stride);
        dst.check_span(window, 1);
        let es = std::mem::size_of::<T>();
        self.clock.heap(dst.off, window * es);
        let mine = self.my_heap().window("fold", dst.off, window * es) as *mut T;
        // SAFETY: `span(nelems, stride) <= window` elements at `mine` lie
        // inside the bounds-checked heap window.
        unsafe { fold.fold_loop(mine, with, nelems, stride) };
        self.clock.fold(nelems);
        self.clock.heap(dst.off, window * es);
    }

    // ------------------------------------------------------------------
    // One-sided transfers
    // ------------------------------------------------------------------

    fn note_transfer(&self, target: usize, bytes: usize, is_put: bool, nonblocking: bool) {
        let s = &mut self.tally.borrow_mut().stats;
        match (is_put, nonblocking) {
            (true, false) => s.puts += 1,
            (true, true) => s.nb_puts += 1,
            (false, false) => s.gets += 1,
            (false, true) => s.nb_gets += 1,
        }
        if is_put {
            s.bytes_put += bytes as u64;
        } else {
            s.bytes_get += bytes as u64;
        }
        if target == self.rank {
            s.local_transfers += 1;
        } else {
            s.remote_transfers += 1;
        }
        self.progress_tick();
    }

    /// The one transfer body behind every put and get: move `nelems`
    /// elements at `stride` between `local` (this PE's end) and `remote` on
    /// PE `pe` — outward when `push`, inward otherwise — and return the
    /// simulated cycle at which the data has landed.
    ///
    /// Blocking (`!nb`) walks the local end, and for `pe == rank` the
    /// remote end, then the clock prices the rest; it has absorbed the
    /// whole transfer on return. Non-blocking walks only a self-transfer's
    /// remote end, and the returned stamp lies in the future: the caller
    /// owes it a [`Pe::track`] on the stream that will complete it. Its
    /// private end is *not* walked, by design: the element loop runs off
    /// this PE's critical path (its overhead is in the stamp, not on the
    /// clock), so the core's TLB and caches never see those bytes, and the
    /// data's memory side is the crossing's `mem_cycles` (DESIGN.md §6).
    ///
    /// Always inlined: under each public name `local`'s variant, `push` and
    /// `nb` are constants, and the name compiles to its own straight-line
    /// body.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transfer<T: XbrType>(
        &self,
        local: Local<'_, T>,
        remote: SymmRef<T>,
        nelems: usize,
        stride: usize,
        pe: usize,
        push: bool,
        nb: bool,
    ) -> u64 {
        let t0 = self.trace_start();
        self.fault_yield();
        remote.check_span(nelems, stride);
        let es = std::mem::size_of::<T>();
        let bytes = nelems * es;
        let window = walk_span(nelems, stride) * es;
        // The local end resolved to where it is copied and what is walked.
        enum End {
            Heap(usize),
            Private(*mut u8),
        }
        let private = |p: *mut T, len: usize| {
            check_src(len, nelems, stride);
            (End::Private(p as *mut u8), window.min(len * es))
        };
        let (end, walk_len) = match local {
            Local::Heap(r) => {
                r.check_span(nelems, stride);
                (End::Heap(r.off), window)
            }
            Local::Src(s) => {
                assert!(push, "a get cannot land in a read-only slice");
                private(s.as_ptr() as *mut T, s.len())
            }
            Local::Dst(d) => private(d.as_mut_ptr(), d.len()),
        };
        if !nb {
            match end {
                End::Heap(off) => self.clock.heap(off, walk_len),
                End::Private(p) => self.clock.local(p, walk_len),
            }
        }
        if pe == self.rank {
            self.clock.heap(remote.off, window);
        }
        let done = self.clock.transfer(pe, bytes, nelems, nb);

        let (mine, theirs) = (self.my_heap(), &self.shared.heaps[pe]);
        // SAFETY: `check_src` bounds every run inside a private slice (and
        // only `Dst`, a `&mut`, is ever written); the heaps check their own.
        strided_runs(nelems, stride, es, |at, n| unsafe {
            match (&end, push) {
                (End::Heap(off), true) => mine.copy_to(off + at, theirs, remote.off + at, n),
                (End::Heap(off), false) => theirs.copy_to(remote.off + at, mine, off + at, n),
                (End::Private(p), true) => theirs.write_from(remote.off + at, p.add(at), n),
                (End::Private(p), false) => theirs.read_into(remote.off + at, p.add(at), n),
            }
        });
        self.note_transfer(pe, bytes, push, nb);
        let kind = match (push, nb) {
            (true, false) => TraceKind::Put,
            (true, true) => TraceKind::PutNb,
            (false, false) => TraceKind::Get,
            (false, true) => TraceKind::GetNb,
        };
        self.trace_emit(t0, kind, Some(pe), bytes as u64, if nb { done } else { 0 });
        done
    }

    /// Copy `nelems` elements from a local slice into `dest` on PE `pe`
    /// (`xbrtime_TYPENAME_put`): elements are taken from `src[i*stride]` and
    /// land at `dest[i*stride]` on the target.
    pub fn put<T: XbrType>(
        &self,
        dest: SymmRef<T>,
        src: &[T],
        nelems: usize,
        stride: usize,
        pe: usize,
    ) {
        self.transfer(Local::Src(src), dest, nelems, stride, pe, true, false);
    }

    /// Copy `nelems` elements from `src` on PE `pe` into a local slice
    /// (`xbrtime_TYPENAME_get`), honouring `stride` on both sides.
    pub fn get<T: XbrType>(
        &self,
        dest: &mut [T],
        src: SymmRef<T>,
        nelems: usize,
        stride: usize,
        pe: usize,
    ) {
        self.transfer(Local::Dst(dest), src, nelems, stride, pe, false, false);
    }

    /// Hint the host CPU to start loading `at`'s element on PE `pe`
    /// ahead of the `get`, load or AMO that will touch it. Bounds-checked
    /// like [`Pe::get`], and nothing else: no cycle is charged, no counter
    /// or trace event recorded, no fault rolled and no demand-zero byte
    /// touched, so no simulated outcome can observe the hint.
    #[inline]
    pub fn host_prefetch<T: XbrType>(&self, at: SymmRef<T>, pe: usize) {
        at.check_span(1, 1);
        self.shared.heaps[pe].prefetch(at.off, std::mem::size_of::<T>());
    }

    /// One-sided put whose source is this PE's *own shared segment* —
    /// the heap-to-heap form the tree collectives use at interior stages.
    pub fn put_symm<T: XbrType>(
        &self,
        dest: SymmRef<T>,
        src: SymmRef<T>,
        nelems: usize,
        stride: usize,
        pe: usize,
    ) {
        self.transfer(Local::Heap(src), dest, nelems, stride, pe, true, false);
    }

    /// One-sided get whose destination is this PE's own shared segment.
    pub fn get_symm<T: XbrType>(
        &self,
        dest: SymmRef<T>,
        src: SymmRef<T>,
        nelems: usize,
        stride: usize,
        pe: usize,
    ) {
        self.transfer(Local::Heap(dest), src, nelems, stride, pe, false, false);
    }

    /// Hand out the handle of a non-blocking transfer landing at
    /// `completion_cycles` and track it on `stream` (the PE's default
    /// stream, [`Pe::outstanding`], or a [`Context`]'s own) until a
    /// `wait`/`quiet` there absorbs it into the clock.
    #[inline]
    pub(crate) fn track(&self, stream: &Stream, completion_cycles: u64) -> NbHandle {
        stream.pending.set(stream.pending.get() + 1);
        stream
            .latest
            .set(stream.latest.get().max(completion_cycles));
        NbHandle { completion_cycles }
    }

    /// Complete every transfer tracked on `stream`: advance the clock to
    /// the latest completion, then clear the stream. A transfer already
    /// [`Pe::wait`]ed on stays in `latest`, which the clock has reached.
    fn quiesce(&self, stream: &Stream) {
        self.clock.advance_to(stream.latest.take());
        stream.pending.set(0);
    }

    /// Non-blocking put (`xbrtime_TYPENAME_put_nb`): the transfer is issued
    /// immediately; its latency is absorbed when [`Pe::wait`]ed on, modelling
    /// communication/computation overlap.
    ///
    /// The caller must not modify `src`'s bytes until the handle completes.
    pub fn put_nb<T: XbrType>(
        &self,
        dest: SymmRef<T>,
        src: &[T],
        nelems: usize,
        stride: usize,
        pe: usize,
    ) -> NbHandle {
        let done = self.transfer(Local::Src(src), dest, nelems, stride, pe, true, true);
        self.track(&self.outstanding, done)
    }

    /// Non-blocking get; see [`Pe::put_nb`].
    ///
    /// The destination slice is filled immediately in wall-clock terms, but
    /// in simulated time the data is only guaranteed present after
    /// [`Pe::wait`] — reading it earlier is a program bug the timing model
    /// cannot see.
    pub fn get_nb<T: XbrType>(
        &self,
        dest: &mut [T],
        src: SymmRef<T>,
        nelems: usize,
        stride: usize,
        pe: usize,
    ) -> NbHandle {
        let done = self.transfer(Local::Dst(dest), src, nelems, stride, pe, false, true);
        self.track(&self.outstanding, done)
    }

    /// Complete one non-blocking transfer: simulated time advances to at
    /// least the transfer's completion time.
    pub fn wait(&self, h: NbHandle) {
        self.clock.advance_to(h.completion_cycles);
    }

    /// Complete all outstanding non-blocking transfers (`quiet`).
    pub fn quiet(&self) {
        self.quiesce(&self.outstanding);
    }

    // ------------------------------------------------------------------
    // Communication contexts
    // ------------------------------------------------------------------

    /// Create an independent communication context (the mechanism of
    /// Dinan & Flajslik's "Contexts: a mechanism for high throughput
    /// communication in OpenSHMEM" — the paper's reference \[4\], cited in
    /// §7 for future subset-collective work). Non-blocking transfers
    /// issued on a context complete independently: quiescing one context
    /// does not stall another's pipeline.
    pub fn context(&self) -> Context<'_, 'f> {
        Context {
            pe: self,
            outstanding: Stream::default(),
        }
    }

    // ------------------------------------------------------------------
    // Remote atomics
    // ------------------------------------------------------------------

    /// View a symmetric u64 slot on `pe` as an atomic word.
    ///
    /// # Safety contract
    /// The slot must only be accessed atomically while AMOs target it —
    /// mixing plain puts/gets with concurrent AMOs on the same word is a
    /// data race (the same rule real PGAS atomics impose).
    fn amo_slot(&self, dest: SymmRef<u64>, pe: usize) -> &AtomicU64 {
        dest.check_span(1, 1);
        assert_eq!(dest.off % 8, 0, "AMO target must be 8-byte aligned");
        let ptr = self.shared.heaps[pe].window("amo", dest.off, 8) as *mut u64;
        // SAFETY: in-bounds (window), aligned (assert), and the heap
        // outlives the fabric run. AtomicU64 shares u64's layout.
        unsafe { std::sync::atomic::AtomicU64::from_ptr(ptr) }
    }

    fn amo_charge_at(&self, dest_off: usize, pe: usize) {
        self.clock.amo(pe, dest_off);
        let s = &mut self.tally.borrow_mut().stats;
        s.amos += 1;
        if pe == self.rank {
            s.local_transfers += 1;
        } else {
            s.remote_transfers += 1;
        }
    }

    /// Remote atomic fetch-and-add on a symmetric u64; returns the old
    /// value. One fabric crossing (compare: a get/modify/put needs two).
    pub fn amo_fetch_add(&self, dest: SymmRef<u64>, val: u64, pe: usize) -> u64 {
        self.amo_charge_at(dest.off, pe);
        self.amo_slot(dest, pe).fetch_add(val, Ordering::AcqRel)
    }

    /// Remote atomic fetch-and-xor on a symmetric u64.
    pub fn amo_fetch_xor(&self, dest: SymmRef<u64>, val: u64, pe: usize) -> u64 {
        self.amo_charge_at(dest.off, pe);
        self.amo_slot(dest, pe).fetch_xor(val, Ordering::AcqRel)
    }

    /// Remote atomic swap on a symmetric u64; returns the old value.
    pub fn amo_swap(&self, dest: SymmRef<u64>, val: u64, pe: usize) -> u64 {
        self.amo_charge_at(dest.off, pe);
        self.amo_slot(dest, pe).swap(val, Ordering::AcqRel)
    }

    /// Remote atomic compare-and-swap; returns the value observed (equal
    /// to `expected` iff the swap happened).
    pub fn amo_compare_swap(
        &self,
        dest: SymmRef<u64>,
        expected: u64,
        desired: u64,
        pe: usize,
    ) -> u64 {
        self.amo_charge_at(dest.off, pe);
        match self.amo_slot(dest, pe).compare_exchange(
            expected,
            desired,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(v) | Err(v) => v,
        }
    }

    /// Remote atomic load of a symmetric u64.
    pub fn amo_fetch(&self, dest: SymmRef<u64>, pe: usize) -> u64 {
        self.amo_charge_at(dest.off, pe);
        self.amo_slot(dest, pe).load(Ordering::Acquire)
    }

    // ------------------------------------------------------------------
    // Signaled synchronization (the point-to-point data plane)
    // ------------------------------------------------------------------

    /// The fabric-resident symmetric signal table, grown to hold at least
    /// `min_slots` 8-byte slots. Collective: every PE must call with the
    /// same `min_slots` (derived from the same schedule, so this holds by
    /// construction).
    ///
    /// The first call — and any call that needs growth — allocates
    /// collectively, zeroes this PE's copy and closes with a barrier so no
    /// PE posts into a table a peer has not finished zeroing. Subsequent
    /// calls are barrier-free: callers must leave every slot zero again
    /// when they finish (consume every signal they are sent), which the
    /// executor's drain pass guarantees. The table is deliberately never
    /// freed; it is a few KiB of symmetric heap retained for the run.
    pub fn signal_table(&self, min_slots: usize) -> SymmRef<u64> {
        let mut cached = self.signal_table.borrow_mut();
        let needs_grow = match cached.as_ref() {
            Some(t) => t.len() < min_slots,
            None => true,
        };
        if needs_grow {
            if let Some(old) = cached.take() {
                self.shared_free(old);
            }
            let cap = min_slots.next_power_of_two().max(64);
            let t = self.shared_malloc::<u64>(cap);
            self.heap_write(t.whole(), &vec![0u64; cap]);
            let r = t.whole();
            // Publish the table's location so the watchdog can name slots
            // in a DeadlockReport (collective call: all PEs agree).
            self.shared.sig_off.store(r.off + 1, Ordering::Release);
            self.shared.sig_len.store(cap, Ordering::Release);
            *cached = Some(t);
            drop(cached);
            self.barrier();
            return r;
        }
        cached.as_ref().unwrap().whole()
    }

    /// Current signal-table capacity in slots (0 before the first
    /// [`Pe::signal_table`] call). Lets the nonblocking issue path refuse
    /// an overlap window that would force growth — growth frees the old
    /// table and barriers, both fatal while earlier episodes' completion
    /// signals are live.
    pub(crate) fn signal_table_cap(&self) -> usize {
        self.signal_table.borrow().as_ref().map_or(0, |t| t.len())
    }

    /// Post a completion signal into the symmetric slot `sig` on PE `pe`.
    ///
    /// The flag models a small control word riding the **tail of the
    /// payload's fabric transaction** (put-with-signal), so posting
    /// charges only ALU issue cost locally; the flight latency is carried
    /// by the *arrival stamp* written into the slot — the poster's clock
    /// plus one (topology-scaled) hop of base latency. The waiting PE's
    /// clock advances to that stamp when it consumes the signal
    /// ([`Pe::signal_wait`]), which is how "data can't be observed before
    /// it arrives" is modelled without a global barrier.
    ///
    /// The slot is raised with an atomic `fetch_max`, so a stale (lower)
    /// stamp never overwrites a newer one and a post never erases a
    /// concurrent post.
    pub fn signal_post(&self, sig: SymmRef<u64>, pe: usize) {
        self.signal_post_at(sig, pe, self.clock.cycles() + self.clock.hop(pe));
    }

    /// [`Pe::signal_post`] with an explicit arrival stamp — used to tie a
    /// signal to a non-blocking transfer's completion time
    /// ([`NbHandle::completion_cycles`]).
    pub fn signal_post_at(&self, sig: SymmRef<u64>, pe: usize, arrival: u64) {
        let t0 = self.trace_start();
        self.clock.post();
        // Charge and count the post before any fault branch: a dropped
        // signal was still *issued* by this PE, so telemetry invariants
        // (`signals == signal_waits` once redelivered) stay intact.
        self.tally.borrow_mut().stats.signals += 1;
        self.progress_tick();
        let slot = self.amo_slot(sig, pe);
        let mut arrival = arrival;
        if let Some(f) = self.faults {
            // Drop: the flag transaction is lost in the fabric. With
            // redelivery configured the retransmitted word arrives
            // `signal_redeliver_after_cycles` late: a later arrival stamp
            // on a slot raised now, so redelivery never waits for any PE
            // to run again. Without, the post is gone (the trace still
            // shows what this PE *did*) and only the watchdog can name the
            // resulting hang.
            if self.fault_roll(f.signal_drop_permille) {
                self.tally.borrow_mut().stats.signals_dropped += 1;
                if f.signal_redeliver_after_cycles == 0 {
                    self.trace_emit(t0, TraceKind::SignalPost, Some(pe), 8, sig.off as u64);
                    return;
                }
                arrival = arrival.saturating_add(f.signal_redeliver_after_cycles);
            } else {
                // Delay: other PEs may run before the flag is raised (the
                // arrival *stamp* is unchanged, so simulated time is not).
                self.fault_yield();
            }
        }
        // `.max(1)`: zero means "not yet posted", so a signal posted at
        // simulated time 0 must still read as present.
        slot.fetch_max(arrival.max(1), Ordering::AcqRel);
        // The waiter may be parked in the scheduler; make it runnable
        // (or latch its token — see `CoopSched::unpark`).
        self.shared.coop.unpark(pe);
        self.trace_emit(t0, TraceKind::SignalPost, Some(pe), 8, sig.off as u64);
    }

    /// Block until the **local** signal slot `sig` is posted, consume it
    /// (reset to zero), and advance this PE's simulated clock to the
    /// posted arrival stamp. Returns the simulated cycles this PE stalled
    /// waiting (zero when the signal had already arrived in simulated
    /// time — the overlap case).
    ///
    /// Like [`Pe::barrier`], the spin aborts with a panic if a peer PE
    /// panicked, so a dead producer cannot deadlock the waiter; and it is
    /// bounded by the configured watchdog ([`FabricConfig::with_watchdog`]),
    /// which trips with a [`DeadlockReport`] naming this PE and slot.
    pub fn signal_wait(&self, sig: SymmRef<u64>) -> u64 {
        let t0 = self.trace_start();
        let slot = self.amo_slot(sig, self.rank);
        loop {
            let stamp = slot.swap(0, Ordering::AcqRel);
            if stamp != 0 {
                self.tally.borrow_mut().stats.signal_waits += 1;
                self.progress_tick();
                let stalled = self.clock.advance_to(stamp);
                self.trace_emit(t0, TraceKind::SignalWait, None, 8, sig.off as u64);
                return stalled;
            }
            if self.shared.poisoned.load(Ordering::Relaxed) {
                panic!(
                    "PE {}: a peer PE panicked while this PE waited on a signal",
                    self.rank
                );
            }
            self.wait_step(WaitSite::Signal { off: sig.off });
        }
    }

    /// Non-consuming probe of a **local** signal slot: `true` when a post
    /// has arrived. Unlike [`Pe::signal_wait`] this never blocks, resets
    /// nothing and does not advance the simulated clock — it is the
    /// polling half of `CollHandle::test`.
    pub fn signal_peek(&self, sig: SymmRef<u64>) -> bool {
        self.amo_slot(sig, self.rank).load(Ordering::Acquire) != 0
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// Block until every PE reaches the barrier (`xbrtime_barrier`).
    ///
    /// Simulated clocks synchronise: every PE leaves at the maximum arrival
    /// time plus a dissemination-barrier cost of `⌈log2 n⌉` fabric rounds.
    pub fn barrier(&self) {
        let t0 = self.trace_start();
        self.fault_yield();
        let b = &self.shared.barrier;
        let gen = b.generation.load(Ordering::Acquire);
        let slot = gen & 1;
        b.max_cycles[slot].fetch_max(self.clock.cycles(), Ordering::AcqRel);
        // Implicit completion of outstanding non-blocking ops at a barrier.
        self.quiet();
        b.max_cycles[slot].fetch_max(self.clock.cycles(), Ordering::AcqRel);

        if b.count.fetch_add(1, Ordering::AcqRel) + 1 == self.shared.n_pes {
            b.count.store(0, Ordering::Release);
            b.max_cycles[(gen + 1) & 1].store(0, Ordering::Release);
            b.generation.store(gen.wrapping_add(1), Ordering::Release);
            // Release wave: every waiter parked in the scheduler becomes
            // runnable (PEs that checked the generation but have not
            // parked yet get their token latched instead — no release is
            // ever lost).
            self.shared.coop.unpark_all(self.rank);
        } else {
            while b.generation.load(Ordering::Acquire) == gen {
                if self.shared.poisoned.load(Ordering::Relaxed) {
                    panic!(
                        "PE {}: a peer PE panicked while this PE waited at a barrier",
                        self.rank
                    );
                }
                self.wait_step(WaitSite::Barrier);
            }
        }
        // Every PE crosses every barrier; rank 0 counts it.
        if self.rank == 0 {
            self.tally.borrow_mut().stats.barriers += 1;
        }
        self.progress_tick();
        self.clock
            .barrier(b.max_cycles[slot].load(Ordering::Acquire));
        // `aux` = generation: the critical-path analyzer groups the PEs of
        // one barrier episode by it to model the release wave.
        self.trace_emit(t0, TraceKind::Barrier, None, 0, gen as u64);
    }

    /// Record this PE's share of one `kind` episode: the plan's static
    /// counts `t` plus the `cycles` it spent in the executor, `wait_cycles`
    /// of them stalled on signals. `calls` and `stages` are counted by
    /// the episode's `lead` rank only (see [`CollectiveRecord`]).
    pub(crate) fn note_collective(
        &self,
        kind: CollectiveKind,
        lead: usize,
        t: &SampleTemplate,
        cycles: u64,
        wait_cycles: u64,
    ) {
        let r = &mut self.tally.borrow_mut().coll[kind.index()];
        if self.rank == lead {
            r.calls += 1;
            r.stages += t.stages;
        }
        r.puts += t.puts;
        r.gets += t.gets;
        r.bytes_put += t.bytes_put;
        r.bytes_get += t.bytes_get;
        r.cycles += cycles;
        r.signals += t.signals;
        r.waits += t.waits;
        r.wait_cycles += wait_cycles;
    }
}

/// An independent stream of non-blocking transfers (see [`Pe::context`]).
///
/// Each context tracks its own outstanding operations; [`Context::quiet`]
/// completes only this context's transfers. The PE-level [`Pe::quiet`] and
/// [`Pe::barrier`] do **not** complete context-issued transfers — contexts
/// must be quiesced explicitly, as in OpenSHMEM 1.4.
pub struct Context<'p, 'f> {
    pe: &'p Pe<'f>,
    outstanding: Stream,
}

impl Context<'_, '_> {
    /// Non-blocking put on this context.
    pub fn put_nb<T: XbrType>(
        &self,
        dest: SymmRef<T>,
        src: &[T],
        nelems: usize,
        stride: usize,
        pe: usize,
    ) -> NbHandle {
        let done = self
            .pe
            .transfer(Local::Src(src), dest, nelems, stride, pe, true, true);
        self.pe.track(&self.outstanding, done)
    }

    /// Non-blocking get on this context.
    pub fn get_nb<T: XbrType>(
        &self,
        dest: &mut [T],
        src: SymmRef<T>,
        nelems: usize,
        stride: usize,
        pe: usize,
    ) -> NbHandle {
        let done = self
            .pe
            .transfer(Local::Dst(dest), src, nelems, stride, pe, false, true);
        self.pe.track(&self.outstanding, done)
    }

    /// Complete every transfer issued on this context.
    pub fn quiet(&self) {
        self.pe.quiesce(&self.outstanding);
    }

    /// Number of transfers still outstanding on this context.
    pub fn pending(&self) -> usize {
        self.outstanding.pending.get()
    }
}

/// Report returned by [`Fabric::run`].
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-PE return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-PE final simulated cycle counts.
    pub cycles: Vec<u64>,
    /// Aggregate communication statistics.
    pub stats: FabricStats,
    /// Per-collective telemetry from the schedule executor, one row per
    /// [`CollectiveKind`] that was exercised (empty if no collective ran),
    /// deterministically ordered by kind ([`CollectiveKind::ALL`] order).
    pub collectives: Vec<CollectiveRecord>,
    /// Host wall-clock duration of the run.
    pub wall: Duration,
    /// The merged event log when the run was traced
    /// ([`FabricConfig::with_trace`]); `None` otherwise.
    pub trace: Option<Trace>,
    /// The scheduler's grant sequence (PE ranks in the order they were
    /// granted worker slots), capped at 1 Mi entries. With one worker and
    /// a fixed seed this is the complete, deterministic schedule of the
    /// run — the golden-seed determinism test pins it down.
    pub sched_log: Vec<u32>,
    /// Compiled-plan cache telemetry (hits, misses, resident plans and
    /// bytes). Always `Some`: every fabric has a plan cache.
    pub plan_cache: Option<crate::collectives::PlanCacheStats>,
}

impl<R> RunReport<R> {
    /// Telemetry row for `kind`, if that collective ran.
    pub fn collective(&self, kind: CollectiveKind) -> Option<&CollectiveRecord> {
        self.collectives.iter().find(|r| r.kind == kind)
    }
    /// The simulated makespan: the maximum cycle count over PEs.
    pub fn makespan_cycles(&self) -> u64 {
        self.cycles.iter().copied().max().unwrap_or(0)
    }
}

/// Entry point: runs `body` SPMD on `config.n_pes` PEs, each a coroutine
/// on one of the engine's worker threads (see [`crate::engine`]).
pub struct Fabric;

struct PoisonGuard<'a>(&'a Shared);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Relaxed);
            // Parked peers can only see the poison flag once they run:
            // grant everyone a slot. Runs after the CoopFinishGuard has
            // already freed this PE's own slot (guard declaration order),
            // so at least one peer is granted immediately.
            self.0.coop.unpark_all(usize::MAX);
        }
    }
}

/// Deregisters a cooperative PE on the way out — normal return *or*
/// unwind — so its worker slot is handed to a successor either way.
struct CoopFinishGuard<'a> {
    sched: &'a CoopSched,
    rank: usize,
}

impl Drop for CoopFinishGuard<'_> {
    fn drop(&mut self) {
        self.sched.finish(self.rank);
    }
}

impl Fabric {
    /// Launch `config.n_pes` PEs, run `body` on each, and collect
    /// per-PE results, simulated cycles and fabric statistics.
    ///
    /// # Panics
    /// Propagates the first PE panic (peers waiting at a barrier are
    /// released with a poison panic rather than deadlocking). A watchdog
    /// timeout panics with the rendered [`DeadlockReport`]; use
    /// [`Fabric::try_run`] to receive it as a value instead.
    pub fn run<F, R>(config: FabricConfig, body: F) -> RunReport<R>
    where
        F: Fn(&Pe) -> R + Sync,
        R: Send,
    {
        match Self::run_impl(config, body) {
            Ok(report) => report,
            Err((Some(report), _)) => panic!("PE {}: watchdog: {report}", report.detector),
            Err((None, payload)) => std::panic::resume_unwind(payload),
        }
    }

    /// Like [`Fabric::run`], but returns failures as values: a watchdog
    /// timeout yields [`RunError::Deadlock`] carrying the structured
    /// [`DeadlockReport`], and any other PE panic yields
    /// [`RunError::Panic`] with its message.
    pub fn try_run<F, R>(config: FabricConfig, body: F) -> Result<RunReport<R>, RunError>
    where
        F: Fn(&Pe) -> R + Sync,
        R: Send,
    {
        match Self::run_impl(config, body) {
            Ok(report) => Ok(report),
            Err((Some(report), _)) => Err(RunError::Deadlock(report)),
            Err((None, payload)) => {
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(RunError::Panic(msg))
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn run_impl<F, R>(
        config: FabricConfig,
        body: F,
    ) -> Result<RunReport<R>, (Option<DeadlockReport>, Box<dyn std::any::Any + Send>)>
    where
        F: Fn(&Pe) -> R + Sync,
        R: Send,
    {
        assert!(config.n_pes > 0, "fabric needs at least one PE");
        if let Some(t) = config.topology {
            assert!(
                t.pes_per_node > 0,
                "fabric topology invalid: pes_per_node must be at least 1"
            );
        }
        let shared = Shared::new(&config);
        let start = Instant::now();
        let per_pe = shared.coop.run(|rank| {
            let _guard = PoisonGuard(&shared);
            // A PE is first resumed holding a slot, and frees it on return
            // or unwind (the finish guard drops before the poison guard).
            let _finish = CoopFinishGuard {
                sched: &shared.coop,
                rank,
            };
            let pe = Pe::new(rank, &shared, &config);
            let r = body(&pe);
            (r, pe.clock.cycles())
        });
        let wall = start.elapsed();
        // Every PE has stopped, so no tally is written any more. A PE that
        // panicked poisoned its slot's lock; what it recorded still stands,
        // since each update is one `+=` or one ring push.
        let tallies = shared.tallies.into_iter().map(|t| {
            t.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .into_inner()
        });
        let per_pe = match per_pe {
            Ok(v) => v,
            Err(mut panics) => {
                let mut report = shared.deadlock.lock().unwrap().take();
                if let Some(report) = &mut report {
                    for (probe, t) in report.pes.iter_mut().zip(tallies) {
                        probe.collective = t.position.collective;
                        probe.stage = t.position.stage;
                        probe.progress_ops = t.position.ops;
                        if let Some(ring) = &t.trace {
                            probe.recent_events = ring.recent(DEADLOCK_RECENT_EVENTS);
                        }
                    }
                }
                return Err((report, panics.swap_remove(0).1));
            }
        };
        let mut results = Vec::with_capacity(config.n_pes);
        let mut cycles = Vec::with_capacity(config.n_pes);
        let mut tally = Tally::default();
        let mut rings = Vec::new();
        for ((r, c), t) in per_pe.into_iter().zip(tallies) {
            results.push(r);
            cycles.push(c);
            tally.stats.add(&t.stats);
            for (row, o) in tally.coll.iter_mut().zip(&t.coll) {
                row.add(o);
            }
            rings.extend(t.trace.map(|r| *r));
        }
        Ok(RunReport {
            results,
            cycles,
            stats: tally.stats,
            collectives: (tally.coll.into_iter().zip(CollectiveKind::ALL))
                .filter(|(r, _)| r.calls > 0)
                .map(|(r, kind)| CollectiveRecord { kind, ..r })
                .collect(),
            wall,
            trace: shared.trace.then(|| Trace::merge(rings)),
            sched_log: shared.coop.take_log(),
            plan_cache: Some(shared.plan_cache.stats()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(7), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    /// Outside any collective a PE has no stage: neither its report row
    /// nor its trace events carry one.
    #[test]
    fn no_stage_outside_a_collective() {
        let cfg = FabricConfig::new(2)
            .with_engine(EngineConfig::coop().with_workers(1))
            .with_trace();
        let result = Fabric::try_run(cfg, |pe| {
            pe.barrier();
            let table = pe.signal_table(2);
            pe.signal_wait(table.offset(pe.rank()));
        });
        let Err(RunError::Deadlock(report)) = result else {
            panic!("expected a deadlock");
        };
        for p in &report.pes {
            assert_eq!((p.collective, p.stage), (None, None), "{report}");
            assert!(!p.recent_events.is_empty(), "{report}");
            assert!(
                p.recent_events.iter().all(|e| e.stage.is_none()),
                "{report}"
            );
        }
    }

    #[test]
    fn ranks_and_sizes() {
        let report = Fabric::run(FabricConfig::new(4), |pe| (pe.rank(), pe.n_pes()));
        assert_eq!(report.results, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn symmetric_offsets_match_across_pes() {
        let report = Fabric::run(FabricConfig::new(3), |pe| {
            let a = pe.shared_malloc::<u64>(10);
            let b = pe.shared_malloc::<u32>(7);
            (a.off, b.off)
        });
        assert!(report.results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn put_get_roundtrip_across_pes() {
        let report = Fabric::run(FabricConfig::new(2), |pe| {
            let buf = pe.shared_malloc::<u64>(8);
            pe.barrier();
            if pe.rank() == 0 {
                let data: Vec<u64> = (100..108).collect();
                pe.put(buf.whole(), &data, 8, 1, 1);
            }
            pe.barrier();
            if pe.rank() == 1 {
                pe.heap_read_vec(buf.whole(), 8)
            } else {
                vec![]
            }
        });
        assert_eq!(report.results[1], (100..108).collect::<Vec<u64>>());
        assert_eq!(report.stats.puts, 1);
        assert_eq!(report.stats.bytes_put, 64);
        assert_eq!(report.stats.remote_transfers, 1);
    }

    #[test]
    fn strided_put_scatters_elements() {
        let report = Fabric::run(FabricConfig::new(2), |pe| {
            let buf = pe.shared_malloc::<u32>(16);
            // Zero-fill deterministically.
            pe.heap_write(buf.whole(), &[0u32; 16]);
            pe.barrier();
            if pe.rank() == 0 {
                // src stride 2, writing 4 elements at positions 0,2,4,6.
                let src = [1u32, 0, 2, 0, 3, 0, 4, 0];
                pe.put(buf.whole(), &src, 4, 2, 1);
            }
            pe.barrier();
            pe.heap_read_vec(buf.whole(), 8)
        });
        assert_eq!(report.results[1], vec![1, 0, 2, 0, 3, 0, 4, 0]);
    }

    #[test]
    fn strided_get_gathers_elements() {
        let report = Fabric::run(FabricConfig::new(2), |pe| {
            let buf = pe.shared_malloc::<u32>(8);
            let init: Vec<u32> = (0..8).map(|i| i * 10 + pe.rank() as u32).collect();
            pe.heap_write(buf.whole(), &init);
            pe.barrier();
            let mut out = [0u32; 8];
            if pe.rank() == 0 {
                pe.get(&mut out, buf.whole(), 3, 3, 1); // elems 0,3,6 of PE1
            }
            pe.barrier();
            out.to_vec()
        });
        assert_eq!(report.results[0][0], 1);
        assert_eq!(report.results[0][3], 31);
        assert_eq!(report.results[0][6], 61);
        assert_eq!(report.results[0][1], 0); // untouched
    }

    #[test]
    fn put_symm_heap_to_heap() {
        let report = Fabric::run(FabricConfig::new(2), |pe| {
            let buf = pe.shared_malloc::<u64>(4);
            pe.heap_write(buf.whole(), &[pe.rank() as u64 + 1; 4]);
            pe.barrier();
            if pe.rank() == 0 {
                pe.put_symm(buf.whole(), buf.whole(), 4, 1, 1);
            }
            pe.barrier();
            pe.heap_read_vec(buf.whole(), 4)
        });
        assert_eq!(report.results[1], vec![1, 1, 1, 1]); // PE0's values
    }

    #[test]
    fn get_symm_heap_to_heap() {
        let report = Fabric::run(FabricConfig::new(2), |pe| {
            let buf = pe.shared_malloc::<u64>(2);
            let scratch = pe.shared_malloc::<u64>(2);
            pe.heap_write(buf.whole(), &[10 * (pe.rank() as u64 + 1); 2]);
            pe.barrier();
            if pe.rank() == 0 {
                pe.get_symm(scratch.whole(), buf.whole(), 2, 1, 1);
            }
            pe.barrier();
            pe.heap_read_vec(scratch.whole(), 2)
        });
        assert_eq!(report.results[0], vec![20, 20]);
    }

    #[test]
    fn nonblocking_put_completes_at_wait() {
        let report = Fabric::run(
            FabricConfig {
                shared_bytes: 1 << 16,
                ..FabricConfig::paper(2)
            },
            |pe| {
                let buf = pe.shared_malloc::<u64>(64);
                pe.barrier();
                let mut issued_cycles = 0;
                if pe.rank() == 0 {
                    let data = [7u64; 64];
                    let h = pe.put_nb(buf.whole(), &data, 64, 1, 1);
                    issued_cycles = pe.cycles();
                    // Simulate overlapped compute.
                    pe.charge(10);
                    pe.wait(h);
                }
                pe.barrier();
                (pe.heap_read_vec(buf.whole(), 4), issued_cycles, pe.cycles())
            },
        );
        let (ref data, issued, _) = report.results[1];
        let _ = (data, issued);
        let (ref received, issued0, after0) = report.results[0];
        let _ = received;
        // The issue itself was cheap; wait absorbed the transfer latency.
        assert!(after0 > issued0 + 10, "wait should advance the clock");
        assert_eq!(report.results[1].0, vec![7, 7, 7, 7]);
        assert_eq!(report.stats.nb_puts, 1);
    }

    #[test]
    fn quiet_completes_everything() {
        let report = Fabric::run(
            FabricConfig {
                shared_bytes: 1 << 16,
                ..FabricConfig::paper(2)
            },
            |pe| {
                let buf = pe.shared_malloc::<u32>(128);
                pe.barrier();
                if pe.rank() == 0 {
                    let data = [1u32; 128];
                    for chunk in 0..4 {
                        let _ = pe.put_nb(buf.at(chunk * 32), &data[..32], 32, 1, 1);
                    }
                    pe.quiet();
                }
                pe.barrier();
                pe.heap_read_vec(buf.whole(), 128).iter().sum::<u32>()
            },
        );
        assert_eq!(report.results[1], 128);
        assert_eq!(report.stats.nb_puts, 4);
    }

    #[test]
    fn untouched_heap_reads_zero_whoever_touches_it_first() {
        let fab = FabricConfig::paper(2).with_engine(EngineConfig::coop().with_workers(1));
        let report = Fabric::run(fab, |pe| {
            let peer = 1 - pe.rank();
            if pe.rank() == 1 {
                pe.barrier();
            }
            let first = pe.shared_malloc::<u64>(32);
            let second = pe.shared_malloc::<u64>(32);
            if pe.rank() == 0 {
                // PE 1 has allocated neither block yet.
                pe.put(second.whole(), &[9u64; 32], 32, 1, peer);
                pe.barrier();
            }
            let fresh = pe.shared_malloc::<u64>(4);
            let amo_old = pe.amo_fetch_add(fresh.at(0), 5, peer);
            pe.heap_fold(fresh.at(2), &[4u64, 4], 2, 1, &|a: u64, b: u64| a + b);
            pe.barrier();
            (
                pe.heap_read_vec(first.whole(), 32),
                pe.heap_read_vec(second.whole(), 32),
                amo_old,
                pe.heap_read_vec(fresh.whole(), 4),
            )
        });
        let (first, second, ..) = &report.results[1];
        assert_eq!(first, &vec![0u64; 32]);
        assert_eq!(second, &vec![9u64; 32]);
        for (_, _, amo_old, fresh) in &report.results {
            assert_eq!((*amo_old, fresh), (0, &vec![5, 0, 4, 4]));
        }
    }

    #[test]
    fn barrier_synchronises_simulated_clocks() {
        let report = Fabric::run(
            FabricConfig {
                shared_bytes: 1 << 12,
                ..FabricConfig::paper(4)
            },
            |pe| {
                // Skewed arrival.
                pe.charge(1000 * pe.rank() as u64);
                pe.barrier();
                pe.cycles()
            },
        );
        let c0 = report.results[0];
        assert!(
            report.results.iter().all(|&c| c == c0),
            "{:?}",
            report.results
        );
        assert!(c0 >= 3000, "release time must cover the slowest arrival");
    }

    #[test]
    fn barriers_are_reusable_many_times() {
        let report = Fabric::run(FabricConfig::new(3), |pe| {
            let buf = pe.shared_malloc::<u64>(1);
            let mut acc = 0u64;
            for round in 0..50u64 {
                let writer = (round % 3) as usize;
                if pe.rank() == writer {
                    pe.heap_store(buf.whole(), round * 3 + 1);
                }
                pe.barrier();
                // Symmetric segments are per-PE: readers must get the
                // writer's copy one-sidedly.
                let mut v = [0u64];
                pe.get(&mut v, buf.whole(), 1, 1, writer);
                acc = acc.wrapping_add(v[0]);
                pe.barrier();
            }
            acc
        });
        // All PEs read the same sequence of values.
        let expect: u64 = (0..50u64).map(|r| r * 3 + 1).sum();
        assert!(
            report.results.iter().all(|&a| a == expect),
            "{:?}",
            report.results
        );
        assert_eq!(report.stats.barriers, 100);
    }

    #[test]
    fn free_then_realloc_reuses_offsets_symmetrically() {
        let report = Fabric::run(FabricConfig::new(2), |pe| {
            let a = pe.shared_malloc::<u64>(100);
            let a_off = a.off;
            pe.shared_free(a);
            let b = pe.shared_malloc::<u64>(50);
            (a_off, b.off)
        });
        assert_eq!(report.results[0], report.results[1]);
        assert_eq!(report.results[0].0, report.results[0].1); // first-fit reuse
    }

    #[test]
    fn single_pe_degenerates_gracefully() {
        let report = Fabric::run(FabricConfig::new(1), |pe| {
            let buf = pe.shared_malloc::<u64>(4);
            pe.put(buf.whole(), &[9, 9, 9, 9], 4, 1, 0); // "remote" to self
            pe.barrier();
            pe.heap_read_vec(buf.whole(), 4)
        });
        assert_eq!(report.results[0], vec![9, 9, 9, 9]);
        assert_eq!(report.stats.local_transfers, 1);
        assert_eq!(report.stats.remote_transfers, 0);
    }

    #[test]
    fn try_malloc_reports_exhaustion_and_heap_stats_track() {
        let report = Fabric::run(FabricConfig::new(2).with_shared_bytes(1 << 12), |pe| {
            assert_eq!(pe.heap_capacity(), 1 << 12);
            let a = pe.try_shared_malloc::<u64>(256).expect("2 KiB fits");
            assert_eq!(pe.heap_in_use(), 2048);
            let err = pe.try_shared_malloc::<u64>(1024).unwrap_err();
            assert_eq!(err.requested, 8192);
            pe.shared_free(a);
            assert_eq!(pe.heap_in_use(), 0);
            pe.try_shared_malloc::<u64>(512).is_ok()
        });
        assert_eq!(report.results, vec![true, true]);
    }

    #[test]
    #[should_panic]
    fn put_bounds_are_enforced() {
        Fabric::run(FabricConfig::new(1), |pe| {
            let buf = pe.shared_malloc::<u64>(4);
            pe.put(buf.whole(), &[1; 8], 8, 1, 0); // 8 > 4
        });
    }

    #[test]
    #[should_panic]
    fn stride_zero_rejected() {
        Fabric::run(FabricConfig::new(1), |pe| {
            let buf = pe.shared_malloc::<u64>(4);
            pe.put(buf.whole(), &[1; 4], 4, 0, 0);
        });
    }

    #[test]
    fn remote_transfer_charges_fabric_latency() {
        let report = Fabric::run(
            FabricConfig {
                shared_bytes: 1 << 16,
                ..FabricConfig::paper(2)
            },
            |pe| {
                let buf = pe.shared_malloc::<u64>(1);
                pe.barrier();
                // Warm the cache models so the measured put isolates the
                // fabric cost rather than cold-miss noise. PE0 targets its
                // peer (remote); PE1 targets itself (local).
                pe.put(buf.whole(), &[1], 1, 1, 1);
                pe.barrier();
                let before = pe.cycles();
                pe.put(buf.whole(), &[1], 1, 1, 1);
                pe.cycles() - before
            },
        );
        let remote = report.results[0];
        let local = report.results[1];
        assert!(
            remote > local,
            "remote put ({remote}) must cost more than local put ({local})"
        );
    }
}

#[cfg(test)]
mod amo_tests {
    use super::*;

    #[test]
    fn concurrent_fetch_add_loses_nothing() {
        // Every PE increments rank 0's counter 1000 times: the total must
        // be exact — the property plain get/modify/put cannot guarantee.
        let report = Fabric::run(FabricConfig::new(4), |pe| {
            let counter = pe.shared_malloc::<u64>(1);
            pe.heap_store(counter.whole(), 0);
            pe.barrier();
            for _ in 0..1000 {
                pe.amo_fetch_add(counter.whole(), 1, 0);
            }
            pe.barrier();
            pe.heap_load(counter.whole())
        });
        assert_eq!(report.results[0], 4000);
        assert_eq!(report.stats.amos, 4000);
    }

    #[test]
    fn fetch_xor_is_involutive() {
        let report = Fabric::run(FabricConfig::new(2), |pe| {
            let word = pe.shared_malloc::<u64>(1);
            pe.heap_store(word.whole(), 0xAAAA);
            pe.barrier();
            if pe.rank() == 1 {
                let old = pe.amo_fetch_xor(word.whole(), 0xFFFF, 0);
                assert_eq!(old, 0xAAAA);
                pe.amo_fetch_xor(word.whole(), 0xFFFF, 0);
            }
            pe.barrier();
            pe.heap_load(word.whole())
        });
        assert_eq!(report.results[0], 0xAAAA);
    }

    #[test]
    fn compare_swap_only_one_winner() {
        // All PEs race to claim a lock word with CAS; exactly one wins.
        let report = Fabric::run(FabricConfig::new(8), |pe| {
            let lock = pe.shared_malloc::<u64>(1);
            pe.heap_store(lock.whole(), 0);
            pe.barrier();
            let won = pe.amo_compare_swap(lock.whole(), 0, pe.rank() as u64 + 1, 0) == 0;
            pe.barrier();
            (won, pe.amo_fetch(lock.whole(), 0))
        });
        let winners = report.results.iter().filter(|(w, _)| *w).count();
        assert_eq!(winners, 1);
        let holder = report.results[0].1;
        assert!((1..=8).contains(&holder));
        assert!(report.results.iter().all(|&(_, h)| h == holder));
    }

    #[test]
    fn swap_returns_previous() {
        let report = Fabric::run(FabricConfig::new(1), |pe| {
            let w = pe.shared_malloc::<u64>(1);
            pe.heap_store(w.whole(), 7);
            let old = pe.amo_swap(w.whole(), 9, 0);
            (old, pe.heap_load(w.whole()))
        });
        assert_eq!(report.results[0], (7, 9));
    }

    #[test]
    fn remote_amo_costs_one_crossing_not_two() {
        let report = Fabric::run(FabricConfig::paper(2), |pe| {
            let w = pe.shared_malloc::<u64>(1);
            pe.barrier();
            let mut amo_cost = 0;
            let mut getput_cost = 0;
            if pe.rank() == 0 {
                // Warm up both paths.
                pe.amo_fetch_add(w.whole(), 1, 1);
                let mut v = [0u64];
                pe.get(&mut v, w.whole(), 1, 1, 1);
                pe.put(w.whole(), &v, 1, 1, 1);

                let t0 = pe.cycles();
                pe.amo_fetch_add(w.whole(), 1, 1);
                amo_cost = pe.cycles() - t0;

                let t0 = pe.cycles();
                let mut v = [0u64];
                pe.get(&mut v, w.whole(), 1, 1, 1);
                v[0] ^= 1;
                pe.put(w.whole(), &v, 1, 1, 1);
                getput_cost = pe.cycles() - t0;
            }
            pe.barrier();
            (amo_cost, getput_cost)
        });
        let (amo, getput) = report.results[0];
        assert!(
            amo * 3 < getput * 2,
            "one crossing ({amo}) should be well under two ({getput})"
        );
    }
}

#[cfg(test)]
mod context_tests {
    use super::*;

    #[test]
    fn contexts_quiesce_independently() {
        let report = Fabric::run(
            FabricConfig {
                shared_bytes: 1 << 20,
                ..FabricConfig::paper(2)
            },
            |pe| {
                let a = pe.shared_malloc::<u64>(4096);
                let b = pe.shared_malloc::<u64>(4096);
                pe.barrier();
                let mut ok = true;
                if pe.rank() == 0 {
                    let ctx1 = pe.context();
                    let ctx2 = pe.context();
                    let data = vec![1u64; 4096];
                    ctx1.put_nb(a.whole(), &data, 4096, 1, 1);
                    ctx2.put_nb(b.whole(), &data, 4096, 1, 1);
                    assert_eq!(ctx1.pending(), 1);
                    assert_eq!(ctx2.pending(), 1);

                    // Quiescing ctx1 advances the clock only to ctx1's
                    // completion; ctx2 remains pending.
                    ctx1.quiet();
                    ok &= ctx1.pending() == 0 && ctx2.pending() == 1;
                    ctx2.quiet();
                    ok &= ctx2.pending() == 0;
                }
                pe.barrier();
                (ok, pe.heap_load(a.at(0)), pe.heap_load(b.at(0)))
            },
        );
        assert!(report.results[0].0);
        assert_eq!(report.results[1].1, 1);
        assert_eq!(report.results[1].2, 1);
    }

    #[test]
    fn pe_quiet_does_not_complete_context_transfers() {
        let report = Fabric::run(FabricConfig::new(2), |pe| {
            let buf = pe.shared_malloc::<u64>(8);
            pe.barrier();
            let mut pending_after_pe_quiet = 0;
            if pe.rank() == 0 {
                let ctx = pe.context();
                ctx.put_nb(buf.whole(), &[9u64; 8], 8, 1, 1);
                pe.quiet(); // the DEFAULT stream, not the context
                pending_after_pe_quiet = ctx.pending();
                ctx.quiet();
            }
            pe.barrier();
            pending_after_pe_quiet
        });
        assert_eq!(
            report.results[0], 1,
            "PE-level quiet must not quiesce the context (OpenSHMEM 1.4 rule)"
        );
    }

    #[test]
    fn context_overlap_beats_serial_waits() {
        // Two independent streams of transfers overlap their latencies;
        // waiting on each transfer serially pays them back-to-back.
        let run = |use_ctx: bool| {
            let report = Fabric::run(
                FabricConfig {
                    shared_bytes: 1 << 22,
                    ..FabricConfig::paper(2)
                },
                move |pe| {
                    let bufs: Vec<_> = (0..8).map(|_| pe.shared_malloc::<u64>(4096)).collect();
                    let data = vec![3u64; 4096];
                    pe.barrier();
                    let t0 = pe.cycles();
                    if pe.rank() == 0 {
                        if use_ctx {
                            let ctx = pe.context();
                            for b in &bufs {
                                ctx.put_nb(b.whole(), &data, 4096, 1, 1);
                            }
                            ctx.quiet();
                        } else {
                            for b in &bufs {
                                let h = pe.put_nb(b.whole(), &data, 4096, 1, 1);
                                pe.wait(h); // serial waits: no overlap
                            }
                        }
                    }
                    pe.cycles() - t0
                },
            );
            report.results[0]
        };
        let overlapped = run(true);
        let serial = run(false);
        assert!(
            overlapped < serial,
            "overlapped {overlapped} should beat serial {serial}"
        );
    }
}
