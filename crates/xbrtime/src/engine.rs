//! The execution engine: how the fabric maps PEs onto OS resources.
//!
//! Every PE is a stackful coroutine (`crate::coro`) on one of `workers`
//! OS threads: PE `r` lives on worker `r mod workers` for its whole life,
//! and at most `workers` PEs hold a *slot* at any instant. Every blocking
//! primitive in the fabric (barrier, `signal_wait`, executor drains)
//! parks the PE in the `CoopSched` scheduler at its first failed check
//! instead of spinning, and the freed slot is granted to a PE drawn at
//! seeded random from the one ready set. A fault-plane delay is a yield:
//! the PE rejoins that ready set and the same seeded draw decides who
//! runs next. A redelivered signal is only a later arrival stamp, so only
//! a PE ever makes another runnable. A hand-off between two PEs of one
//! worker is a user-space stack switch, not a kernel round trip; a grant
//! to a PE of an idle worker wakes that worker's condvar.
//! 4096-PE collectives run comfortably on a laptop-class host.
//! [`EngineConfig::workers`] picks how the PEs interleave:
//!
//! * `0` (the default) — the host's available parallelism, capped at the
//!   PE count.
//! * `1` — one PE runs at a time and every grant is drawn from the seeded
//!   RNG: a deterministic schedule for a fixed seed, with or without a
//!   fault plane. The grant sequence is exposed as
//!   [`RunReport::sched_log`] so tests can assert schedule equality (see
//!   `tests/coop_determinism.rs`).
//! * `≥ n_pes` — one worker per PE: every PE is runnable and the host
//!   interleaves them, which is what a thread-per-PE backend measures
//!   (that backend was deleted once this setting matched its Figure-4
//!   shape and cycle spread — it spun where this parks; DESIGN.md §7).
//!
//! PE bodies share their worker's thread-locals and
//! `std::thread::current()`; a panic message names the worker thread.
//!
//! The scheduler is where a PE's wait site lives: `park` records the
//! [`WaitSite`] it parks at, a grant resets it to `Running` and `finish`
//! to `Finished`, and the watchdog probe reads every PE's state and site
//! in one locked `CoopSched::snapshot`. A parked PE is *waiting on the
//! scheduler*, not burning a core, and structural deadlocks (every PE
//! parked or finished, nothing runnable: `Park::Wedged` when the last
//! runner parks or returns) are reported immediately instead of after a
//! wall-clock timeout.
//!
//! [`RunReport::sched_log`]: crate::RunReport::sched_log

use crate::coro::{self, Coroutine};
use crate::fabric::WaitSite;
use crate::timing::SplitMix64;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default seed for the cooperative scheduler's grant RNG.
pub const DEFAULT_COOP_SEED: u64 = 0x5eed_c011_ec71_4e5a;

/// Stack size of a PE's coroutine. PE bodies are shallow (the executor is
/// iterative, collectives allocate on the heap), so a small stack keeps
/// 4096 PEs to a few hundred MiB of address space — and stacks are mapped
/// without reserving memory, so resident use is only what they touch.
pub const DEFAULT_COOP_STACK_BYTES: usize = 512 * 1024;

/// Engine tuning, carried by [`FabricConfig`](crate::FabricConfig).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker-thread count: at most this many PEs run at once. `0`
    /// resolves to the host's available parallelism; any value is capped
    /// at `n_pes`. Use `1` for a fully deterministic schedule.
    pub workers: usize,
    /// Seed for the scheduler's grant RNG. Two runs with the same seed
    /// and `workers == 1` make identical scheduling decisions, under a
    /// fault plane too (its yields draw from the same RNG).
    pub seed: u64,
}

impl EngineConfig {
    /// Auto-sized workers and the default seed (the default).
    pub const fn coop() -> Self {
        EngineConfig {
            workers: 0,
            seed: DEFAULT_COOP_SEED,
        }
    }

    /// Builder-style worker-count override (`0` = auto).
    pub const fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder-style scheduler-seed override.
    pub const fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The worker count this config resolves to for an `n_pes`-PE run:
    /// explicit value, else available parallelism, always in `1..=n_pes`.
    pub fn resolved_workers(&self, n_pes: usize) -> usize {
        let w = match self.workers {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            w => w,
        };
        w.clamp(1, n_pes.max(1))
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::coop()
    }
}

/// A PE's scheduling state, as read by the watchdog plane
/// ([`PeProbe::sched`](crate::PeProbe::sched)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeSchedState {
    /// The PE's worker has not registered it with the scheduler yet.
    NotStarted,
    /// Ready to run, waiting for a worker slot.
    Runnable,
    /// Currently holds a worker slot.
    Running,
    /// Parked on a fabric wait (barrier, signal, executor drain); the
    /// [`WaitSite`] the scheduler recorded at the park names what on.
    Parked,
    /// The PE body returned (or unwound).
    Finished,
}

impl PeSchedState {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PeSchedState::NotStarted => "not-started",
            PeSchedState::Runnable => "runnable",
            PeSchedState::Running => "running",
            PeSchedState::Parked => "parked",
            PeSchedState::Finished => "finished",
        }
    }
}

/// Outcome of [`CoopSched::park`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Park {
    /// The PE holds a worker slot again (or consumed a pending unpark
    /// token without ever releasing it). May be spurious — callers
    /// re-check their wait condition in a loop.
    Granted,
    /// Parking would leave the fabric with nothing runnable and
    /// unfinished PEs: a structural deadlock, since only a PE can raise a
    /// slot or cross a barrier. The PE keeps its slot and the caller
    /// trips the watchdog at once. The same holds for a parked PE when
    /// the last runner returns (a wedge reached by a finish), which hands
    /// it a slot back at once.
    Wedged,
    /// The watchdog window elapsed with no grant anywhere in the fabric.
    TimedOut,
}

/// Cap on the recorded grant log: enough for the determinism tests'
/// workloads while bounding memory on long runs (4 bytes per grant).
const SCHED_LOG_CAP: usize = 1 << 20;

/// What a PE body that panicked (or never got a stack) left behind, by
/// rank.
pub(crate) type Panics = Vec<(usize, Box<dyn Any + Send>)>;

/// What one worker's PEs returned or panicked with, by rank.
type Finished<T> = Vec<(usize, std::thread::Result<T>)>;

struct CoopState {
    status: Vec<PeSchedState>,
    /// Per PE: where it last parked, until a grant (`Running`) or its
    /// finish (`Finished`). A watchdog re-grant keeps it.
    site: Vec<WaitSite>,
    /// Per-PE unpark token: set when an unpark targets a PE that is not
    /// parked, consumed by that PE's next `park` as an immediate
    /// (possibly spurious) grant. Closes the check-then-park race.
    token: Vec<bool>,
    /// The ready PEs, in the order they became ready.
    ready: Vec<usize>,
    /// PEs holding a worker slot, whether on their worker's CPU or queued
    /// in `granted`. A watchdog re-grant may take one past `workers`; the
    /// PE is about to panic.
    running: usize,
    started: usize,
    finished: usize,
    /// Dispatch is held until every PE has registered, so the first
    /// grants are drawn from the full, rank-ordered ready set and the
    /// schedule does not depend on worker startup order.
    gate_open: bool,
    /// Set when a worker failed to start; every worker exits.
    aborted: bool,
    /// Total grants issued — the global progress measure the watchdog
    /// window compares against (any grant anywhere resets the window).
    grants: u64,
    rng: SplitMix64,
    /// Grant sequence (granted PE ranks), capped at [`SCHED_LOG_CAP`].
    log: Vec<u32>,
    /// Per worker: PEs granted a slot that the worker has not switched
    /// to yet, in grant order.
    granted: Vec<VecDeque<usize>>,
    /// Per worker: waiting on its condvar with nothing to run.
    idle: Vec<bool>,
}

/// The cooperative scheduler: a mutex-guarded state machine, one condvar
/// per worker thread (each worker only ever waits on its own), and the
/// driver that runs every PE as a coroutine on its worker.
pub(crate) struct CoopSched {
    n_pes: usize,
    workers: usize,
    /// How long an idle worker waits with no grant anywhere before it
    /// resumes one of its parked PEs with [`Park::TimedOut`].
    watchdog: Duration,
    state: Mutex<CoopState>,
    cvs: Vec<Condvar>,
    /// Per PE: what its `park` returns when the PE is resumed other than
    /// for a grant — `TimedOut` under the watchdog rule (by its worker),
    /// `Wedged` by the `finish` that wedged the fabric; read and reset to
    /// `Granted` by that `park`.
    resumed_as: Vec<AtomicU8>,
}

impl CoopSched {
    pub(crate) fn new(n_pes: usize, engine: EngineConfig, watchdog: Duration) -> Self {
        let workers = engine.resolved_workers(n_pes);
        CoopSched {
            n_pes,
            workers,
            watchdog,
            state: Mutex::new(CoopState {
                status: vec![PeSchedState::NotStarted; n_pes],
                site: vec![WaitSite::Running; n_pes],
                token: vec![false; n_pes],
                ready: Vec::with_capacity(n_pes),
                running: 0,
                started: 0,
                finished: 0,
                gate_open: false,
                aborted: false,
                grants: 0,
                rng: SplitMix64::new(engine.seed),
                log: Vec::new(),
                granted: (0..workers).map(|_| VecDeque::new()).collect(),
                idle: vec![false; workers],
            }),
            cvs: (0..workers).map(|_| Condvar::new()).collect(),
            resumed_as: (0..n_pes)
                .map(|_| AtomicU8::new(Park::Granted as u8))
                .collect(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CoopState> {
        self.state
            .lock()
            .expect("scheduler state poisoned: a scheduler invariant failed")
    }

    /// Grant free worker slots to ready PEs until either runs out.
    ///
    /// Each grant is a seeded-random draw from the ready set (PCT-style
    /// priority randomisation — the same discipline the interleaving
    /// explorer's `RandomPriority` scheduler uses); the draw keeps the
    /// schedule seed-sensitive even at `workers == 1`, where a plain FIFO
    /// would make every seed identical. A free slot that finds the set
    /// empty still draws once, so the RNG stream — and with it every
    /// one-worker grant sequence — is a function of the wake-up order.
    /// The granted PE is queued for its worker, which is woken if idle.
    fn dispatch(&self, st: &mut CoopState) {
        if !st.gate_open {
            return;
        }
        while st.running < self.workers {
            let k = st.rng.pick(st.ready.len().max(1) as u64) as usize;
            if st.ready.is_empty() {
                break;
            }
            let pe = st.ready.remove(k);
            st.status[pe] = PeSchedState::Running;
            st.site[pe] = WaitSite::Running;
            st.running += 1;
            st.grants += 1;
            if st.log.len() < SCHED_LOG_CAP {
                st.log.push(pe as u32);
            }
            let w = pe % self.workers;
            st.granted[w].push_back(pe);
            if std::mem::take(&mut st.idle[w]) {
                self.cvs[w].notify_one();
            }
        }
    }

    fn make_ready(st: &mut CoopState, pe: usize) {
        st.status[pe] = PeSchedState::Runnable;
        st.ready.push(pe);
    }

    /// Announce a PE to the scheduler (its worker does, before running
    /// anything). Dispatch is gated until all PEs have registered, and the
    /// ready set is filled in rank order at gate-open — so neither the
    /// first grants nor any later ones depend on worker startup order.
    fn register(&self, rank: usize) {
        let mut st = self.lock();
        st.status[rank] = PeSchedState::Runnable;
        st.started += 1;
        if st.started == self.n_pes {
            st.gate_open = true;
            st.ready.extend(0..self.n_pes);
            self.dispatch(&mut st);
        }
    }

    /// Abort startup: every worker exits without running a PE.
    fn abort(&self) {
        self.lock().aborted = true;
        for cv in &self.cvs {
            cv.notify_all();
        }
    }

    /// Release this PE's worker slot and switch back to its worker until
    /// the PE is granted a slot again; `site` is recorded as what it
    /// waits on, also when the park is refused as [`Park::Wedged`].
    ///
    /// A pending unpark token is consumed as an immediate grant without
    /// releasing the slot or recording the site — a possibly spurious
    /// wakeup, which is fine because every fabric wait re-checks its
    /// condition in a loop.
    ///
    /// The worker resumes the PE with [`Park::TimedOut`] instead when it
    /// sat idle for a whole watchdog window with no grant anywhere in the
    /// fabric; any grant anywhere resets the window, so a busy 4096-PE
    /// fabric never trips a parked victim.
    pub(crate) fn park(&self, rank: usize, site: WaitSite) -> Park {
        {
            let mut st = self.lock();
            if st.token[rank] {
                st.token[rank] = false;
                return Park::Granted;
            }
            assert_eq!(
                st.status[rank],
                PeSchedState::Running,
                "PE {rank} parked without holding a worker slot"
            );
            st.site[rank] = site;
            if st.running == 1 && st.ready.is_empty() && st.finished < self.n_pes {
                // Parking would wedge the fabric: nothing left to grant.
                // Keep the slot so the caller can trip the watchdog with
                // a structural deadlock report — no need to burn the full
                // wall-clock timeout first.
                return Park::Wedged;
            }
            st.status[rank] = PeSchedState::Parked;
            st.running -= 1;
            self.dispatch(&mut st);
        }
        coro::suspend();
        match self.resumed_as[rank].swap(Park::Granted as u8, Ordering::Relaxed) {
            r if r == Park::Wedged as u8 => Park::Wedged,
            r if r == Park::TimedOut as u8 => Park::TimedOut,
            _ => Park::Granted,
        }
    }

    /// Make `rank` runnable: a parked PE joins the ready set; any other
    /// state latches the unpark token instead (consumed by the PE's next
    /// `park` — see there).
    pub(crate) fn unpark(&self, rank: usize) {
        let mut st = self.lock();
        match st.status[rank] {
            PeSchedState::Parked => {
                Self::make_ready(&mut st, rank);
                self.dispatch(&mut st);
            }
            PeSchedState::Finished => {}
            _ => st.token[rank] = true,
        }
    }

    /// Unpark every PE except `from` (barrier release, fabric poisoning).
    pub(crate) fn unpark_all(&self, from: usize) {
        let mut st = self.lock();
        for rank in 0..self.n_pes {
            if rank == from {
                continue;
            }
            match st.status[rank] {
                PeSchedState::Parked => Self::make_ready(&mut st, rank),
                PeSchedState::Finished => {}
                _ => st.token[rank] = true,
            }
        }
        self.dispatch(&mut st);
    }

    /// Give up the worker slot and rejoin the ready set (a fault-plane
    /// delay): the seeded draw picks who runs next, possibly this PE.
    pub(crate) fn yield_now(&self, rank: usize) {
        {
            let mut st = self.lock();
            assert_eq!(
                st.status[rank],
                PeSchedState::Running,
                "PE {rank} yielded without holding a worker slot"
            );
            st.running -= 1;
            Self::make_ready(&mut st, rank);
            self.dispatch(&mut st);
        }
        coro::suspend();
    }

    /// Final call from a PE (normal return or unwind): free the slot and
    /// dispatch a successor.
    ///
    /// A normal return that leaves nothing running, nothing ready and a
    /// PE parked is the wedge `park` refuses, reached by a finish: the
    /// lowest-rank parked PE is handed a slot, as the watchdog rule in
    /// `next` does, and its `park` returns [`Park::Wedged`], so it trips
    /// at once instead of after the wall-clock window. An unwind does
    /// not: the panicking PE poisons the fabric and releases its peers
    /// itself, and its panic is what the run reports.
    pub(crate) fn finish(&self, rank: usize) {
        let mut st = self.lock();
        match st.status[rank] {
            PeSchedState::Running => st.running -= 1,
            PeSchedState::Runnable => st.ready.retain(|&p| p != rank),
            _ => {}
        }
        st.status[rank] = PeSchedState::Finished;
        st.site[rank] = WaitSite::Finished;
        st.finished += 1;
        self.dispatch(&mut st);
        if st.running == 0 && st.finished < self.n_pes && !std::thread::panicking() {
            let parked = (0..self.n_pes).find(|&pe| st.status[pe] == PeSchedState::Parked);
            if let Some(pe) = parked {
                st.status[pe] = PeSchedState::Running;
                st.running += 1;
                // The state lock orders the flag: released here, taken by
                // the worker that pops the grant before it resumes `pe`.
                self.resumed_as[pe].store(Park::Wedged as u8, Ordering::Relaxed);
                let w = pe % self.workers;
                st.granted[w].push_back(pe);
                if std::mem::take(&mut st.idle[w]) {
                    self.cvs[w].notify_one();
                }
            }
        }
    }

    /// Every PE's scheduling state and wait site, by rank, under one
    /// lock: the watchdog probe's view of the fabric.
    pub(crate) fn snapshot(&self) -> Vec<(PeSchedState, WaitSite)> {
        let st = self.lock();
        std::iter::zip(&st.status, &st.site)
            .map(|(&state, &site)| (state, site))
            .collect()
    }

    /// Take the recorded grant log (granted PE ranks, in grant order).
    pub(crate) fn take_log(&self) -> Vec<u32> {
        std::mem::take(&mut self.lock().log)
    }

    /// Run `body(rank)` for every PE, each as a coroutine on worker
    /// `rank % workers`, on `workers` scoped OS threads. Returns the
    /// results in rank order, or every PE's panic payload (in rank order)
    /// if any body panicked or a worker could not start.
    pub(crate) fn run<T: Send>(&self, body: impl Fn(usize) -> T + Sync) -> Result<Vec<T>, Panics> {
        let body = &body;
        let per_worker: Vec<Result<Finished<T>, Panics>> = std::thread::scope(|s| {
            let spawned: Vec<_> = (0..self.workers)
                .map(|me| {
                    std::thread::Builder::new()
                        .name(format!("xbr-worker-{me}"))
                        .spawn_scoped(s, move || self.work(me, body))
                })
                .collect();
            // Workers that did start wait for the gate, which a missing
            // worker's PEs would never open: release them.
            if spawned.iter().any(Result::is_err) {
                self.abort();
            }
            spawned
                .into_iter()
                .enumerate()
                .map(|(me, h)| match h {
                    Ok(h) => h.join().expect("a worker's scheduler loop panicked"),
                    Err(e) => Err(vec![(
                        me,
                        Box::new(format!("failed to spawn worker thread {me}: {e}"))
                            as Box<dyn Any + Send>,
                    )]),
                })
                .collect()
        });
        let mut done = Vec::with_capacity(self.n_pes);
        let mut panics = Panics::new();
        for w in per_worker {
            match w {
                Ok(d) => done.extend(d),
                Err(p) => panics.extend(p),
            }
        }
        done.sort_unstable_by_key(|&(rank, _)| rank);
        let mut results = Vec::with_capacity(self.n_pes);
        for (rank, r) in done {
            match r {
                Ok(v) => results.push(v),
                Err(payload) => panics.push((rank, payload)),
            }
        }
        if panics.is_empty() {
            Ok(results)
        } else {
            Err(panics)
        }
    }

    /// Worker `me`'s thread: map a stack per PE it owns, register them,
    /// then resume whichever is granted until all have returned.
    fn work<T>(
        &self,
        me: usize,
        body: &(impl Fn(usize) -> T + Sync),
    ) -> Result<Finished<T>, Panics> {
        let ranks = (me..self.n_pes).step_by(self.workers);
        let mut pes = Vec::with_capacity(ranks.len());
        for rank in ranks.clone() {
            match Coroutine::new(DEFAULT_COOP_STACK_BYTES, move || body(rank)) {
                Ok(co) => pes.push(Some(co)),
                Err(e) => {
                    self.abort();
                    let msg = format!("failed to map PE {rank}'s stack: {e}");
                    return Err(vec![(rank, Box::new(msg))]);
                }
            }
        }
        ranks.for_each(|rank| self.register(rank));
        let mut done = Vec::with_capacity(pes.len());
        while done.len() < pes.len() {
            let Some(rank) = self.next(me) else { break };
            let slot = &mut pes[rank / self.workers];
            let co = slot.as_mut().expect("a finished PE was granted a slot");
            if let Some(r) = co.resume() {
                done.push((rank, r));
                *slot = None;
            }
        }
        Ok(done)
    }

    /// Block worker `me` until one of its PEs is to run and return it:
    /// the next grant queued for it, or — after a whole watchdog window
    /// idle with no grant anywhere — one of its parked PEs, flagged to
    /// return [`Park::TimedOut`]. `None` once startup was aborted.
    fn next(&self, me: usize) -> Option<usize> {
        let mut st = self.lock();
        let mut window: Option<(Instant, u64)> = None;
        loop {
            if st.aborted {
                return None;
            }
            if let Some(pe) = st.granted[me].pop_front() {
                return Some(pe);
            }
            let now = Instant::now();
            let mut since = match window {
                Some((since, seen)) if seen == st.grants => since,
                _ => now,
            };
            if since.checked_add(self.watchdog).is_some_and(|d| now >= d) {
                let parked = (me..self.n_pes)
                    .step_by(self.workers)
                    .find(|&pe| st.status[pe] == PeSchedState::Parked);
                if let Some(pe) = parked {
                    // No PE anywhere was granted a slot for a whole window:
                    // global progress is lost. Hand the PE a slot back so
                    // it can run its probe-and-panic path (it is about to
                    // panic, so `running` may briefly exceed `workers`).
                    // Its site stays where it parked.
                    st.status[pe] = PeSchedState::Running;
                    st.running += 1;
                    self.resumed_as[pe].store(Park::TimedOut as u8, Ordering::Relaxed);
                    return Some(pe);
                }
                since = now;
            }
            window = Some((since, st.grants));
            let timeout = since
                .checked_add(self.watchdog)
                .map_or(Duration::MAX, |d| d.saturating_duration_since(now));
            st.idle[me] = true;
            st = self.cvs[me]
                .wait_timeout(st, timeout)
                .expect("scheduler state poisoned: a scheduler invariant failed")
                .0;
            st.idle[me] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A watchdog window no test here comes near.
    const PATIENT: Duration = Duration::from_secs(60);

    fn sched(n_pes: usize, engine: EngineConfig) -> CoopSched {
        CoopSched::new(n_pes, engine, PATIENT)
    }

    #[test]
    fn resolved_workers_clamps() {
        let e = EngineConfig::coop().with_workers(8);
        assert_eq!(e.resolved_workers(4), 4);
        assert_eq!(e.resolved_workers(100), 8);
        assert!(EngineConfig::coop().resolved_workers(16) >= 1);
    }

    #[test]
    fn token_makes_park_spurious() {
        let sched = sched(2, EngineConfig::coop().with_workers(2));
        sched
            .run(|rank| {
                if rank == 0 {
                    // Token latched while running: next park returns
                    // immediately without releasing the slot.
                    sched.unpark(0);
                    assert_eq!(sched.park(0, WaitSite::Barrier), Park::Granted);
                }
                sched.finish(rank);
            })
            .unwrap();
    }

    #[test]
    fn park_unpark_handoff() {
        let sched = sched(2, EngineConfig::coop().with_workers(1));
        sched
            .run(|rank| {
                if rank == 0 {
                    // With one worker slot, parking hands the slot to
                    // PE 1, which unparks us before finishing.
                    assert_eq!(sched.park(0, WaitSite::Barrier), Park::Granted);
                } else {
                    sched.unpark(0);
                }
                sched.finish(rank);
            })
            .unwrap();
        let log = sched.take_log();
        assert!(
            log.contains(&0) && log.contains(&1),
            "both PEs must have been granted, got {log:?}"
        );
    }

    /// Also the scheduler's record of where each PE waits: a parked PE
    /// shows its site, a refused (wedged) park too, a grant resets the
    /// site to `Running` and `finish` sets `Finished`.
    #[test]
    fn wedge_detected_when_last_runner_parks() {
        use PeSchedState::{Finished, Parked, Running};
        let sched = sched(2, EngineConfig::coop().with_workers(2));
        let of = |rank: usize| sched.snapshot()[rank];
        let slot = WaitSite::Signal { off: 24 };
        sched
            .run(|rank| {
                if rank == 0 {
                    // Wait until PE 1 is parked, then park the last
                    // runner: that must report Wedged rather than block
                    // forever.
                    while of(1).0 != Parked {
                        std::thread::yield_now();
                    }
                    assert_eq!(of(1), (Parked, slot));
                    assert_eq!(sched.park(0, WaitSite::Barrier), Park::Wedged);
                    assert_eq!(of(0), (Running, WaitSite::Barrier));
                    // Unwedge the fabric so PE 1's park completes.
                    sched.unpark(1);
                } else {
                    assert_eq!(sched.park(1, slot), Park::Granted);
                    assert_eq!(of(1), (Running, WaitSite::Running));
                }
                sched.finish(rank);
            })
            .unwrap();
        assert_eq!(sched.snapshot(), [(Finished, WaitSite::Finished); 2]);
    }

    /// The last runner returns while PE 1 is parked: nothing can wake PE
    /// 1 any more, so the finish hands it a slot at once, flagged as a
    /// wedge, rather than leaving it to the wall-clock window.
    #[test]
    fn finish_that_wedges_resumes_the_parked_pe_as_wedged() {
        let sched = sched(2, EngineConfig::coop().with_workers(2));
        let started = Instant::now();
        sched
            .run(|rank| {
                if rank == 0 {
                    while sched.snapshot()[1].0 != PeSchedState::Parked {
                        std::thread::yield_now();
                    }
                } else {
                    assert_eq!(sched.park(1, WaitSite::Barrier), Park::Wedged);
                }
                sched.finish(rank);
            })
            .unwrap();
        assert!(started.elapsed() < PATIENT / 2, "{:?}", started.elapsed());
    }

    #[test]
    fn grant_log_is_seed_sensitive() {
        let run = |seed: u64| {
            let sched = sched(6, EngineConfig::coop().with_workers(1).with_seed(seed));
            sched.run(|rank| sched.finish(rank)).unwrap();
            sched.take_log()
        };
        assert_eq!(run(1), run(1), "same seed must replay the same grants");
        let mut seeds = (2..20).map(run);
        let first = run(1);
        assert!(
            seeds.any(|l| l != first),
            "grant order never varied across seeds"
        );
    }
}
