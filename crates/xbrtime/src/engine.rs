//! The execution engine: how the fabric maps PEs onto OS resources.
//!
//! Every PE is a (small-stack) OS thread, but at most `workers` of them
//! are *runnable* at any instant: every blocking primitive in the fabric
//! (barrier, `signal_wait`, executor drains, the fault plane's wall-clock
//! stalls) parks the PE in the `CoopSched` scheduler instead of spinning,
//! and the freed worker slot is granted to a PE drawn at seeded random
//! from the one ready set. 4096-PE collectives run comfortably on a
//! laptop-class host. [`EngineConfig::workers`] picks how the PEs
//! interleave:
//!
//! * `0` (the default) — the host's available parallelism, capped at the
//!   PE count.
//! * `1` — one PE runs at a time and every grant is drawn from the seeded
//!   RNG: a deterministic schedule for a fixed seed. The grant sequence is
//!   exposed as [`RunReport::sched_log`] so tests can assert schedule
//!   equality (see `tests/coop_determinism.rs`).
//! * `≥ n_pes` — one slot per PE: every PE is runnable and the host
//!   interleaves them, which is what a thread-per-PE backend measures
//!   (that backend was deleted once this setting matched its Figure-4
//!   shape and cycle spread — it spun where this parks; DESIGN.md §7).
//!
//! The watchdog plane reads scheduler state directly — a parked PE is
//! *waiting on the scheduler*, not burning a core — and structural
//! deadlocks (every PE parked, nothing runnable, nothing sleeping) are
//! detected immediately instead of after a wall-clock timeout.
//!
//! [`RunReport::sched_log`]: crate::RunReport::sched_log

use crate::timing::SplitMix64;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Default seed for the cooperative scheduler's grant RNG.
pub const DEFAULT_COOP_SEED: u64 = 0x5eed_c011_ec71_4e5a;

/// Stack size of a PE's thread. PE bodies are shallow (the executor is
/// iterative, collectives allocate on the heap), so a small stack keeps
/// 4096 PEs to a few hundred MiB of address space — and Linux commits
/// stack pages lazily, so resident use is far smaller.
pub const DEFAULT_COOP_STACK_BYTES: usize = 512 * 1024;

/// Engine tuning, carried by [`FabricConfig`](crate::FabricConfig).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker-slot count: at most this many PEs run at once. `0` resolves
    /// to the host's available parallelism; any value is capped at
    /// `n_pes`. Use `1` for a fully deterministic schedule.
    pub workers: usize,
    /// Seed for the scheduler's grant RNG. Two runs with the same seed
    /// and `workers == 1` make identical scheduling decisions.
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

    /// Builder-style worker-slot override (`0` = auto).
    pub const fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder-style scheduler-seed override.
    pub const fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The worker-slot count this config resolves to for an `n_pes`-PE
    /// run: explicit value, else available parallelism, always in
    /// `1..=n_pes`.
    pub fn resolved_workers(&self, n_pes: usize) -> usize {
        let auto = std::thread::available_parallelism().map_or(1, |p| p.get());
        let w = if self.workers == 0 {
            auto
        } else {
            self.workers
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
    /// The PE thread has not registered with the scheduler yet.
    NotStarted,
    /// Ready to run, waiting for a worker slot.
    Runnable,
    /// Currently holds a worker slot.
    Running,
    /// Parked on a fabric wait (barrier, signal, executor drain); the
    /// progress plane's [`WaitSite`](crate::WaitSite) names what on.
    Parked,
    /// Descheduled for a wall-clock sleep (fault-plane delay/stall);
    /// wakes by itself, so it never counts toward a structural deadlock.
    Sleeping,
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
            PeSchedState::Sleeping => "sleeping",
            PeSchedState::Finished => "finished",
        }
    }
}

/// Outcome of [`CoopSched::park`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Park {
    /// The PE holds a worker slot again (or consumed a pending unpark
    /// token without ever releasing it). May be spurious — callers
    /// re-check their wait condition in a loop.
    Granted,
    /// Parking would leave the fabric with nothing runnable, nothing
    /// sleeping and unfinished PEs: a structural deadlock unless a
    /// wall-clock signal redelivery is still pending. The PE keeps its
    /// slot; the caller decides (pump redeliveries or trip the watchdog).
    Wedged,
    /// The watchdog window elapsed with no grant anywhere in the fabric.
    TimedOut,
}

/// Cap on the recorded grant log: enough for the determinism tests'
/// workloads while bounding memory on long runs (4 bytes per grant).
const SCHED_LOG_CAP: usize = 1 << 20;

struct CoopState {
    status: Vec<PeSchedState>,
    /// Per-PE unpark token: set when an unpark targets a PE that is not
    /// parked, consumed by that PE's next `park` as an immediate
    /// (possibly spurious) grant. Closes the check-then-park race.
    token: Vec<bool>,
    /// The ready PEs, in the order they became ready.
    ready: Vec<usize>,
    /// PEs holding a worker slot. A watchdog re-grant may take one past
    /// `workers`; the PE is about to panic.
    running: usize,
    sleeping: usize,
    started: usize,
    finished: usize,
    /// Dispatch is held until every PE has registered, so the first
    /// grants are drawn from the full, rank-ordered ready set and the
    /// schedule does not depend on OS thread startup order.
    gate_open: bool,
    /// Set when PE-thread spawning failed; registered PEs unwind.
    aborted: bool,
    /// Total grants issued — the global progress measure the park
    /// timeout compares against (any grant anywhere resets the window).
    grants: u64,
    rng: SplitMix64,
    /// Grant sequence (granted PE ranks), capped at [`SCHED_LOG_CAP`].
    log: Vec<u32>,
}

/// The cooperative scheduler: a mutex-guarded state machine plus one
/// condvar per PE (each PE only ever waits on its own).
pub(crate) struct CoopSched {
    n_pes: usize,
    workers: usize,
    state: Mutex<CoopState>,
    cvs: Vec<Condvar>,
}

impl CoopSched {
    pub(crate) fn new(n_pes: usize, engine: EngineConfig) -> Self {
        let workers = engine.resolved_workers(n_pes);
        CoopSched {
            n_pes,
            workers,
            state: Mutex::new(CoopState {
                status: vec![PeSchedState::NotStarted; n_pes],
                token: vec![false; n_pes],
                ready: Vec::with_capacity(n_pes),
                running: 0,
                sleeping: 0,
                started: 0,
                finished: 0,
                gate_open: false,
                aborted: false,
                grants: 0,
                rng: SplitMix64::new(engine.seed),
                log: Vec::new(),
            }),
            cvs: (0..n_pes).map(|_| Condvar::new()).collect(),
        }
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
            st.running += 1;
            st.grants += 1;
            if st.log.len() < SCHED_LOG_CAP {
                st.log.push(pe as u32);
            }
            self.cvs[pe].notify_all();
        }
    }

    fn make_ready(st: &mut CoopState, pe: usize) {
        st.status[pe] = PeSchedState::Runnable;
        st.ready.push(pe);
    }

    /// First call from a PE thread: announce readiness and block until
    /// the scheduler grants the first slot. Dispatch is gated until all
    /// PEs have registered, and the ready set is filled in rank order at
    /// gate-open — so neither the first grants nor any later ones depend
    /// on OS thread startup order.
    ///
    /// # Panics
    /// Panics if the fabric aborted startup (a sibling PE thread failed
    /// to spawn); the caller's poison guard turns that into a normal
    /// poisoned unwind.
    pub(crate) fn register(&self, rank: usize) {
        let mut st = self.state.lock().unwrap();
        st.status[rank] = PeSchedState::Runnable;
        st.started += 1;
        if st.started == self.n_pes {
            st.gate_open = true;
            st.ready.extend(0..self.n_pes);
            self.dispatch(&mut st);
        }
        loop {
            if st.aborted {
                drop(st);
                panic!("PE {rank}: fabric startup aborted (a PE thread failed to spawn)");
            }
            if st.status[rank] == PeSchedState::Running {
                return;
            }
            st = self.cvs[rank].wait(st).unwrap();
        }
    }

    /// Abort startup: wake every PE blocked in [`CoopSched::register`]
    /// so the spawning scope can unwind instead of deadlocking.
    pub(crate) fn abort(&self) {
        let mut st = self.state.lock().unwrap();
        st.aborted = true;
        drop(st);
        for cv in &self.cvs {
            cv.notify_all();
        }
    }

    /// Release this PE's worker slot and block until re-granted.
    ///
    /// A pending unpark token is consumed as an immediate grant without
    /// releasing the slot — a possibly spurious wakeup, which is fine
    /// because every fabric wait re-checks its condition in a loop.
    ///
    /// `watchdog` bounds how long the PE will sit parked *while the rest
    /// of the fabric makes no grants at all*; any grant anywhere resets
    /// the window, so a busy 4096-PE fabric never trips a parked victim.
    pub(crate) fn park(&self, rank: usize, watchdog: Duration) -> Park {
        let mut st = self.state.lock().unwrap();
        if st.token[rank] {
            st.token[rank] = false;
            return Park::Granted;
        }
        assert_eq!(
            st.status[rank],
            PeSchedState::Running,
            "PE {rank} parked without holding a worker slot"
        );
        if st.running == 1 && st.ready.is_empty() && st.sleeping == 0 && st.finished < self.n_pes {
            // Parking would wedge the fabric: nothing left to grant and
            // nobody due to wake up. Keep the slot and let the caller
            // decide (pump a pending redelivery, or trip the watchdog
            // with a structural deadlock report — no need to burn the
            // full wall-clock timeout first).
            return Park::Wedged;
        }
        st.status[rank] = PeSchedState::Parked;
        st.running -= 1;
        self.dispatch(&mut st);
        let mut grants_seen = st.grants;
        loop {
            if st.status[rank] == PeSchedState::Running {
                return Park::Granted;
            }
            let (guard, timeout) = self.cvs[rank].wait_timeout(st, watchdog).unwrap();
            st = guard;
            if timeout.timed_out() && st.status[rank] != PeSchedState::Running {
                if st.grants == grants_seen {
                    // No PE anywhere was granted a slot for a whole
                    // watchdog window: global progress is lost. Take a
                    // slot back so the caller can run its probe-and-panic
                    // path (the PE is about to panic, so `running` may
                    // briefly exceed `workers`).
                    st.ready.retain(|&p| p != rank);
                    st.status[rank] = PeSchedState::Running;
                    st.running += 1;
                    return Park::TimedOut;
                }
                grants_seen = st.grants;
            }
        }
    }

    /// Make `rank` runnable: a parked PE joins the ready set; any other
    /// state latches the unpark token instead (consumed by the PE's next
    /// `park` — see there).
    pub(crate) fn unpark(&self, rank: usize) {
        let mut st = self.state.lock().unwrap();
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
        let mut st = self.state.lock().unwrap();
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

    /// Release the worker slot for a wall-clock sleep (fault-plane delay
    /// or stall). The PE wakes by itself, so it counts as `sleeping`,
    /// not parked — structural-deadlock detection treats it as pending
    /// progress. Pair with [`CoopSched::reschedule`].
    pub(crate) fn deschedule(&self, rank: usize) {
        let mut st = self.state.lock().unwrap();
        assert_eq!(
            st.status[rank],
            PeSchedState::Running,
            "PE {rank} descheduled without holding a worker slot"
        );
        st.status[rank] = PeSchedState::Sleeping;
        st.running -= 1;
        st.sleeping += 1;
        self.dispatch(&mut st);
    }

    /// Return from a wall-clock sleep: rejoin the ready set and block
    /// until a slot is granted again.
    pub(crate) fn reschedule(&self, rank: usize) {
        let mut st = self.state.lock().unwrap();
        st.sleeping -= 1;
        Self::make_ready(&mut st, rank);
        self.dispatch(&mut st);
        while st.status[rank] != PeSchedState::Running {
            st = self.cvs[rank].wait(st).unwrap();
        }
    }

    /// Final call from a PE thread (normal return or unwind): free the
    /// slot and dispatch a successor.
    pub(crate) fn finish(&self, rank: usize) {
        let mut st = self.state.lock().unwrap();
        match st.status[rank] {
            PeSchedState::Running => st.running -= 1,
            PeSchedState::Sleeping => st.sleeping -= 1,
            PeSchedState::Runnable => st.ready.retain(|&p| p != rank),
            _ => {}
        }
        st.status[rank] = PeSchedState::Finished;
        st.finished += 1;
        self.dispatch(&mut st);
    }

    /// Scheduling state of one PE, for the watchdog probe.
    pub(crate) fn state_of(&self, rank: usize) -> PeSchedState {
        self.state.lock().unwrap().status[rank]
    }

    /// Take the recorded grant log (granted PE ranks, in grant order).
    pub(crate) fn take_log(&self) -> Vec<u32> {
        std::mem::take(&mut self.state.lock().unwrap().log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A watchdog window no test here comes near.
    const PATIENT: Duration = Duration::from_secs(60);

    #[test]
    fn resolved_workers_clamps() {
        let e = EngineConfig::coop().with_workers(8);
        assert_eq!(e.resolved_workers(4), 4);
        assert_eq!(e.resolved_workers(100), 8);
        assert!(EngineConfig::coop().resolved_workers(16) >= 1);
    }

    #[test]
    fn token_makes_park_spurious() {
        let sched = CoopSched::new(2, EngineConfig::coop().with_workers(2));
        std::thread::scope(|s| {
            for rank in 0..2 {
                let sched = &sched;
                s.spawn(move || {
                    sched.register(rank);
                    if rank == 0 {
                        // Token latched while running: next park returns
                        // immediately without releasing the slot.
                        sched.unpark(0);
                        assert_eq!(sched.park(0, PATIENT), Park::Granted);
                    }
                    sched.finish(rank);
                });
            }
        });
    }

    #[test]
    fn park_unpark_handoff() {
        let sched = CoopSched::new(2, EngineConfig::coop().with_workers(1));
        std::thread::scope(|s| {
            for rank in 0..2 {
                let sched = &sched;
                s.spawn(move || {
                    sched.register(rank);
                    if rank == 0 {
                        // With one worker slot, parking hands the slot to
                        // PE 1, which unparks us before finishing.
                        assert_eq!(sched.park(0, PATIENT), Park::Granted);
                    } else {
                        sched.unpark(0);
                    }
                    sched.finish(rank);
                });
            }
        });
        let log = sched.take_log();
        assert!(
            log.contains(&0) && log.contains(&1),
            "both PEs must have been granted, got {log:?}"
        );
    }

    #[test]
    fn wedge_detected_when_last_runner_parks() {
        let sched = CoopSched::new(2, EngineConfig::coop().with_workers(2));
        std::thread::scope(|s| {
            for rank in 0..2 {
                let sched = &sched;
                s.spawn(move || {
                    sched.register(rank);
                    if rank == 0 {
                        // Wait until PE 1 is parked, then park the last
                        // runner: that must report Wedged rather than
                        // sleep forever.
                        while sched.state_of(1) != PeSchedState::Parked {
                            std::thread::yield_now();
                        }
                        assert_eq!(sched.park(0, Duration::from_millis(50)), Park::Wedged);
                        // Unwedge the fabric so PE 1's park completes.
                        sched.unpark(1);
                    } else {
                        assert_eq!(sched.park(1, PATIENT), Park::Granted);
                    }
                    sched.finish(rank);
                });
            }
        });
    }

    #[test]
    fn grant_log_is_seed_sensitive() {
        let run = |seed: u64| {
            let sched = CoopSched::new(6, EngineConfig::coop().with_workers(1).with_seed(seed));
            std::thread::scope(|s| {
                for rank in 0..6 {
                    let sched = &sched;
                    s.spawn(move || {
                        sched.register(rank);
                        sched.finish(rank);
                    });
                }
            });
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
