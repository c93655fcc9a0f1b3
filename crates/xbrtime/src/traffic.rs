//! Multi-tenant collective traffic plane — the "serves traffic" half of
//! the north star.
//!
//! A traffic run partitions the fabric into `T` contiguous tenant teams
//! and has every team issue its own seeded stream of irregular
//! collectives — scatterv, gatherv, allgatherv, and broadcast-shaped
//! single-origin exchanges — *concurrently* over the signal-slot plane.
//! Between the lockstep round boundaries the tenants' puts, gets and
//! completion signals genuinely interleave on the fabric; what stays
//! synchronised is only the round structure, a consequence of the world
//! barrier being the executor's sole cross-team synchroniser:
//!
//! * every non-empty schedule under the signaled/pipelined disciplines
//!   closes with exactly **one** world barrier, regardless of its stage
//!   count — so one op per tenant per round keeps every PE's barrier
//!   count identical while the data planes overlap freely;
//! * the op wrapper adds one staging barrier before the schedule and one
//!   readback barrier after it — three world barriers per round, fixed;
//! * generated ops are guaranteed non-empty (a zero-data schedule would
//!   skip its closing barrier and wedge the round), and the config
//!   refuses [`SyncMode::Barrier`], whose per-stage barrier count varies
//!   per schedule shape;
//! * the per-PE signal table is pre-sized **collectively** to the
//!   largest schedule any tenant will run, before the tenants diverge —
//!   growth inside [`Pe::signal_table`] is itself collective and would
//!   deadlock mid-round. [`run_traffic`] computes that bound once per
//!   launch, on the host, and hands it to every PE.
//!
//! Each tenant's op stream is a pure function of `(seed, tenant)`
//! ([`tenant_plan`]), drawn from a small palette of repeated shapes the
//! way service traffic repeats request types — which is also what gives
//! the plan cache something to hit. The report carries per-tenant
//! p50/p99/p999 completion-cycle percentiles, plan-cache hit rates, and
//! per-tenant result digests; a watchdog-detected deadlock is attributed
//! to the tenant owning the stuck PE.
//!
//! **Fairness** is measured against per-tenant *solo baselines*: the
//! lockstep rounds synchronise every tenant's clock at each barrier, so
//! any latency statistic taken from the shared run alone is identical
//! across tenants and says nothing about who got squeezed. Instead each
//! tenant's op stream is replayed alone on a team-sized fabric; the
//! ratio `solo_cycles / shared_cycles` is that tenant's efficiency, and
//! the report's fairness figure is `max / min` efficiency across
//! tenants. The solo replay doubles as an isolation proof — its digest
//! must equal the tenant's shared-run digest
//! ([`TrafficError::Isolation`] otherwise).

use std::fmt;

use crate::collectives::plan;
use crate::collectives::policy::{Algorithm, SyncMode, SLOTS_PER_OP};
use crate::collectives::scatter::adjusted_displacements;
use crate::collectives::schedule::{CommSchedule, Payload, Row, Shape};
use crate::collectives::vcoll::AllGatherVAlgo;
use crate::collectives::PlanCacheStats;
use crate::fabric::{
    CollectiveKind, DeadlockReport, Fabric, FabricConfig, Pe, RunError, RunReport,
};
use crate::timing::SplitMix64;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// A traffic workload: `tenants` teams each issuing `ops_per_tenant`
/// collectives drawn from a `palette`-shape request mix.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Concurrent tenant teams (contiguous equal PE partitions).
    pub tenants: usize,
    /// Collectives each tenant issues (one per lockstep round).
    pub ops_per_tenant: usize,
    /// Distinct op shapes per tenant; the op stream draws from this
    /// palette with repetition, so smaller palettes mean warmer plan
    /// caches.
    pub palette: usize,
    /// Largest per-PE block size in elements (u64) a generated op uses.
    pub max_block: usize,
    /// Workload seed; same seed, same per-tenant op sequences.
    pub seed: u64,
    /// Executor discipline for every op. Must be [`SyncMode::Signaled`]
    /// or [`SyncMode::Pipelined`]: both close every non-empty schedule
    /// with exactly one world barrier, which is what keeps concurrent
    /// tenants' rounds aligned.
    pub sync: SyncMode,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            tenants: 4,
            ops_per_tenant: 32,
            palette: 6,
            max_block: 256,
            seed: 0xB16_B00B5,
            sync: SyncMode::Signaled,
        }
    }
}

/// A traffic configuration that cannot run on the given fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrafficConfigError {
    /// At least one tenant is required.
    NoTenants,
    /// Every tenant team needs at least two PEs.
    TooManyTenants {
        /// Requested tenant count.
        tenants: usize,
        /// World size it must fit into twice over.
        n_pes: usize,
    },
    /// Per-stage barrier counts vary per schedule shape under
    /// [`SyncMode::Barrier`] (and `Auto` may resolve to it), which would
    /// desynchronise concurrent tenants' rounds.
    UnsupportedSync(SyncMode),
    /// Zero-length op streams or palettes have nothing to measure.
    EmptyWorkload,
}

impl fmt::Display for TrafficConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficConfigError::NoTenants => write!(f, "traffic needs at least one tenant"),
            TrafficConfigError::TooManyTenants { tenants, n_pes } => {
                write!(
                    f,
                    "{tenants} tenants over {n_pes} PEs leaves a team below 2 PEs"
                )
            }
            TrafficConfigError::UnsupportedSync(s) => {
                write!(
                    f,
                    "traffic requires Signaled or Pipelined sync, got {}",
                    s.name()
                )
            }
            TrafficConfigError::EmptyWorkload => {
                write!(f, "ops_per_tenant and palette must be > 0")
            }
        }
    }
}

impl std::error::Error for TrafficConfigError {}

impl TrafficConfig {
    /// Check the workload fits a world of `n_pes`.
    pub fn validate(&self, n_pes: usize) -> Result<(), TrafficConfigError> {
        if self.tenants == 0 {
            return Err(TrafficConfigError::NoTenants);
        }
        if self.tenants * 2 > n_pes {
            return Err(TrafficConfigError::TooManyTenants {
                tenants: self.tenants,
                n_pes,
            });
        }
        if !matches!(self.sync, SyncMode::Signaled | SyncMode::Pipelined) {
            return Err(TrafficConfigError::UnsupportedSync(self.sync));
        }
        if self.ops_per_tenant == 0 || self.palette == 0 {
            return Err(TrafficConfigError::EmptyWorkload);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Tenant partition
// ---------------------------------------------------------------------------

/// The tenant owning global rank `rank` under a contiguous equal-ish
/// partition (the first `n mod T` teams get one extra PE).
pub fn tenant_of(rank: usize, n_pes: usize, tenants: usize) -> usize {
    let base = n_pes / tenants;
    let rem = n_pes % tenants;
    let fat = rem * (base + 1);
    if rank < fat {
        rank / (base + 1)
    } else {
        rem + (rank - fat) / base
    }
}

/// Global ranks of tenant `t`'s team, in team-rank order.
pub fn tenant_members(t: usize, n_pes: usize, tenants: usize) -> Vec<usize> {
    let base = n_pes / tenants;
    let rem = n_pes % tenants;
    let start = t * base + t.min(rem);
    let size = base + usize::from(t < rem);
    (start..start + size).collect()
}

// ---------------------------------------------------------------------------
// Op streams
// ---------------------------------------------------------------------------

/// The collective shapes a tenant's request mix draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficKind {
    /// Single-origin exchange: the root's block lands on every member (a
    /// degenerate allgatherv whose count vector is concentrated at the
    /// root).
    Broadcast,
    /// Rooted irregular scatter.
    Scatterv,
    /// Rooted irregular gather.
    Gatherv,
    /// Rootless irregular all-gather.
    Allgatherv,
}

impl TrafficKind {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TrafficKind::Broadcast => "broadcast",
            TrafficKind::Scatterv => "scatterv",
            TrafficKind::Gatherv => "gatherv",
            TrafficKind::Allgatherv => "allgatherv",
        }
    }
}

/// One generated collective request: a kind, a team-rank root (ignored
/// by rootless kinds), a per-member count vector, and an algorithm draw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficOp {
    /// Collective shape.
    pub kind: TrafficKind,
    /// Team-rank root for the rooted kinds.
    pub root: usize,
    /// Per-member element counts (u64 elements), one per team PE.
    pub counts: Vec<usize>,
    /// Algorithm draw: rooted kinds map it onto
    /// binomial/linear/ring, allgatherv onto fan/ring/dissemination.
    pub algo: usize,
}

impl TrafficOp {
    /// Total elements the op moves through its staging board.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

fn gen_op(rng: &mut SplitMix64, team: usize, max_block: usize) -> TrafficOp {
    let kind = match rng.pick(4) {
        0 => TrafficKind::Broadcast,
        1 => TrafficKind::Scatterv,
        2 => TrafficKind::Gatherv,
        _ => TrafficKind::Allgatherv,
    };
    let root = rng.pick(team as u64) as usize;
    let algo = rng.pick(3) as usize;
    // Offered load per op lands in [max_block, ~4·max_block] total
    // elements regardless of team size or count shape: tenants stay
    // demand-comparable, so the fairness ratio measures how evenly the
    // fabric serves them rather than restating the size lottery of the
    // draw. Shape variety (uniform / ragged-with-zero-blocks / one
    // giant block) carries the irregularity instead.
    let target = max_block + rng.pick(3 * max_block as u64 + 1) as usize;
    let mut counts = match rng.pick(3) {
        // Uniform: the regular-service baseline.
        0 => vec![target.div_ceil(team); team],
        // Ragged: independent draws around target/team, zeros included.
        1 => (0..team)
            .map(|_| rng.pick((2 * target / team) as u64 + 1) as usize)
            .collect(),
        // Skewed: one giant block, slivers elsewhere.
        _ => {
            let giant = rng.pick(team as u64) as usize;
            let mut c: Vec<usize> = (0..team).map(|_| rng.pick(3) as usize).collect();
            c[giant] = target;
            c
        }
    };
    match kind {
        TrafficKind::Broadcast => {
            // Concentrate everything at the root.
            counts = vec![0; team];
            counts[root] = target;
        }
        TrafficKind::Scatterv | TrafficKind::Gatherv => {
            // A rooted schedule with no non-root data has no ops, and an
            // empty schedule skips its closing barrier — guarantee one.
            if counts.iter().enumerate().all(|(r, &c)| r == root || c == 0) {
                counts[(root + 1) % team] = 1;
            }
        }
        TrafficKind::Allgatherv => {
            if counts.iter().all(|&c| c == 0) {
                counts[0] = 1;
            }
        }
    }
    TrafficOp {
        kind,
        root,
        counts,
        algo,
    }
}

/// Tenant `t`'s full op sequence — a pure function of `(cfg.seed, t)`,
/// which is what makes same-seed runs replay identical per-tenant
/// traffic. The stream draws `ops_per_tenant` requests (with repetition)
/// from a palette of `cfg.palette` generated shapes.
pub fn tenant_plan(cfg: &TrafficConfig, t: usize, team: usize) -> Vec<TrafficOp> {
    let mut rng = SplitMix64::new(cfg.seed ^ ((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let palette: Vec<TrafficOp> = (0..cfg.palette)
        .map(|_| gen_op(&mut rng, team, cfg.max_block))
        .collect();
    (0..cfg.ops_per_tenant)
        .map(|_| palette[rng.pick(palette.len() as u64) as usize].clone())
        .collect()
}

// ---------------------------------------------------------------------------
// Per-PE execution
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-style digest over whole words, one multiply per value. Each step
/// is a bijection of the running state and of the value (the prime is
/// odd), so a single changed element always changes the digest.
fn fnv_mix(h: u64, vals: &[u64]) -> u64 {
    vals.iter().fold(h, |h, &v| (h ^ v).wrapping_mul(FNV_PRIME))
}

/// Deterministic element value for tenant `t`, op `i`, member `tr`,
/// element `k` — pure, so byte-identical results across same-seed runs
/// are checkable from the digests alone.
fn val(seed: u64, t: usize, i: usize, tr: usize, k: usize) -> u64 {
    seed ^ ((t as u64) << 48) ^ ((i as u64) << 32) ^ ((tr as u64) << 16) ^ k as u64
}

/// The adjusted displacement table a rooted op stages and runs by; `None`
/// for the allgatherv-shaped kinds.
fn op_adj(op: &TrafficOp) -> Option<Vec<usize>> {
    matches!(op.kind, TrafficKind::Scatterv | TrafficKind::Gatherv)
        .then(|| adjusted_displacements(&op.counts, op.root, op.counts.len()))
}

/// The row an op runs — the one the collective bodies would name for it,
/// team-local and mapped on the tenant's PEs — and the kind it reports
/// as. `adj` is the op's [`op_adj`]; the algorithm draw maps onto
/// binomial/linear/ring or fan/ring/dissemination.
fn op_row<'a>(
    op: &'a TrafficOp,
    adj: &'a Option<Vec<usize>>,
    members: &'a [usize],
    world: usize,
) -> (CollectiveKind, Row<'a>) {
    let family = match op.kind {
        TrafficKind::Scatterv => CollectiveKind::Scatter,
        TrafficKind::Gatherv => CollectiveKind::Gather,
        TrafficKind::Broadcast | TrafficKind::Allgatherv => CollectiveKind::AllGather,
    };
    let shape = match adj {
        Some(adj) => Shape::Rooted {
            family,
            algo: [Algorithm::Binomial, Algorithm::Linear, Algorithm::Ring][op.algo % 3],
            root: op.root,
            payload: Payload::Ranges(adj),
        },
        None => Shape::AllGather {
            algo: AllGatherVAlgo::CONCRETE[op.algo % 3],
            counts: &op.counts,
        },
    };
    let row = Row {
        shape,
        members: Some(members),
        world,
    };
    (family, row)
}

/// Materialise the schedule an op will run, to size the signal table.
fn op_schedule(op: &TrafficOp, members: &[usize], world: usize) -> CommSchedule {
    op_row(op, &op_adj(op), members, world).1.schedule()
}

/// Signal-table slots enough for every op tenant `t` plays as the team
/// `members` of a `world`-PE fabric (at least 64).
fn plan_slots(cfg: &TrafficConfig, t: usize, members: &[usize], world: usize) -> usize {
    tenant_plan(cfg, t, members.len())
        .iter()
        .map(|op| op_schedule(op, members, world).total_ops() * SLOTS_PER_OP)
        .fold(64, usize::max)
}

/// Issue one traffic op on this PE. Exactly three world barriers per
/// call on every PE of every tenant: the staging barrier, the schedule's
/// single closing barrier (signaled/pipelined, non-empty by
/// construction), and the readback barrier. Returns the op's digest
/// contribution and bytes moved. `myvals` and `got` are the PE's scratch
/// buffers for its own contribution and what it reads back, reused from
/// op to op.
#[allow(clippy::too_many_arguments)]
fn run_op(
    pe: &Pe,
    members: &[usize],
    tr: usize,
    t: usize,
    i: usize,
    op: &TrafficOp,
    sync: SyncMode,
    seed: u64,
    myvals: &mut Vec<u64>,
    got: &mut Vec<u64>,
) -> (u64, u64) {
    let world = pe.n_pes();
    let team = members.len();
    let total = op.total();
    let es = std::mem::size_of::<u64>();
    let board = pe.shared_malloc::<u64>(total);
    let my_count = op.counts[tr];
    myvals.clear();
    myvals.extend((0..my_count).map(|k| val(seed, t, i, tr, k)));

    // Stage. Rooted ops reorder through the root's staging board exactly
    // like the vcoll wrappers; allgatherv-shaped ops publish from
    // local_src inside the schedule and need no staging writes.
    let adj = op_adj(op);
    match (op.kind, &adj) {
        (TrafficKind::Scatterv, Some(adj)) if tr == op.root => {
            for (v, &at) in adj.iter().take(team).enumerate() {
                let l = crate::collectives::logical_rank(v, op.root, team);
                if op.counts[l] > 0 {
                    let seg: Vec<u64> = (0..op.counts[l]).map(|k| val(seed, t, i, l, k)).collect();
                    pe.heap_write(board.at(at), &seg);
                }
            }
        }
        (TrafficKind::Gatherv, Some(adj)) if my_count > 0 => {
            let v = crate::collectives::virtual_rank(tr, op.root, team);
            pe.heap_write(board.at(adj[v]), myvals);
        }
        _ => {}
    }
    pe.barrier();

    let (kind, row) = op_row(op, &adj, members, world);
    plan::run_schedule(pe, &row, kind, board.whole(), myvals, &mut [], None, sync);

    // Read back what this PE is entitled to see and fold it into the
    // tenant digest.
    got.clear();
    let seen: &[u64] = match op.kind {
        TrafficKind::Scatterv => {
            if my_count > 0 {
                let v = crate::collectives::virtual_rank(tr, op.root, team);
                got.resize(my_count, 0);
                pe.heap_read_strided(board.at(adj.as_ref().expect("rooted")[v]), got, my_count, 1);
            }
            got
        }
        TrafficKind::Gatherv if !(tr == op.root && total > 0) => myvals,
        TrafficKind::Gatherv | TrafficKind::Broadcast | TrafficKind::Allgatherv => {
            if total > 0 {
                got.resize(total, 0);
                pe.heap_read_strided(board.whole(), got, total, 1);
            }
            got
        }
    };
    let digest = fnv_mix(FNV_OFFSET ^ (i as u64), seen);
    pe.barrier();
    pe.shared_free(board);
    (digest, (total * es) as u64)
}

/// What one PE brings back from a traffic run.
#[derive(Clone, Debug)]
pub struct PeTraffic {
    /// Tenant this PE belonged to.
    pub tenant: usize,
    /// Rank within the tenant team.
    pub team_rank: usize,
    /// Kinds of the ops this tenant issued, in order.
    pub kinds: Vec<TrafficKind>,
    /// Completion cycles per op (staging through readback barrier).
    pub op_cycles: Vec<u64>,
    /// Rolling FNV digest of every value this PE read back.
    pub digest: u64,
    /// Bytes its tenant's ops moved through staging boards.
    pub bytes: u64,
}

/// Play one tenant's full op stream on this PE.
fn play_plan(
    pe: &Pe,
    members: &[usize],
    tr: usize,
    t: usize,
    plan: &[TrafficOp],
    sync: SyncMode,
    seed: u64,
) -> PeTraffic {
    let mut op_cycles = Vec::with_capacity(plan.len());
    let mut digest = FNV_OFFSET ^ t as u64;
    let mut bytes = 0u64;
    let (mut myvals, mut got) = (Vec::new(), Vec::new());
    for (i, op) in plan.iter().enumerate() {
        let t0 = pe.cycles();
        let (d, b) = run_op(pe, members, tr, t, i, op, sync, seed, &mut myvals, &mut got);
        digest = fnv_mix(digest, &[d]);
        bytes += b;
        op_cycles.push(pe.cycles().saturating_sub(t0));
    }
    PeTraffic {
        tenant: t,
        team_rank: tr,
        kinds: plan.iter().map(|o| o.kind).collect(),
        op_cycles,
        digest,
        bytes,
    }
}

/// The per-PE body of a traffic run: sizes the signal table to `slots`,
/// then plays this PE's tenant op stream in lockstep rounds. `slots`
/// bounds *every* tenant's ops, so the first (allocating, barriered)
/// call to `signal_table` happens before any tenant diverges, and the
/// executor's own per-episode calls never grow the table.
fn traffic_body(pe: &Pe, cfg: &TrafficConfig, slots: usize) -> PeTraffic {
    let world = pe.n_pes();
    let me = pe.rank();
    let t = tenant_of(me, world, cfg.tenants);
    let members = tenant_members(t, world, cfg.tenants);
    let tr = me - members[0];
    pe.signal_table(slots);
    let plan = tenant_plan(cfg, t, members.len());
    play_plan(pe, &members, tr, t, &plan, cfg.sync, cfg.seed)
}

/// The per-PE body of a tenant's *solo* baseline: the same op stream
/// tenant `t` plays in the shared run, on a fabric sized to its team
/// alone. Identical data values and digests by construction — the
/// isolation invariant [`run_traffic`] checks — with a makespan free of
/// cross-tenant contention, which is what grounds the efficiency and
/// fairness numbers.
fn solo_body(pe: &Pe, cfg: &TrafficConfig, t: usize, slots: usize) -> PeTraffic {
    let team = pe.n_pes();
    let members: Vec<usize> = (0..team).collect();
    pe.signal_table(slots);
    let plan = tenant_plan(cfg, t, team);
    play_plan(pe, &members, pe.rank(), t, &plan, cfg.sync, cfg.seed)
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Per-tenant completion statistics.
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Tenant index.
    pub tenant: usize,
    /// Team size in PEs.
    pub pes: usize,
    /// Ops issued.
    pub ops: usize,
    /// Kinds of those ops, in issue order.
    pub kinds: Vec<TrafficKind>,
    /// Bytes moved through staging boards.
    pub bytes: u64,
    /// Median completion cycles (team leader's clock).
    pub p50: u64,
    /// 99th-percentile completion cycles.
    pub p99: u64,
    /// 99.9th-percentile completion cycles.
    pub p999: u64,
    /// Mean completion cycles.
    pub mean: f64,
    /// Bytes per leader cycle over the whole stream.
    pub throughput: f64,
    /// Leader cycles for the same stream run alone on a team-sized
    /// fabric (zero until the solo pass fills it in).
    pub solo_cycles: u64,
    /// Fraction of standalone performance achieved under sharing:
    /// `solo_cycles / shared_cycles`. 1.0 means contention cost this
    /// tenant nothing; lower means the shared rounds stretched it.
    pub efficiency: f64,
    /// Combined member digests (team-rank order) — byte-identical runs
    /// have byte-identical digests.
    pub digest: u64,
}

/// Nearest-rank percentile of a sorted sample set.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whole-run traffic report.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// Per-tenant statistics, tenant order.
    pub tenants: Vec<TenantStats>,
    /// Max/min tenant *efficiency* ratio, where a tenant's efficiency is
    /// the fraction of its standalone (solo-fabric) performance it
    /// achieved under sharing. 1.0 = contention slowed every tenant in
    /// the same proportion; raw max/min throughput would only restate
    /// the tenants' demand ratio, because the lockstep rounds give every
    /// tenant identical per-op completion cycles by construction.
    pub fairness: f64,
    /// Plan-cache telemetry, when the fabric had a cache.
    pub plan_cache: Option<PlanCacheStats>,
    /// Simulated makespan of the whole run.
    pub makespan_cycles: u64,
}

impl TrafficReport {
    fn from_run(report: &RunReport<PeTraffic>) -> TrafficReport {
        let mut by_tenant: Vec<Vec<&PeTraffic>> = Vec::new();
        for pt in &report.results {
            if pt.tenant >= by_tenant.len() {
                by_tenant.resize(pt.tenant + 1, Vec::new());
            }
            by_tenant[pt.tenant].push(pt);
        }
        let mut tenants = Vec::new();
        for (t, mut team) in by_tenant.into_iter().enumerate() {
            team.sort_by_key(|pt| pt.team_rank);
            let leader = team.first().expect("tenant with no PEs");
            let mut sorted = leader.op_cycles.clone();
            sorted.sort_unstable();
            let total_cycles: u64 = leader.op_cycles.iter().sum();
            let digest = team
                .iter()
                .fold(FNV_OFFSET, |h, pt| fnv_mix(h, &[pt.digest]));
            tenants.push(TenantStats {
                tenant: t,
                pes: team.len(),
                ops: leader.op_cycles.len(),
                kinds: leader.kinds.clone(),
                bytes: leader.bytes,
                p50: percentile(&sorted, 0.50),
                p99: percentile(&sorted, 0.99),
                p999: percentile(&sorted, 0.999),
                mean: total_cycles as f64 / sorted.len().max(1) as f64,
                throughput: leader.bytes as f64 / (total_cycles.max(1)) as f64,
                solo_cycles: 0,
                efficiency: 1.0,
                digest,
            });
        }
        TrafficReport {
            fairness: 1.0,
            tenants,
            plan_cache: report.plan_cache,
            makespan_cycles: report.makespan_cycles(),
        }
    }

    /// Fill in a tenant's solo baseline and recompute the fairness ratio
    /// over every tenant that has one.
    fn apply_solo(&mut self, t: usize, solo_cycles: u64) {
        let shared: u64 = {
            let stats = &mut self.tenants[t];
            stats.solo_cycles = solo_cycles;
            (stats.mean * stats.ops as f64) as u64
        };
        if shared > 0 {
            self.tenants[t].efficiency = solo_cycles as f64 / shared as f64;
        }
        let max_eff = self
            .tenants
            .iter()
            .map(|s| s.efficiency)
            .fold(0.0, f64::max);
        let min_eff = self
            .tenants
            .iter()
            .map(|s| s.efficiency)
            .fold(f64::INFINITY, f64::min);
        self.fairness = if min_eff > 0.0 {
            max_eff / min_eff
        } else {
            f64::INFINITY
        };
    }
}

/// A traffic run that did not complete.
#[derive(Debug)]
pub enum TrafficError {
    /// The workload cannot run on this fabric.
    Config(TrafficConfigError),
    /// The watchdog fired; the report is attributed to the tenant owning
    /// the stuck PE.
    Deadlock {
        /// Tenant of the stuck PE.
        tenant: usize,
        /// The underlying watchdog report.
        report: Box<DeadlockReport>,
    },
    /// A PE panicked.
    Panic(String),
    /// A tenant's solo-baseline digest disagrees with its shared-run
    /// digest: another tenant's traffic leaked into its results.
    Isolation {
        /// Tenant whose results differ.
        tenant: usize,
        /// Digest observed in the shared run.
        shared: u64,
        /// Digest observed in the solo baseline.
        solo: u64,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::Config(e) => write!(f, "invalid traffic config: {e}"),
            TrafficError::Deadlock { tenant, report } => {
                write!(f, "tenant {tenant} deadlocked: {report}")
            }
            TrafficError::Panic(msg) => write!(f, "traffic run panicked: {msg}"),
            TrafficError::Isolation {
                tenant,
                shared,
                solo,
            } => write!(
                f,
                "tenant {tenant} isolation violated: shared digest {shared:016x} != solo {solo:016x}"
            ),
        }
    }
}

impl std::error::Error for TrafficError {}

/// Run a traffic workload on a fabric: one shared run with every tenant
/// live, then one *solo* baseline per tenant on a team-sized fabric with
/// the same engine/timing/fault config. The solo passes ground the
/// efficiency and fairness numbers and double as an isolation check —
/// each tenant's solo digest must be byte-identical to its shared-run
/// digest. Deadlocks (e.g. under a chaos fault plane) are attributed to
/// the tenant owning the stuck PE.
pub fn run_traffic(fab: FabricConfig, cfg: &TrafficConfig) -> Result<TrafficReport, TrafficError> {
    cfg.validate(fab.n_pes).map_err(TrafficError::Config)?;
    let n_pes = fab.n_pes;
    let tenants = cfg.tenants;
    let slots = (0..tenants)
        .map(|t| plan_slots(cfg, t, &tenant_members(t, n_pes, tenants), n_pes))
        .fold(64, usize::max);
    let body_cfg = cfg.clone();
    let shared = match Fabric::try_run(fab, move |pe| traffic_body(pe, &body_cfg, slots)) {
        Ok(report) => report,
        Err(RunError::Deadlock(report)) => {
            return Err(TrafficError::Deadlock {
                tenant: tenant_of(report.stuck().rank, n_pes, tenants),
                report: Box::new(report),
            })
        }
        Err(RunError::Panic(msg)) => return Err(TrafficError::Panic(msg)),
    };
    let mut report = TrafficReport::from_run(&shared);
    for t in 0..tenants {
        let team = tenant_members(t, n_pes, tenants).len();
        let mut solo_fab = fab;
        solo_fab.n_pes = team;
        let slots = plan_slots(cfg, t, &(0..team).collect::<Vec<_>>(), team);
        let solo_cfg = cfg.clone();
        let solo = match Fabric::try_run(solo_fab, move |pe| solo_body(pe, &solo_cfg, t, slots)) {
            Ok(r) => r,
            Err(RunError::Deadlock(r)) => {
                return Err(TrafficError::Deadlock {
                    tenant: t,
                    report: Box::new(r),
                })
            }
            Err(RunError::Panic(msg)) => return Err(TrafficError::Panic(msg)),
        };
        let mut by_rank: Vec<&PeTraffic> = solo.results.iter().collect();
        by_rank.sort_by_key(|pt| pt.team_rank);
        let solo_digest = by_rank
            .iter()
            .fold(FNV_OFFSET, |h, pt| fnv_mix(h, &[pt.digest]));
        if solo_digest != report.tenants[t].digest {
            return Err(TrafficError::Isolation {
                tenant: t,
                shared: report.tenants[t].digest,
                solo: solo_digest,
            });
        }
        let leader = solo
            .results
            .iter()
            .find(|pt| pt.team_rank == 0)
            .expect("solo team has a leader");
        report.apply_solo(t, leader.op_cycles.iter().sum());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    #[test]
    fn partition_is_contiguous_and_total() {
        for (n, t) in [(8, 3), (256, 8), (10, 5), (7, 2)] {
            let mut seen = Vec::new();
            for tt in 0..t {
                let m = tenant_members(tt, n, t);
                assert!(m.len() >= 2 || n / t < 2);
                for &r in &m {
                    assert_eq!(tenant_of(r, n, t), tt);
                    seen.push(r);
                }
            }
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }

    /// Every tenant's episodes are counted once, by the tenant's first
    /// member, not only those of the tenant that holds rank 0.
    #[test]
    fn every_tenant_episode_is_counted() {
        let cfg = TrafficConfig {
            tenants: 2,
            ops_per_tenant: 6,
            ..Default::default()
        };
        let (n_pes, tenants) = (4, cfg.tenants);
        let slots = (0..tenants)
            .map(|t| plan_slots(&cfg, t, &tenant_members(t, n_pes, tenants), n_pes))
            .fold(64, usize::max);
        let fab = FabricConfig::new(n_pes).with_engine(EngineConfig::coop().with_workers(1));
        let report = Fabric::run(fab, |pe| traffic_body(pe, &cfg, slots));
        let calls: u64 = report.collectives.iter().map(|r| r.calls).sum();
        assert_eq!(calls, (tenants * cfg.ops_per_tenant) as u64);
    }

    #[test]
    fn plans_are_pure_functions_of_seed() {
        let cfg = TrafficConfig::default();
        for t in 0..cfg.tenants {
            assert_eq!(tenant_plan(&cfg, t, 4), tenant_plan(&cfg, t, 4));
        }
        let other = TrafficConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        assert_ne!(tenant_plan(&cfg, 0, 4), tenant_plan(&other, 0, 4));
    }

    #[test]
    fn generated_ops_always_schedule_traffic() {
        let cfg = TrafficConfig {
            tenants: 4,
            ops_per_tenant: 64,
            ..Default::default()
        };
        for t in 0..cfg.tenants {
            for op in tenant_plan(&cfg, t, 3) {
                let members = [0, 1, 2];
                let sched = op_schedule(&op, &members, 12);
                assert!(
                    sched.ops().any(|o| o.nelems > 0),
                    "empty schedule from {op:?}"
                );
            }
        }
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        let ok = TrafficConfig::default();
        assert!(ok.validate(16).is_ok());
        assert_eq!(
            TrafficConfig {
                tenants: 0,
                ..ok.clone()
            }
            .validate(16),
            Err(TrafficConfigError::NoTenants)
        );
        assert_eq!(
            TrafficConfig {
                tenants: 9,
                ..ok.clone()
            }
            .validate(16),
            Err(TrafficConfigError::TooManyTenants {
                tenants: 9,
                n_pes: 16
            })
        );
        assert_eq!(
            TrafficConfig {
                sync: SyncMode::Barrier,
                ..ok.clone()
            }
            .validate(16),
            Err(TrafficConfigError::UnsupportedSync(SyncMode::Barrier))
        );
    }

    #[test]
    fn small_traffic_run_reports_percentiles_and_fairness() {
        let cfg = TrafficConfig {
            tenants: 2,
            ops_per_tenant: 6,
            palette: 3,
            max_block: 16,
            ..Default::default()
        };
        let report = run_traffic(FabricConfig::paper(6), &cfg).expect("traffic run");
        assert_eq!(report.tenants.len(), 2);
        for t in &report.tenants {
            assert_eq!(t.ops, 6);
            assert!(t.p50 <= t.p99 && t.p99 <= t.p999);
            assert!(t.p999 > 0, "paper timing model should charge cycles");
            assert!(t.bytes > 0);
        }
        assert!(report.fairness >= 1.0);
    }
}
