//! The tracing plane: cycle-timestamped event capture for the fabric.
//!
//! Always compiled, cheap when off. Each PE owns a lock-free ring buffer of
//! fixed-width event records (`TraceRing`); the fabric and the schedule
//! executor emit an event per transfer, signal, barrier, local reduction and
//! stage span when [`crate::FabricConfig::with_trace`] is set, and emit
//! nothing (one branch per site) when it is not. On run completion the
//! per-PE rings are merged into a [`Trace`] attached to the
//! [`crate::RunReport`], which can be exported as Perfetto/Chrome trace JSON
//! ([`Trace::to_perfetto_json`]), analysed for the per-collective critical
//! path ([`Trace::critical_paths`]), or printed as a compact text timeline
//! ([`Trace::text_timeline`]).
//!
//! ## Ring-buffer overflow policy
//!
//! A ring holds 64 Ki events per PE up to 16 PEs, fewer past that so a
//! whole run stays within 1 Mi events, and wraps: the newest events win,
//! the oldest are overwritten, and the merged [`Trace`] reports how many
//! were lost in [`Trace::dropped`]. The writer is always the owning
//! PE; the only concurrent readers are the watchdog's deadlock
//! probe (which tolerates torn records by validating the kind tag) and the
//! post-join merge (which races with nothing).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::fabric::CollectiveKind;

/// Words per encoded event record in a [`TraceRing`].
const WORDS: usize = 5;

/// Ring capacity per PE at paper scale, in events.
const EVENTS_PER_PE: usize = 65_536;

/// Whole-fabric event budget the per-PE ring capacity scales against:
/// 1 Mi events ≈ 40 MiB of rings regardless of PE count.
const TOTAL_EVENT_BUDGET: usize = 1 << 20;

/// Scaling floor: even a 4096-PE run keeps at least this many events per
/// PE, enough for a watchdog probe's recent-event tail and a few
/// collective episodes.
const MIN_EVENTS_PER_PE: usize = 256;

/// The per-PE ring capacity of an `n_pes`-PE traced run: 64 Ki events up
/// to 16 PEs — paper-scale runs keep full fidelity — then whatever keeps
/// the run inside [`TOTAL_EVENT_BUDGET`], never below
/// [`MIN_EVENTS_PER_PE`], so a 4096-PE run takes ~40 MiB of rings
/// instead of gigabytes.
pub(crate) fn ring_capacity(n_pes: usize) -> usize {
    let cap = (TOTAL_EVENT_BUDGET / n_pes.max(1)).max(MIN_EVENTS_PER_PE);
    EVENTS_PER_PE.min(cap)
}

/// What a [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceKind {
    /// Blocking put (local source → remote heap).
    Put,
    /// Blocking get (remote heap → local destination).
    Get,
    /// Non-blocking put issue.
    PutNb,
    /// Non-blocking get issue.
    GetNb,
    /// Signal post to a peer's slot (`aux` = slot heap offset).
    SignalPost,
    /// Successful signal wait (`aux` = slot heap offset; the span covers
    /// the stall from first poll to consumption).
    SignalWait,
    /// Barrier episode on this PE (`aux` = barrier generation; the span
    /// runs from arrival to release).
    Barrier,
    /// Local reduction fold applied by the executor (`bytes` covers the
    /// folded elements).
    Reduce,
    /// Container span around one pipeline chunk forward (`aux` = chunk
    /// index within the op).
    Chunk,
    /// Container span around one schedule stage (`aux` = stage index).
    Stage,
    /// Container span around one collective episode on this PE.
    Collective,
}

impl TraceKind {
    const ALL: [TraceKind; 11] = [
        TraceKind::Put,
        TraceKind::Get,
        TraceKind::PutNb,
        TraceKind::GetNb,
        TraceKind::SignalPost,
        TraceKind::SignalWait,
        TraceKind::Barrier,
        TraceKind::Reduce,
        TraceKind::Chunk,
        TraceKind::Stage,
        TraceKind::Collective,
    ];

    /// Stable lowercase name (Perfetto slice name, timeline rows).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Put => "put",
            TraceKind::Get => "get",
            TraceKind::PutNb => "put_nb",
            TraceKind::GetNb => "get_nb",
            TraceKind::SignalPost => "signal_post",
            TraceKind::SignalWait => "signal_wait",
            TraceKind::Barrier => "barrier",
            TraceKind::Reduce => "reduce",
            TraceKind::Chunk => "chunk",
            TraceKind::Stage => "stage",
            TraceKind::Collective => "collective",
        }
    }

    /// Container spans group leaf events and are excluded from the
    /// critical-path chain (their cycles are already counted by the leaves
    /// they contain).
    pub fn is_container(self) -> bool {
        matches!(
            self,
            TraceKind::Chunk | TraceKind::Stage | TraceKind::Collective
        )
    }

    /// Critical-path attribution bucket for leaf events.
    pub fn category(self) -> TraceCategory {
        match self {
            TraceKind::SignalWait | TraceKind::Barrier => TraceCategory::Wait,
            TraceKind::Reduce => TraceCategory::Compute,
            _ => TraceCategory::Transfer,
        }
    }

    fn from_u8(v: u8) -> Option<TraceKind> {
        Self::ALL.get(v as usize).copied()
    }
}

/// Where a leaf event's cycles are attributed in the critical-path split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceCategory {
    /// Stalled on a peer: signal waits, barrier arrival-to-release spans.
    Wait,
    /// Moving bytes: puts, gets, signal posts.
    Transfer,
    /// Local arithmetic: reduction folds.
    Compute,
}

impl TraceCategory {
    /// Stable lowercase name (Perfetto category, reports).
    pub fn name(self) -> &'static str {
        match self {
            TraceCategory::Wait => "wait",
            TraceCategory::Transfer => "transfer",
            TraceCategory::Compute => "compute",
        }
    }
}

/// One cycle-timestamped event from one PE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle at which the operation began on this PE.
    pub cycle_start: u64,
    /// Simulated cycle at which it completed (`>= cycle_start`).
    pub cycle_end: u64,
    /// The PE that emitted the event.
    pub pe: usize,
    /// What happened.
    pub kind: TraceKind,
    /// Collective episode the event belongs to, if any.
    pub collective: Option<CollectiveKind>,
    /// Per-PE collective episode sequence number (saturating; episodes are
    /// collective calls, so the counter agrees across PEs).
    pub episode: u32,
    /// Schedule stage index within the episode, if inside a stage.
    pub stage: Option<u32>,
    /// Peer PE for transfers and signal posts.
    pub peer: Option<usize>,
    /// Payload bytes moved (or folded, for reductions).
    pub bytes: u64,
    /// Kind-specific extra word: signal slot offset, chunk index or barrier
    /// generation.
    pub aux: u64,
}

impl TraceEvent {
    /// Simulated-cycle width of the event.
    pub fn duration(&self) -> u64 {
        self.cycle_end.saturating_sub(self.cycle_start)
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}..{:>10}] pe{:<3} {:<13}",
            self.cycle_start,
            self.cycle_end,
            self.pe,
            self.kind.name()
        )?;
        if let Some(k) = self.collective {
            write!(f, " {}#{}", k.name(), self.episode)?;
        }
        if let Some(s) = self.stage {
            write!(f, " s{s}")?;
        }
        if let Some(p) = self.peer {
            write!(f, " → pe{p}")?;
        }
        if self.bytes > 0 {
            write!(f, " {}B", self.bytes)?;
        }
        Ok(())
    }
}

// Record layout: [cycle_start, cycle_end, meta, bytes, aux] where meta packs
//   bits 0..8   kind + 1        (0 = slot never written / torn read)
//   bits 8..16  collective index + 1 (0 = none)
//   bits 16..32 stage + 1       (0 = none)
//   bits 32..48 peer + 1        (0 = none)
//   bits 48..64 episode         (saturating)
fn encode_meta(ev: &TraceEvent) -> u64 {
    let kind = ev.kind as u64 + 1;
    let coll = ev.collective.map_or(0, |k| k.index() as u64 + 1);
    let stage = ev.stage.map_or(0, |s| (s as u64).min(0xfffe) + 1);
    let peer = ev.peer.map_or(0, |p| (p as u64).min(0xfffe) + 1);
    let episode = (ev.episode as u64).min(0xffff);
    kind | (coll << 8) | (stage << 16) | (peer << 32) | (episode << 48)
}

pub(crate) fn encode(ev: &TraceEvent) -> [u64; WORDS] {
    [
        ev.cycle_start,
        ev.cycle_end,
        encode_meta(ev),
        ev.bytes,
        ev.aux,
    ]
}

fn decode(raw: [u64; WORDS], pe: usize) -> Option<TraceEvent> {
    let meta = raw[2];
    let kind_tag = (meta & 0xff) as u8;
    if kind_tag == 0 {
        return None; // never written, or a torn concurrent read
    }
    let kind = TraceKind::from_u8(kind_tag - 1)?;
    let coll = ((meta >> 8) & 0xff) as usize;
    let collective = if coll == 0 || coll > CollectiveKind::ALL.len() {
        None
    } else {
        Some(CollectiveKind::from_index(coll - 1))
    };
    let stage = ((meta >> 16) & 0xffff) as u32;
    let peer = ((meta >> 32) & 0xffff) as usize;
    Some(TraceEvent {
        cycle_start: raw[0],
        cycle_end: raw[1].max(raw[0]),
        pe,
        kind,
        collective,
        episode: ((meta >> 48) & 0xffff) as u32,
        stage: (stage > 0).then(|| stage - 1),
        peer: (peer > 0).then(|| peer - 1),
        bytes: raw[3],
        aux: raw[4],
    })
}

/// Single-writer lock-free ring of encoded events for one PE.
///
/// The owning PE is the only writer; `head` counts events ever
/// recorded and is published with release ordering after the slot words are
/// stored, so a concurrent reader (the watchdog probe) sees either a fully
/// written record or a record whose kind tag it can reject.
pub(crate) struct TraceRing {
    head: AtomicU64,
    slots: Box<[AtomicU64]>,
    cap: usize,
}

impl TraceRing {
    fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        let slots = (0..cap * WORDS).map(|_| AtomicU64::new(0)).collect();
        TraceRing {
            head: AtomicU64::new(0),
            slots,
            cap,
        }
    }

    #[inline]
    pub(crate) fn record(&self, raw: [u64; WORDS]) {
        let idx = self.head.load(Ordering::Relaxed);
        let base = (idx as usize % self.cap) * WORDS;
        for (i, w) in raw.iter().enumerate() {
            self.slots[base + i].store(*w, Ordering::Relaxed);
        }
        self.head.store(idx + 1, Ordering::Release);
    }

    fn read_slot(&self, idx: u64) -> [u64; WORDS] {
        let base = (idx as usize % self.cap) * WORDS;
        let mut raw = [0u64; WORDS];
        for (i, w) in raw.iter_mut().enumerate() {
            *w = self.slots[base + i].load(Ordering::Relaxed);
        }
        raw
    }

    /// Decoded events currently held, oldest first, plus the dropped count.
    fn drain(&self, pe: usize) -> (Vec<TraceEvent>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let kept = head.min(self.cap as u64);
        let mut out = Vec::with_capacity(kept as usize);
        for idx in (head - kept)..head {
            if let Some(ev) = decode(self.read_slot(idx), pe) {
                out.push(ev);
            }
        }
        (out, head - kept)
    }

    /// Torn-read-tolerant snapshot of the newest `n` events (for the
    /// watchdog probe, which runs while the writer may still be writing).
    fn recent(&self, pe: usize, n: usize) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let take = head.min(n as u64).min(self.cap as u64);
        let mut out = Vec::with_capacity(take as usize);
        for idx in (head - take)..head {
            if let Some(ev) = decode(self.read_slot(idx), pe) {
                out.push(ev);
            }
        }
        out
    }
}

/// The per-run set of per-PE rings, owned by the fabric's shared state.
pub(crate) struct TracePlane {
    rings: Vec<TraceRing>,
}

impl TracePlane {
    pub(crate) fn new(n_pes: usize) -> Self {
        let cap = ring_capacity(n_pes);
        TracePlane {
            rings: (0..n_pes).map(|_| TraceRing::new(cap)).collect(),
        }
    }

    #[inline]
    pub(crate) fn ring(&self, pe: usize) -> &TraceRing {
        &self.rings[pe]
    }

    /// Newest `n` events of one PE (watchdog probe; tolerates torn reads).
    pub(crate) fn recent(&self, pe: usize, n: usize) -> Vec<TraceEvent> {
        self.rings[pe].recent(pe, n)
    }

    /// Merge all rings into a [`Trace`]. Called after every worker thread
    /// has joined, so it races with nothing.
    pub(crate) fn merge(&self) -> Trace {
        let mut events = Vec::new();
        let mut dropped = 0;
        for (pe, ring) in self.rings.iter().enumerate() {
            let (evs, lost) = ring.drain(pe);
            events.extend(evs);
            dropped += lost;
        }
        Trace {
            n_pes: self.rings.len(),
            events,
            dropped,
        }
    }
}

/// Longest dependency chain through one collective kind's episodes.
#[derive(Clone, Copy, Debug)]
pub struct CriticalPath {
    /// The collective being analysed.
    pub kind: CollectiveKind,
    /// Episodes (collective calls) aggregated into this row.
    pub episodes: u32,
    /// Sum over episodes of the heaviest dependency-chain weight.
    pub total_cycles: u64,
    /// Chain cycles stalled on peers (signal waits, barriers).
    pub wait_cycles: u64,
    /// Chain cycles moving bytes (puts, gets, posts).
    pub transfer_cycles: u64,
    /// Chain cycles in local reduction arithmetic.
    pub compute_cycles: u64,
    /// Sum over episodes of the observed span (last event end − first
    /// event start). The chain total should approach this; the gap is
    /// untraced local work.
    pub span_cycles: u64,
    /// Events on the chains.
    pub steps: usize,
}

struct ChainResult {
    total: u64,
    wait: u64,
    transfer: u64,
    compute: u64,
    steps: usize,
    span: u64,
}

/// The merged, post-run event log of a traced [`crate::Fabric::run`].
///
/// `events` is ordered by PE, and within a PE by emission order (which is
/// non-decreasing in `cycle_end`, because each PE's simulated clock is
/// monotone).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Number of PE tracks.
    pub n_pes: usize,
    /// All captured events, grouped by PE in emission order.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap-around, summed over PEs.
    pub dropped: u64,
}

impl Trace {
    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Match signal posts to the waits that consumed them, FIFO per
    /// (waiting PE, slot offset). Returns index pairs into `events`.
    fn match_flows(&self) -> Vec<(usize, usize)> {
        let mut posts: HashMap<(usize, u64), VecDeque<usize>> = HashMap::new();
        let mut pairs = Vec::new();
        // `events` is per-PE emission order; sort candidate indices by end
        // cycle so FIFO matching is chronological across PEs.
        let mut order: Vec<usize> = (0..self.events.len())
            .filter(|&i| {
                matches!(
                    self.events[i].kind,
                    TraceKind::SignalPost | TraceKind::SignalWait
                )
            })
            .collect();
        order.sort_by_key(|&i| (self.events[i].cycle_end, self.events[i].cycle_start, i));
        for i in order {
            let ev = &self.events[i];
            match ev.kind {
                TraceKind::SignalPost => {
                    if let Some(peer) = ev.peer {
                        posts.entry((peer, ev.aux)).or_default().push_back(i);
                    }
                }
                TraceKind::SignalWait => {
                    if let Some(p) = posts.get_mut(&(ev.pe, ev.aux)).and_then(|q| q.pop_front()) {
                        pairs.push((p, i));
                    }
                }
                _ => {}
            }
        }
        pairs
    }

    /// Export as Chrome trace-event JSON (the format `ui.perfetto.dev` and
    /// `chrome://tracing` load): one track (`tid`) per PE, a complete event
    /// (`ph:"X"`) per captured event with one simulated cycle rendered as
    /// one microsecond, and flow arrows (`ph:"s"`/`ph:"f"`) from each
    /// signal post to the wait that consumed it.
    pub fn to_perfetto_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, s: &str, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(s);
        };
        for pe in 0..self.n_pes {
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{pe},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"PE {pe}\"}}}}"
                ),
                &mut first,
            );
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{pe},\"name\":\"thread_sort_index\",\
                     \"args\":{{\"sort_index\":{pe}}}}}"
                ),
                &mut first,
            );
        }
        // Per track, order slices by start cycle with wider (container)
        // slices first so nesting renders correctly and timestamps are
        // monotone per track.
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| {
            let e = &self.events[i];
            (e.pe, e.cycle_start, u64::MAX - e.duration())
        });
        for i in order {
            let e = &self.events[i];
            let mut args = String::new();
            if let Some(k) = e.collective {
                args.push_str(&format!(
                    "\"collective\":\"{}\",\"episode\":{},",
                    k.name(),
                    e.episode
                ));
            }
            if let Some(s) = e.stage {
                args.push_str(&format!("\"stage\":{s},"));
            }
            if let Some(p) = e.peer {
                args.push_str(&format!("\"peer\":{p},"));
            }
            args.push_str(&format!("\"bytes\":{},\"aux\":{}", e.bytes, e.aux));
            let cat = if e.kind.is_container() {
                "span"
            } else {
                e.kind.category().name()
            };
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\
                     \"name\":\"{}\",\"cat\":\"{}\",\"args\":{{{}}}}}",
                    e.pe,
                    e.cycle_start,
                    e.duration(),
                    e.kind.name(),
                    cat,
                    args
                ),
                &mut first,
            );
        }
        for (flow_id, (p, w)) in self.match_flows().into_iter().enumerate() {
            let post = &self.events[p];
            let wait = &self.events[w];
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"s\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{},\
                     \"name\":\"signal\",\"cat\":\"flow\"}}",
                    post.pe, post.cycle_start, flow_id
                ),
                &mut first,
            );
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{},\
                     \"name\":\"signal\",\"cat\":\"flow\"}}",
                    wait.pe, wait.cycle_end, flow_id
                ),
                &mut first,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Walk the signal/barrier dependency graph and report the heaviest
    /// chain per collective kind, split into wait / transfer / compute
    /// cycles. One row per kind that appears in the trace, in
    /// [`CollectiveKind::ALL`] order.
    pub fn critical_paths(&self) -> Vec<CriticalPath> {
        // Group leaf events by (collective kind, episode). Scanning
        // `events` in order preserves per-PE emission order per group.
        let mut groups: BTreeMap<(usize, u32), Vec<usize>> = BTreeMap::new();
        for (i, e) in self.events.iter().enumerate() {
            if e.kind.is_container() {
                continue;
            }
            if let Some(k) = e.collective {
                groups.entry((k.index(), e.episode)).or_default().push(i);
            }
        }
        let mut rows: BTreeMap<usize, CriticalPath> = BTreeMap::new();
        for ((kind_idx, _episode), members) in &groups {
            let chain = self.longest_chain(members);
            let row = rows.entry(*kind_idx).or_insert(CriticalPath {
                kind: CollectiveKind::from_index(*kind_idx),
                episodes: 0,
                total_cycles: 0,
                wait_cycles: 0,
                transfer_cycles: 0,
                compute_cycles: 0,
                span_cycles: 0,
                steps: 0,
            });
            row.episodes += 1;
            row.total_cycles += chain.total;
            row.wait_cycles += chain.wait;
            row.transfer_cycles += chain.transfer;
            row.compute_cycles += chain.compute;
            row.span_cycles += chain.span;
            row.steps += chain.steps;
        }
        rows.into_values().collect()
    }

    /// Longest-path DP over one episode's leaf events.
    ///
    /// Nodes are the member events plus one virtual node per barrier
    /// generation (the release wave). Edges: program order per PE, each
    /// signal post to the wait that consumed it, each barrier arrival into
    /// its generation's virtual node, and the virtual node into every
    /// member's program successor (the chain may resume on any PE after a
    /// barrier releases).
    fn longest_chain(&self, members: &[usize]) -> ChainResult {
        let n = members.len();
        if n == 0 {
            return ChainResult {
                total: 0,
                wait: 0,
                transfer: 0,
                compute: 0,
                steps: 0,
                span: 0,
            };
        }
        let ev = |i: usize| &self.events[members[i]];
        let span_start = (0..n).map(|i| ev(i).cycle_start).min().unwrap_or(0);
        let span_end = (0..n).map(|i| ev(i).cycle_end).max().unwrap_or(0);

        // Program-order successor per local index (members are per-PE
        // emission order within each PE's contiguous run).
        let mut succ: Vec<Option<usize>> = vec![None; n];
        let mut last_of_pe: HashMap<usize, usize> = HashMap::new();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, pred) in preds.iter_mut().enumerate() {
            if let Some(&prev) = last_of_pe.get(&ev(i).pe) {
                succ[prev] = Some(i);
                pred.push(prev);
            }
            last_of_pe.insert(ev(i).pe, i);
        }

        // Signal edges: FIFO per (waiting PE, slot offset), chronological.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (ev(i).cycle_end, ev(i).cycle_start, i));
        let mut posts: HashMap<(usize, u64), VecDeque<usize>> = HashMap::new();
        for &i in &order {
            match ev(i).kind {
                TraceKind::SignalPost => {
                    if let Some(peer) = ev(i).peer {
                        posts.entry((peer, ev(i).aux)).or_default().push_back(i);
                    }
                }
                TraceKind::SignalWait => {
                    if let Some(p) = posts
                        .get_mut(&(ev(i).pe, ev(i).aux))
                        .and_then(|q| q.pop_front())
                    {
                        preds[i].push(p);
                    }
                }
                _ => {}
            }
        }

        // Barrier generations → virtual release nodes appended after the
        // real nodes.
        let mut gens: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for i in 0..n {
            if ev(i).kind == TraceKind::Barrier {
                gens.entry(ev(i).aux).or_default().push(i);
            }
        }
        let mut virt_preds: Vec<Vec<usize>> = Vec::with_capacity(gens.len());
        for (g, (_gen, arrivals)) in gens.iter().enumerate() {
            let v = n + g;
            for &b in arrivals {
                if let Some(s) = succ[b] {
                    preds[s].push(v);
                }
            }
            virt_preds.push(arrivals.clone());
        }
        let total_nodes = n + virt_preds.len();
        let pred_of = |i: usize| -> &[usize] {
            if i < n {
                &preds[i]
            } else {
                &virt_preds[i - n]
            }
        };
        let weight = |i: usize| -> u64 {
            if i < n {
                ev(i).duration()
            } else {
                0
            }
        };

        // Kahn topological DP. The graph is a DAG for any completed run;
        // the trailing pass guards against artificial cycles from
        // mismatched flows (processing leftovers in index order).
        let mut indeg = vec![0usize; total_nodes];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); total_nodes];
        for (i, deg) in indeg.iter_mut().enumerate() {
            for &p in pred_of(i) {
                succs[p].push(i);
                *deg += 1;
            }
        }
        let mut dist = vec![0u64; total_nodes];
        let mut best: Vec<Option<usize>> = vec![None; total_nodes];
        let mut done = vec![false; total_nodes];
        let mut queue: VecDeque<usize> = (0..total_nodes).filter(|&i| indeg[i] == 0).collect();
        let settle = |i: usize, dist: &mut Vec<u64>, best: &mut Vec<Option<usize>>| {
            let mut d = 0;
            let mut b = None;
            for &p in pred_of(i) {
                if dist[p] >= d && (b.is_none() || dist[p] > d) {
                    d = dist[p];
                    b = Some(p);
                }
            }
            dist[i] = d + weight(i);
            best[i] = b;
        };
        while let Some(i) = queue.pop_front() {
            if done[i] {
                continue;
            }
            done[i] = true;
            settle(i, &mut dist, &mut best);
            for &s in &succs[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        for (i, d) in done.iter_mut().enumerate() {
            if !*d {
                *d = true;
                settle(i, &mut dist, &mut best);
            }
        }

        // Backtrack the heaviest chain, attributing real-node weights.
        let end = (0..total_nodes).max_by_key(|&i| dist[i]).unwrap_or(0);
        let mut res = ChainResult {
            total: dist[end],
            wait: 0,
            transfer: 0,
            compute: 0,
            steps: 0,
            span: span_end.saturating_sub(span_start),
        };
        let mut cur = Some(end);
        let mut hops = 0usize;
        while let Some(i) = cur {
            hops += 1;
            if hops > total_nodes {
                break; // cycle guard
            }
            if i < n {
                res.steps += 1;
                match ev(i).kind.category() {
                    TraceCategory::Wait => res.wait += ev(i).duration(),
                    TraceCategory::Transfer => res.transfer += ev(i).duration(),
                    TraceCategory::Compute => res.compute += ev(i).duration(),
                }
            }
            cur = best[i];
        }
        res
    }

    /// Compact text timeline: the first `max_events` events in start-cycle
    /// order, one row each, plus a critical-path summary per collective.
    pub fn text_timeline(&self, max_events: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} events across {} PEs ({} dropped)\n",
            self.events.len(),
            self.n_pes,
            self.dropped
        ));
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| {
            let e = &self.events[i];
            (e.cycle_start, e.pe, e.cycle_end)
        });
        for &i in order.iter().take(max_events) {
            out.push_str(&format!("  {}\n", self.events[i]));
        }
        if order.len() > max_events {
            out.push_str(&format!("  … {} more\n", order.len() - max_events));
        }
        let paths = self.critical_paths();
        if !paths.is_empty() {
            out.push_str("critical path (cycles on the heaviest dependency chain, per kind):\n");
            for p in paths {
                out.push_str(&format!(
                    "  {:<10} eps {:>3}  total {:>10}  wait {:>10}  xfer {:>10}  \
                     compute {:>8}  span {:>10}  steps {}\n",
                    p.kind.name(),
                    p.episodes,
                    p.total_cycles,
                    p.wait_cycles,
                    p.transfer_cycles,
                    p.compute_cycles,
                    p.span_cycles,
                    p.steps
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        pe: usize,
        kind: TraceKind,
        start: u64,
        end: u64,
        peer: Option<usize>,
        aux: u64,
    ) -> TraceEvent {
        TraceEvent {
            cycle_start: start,
            cycle_end: end,
            pe,
            kind,
            collective: Some(CollectiveKind::Broadcast),
            episode: 1,
            stage: Some(0),
            peer,
            bytes: 64,
            aux,
        }
    }

    #[test]
    fn ring_capacity_auto_scales_with_pe_count() {
        // Paper-scale runs keep the full ring.
        assert_eq!(ring_capacity(1), 65_536);
        assert_eq!(ring_capacity(16), 65_536);
        // Past the budget the per-PE capacity shrinks proportionally…
        assert_eq!(ring_capacity(64), 16_384);
        assert_eq!(ring_capacity(1024), 1024);
        // …down to the floor, never below it.
        assert_eq!(ring_capacity(4096), 256);
        assert_eq!(ring_capacity(1 << 20), 256);
        // A (degenerate) zero-PE count is the one-PE ring.
        assert_eq!(ring_capacity(0), 65_536);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let e = TraceEvent {
            cycle_start: 123,
            cycle_end: 456,
            pe: 3,
            kind: TraceKind::SignalWait,
            collective: Some(CollectiveKind::AllToAll),
            episode: 7,
            stage: Some(2),
            peer: Some(5),
            bytes: 4096,
            aux: 99,
        };
        let d = decode(encode(&e), 3).unwrap();
        assert_eq!(d, e);
        // None fields survive too.
        let e2 = TraceEvent {
            collective: None,
            stage: None,
            peer: None,
            ..e
        };
        assert_eq!(decode(encode(&e2), 3).unwrap(), e2);
    }

    #[test]
    fn unwritten_slot_decodes_to_none() {
        assert!(decode([0; WORDS], 0).is_none());
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let r = TraceRing::new(4);
        for i in 0..10u64 {
            let mut e = ev(0, TraceKind::Put, i, i + 1, Some(1), 0);
            e.aux = i;
            r.record(encode(&e));
        }
        let (evs, dropped) = r.drain(0);
        assert_eq!(dropped, 6);
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].aux, 6, "oldest surviving event");
        assert_eq!(evs[3].aux, 9, "newest event");
    }

    #[test]
    fn critical_path_follows_signal_chain() {
        // pe0 puts 0..10 then posts; pe1 waits 0..12 then puts 12..20.
        // Chain: put(10) + post(1) + wait(12) + put(8) = 31.
        let t = Trace {
            n_pes: 2,
            events: vec![
                ev(0, TraceKind::Put, 0, 10, Some(1), 0),
                ev(0, TraceKind::SignalPost, 10, 11, Some(1), 640),
                ev(1, TraceKind::SignalWait, 0, 12, None, 640),
                ev(1, TraceKind::Put, 12, 20, Some(0), 0),
            ],
            dropped: 0,
        };
        let paths = t.critical_paths();
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.kind, CollectiveKind::Broadcast);
        assert_eq!(p.total_cycles, 31);
        assert_eq!(p.wait_cycles, 12);
        assert_eq!(p.transfer_cycles, 19);
        assert_eq!(p.span_cycles, 20);
        assert_eq!(p.steps, 4);
    }

    #[test]
    fn critical_path_crosses_barrier_release() {
        // pe0 busy 0..30 then barrier 30..40; pe1 barrier 5..40 then
        // reduce 40..55. The chain must jump from pe0's arrival through
        // the release to pe1's reduce: 30 + 10 + 15 = 55.
        let t = Trace {
            n_pes: 2,
            events: vec![
                ev(0, TraceKind::Put, 0, 30, Some(1), 0),
                ev(0, TraceKind::Barrier, 30, 40, None, 7),
                ev(1, TraceKind::Barrier, 5, 40, None, 7),
                ev(1, TraceKind::Reduce, 40, 55, None, 0),
            ],
            dropped: 0,
        };
        let p = &t.critical_paths()[0];
        assert_eq!(p.total_cycles, 55);
        assert_eq!(p.span_cycles, 55);
        assert_eq!(p.compute_cycles, 15);
    }

    #[test]
    fn containers_excluded_from_chain() {
        let mut stage = ev(0, TraceKind::Stage, 0, 10, None, 0);
        stage.bytes = 0;
        let t = Trace {
            n_pes: 1,
            events: vec![stage, ev(0, TraceKind::Put, 0, 10, None, 0)],
            dropped: 0,
        };
        let p = &t.critical_paths()[0];
        assert_eq!(p.total_cycles, 10, "stage span must not double-count");
        assert_eq!(p.steps, 1);
    }

    #[test]
    fn perfetto_export_shape() {
        let t = Trace {
            n_pes: 2,
            events: vec![
                ev(0, TraceKind::Put, 0, 10, Some(1), 0),
                ev(0, TraceKind::SignalPost, 10, 11, Some(1), 640),
                ev(1, TraceKind::SignalWait, 0, 12, None, 640),
            ],
            dropped: 0,
        };
        let json = t.to_perfetto_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"s\""), "flow start missing");
        assert!(json.contains("\"ph\":\"f\""), "flow finish missing");
        assert!(json.contains("\"name\":\"signal_wait\""));
        assert!(json.contains("PE 1"));
        // Balanced braces/brackets — a cheap well-formedness check; the
        // full schema validation lives in the trace_check bench tool.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_trace_exports_well_formed() {
        let t = Trace {
            n_pes: 0,
            events: Vec::new(),
            dropped: 0,
        };
        let json = t.to_perfetto_json();
        assert!(json.contains("\"traceEvents\":["));
        assert!(t.critical_paths().is_empty());
        assert!(t.text_timeline(10).contains("0 events"));
    }
}
