//! The tracing plane: cycle-timestamped event capture for the fabric.
//!
//! Always compiled, cheap when off. Each PE records plain [`TraceEvent`]s
//! into its own bounded ring (`TraceRing`), kept in the PE's tally beside its
//! counters; the fabric and the schedule executor emit an event per
//! transfer, signal, barrier, local reduction and stage span when
//! [`crate::FabricConfig::with_trace`] is set, and emit nothing (one branch
//! per site) when it is not. After the workers have joined, the per-PE
//! rings are merged into a [`Trace`] attached to the [`crate::RunReport`],
//! which can be exported as Perfetto/Chrome trace JSON
//! ([`Trace::to_perfetto_json`]), analysed for the per-collective critical
//! path ([`Trace::critical_paths`]), or printed as a compact text timeline
//! ([`Trace::text_timeline`]).
//!
//! ## Ring overflow policy
//!
//! A ring holds 64 Ki events per PE up to 16 PEs, fewer past that so a
//! whole run stays within 1 Mi events, and wraps: the newest events win,
//! the oldest are dropped, and the merged [`Trace`] reports how many were
//! lost in [`Trace::dropped`]. Only the owning PE touches its ring while
//! the run lasts; the merge, and a watchdog report's recent events, read
//! the rings after the join. A PE stops recording once the fabric is
//! poisoned, so a report's recent events end where the watchdog fired.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use xbgas_sim::hash::WordMap;

use crate::fabric::CollectiveKind;

/// Ring capacity per PE at paper scale, in events.
const EVENTS_PER_PE: usize = 65_536;

/// Whole-fabric event budget the per-PE ring capacity scales against:
/// 1 Mi events ≈ 72 MiB of rings regardless of PE count.
const TOTAL_EVENT_BUDGET: usize = 1 << 20;

/// Scaling floor: even a 4096-PE run keeps at least this many events per
/// PE, enough for a watchdog probe's recent-event tail and a few
/// collective episodes.
const MIN_EVENTS_PER_PE: usize = 256;

/// The per-PE ring capacity of an `n_pes`-PE traced run: 64 Ki events up
/// to 16 PEs — paper-scale runs keep full fidelity — then whatever keeps
/// the run inside [`TOTAL_EVENT_BUDGET`], never below
/// [`MIN_EVENTS_PER_PE`], so a 4096-PE run takes ~72 MiB of rings
/// instead of gigabytes.
pub(crate) fn ring_capacity(n_pes: usize) -> usize {
    let cap = (TOTAL_EVENT_BUDGET / n_pes.max(1)).max(MIN_EVENTS_PER_PE);
    EVENTS_PER_PE.min(cap)
}

/// What a [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
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
    /// Per-PE collective episode sequence number (episodes are collective
    /// calls, so the counter agrees across PEs).
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

/// One PE's bounded event log: the newest `cap` events, oldest first,
/// and how many older ones were dropped to make room.
pub(crate) struct TraceRing {
    events: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl TraceRing {
    /// An empty ring of `cap` events, allocated up front.
    pub(crate) fn new(cap: usize) -> Self {
        TraceRing {
            events: VecDeque::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    /// Append `ev`, dropping the oldest event when the ring is full.
    #[inline]
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// The newest `n` events, oldest first.
    pub(crate) fn recent(&self, n: usize) -> Vec<TraceEvent> {
        let skip = self.events.len().saturating_sub(n);
        self.events.iter().skip(skip).copied().collect()
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

    /// Merge the per-PE rings, indexed by rank, into one trace. Called
    /// after every PE has finished, so nothing writes a ring any more.
    pub(crate) fn merge(rings: Vec<TraceRing>) -> Trace {
        let n_pes = rings.len();
        let mut events = Vec::with_capacity(rings.iter().map(|r| r.events.len()).sum());
        let mut dropped = 0;
        for ring in rings {
            events.extend(ring.events);
            dropped += ring.dropped;
        }
        Trace {
            n_pes,
            events,
            dropped,
        }
    }

    /// Match signal posts to the waits that consumed them, FIFO per
    /// (waiting PE, slot offset) in end-cycle order across PEs. `at`
    /// indexes `events`; returns `(post, wait)` positions in `at`, in the
    /// order the waits were matched.
    fn match_flows(&self, at: &[usize]) -> Vec<(usize, usize)> {
        let ev = |i: usize| &self.events[at[i]];
        let mut order: Vec<usize> = (0..at.len())
            .filter(|&i| matches!(ev(i).kind, TraceKind::SignalPost | TraceKind::SignalWait))
            .collect();
        order.sort_by_key(|&i| (ev(i).cycle_end, ev(i).cycle_start, i));
        let mut posts: WordMap<(usize, u64), VecDeque<usize>> = WordMap::default();
        let mut pairs = Vec::new();
        for i in order {
            let e = ev(i);
            match e.kind {
                TraceKind::SignalPost => {
                    if let Some(peer) = e.peer {
                        posts.entry((peer, e.aux)).or_default().push_back(i);
                    }
                }
                TraceKind::SignalWait => {
                    if let Some(p) = posts.get_mut(&(e.pe, e.aux)).and_then(|q| q.pop_front()) {
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
        let every: Vec<usize> = (0..self.events.len()).collect();
        for (flow_id, (p, w)) in self.match_flows(&every).into_iter().enumerate() {
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
        let mut last_of_pe: WordMap<usize, usize> = WordMap::default();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, pred) in preds.iter_mut().enumerate() {
            if let Some(&prev) = last_of_pe.get(&ev(i).pe) {
                succ[prev] = Some(i);
                pred.push(prev);
            }
            last_of_pe.insert(ev(i).pe, i);
        }

        // Signal edges: each post into the wait that consumed it.
        for (p, w) in self.match_flows(members) {
            preds[w].push(p);
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
    fn ring_wraps_and_counts_drops() {
        let mut r = TraceRing::new(4);
        for i in 0..10u64 {
            r.record(ev(0, TraceKind::Put, i, i + 1, Some(1), i));
        }
        assert_eq!(
            r.recent(2).iter().map(|e| e.aux).collect::<Vec<_>>(),
            [8, 9]
        );
        let t = Trace::merge(vec![r]);
        assert_eq!(t.dropped, 6);
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.events[0].aux, 6, "oldest surviving event");
        assert_eq!(t.events[3].aux, 9, "newest event");
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
