//! Interconnect (network-on-chip / inter-node fabric) timing model.
//!
//! The paper's environment bridges PEs with MPICH purely as a simulation
//! transport; architecturally, xBGAS remote loads/stores travel over
//! whatever fabric connects the nodes. [`NocConfig`] holds the fabric's
//! calibration, and each consumer prices a remote transaction its own way:
//!
//! * the instruction-level [`Machine`](crate::machine::Machine) reserves a
//!   [`SharedChannel`] for the transaction's [`NocConfig::occupancy`] at
//!   the hart's own clock (exact, because the hart with the smallest cycle
//!   count always steps next) and only records the total in a [`Noc`];
//! * `xbrtime`'s fabric prices its crossings in `xbrtime::timing`: the
//!   same occupancy and base latency, queued behind the other PEs'
//!   offered load ρ as `occupancy · ρ/(1−ρ)`;
//! * [`NocConfig::transfer_cost`]'s congestion term,
//!
//! ```text
//! cost = base_latency + ceil(bytes / bytes_per_cycle) * (1 + congestion_factor * in_flight)
//! ```
//!
//! prices nothing in either: only the benchmark calls it, through
//! [`Noc::transact`] and as an uncontended baseline, always with no other
//! transaction in flight.

/// Parameters of the interconnect model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NocConfig {
    /// Fixed per-transaction latency in cycles (flight time + routing).
    pub base_latency: u64,
    /// Payload bandwidth in bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Additional fractional serialization cost per concurrent transaction
    /// in [`NocConfig::transfer_cost`]: with `k` other transactions in
    /// flight, the serialization term is multiplied by
    /// `1 + congestion_factor * k`.
    pub congestion_factor: f64,
    /// Channel occupancy charged per transaction regardless of size
    /// (header/routing/turnaround). Together with the serialization term
    /// this is how long a transaction holds the shared channel
    /// ([`NocConfig::occupancy`]) — the source of queueing delay under
    /// saturation.
    pub packet_occupancy: u64,
}

impl NocConfig {
    /// Default calibration used by the figure harnesses.
    ///
    /// xBGAS's premise (paper §3.1) is that remote accesses are *cheap* —
    /// no kernel crossings, no copies — so the base latency is of the same
    /// order as a NUMA hop rather than the microseconds of a software
    /// network stack.
    pub const fn paper() -> Self {
        NocConfig {
            base_latency: 30,
            bytes_per_cycle: 8,
            congestion_factor: 0.35,
            packet_occupancy: 32,
        }
    }

    /// A zero-cost fabric, useful for functional-only tests.
    pub const fn free() -> Self {
        NocConfig {
            base_latency: 0,
            bytes_per_cycle: u64::MAX,
            congestion_factor: 0.0,
            packet_occupancy: 0,
        }
    }

    /// Cycles `bytes` of payload take to serialize onto the channel.
    fn serial(&self, bytes: usize) -> u64 {
        if self.bytes_per_cycle == u64::MAX {
            0
        } else {
            (bytes as u64).div_ceil(self.bytes_per_cycle)
        }
    }

    /// How long one transaction of `bytes` holds the shared channel.
    pub fn occupancy(&self, bytes: usize) -> u64 {
        self.packet_occupancy + self.serial(bytes)
    }

    /// Cycles to move `bytes` with `in_flight` *other* active transactions.
    pub fn transfer_cost(&self, bytes: usize, in_flight: usize) -> u64 {
        let serial = self.serial(bytes);
        let scale = 1.0 + self.congestion_factor * in_flight as f64;
        self.base_latency + (serial as f64 * scale).round() as u64
    }
}

/// A shared-channel reservation model in *simulated* time.
///
/// Every remote transaction reserves the channel for its
/// [`NocConfig::occupancy`]; a requester arriving while the channel is
/// busy queues behind the reservation. Under light load a transaction
/// waits ~0 cycles; as offered load approaches channel capacity the wait
/// grows without bound — the queueing behaviour that produces the paper's
/// 8-PE performance drop. Total channel time is conserved regardless of
/// thread interleaving, so saturated makespans are stable run-to-run.
#[derive(Debug, Default)]
pub struct SharedChannel {
    busy_until: std::sync::atomic::AtomicU64,
}

impl SharedChannel {
    /// A channel idle since cycle 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the channel for `occupancy` cycles starting no earlier than
    /// `now`; returns the cycle at which this transaction actually starts.
    pub fn reserve(&self, now: u64, occupancy: u64) -> u64 {
        use std::sync::atomic::Ordering;
        let mut prev = self.busy_until.load(Ordering::Relaxed);
        loop {
            let start = prev.max(now);
            match self.busy_until.compare_exchange_weak(
                prev,
                start + occupancy,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return start,
                Err(actual) => prev = actual,
            }
        }
    }
}

/// Traffic counters for the fabric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Completed transactions.
    pub transactions: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Total cycles charged across all transactions.
    pub cycles: u64,
}

/// Traffic counters of the instruction-level simulator's fabric.
///
/// The machine prices its transactions through a [`SharedChannel`] and
/// [`Noc::record`]s them here; `xbrtime` keeps no `Noc`.
#[derive(Debug)]
pub struct Noc {
    config: NocConfig,
    stats: NocStats,
}

impl Noc {
    /// Build a fabric with the given parameters.
    pub fn new(config: NocConfig) -> Self {
        Noc {
            config,
            stats: NocStats::default(),
        }
    }

    /// The fabric parameters.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// Charge a whole transaction at [`NocConfig::transfer_cost`] with no
    /// other transaction in flight, and record it.
    pub fn transact(&mut self, bytes: usize) -> u64 {
        let cost = self.config.transfer_cost(bytes, 0);
        self.record(bytes, cost);
        cost
    }

    /// Record a transaction priced elsewhere (the machine's
    /// [`SharedChannel`] reservation).
    pub fn record(&mut self, bytes: usize, cycles: u64) {
        self.stats.transactions += 1;
        self.stats.bytes += bytes as u64;
        self.stats.cycles += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_plus_serialization() {
        let c = NocConfig {
            base_latency: 100,
            bytes_per_cycle: 8,
            congestion_factor: 0.0,
            packet_occupancy: 40,
        };
        assert_eq!(c.transfer_cost(0, 0), 100);
        assert_eq!(c.transfer_cost(8, 0), 101);
        assert_eq!(c.transfer_cost(9, 0), 102); // ceil
        assert_eq!(c.transfer_cost(64, 0), 108);
    }

    #[test]
    fn congestion_scales_serialization_only() {
        let c = NocConfig {
            base_latency: 100,
            bytes_per_cycle: 8,
            congestion_factor: 0.5,
            packet_occupancy: 40,
        };
        // 80 bytes = 10 serialization cycles; 2 others in flight → x2.
        assert_eq!(c.transfer_cost(80, 2), 100 + 20);
        // Base latency is unaffected by congestion.
        assert_eq!(c.transfer_cost(0, 10), 100);
    }

    #[test]
    fn free_fabric_is_free() {
        let c = NocConfig::free();
        assert_eq!(c.transfer_cost(1 << 30, 100), 0);
    }

    #[test]
    fn transact_records_an_uncontended_transfer() {
        let mut n = Noc::new(NocConfig::paper());
        let c = n.transact(64);
        assert_eq!(c, NocConfig::paper().transfer_cost(64, 0));
        n.transact(64);
        let s = n.stats();
        assert_eq!((s.transactions, s.bytes, s.cycles), (2, 128, 2 * c));
    }
}
