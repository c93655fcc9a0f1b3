//! The eight workloads. Each is a closed loop with one caller: a fresh
//! set-up function (for `setup_s`) and a run function that repeats the
//! timed region against a [`Budget`], checks every rep's outputs, and in
//! the traced pass also contributes the per-layer metrics it can see.

pub mod apps;
pub mod coll;
pub mod sim;
pub mod traffic;

use crate::measure::{Budget, Ctx, Rep};

/// One named measurement.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A benchmark workload.
pub struct Workload {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// What one operation is.
    pub op: &'static str,
    /// Reps a timed pass takes however slow the host; `sim_cycles_per_op`
    /// is read from these.
    pub min_reps: usize,
    /// One fresh set-up, from nothing to ready-to-issue, in seconds.
    pub setup: fn(&Ctx) -> f64,
    /// The timed reps, plus per-layer metrics in the traced pass.
    pub run: fn(&Ctx, &Budget, &mut Vec<Metric>) -> Vec<Rep>,
}

/// Every workload, in report order.
pub const ALL: [Workload; 8] = [
    Workload {
        name: "sim_gups",
        op: "table update",
        min_reps: 40,
        setup: sim::gups_setup,
        run: sim::gups_run,
    },
    Workload {
        name: "sim_remote",
        op: "remote access",
        min_reps: 40,
        setup: sim::remote_setup,
        run: sim::remote_run,
    },
    Workload {
        name: "gups_8pe",
        op: "update",
        min_reps: 9,
        setup: apps::gups_setup,
        run: apps::gups_run,
    },
    Workload {
        name: "is_8pe",
        op: "key ranked",
        min_reps: 7,
        setup: apps::is_setup,
        run: apps::is_run,
    },
    Workload {
        name: "coll_small",
        op: "collective call",
        min_reps: 25,
        setup: coll::small_setup,
        run: coll::small_run,
    },
    Workload {
        name: "coll_large",
        op: "collective call",
        min_reps: 25,
        setup: coll::large_setup,
        run: coll::large_run,
    },
    Workload {
        name: "coll_cold",
        op: "collective call",
        min_reps: 12,
        setup: coll::cold_setup,
        run: coll::cold_run,
    },
    Workload {
        name: "traffic_mt",
        op: "collective call",
        min_reps: 5,
        setup: traffic::setup,
        run: traffic::run,
    },
];
