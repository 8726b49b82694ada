//! Shared helpers for the Criterion benches.
//!
//! The benches live in `benches/`:
//!
//! * `ops` — native per-operation costs for all six algorithms plus the
//!   idiomatic heap queues and third-party comparators;
//! * `figure3` / `figure4` / `figure5` — one bench per paper figure,
//!   running the Section 4 workload on the simulated multiprocessor at a
//!   reduced op count (the full-size sweeps are the `figures` binary in
//!   `msq-harness`);
//! * `ablations` — backoff on/off and idiomatic-variant comparisons.
//!
//! **Interpreting the simulator-based benches:** Criterion measures *host
//! wall time*, which for a simulated run tracks the number of simulated
//! operations (each one is a scheduler transaction), not the virtual-time
//! result. They exist to catch performance regressions in the simulator
//! and algorithms; the reproduction's actual metric — virtual net time —
//! comes from the `figures` binary and is asserted by
//! `tests/figure_shapes.rs`. The native benches (`ops`, the uncontended
//! ablations) measure real operation latency directly.

#![warn(missing_docs)]

use msq_harness::{
    figure_machine, run_scenario_simulated, Algorithm, MeasuredPoint, PairedScenario,
    WorkloadConfig,
};
use msq_sim::{FaultPlan, SimConfig};

/// A small but contended workload sized for Criterion iteration counts.
pub fn bench_workload() -> WorkloadConfig {
    WorkloadConfig {
        pairs_total: 500,
        other_work_ns: 6_000,
        capacity: 1_024,
        mem_budget: None,
    }
}

/// Simulated machine for figure benches: the `figures` binary's machine
/// for the bench workload (whose 500 pairs put the quantum at its 20 µs
/// floor).
pub fn bench_sim_config(processors: usize, processes_per_processor: usize) -> SimConfig {
    SimConfig {
        processors,
        processes_per_processor,
        ..figure_machine(bench_workload().pairs_total, None)
    }
}

/// Runs one figure cell (for use inside a Criterion `iter`).
pub fn figure_cell(
    algorithm: Algorithm,
    processors: usize,
    processes_per_processor: usize,
) -> MeasuredPoint {
    let scenario = PairedScenario {
        workload: bench_workload(),
    };
    let config = bench_sim_config(processors, processes_per_processor);
    run_scenario_simulated(algorithm, config, scenario, FaultPlan::new())
        .point
        .point
}
