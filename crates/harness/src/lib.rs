//! The experimental apparatus of Section 4.
//!
//! The paper's workload: p processes share one initially-empty queue; each
//! process repeatedly **enqueues an item, does ~6 µs of "other work",
//! dequeues an item, does more "other work"**, for a total of one million
//! enqueue/dequeue pairs across all processes. Reported numbers are *net*
//! elapsed time: total time minus the time one processor spends on its
//! share of the other work (which exists only to keep cache-miss rates
//! realistic).
//!
//! The workload is [`PairedScenario`], one [`Scenario`] among several,
//! and one driver pair runs every scenario two ways:
//!
//! * [`run_scenario_simulated`] — on the `msq-sim` deterministic
//!   multiprocessor, optionally under a fault plan, which is how
//!   Figures 3 (dedicated), 4 (2 processes/processor) and 5
//!   (3 processes/processor) are regenerated on any host;
//! * [`run_scenario_native`] — on real threads, for per-operation costs
//!   and for hosts with genuine parallelism.
//!
//! [`Algorithm`] enumerates all six queues in the paper's legend; the
//! `figures` binary sweeps processor counts and emits the tables/CSV
//! recorded in `EXPERIMENTS.md`.

#![warn(missing_docs)]

mod figures;
mod registry;
mod scenario;
mod workload;

pub use figures::{figure_machine, figure_spec, run_figure, FigureData, FigureRow, FigureSpec};
pub use registry::Algorithm;
pub use scenario::{
    percentile_ns, run_scenario_native, run_scenario_simulated, BatchedScenario, OpenLoopScenario,
    PairedScenario, PipelineScenario, PolicyScenario, Scenario, ScenarioCounters, ScenarioCtx,
    ScenarioOutcome, StealingScenario,
};
pub use workload::{FaultedPoint, MeasuredPoint, WorkloadConfig};
