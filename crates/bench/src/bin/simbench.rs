//! Wall-clock numbers for the simulator's seed-sweep lanes →
//! `BENCH_sim.json`.
//!
//! The simulator's *results* are virtual-time and host-independent; this
//! bench measures the only thing sweep lanes are allowed to change — how
//! long the host takes to produce them:
//!
//! 1. **Sweep dispatch**: a 16-seed `schedule_sweep_with` of the Section 4
//!    workload on the M&S queue, timed at 1 lane and at the lane count
//!    `schedule_sweep` picks by default (`default_lanes`). Per-seed runs
//!    are independent, so the default lanes must be no slower than one
//!    lane, within the host-time bound of 1.25× the serial time.
//! 2. **High-scale sweep completion**: a 32-seed sweep at 64 simulated
//!    processors runs to completion — the raised processor ceiling
//!    exercised end to end, with the per-sweep wall-clock printed.
//!
//! Run from the workspace root: `cargo run --release -p msq-bench --bin
//! simbench`. Writes `BENCH_sim.json` in the current directory. Pass
//! `--smoke` for a scaled-down CI sanity run (same cells, same shape).

use std::fmt::Write as _;
use std::time::Instant;

use msq_harness::{run_simulated, Algorithm, WorkloadConfig};
use msq_sim::{default_lanes, schedule_sweep_with, SimConfig};

/// Seeds in the timed dispatch sweep.
const SWEEP_SEEDS: u64 = 16;
const SMOKE_SWEEP_SEEDS: u64 = 6;

/// Seeds in the high-scale completion sweep.
const HIGH_SCALE_SEEDS: u64 = 32;
const SMOKE_HIGH_SCALE_SEEDS: u64 = 8;

/// Pairs moved per sweep run (split across processes).
const SWEEP_PAIRS: u64 = 2_000;
const SMOKE_SWEEP_PAIRS: u64 = 400;

/// Pairs per simulated processor in the high-scale sweep.
const HIGH_SCALE_PAIRS_PER_PROC: u64 = 25;
const SMOKE_HIGH_SCALE_PAIRS_PER_PROC: u64 = 8;

/// How much slower than one lane the default lane count may run before
/// the dispatch counts as a regression: the host-time bound the
/// repository's benchmark applies to its own wall-clock metrics.
const LANES_SLOWDOWN_BOUND: f64 = 1.25;

/// Times one `schedule_sweep_with` dispatch of the Section 4 workload at
/// the given lane count, printing the per-sweep wall-clock.
fn timed_sweep(lanes: usize, seeds: u64, workload: &WorkloadConfig) -> f64 {
    let start = Instant::now();
    schedule_sweep_with(
        SimConfig {
            processors: 8,
            ..SimConfig::default()
        },
        seeds,
        lanes,
        |cfg| {
            run_simulated(Algorithm::NewNonBlocking, cfg, workload);
        },
    );
    let secs = start.elapsed().as_secs_f64();
    eprintln!("sweep {seeds} seeds x {lanes} lane(s): {secs:.3}s wall-clock");
    secs
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let (sweep_seeds, high_seeds, sweep_pairs, high_pairs_per_proc) = if smoke {
        (
            SMOKE_SWEEP_SEEDS,
            SMOKE_HIGH_SCALE_SEEDS,
            SMOKE_SWEEP_PAIRS,
            SMOKE_HIGH_SCALE_PAIRS_PER_PROC,
        )
    } else {
        (
            SWEEP_SEEDS,
            HIGH_SCALE_SEEDS,
            SWEEP_PAIRS,
            HIGH_SCALE_PAIRS_PER_PROC,
        )
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("host cores: {host_cores}");

    // --- Cell 1: sweep dispatch, 1 lane vs the default lane count. ---
    let workload = WorkloadConfig {
        pairs_total: sweep_pairs,
        other_work_ns: 6_000,
        capacity: 4_096,
        mem_budget: None,
    };
    let lanes = default_lanes(sweep_seeds);
    let serial_secs = timed_sweep(1, sweep_seeds, &workload);
    let default_secs = timed_sweep(lanes, sweep_seeds, &workload);
    let sweep_speedup = serial_secs / default_secs;
    eprintln!("sweep dispatch speedup at {lanes} lane(s): {sweep_speedup:.2}x");

    // --- Cell 2: the 32-seed sweep at 64 processors completes. ---
    let high_workload = WorkloadConfig {
        pairs_total: 64 * high_pairs_per_proc,
        other_work_ns: 6_000,
        capacity: 8_192,
        mem_budget: None,
    };
    let start = Instant::now();
    schedule_sweep_with(
        SimConfig {
            processors: 64,
            ..SimConfig::default()
        },
        high_seeds,
        4,
        |cfg| {
            run_simulated(Algorithm::NewNonBlocking, cfg, &high_workload);
        },
    );
    let high_scale_secs = start.elapsed().as_secs_f64();
    eprintln!("high-scale sweep ({high_seeds} seeds x 64p): {high_scale_secs:.3}s wall-clock");

    // --- Acceptance. ---
    let sweep_lanes_no_slower = default_secs <= LANES_SLOWDOWN_BOUND * serial_secs;
    eprintln!(
        "acceptance: sweep_lanes_no_slower={sweep_lanes_no_slower} high_scale_completed=true"
    );

    // --- JSON report. ---
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"description\": \"simulator seed-sweep lanes: 16-seed sweep wall-clock at 1 lane vs the default lane count, 32-seed sweep completion at 64 processors\","
    );
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"sweep\": {{");
    let _ = writeln!(json, "    \"seeds\": {sweep_seeds},");
    let _ = writeln!(json, "    \"workload_pairs\": {sweep_pairs},");
    let _ = writeln!(json, "    \"default_lanes\": {lanes},");
    let _ = writeln!(json, "    \"serial_secs\": {serial_secs:.4},");
    let _ = writeln!(json, "    \"default_secs\": {default_secs:.4},");
    let _ = writeln!(
        json,
        "    \"speedup_at_default_lanes\": {sweep_speedup:.3},"
    );
    let _ = writeln!(json, "    \"slowdown_bound\": {LANES_SLOWDOWN_BOUND}");
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"high_scale_sweep\": {{\"seeds\": {high_seeds}, \"processors\": 64, \"wall_secs\": {high_scale_secs:.4}, \"completed\": true}},"
    );
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"sweep_lanes_no_slower\": {sweep_lanes_no_slower}, \"high_scale_completed\": true}}"
    );
    json.push_str("}\n");

    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("{json}");
}
