//! Wall-clock numbers for the simulator → `BENCH_sim.json`.
//!
//! The simulator's *results* are virtual-time and host-independent; this
//! bench measures the only thing the engine and the sweep lanes are
//! allowed to change — how long the host takes to produce them:
//!
//! 1. **Sweep dispatch**: a 16-seed `schedule_sweep_with` of the Section 4
//!    workload on the M&S queue, timed at 1 lane and at the lane count
//!    `schedule_sweep` picks by default (`default_lanes`). Per-seed runs
//!    are independent, so the default lanes must be no slower than one
//!    lane, within the host-time bound of 1.25× the serial time.
//! 2. **High-scale sweep completion**: a 32-seed sweep at 64 simulated
//!    processors, where every seed's run must complete all its pairs and
//!    drain the queue, with the per-sweep wall-clock printed.
//! 3. **Full-scale Figure 3**: one new-nonblocking run at 8 processors ×
//!    1 process with the paper's full 10^6 pairs (the `figures` bin's
//!    quantum scaling), recording its wall seconds, simulated ops per
//!    wall-second and virtual ns per pair.
//! 4. **Throughput by machine size**: simulated ops per wall-second of
//!    one Figure 3 run each at 4, 64, 128 and 256 processors (the
//!    simulator's ceiling), plus one multiprogrammed run in the Figure 5
//!    shape — new-two-lock at 64 processors × 3 processes — where the
//!    scheduler rotates run queues and preempts.
//! 5. **Construction**: build and drop time of each of the paper's six
//!    queues on `SimPlatform` at capacity 64 and 4,096 (the figures'
//!    arena), median and quartiles over 101 builds after a warm-up round,
//!    taken in turns across the twelve rows, and minor page faults per
//!    build. Each build gets a fresh `Simulation`, made and dropped
//!    outside the timing, as msqbench's set-up makes one per run. This
//!    cell runs first, on the bin's fresh heap, since the fault count
//!    follows the allocator's state as much as the code.
//!
//! The numbers go in the report's `"change"` block. The bin uses only the
//! simulator's and harness's public API, so the same file builds at an
//! earlier commit for a before/after comparison: `--parent <file>` embeds
//! the numbers of a `BENCH_sim.json` written there (its `"change"` block,
//! or the whole file if it predates the flag) as the `"parent"` block, and
//! adds each run's ops-per-wall-second ratio, change over parent, and
//! each construction's build speedup, parent over change.
//!
//! Run from the workspace root: `cargo run --release -p msq-bench --bin
//! simbench [-- --parent <file>]`. Writes `BENCH_sim.json` in the current
//! directory. Pass `--smoke` for a scaled-down CI sanity run (same cells,
//! same shape), written under `target/bench-smoke/` instead.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use msq_bench::{minor_faults, quartiles};
use msq_harness::{
    figure_machine, run_scenario_simulated, Algorithm, FaultedPoint, PairedScenario, WorkloadConfig,
};
use msq_sim::{default_lanes, schedule_sweep_with, FaultPlan, SimConfig, Simulation};

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

/// Pairs in the full-scale Figure 3 run: the paper's 10^6.
const FULL_SCALE_PAIRS: u64 = 1_000_000;
const SMOKE_FULL_SCALE_PAIRS: u64 = 20_000;

/// Pairs per run of the throughput-by-machine-size cell.
const SCALING_PAIRS: u64 = 20_000;
const SMOKE_SCALING_PAIRS: u64 = 2_000;
const SCALING_PROCESSORS: [usize; 4] = [4, 64, 128, 256];

/// Pairs in the multiprogrammed Figure 5-shape run, the shape of
/// msqbench's `sim-fig5-64p` workload.
const FIG5_PAIRS: u64 = 10_000;
const SMOKE_FIG5_PAIRS: u64 = 1_000;

/// Timed builds per queue and capacity in the construction cell.
const CONSTRUCTION_BUILDS: usize = 101;
const SMOKE_CONSTRUCTION_BUILDS: usize = 11;
const CONSTRUCTION_CAPACITIES: [u32; 2] = [64, 4_096];

/// The claimed build speedup, parent over change, of a new-nonblocking
/// queue of 4,096 nodes: one reference count per simulated array instead
/// of one per cell.
const CONSTRUCTION_SPEEDUP_CLAIM: f64 = 1.5;

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
            let scenario = PairedScenario {
                workload: *workload,
            };
            run_scenario_simulated(Algorithm::NewNonBlocking, cfg, scenario, FaultPlan::new());
        },
    );
    let secs = start.elapsed().as_secs_f64();
    eprintln!("sweep {seeds} seeds x {lanes} lane(s): {secs:.3}s wall-clock");
    secs
}

/// One timed run of the Section 4 workload: a point of Figures 3–5.
struct FigureRun {
    algorithm: Algorithm,
    processors: usize,
    processes_per_processor: usize,
    pairs: u64,
    wall_secs: f64,
    total_ops: u64,
    virtual_ns_per_pair: f64,
    /// Every pair completed and the queue drained empty.
    completed: bool,
}

impl FigureRun {
    fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.wall_secs
    }

    /// The same run's ops per wall-second in an earlier report's block:
    /// the one-line run object with this algorithm, shape and pair count.
    fn ops_per_sec_in(&self, block: &str) -> Option<f64> {
        let run = format!(
            "{{\"algorithm\": \"{}\", \"processors\": {}, \"processes_per_processor\": {}, \"pairs\": {},",
            self.algorithm.label(),
            self.processors,
            self.processes_per_processor,
            self.pairs
        );
        let line = block.lines().find(|l| l.contains(&run))?;
        msq_bench::number_field(line, "ops_per_wall_sec")
    }

    fn json(&self) -> String {
        format!(
            "{{\"algorithm\": \"{}\", \"processors\": {}, \"processes_per_processor\": {}, \
             \"pairs\": {}, \"wall_secs\": {:.4}, \"total_ops\": {}, \"ops_per_wall_sec\": {:.0}, \
             \"virtual_ns_per_pair\": {:.2}, \"completed\": {}}}",
            self.algorithm.label(),
            self.processors,
            self.processes_per_processor,
            self.pairs,
            self.wall_secs,
            self.total_ops,
            self.ops_per_sec(),
            self.virtual_ns_per_pair,
            self.completed
        )
    }
}

/// One queue's build and drop on `SimPlatform`.
struct Construction {
    algorithm: Algorithm,
    capacity: u32,
    builds: usize,
    /// First quartile, median and third quartile, in microseconds.
    build_us: [f64; 3],
    drop_us: [f64; 3],
    faults_per_build: f64,
}

/// Builds `algorithm` at `capacity` on a fresh simulation and drops it:
/// the build's and the drop's microseconds and the build's minor faults.
fn build_and_drop(algorithm: Algorithm, capacity: u32) -> (f64, f64, u64) {
    let sim = Simulation::new(SimConfig {
        processors: 8,
        ..SimConfig::default()
    });
    let platform = sim.platform();
    let before = minor_faults();
    let start = Instant::now();
    let queue = algorithm.build(&platform, capacity);
    let built = start.elapsed();
    let faults = minor_faults() - before;
    let start = Instant::now();
    drop(queue);
    let dropped = start.elapsed();
    (
        built.as_secs_f64() * 1e6,
        dropped.as_secs_f64() * 1e6,
        faults,
    )
}

impl Construction {
    /// Times `builds` builds and drops of each of the paper's queues at
    /// each capacity after a warm-up round, taken in turns across them so
    /// that a drift in the host's speed reaches every row alike.
    fn measure_all(builds: usize) -> Vec<Self> {
        let shapes: Vec<(Algorithm, u32)> = CONSTRUCTION_CAPACITIES
            .into_iter()
            .flat_map(|capacity| Algorithm::ALL.map(|algorithm| (algorithm, capacity)))
            .collect();
        let mut samples = vec![(Vec::new(), Vec::new(), 0); shapes.len()];
        for round in 0..=builds {
            for (&(algorithm, capacity), (build_us, drop_us, faults)) in
                shapes.iter().zip(&mut samples)
            {
                let (built, dropped, faulted) = build_and_drop(algorithm, capacity);
                if round > 0 {
                    build_us.push(built);
                    drop_us.push(dropped);
                    *faults += faulted;
                }
            }
        }
        let runs = shapes.into_iter().zip(samples).map(
            |((algorithm, capacity), (build_us, drop_us, faults))| Construction {
                algorithm,
                capacity,
                builds,
                build_us: quartiles(build_us),
                drop_us: quartiles(drop_us),
                faults_per_build: faults as f64 / builds as f64,
            },
        );
        runs.inspect(|run| {
            eprintln!(
                "{} x {} on SimPlatform: build {:.1} us (q1 {:.1}, q3 {:.1}), drop {:.1} us, \
                 {:.2} faults/build",
                run.algorithm.label(),
                run.capacity,
                run.build_us[1],
                run.build_us[0],
                run.build_us[2],
                run.drop_us[1],
                run.faults_per_build
            );
        })
        .collect()
    }

    /// The parent's median build over this one's, from an earlier
    /// report's row for the same queue and capacity.
    fn speedup_over(&self, block: &str) -> Option<f64> {
        let row = format!(
            "{{\"algorithm\": \"{}\", \"capacity\": {},",
            self.algorithm.label(),
            self.capacity
        );
        let line = block.lines().find(|l| l.contains(&row))?;
        Some(msq_bench::number_field(line, "build_us_median")? / self.build_us[1])
    }

    fn json(&self) -> String {
        format!(
            "{{\"algorithm\": \"{}\", \"capacity\": {}, \"builds\": {}, \
             \"build_us_median\": {:.2}, \"build_us_q1\": {:.2}, \"build_us_q3\": {:.2}, \
             \"drop_us_median\": {:.2}, \"drop_us_q1\": {:.2}, \"drop_us_q3\": {:.2}, \
             \"minor_faults_per_build\": {:.2}}}",
            self.algorithm.label(),
            self.capacity,
            self.builds,
            self.build_us[1],
            self.build_us[0],
            self.build_us[2],
            self.drop_us[1],
            self.drop_us[0],
            self.drop_us[2],
            self.faults_per_build
        )
    }
}

/// Every one of `pairs` pairs completed, nobody was killed or blocked, and
/// the queue drained empty.
fn completed_all(point: &FaultedPoint, pairs: u64) -> bool {
    point.pairs_completed == pairs
        && point.drained == Some(0)
        && point.killed.is_empty()
        && point.blocked.is_empty()
}

/// Runs `algorithm` at `processors` x `processes_per_processor` on the
/// machine the `figures` bin builds for `pairs` pairs ([`figure_machine`]).
fn figure_run(
    algorithm: Algorithm,
    processors: usize,
    processes_per_processor: usize,
    pairs: u64,
) -> FigureRun {
    let cfg = SimConfig {
        processors,
        processes_per_processor,
        ..figure_machine(pairs, None)
    };
    let workload = WorkloadConfig {
        pairs_total: pairs,
        ..WorkloadConfig::default()
    };
    let start = Instant::now();
    let out = run_scenario_simulated(
        algorithm,
        cfg,
        PairedScenario { workload },
        FaultPlan::new(),
    );
    let wall_secs = start.elapsed().as_secs_f64();
    let run = FigureRun {
        algorithm,
        processors,
        processes_per_processor,
        pairs,
        wall_secs,
        total_ops: out.sim_report.as_ref().map_or(0, |r| r.total_ops),
        virtual_ns_per_pair: out.point.point.net_ns as f64 / pairs as f64,
        completed: completed_all(&out.point, pairs),
    };
    eprintln!(
        "{} at {processors}p x {processes_per_processor}, {pairs} pairs: {wall_secs:.3}s wall-clock, \
         {:.0} simulated ops/s",
        algorithm.label(),
        run.ops_per_sec()
    );
    run
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let parent = args.iter().position(|a| a == "--parent").map(|i| {
        let path = args.get(i + 1).expect("--parent takes a file");
        let report = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        msq_bench::parent_block(&report)
    });
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
    let (full_scale_pairs, scaling_pairs, fig5_pairs) = if smoke {
        (
            SMOKE_FULL_SCALE_PAIRS,
            SMOKE_SCALING_PAIRS,
            SMOKE_FIG5_PAIRS,
        )
    } else {
        (FULL_SCALE_PAIRS, SCALING_PAIRS, FIG5_PAIRS)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("host cores: {host_cores}");

    // --- Cell 5, first: construction on the bin's fresh heap. ---
    let builds = if smoke {
        SMOKE_CONSTRUCTION_BUILDS
    } else {
        CONSTRUCTION_BUILDS
    };
    let constructions = Construction::measure_all(builds);

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
    let high_completed = AtomicU64::new(0);
    let start = Instant::now();
    schedule_sweep_with(
        SimConfig {
            processors: 64,
            ..SimConfig::default()
        },
        high_seeds,
        4,
        |cfg| {
            let out = run_scenario_simulated(
                Algorithm::NewNonBlocking,
                cfg,
                PairedScenario {
                    workload: high_workload,
                },
                FaultPlan::new(),
            );
            if completed_all(&out.point, high_workload.pairs_total) {
                high_completed.fetch_add(1, Ordering::Relaxed);
            }
        },
    );
    let high_scale_secs = start.elapsed().as_secs_f64();
    let high_scale_completed = high_completed.into_inner() == high_seeds;
    eprintln!("high-scale sweep ({high_seeds} seeds x 64p): {high_scale_secs:.3}s wall-clock");

    // --- Cell 3: Figure 3 at the paper's full scale. ---
    let full_scale = figure_run(Algorithm::NewNonBlocking, 8, 1, full_scale_pairs);

    // --- Cell 4: simulated ops per wall-second by machine size. ---
    let mut scaling: Vec<FigureRun> = SCALING_PROCESSORS
        .iter()
        .map(|&p| figure_run(Algorithm::NewNonBlocking, p, 1, scaling_pairs))
        .collect();
    scaling.push(figure_run(Algorithm::NewTwoLock, 64, 3, fig5_pairs));

    // --- Acceptance. ---
    let sweep_lanes_no_slower = default_secs <= LANES_SLOWDOWN_BOUND * serial_secs;
    let full_scale_fig3_completed = full_scale.completed;
    eprintln!(
        "acceptance: sweep_lanes_no_slower={sweep_lanes_no_slower} \
         high_scale_completed={high_scale_completed} \
         full_scale_fig3_completed={full_scale_fig3_completed}"
    );

    // --- JSON report. ---
    let mut run = String::from("{\n");
    let _ = writeln!(run, "    \"sweep\": {{");
    let _ = writeln!(run, "      \"seeds\": {sweep_seeds},");
    let _ = writeln!(run, "      \"workload_pairs\": {sweep_pairs},");
    let _ = writeln!(run, "      \"default_lanes\": {lanes},");
    let _ = writeln!(run, "      \"serial_secs\": {serial_secs:.4},");
    let _ = writeln!(run, "      \"default_secs\": {default_secs:.4},");
    let _ = writeln!(
        run,
        "      \"speedup_at_default_lanes\": {sweep_speedup:.3},"
    );
    let _ = writeln!(run, "      \"slowdown_bound\": {LANES_SLOWDOWN_BOUND}");
    run.push_str("    },\n");
    let _ = writeln!(
        run,
        "    \"high_scale_sweep\": {{\"seeds\": {high_seeds}, \"processors\": 64, \"wall_secs\": {high_scale_secs:.4}, \"completed\": {high_scale_completed}}},"
    );
    let _ = writeln!(run, "    \"full_scale_fig3\": {},", full_scale.json());
    let scaling_json: Vec<String> = scaling.iter().map(FigureRun::json).collect();
    let _ = writeln!(
        run,
        "    \"throughput_by_processors\": [\n      {}\n    ],",
        scaling_json.join(",\n      ")
    );
    let construction_json: Vec<String> = constructions.iter().map(Construction::json).collect();
    let _ = writeln!(
        run,
        "    \"construction\": [\n      {}\n    ]",
        construction_json.join(",\n      ")
    );
    run.push_str("  }");

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"description\": \"simulator wall-clock: 16-seed sweep at 1 lane vs the default lane count, 32-seed sweep completion at 64 processors, Figure 3 (new-nonblocking, 8p x 1) at the paper's 10^6 pairs, and simulated ops per wall-second at 4/64/128/256 processors x 1 (new-nonblocking) and 64 processors x 3 (new-two-lock, the Figure 5 shape), and build/drop time (us) and minor faults per build of the paper's six queues on SimPlatform at capacity 64 and 4096; parent is the same bin at the commit before the change\","
    );
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(
        json,
        "  \"parent\": {},",
        parent.as_deref().unwrap_or("null")
    );
    let _ = writeln!(json, "  \"change\": {run},");
    // The claim is present only when the parent measured the same
    // construction.
    let mut claim = String::new();
    if let Some(block) = parent.as_deref() {
        let ratios: Vec<String> = std::iter::once(("full_scale_fig3".to_string(), &full_scale))
            .chain(
                scaling
                    .iter()
                    .map(|r| (format!("{}x{}", r.processors, r.processes_per_processor), r)),
            )
            .filter_map(|(name, r)| {
                let ratio = r.ops_per_sec() / r.ops_per_sec_in(block)?;
                eprintln!("{name}: {ratio:.3}x the parent's simulated ops/s");
                Some(format!("\"{name}\": {ratio:.3}"))
            })
            .collect();
        let _ = writeln!(
            json,
            "  \"ops_per_wall_sec_change_over_parent\": {{{}}},",
            ratios.join(", ")
        );
        let mut speedups = Vec::new();
        for c in &constructions {
            let Some(speedup) = c.speedup_over(block) else {
                continue;
            };
            let name = format!("{}@{}", c.algorithm.label(), c.capacity);
            speedups.push(format!("\"{name}\": {speedup:.3}"));
            if c.algorithm == Algorithm::NewNonBlocking && c.capacity == 4_096 {
                eprintln!("{name} builds {speedup:.2}x faster than the parent's");
                claim = format!(
                    ", \"new_nonblocking_4096_builds_at_least_1_5x_faster\": {}",
                    speedup >= CONSTRUCTION_SPEEDUP_CLAIM
                );
            }
        }
        let _ = writeln!(
            json,
            "  \"build_speedup_over_parent\": {{{}}},",
            speedups.join(", ")
        );
    }
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"sweep_lanes_no_slower\": {sweep_lanes_no_slower}, \"high_scale_completed\": {high_scale_completed}, \
         \"full_scale_fig3_completed\": {full_scale_fig3_completed}{claim}}}"
    );
    json.push_str("}\n");

    msq_bench::write_report("BENCH_sim.json", smoke, &json);
    println!("{json}");
}
