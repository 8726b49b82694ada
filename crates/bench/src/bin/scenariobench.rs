//! Scenario-engine acceptance numbers for the three workload shapes
//! beyond the paper's → `BENCH_scenario.json`.
//!
//! The composable scenario engine (DESIGN.md §14) lets one driver run
//! pluggable workload shapes; this bench sweeps the three shipped
//! non-paper shapes over every contender (the paper's six plus the two
//! extensions):
//!
//! 1. **Work-stealing**: every worker owns a queue, half of them seed
//!    the task pool (deliberately imbalanced), and idle workers steal in
//!    deterministic round-robin order. Reported: elapsed/net time and
//!    the steal count — which must be load-bearing (the non-owning half
//!    has nothing *but* stolen work).
//! 2. **Fan-out/fan-in pipeline**: three stages over two inter-stage
//!    queues, with per-stage conservation checked (every stage handles
//!    every item exactly once).
//! 3. **Open-loop bursty arrivals**: producers pace a seeded
//!    Poisson-like schedule in virtual time and stamp arrival times into
//!    the items; consumers report enqueue-to-dequeue latency. Swept over
//!    three mean inter-arrival gaps straddling the consumers' service
//!    capacity, so the JSON shows the open-loop signature the
//!    closed-loop throughput sweeps structurally cannot: when offered
//!    load crosses capacity, the p50/p95/p99 latency percentiles grow
//!    while throughput stays pinned at the arrival rate.
//!
//! Run from the workspace root: `cargo run --release -p msq-bench --bin
//! scenariobench`. Writes `BENCH_scenario.json` in the current
//! directory. Pass `--smoke` for a scaled-down CI sanity run (same
//! cells, same shape), written under `target/bench-smoke/` instead.

use std::fmt::Write as _;

use msq_harness::{
    run_scenario_simulated, Algorithm, OpenLoopScenario, PipelineScenario, ScenarioOutcome,
    StealingScenario, WorkloadConfig,
};
use msq_sim::{FaultPlan, SimConfig};

/// Simulated processors (dedicated: one process each, as in Figure 3's
/// machine model).
const PROCESSORS: usize = 4;

/// Items moved per run (tasks / pipeline items / open-loop arrivals).
const ITEMS: u64 = 1_600;
const SMOKE_ITEMS: u64 = 320;

/// The paper's ~6 µs of per-item work (task execution, stage work, or
/// open-loop service time).
const OTHER_WORK_NS: u64 = 6_000;

/// Pipeline depth: one generator stage, one interior stage, one
/// consumer stage, connected by two queues.
const STAGES: usize = 3;

/// Open-loop mean inter-arrival gaps per producer, in virtual
/// nanoseconds. With 2 producers (gap/2 aggregate, ~3/4 burst factor)
/// and 2 consumers serving 6 µs each (one item per 3 µs aggregate), the
/// three points straddle saturation: overloaded, critical, and ~50%
/// utilization.
const MEAN_GAPS_NS: [u64; 3] = [4_000, 8_000, 16_000];

/// Arrival-schedule seed for the open-loop sweep.
const OPEN_LOOP_SEED: u64 = 42;

fn workload(items: u64) -> WorkloadConfig {
    WorkloadConfig {
        pairs_total: items,
        other_work_ns: OTHER_WORK_NS,
        capacity: 4_096,
        mem_budget: None,
    }
}

fn config() -> SimConfig {
    SimConfig {
        processors: PROCESSORS,
        ..SimConfig::default()
    }
}

struct OpenLoopCell {
    algorithm: Algorithm,
    mean_gap_ns: u64,
    outcome: ScenarioOutcome,
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let items = if smoke { SMOKE_ITEMS } else { ITEMS };

    // --- Cell 1: the work-stealing sweep. ---
    let mut stealing: Vec<(Algorithm, ScenarioOutcome)> = Vec::new();
    for algorithm in Algorithm::WITH_EXTENSIONS {
        eprintln!("running stealing  {}...", algorithm.label());
        let out = run_scenario_simulated(
            algorithm,
            config(),
            StealingScenario {
                workload: workload(items),
            },
            FaultPlan::new(),
        );
        eprintln!(
            "stealing  {:<16} elapsed {:>12} ns  net {:>12} ns  {:>5} steals  {} tasks",
            algorithm.label(),
            out.point.point.elapsed_ns,
            out.point.point.net_ns,
            out.tallies[StealingScenario::STEALS],
            out.point.pairs_completed
        );
        stealing.push((algorithm, out));
    }

    // --- Cell 2: the pipeline sweep. ---
    let mut pipeline: Vec<(Algorithm, ScenarioOutcome)> = Vec::new();
    for algorithm in Algorithm::WITH_EXTENSIONS {
        eprintln!("running pipeline  {}...", algorithm.label());
        let out = run_scenario_simulated(
            algorithm,
            config(),
            PipelineScenario {
                workload: workload(items),
                stages: STAGES,
            },
            FaultPlan::new(),
        );
        eprintln!(
            "pipeline  {:<16} elapsed {:>12} ns  net {:>12} ns  stage tallies {:?}",
            algorithm.label(),
            out.point.point.elapsed_ns,
            out.point.point.net_ns,
            out.tallies
        );
        pipeline.push((algorithm, out));
    }

    // --- Cell 3: the open-loop latency sweep. ---
    let mut open_loop: Vec<OpenLoopCell> = Vec::new();
    for algorithm in Algorithm::WITH_EXTENSIONS {
        for mean_gap_ns in MEAN_GAPS_NS {
            eprintln!(
                "running open-loop {} gap {}...",
                algorithm.label(),
                mean_gap_ns
            );
            let outcome = run_scenario_simulated(
                algorithm,
                config(),
                OpenLoopScenario {
                    workload: workload(items),
                    mean_gap_ns,
                    seed: OPEN_LOOP_SEED,
                },
                FaultPlan::new(),
            );
            eprintln!(
                "open-loop {:<16} gap {:>6} ns  p50 {:>9?} ns  p95 {:>9?} ns  p99 {:>9?} ns  ({} samples)",
                algorithm.label(),
                mean_gap_ns,
                outcome.latency_percentile_ns(50.0).unwrap_or(0),
                outcome.latency_percentile_ns(95.0).unwrap_or(0),
                outcome.latency_percentile_ns(99.0).unwrap_or(0),
                outcome.latencies_ns.len()
            );
            open_loop.push(OpenLoopCell {
                algorithm,
                mean_gap_ns,
                outcome,
            });
        }
    }
    let p_of = |alg: Algorithm, gap: u64, pct: f64| {
        open_loop
            .iter()
            .find(|c| c.algorithm == alg && c.mean_gap_ns == gap)
            .expect("open-loop cell")
            .outcome
            .latency_percentile_ns(pct)
            .expect("latency samples")
    };

    // --- Acceptance. ---
    // Every contender finishes the whole task pool with every worker
    // queue drained, and with a strictly positive steal count — half the
    // workers own no tasks, so a zero steal count would mean the steal
    // path never ran and conservation could not have held.
    let stealing_conserves = stealing
        .iter()
        .all(|(_, o)| o.point.pairs_completed == items && o.point.drained == Some(0));
    let stealing_is_load_bearing = stealing
        .iter()
        .all(|(_, o)| o.tallies[StealingScenario::STEALS] > 0);
    // Every stage of every pipeline run handles every item exactly once
    // (the scenario's own conservation check panics otherwise; the flag
    // re-asserts it from the committed tallies).
    let pipeline_conserves_per_stage = pipeline
        .iter()
        .all(|(_, o)| o.tallies.iter().all(|&t| t == items) && o.point.drained == Some(0));
    // Every open-loop cell yields one latency sample per arrival and an
    // internally ordered percentile triple.
    let open_loop_full_samples = open_loop
        .iter()
        .all(|c| c.outcome.latencies_ns.len() as u64 == items);
    let open_loop_percentiles_ordered = open_loop.iter().all(|c| {
        let (p50, p95, p99) = (
            p_of(c.algorithm, c.mean_gap_ns, 50.0),
            p_of(c.algorithm, c.mean_gap_ns, 95.0),
            p_of(c.algorithm, c.mean_gap_ns, 99.0),
        );
        p50 <= p95 && p95 <= p99
    });
    // The open-loop signature: overloading the consumers (the tightest
    // gap) must cost more tail latency than ~50% utilization (the
    // loosest), for every contender.
    let (tight, loose) = (MEAN_GAPS_NS[0], MEAN_GAPS_NS[2]);
    let open_loop_latency_grows_under_load = Algorithm::WITH_EXTENSIONS
        .into_iter()
        .all(|a| p_of(a, tight, 95.0) > p_of(a, loose, 95.0));
    eprintln!(
        "acceptance: stealing_conserves={stealing_conserves} \
         stealing_is_load_bearing={stealing_is_load_bearing} \
         pipeline_conserves_per_stage={pipeline_conserves_per_stage} \
         open_loop_full_samples={open_loop_full_samples} \
         open_loop_percentiles_ordered={open_loop_percentiles_ordered} \
         open_loop_latency_grows_under_load={open_loop_latency_grows_under_load}"
    );

    // --- JSON report. ---
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"description\": \"composable scenario engine: work-stealing, fan-out/fan-in pipeline, and open-loop bursty-arrival latency sweeps over all eight contenders on the deterministic simulator\","
    );
    let _ = writeln!(json, "  \"processors\": {PROCESSORS},");
    let _ = writeln!(json, "  \"items\": {items},");
    let _ = writeln!(json, "  \"other_work_ns\": {OTHER_WORK_NS},");
    json.push_str("  \"stealing\": [\n");
    for (i, (alg, o)) in stealing.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"nonblocking\": {}, \"elapsed_virtual_ns\": {}, \"net_virtual_ns\": {}, \"steals\": {}, \"tasks_completed\": {}, \"drained\": {}}}{}",
            alg.label(),
            alg.is_nonblocking(),
            o.point.point.elapsed_ns,
            o.point.point.net_ns,
            o.tallies[StealingScenario::STEALS],
            o.point.pairs_completed,
            o.point
                .drained
                .map_or_else(|| "null".into(), |d| d.to_string()),
            if i + 1 == stealing.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"pipeline_stages\": {STAGES},");
    json.push_str("  \"pipeline\": [\n");
    for (i, (alg, o)) in pipeline.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"nonblocking\": {}, \"elapsed_virtual_ns\": {}, \"net_virtual_ns\": {}, \"stage_tallies\": {:?}, \"drained\": {}}}{}",
            alg.label(),
            alg.is_nonblocking(),
            o.point.point.elapsed_ns,
            o.point.point.net_ns,
            o.tallies,
            o.point
                .drained
                .map_or_else(|| "null".into(), |d| d.to_string()),
            if i + 1 == pipeline.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"open_loop_seed\": {OPEN_LOOP_SEED},");
    let _ = writeln!(json, "  \"open_loop_mean_gaps_ns\": {MEAN_GAPS_NS:?},");
    json.push_str("  \"open_loop\": [\n");
    for (i, c) in open_loop.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"nonblocking\": {}, \"mean_gap_ns\": {}, \"samples\": {}, \"p50_latency_virtual_ns\": {}, \"p95_latency_virtual_ns\": {}, \"p99_latency_virtual_ns\": {}, \"elapsed_virtual_ns\": {}}}{}",
            c.algorithm.label(),
            c.algorithm.is_nonblocking(),
            c.mean_gap_ns,
            c.outcome.latencies_ns.len(),
            p_of(c.algorithm, c.mean_gap_ns, 50.0),
            p_of(c.algorithm, c.mean_gap_ns, 95.0),
            p_of(c.algorithm, c.mean_gap_ns, 99.0),
            c.outcome.point.point.elapsed_ns,
            if i + 1 == open_loop.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"stealing_conserves\": {stealing_conserves}, \"stealing_is_load_bearing\": {stealing_is_load_bearing}, \"pipeline_conserves_per_stage\": {pipeline_conserves_per_stage}, \"open_loop_full_samples\": {open_loop_full_samples}, \"open_loop_percentiles_ordered\": {open_loop_percentiles_ordered}, \"open_loop_latency_grows_under_load\": {open_loop_latency_grows_under_load}}}"
    );
    json.push_str("}\n");

    msq_bench::write_report("BENCH_scenario.json", smoke, &json);
    println!("{json}");
}
