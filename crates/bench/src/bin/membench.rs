//! Memory-budget acceptance numbers for the global reclamation bound →
//! `BENCH_mem.json`.
//!
//! Three cells:
//!
//! 1. **Budgeted vs unbudgeted batch-mode workload** for `seg-batched` at
//!    4 and 8 simulated processors (batch 32, the paper's ~6 µs "other
//!    work" per operation): the budgeted run must keep peak resident
//!    segments at or under the budget while staying within ~10% of the
//!    unbudgeted virtual time — a generous budget only meters, it never
//!    denies. Metering costs one extra coherence transaction per segment
//!    transition (a CAS on the shared `reserved` word), so it amortizes
//!    over the paper's workload; a zero-other-work microbench would
//!    instead measure that word's ping-pong (see `batchbench` for the
//!    max-contention regime). One run's elapsed time swings by ±40% with
//!    the schedule seed, so the time bound applies to the median of the
//!    per-seed budgeted/unbudgeted ratios over a fixed seed set, reported
//!    with its quartiles; the seed-0 pair is reported as well.
//! 2. **Sharded under the same budget** at 8 processors: all shards
//!    reserve against one budget, so the bound is process-global, not
//!    per-queue.
//! 3. **Tiny-budget denial/recovery**: a queue on a 4-segment budget is
//!    driven into exhaustion (`QueueFull` backpressure, denials counted),
//!    drained, and must accept values again — the bound is enforced *and*
//!    recoverable, with no values lost.
//!
//! Run from the workspace root: `cargo run --release -p msq-bench --bin
//! membench`. Writes `BENCH_mem.json` in the current directory. Pass
//! `--smoke` for a scaled-down CI sanity run (same cells, same JSON
//! shape), written under `target/bench-smoke/` instead, and
//! `--mem-budget N` to override the headline budget.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use msq_arena::MemBudget;
use msq_core::WordSegQueue;
use msq_harness::{
    run_scenario_simulated, Algorithm, BatchedScenario, MeasuredPoint, WorkloadConfig,
};
use msq_platform::{ConcurrentWordQueue, QueueFull};
use msq_sim::{FaultPlan, SimConfig, Simulation};

/// Pairs moved by the simulated batch-mode workload cells.
const SIM_WORKLOAD_PAIRS: u64 = 1_600;
const SMOKE_SIM_WORKLOAD_PAIRS: u64 = 320;

/// Batch size the acceptance comparison uses (matches `batchbench`).
const HEADLINE_BATCH: usize = 32;

/// Headline segment budget: generous enough that a well-behaved workload
/// never gets denied (the acceptance criterion is metering overhead, not
/// starvation behaviour — cell 3 covers starvation).
const DEFAULT_BUDGET: u64 = 48;

/// Budget for the denial/recovery cell, in segments.
const TINY_BUDGET: u64 = 4;

/// Schedule seeds `0..RATIO_SEEDS` of the metering-cost comparison, fixed
/// before any result was seen.
const RATIO_SEEDS: u64 = 32;
const SMOKE_RATIO_SEEDS: u64 = 4;

fn workload_cell(
    algorithm: Algorithm,
    processors: usize,
    seed: u64,
    pairs: u64,
    mem_budget: Option<u64>,
) -> MeasuredPoint {
    let scenario = BatchedScenario {
        workload: WorkloadConfig {
            pairs_total: pairs,
            other_work_ns: 6_000, // the paper's Section 4 workload
            capacity: 4_096,
            mem_budget,
        },
        batch: HEADLINE_BATCH,
    };
    let config = SimConfig {
        processors,
        seed,
        ..SimConfig::default()
    };
    run_scenario_simulated(algorithm, config, scenario, FaultPlan::new())
        .point
        .point
}

struct TinyCell {
    accepted_before_full: u64,
    denials: u64,
    peak_resident_segments: u64,
    recovered: bool,
}

/// Drives one simulated process into budget exhaustion and back out.
fn tiny_budget_cell() -> TinyCell {
    let sim = Simulation::new(SimConfig {
        processors: 2,
        ..SimConfig::default()
    });
    let platform = sim.platform();
    let budget = Arc::new(MemBudget::new(&platform, TINY_BUDGET));
    let queue = Arc::new(WordSegQueue::new(
        &platform,
        4_096,
        Some(Arc::clone(&budget)),
    ));
    let accepted = Arc::new(AtomicU64::new(0));
    let recovered = Arc::new(AtomicBool::new(false));
    sim.run({
        let queue = Arc::clone(&queue);
        let accepted = Arc::clone(&accepted);
        let recovered = Arc::clone(&recovered);
        move |info| {
            if info.pid != 0 {
                return;
            }
            let mut sent = 0u64;
            loop {
                match queue.enqueue(sent) {
                    Ok(()) => sent += 1,
                    Err(QueueFull(v)) => {
                        assert_eq!(v, sent, "the rejected value must come back intact");
                        break;
                    }
                }
            }
            accepted.store(sent, Ordering::Relaxed);
            for i in 0..sent {
                assert_eq!(queue.dequeue(), Some(i), "no value may be lost");
            }
            recovered.store(queue.enqueue(u64::MAX).is_ok(), Ordering::Relaxed);
            queue.dequeue();
        }
    });
    TinyCell {
        accepted_before_full: accepted.load(Ordering::Relaxed),
        denials: budget.denials(),
        peak_resident_segments: budget.peak(),
        recovered: recovered.load(Ordering::Relaxed),
    }
}

/// The first quartile, median and third quartile of `sorted`, each
/// interpolated linearly between the two nearest ranks.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|q| {
        let at = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
    })
}

fn json_opt(value: Option<u64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let budget = args
        .iter()
        .position(|a| a == "--mem-budget")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .expect("--mem-budget takes a segment count")
        })
        .unwrap_or(DEFAULT_BUDGET);
    let (pairs, seeds) = if smoke {
        (SMOKE_SIM_WORKLOAD_PAIRS, SMOKE_RATIO_SEEDS)
    } else {
        (SIM_WORKLOAD_PAIRS, RATIO_SEEDS)
    };

    // --- Cells 1 & 2: budgeted vs unbudgeted workload. ---
    let mut cells = Vec::new();
    for (algorithm, processors) in [
        (Algorithm::SegBatched, 4usize),
        (Algorithm::SegBatched, 8),
        (Algorithm::Sharded, 8),
    ] {
        let unbudgeted = workload_cell(algorithm, processors, 0, pairs, None);
        let budgeted = workload_cell(algorithm, processors, 0, pairs, Some(budget));
        let ratio = budgeted.elapsed_ns as f64 / unbudgeted.elapsed_ns as f64;
        let mut seed_ratios: Vec<f64> = std::iter::once(ratio)
            .chain((1..seeds).map(|seed| {
                let run = |mem_budget| {
                    workload_cell(algorithm, processors, seed, pairs, mem_budget).elapsed_ns as f64
                };
                run(Some(budget)) / run(None)
            }))
            .collect();
        seed_ratios.sort_by(f64::total_cmp);
        let seed_quartiles = quartiles(&seed_ratios);
        let peak = budgeted.peak_resident_segments.unwrap_or(0);
        eprintln!(
            "sim {}p batch-{HEADLINE_BATCH} {:<12} budget {budget}: peak {peak} segs, \
             {} denials, time ratio {ratio:.3} ({} -> {} virtual ns); over seeds 0..{seeds} \
             median {:.3} (q1 {:.3}, q3 {:.3})",
            processors,
            algorithm.label(),
            budgeted.budget_denials.unwrap_or(0),
            unbudgeted.elapsed_ns,
            budgeted.elapsed_ns,
            seed_quartiles[1],
            seed_quartiles[0],
            seed_quartiles[2]
        );
        cells.push((unbudgeted, budgeted, ratio, seed_quartiles));
    }

    // --- Cell 3: tiny-budget denial and recovery. ---
    let tiny = tiny_budget_cell();
    eprintln!(
        "tiny budget {TINY_BUDGET}: {} accepted before QueueFull, {} denials, peak {} segs, \
         recovered: {}",
        tiny.accepted_before_full, tiny.denials, tiny.peak_resident_segments, tiny.recovered
    );

    // --- Acceptance summary. ---
    let peak_ok = cells
        .iter()
        .all(|(_, b, _, _)| b.peak_resident_segments.unwrap_or(u64::MAX) <= budget);
    // The ≤10% overhead criterion is for the full-size run; at smoke
    // scale fixed startup costs dominate the few hundred pairs, so the
    // smoke bound only guards against gross regressions.
    let time_bound = if smoke { 1.25 } else { 1.10 };
    let time_ok = cells.iter().all(|(_, _, _, q)| q[1] <= time_bound);
    let tiny_ok = tiny.denials > 0 && tiny.peak_resident_segments <= TINY_BUDGET && tiny.recovered;
    eprintln!(
        "acceptance: peak_within_budget={peak_ok} time_within_bound({time_bound})={time_ok} \
         tiny_budget_enforced_and_recovered={tiny_ok}"
    );

    // --- JSON report. ---
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"description\": \"global segment-residency budget: budgeted vs unbudgeted batch workload (peak resident segments, virtual-time ratio), plus tiny-budget denial/recovery\","
    );
    let _ = writeln!(json, "  \"workload_pairs\": {pairs},");
    let _ = writeln!(json, "  \"headline_batch\": {HEADLINE_BATCH},");
    let _ = writeln!(json, "  \"mem_budget\": {budget},");
    json.push_str("  \"budgeted_workload\": [\n");
    for (i, (unbudgeted, budgeted, ratio, q)) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"processors\": {}, \"unbudgeted_elapsed_virtual_ns\": {}, \"budgeted_elapsed_virtual_ns\": {}, \"time_ratio\": {:.4}, \"peak_resident_segments\": {}, \"budget_denials\": {}, \"miss_rate\": {:.4}, \"seed_time_ratio_median\": {:.4}, \"seed_time_ratio_q1\": {:.4}, \"seed_time_ratio_q3\": {:.4}}}{}",
            budgeted.algorithm.label(),
            budgeted.processors,
            unbudgeted.elapsed_ns,
            budgeted.elapsed_ns,
            ratio,
            json_opt(budgeted.peak_resident_segments),
            json_opt(budgeted.budget_denials),
            budgeted.miss_rate,
            q[1],
            q[0],
            q[2],
            if i + 1 == cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"tiny_budget\": {{\"budget\": {TINY_BUDGET}, \"accepted_before_full\": {}, \"denials\": {}, \"peak_resident_segments\": {}, \"recovered\": {}}},",
        tiny.accepted_before_full, tiny.denials, tiny.peak_resident_segments, tiny.recovered
    );
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"peak_within_budget\": {peak_ok}, \"time_ratio_bound\": {time_bound}, \"time_ratio_seeds\": {seeds}, \"time_ratio_quartiles\": [{}], \"time_within_bound\": {time_ok}, \"tiny_budget_enforced_and_recovered\": {tiny_ok}}}",
        cells
            .iter()
            .map(|(_, _, _, q)| format!("[{:.4}, {:.4}, {:.4}]", q[0], q[1], q[2]))
            .collect::<Vec<_>>()
            .join(", ")
    );
    json.push_str("}\n");

    msq_bench::write_report("BENCH_mem.json", smoke, &json);
    println!("{json}");
}
