//! Headline numbers for the bulk-splice and sharding extensions →
//! `BENCH_batch.json`.
//!
//! Three comparisons:
//!
//! 1. **Simulated coherence misses per enqueue** at 4 and 8 processors
//!    under maximum contention, for `new-nonblocking` (per-op),
//!    `seg-batched` (per-op), and `seg-batched` driven through
//!    `enqueue_batch` at batch 32. The batch path publishes a privately
//!    pre-filled segment chain with one link CAS (one value store per
//!    slot, the prefill word standing in for every slot state), so its
//!    misses/enqueue floor is the unavoidable data movement.
//! 2. **Simulated elapsed virtual time** of the batch-mode workload at 8
//!    processors: `sharded` (4 shards of seg-batched) vs a single
//!    `seg-batched`, plus `new-nonblocking` for scale. Sharding spreads
//!    the head/tail/index hot words across 4 sub-queues.
//! 3. **Native single-thread pairs/sec** at batch sizes 1/8/32/128 for
//!    `seg-batched` (real bulk paths) vs `new-nonblocking` (trait-default
//!    per-op loops), anchoring the per-op cost of the batch API.
//!
//! Run from the workspace root: `cargo run --release -p msq-bench --bin
//! batchbench`. Writes `BENCH_batch.json` in the current directory. Pass
//! `--smoke` for a scaled-down CI sanity run (same cells, same JSON
//! shape), written under `target/bench-smoke/` instead.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use msq_harness::{run_scenario_simulated, Algorithm, BatchedScenario, WorkloadConfig};
use msq_platform::NativePlatform;
use msq_sim::{FaultPlan, SimConfig, Simulation};

/// Values each simulated process enqueues in the misses/enqueue cells.
const SIM_ENQUEUES_PER_PROC: u64 = 512;
/// Pairs moved by the simulated batch-mode workload cells.
const SIM_WORKLOAD_PAIRS: u64 = 1_600;
/// Pairs for each native timing loop.
const NATIVE_PAIRS: u64 = 2_000_000;

const SMOKE_SIM_ENQUEUES_PER_PROC: u64 = 96;
const SMOKE_SIM_WORKLOAD_PAIRS: u64 = 320;
const SMOKE_NATIVE_PAIRS: u64 = 50_000;

/// Batch size the acceptance comparison uses.
const HEADLINE_BATCH: usize = 32;

struct EnqueueCell {
    algorithm: Algorithm,
    batch: usize,
    processors: usize,
    misses_per_enqueue: f64,
    cas_failures: u64,
}

/// Enqueue-only contention cell: every process pumps values in as fast as
/// it can (batch = 1 uses the plain per-op `enqueue`).
fn run_enqueue_cell(
    algorithm: Algorithm,
    processors: usize,
    batch: usize,
    enqueues_per_proc: u64,
) -> EnqueueCell {
    let sim = Simulation::new(SimConfig {
        processors,
        ..SimConfig::default()
    });
    // Capacity for every value plus headroom: the cell never dequeues.
    let capacity = (processors as u64 * enqueues_per_proc + 256) as u32;
    let queue = algorithm.build(&sim.platform(), capacity);
    let report = sim.run({
        let queue = Arc::clone(&queue);
        move |info| {
            let mut sent = 0u64;
            while sent < enqueues_per_proc {
                let b = (batch as u64).min(enqueues_per_proc - sent);
                if b == 1 {
                    let payload = ((info.pid as u64) << 32) | sent;
                    queue.enqueue(payload).unwrap();
                } else {
                    let values: Vec<u64> = (sent..sent + b)
                        .map(|i| ((info.pid as u64) << 32) | i)
                        .collect();
                    let mut rest: &[u64] = &values;
                    loop {
                        match queue.enqueue_batch(rest) {
                            Ok(()) => break,
                            Err(e) => rest = &rest[e.pushed..],
                        }
                    }
                }
                sent += b;
            }
        }
    });
    let enqueues = processors as u64 * enqueues_per_proc;
    EnqueueCell {
        algorithm,
        batch,
        processors,
        misses_per_enqueue: report.cache_misses as f64 / enqueues as f64,
        cas_failures: report.cas_failures,
    }
}

/// The batch-mode workload in rounds of `HEADLINE_BATCH` on a dedicated
/// simulated machine.
fn batched_point(
    algorithm: Algorithm,
    processors: usize,
    workload: WorkloadConfig,
) -> msq_harness::MeasuredPoint {
    let scenario = BatchedScenario {
        workload,
        batch: HEADLINE_BATCH,
    };
    let config = SimConfig {
        processors,
        ..SimConfig::default()
    };
    run_scenario_simulated(algorithm, config, scenario, FaultPlan::new())
        .point
        .point
}

/// Native single-thread batch round-trip: enqueue a batch, drain it back.
fn native_batch_pairs_per_sec(algorithm: Algorithm, batch: usize, pairs: u64) -> f64 {
    let platform = NativePlatform::new();
    let queue = algorithm.build(&platform, 4_096);
    let values: Vec<u64> = (0..batch as u64).collect();
    let mut out: Vec<u64> = Vec::with_capacity(batch);
    // Warm up allocations and branch predictors.
    for _ in 0..(10_000 / batch.max(1)).max(1) {
        queue.enqueue_batch(&values).unwrap();
        queue.dequeue_batch(&mut out, batch);
        out.clear();
    }
    let rounds = pairs / batch as u64;
    let start = Instant::now();
    for _ in 0..rounds {
        queue.enqueue_batch(&values).unwrap();
        let mut taken = 0;
        while taken < batch {
            taken += queue.dequeue_batch(&mut out, batch - taken);
        }
        out.clear();
    }
    (rounds * batch as u64) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sim_enqueues, workload_pairs, native_pairs) = if smoke {
        (
            SMOKE_SIM_ENQUEUES_PER_PROC,
            SMOKE_SIM_WORKLOAD_PAIRS,
            SMOKE_NATIVE_PAIRS,
        )
    } else {
        (SIM_ENQUEUES_PER_PROC, SIM_WORKLOAD_PAIRS, NATIVE_PAIRS)
    };

    // --- Cell 1: misses per enqueue, per-op vs batch-32. ---
    let enqueue_contenders = [
        (Algorithm::NewNonBlocking, 1usize),
        (Algorithm::SegBatched, 1),
        (Algorithm::SegBatched, HEADLINE_BATCH),
    ];
    let mut enqueue_cells = Vec::new();
    for processors in [4usize, 8] {
        for (algorithm, batch) in enqueue_contenders {
            let cell = run_enqueue_cell(algorithm, processors, batch, sim_enqueues);
            eprintln!(
                "sim {}p {:<16} batch {:>3}: {:.2} misses/enqueue, {} CAS failures",
                processors,
                cell.algorithm.label(),
                cell.batch,
                cell.misses_per_enqueue,
                cell.cas_failures
            );
            enqueue_cells.push(cell);
        }
    }
    let find = |p: usize, a: Algorithm, b: usize| {
        enqueue_cells
            .iter()
            .find(|c| c.processors == p && c.algorithm == a && c.batch == b)
            .unwrap()
    };
    // The acceptance ratio: per-op seg-batched over batch-32 seg-batched.
    let batch_miss_ratio_8p = find(8, Algorithm::SegBatched, 1).misses_per_enqueue
        / find(8, Algorithm::SegBatched, HEADLINE_BATCH).misses_per_enqueue;
    let batch_miss_ratio_4p = find(4, Algorithm::SegBatched, 1).misses_per_enqueue
        / find(4, Algorithm::SegBatched, HEADLINE_BATCH).misses_per_enqueue;
    eprintln!(
        "batch-32 miss reduction: {batch_miss_ratio_4p:.2}x at 4p, {batch_miss_ratio_8p:.2}x at 8p"
    );

    // --- Cell 2: batch-mode workload, sharded vs single queue. ---
    let workload = WorkloadConfig {
        pairs_total: workload_pairs,
        other_work_ns: 0, // maximum contention: queue traffic only
        capacity: 4_096,
        mem_budget: None,
    };
    let workload_contenders = [
        Algorithm::Sharded,
        Algorithm::SegBatched,
        Algorithm::NewNonBlocking,
    ];
    let mut workload_cells = Vec::new();
    for algorithm in workload_contenders {
        let point = batched_point(algorithm, 8, workload);
        eprintln!(
            "sim 8p batch-{HEADLINE_BATCH} workload {:<16} {} virtual ns, {} CAS failures",
            algorithm.label(),
            point.elapsed_ns,
            point.cas_failures
        );
        workload_cells.push(point);
    }
    let sharded_speedup = workload_cells[1].elapsed_ns as f64 / workload_cells[0].elapsed_ns as f64;
    eprintln!("sharded speedup over seg-batched at 8p: {sharded_speedup:.2}x");

    // --- Cell 2b: batch-mode workload swept across processor counts, the
    // batch-aware analogue of the paper's Figure 3 x-axis. ---
    // The high points (64, 128) exercise the raised simulator ceiling;
    // `pairs_total` is a fixed budget split across processes, so they
    // cost no more virtual work than the low ones.
    let sweep_processors: &[usize] = if smoke {
        &[2, 4, 64]
    } else {
        &[1, 2, 4, 6, 8, 12, 64, 128]
    };
    let mut sweep_cells = Vec::new();
    for &processors in sweep_processors {
        for algorithm in workload_contenders {
            let point = batched_point(algorithm, processors, workload);
            eprintln!(
                "sim {}p batch-{HEADLINE_BATCH} sweep {:<16} {} virtual ns",
                processors,
                algorithm.label(),
                point.elapsed_ns
            );
            sweep_cells.push(point);
        }
    }

    // --- Cell 3: native single-thread pairs/sec across batch sizes. ---
    let mut native_cells = Vec::new();
    for algorithm in [Algorithm::SegBatched, Algorithm::NewNonBlocking] {
        for batch in [1usize, 8, 32, 128] {
            let pps = native_batch_pairs_per_sec(algorithm, batch, native_pairs);
            eprintln!(
                "native {:<16} batch {:>3}: {:.0} pairs/sec",
                algorithm.label(),
                batch,
                pps
            );
            native_cells.push((algorithm, batch, pps));
        }
    }

    // --- JSON report. ---
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"description\": \"bulk segment-splice and sharded front-end; sim misses/enqueue and batch-workload virtual time at max contention, native single-thread pairs/sec by batch size\","
    );
    let _ = writeln!(json, "  \"sim_enqueues_per_proc\": {sim_enqueues},");
    let _ = writeln!(json, "  \"workload_pairs\": {workload_pairs},");
    let _ = writeln!(json, "  \"headline_batch\": {HEADLINE_BATCH},");
    json.push_str("  \"sim_enqueue\": [\n");
    for (i, cell) in enqueue_cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"batch\": {}, \"processors\": {}, \"misses_per_enqueue\": {:.3}, \"cas_failures\": {}}}{}",
            cell.algorithm.label(),
            cell.batch,
            cell.processors,
            cell.misses_per_enqueue,
            cell.cas_failures,
            if i + 1 == enqueue_cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"batch32_miss_reduction_over_per_op\": {{\"4\": {batch_miss_ratio_4p:.2}, \"8\": {batch_miss_ratio_8p:.2}}},"
    );
    json.push_str("  \"sim_batch_workload_8p\": [\n");
    for (i, point) in workload_cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"elapsed_virtual_ns\": {}, \"net_virtual_ns\": {}, \"cas_failures\": {}, \"miss_rate\": {:.4}}}{}",
            point.algorithm.label(),
            point.elapsed_ns,
            point.net_ns,
            point.cas_failures,
            point.miss_rate,
            if i + 1 == workload_cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"sharded_speedup_over_seg_batched_8p\": {sharded_speedup:.2},"
    );
    json.push_str("  \"sim_batch_workload_sweep\": [\n");
    for (i, point) in sweep_cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"processors\": {}, \"elapsed_virtual_ns\": {}, \"net_virtual_ns\": {}, \"cas_failures\": {}, \"miss_rate\": {:.4}}}{}",
            point.algorithm.label(),
            point.processors,
            point.elapsed_ns,
            point.net_ns,
            point.cas_failures,
            point.miss_rate,
            if i + 1 == sweep_cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"native_single_thread\": [\n");
    for (i, (algorithm, batch, pps)) in native_cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"batch\": {}, \"pairs_per_sec\": {:.0}}}{}",
            algorithm.label(),
            batch,
            pps,
            if i + 1 == native_cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");

    msq_bench::write_report("BENCH_batch.json", smoke, &json);
    println!("{json}");
}
