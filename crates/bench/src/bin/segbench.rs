//! Headline numbers for the seg-batched extension → `BENCH_segqueue.json`.
//!
//! Two comparisons of `seg-batched` (the segment-batched MS queue) against
//! `new-nonblocking` (the paper's Figure 1 queue):
//!
//! 1. **Simulated coherence misses per queue operation** on the
//!    deterministic multiprocessor at 4, 8, 64, and 128 processors under
//!    maximum contention (no other work). This is the host-independent metric: a
//!    `fetch_add` slot claim always succeeds, so the seg-batched fast path
//!    avoids the failed-CAS re-read traffic the pointer-linked queue pays.
//! 2. **Native throughput** of an enqueue/dequeue pair, single-threaded
//!    (this is a per-op cost anchor; on a multicore host the contended
//!    gap is what the simulator predicts).
//!
//! Run from the workspace root: `cargo run --release -p msq-bench --bin
//! segbench`. Writes `BENCH_segqueue.json` in the current directory.
//! Pass `--smoke` for a scaled-down CI sanity run (same cells, same JSON
//! shape, sizes small enough for a debug-speed machine), written under
//! `target/bench-smoke/` instead.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use msq_harness::Algorithm;
use msq_platform::NativePlatform;
use msq_sim::{SimConfig, Simulation};

/// Queue-op pairs each simulated process performs.
const SIM_PAIRS_PER_PROC: u64 = 200;
/// Scaled-down sizes for `--smoke` (CI sanity run; same shape, same JSON).
const SMOKE_SIM_PAIRS_PER_PROC: u64 = 50;
const SMOKE_NATIVE_PAIRS: u64 = 50_000;
/// Ops per burst: each process alternates bursts of enqueues and
/// dequeues, the shape batching is designed for (a strict
/// enqueue-one-dequeue-one ping-pong keeps the queue empty, so every
/// dequeuer immediately chases the slot its neighbour just claimed).
const BURST: u64 = 25;
/// Pairs for the native timing loop.
const NATIVE_PAIRS: u64 = 2_000_000;

/// Simulated processor counts swept. The two high points exercise the
/// raised simulator ceiling; per-process work shrinks there so total op
/// counts stay comparable.
const SIM_PROCESSORS: [usize; 4] = [4, 8, 64, 128];

/// Per-process pairs for a cell: one burst per process at the high
/// processor counts (64 x 25 pairs already moves more values than
/// 8 x 200), the full sweep size below.
fn cell_pairs(processors: usize, sim_pairs: u64) -> u64 {
    if processors >= 64 {
        BURST
    } else {
        sim_pairs
    }
}

struct SimCell {
    algorithm: Algorithm,
    processors: usize,
    misses_per_op: f64,
    cas_failures: u64,
    elapsed_virtual_ns: u64,
}

fn run_sim_cell(algorithm: Algorithm, processors: usize, pairs_per_proc: u64) -> SimCell {
    let sim = Simulation::new(SimConfig {
        processors,
        ..SimConfig::default()
    });
    let queue = algorithm.build(&sim.platform(), 4_096);
    let report = sim.run({
        let queue = Arc::clone(&queue);
        move |info| {
            for round in 0..pairs_per_proc / BURST {
                for i in 0..BURST {
                    let payload = ((info.pid as u64) << 32) | (round * BURST + i);
                    queue.enqueue(payload).unwrap();
                }
                for _ in 0..BURST {
                    while queue.dequeue().is_none() {}
                }
            }
        }
    });
    let queue_ops = 2 * pairs_per_proc * processors as u64;
    SimCell {
        algorithm,
        processors,
        misses_per_op: report.cache_misses as f64 / queue_ops as f64,
        cas_failures: report.cas_failures,
        elapsed_virtual_ns: report.elapsed_ns,
    }
}

fn native_pairs_per_sec(algorithm: Algorithm, pairs: u64) -> f64 {
    let platform = NativePlatform::new();
    let queue = algorithm.build(&platform, 4_096);
    // Warm up allocations and branch predictors.
    for i in 0..10_000_u64 {
        queue.enqueue(i).unwrap();
        queue.dequeue();
    }
    let start = Instant::now();
    for i in 0..pairs {
        queue.enqueue(i).unwrap();
        std::hint::black_box(queue.dequeue());
    }
    pairs as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sim_pairs, native_pairs) = if smoke {
        (SMOKE_SIM_PAIRS_PER_PROC, SMOKE_NATIVE_PAIRS)
    } else {
        (SIM_PAIRS_PER_PROC, NATIVE_PAIRS)
    };
    let contenders = [Algorithm::NewNonBlocking, Algorithm::SegBatched];

    let mut sim_cells = Vec::new();
    for processors in SIM_PROCESSORS {
        for algorithm in contenders {
            let cell = run_sim_cell(algorithm, processors, cell_pairs(processors, sim_pairs));
            eprintln!(
                "sim {}p {:<16} {:.2} misses/op, {} CAS failures, {} virtual ns",
                processors,
                cell.algorithm.label(),
                cell.misses_per_op,
                cell.cas_failures,
                cell.elapsed_virtual_ns
            );
            sim_cells.push(cell);
        }
    }

    let mut native = Vec::new();
    for algorithm in contenders {
        let pairs_per_sec = native_pairs_per_sec(algorithm, native_pairs);
        eprintln!(
            "native {:<16} {:.0} pairs/sec",
            algorithm.label(),
            pairs_per_sec
        );
        native.push((algorithm, pairs_per_sec));
    }

    // Ratios the acceptance criteria care about: seg-batched must show
    // >= 2x fewer misses per op than the pointer-linked queue.
    let mut ratios = Vec::new();
    for processors in SIM_PROCESSORS {
        let ms = sim_cells
            .iter()
            .find(|c| c.processors == processors && c.algorithm == Algorithm::NewNonBlocking)
            .unwrap();
        let seg = sim_cells
            .iter()
            .find(|c| c.processors == processors && c.algorithm == Algorithm::SegBatched)
            .unwrap();
        let ratio = ms.misses_per_op / seg.misses_per_op;
        eprintln!("sim {processors}p miss ratio (ms/seg): {ratio:.2}x");
        ratios.push((processors, ratio));
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"description\": \"seg-batched vs new-nonblocking; sim misses/op at max contention, native single-thread pairs/sec\","
    );
    let _ = writeln!(json, "  \"sim_pairs_per_proc\": {sim_pairs},");
    json.push_str("  \"sim\": [\n");
    for (i, cell) in sim_cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"processors\": {}, \"misses_per_op\": {:.3}, \"cas_failures\": {}, \"elapsed_virtual_ns\": {}}}{}",
            cell.algorithm.label(),
            cell.processors,
            cell.misses_per_op,
            cell.cas_failures,
            cell.elapsed_virtual_ns,
            if i + 1 == sim_cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"miss_ratio_ms_over_seg\": {");
    for (i, (processors, ratio)) in ratios.iter().enumerate() {
        let _ = write!(
            json,
            "\"{processors}\": {ratio:.2}{}",
            if i + 1 == ratios.len() { "" } else { ", " }
        );
    }
    json.push_str("},\n");
    json.push_str("  \"native_single_thread\": [\n");
    for (i, (algorithm, pairs_per_sec)) in native.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"pairs_per_sec\": {:.0}}}{}",
            algorithm.label(),
            pairs_per_sec,
            if i + 1 == native.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");

    msq_bench::write_report("BENCH_segqueue.json", smoke, &json);
    println!("{json}");
}
