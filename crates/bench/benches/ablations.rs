//! Ablations of the design choices DESIGN.md calls out.
//!
//! * **Backoff** — the paper uses bounded exponential backoff in both the
//!   lock-based and non-blocking algorithms; `BackoffConfig::DISABLED`
//!   removes it. (The paper: "performance was not sensitive to the exact
//!   choice of backoff parameters" — given a modest amount of other work.)
//! * **Reclamation strategy** — arena free list (the paper's scheme) vs
//!   hazard pointers + heap allocation (the modern idiomatic variant).
//! * **Simulated contention with and without backoff** — where backoff
//!   actually earns its keep.
//! * **Segment size** — 8/32/128 slots per segment in the seg-batched
//!   extension: bigger segments amortize link CASes over more `fetch_add`
//!   claims but waste more space and lengthen the poison scan.

use criterion::{criterion_group, criterion_main, Criterion};
use msq_baselines::SingleLockQueue;
use msq_core::{MsQueue, WordMsQueue, WordSegQueue, WordTwoLockQueue};
use msq_harness::{run_scenario_simulated, Algorithm, PairedScenario, WorkloadConfig};
use msq_platform::{BackoffConfig, ConcurrentWordQueue, NativePlatform};
use msq_sim::{FaultPlan, SimConfig, Simulation};
use std::hint::black_box;
use std::sync::Arc;

fn backoff_on_off_native(c: &mut Criterion) {
    let platform = NativePlatform::new();
    let mut group = c.benchmark_group("backoff_uncontended");
    for (label, config) in [
        ("default", BackoffConfig::DEFAULT),
        ("disabled", BackoffConfig::DISABLED),
    ] {
        let queue = WordMsQueue::with_capacity_and_backoff(&platform, 64, config);
        group.bench_function(format!("ms-nonblocking/{label}"), |b| {
            b.iter(|| {
                queue.enqueue(black_box(5)).unwrap();
                black_box(queue.dequeue())
            })
        });
        let two_lock = WordTwoLockQueue::with_capacity_and_backoff(&platform, 64, config);
        group.bench_function(format!("two-lock/{label}"), |b| {
            b.iter(|| {
                two_lock.enqueue(black_box(5)).unwrap();
                black_box(two_lock.dequeue())
            })
        });
    }
    group.finish();
}

fn backoff_under_simulated_contention(c: &mut Criterion) {
    // 8 simulated processors hammering one queue with NO other work:
    // maximum contention, where backoff matters most.
    let mut group = c.benchmark_group("backoff_contended_sim");
    group.sample_size(10);
    for (label, config) in [
        ("default", BackoffConfig::DEFAULT),
        ("disabled", BackoffConfig::DISABLED),
    ] {
        group.bench_function(format!("ms-nonblocking/{label}"), |b| {
            b.iter(|| {
                let sim = Simulation::new(SimConfig {
                    processors: 8,
                    ..SimConfig::default()
                });
                let queue = Arc::new(WordMsQueue::with_capacity_and_backoff(
                    &sim.platform(),
                    1_024,
                    config,
                ));
                let report = sim.run({
                    let queue = Arc::clone(&queue);
                    move |info| {
                        for i in 0..50_u64 {
                            queue.enqueue((info.pid as u64) << 32 | i).unwrap();
                            while queue.dequeue().is_none() {}
                        }
                    }
                });
                black_box(report.elapsed_ns)
            })
        });
        group.bench_function(format!("single-lock/{label}"), |b| {
            b.iter(|| {
                let sim = Simulation::new(SimConfig {
                    processors: 8,
                    ..SimConfig::default()
                });
                let queue = Arc::new(SingleLockQueue::with_capacity_and_backoff(
                    &sim.platform(),
                    1_024,
                    config,
                ));
                let report = sim.run({
                    let queue = Arc::clone(&queue);
                    move |info| {
                        for i in 0..50_u64 {
                            queue.enqueue((info.pid as u64) << 32 | i).unwrap();
                            while queue.dequeue().is_none() {}
                        }
                    }
                });
                black_box(report.elapsed_ns)
            })
        });
    }
    group.finish();
}

fn reclamation_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("reclamation");
    let platform = NativePlatform::new();
    let arena_queue = WordMsQueue::with_capacity(&platform, 64);
    group.bench_function("arena-free-list", |b| {
        b.iter(|| {
            arena_queue.enqueue(black_box(5)).unwrap();
            black_box(arena_queue.dequeue())
        })
    });
    let hazard_queue: MsQueue<u64> = MsQueue::new();
    group.bench_function("hazard-pointers-heap", |b| {
        b.iter(|| {
            hazard_queue.enqueue(black_box(5));
            black_box(hazard_queue.dequeue())
        })
    });
    let epoch_queue: msq_core::EpochMsQueue<u64> = msq_core::EpochMsQueue::new();
    group.bench_function("epoch-heap", |b| {
        b.iter(|| {
            epoch_queue.enqueue(black_box(5));
            black_box(epoch_queue.dequeue())
        })
    });
    group.finish();
}

fn other_work_sensitivity(c: &mut Criterion) {
    // The paper: backoff parameters don't matter much "in programs that do
    // at least a modest amount of work between queue operations". Sweep
    // the other-work knob at fixed contention.
    let mut group = c.benchmark_group("other_work_sensitivity");
    group.sample_size(10);
    let config = SimConfig {
        processors: 4,
        ..SimConfig::default()
    };
    for other_work_ns in [0_u64, 2_000, 6_000, 12_000] {
        let scenario = PairedScenario {
            workload: WorkloadConfig {
                pairs_total: 200,
                other_work_ns,
                capacity: 1_024,
                mem_budget: None,
            },
        };
        group.bench_function(format!("ms-nonblocking/{other_work_ns}ns"), |b| {
            b.iter(|| {
                let out = run_scenario_simulated(
                    Algorithm::NewNonBlocking,
                    config,
                    scenario,
                    FaultPlan::new(),
                );
                black_box(out.point.point.elapsed_ns)
            })
        });
    }
    group.finish();
}

fn segment_size(c: &mut Criterion) {
    // The seg-batched extension's one tuning knob, natively uncontended
    // and under maximum simulated contention.
    let mut group = c.benchmark_group("segment_size");
    group.sample_size(10);
    let platform = NativePlatform::new();
    for seg_size in [8_u32, 32, 128] {
        let queue = WordSegQueue::with_seg_size_and_backoff(
            &platform,
            1_024,
            seg_size,
            BackoffConfig::DEFAULT,
        );
        group.bench_function(format!("native-uncontended/{seg_size}"), |b| {
            b.iter(|| {
                queue.enqueue(black_box(5)).unwrap();
                black_box(queue.dequeue())
            })
        });
        group.bench_function(format!("sim-contended-8p/{seg_size}"), |b| {
            b.iter(|| {
                let sim = Simulation::new(SimConfig {
                    processors: 8,
                    ..SimConfig::default()
                });
                let queue = Arc::new(WordSegQueue::with_seg_size_and_backoff(
                    &sim.platform(),
                    1_024,
                    seg_size,
                    BackoffConfig::DEFAULT,
                ));
                let report = sim.run({
                    let queue = Arc::clone(&queue);
                    move |info| {
                        for i in 0..50_u64 {
                            queue.enqueue((info.pid as u64) << 32 | i).unwrap();
                            while queue.dequeue().is_none() {}
                        }
                    }
                });
                black_box(report.elapsed_ns)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    backoff_on_off_native,
    backoff_under_simulated_contention,
    reclamation_strategies,
    other_work_sensitivity,
    segment_size
);
criterion_main!(benches);
