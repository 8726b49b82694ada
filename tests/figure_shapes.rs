//! Small-scale, fully deterministic versions of the paper's evaluation
//! claims. The simulator is deterministic, so these assertions are stable;
//! they use reduced op counts (the shapes, not the absolute values, are
//! what the reproduction must preserve — see EXPERIMENTS.md for the
//! full-size runs).

use ms_queues::{
    run_scenario_simulated, Algorithm, BatchedScenario, FaultPlan, MeasuredPoint, PairedScenario,
    SimConfig, WorkloadConfig,
};

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        pairs_total: 3_000,
        other_work_ns: 6_000,
        capacity: 2_048,
        mem_budget: None,
    }
}

fn dedicated(processors: usize) -> SimConfig {
    SimConfig {
        processors,
        ..SimConfig::default()
    }
}

fn multiprogrammed(processors: usize, level: usize) -> SimConfig {
    SimConfig {
        processors,
        processes_per_processor: level,
        // Scale the paper's 10 ms quantum with the reduced op count, as the
        // figures harness does.
        quantum_ns: 10_000_000 * 3_000 / 1_000_000,
        ctx_switch_ns: 75,
        ..SimConfig::default()
    }
}

fn net(algorithm: Algorithm, config: SimConfig) -> f64 {
    let scenario = PairedScenario {
        workload: workload(),
    };
    run_scenario_simulated(algorithm, config, scenario, FaultPlan::new())
        .point
        .point
        .net_secs_per_million_pairs()
}

/// The batch-mode workload at 1,200 pairs, in rounds of `batch`.
fn batched(algorithm: Algorithm, config: SimConfig, batch: usize) -> MeasuredPoint {
    let workload = WorkloadConfig {
        pairs_total: 1_200,
        ..workload()
    };
    let scenario = BatchedScenario { workload, batch };
    run_scenario_simulated(algorithm, config, scenario, FaultPlan::new())
        .point
        .point
}

#[test]
fn figure3_nonblocking_beats_single_lock_at_scale() {
    // "the new non-blocking queue consistently outperforms the best known
    // alternatives ... when three or more processors are active".
    let p = 8;
    let ms = net(Algorithm::NewNonBlocking, dedicated(p));
    let single = net(Algorithm::SingleLock, dedicated(p));
    assert!(
        ms < single,
        "MS queue ({ms:.3}s) must beat the single lock ({single:.3}s) at {p} processors"
    );
}

#[test]
fn figure3_two_lock_beats_single_lock_when_contended() {
    // "The two-lock algorithm outperforms the one-lock algorithm when more
    // than 5 processors are active on a dedicated system."
    let p = 8;
    let two = net(Algorithm::NewTwoLock, dedicated(p));
    let single = net(Algorithm::SingleLock, dedicated(p));
    assert!(
        two < single,
        "two-lock ({two:.3}s) must beat single lock ({single:.3}s) at {p} processors"
    );
}

#[test]
fn figure3_valois_pays_the_reference_count_tax() {
    // Valois performs two extra atomic RMWs per pointer acquisition; at
    // low processor counts it is the slowest algorithm in Figure 3.
    let p = 2;
    let valois = net(Algorithm::Valois, dedicated(p));
    let ms = net(Algorithm::NewNonBlocking, dedicated(p));
    assert!(
        valois > ms,
        "Valois ({valois:.3}s) must trail the MS queue ({ms:.3}s) at {p} processors"
    );
}

#[test]
fn figure3_single_processor_times_are_low() {
    // "With only one processor, memory references ... hit in the cache,
    // and completion times are very low." Every algorithm's p=1 time must
    // be well below its own contended (p=2) time.
    for algorithm in Algorithm::ALL {
        let one = net(algorithm, dedicated(1));
        let two = net(algorithm, dedicated(2));
        assert!(
            one < two,
            "{algorithm}: p=1 ({one:.3}s) should be below p=2 ({two:.3}s)"
        );
    }
}

#[test]
fn figures4_5_blocking_algorithms_degrade_under_multiprogramming() {
    // "the blocking algorithms fare much worse in the presence of
    // multiprogramming" — and the degradation grows with the level.
    let p = 4;
    for algorithm in [Algorithm::SingleLock, Algorithm::NewTwoLock] {
        let dedicated_time = net(algorithm, dedicated(p));
        let multi2 = net(algorithm, multiprogrammed(p, 2));
        let multi3 = net(algorithm, multiprogrammed(p, 3));
        assert!(
            multi2 > dedicated_time * 1.5,
            "{algorithm}: 2x multiprogramming must hurt ({dedicated_time:.3} -> {multi2:.3})"
        );
        assert!(
            multi3 > multi2,
            "{algorithm}: degradation must grow with the level ({multi2:.3} -> {multi3:.3})"
        );
    }
}

#[test]
fn figures4_5_nonblocking_algorithms_shrug_off_multiprogramming() {
    let p = 4;
    for algorithm in [Algorithm::NewNonBlocking, Algorithm::PljNonBlocking] {
        let dedicated_time = net(algorithm, dedicated(p));
        let multi3 = net(algorithm, multiprogrammed(p, 3));
        assert!(
            multi3 < dedicated_time * 1.5,
            "{algorithm}: non-blocking must stay near dedicated performance \
             ({dedicated_time:.3} -> {multi3:.3})"
        );
    }
}

#[test]
fn figures4_5_nonblocking_beats_blocking_under_multiprogramming() {
    // The paper's core recommendation.
    let p = 4;
    let ms = net(Algorithm::NewNonBlocking, multiprogrammed(p, 3));
    for blocking in [
        Algorithm::SingleLock,
        Algorithm::NewTwoLock,
        Algorithm::MellorCrummey,
    ] {
        let other = net(blocking, multiprogrammed(p, 3));
        assert!(
            ms < other,
            "MS queue ({ms:.3}s) must beat {blocking} ({other:.3}s) at 3x multiprogramming"
        );
    }
}

#[test]
fn batch_mode_sweep_covers_one_through_twelve_processors() {
    // The batch-aware analogue of the Figure 3 sweep (mirrored full-size in
    // `batchbench`'s `sim_batch_workload_sweep`): every batch-capable
    // algorithm completes the Section 4 workload in batch mode at each
    // machine size of the paper's 1–12-processor axis, conserving values
    // (checked inside the harness) and reporting sane statistics.
    for algorithm in [
        Algorithm::SegBatched,
        Algorithm::Sharded,
        Algorithm::NewNonBlocking,
    ] {
        let mut serial_elapsed = 0_u64;
        for processors in [1_usize, 2, 4, 6, 8, 12] {
            let point = batched(algorithm, dedicated(processors), 32);
            assert_eq!(point.processors, processors);
            assert!(
                point.elapsed_ns > 0,
                "{algorithm} at {processors}p reported zero virtual time"
            );
            assert!(
                (0.0..=1.0).contains(&point.miss_rate),
                "{algorithm} at {processors}p: miss rate {} out of range",
                point.miss_rate
            );
            if processors == 1 {
                serial_elapsed = point.elapsed_ns;
            } else if algorithm != Algorithm::NewNonBlocking {
                // For the batch-native algorithms (one splice CAS per
                // batch), splitting fixed work across processors must beat
                // the serial run at every machine size. Virtual time is
                // not monotone between sizes (contention grows with the
                // processor count), and the MS queue — which emulates
                // batches one CAS at a time — may lose its parallelism
                // gains to contention, so neither gets this assertion.
                assert!(
                    point.elapsed_ns < serial_elapsed,
                    "{algorithm}: {processors}p elapsed {} exceeds the \
                     serial run's {serial_elapsed}",
                    point.elapsed_ns
                );
            }
        }
    }
}

#[test]
fn batching_amortizes_contention_at_scale() {
    // The point of batch mode: at 12 processors a 32-batch run must beat
    // the same algorithm moving the same pairs one at a time.
    let single = batched(Algorithm::SegBatched, dedicated(12), 1);
    let batch_32 = batched(Algorithm::SegBatched, dedicated(12), 32);
    assert!(
        batch_32.elapsed_ns < single.elapsed_ns,
        "batch 32 ({}) must beat batch 1 ({}) at 12 processors",
        batch_32.elapsed_ns,
        single.elapsed_ns
    );
}

#[test]
fn recovery_asymmetry_survivable_absorbs_residual_lock_based_flagged() {
    // The committed shape of `BENCH_fault.json`'s recovery cells, at
    // reduced scale: kill pid 1 at its first pass through each contender's
    // dequeue-side fault point and let pid 0 run restart-and-catch-up.
    // Wherever the dequeue-window death is survivable — the four
    // non-blocking queues, both extensions, and Mellor-Crummey (whose
    // dequeue tears nothing even though its enqueue window is blocking) —
    // the recovery cost is exactly the victim's residual share and a
    // positive time-to-recover is stamped. On the queues whose dequeue
    // window is a held lock, the watchdog flags the wedged survivors and
    // nothing is recovered.
    use ms_queues::{PolicyScenario, RecoveryPolicy};
    let scenario = PolicyScenario {
        workload: WorkloadConfig {
            pairs_total: 1_200,
            ..workload()
        },
        policy: RecoveryPolicy::designated(0),
        repairable: false,
    };
    let config = SimConfig {
        processors: 4,
        watchdog_ns: 400_000_000,
        ..SimConfig::default()
    };
    for algorithm in Algorithm::WITH_EXTENSIONS {
        let plan = FaultPlan::new().kill_at_label(1, algorithm.dequeue_fault_label(), 0);
        let point = run_scenario_simulated(algorithm, config, scenario, plan).point;
        assert_eq!(point.killed, vec![1], "{algorithm}: the kill must fire");
        if algorithm.dequeue_death_survivable() {
            assert!(
                point.survivors_completed(),
                "{algorithm}: blocked {:?}",
                point.blocked
            );
            assert!(point.recovered_pairs > 0, "{algorithm}");
            assert_eq!(
                point.pairs_completed + point.recovered_pairs,
                1_200,
                "{algorithm}: recovery cost must be exactly the residual share"
            );
            assert!(
                point.time_to_recover_ns.expect("handoff stamped") > 0,
                "{algorithm}"
            );
        } else {
            assert!(
                !point.survivors_completed(),
                "{algorithm}: a dead H_lock holder must wedge the survivors"
            );
            assert_eq!(point.recovered_pairs, 0, "{algorithm}");
            assert_eq!(point.time_to_recover_ns, None, "{algorithm}");
        }
    }
}

#[test]
fn shape_is_stable_under_cost_model_perturbation() {
    // DESIGN.md claims the qualitative result is not an artifact of the
    // default cost constants: double and halve the miss cost.
    for t_miss_ns in [60, 240] {
        let config = SimConfig {
            processors: 8,
            t_miss_ns,
            ..SimConfig::default()
        };
        let ms = net(Algorithm::NewNonBlocking, config);
        let single = net(Algorithm::SingleLock, config);
        assert!(
            ms < single,
            "t_miss={t_miss_ns}: MS ({ms:.3}s) must still beat single lock ({single:.3}s)"
        );
    }
}
