//! The paper's workload, drivable on the simulator or native threads.

use msq_sim::{BlockedKind, FaultPlan, RecoveryPolicy, RecoveryReport, RepairReport, SimConfig};

use crate::registry::Algorithm;
use crate::scenario::{
    run_scenario_native, run_scenario_simulated, BatchedScenario, PairedScenario, PolicyScenario,
};

/// Marks a replayed pair's value as recovery work: set on bit 39, below
/// the pid field (bits 40+) and above any realistic pair index, so a
/// survivor re-running victim pair `i` enqueues a value distinct from
/// anything the victim itself may have left in flight.
pub(crate) const RECOVERY_BIT: u64 = 1 << 39;

/// Workload parameters (Section 4 defaults are the `Default` impl, with
/// the op count scaled down — the simulator pays a scheduling transaction
/// per shared access, so the full 10^6 pairs is reserved for long runs;
/// the *relative* curves are unchanged by the scale).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Total enqueue/dequeue pairs across all processes (paper: 10^6).
    pub pairs_total: u64,
    /// "Other work" spin after each enqueue and each dequeue (paper: ~6 µs).
    pub other_work_ns: u64,
    /// Queue capacity. Must exceed the maximum number of in-flight values
    /// (= number of processes); Valois additionally needs headroom for
    /// pinned chains.
    pub capacity: u32,
    /// Global segment-residency budget, in segments. `Some(limit)` meters
    /// the segment-based extensions against a fresh [`MemBudget`] for the
    /// run and reports peak residency/denials in the [`MeasuredPoint`];
    /// `None` (the default) runs unbudgeted. The paper's six preallocate
    /// node arenas and ignore it.
    pub mem_budget: Option<u64>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            pairs_total: 20_000,
            other_work_ns: 6_000,
            capacity: 4_096,
            mem_budget: None,
        }
    }
}

/// One measured experiment: an algorithm at a machine configuration.
#[derive(Clone, Debug)]
pub struct MeasuredPoint {
    /// Which queue.
    pub algorithm: Algorithm,
    /// Simulated (or intended) processor count.
    pub processors: usize,
    /// Total processes (processors × multiprogramming level).
    pub processes: usize,
    /// Pairs actually executed.
    pub pairs: u64,
    /// Raw elapsed time (virtual ns for simulated runs, wall ns native).
    pub elapsed_ns: u64,
    /// Net time after subtracting one processor's other-work share — the
    /// quantity the paper's figures plot.
    pub net_ns: u64,
    /// Cache miss rate (simulated runs only; 0 natively).
    pub miss_rate: f64,
    /// Failed CAS count (simulated runs only).
    pub cas_failures: u64,
    /// Preemptions (simulated runs only).
    pub preemptions: u64,
    /// High-water mark of concurrently resident segments, when the run
    /// was budgeted ([`WorkloadConfig::mem_budget`]); `None` otherwise.
    pub peak_resident_segments: Option<u64>,
    /// Allocations denied by budget exhaustion (each one forced the
    /// backpressure/reclaim path), when the run was budgeted.
    pub budget_denials: Option<u64>,
}

impl MeasuredPoint {
    /// Net seconds — directly comparable to the paper's y-axis, which for
    /// 10^6 pairs reads as "seconds per million pairs" (equivalently µs
    /// per pair). For scaled runs this normalizes to the same unit.
    pub fn net_secs_per_million_pairs(&self) -> f64 {
        (self.net_ns as f64 / 1e9) * (1_000_000.0 / self.pairs as f64)
    }
}

/// Splits `total` pairs across `n` processes as the paper does
/// (⌊10^6/p⌋ or ⌈10^6/p⌉ each).
pub(crate) fn share(total: u64, n: usize, pid: usize) -> u64 {
    let base = total / n as u64;
    let extra = total % n as u64;
    base + u64::from((pid as u64) < extra)
}

/// Runs the workload for `algorithm` on a simulated machine.
///
/// `sim_config.processors` and `.processes_per_processor` select the
/// figure: `(p, 1)` for Figure 3, `(p, 2)` for Figure 4, `(p, 3)` for
/// Figure 5.
///
/// A thin wrapper over [`run_scenario_simulated`] with the
/// [`PairedScenario`] and an empty fault plan; the `scenario_pins` test
/// pins its `SimReport` to digests recorded from the pre-engine loop.
pub fn run_simulated(
    algorithm: Algorithm,
    sim_config: SimConfig,
    workload: &WorkloadConfig,
) -> MeasuredPoint {
    let out = run_scenario_simulated(
        algorithm,
        sim_config,
        PairedScenario {
            workload: *workload,
        },
        FaultPlan::new(),
    );
    debug_assert_eq!(out.point.drained, Some(0), "workload must drain the queue");
    out.point.point
}

/// One faulted experiment: the workload of [`run_simulated`] plus an
/// injected [`FaultPlan`], with the per-run progress verdicts the fault
/// suite and `faultbench` assert on.
#[derive(Clone, Debug)]
pub struct FaultedPoint {
    /// The unfaulted-style measurement (elapsed/net time, miss rate, …).
    /// For runs with killed or blocked processes, `pairs` still records
    /// the *requested* total; see `pairs_completed` for what actually ran.
    pub point: MeasuredPoint,
    /// Enqueue/dequeue pairs completed by processes that finished.
    pub pairs_completed: u64,
    /// Processes killed by [`msq_sim::FaultAction::Kill`].
    pub killed: Vec<usize>,
    /// Processes the virtual-time watchdog judged permanently blocked.
    pub blocked: Vec<usize>,
    /// Why each `blocked` process was stuck (parallel to `blocked`):
    /// [`BlockedKind::DeadHolder`] when a killed process existed — the
    /// repairable wedge the §13 revocation protocol targets — versus
    /// [`BlockedKind::LiveContention`] (a watchdog misfire or genuine
    /// livelock among live processes).
    pub blocked_kinds: Vec<BlockedKind>,
    /// Stalls injected by the plan.
    pub stalls_injected: u64,
    /// Preemptions injected by the plan.
    pub preempts_injected: u64,
    /// Latest virtual completion time over surviving processes — the
    /// fault-latency metric (how long the last survivor needed to get out
    /// from under the fault).
    pub max_completion_ns: u64,
    /// Values drained from the queue after the run, when draining was
    /// safe (`None` when a kill on a blocking queue made the post-run
    /// queue state unapproachable).
    pub drained: Option<u64>,
    /// Pairs of a killed process's residual share replayed by a
    /// survivor under a [`RecoveryPolicy`] (0 without one).
    pub recovered_pairs: u64,
    /// Slowest virtual time from a kill to the survivor absorbing the
    /// victim's share; `None` when no recovery completed.
    pub time_to_recover_ns: Option<u64>,
    /// Every completed recovery handoff, in completion order.
    pub recoveries: Vec<RecoveryReport>,
    /// Every lock revocation / invariant repair (§13), in completion
    /// order: who died, who repaired, and the repair-outcome label.
    /// Empty unless the run used [`run_simulated_repaired`] (or a queue
    /// built with [`Algorithm::build_repairable`]).
    pub repairs: Vec<RepairReport>,
    /// Slowest virtual time from a kill to the matching repair landing;
    /// `None` when nothing was repaired.
    pub time_to_repair_ns: Option<u64>,
}

impl FaultedPoint {
    /// The progress verdict: every process not deliberately killed ran to
    /// completion — the paper's non-blocking property under this fault.
    pub fn survivors_completed(&self) -> bool {
        self.blocked.is_empty()
    }
}

/// Runs the workload for `algorithm` on a simulated machine with `plan`'s
/// faults injected, reporting per-run progress alongside the timing.
///
/// Unlike [`run_simulated`] this does not assert the queue drains — a
/// killed process legitimately strands values — and it only *attempts*
/// the post-run drain when it cannot hang (no kills, or a non-blocking
/// queue). Set [`SimConfig::watchdog_ns`] when the plan can block a
/// lock-based queue, or the run itself will never terminate.
pub fn run_simulated_faulted(
    algorithm: Algorithm,
    sim_config: SimConfig,
    workload: &WorkloadConfig,
    plan: FaultPlan,
) -> FaultedPoint {
    run_scenario_simulated(
        algorithm,
        sim_config,
        PairedScenario {
            workload: *workload,
        },
        plan,
    )
    .point
}

/// Runs the faulted workload of [`run_simulated_faulted`] with a
/// restart-and-catch-up [`RecoveryPolicy`] layered on top: every process
/// writes its completed-pair count to a shared progress cell, and the
/// designated survivor polls the simulator's death board
/// ([`msq_sim::SimPlatform::death_board`]) — once per own pair and then
/// continuously after its own share — absorbing each killed victim's
/// residual share (replayed with [`RECOVERY_BIT`]-marked values) before
/// stamping the handoff with `mark_recovered`. The whole recovery
/// schedule is a pure function of the seed, so the reported
/// time-to-recover replays byte-identically.
///
/// The expected asymmetry is the paper's dichotomy: on a non-blocking
/// queue the survivor completes the victim's share (recovery cost ≈ the
/// residual share) and `time_to_recover_ns` is reported; on a lock-based
/// queue whose lock died held, the survivor wedges and the watchdog
/// flags it instead — set [`SimConfig::watchdog_ns`], or the run never
/// terminates. Killing the designated survivor itself leaves every other
/// victim unabsorbed; point the plan elsewhere.
pub fn run_simulated_recovered(
    algorithm: Algorithm,
    sim_config: SimConfig,
    workload: &WorkloadConfig,
    plan: FaultPlan,
    policy: RecoveryPolicy,
) -> FaultedPoint {
    run_scenario_simulated(
        algorithm,
        sim_config,
        PolicyScenario {
            workload: *workload,
            policy,
            repairable: false,
        },
        plan,
    )
    .point
}

/// Runs the recovered workload of [`run_simulated_recovered`] on the
/// algorithm's crash-survivable *repairable* variant
/// ([`Algorithm::build_repairable`]): revocable locks plus intent-cell
/// repair for the lock-based queues, announce-cell repair for
/// Mellor-Crummey, the unchanged (already survivable) queue otherwise.
///
/// This flips the recovered run's expected asymmetry: a lock-based queue
/// whose holder dies mid-critical-section no longer wedges until the
/// watchdog fires — the next waiter revokes the dead holder's lock,
/// repairs the torn invariant, and the designated survivor absorbs the
/// victim's residual share exactly as on a non-blocking queue. Each
/// repair lands in [`FaultedPoint::repairs`] with its outcome label and
/// a measurable [`FaultedPoint::time_to_repair_ns`]. The post-run drain
/// is always attempted: a repaired queue is approachable even after a
/// kill (the drain itself revokes any still-held dead lock).
pub fn run_simulated_repaired(
    algorithm: Algorithm,
    sim_config: SimConfig,
    workload: &WorkloadConfig,
    plan: FaultPlan,
    policy: RecoveryPolicy,
) -> FaultedPoint {
    run_scenario_simulated(
        algorithm,
        sim_config,
        PolicyScenario {
            workload: *workload,
            policy,
            repairable: true,
        },
        plan,
    )
    .point
}

/// Runs the workload for `algorithm` on real threads.
///
/// On a host with at least `processes` cores this reproduces the paper's
/// dedicated-machine setup directly; on smaller hosts (including the
/// single-core CI machine this reproduction was developed on) it measures
/// an OS-multiprogrammed analogue instead and is reported as such.
pub fn run_native(
    algorithm: Algorithm,
    processes: usize,
    workload: &WorkloadConfig,
) -> MeasuredPoint {
    run_scenario_native(
        algorithm,
        processes,
        PairedScenario {
            workload: *workload,
        },
    )
    .point
    .point
}

/// Runs the **batch-mode** workload for `algorithm` on a simulated
/// machine: each process moves its pairs in rounds of `batch` via
/// `enqueue_batch`/`dequeue_batch` (the trait defaults degrade to per-op
/// loops for the paper's six, so every algorithm is drivable).
///
/// Net-time accounting matches the round structure: one round of `batch`
/// pairs spins the ~6 µs "other work" twice, so a processor's other-work
/// share is `(pairs / processors / batch) * 2 * other_work_ns`.
pub fn run_simulated_batched(
    algorithm: Algorithm,
    sim_config: SimConfig,
    workload: &WorkloadConfig,
    batch: usize,
) -> MeasuredPoint {
    assert!(batch >= 1);
    let out = run_scenario_simulated(
        algorithm,
        sim_config,
        BatchedScenario {
            workload: *workload,
            batch,
        },
        FaultPlan::new(),
    );
    debug_assert_eq!(out.point.drained, Some(0), "workload must drain the queue");
    out.point.point
}

/// Runs the batch-mode workload for `algorithm` on real threads; the
/// native counterpart of [`run_simulated_batched`].
pub fn run_native_batched(
    algorithm: Algorithm,
    processes: usize,
    workload: &WorkloadConfig,
    batch: usize,
) -> MeasuredPoint {
    assert!(batch >= 1);
    run_scenario_native(
        algorithm,
        processes,
        BatchedScenario {
            workload: *workload,
            batch,
        },
    )
    .point
    .point
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WorkloadConfig {
        WorkloadConfig {
            pairs_total: 300,
            other_work_ns: 500,
            capacity: 256,
            mem_budget: None,
        }
    }

    #[test]
    fn share_splits_like_the_paper() {
        // 10 pairs over 3 processes: 4, 3, 3.
        assert_eq!(share(10, 3, 0), 4);
        assert_eq!(share(10, 3, 1), 3);
        assert_eq!(share(10, 3, 2), 3);
        assert_eq!((0..3).map(|p| share(10, 3, p)).sum::<u64>(), 10);
        assert_eq!(share(6, 1, 0), 6);
    }

    #[test]
    fn simulated_run_completes_for_every_algorithm() {
        for alg in Algorithm::ALL {
            let point = run_simulated(
                alg,
                SimConfig {
                    processors: 2,
                    ..SimConfig::default()
                },
                &tiny(),
            );
            assert!(point.elapsed_ns > 0, "{alg}");
            assert!(point.net_ns <= point.elapsed_ns, "{alg}");
            assert_eq!(point.pairs, 300);
            assert_eq!(point.processes, 2);
        }
    }

    #[test]
    fn simulated_multiprogrammed_run_completes() {
        let point = run_simulated(
            Algorithm::NewNonBlocking,
            SimConfig {
                processors: 2,
                processes_per_processor: 2,
                quantum_ns: 100_000,
                ..SimConfig::default()
            },
            &tiny(),
        );
        assert_eq!(point.processes, 4);
        assert!(point.elapsed_ns > 0);
    }

    #[test]
    fn simulated_runs_are_deterministic() {
        let run = || {
            run_simulated(
                Algorithm::NewNonBlocking,
                SimConfig {
                    processors: 3,
                    ..SimConfig::default()
                },
                &tiny(),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.cas_failures, b.cas_failures);
    }

    #[test]
    fn native_run_completes() {
        let point = run_native(Algorithm::NewNonBlocking, 2, &tiny());
        assert!(point.elapsed_ns > 0);
        assert_eq!(point.processes, 2);
    }

    #[test]
    fn simulated_batched_run_completes_for_batchers_and_loopers() {
        // A real batcher, the sharded front-end, and a trait-default
        // per-op looper all drive the same workload.
        for alg in [
            Algorithm::SegBatched,
            Algorithm::Sharded,
            Algorithm::NewNonBlocking,
        ] {
            let point = run_simulated_batched(
                alg,
                SimConfig {
                    processors: 2,
                    ..SimConfig::default()
                },
                &tiny(),
                8,
            );
            assert!(point.elapsed_ns > 0, "{alg}");
            assert_eq!(point.pairs, 300, "{alg}");
        }
    }

    #[test]
    fn simulated_batched_runs_are_deterministic() {
        let run = || {
            run_simulated_batched(
                Algorithm::Sharded,
                SimConfig {
                    processors: 3,
                    ..SimConfig::default()
                },
                &tiny(),
                8,
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.cas_failures, b.cas_failures);
    }

    #[test]
    fn native_batched_run_completes() {
        let point = run_native_batched(Algorithm::SegBatched, 2, &tiny(), 16);
        assert!(point.elapsed_ns > 0);
        assert_eq!(point.processes, 2);
    }

    #[test]
    fn batch_of_one_matches_per_op_structure() {
        // batch=1 must be a valid degenerate case, not a special one.
        let point = run_simulated_batched(
            Algorithm::SegBatched,
            SimConfig {
                processors: 2,
                ..SimConfig::default()
            },
            &tiny(),
            1,
        );
        assert!(point.elapsed_ns > 0);
    }

    #[test]
    fn budgeted_simulated_run_reports_peak_within_limit() {
        for alg in [Algorithm::SegBatched, Algorithm::Sharded] {
            let point = run_simulated_batched(
                alg,
                SimConfig {
                    processors: 2,
                    ..SimConfig::default()
                },
                &WorkloadConfig {
                    mem_budget: Some(48),
                    ..tiny()
                },
                8,
            );
            let peak = point.peak_resident_segments.expect("budgeted run");
            assert!(peak >= 1, "{alg}: the dummy segment is always resident");
            assert!(peak <= 48, "{alg}: peak {peak} exceeded the budget");
            assert!(point.budget_denials.is_some(), "{alg}");
        }
    }

    #[test]
    fn unbudgeted_runs_report_no_residency_metrics() {
        let point = run_simulated(
            Algorithm::SegBatched,
            SimConfig {
                processors: 2,
                ..SimConfig::default()
            },
            &tiny(),
        );
        assert_eq!(point.peak_resident_segments, None);
        assert_eq!(point.budget_denials, None);
    }

    #[test]
    fn faulted_run_kill_on_nonblocking_queue_still_completes() {
        let point = run_simulated_faulted(
            Algorithm::NewNonBlocking,
            SimConfig {
                processors: 2,
                watchdog_ns: 50_000_000,
                ..SimConfig::default()
            },
            &tiny(),
            FaultPlan::new().kill_at_label(1, "msq:enq:window", 0),
        );
        assert_eq!(point.killed, vec![1]);
        assert!(point.survivors_completed(), "blocked: {:?}", point.blocked);
        // Process 0 finished all its pairs; the victim died on pair 0.
        assert_eq!(point.pairs_completed, share(300, 2, 0));
        // The victim's linearized-but-unfinished enqueue strands one value.
        assert_eq!(point.drained, Some(1));
        assert!(point.max_completion_ns > 0);
        assert!(point.max_completion_ns < 50_000_000, "no watchdog overrun");
    }

    #[test]
    fn faulted_run_kill_on_lock_queue_is_detected_as_blocked() {
        let point = run_simulated_faulted(
            Algorithm::SingleLock,
            SimConfig {
                processors: 2,
                watchdog_ns: 50_000_000,
                ..SimConfig::default()
            },
            &tiny(),
            FaultPlan::new().kill_at_label(1, "single-lock:enq:locked", 0),
        );
        assert_eq!(point.killed, vec![1]);
        assert!(
            !point.survivors_completed(),
            "a dead lock-holder must block the survivor"
        );
        assert_eq!(point.blocked, vec![0]);
        assert_eq!(point.drained, None, "a seized lock makes draining unsafe");
    }

    #[test]
    fn faulted_runs_with_empty_plans_match_unfaulted_timing() {
        let cfg = SimConfig {
            processors: 2,
            ..SimConfig::default()
        };
        let faulted =
            run_simulated_faulted(Algorithm::NewNonBlocking, cfg, &tiny(), FaultPlan::new());
        let unfaulted = run_simulated(Algorithm::NewNonBlocking, cfg, &tiny());
        assert_eq!(faulted.point.elapsed_ns, unfaulted.elapsed_ns);
        assert_eq!(faulted.point.cas_failures, unfaulted.cas_failures);
        assert_eq!(faulted.pairs_completed, 300);
        assert_eq!(faulted.drained, Some(0));
    }

    #[test]
    fn every_algorithm_has_an_enqueue_fault_label() {
        for alg in Algorithm::WITH_EXTENSIONS {
            let label = alg.enqueue_fault_label();
            assert!(
                label.contains(":enq:") || label.ends_with(":window"),
                "{alg}: {label}"
            );
        }
    }

    #[test]
    fn every_algorithm_has_a_dequeue_fault_label() {
        for alg in Algorithm::WITH_EXTENSIONS {
            let label = alg.dequeue_fault_label();
            assert!(
                label.contains(":deq:") || label.ends_with(":window") || label == "seg:reclaim",
                "{alg}: {label}"
            );
            assert_ne!(label, alg.enqueue_fault_label(), "{alg}: sides must differ");
        }
    }

    #[test]
    fn recovered_run_absorbs_the_victims_residual_share() {
        let point = run_simulated_recovered(
            Algorithm::NewNonBlocking,
            SimConfig {
                processors: 3,
                watchdog_ns: 400_000_000,
                ..SimConfig::default()
            },
            &tiny(),
            FaultPlan::new().kill_at_label(1, "msq:deq:window", 0),
            RecoveryPolicy::designated(0),
        );
        assert_eq!(point.killed, vec![1]);
        assert!(point.survivors_completed(), "blocked: {:?}", point.blocked);
        // The victim died inside its first dequeue: its whole share is
        // residual, and the survivor replays every pair of it.
        assert_eq!(point.recovered_pairs, share(300, 3, 1));
        assert_eq!(point.pairs_completed + point.recovered_pairs, 300);
        assert_eq!(point.recoveries.len(), 1);
        assert_eq!(point.recoveries[0].victim, 1);
        assert_eq!(point.recoveries[0].by, 0);
        let ttr = point.time_to_recover_ns.expect("one recovery completed");
        assert!(ttr > 0, "catch-up work costs virtual time");
        // The victim's in-flight dequeue already swung Head, so the
        // replayed pairs leave the queue balanced.
        assert_eq!(point.drained, Some(0));
    }

    #[test]
    fn recovered_run_on_a_lock_queue_is_watchdog_flagged_not_recovered() {
        let point = run_simulated_recovered(
            Algorithm::SingleLock,
            SimConfig {
                processors: 3,
                watchdog_ns: 50_000_000,
                ..SimConfig::default()
            },
            &tiny(),
            FaultPlan::new().kill_at_label(1, "single-lock:deq:locked", 0),
            RecoveryPolicy::designated(0),
        );
        assert_eq!(point.killed, vec![1]);
        assert!(
            !point.survivors_completed(),
            "a dead lock-holder must wedge the survivors"
        );
        assert_eq!(point.recovered_pairs, 0);
        assert_eq!(point.time_to_recover_ns, None);
        assert!(point.recoveries.is_empty());
        assert_eq!(point.drained, None);
    }

    #[test]
    fn repaired_run_on_a_lock_queue_completes_with_conservation() {
        for (alg, label) in [
            (Algorithm::SingleLock, "single-lock:deq:locked"),
            (Algorithm::NewTwoLock, "two-lock:deq:locked"),
        ] {
            let point = run_simulated_repaired(
                alg,
                SimConfig {
                    processors: 3,
                    watchdog_ns: 400_000_000,
                    ..SimConfig::default()
                },
                &tiny(),
                FaultPlan::new().kill_at_label(1, label, 0),
                RecoveryPolicy::designated(0),
            );
            assert_eq!(point.killed, vec![1], "{alg}");
            assert!(
                point.survivors_completed(),
                "{alg}: repair must beat the watchdog, blocked {:?}",
                point.blocked
            );
            assert_eq!(point.repairs.len(), 1, "{alg}: {:?}", point.repairs);
            assert_eq!(point.repairs[0].victim, 1, "{alg}");
            let ttr = point.time_to_repair_ns.expect("one repair landed");
            assert!(ttr > 0, "{alg}: revocation costs virtual time");
            assert_eq!(
                point.pairs_completed + point.recovered_pairs,
                300,
                "{alg}: conservation"
            );
            let drained = point.drained.expect("a repaired queue is drainable");
            assert!(drained <= 1, "{alg}: at most the rolled-back value remains");
        }
    }

    #[test]
    fn repaired_runs_with_empty_plans_are_clean_and_deterministic() {
        let run = || {
            run_simulated_repaired(
                Algorithm::NewTwoLock,
                SimConfig {
                    processors: 2,
                    ..SimConfig::default()
                },
                &tiny(),
                FaultPlan::new(),
                RecoveryPolicy::designated(0),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.point.elapsed_ns, b.point.elapsed_ns);
        assert_eq!(a.point.cas_failures, b.point.cas_failures);
        assert!(a.repairs.is_empty(), "nothing to repair without a fault");
        assert!(a.recoveries.is_empty());
        assert_eq!(a.pairs_completed, 300);
        assert_eq!(a.drained, Some(0));
    }

    #[test]
    fn recovered_runs_are_deterministic() {
        let run = || {
            run_simulated_recovered(
                Algorithm::NewNonBlocking,
                SimConfig {
                    processors: 3,
                    watchdog_ns: 400_000_000,
                    ..SimConfig::default()
                },
                &tiny(),
                FaultPlan::new().kill_at_label(2, "msq:deq:window", 0),
                RecoveryPolicy::designated(1),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.point.elapsed_ns, b.point.elapsed_ns);
        assert_eq!(a.recoveries, b.recoveries);
        assert_eq!(a.time_to_recover_ns, b.time_to_recover_ns);
        assert_eq!(a.recovered_pairs, b.recovered_pairs);
    }

    #[test]
    fn net_normalization_scales_to_per_million() {
        let point = MeasuredPoint {
            algorithm: Algorithm::SingleLock,
            processors: 1,
            processes: 1,
            pairs: 10_000,
            elapsed_ns: 2_000_000,
            net_ns: 1_000_000, // 1 ms for 10k pairs
            miss_rate: 0.0,
            cas_failures: 0,
            preemptions: 0,
            peak_resident_segments: None,
            budget_denials: None,
        };
        // 1 ms per 10^4 pairs -> 100 ms per 10^6 pairs = 0.1 s.
        assert!((point.net_secs_per_million_pairs() - 0.1).abs() < 1e-9);
    }
}
