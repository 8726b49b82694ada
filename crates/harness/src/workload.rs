//! The paper's workload parameters and what a run of it measures.

use msq_sim::{BlockedKind, RecoveryReport, RepairReport};

use crate::registry::Algorithm;

/// Marks a replayed pair's value as recovery work: set on bit 39, below
/// the pid field (bits 40+) and above any realistic pair index, so a
/// survivor re-running victim pair `i` enqueues a value distinct from
/// anything the victim itself may have left in flight.
pub(crate) const RECOVERY_BIT: u64 = 1 << 39;

/// Workload parameters (Section 4 defaults are the `Default` impl, with
/// the op count scaled down — the simulator pays a scheduling transaction
/// per shared access, so the full 10^6 pairs is reserved for long runs).
///
/// The scale-down keeps Figure 3's relative curves: at 10^6 pairs and the
/// paper's 10 ms quantum every Figure 3 value lies within 7% of the
/// scaled-down table. It does not keep all of Figure 5's: there the
/// single-lock and two-lock columns fall and the Valois column moves with
/// the arena size. ROADMAP's "Paper-scale figures" item has the numbers.
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
    /// the segment-based extensions against a fresh
    /// [`MemBudget`](msq_arena::MemBudget) for the
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

/// One scenario run as the driver reports it: the measurement plus the
/// progress verdicts of a run under a [`FaultPlan`](msq_sim::FaultPlan),
/// which the fault suite and `faultbench` assert on.
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
    /// survivor under a [`RecoveryPolicy`](msq_sim::RecoveryPolicy) (0
    /// without one).
    pub recovered_pairs: u64,
    /// Slowest virtual time from a kill to the survivor absorbing the
    /// victim's share; `None` when no recovery completed.
    pub time_to_recover_ns: Option<u64>,
    /// Every completed recovery handoff, in completion order.
    pub recoveries: Vec<RecoveryReport>,
    /// Every lock revocation / invariant repair (§13), in completion
    /// order: who died, who repaired, and the repair-outcome label.
    /// Empty unless the queues were built in repair mode (a
    /// [`PolicyScenario`](crate::PolicyScenario) with `repairable` set, or
    /// the `repair` flag of [`Algorithm::build_with_budget`]).
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

#[cfg(test)]
mod tests {
    use super::*;

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
