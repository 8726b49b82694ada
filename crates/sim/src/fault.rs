//! [`FaultPlan`]: seeded, deterministic fault injection for simulated runs.
//!
//! The paper's core robustness argument is that a *non-blocking* queue
//! keeps making global progress even "if a process is halted in the middle
//! of its operation", while a blocking queue stalls everyone. The fault
//! layer turns that claim into a testable event: a plan names a victim
//! process, a *trigger* (its N-th shared-memory operation, or the N-th hit
//! of a labelled [`msq_platform::Platform::fault_point`]), and an *action*
//! — stall for K virtual nanoseconds, preempt (rotate off the processor
//! mid-quantum), or die permanently.
//!
//! Plans are plain data resolved entirely inside the deterministic
//! scheduler, so a faulted run is exactly as reproducible as an unfaulted
//! one: same config + same plan → byte-identical virtual-time history. An
//! empty plan leaves the schedule untouched, so every existing seed-0
//! regression stays canonical.
//!
//! Death is detected by the run's oracle, not hidden: lock-free queues
//! must drain and linearize around the corpse, while lock-based baselines
//! are *expected* to block — the [`crate::SimConfig::watchdog_ns`]
//! virtual-time watchdog converts their permanent stall into a recorded
//! `blocked` verdict instead of a hung test.

/// When a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Fires just before the victim's `n`-th shared-memory operation
    /// (0-based over loads, stores, RMWs and delays alike).
    Op(u64),
    /// Fires at the `occurrence`-th time (0-based) the victim passes the
    /// [`msq_platform::Platform::fault_point`] with this label.
    Label {
        /// The fault-point label to match (see DESIGN.md §11 taxonomy).
        label: &'static str,
        /// Which hit of that label fires the fault (0 = first).
        occurrence: u64,
    },
}

/// What the fault does to the victim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deschedule the victim for this much virtual time; queue-mates (and
    /// other processors) keep running meanwhile.
    Stall {
        /// Stall length in virtual nanoseconds.
        duration_ns: u64,
    },
    /// Yank the victim off its processor immediately (mid-quantum), paying
    /// a context switch — the paper's "preempted at the worst moment".
    Preempt,
    /// Kill the victim permanently: its process unwinds, its in-flight
    /// operation stays wherever the algorithm left it.
    Kill,
}

/// One scheduled fault: victim + trigger + action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// The victim process id.
    pub pid: usize,
    /// When the fault fires.
    pub trigger: FaultTrigger,
    /// What happens to the victim.
    pub action: FaultAction,
}

/// A deterministic schedule of faults for one simulated run.
///
/// Build with the chainable constructors and hand to
/// [`crate::Simulation::with_faults`]. Each spec fires at most once; specs
/// for the same process fire in the order their triggers are reached.
///
/// # Example
///
/// ```
/// use msq_sim::{FaultPlan, SimConfig, Simulation};
///
/// // Kill process 1 the first time it reaches the MS enqueue window.
/// let plan = FaultPlan::new().kill_at_label(1, "msq:enq:window", 0);
/// let sim = Simulation::with_faults(
///     SimConfig { processors: 2, ..SimConfig::default() },
///     plan,
/// );
/// # let _ = sim;
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub(crate) specs: Vec<FaultSpec>,
    /// Bitmask of watched pids (for the lock-free fast path); pids ≥ 64
    /// set the overflow bit and fall back to scanning `specs`.
    watched_mask: u64,
    watched_overflow: bool,
}

impl FaultPlan {
    /// An empty plan: injects nothing, perturbs nothing.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an arbitrary spec.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        if spec.pid < 64 {
            self.watched_mask |= 1 << spec.pid;
        } else {
            self.watched_overflow = true;
        }
        self.specs.push(spec);
        self
    }

    /// Stalls `pid` for `duration_ns` at its `op`-th shared-memory step.
    pub fn stall_at_op(self, pid: usize, op: u64, duration_ns: u64) -> Self {
        self.with(FaultSpec {
            pid,
            trigger: FaultTrigger::Op(op),
            action: FaultAction::Stall { duration_ns },
        })
    }

    /// Stalls `pid` for `duration_ns` at the `occurrence`-th hit of
    /// `label`.
    pub fn stall_at_label(
        self,
        pid: usize,
        label: &'static str,
        occurrence: u64,
        duration_ns: u64,
    ) -> Self {
        self.with(FaultSpec {
            pid,
            trigger: FaultTrigger::Label { label, occurrence },
            action: FaultAction::Stall { duration_ns },
        })
    }

    /// Preempts `pid` at the `occurrence`-th hit of `label`.
    pub fn preempt_at_label(self, pid: usize, label: &'static str, occurrence: u64) -> Self {
        self.with(FaultSpec {
            pid,
            trigger: FaultTrigger::Label { label, occurrence },
            action: FaultAction::Preempt,
        })
    }

    /// Kills `pid` permanently at its `op`-th shared-memory step.
    pub fn kill_at_op(self, pid: usize, op: u64) -> Self {
        self.with(FaultSpec {
            pid,
            trigger: FaultTrigger::Op(op),
            action: FaultAction::Kill,
        })
    }

    /// Kills `pid` permanently at the `occurrence`-th hit of `label`.
    pub fn kill_at_label(self, pid: usize, label: &'static str, occurrence: u64) -> Self {
        self.with(FaultSpec {
            pid,
            trigger: FaultTrigger::Label { label, occurrence },
            action: FaultAction::Kill,
        })
    }

    /// A preemption *storm*: preempt `pid` at every one of its first
    /// `count` hits of `label` — the multiprogrammed scheduler landing on
    /// the worst window over and over.
    pub fn preempt_storm(mut self, pid: usize, label: &'static str, count: u64) -> Self {
        for occurrence in 0..count {
            self = self.preempt_at_label(pid, label, occurrence);
        }
        self
    }

    /// True when the plan is empty (no perturbation at all).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// True when the plan schedules at least one [`FaultAction::Kill`].
    /// Harness code uses this to decide whether a post-run drain is safe
    /// on a blocking queue (a killed lock-holder leaves the lock held
    /// forever, so draining would spin natively).
    pub fn has_kills(&self) -> bool {
        self.specs
            .iter()
            .any(|s| matches!(s.action, FaultAction::Kill))
    }

    /// Number of faults scheduled.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Lock-free precheck: could this plan ever target `pid`? Used to keep
    /// unwatched processes on the exact unfaulted code path.
    pub(crate) fn watches(&self, pid: usize) -> bool {
        if pid < 64 {
            self.watched_mask & (1 << pid) != 0
        } else {
            self.watched_overflow
        }
    }

    /// True when some spec for `pid` uses a label trigger — only then does
    /// `fault_point` need to enter the scheduler at all.
    pub(crate) fn watches_labels(&self, pid: usize) -> bool {
        self.watches(pid)
            && self
                .specs
                .iter()
                .any(|s| s.pid == pid && matches!(s.trigger, FaultTrigger::Label { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_watches_nobody() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        for pid in 0..70 {
            assert!(!plan.watches(pid));
            assert!(!plan.watches_labels(pid));
        }
    }

    #[test]
    fn watch_mask_tracks_targets() {
        let plan = FaultPlan::new()
            .kill_at_op(3, 10)
            .stall_at_label(5, "msq:enq:window", 0, 1_000);
        assert!(plan.watches(3));
        assert!(plan.watches(5));
        assert!(!plan.watches(0));
        assert!(!plan.watches_labels(3), "pid 3 only has an op trigger");
        assert!(plan.watches_labels(5));
    }

    #[test]
    fn high_pids_fall_back_to_overflow() {
        let plan = FaultPlan::new().kill_at_op(100, 0);
        assert!(plan.watches(100));
        assert!(plan.watches(99), "overflow is conservative");
        assert!(!plan.watches(1), "low pids still use the precise mask");
    }

    #[test]
    fn storm_expands_to_per_occurrence_specs() {
        let plan = FaultPlan::new().preempt_storm(2, "lock:held", 3);
        assert_eq!(plan.len(), 3);
        for (i, spec) in plan.specs.iter().enumerate() {
            assert_eq!(spec.pid, 2);
            assert_eq!(spec.action, FaultAction::Preempt);
            assert_eq!(
                spec.trigger,
                FaultTrigger::Label {
                    label: "lock:held",
                    occurrence: i as u64
                }
            );
        }
    }
}
