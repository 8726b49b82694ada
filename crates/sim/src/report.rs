//! Statistics produced by a simulation run.

/// What a traced operation did (see [`TraceEvent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Atomic load.
    Load,
    /// Atomic store.
    Store,
    /// Compare-and-swap; the flag records whether it succeeded.
    CompareExchange {
        /// Whether the CAS installed its new value.
        success: bool,
    },
    /// Atomic swap (`fetch_and_store`).
    Swap,
    /// Atomic fetch-and-add.
    FetchAdd,
}

/// One recorded shared-memory operation (when
/// [`crate::SimConfig::trace_capacity`] is non-zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time at which the operation took effect (the issuing
    /// processor's clock *before* the operation's cost).
    pub at_ns: u64,
    /// The process that issued it.
    pub pid: usize,
    /// The processor it ran on.
    pub processor: usize,
    /// The cell id (allocation order).
    pub cell: u32,
    /// Operation kind and outcome.
    pub kind: TraceKind,
}

/// Per-process statistics within a [`SimReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessReport {
    /// The process id.
    pub pid: usize,
    /// The processor the process ran on.
    pub processor: usize,
    /// Shared-memory operations executed.
    pub ops: u64,
    /// Operations that hit in the processor's cache.
    pub cache_hits: u64,
    /// Operations that missed.
    pub cache_misses: u64,
    /// Failed `compare_exchange` operations.
    pub cas_failures: u64,
    /// Processor clock when the process retired — by finishing its body,
    /// by a kill fault, or by the watchdog. The maximum over surviving
    /// processes is the run's completion latency under faults.
    pub finished_at_ns: u64,
}

/// One completed recovery handoff: a survivor absorbed the remaining
/// work share of a process the fault plan killed (see
/// [`crate::SimPlatform::mark_recovered`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The killed process whose share was absorbed.
    pub victim: usize,
    /// The survivor that absorbed it.
    pub by: usize,
    /// The victim's processor clock at the kill.
    pub killed_at_ns: u64,
    /// The survivor's processor clock when it declared the share
    /// absorbed.
    pub recovered_at_ns: u64,
}

impl RecoveryReport {
    /// Virtual time from the kill to the survivor absorbing the victim's
    /// share — the run's **time-to-recover** for this victim.
    pub fn time_to_recover_ns(&self) -> u64 {
        self.recovered_at_ns.saturating_sub(self.killed_at_ns)
    }
}

/// One completed lock revocation + invariant repair: a waiter found the
/// lock (or critical window) held by a dead process, seized it, and
/// restored the structure's invariant (see
/// [`Platform::mark_repaired`](msq_platform::Platform::mark_repaired)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairReport {
    /// The dead process whose torn state was repaired.
    pub victim: usize,
    /// The survivor that performed the repair.
    pub by: usize,
    /// What the repair decided, as a static label — e.g.
    /// `"single-lock:repair:enq-completed"` when the victim's half-done
    /// enqueue was finished on its behalf, or `...:enq-discarded` when it
    /// was rolled back.
    pub point: &'static str,
    /// The victim's processor clock at the kill.
    pub killed_at_ns: u64,
    /// The repairer's processor clock when the invariant was restored.
    pub repaired_at_ns: u64,
}

impl RepairReport {
    /// Virtual time from the kill to the invariant being restored — the
    /// run's **time-to-repair** for this victim.
    pub fn time_to_repair_ns(&self) -> u64 {
        self.repaired_at_ns.saturating_sub(self.killed_at_ns)
    }
}

/// One enqueue-to-dequeue latency sample: a consumer observed an item
/// whose arrival (enqueue-schedule) time was stamped into its value, and
/// recorded the gap to its own current virtual time (see
/// [`crate::SimPlatform`]'s `record_latency`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencySample {
    /// The process that consumed the item (and recorded the sample).
    pub pid: usize,
    /// The item's virtual arrival time, as stamped by its producer.
    pub arrival_ns: u64,
    /// The consumer's processor clock when it recorded the sample.
    pub completed_at_ns: u64,
}

impl LatencySample {
    /// Virtual enqueue-to-dequeue latency of this item (saturating: an
    /// item consumed "before" its scheduled arrival — possible when a
    /// producer ran ahead of its open-loop schedule — reads as zero).
    pub fn latency_ns(&self) -> u64 {
        self.completed_at_ns.saturating_sub(self.arrival_ns)
    }
}

/// Why the virtual-time watchdog judged a process permanently blocked
/// (parallel to [`SimReport::blocked`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockedKind {
    /// The process starved while at least one peer lay dead — the
    /// signature of waiting on a resource whose holder was killed. This
    /// is the *repairable* failure mode: a revocable lock would have
    /// seized the dead holder's lock instead of spinning forever.
    DeadHolder,
    /// The process starved with every peer still alive: genuine
    /// contention or livelock, not a crashed holder — revocation would
    /// not have helped.
    LiveContention,
}

/// Aggregate results of one [`crate::Simulation::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Virtual elapsed time: the maximum processor clock at completion.
    pub elapsed_ns: u64,
    /// Final clock of each simulated processor.
    pub per_processor_ns: Vec<u64>,
    /// Total shared-memory operations executed.
    pub total_ops: u64,
    /// Operations that hit in the issuing processor's cache.
    pub cache_hits: u64,
    /// Operations that missed (including invalidating writes).
    pub cache_misses: u64,
    /// `compare_exchange` operations that failed.
    pub cas_failures: u64,
    /// Quantum-expiry preemptions across all processors.
    pub preemptions: u64,
    /// Per-process breakdowns (indexed by pid).
    pub per_process: Vec<ProcessReport>,
    /// The first [`crate::SimConfig::trace_capacity`] operations, in
    /// virtual-time order (empty when tracing is disabled).
    pub trace: Vec<TraceEvent>,
    /// Pids killed by the fault plan, in kill order (empty unfaulted).
    pub killed: Vec<usize>,
    /// Pids the virtual-time watchdog judged permanently blocked. For a
    /// lock-based queue whose lock holder died, this is the *expected*
    /// outcome; for a non-blocking queue it is a progress-failure finding.
    pub blocked: Vec<usize>,
    /// Why each watchdog-flagged pid was blocked, parallel to
    /// [`SimReport::blocked`] (same length, same order).
    pub blocked_kinds: Vec<BlockedKind>,
    /// Stall faults injected by the plan.
    pub stalls_injected: u64,
    /// Preemption faults injected by the plan (also counted in
    /// [`SimReport::preemptions`]).
    pub preempts_injected: u64,
    /// Completed recovery handoffs, in completion order (empty unless
    /// the run's processes called
    /// [`crate::SimPlatform::mark_recovered`]).
    pub recoveries: Vec<RecoveryReport>,
    /// Completed lock revocation + invariant repairs, in completion order
    /// (empty unless the run's processes called
    /// [`Platform::mark_repaired`](msq_platform::Platform::mark_repaired)).
    pub repairs: Vec<RepairReport>,
    /// Enqueue-to-dequeue latency samples, in completion order (empty
    /// unless the run's processes recorded them via the platform's
    /// `record_latency`).
    pub latencies: Vec<LatencySample>,
}

impl SimReport {
    /// Fraction of memory operations that missed, in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        let touched = self.cache_hits + self.cache_misses;
        if touched == 0 {
            0.0
        } else {
            self.cache_misses as f64 / touched as f64
        }
    }

    /// Virtual elapsed time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ns as f64 / 1e9
    }

    /// Latest retirement time among processes that completed normally
    /// (excluding killed and watchdog-blocked pids): the run's maximum
    /// completion latency under faults.
    pub fn max_completion_ns(&self) -> u64 {
        self.per_process
            .iter()
            .filter(|p| !self.killed.contains(&p.pid) && !self.blocked.contains(&p.pid))
            .map(|p| p.finished_at_ns)
            .max()
            .unwrap_or(0)
    }

    /// True when every process other than the deliberately killed ones
    /// retired normally — no survivor tripped the watchdog. This is the
    /// paper's non-blocking progress property under a fault plan.
    pub fn survivors_completed(&self) -> bool {
        self.blocked.is_empty()
    }

    /// The slowest recovery's [`RecoveryReport::time_to_recover_ns`], or
    /// `None` when no recovery was recorded.
    pub fn time_to_recover_ns(&self) -> Option<u64> {
        self.recoveries
            .iter()
            .map(RecoveryReport::time_to_recover_ns)
            .max()
    }

    /// The slowest repair's [`RepairReport::time_to_repair_ns`], or
    /// `None` when no repair was recorded.
    pub fn time_to_repair_ns(&self) -> Option<u64> {
        self.repairs
            .iter()
            .map(RepairReport::time_to_repair_ns)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(hits: u64, misses: u64) -> SimReport {
        SimReport {
            elapsed_ns: 1_500_000_000,
            per_processor_ns: vec![1_500_000_000],
            total_ops: hits + misses,
            cache_hits: hits,
            cache_misses: misses,
            cas_failures: 0,
            preemptions: 0,
            per_process: Vec::new(),
            trace: Vec::new(),
            killed: Vec::new(),
            blocked: Vec::new(),
            blocked_kinds: Vec::new(),
            stalls_injected: 0,
            preempts_injected: 0,
            recoveries: Vec::new(),
            repairs: Vec::new(),
            latencies: Vec::new(),
        }
    }

    #[test]
    fn miss_rate_is_fraction() {
        assert_eq!(report(3, 1).miss_rate(), 0.25);
        assert_eq!(report(0, 0).miss_rate(), 0.0);
        assert_eq!(report(0, 5).miss_rate(), 1.0);
    }

    #[test]
    fn elapsed_secs_converts() {
        assert!((report(1, 0).elapsed_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn time_to_recover_takes_the_slowest_handoff() {
        let mut r = report(1, 0);
        assert_eq!(r.time_to_recover_ns(), None);
        r.recoveries.push(RecoveryReport {
            victim: 0,
            by: 1,
            killed_at_ns: 100,
            recovered_at_ns: 400,
        });
        r.recoveries.push(RecoveryReport {
            victim: 2,
            by: 1,
            killed_at_ns: 50,
            recovered_at_ns: 950,
        });
        assert_eq!(r.time_to_recover_ns(), Some(900));
        assert_eq!(r.recoveries[0].time_to_recover_ns(), 300);
    }

    #[test]
    fn latency_sample_saturates_on_early_consumption() {
        let on_time = LatencySample {
            pid: 1,
            arrival_ns: 100,
            completed_at_ns: 350,
        };
        assert_eq!(on_time.latency_ns(), 250);
        let early = LatencySample {
            pid: 1,
            arrival_ns: 400,
            completed_at_ns: 350,
        };
        assert_eq!(early.latency_ns(), 0);
    }

    #[test]
    fn time_to_repair_takes_the_slowest_repair() {
        let mut r = report(1, 0);
        assert_eq!(r.time_to_repair_ns(), None);
        r.repairs.push(RepairReport {
            victim: 0,
            by: 1,
            point: "single-lock:repair:enq-completed",
            killed_at_ns: 100,
            repaired_at_ns: 350,
        });
        r.repairs.push(RepairReport {
            victim: 2,
            by: 1,
            point: "two-lock:repair:deq-rolled-back",
            killed_at_ns: 200,
            repaired_at_ns: 900,
        });
        assert_eq!(r.time_to_repair_ns(), Some(700));
        assert_eq!(r.repairs[0].time_to_repair_ns(), 250);
    }
}
