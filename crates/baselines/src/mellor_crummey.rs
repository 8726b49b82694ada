//! Mellor-Crummey's concurrent queue (TR 229, 1987) — reconstructed.
//!
//! The MS paper characterizes this algorithm precisely: it "requires no
//! special precautions to avoid the ABA problem because it uses
//! compare_and_swap in a fetch_and_store-modify-compare_and_swap sequence
//! rather than the usual read-modify-compare_and_swap sequence. However,
//! this same feature makes the algorithm blocking." This reconstruction
//! preserves exactly those properties:
//!
//! * **Enqueue** is a two-step `fetch_and_store` (swap) of `Tail` followed
//!   by a plain store that links the previous tail to the new node. It
//!   never retries and never suffers ABA — but between the swap and the
//!   link store, the list is disconnected at the tail.
//! * **Dequeue** advances `Head` with a counted CAS, and when it observes a
//!   missing link with `Tail` already moved on, it must **wait** for the
//!   stalled enqueuer — the blocking window the multiprogrammed
//!   experiments (Figures 4 and 5) punish so heavily.

use std::sync::Arc;

use msq_arena::{MemBudget, NodeArena};
use msq_platform::{
    AtomicWord, Backoff, BackoffConfig, ConcurrentWordQueue, Platform, QueueFull, Tagged,
    NULL_INDEX,
};
use msq_sync::{Plain, Repair, RepairMode};

/// Process ids the repair protocol can track (the width of the death
/// board). Processes with higher ids still run correctly but die
/// unrepairably, exactly like the plain queue.
pub const REPAIR_PIDS: usize = 64;

/// Offsets of the announce-cell groups in repair mode's protocol cells:
/// `REPAIR_PIDS` enqueue cells, then `REPAIR_PIDS` dequeue cells, then
/// the repaired mask.
const ENQ_ANNOUNCE: usize = 0;
const DEQ_ANNOUNCE: usize = REPAIR_PIDS;
const REPAIRED_MASK: usize = 2 * REPAIR_PIDS;

/// Mellor-Crummey's lock-free (but blocking) queue over a node arena.
///
/// In [`Repair`] mode ([`RepairableMcQueue`]) the torn-tail window
/// becomes survivable. There is no lock to revoke, so each enqueue
/// publishes its progress in a per-process **announce cell**:
///
/// 1. `node + 1` — allocated, not yet published (a death here is rolled
///    back by freeing the node);
/// 2. `(prev + 1) << 32 | (node + 1)` — `Tail` swapped, link not yet
///    stored (a death here is completed by storing the link);
/// 3. `0` — linked; nothing in flight.
///
/// Dequeues announce `old_dummy + 1` between their winning head CAS and
/// the recycle, so a death there frees the stranded dummy. Dequeuers poll
/// [`Platform::dead_peers`] once per call (and on every torn-tail wait
/// iteration) and CAS-claim dead processes' announce cells; the claim
/// makes each repair exactly-once even with several concurrent repairers.
///
/// # Example
///
/// ```
/// use msq_baselines::McQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = McQueue::with_capacity(&NativePlatform::new(), 8);
/// queue.enqueue(3).unwrap();
/// assert_eq!(queue.dequeue(), Some(3));
/// ```
pub struct McQueue<P: Platform, M: RepairMode<P> = Plain> {
    /// Tagged word (dequeuers CAS it, so it needs the ABA counter).
    head: P::Cell,
    /// Plain node index: only ever `swap`ped, which is ABA-immune.
    tail: P::Cell,
    /// Repair mode's announce cells and repaired mask (see the
    /// `ENQ_ANNOUNCE` layout).
    announce: M::Cells,
    arena: NodeArena<P>,
    platform: P,
    backoff: BackoffConfig,
}

/// Mellor-Crummey's queue in [`Repair`] mode: a process killed in the
/// torn-tail window is healed by a dequeuer.
///
/// # Example
///
/// ```
/// use msq_baselines::RepairableMcQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = RepairableMcQueue::new(&NativePlatform::new(), 8, None);
/// queue.enqueue(3).unwrap();
/// assert_eq!(queue.dequeue(), Some(3));
/// ```
pub type RepairableMcQueue<P> = McQueue<P, Repair>;

impl<P: Platform> McQueue<P> {
    /// Creates a queue able to hold `capacity` values simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity(platform: &P, capacity: u32) -> Self {
        Self::new(platform, capacity, None)
    }

    /// As [`McQueue::with_capacity`] with explicit backoff parameters for
    /// the dequeue-side waits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity_and_backoff(platform: &P, capacity: u32, backoff: BackoffConfig) -> Self {
        Self::build(platform, capacity, backoff, None)
    }
}

impl<P: Platform, M: RepairMode<P>> McQueue<P, M> {
    /// Creates a queue in mode `M` able to hold `capacity` values
    /// simultaneously, metering the node pool (one unit per node,
    /// `capacity + 1` total for the dummy) against `budget`, if given,
    /// for the queue's lifetime. The pool is force-reserved — an
    /// over-budget queue surfaces in [`MemBudget::overruns`], not as a
    /// construction failure.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn new(platform: &P, capacity: u32, budget: Option<Arc<MemBudget<P>>>) -> Self {
        Self::build(platform, capacity, BackoffConfig::DEFAULT, budget)
    }

    fn build(
        platform: &P,
        capacity: u32,
        backoff: BackoffConfig,
        budget: Option<Arc<MemBudget<P>>>,
    ) -> Self {
        let nodes = capacity.checked_add(1).expect("capacity overflow");
        let arena = NodeArena::new(platform, nodes, budget);
        let dummy = arena.alloc().expect("fresh arena");
        arena.set_next(dummy, NULL_INDEX);
        if M::REPAIR {
            // Fix the death board's cell id during untimed setup.
            let _ = platform.dead_peers();
        }
        McQueue {
            head: platform.alloc_cell(Tagged::new(dummy, 0).raw()),
            tail: platform.alloc_cell(u64::from(dummy)),
            announce: M::alloc_cells(platform, REPAIRED_MASK + 1),
            arena,
            platform: platform.clone(),
            backoff,
        }
    }

    /// Maximum number of values the queue can hold.
    pub fn capacity(&self) -> u32 {
        self.arena.capacity() - 1
    }

    /// Repair mode's announce cell in group `group` for the calling
    /// process; `None` in plain mode or for a pid past `REPAIR_PIDS`.
    fn my_announce(&self, group: usize) -> Option<&P::Cell> {
        if !M::REPAIR {
            return None;
        }
        let pid = self.platform.affinity_hint();
        (pid < REPAIR_PIDS).then(|| &M::cells(&self.announce)[group + pid])
    }

    /// Consults the death board and repairs any dead process whose
    /// announce cell still records an in-flight operation. Exactly-once
    /// per victim via the CAS claim on the announce cell itself; the
    /// repaired-mask short-circuit keeps the steady-state cost after a
    /// handled death to two loads per dequeue. A no-op in plain mode.
    fn repair_dead(&self) {
        if !M::REPAIR {
            return;
        }
        let dead = self.platform.dead_peers();
        if dead == 0 {
            return;
        }
        let cells = M::cells(&self.announce);
        let repaired_mask = &cells[REPAIRED_MASK];
        let done = repaired_mask.load();
        let pending = dead & !done;
        if pending == 0 {
            return;
        }
        for pid in 0..REPAIR_PIDS {
            if pending & (1 << pid) == 0 {
                continue;
            }
            let slot = &cells[ENQ_ANNOUNCE + pid];
            let v = slot.load();
            if v != 0 && slot.cas(v, 0) {
                let outcome = if v >> 32 == 0 {
                    // Allocated but never published: roll back.
                    self.arena.free((v - 1) as u32);
                    "mc:repair:enq-discard"
                } else {
                    // Tail swapped but the link never landed — the tear
                    // that blocks every plain-MC dequeuer. Complete it.
                    let prev = ((v >> 32) - 1) as u32;
                    let node = ((v & 0xffff_ffff) - 1) as u32;
                    self.arena.set_next(prev, node);
                    "mc:repair:enq-complete"
                };
                self.platform.mark_repaired(pid, outcome);
            }
            let slot = &cells[DEQ_ANNOUNCE + pid];
            let v = slot.load();
            if v != 0 && slot.cas(v, 0) {
                // Head swung but the old dummy was never recycled.
                self.arena.free((v - 1) as u32);
                self.platform.mark_repaired(pid, "mc:repair:deq-complete");
            }
        }
        // Best-effort: losing this CAS only means another repairer
        // published the bits; the announce claims above are what make
        // each repair exactly-once.
        let _ = repaired_mask.cas(done, done | pending);
    }
}

impl<P: Platform, M: RepairMode<P>> ConcurrentWordQueue for McQueue<P, M> {
    fn enqueue(&self, value: u64) -> Result<(), QueueFull> {
        let Some(node) = self.arena.alloc() else {
            return Err(QueueFull(value));
        };
        self.arena.set_value(node, value);
        self.arena.set_next(node, NULL_INDEX);
        let slot = self.my_announce(ENQ_ANNOUNCE);
        if let Some(slot) = slot {
            slot.store(u64::from(node) + 1);
        }
        // fetch_and_store: claim the tail position unconditionally. The
        // previous tail node cannot be freed before we link it (a node is
        // only freed once its next link is non-null), so the store below is
        // always to a live node.
        let prev = self.tail.swap(u64::from(node)) as u32;
        if let Some(slot) = slot {
            slot.store((u64::from(prev) + 1) << 32 | (u64::from(node) + 1));
        }
        // ... but until this store lands, the list is torn at `prev`: a
        // process halted or killed in this window blocks every dequeuer
        // that reaches the tear — lock-free in mechanism, blocking in
        // behaviour, exactly as the MS paper characterizes it. In repair
        // mode the announce cell lets any survivor complete the link.
        self.platform.fault_point("mc:enq:window");
        self.arena.set_next(prev, node);
        if let Some(slot) = slot {
            slot.store(0);
        }
        Ok(())
    }

    fn dequeue(&self) -> Option<u64> {
        self.repair_dead();
        let slot = self.my_announce(DEQ_ANNOUNCE);
        let mut backoff = Backoff::new(self.backoff);
        loop {
            let head = Tagged::from_raw(self.head.load());
            let next = self.arena.next(head.index());
            if next.is_null() {
                if self.tail.load() as u32 == head.index() {
                    // Tail still points at the dummy: genuinely empty.
                    return None;
                }
                // An enqueuer swapped Tail but has not linked yet — the
                // blocking wait that distinguishes this algorithm. Repair
                // mode checks for a death notice and repairs.
                self.repair_dead();
                backoff.spin(&self.platform);
                continue;
            }
            // Read the value before the CAS: after it, another dequeue may
            // free and reuse the node.
            let value = self.arena.value(next.index());
            if self
                .head
                .cas(head.raw(), head.with_index(next.index()).raw())
            {
                if let Some(slot) = slot {
                    slot.store(u64::from(head.index()) + 1);
                }
                // Head is swung but the old dummy is not yet recycled: a
                // death here strands one node and blocks nobody — the
                // dequeue side is survivable even though the enqueue side
                // (the torn-tail window above) is blocking.
                self.platform.fault_point("mc:deq:window");
                self.arena.free(head.index());
                if let Some(slot) = slot {
                    slot.store(0);
                }
                return Some(value);
            }
            backoff.spin(&self.platform);
        }
    }

    fn name(&self) -> &'static str {
        if M::REPAIR {
            "mellor-crummey-repair"
        } else {
            "mellor-crummey"
        }
    }

    fn is_nonblocking(&self) -> bool {
        false
    }
}

impl<P: Platform, M: RepairMode<P>> std::fmt::Debug for McQueue<P, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = if M::REPAIR { "Repairable" } else { "" };
        write!(f, "{mode}McQueue(capacity={})", self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::NativePlatform;

    /// The queue in plain mode, then in repair mode.
    fn both(capacity: u32) -> [Arc<dyn ConcurrentWordQueue>; 2] {
        let platform = NativePlatform::new();
        [
            Arc::new(McQueue::with_capacity(&platform, capacity)),
            Arc::new(RepairableMcQueue::new(&platform, capacity, None)),
        ]
    }

    #[test]
    fn fifo_order() {
        for q in both(16) {
            for i in 0..10 {
                q.enqueue(i + 100).unwrap();
            }
            for i in 0..10 {
                assert_eq!(q.dequeue(), Some(i + 100), "{}", q.name());
            }
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn empty_then_refill() {
        for q in both(4) {
            assert_eq!(q.dequeue(), None);
            q.enqueue(1).unwrap();
            q.enqueue(2).unwrap();
            assert_eq!(q.dequeue(), Some(1), "{}", q.name());
            assert_eq!(q.dequeue(), Some(2));
            assert_eq!(q.dequeue(), None);
            q.enqueue(3).unwrap();
            assert_eq!(q.dequeue(), Some(3));
        }
    }

    #[test]
    fn node_reuse_across_generations() {
        for q in both(2) {
            for i in 0..5_000 {
                q.enqueue(i).unwrap();
                assert_eq!(q.dequeue(), Some(i), "{}", q.name());
            }
        }
    }

    #[test]
    fn capacity_enforced() {
        for q in both(2) {
            q.enqueue(1).unwrap();
            q.enqueue(2).unwrap();
            assert_eq!(q.enqueue(3), Err(QueueFull(3)), "{}", q.name());
            assert_eq!(q.dequeue(), Some(1));
            assert_eq!(q.dequeue(), Some(2));
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn mpmc_stress_conserves_values() {
        for q in both(512) {
            let total = 4 * 4_000_u64;
            let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let got = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let mut handles = Vec::new();
            for t in 0..4_u64 {
                let q = Arc::clone(&q);
                handles.push(std::thread::spawn(move || {
                    for i in 0..4_000_u64 {
                        let v = t * 4_000 + i + 1;
                        while q.enqueue(v).is_err() {
                            std::thread::yield_now();
                        }
                    }
                }));
            }
            for _ in 0..3 {
                let q = Arc::clone(&q);
                let sum = Arc::clone(&sum);
                let got = Arc::clone(&got);
                handles.push(std::thread::spawn(move || {
                    while got.load(std::sync::atomic::Ordering::SeqCst) < total {
                        if let Some(v) = q.dequeue() {
                            sum.fetch_add(v, std::sync::atomic::Ordering::SeqCst);
                            got.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                sum.load(std::sync::atomic::Ordering::SeqCst),
                (1..=total).sum::<u64>(),
                "{}",
                q.name()
            );
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn works_under_simulation_with_preemption() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 3,
            processes_per_processor: 2,
            quantum_ns: 50_000,
            ..SimConfig::default()
        });
        let q = Arc::new(McQueue::with_capacity(&sim.platform(), 64));
        sim.run({
            let q = Arc::clone(&q);
            move |info| {
                for i in 0..60 {
                    q.enqueue((info.pid as u64) << 32 | i).unwrap();
                    // The dequeue may have to wait out a preempted
                    // enqueuer — that's the algorithm's defining hazard —
                    // but it must eventually succeed.
                    q.dequeue().expect("value available");
                }
            }
        });
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn reports_identity() {
        let [plain, repair] = both(1);
        assert_eq!(plain.name(), "mellor-crummey");
        assert_eq!(repair.name(), "mellor-crummey-repair");
        assert!(!plain.is_nonblocking(), "MC is lock-free but blocking");
        assert!(!repair.is_nonblocking());
    }

    /// The repair property for MC's torn-tail window: the dead
    /// enqueuer's link is completed by a waiting dequeuer (there is no
    /// lock — the repair is claimed through the announce cell).
    #[test]
    fn killed_mc_enqueuer_torn_tail_is_healed() {
        use msq_sim::{FaultPlan, SimConfig, Simulation};
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 3,
                watchdog_ns: 400_000_000,
                ..SimConfig::default()
            },
            FaultPlan::new().kill_at_label(0, "mc:enq:window", 2),
        );
        let platform = sim.platform();
        let q = Arc::new(RepairableMcQueue::new(&platform, 64, None));
        let report = sim.run({
            let q = Arc::clone(&q);
            move |info| {
                for i in 0..20u64 {
                    q.enqueue((info.pid as u64) << 32 | i).unwrap();
                    q.dequeue().expect("a value is always available");
                }
            }
        });
        assert_eq!(report.killed, vec![0]);
        assert!(report.blocked.is_empty(), "repair must beat the watchdog");
        assert_eq!(report.repairs.len(), 1);
        assert_eq!(report.repairs[0].point, "mc:repair:enq-complete");
        assert!(report.repairs[0].time_to_repair_ns() > 0);
        // The victim's announced enqueue was completed by the repair, so
        // exactly its in-flight value remains after the survivors' pairs.
        assert!(q.dequeue().is_some(), "the healed enqueue is dequeueable");
        assert_eq!(q.dequeue(), None);
    }
}
