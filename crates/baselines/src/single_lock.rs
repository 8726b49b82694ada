//! The single-lock queue: the baseline every experiment includes.

use std::sync::Arc;

use msq_arena::{MemBudget, NodeArena};
use msq_platform::{
    AtomicWord, BackoffConfig, ConcurrentWordQueue, Platform, QueueFull, NULL_INDEX,
};
use msq_sync::{Acquired, Plain, RawLock, Repair, RepairMode};

/// A linked-list FIFO queue protected by one test-and-test_and_set lock
/// (with bounded exponential backoff, as in the paper's experiments).
///
/// Head and tail operations serialize completely — the queue the paper
/// calls "a straightforward single-lock queue", which wins at one or two
/// processors (lowest constant overhead) and collapses under contention
/// and multiprogramming.
///
/// In [`Repair`] mode ([`RepairableSingleLockQueue`]) the lock is a
/// [`msq_sync::RevocableLock`], and the lock holder publishes an
/// **intent cell** inside the critical section: `node + 1` while an
/// enqueue (or the old dummy while a dequeue) is in flight, `0`
/// otherwise. A waiter that revokes the lock from a dead holder reads the
/// intent and either *completes* the half-done operation (the link or
/// head swing already landed) or *discards* it (frees the half-inserted
/// node back to the arena).
///
/// # Example
///
/// ```
/// use msq_baselines::SingleLockQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = SingleLockQueue::with_capacity(&NativePlatform::new(), 8);
/// queue.enqueue(5).unwrap();
/// assert_eq!(queue.dequeue(), Some(5));
/// ```
pub struct SingleLockQueue<P: Platform, M: RepairMode<P> = Plain> {
    head: P::Cell,
    tail: P::Cell,
    lock: M::Lock,
    /// Repair mode's `[enqueue intent, dequeue intent]`; only the lock
    /// holder writes them.
    intent: M::Cells,
    arena: NodeArena<P>,
    platform: P,
}

/// The single-lock queue in [`Repair`] mode: it survives a process
/// killed while holding the lock.
///
/// # Example
///
/// ```
/// use msq_baselines::RepairableSingleLockQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = RepairableSingleLockQueue::new(&NativePlatform::new(), 8, None);
/// queue.enqueue(5).unwrap();
/// assert_eq!(queue.dequeue(), Some(5));
/// ```
pub type RepairableSingleLockQueue<P> = SingleLockQueue<P, Repair>;

impl<P: Platform> SingleLockQueue<P> {
    /// Creates a queue able to hold `capacity` values simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity(platform: &P, capacity: u32) -> Self {
        Self::new(platform, capacity, None)
    }

    /// As [`SingleLockQueue::with_capacity`] with explicit lock backoff.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity_and_backoff(platform: &P, capacity: u32, backoff: BackoffConfig) -> Self {
        Self::build(platform, capacity, backoff, None)
    }
}

impl<P: Platform, M: RepairMode<P>> SingleLockQueue<P, M> {
    /// Creates a queue in mode `M` able to hold `capacity` values
    /// simultaneously, metering the node pool (one unit per node,
    /// `capacity + 1` total for the dummy) against `budget`, if given,
    /// for the queue's lifetime. The pool is force-reserved — an
    /// over-budget queue surfaces in [`MemBudget::overruns`], not as a
    /// construction failure. A node discarded by repair goes back to the
    /// arena free list, so repair never leaks a reservation.
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
            // Touch the death board during untimed setup so its cell id
            // (and therefore every trace) is fixed before the run starts.
            let _ = platform.dead_peers();
        }
        SingleLockQueue {
            head: platform.alloc_cell(u64::from(dummy)),
            tail: platform.alloc_cell(u64::from(dummy)),
            lock: M::new_lock(platform, backoff),
            intent: M::alloc_cells(platform, 2),
            arena,
            platform: platform.clone(),
        }
    }

    /// Maximum number of values the queue can hold.
    pub fn capacity(&self) -> u32 {
        self.arena.capacity() - 1
    }

    /// `node + 1` while an enqueue is inside the critical section and its
    /// effect may be torn; `0` otherwise.
    fn enq_intent(&self) -> &P::Cell {
        &M::cells(&self.intent)[0]
    }

    /// `old_dummy + 1` while a dequeue is past its emptiness check; `0`
    /// otherwise.
    fn deq_intent(&self) -> &P::Cell {
        &M::cells(&self.intent)[1]
    }

    /// Repairs the torn critical section of dead process `victim`, from
    /// whom the caller just revoked the lock. Reads the intent cells to
    /// learn what was in flight, then completes or rolls back:
    ///
    /// | intent | structure state | action | outcome |
    /// |---|---|---|---|
    /// | enqueue of `n` | `Tail == n` | nothing torn | `enq-complete` |
    /// | enqueue of `n` | `next(Tail) == n` | swing `Tail` to `n` | `enq-complete` |
    /// | enqueue of `n` | `n` unlinked | free `n` | `enq-discard` |
    /// | dequeue of `d` | `Head == d` | nothing happened | `deq-rollback` |
    /// | dequeue of `d` | `Head` moved past `d` | free `d` | `deq-complete` |
    /// | none | invariant intact | nothing | `intact` |
    fn repair(&self, victim: usize) {
        // A repairer killed here leaves `repairing(dead)` in the lock
        // word — revocable by the same rule, so the next waiter
        // re-revokes and inherits the repair duty (the fault sweep in
        // `tests/fault_injection.rs` drives exactly that chain).
        self.platform.fault_point("single-lock:repair:window");
        let outcome = self.repair_torn_state();
        self.platform.mark_repaired(victim, outcome);
    }

    fn repair_torn_state(&self) -> &'static str {
        let intent = self.enq_intent().load();
        if intent != 0 {
            let node = (intent - 1) as u32;
            self.enq_intent().store(0);
            let tail = self.tail.load() as u32;
            if tail == node {
                // The victim finished everything but the intent clear.
                return "single-lock:repair:enq-complete";
            }
            let link = self.arena.next(tail);
            if !link.is_null() && link.index() == node {
                // Linked but Tail not swung: finish the enqueue. The
                // victim's operation took effect — count it linearized.
                self.tail.store(u64::from(node));
                return "single-lock:repair:enq-complete";
            }
            // Never linked: the enqueue did not happen. Discard the node
            // so its arena unit (and any memory-budget reservation it
            // backs) is not leaked.
            self.arena.free(node);
            return "single-lock:repair:enq-discard";
        }
        let intent = self.deq_intent().load();
        if intent != 0 {
            let node = (intent - 1) as u32;
            self.deq_intent().store(0);
            if self.head.load() as u32 == node {
                // Head never swung: the dequeue did not happen.
                return "single-lock:repair:deq-rollback";
            }
            // Head swung but the victim died before recycling the old
            // dummy: free it.
            self.arena.free(node);
            return "single-lock:repair:deq-complete";
        }
        // Died between acquiring the lock and publishing intent (or after
        // clearing it): the invariant is intact.
        "single-lock:repair:intact"
    }
}

impl<P: Platform, M: RepairMode<P>> ConcurrentWordQueue for SingleLockQueue<P, M> {
    fn enqueue(&self, value: u64) -> Result<(), QueueFull> {
        let Some(node) = self.arena.alloc() else {
            return Err(QueueFull(value));
        };
        self.arena.set_value(node, value);
        self.arena.set_next(node, NULL_INDEX);
        if let Acquired::Repairing { victim } = self.lock.lock(&self.platform) {
            self.repair(victim);
        }
        if M::REPAIR {
            self.enq_intent().store(u64::from(node) + 1);
        }
        // Holding the only lock: a process halted or killed here blocks
        // the entire queue — the behaviour the fault suite's watchdog
        // detects and asserts for the blocking baselines. In repair mode
        // it leaves a repairable intent record instead.
        self.platform.fault_point("single-lock:enq:locked");
        let tail = self.tail.load() as u32;
        self.arena.set_next(tail, node);
        self.tail.store(u64::from(node));
        if M::REPAIR {
            self.enq_intent().store(0);
        }
        self.lock.unlock(&self.platform);
        Ok(())
    }

    fn dequeue(&self) -> Option<u64> {
        if let Acquired::Repairing { victim } = self.lock.lock(&self.platform) {
            self.repair(victim);
        }
        if !M::REPAIR {
            // Death while holding the lock blocks every other process.
            self.platform.fault_point("single-lock:deq:locked");
        }
        let node = self.head.load() as u32;
        let next = self.arena.next(node);
        if next.is_null() {
            self.lock.unlock(&self.platform);
            return None;
        }
        if M::REPAIR {
            // The repair mode's window opens once the intent is public.
            self.deq_intent().store(u64::from(node) + 1);
            self.platform.fault_point("single-lock:deq:locked");
        }
        let value = self.arena.value(next.index());
        self.head.store(u64::from(next.index()));
        if M::REPAIR {
            self.deq_intent().store(0);
        }
        self.lock.unlock(&self.platform);
        self.arena.free(node);
        Some(value)
    }

    fn name(&self) -> &'static str {
        if M::REPAIR {
            "single-lock-repair"
        } else {
            "single-lock"
        }
    }

    fn is_nonblocking(&self) -> bool {
        false
    }
}

impl<P: Platform, M: RepairMode<P>> std::fmt::Debug for SingleLockQueue<P, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = if M::REPAIR { "Repairable" } else { "" };
        write!(f, "{mode}SingleLockQueue(capacity={})", self.capacity())
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
            Arc::new(SingleLockQueue::with_capacity(&platform, capacity)),
            Arc::new(RepairableSingleLockQueue::new(&platform, capacity, None)),
        ]
    }

    #[test]
    fn fifo_order() {
        for q in both(16) {
            for i in 0..10 {
                q.enqueue(i).unwrap();
            }
            for i in 0..10 {
                assert_eq!(q.dequeue(), Some(i), "{}", q.name());
            }
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn capacity_is_enforced_and_recovers() {
        for q in both(1) {
            q.enqueue(9).unwrap();
            assert_eq!(q.enqueue(10), Err(QueueFull(10)), "{}", q.name());
            assert_eq!(q.dequeue(), Some(9));
            q.enqueue(10).unwrap();
            assert_eq!(q.dequeue(), Some(10));
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn concurrent_conservation() {
        for q in both(256) {
            let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let got = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let total = 4 * 3_000_u64;
            let mut handles = Vec::new();
            for t in 0..4_u64 {
                let q = Arc::clone(&q);
                handles.push(std::thread::spawn(move || {
                    for i in 0..3_000_u64 {
                        let v = t * 3_000 + i + 1;
                        while q.enqueue(v).is_err() {
                            std::thread::yield_now();
                        }
                    }
                }));
            }
            for _ in 0..2 {
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
        }
    }

    #[test]
    fn works_under_simulation() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 2,
            processes_per_processor: 2,
            quantum_ns: 100_000,
            ..SimConfig::default()
        });
        let q = Arc::new(SingleLockQueue::with_capacity(&sim.platform(), 32));
        sim.run({
            let q = Arc::clone(&q);
            move |info| {
                for i in 0..40 {
                    q.enqueue((info.pid as u64) << 32 | i).unwrap();
                    q.dequeue().expect("never empty after own enqueue");
                }
            }
        });
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn reports_identity() {
        let [plain, repair] = both(1);
        assert_eq!(plain.name(), "single-lock");
        assert_eq!(repair.name(), "single-lock-repair");
        assert!(!plain.is_nonblocking());
        assert!(!repair.is_nonblocking());
    }

    /// The headline repair property at the queue level: a process
    /// killed while holding the (single) queue lock is dispossessed by a
    /// survivor, the half-done enqueue is repaired, and the queue keeps
    /// serving — no watchdog retirement, conservation intact.
    #[test]
    fn killed_enqueuer_is_repaired_and_survivors_proceed() {
        use msq_sim::{FaultPlan, SimConfig, Simulation};
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 3,
                watchdog_ns: 400_000_000,
                ..SimConfig::default()
            },
            FaultPlan::new().kill_at_label(0, "single-lock:enq:locked", 2),
        );
        let platform = sim.platform();
        let q = Arc::new(RepairableSingleLockQueue::new(&platform, 64, None));
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
        assert_eq!(report.repairs[0].victim, 0);
        assert!(report.repairs[0].point.starts_with("single-lock:repair:"));
        assert!(report.repairs[0].time_to_repair_ns() > 0);
        // Survivors completed all their pairs; at most the victim's
        // in-flight value remains (completed repair) or none (discard).
        let mut rest = 0;
        while q.dequeue().is_some() {
            rest += 1;
        }
        assert!(rest <= 1, "at most the victim's in-flight enqueue remains");
    }
}
