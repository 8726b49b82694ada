//! Figure 2: the two-lock concurrent queue.

use std::sync::Arc;

use msq_arena::{MemBudget, NodeArena};
use msq_platform::{
    AtomicWord, BackoffConfig, ConcurrentWordQueue, Platform, QueueFull, NULL_INDEX,
};
use msq_sync::{Acquired, Plain, RawLock, Repair, RepairMode};

/// The Michael–Scott two-lock queue over a node arena.
///
/// Separate head and tail locks (test-and-test_and_set with bounded
/// exponential backoff, as in the paper's experiments) let one enqueue and
/// one dequeue proceed concurrently. The dummy node at the head means
/// enqueuers never touch `Head` and dequeuers never touch `Tail`, so the
/// locks are never taken in opposite orders and deadlock is impossible.
///
/// `Head`/`Tail` here are plain (untagged) words: they are only read and
/// written under their respective locks, so no ABA defence is needed.
///
/// In [`Repair`] mode ([`RepairableTwoLockQueue`]) both locks are
/// [`msq_sync::RevocableLock`]s and each critical section publishes an
/// intent cell (`node + 1` / `old_dummy + 1` while the protected update
/// may be torn, `0` otherwise). A waiter that revokes a lock from a dead
/// holder reads the matching intent and repairs the end it guards: the
/// tail end completes or discards the half-inserted node, the head end
/// completes or rolls back the half-finished dequeue. Like the operations
/// themselves, each repair only ever inspects its own end.
///
/// # Example
///
/// ```
/// use msq_core::WordTwoLockQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = WordTwoLockQueue::with_capacity(&NativePlatform::new(), 8);
/// queue.enqueue(1).unwrap();
/// assert_eq!(queue.dequeue(), Some(1));
/// ```
pub struct WordTwoLockQueue<P: Platform, M: RepairMode<P> = Plain> {
    head: P::Cell,
    tail: P::Cell,
    h_lock: M::Lock,
    t_lock: M::Lock,
    /// Repair mode's `[enqueue intent, dequeue intent]`, written only by
    /// the `t_lock` and `h_lock` holder respectively.
    intent: M::Cells,
    arena: NodeArena<P>,
    platform: P,
}

/// The two-lock queue in [`Repair`] mode: it survives a process killed
/// while holding either lock.
///
/// # Example
///
/// ```
/// use msq_core::RepairableTwoLockQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = RepairableTwoLockQueue::new(&NativePlatform::new(), 8, None);
/// queue.enqueue(1).unwrap();
/// assert_eq!(queue.dequeue(), Some(1));
/// ```
pub type RepairableTwoLockQueue<P> = WordTwoLockQueue<P, Repair>;

impl<P: Platform> WordTwoLockQueue<P> {
    /// Creates a queue able to hold `capacity` values simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity(platform: &P, capacity: u32) -> Self {
        Self::new(platform, capacity, None)
    }

    /// As [`WordTwoLockQueue::with_capacity`] with explicit lock backoff.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity_and_backoff(platform: &P, capacity: u32, backoff: BackoffConfig) -> Self {
        Self::build(platform, capacity, backoff, None)
    }

    /// As [`WordTwoLockQueue::with_capacity`], metering the node pool
    /// against `budget` (see [`WordTwoLockQueue::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity_and_budget(
        platform: &P,
        capacity: u32,
        budget: Arc<MemBudget<P>>,
    ) -> Self {
        Self::new(platform, capacity, Some(budget))
    }
}

impl<P: Platform, M: RepairMode<P>> WordTwoLockQueue<P, M> {
    /// Creates a queue in mode `M` able to hold `capacity` values
    /// simultaneously, metering the node pool (one unit per node,
    /// `capacity + 1` total for the dummy) against `budget`, if given,
    /// for the queue's lifetime.
    ///
    /// The pool is preallocated unconditionally — as in Figure 2 — so the
    /// reservation goes through [`MemBudget::force_reserve`]: a queue larger
    /// than the remaining budget shows up in [`MemBudget::overruns`] rather
    /// than failing construction. All units are credited back when the queue
    /// drops; a node discarded by repair goes back to the arena free list,
    /// so a repaired death never leaks one.
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
        let arena = match budget {
            Some(budget) => NodeArena::with_budget(platform, nodes, budget),
            None => NodeArena::new(platform, nodes),
        };
        // initialize(Q): one dummy node; Head and Tail point to it; locks free.
        let dummy = arena.alloc().expect("fresh arena");
        arena.set_next(dummy, NULL_INDEX);
        if M::REPAIR {
            // Touch the death board during untimed setup so its cell id
            // (and therefore every trace) is fixed before the run starts.
            let _ = platform.dead_peers();
        }
        WordTwoLockQueue {
            head: platform.alloc_cell(u64::from(dummy)),
            tail: platform.alloc_cell(u64::from(dummy)),
            h_lock: M::new_lock(platform, backoff),
            t_lock: M::new_lock(platform, backoff),
            intent: M::alloc_cells(platform, 2),
            arena,
            platform: platform.clone(),
        }
    }

    /// Maximum number of values the queue can hold.
    pub fn capacity(&self) -> u32 {
        self.arena.capacity() - 1
    }

    /// `node + 1` while an enqueue holds `t_lock` and its update may be
    /// torn; `0` otherwise.
    fn enq_intent(&self) -> &P::Cell {
        &M::cells(&self.intent)[0]
    }

    /// `old_dummy + 1` while a dequeue holds `h_lock` past its emptiness
    /// check; `0` otherwise.
    fn deq_intent(&self) -> &P::Cell {
        &M::cells(&self.intent)[1]
    }

    /// Repairs the tail end after revoking `t_lock` from dead `victim`:
    /// completes the enqueue if the link (or the tail swing) already
    /// landed, discards the node otherwise.
    fn repair_tail(&self, victim: usize) {
        // A repairer killed here leaves `repairing(dead)` in T_lock —
        // revocable by the same rule, so repair duty is never lost.
        self.platform.fault_point("two-lock:repair:window");
        let intent = self.enq_intent().load();
        let outcome = if intent != 0 {
            let node = (intent - 1) as u32;
            self.enq_intent().store(0);
            let tail = self.tail.load() as u32;
            if tail == node {
                "two-lock:repair:enq-complete"
            } else {
                let link = self.arena.next(tail);
                if !link.is_null() && link.index() == node {
                    // Linked but Tail not swung: finish the enqueue.
                    self.tail.store(u64::from(node));
                    "two-lock:repair:enq-complete"
                } else {
                    // Never linked: the enqueue did not happen.
                    self.arena.free(node);
                    "two-lock:repair:enq-discard"
                }
            }
        } else {
            "two-lock:repair:intact"
        };
        self.platform.mark_repaired(victim, outcome);
    }

    /// Repairs the head end after revoking `h_lock` from dead `victim`:
    /// frees the stranded dummy if the head already swung, rolls back
    /// otherwise.
    fn repair_head(&self, victim: usize) {
        // Same re-revocation story as `repair_tail`, for H_lock.
        self.platform.fault_point("two-lock:repair:window");
        let intent = self.deq_intent().load();
        let outcome = if intent != 0 {
            let node = (intent - 1) as u32;
            self.deq_intent().store(0);
            if self.head.load() as u32 == node {
                // Head never swung: the dequeue did not happen.
                "two-lock:repair:deq-rollback"
            } else {
                // Head swung but the victim died before recycling the
                // old dummy.
                self.arena.free(node);
                "two-lock:repair:deq-complete"
            }
        } else {
            "two-lock:repair:intact"
        };
        self.platform.mark_repaired(victim, outcome);
    }
}

impl<P: Platform, M: RepairMode<P>> ConcurrentWordQueue for WordTwoLockQueue<P, M> {
    fn enqueue(&self, value: u64) -> Result<(), QueueFull> {
        // Allocate and fill the node before taking the lock, as in Figure 2.
        let Some(node) = self.arena.alloc() else {
            return Err(QueueFull(value));
        };
        self.arena.set_value(node, value);
        self.arena.set_next(node, NULL_INDEX);
        // Acquire T_lock in order to access Tail.
        if let Acquired::Repairing { victim } = self.t_lock.lock(&self.platform) {
            self.repair_tail(victim);
        }
        if M::REPAIR {
            self.enq_intent().store(u64::from(node) + 1);
        }
        // Holding T_lock: a process halted or killed here blocks every
        // other enqueuer forever — the blocking behaviour Figures 4–5
        // punish, and what the fault suite asserts via the watchdog. In
        // repair mode it leaves a repairable intent record instead.
        self.platform.fault_point("two-lock:enq:locked");
        let tail = self.tail.load() as u32;
        // Link the node at the end of the list, then swing Tail to it.
        self.arena.set_next(tail, node);
        self.tail.store(u64::from(node));
        if M::REPAIR {
            self.enq_intent().store(0);
        }
        self.t_lock.unlock(&self.platform);
        Ok(())
    }

    fn dequeue(&self) -> Option<u64> {
        // Acquire H_lock in order to access Head.
        if let Acquired::Repairing { victim } = self.h_lock.lock(&self.platform) {
            self.repair_head(victim);
        }
        if !M::REPAIR {
            // Holding H_lock: death here blocks every other dequeuer.
            self.platform.fault_point("two-lock:deq:locked");
        }
        let node = self.head.load() as u32;
        let new_head = self.arena.next(node);
        if new_head.is_null() {
            // Queue is empty; release H_lock before returning.
            self.h_lock.unlock(&self.platform);
            return None;
        }
        if M::REPAIR {
            // The repair mode's window opens once the intent is public.
            self.deq_intent().store(u64::from(node) + 1);
            self.platform.fault_point("two-lock:deq:locked");
        }
        // Queue not empty: read the value before moving Head.
        let value = self.arena.value(new_head.index());
        self.head.store(u64::from(new_head.index()));
        if M::REPAIR {
            self.deq_intent().store(0);
        }
        self.h_lock.unlock(&self.platform);
        // Free the old dummy outside the critical section (Figure 2 frees
        // after unlock); safe because Head no longer reaches it and
        // enqueuers only dereference Tail, which never lags behind Head.
        self.arena.free(node);
        Some(value)
    }

    fn name(&self) -> &'static str {
        if M::REPAIR {
            "ms-two-lock-repair"
        } else {
            "ms-two-lock"
        }
    }

    fn is_nonblocking(&self) -> bool {
        false
    }
}

impl<P: Platform, M: RepairMode<P>> std::fmt::Debug for WordTwoLockQueue<P, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = if M::REPAIR { "Repairable" } else { "" };
        write!(f, "{mode}WordTwoLockQueue(capacity={})", self.capacity())
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
            Arc::new(WordTwoLockQueue::with_capacity(&platform, capacity)),
            Arc::new(RepairableTwoLockQueue::new(&platform, capacity, None)),
        ]
    }

    #[test]
    fn fifo_order_single_thread() {
        for q in both(16) {
            for i in 0..10 {
                q.enqueue(i * 3).unwrap();
            }
            for i in 0..10 {
                assert_eq!(q.dequeue(), Some(i * 3), "{}", q.name());
            }
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn full_queue_rejects_and_recovers() {
        for q in both(1) {
            q.enqueue(1).unwrap();
            assert_eq!(q.enqueue(2), Err(QueueFull(2)), "{}", q.name());
            assert_eq!(q.dequeue(), Some(1));
            q.enqueue(2).unwrap();
            assert_eq!(q.dequeue(), Some(2));
            assert_eq!(q.dequeue(), None);
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
    fn concurrent_enqueue_dequeue_conserve_values() {
        for q in both(512) {
            let mut handles = Vec::new();
            let total = Arc::new(std::sync::atomic::AtomicU64::new(0));
            for t in 0..3_u64 {
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
            let stop = Arc::new(std::sync::atomic::AtomicU64::new(0));
            for _ in 0..3 {
                let q = Arc::clone(&q);
                let total = Arc::clone(&total);
                let stop = Arc::clone(&stop);
                handles.push(std::thread::spawn(move || loop {
                    match q.dequeue() {
                        Some(v) => {
                            total.fetch_add(v, std::sync::atomic::Ordering::SeqCst);
                        }
                        None if stop.load(std::sync::atomic::Ordering::SeqCst) == 1 => break,
                        None => std::thread::yield_now(),
                    }
                }));
            }
            for h in handles.drain(..3) {
                h.join().unwrap();
            }
            // Producers done; let consumers drain then stop. The probe
            // itself may win values off the queue — count them like any
            // consumer.
            loop {
                std::thread::sleep(std::time::Duration::from_millis(10));
                match q.dequeue() {
                    Some(v) => {
                        total.fetch_add(v, std::sync::atomic::Ordering::SeqCst);
                    }
                    None => break,
                }
            }
            stop.store(1, std::sync::atomic::Ordering::SeqCst);
            for h in handles {
                h.join().unwrap();
            }
            let expected: u64 = (1..=12_000_u64).sum();
            assert_eq!(
                total.load(std::sync::atomic::Ordering::SeqCst),
                expected,
                "{}",
                q.name()
            );
        }
    }

    #[test]
    fn works_under_simulation() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 4,
            processes_per_processor: 2,
            quantum_ns: 200_000,
            ..SimConfig::default()
        });
        let q = Arc::new(WordTwoLockQueue::with_capacity(&sim.platform(), 64));
        sim.run({
            let q = Arc::clone(&q);
            move |info| {
                for i in 0..50 {
                    q.enqueue((info.pid as u64) << 32 | i).unwrap();
                    q.dequeue().expect("an item is always available");
                }
            }
        });
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn reports_identity() {
        let [plain, repair] = both(1);
        assert_eq!(plain.name(), "ms-two-lock");
        assert_eq!(repair.name(), "ms-two-lock-repair");
        assert!(!plain.is_nonblocking());
        assert!(!repair.is_nonblocking());
    }

    /// A dequeuer killed while holding `H_lock` is dispossessed by the
    /// next dequeuer, which repairs the head end and proceeds — the
    /// scenario the plain two-lock queue can only watchdog.
    #[test]
    fn killed_dequeuer_holding_h_lock_is_repaired() {
        use msq_sim::{FaultPlan, SimConfig, Simulation};
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 3,
                watchdog_ns: 400_000_000,
                ..SimConfig::default()
            },
            FaultPlan::new().kill_at_label(0, "two-lock:deq:locked", 1),
        );
        let platform = sim.platform();
        let q = Arc::new(RepairableTwoLockQueue::new(&platform, 64, None));
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
        assert!(report.repairs[0].point.starts_with("two-lock:repair:deq-"));
        assert!(report.repairs[0].time_to_repair_ns() > 0);
    }
}
