//! Figure 1: the non-blocking concurrent queue.

use std::sync::Arc;

use msq_arena::{MemBudget, NodeArena};
use msq_platform::{
    AtomicWord, Backoff, BackoffConfig, ConcurrentWordQueue, Platform, QueueFull, Tagged,
    NULL_INDEX,
};

/// The Michael–Scott non-blocking queue over a node arena.
///
/// Structure and operations follow the paper's Figure 1; the `E*`/`D*`
/// comments below are its line numbers. `Head` always points at a dummy
/// node; `Tail` points at the last or second-to-last node. All three
/// shared-pointer kinds (`Head`, `Tail`, per-node `next`) are [`Tagged`]
/// words whose modification counters defeat the ABA problem across node
/// reuse, and the dequeue protocol guarantees `Tail` never points at a
/// reclaimed node, so dequeued nodes go straight back to the free list.
///
/// # Example
///
/// ```
/// use msq_core::WordMsQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = WordMsQueue::with_capacity(&NativePlatform::new(), 128);
/// queue.enqueue(7).unwrap();
/// queue.enqueue(8).unwrap();
/// assert_eq!(queue.dequeue(), Some(7));
/// assert_eq!(queue.dequeue(), Some(8));
/// assert_eq!(queue.dequeue(), None);
/// ```
pub struct WordMsQueue<P: Platform> {
    head: P::Cell,
    tail: P::Cell,
    arena: NodeArena<P>,
    platform: P,
    backoff: BackoffConfig,
}

impl<P: Platform> WordMsQueue<P> {
    /// Creates a queue able to hold `capacity` values simultaneously
    /// (one extra node is reserved for the dummy).
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity(platform: &P, capacity: u32) -> Self {
        Self::new(platform, capacity, None)
    }

    /// As [`WordMsQueue::with_capacity`] with explicit backoff parameters
    /// (the ablation benches pass [`BackoffConfig::DISABLED`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity_and_backoff(platform: &P, capacity: u32, backoff: BackoffConfig) -> Self {
        Self::build(platform, capacity, backoff, None)
    }

    /// Creates a queue able to hold `capacity` values simultaneously,
    /// metering the node pool (one unit per node, `capacity + 1` total for
    /// the dummy) against `budget`, if given, for the queue's lifetime.
    ///
    /// The pool is preallocated unconditionally — as in Figure 1 — so the
    /// reservation goes through [`MemBudget::force_reserve`]: a
    /// queue larger than the remaining budget shows up in
    /// [`MemBudget::overruns`] rather than failing construction.
    /// All units are credited back when the queue drops.
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
        let arena = NodeArena::new(
            platform,
            capacity.checked_add(1).expect("capacity overflow"),
            budget,
        );
        // initialize(Q): allocate a dummy node, the only node in the list;
        // both Head and Tail point to it.
        let dummy = arena.alloc().expect("fresh arena");
        arena.set_next(dummy, NULL_INDEX);
        let head = platform.alloc_cell(Tagged::new(dummy, 0).raw());
        let tail = platform.alloc_cell(Tagged::new(dummy, 0).raw());
        WordMsQueue {
            head,
            tail,
            arena,
            platform: platform.clone(),
            backoff,
        }
    }

    /// Maximum number of values the queue can hold.
    pub fn capacity(&self) -> u32 {
        self.arena.capacity() - 1
    }
}

impl<P: Platform> ConcurrentWordQueue for WordMsQueue<P> {
    fn enqueue(&self, value: u64) -> Result<(), QueueFull> {
        // E1: allocate a node from the free list.
        let Some(node) = self.arena.alloc() else {
            return Err(QueueFull(value));
        };
        // E2–E3: copy the value in; next := NULL.
        self.arena.set_value(node, value);
        self.arena.set_next(node, NULL_INDEX);
        let mut backoff = Backoff::new(self.backoff);
        // E4: keep trying until the enqueue is done.
        loop {
            // E5–E6: read Tail and Tail.ptr->next (each with its counter).
            let tail = Tagged::from_raw(self.tail.load());
            let next = self.arena.next(tail.index());
            // E7: are tail and next consistent?
            if self.tail.load() != tail.raw() {
                continue;
            }
            // E8: was Tail pointing to the last node?
            if next.is_null() {
                // E9: try to link the node at the end of the list.
                if self.arena.cas_next(tail.index(), next, node) {
                    // The paper's critical window: the node is linked (the
                    // enqueue has linearized) but Tail still lags. A process
                    // halted — or killed — here must not block anyone: E12/D9
                    // let every other process swing Tail on its behalf.
                    self.platform.fault_point("msq:enq:window");
                    // E13: enqueue done; try to swing Tail to the node.
                    self.tail.cas(tail.raw(), tail.with_index(node).raw());
                    return Ok(());
                }
                // E9 failed: another process enqueued first.
                backoff.spin(&self.platform);
            } else {
                // E12: Tail was lagging; try to swing it to the next node.
                self.tail
                    .cas(tail.raw(), tail.with_index(next.index()).raw());
            }
        }
    }

    fn dequeue(&self) -> Option<u64> {
        let mut backoff = Backoff::new(self.backoff);
        // D1: keep trying until the dequeue is done.
        loop {
            // D2–D4: read Head, Tail, and Head.ptr->next.
            let head = Tagged::from_raw(self.head.load());
            let tail = Tagged::from_raw(self.tail.load());
            let next = self.arena.next(head.index());
            // D5: are head, tail, and next consistent?
            if self.head.load() != head.raw() {
                continue;
            }
            // D6: is the queue empty, or Tail falling behind?
            if head.index() == tail.index() {
                // D7: is the queue empty?
                if next.is_null() {
                    // D8: yes — nothing to dequeue.
                    return None;
                }
                // D9: Tail is falling behind; try to advance it.
                self.tail
                    .cas(tail.raw(), tail.with_index(next.index()).raw());
            } else {
                // D11: read the value BEFORE the CAS — afterwards another
                // dequeue may free the node and a new enqueue overwrite it.
                let value = self.arena.value(next.index());
                // D12: try to swing Head to the next node.
                if self
                    .head
                    .cas(head.raw(), head.with_index(next.index()).raw())
                {
                    // Dequeue linearized; the old dummy is not yet freed. A
                    // death here leaks one arena node but blocks nobody.
                    self.platform.fault_point("msq:deq:window");
                    // D14: it is now safe to free the old dummy node.
                    self.arena.free(head.index());
                    // D15: dequeue succeeded.
                    return Some(value);
                }
                backoff.spin(&self.platform);
            }
        }
    }

    fn name(&self) -> &'static str {
        "ms-nonblocking"
    }

    fn is_nonblocking(&self) -> bool {
        true
    }
}

impl<P: Platform> std::fmt::Debug for WordMsQueue<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WordMsQueue(capacity={})", self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::NativePlatform;
    use std::sync::Arc;

    fn queue(capacity: u32) -> WordMsQueue<NativePlatform> {
        WordMsQueue::with_capacity(&NativePlatform::new(), capacity)
    }

    #[test]
    fn fifo_order_single_thread() {
        let q = queue(16);
        for i in 0..10 {
            q.enqueue(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn empty_queue_dequeues_none() {
        let q = queue(4);
        assert_eq!(q.dequeue(), None);
        assert_eq!(q.dequeue(), None, "repeatable");
    }

    #[test]
    fn interleaved_enqueue_dequeue() {
        let q = queue(4);
        q.enqueue(1).unwrap();
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), None);
        q.enqueue(2).unwrap();
        q.enqueue(3).unwrap();
        assert_eq!(q.dequeue(), Some(2));
        q.enqueue(4).unwrap();
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), Some(4));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn full_queue_rejects_and_recovers() {
        let q = queue(2);
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        assert_eq!(q.enqueue(3), Err(QueueFull(3)));
        assert_eq!(q.dequeue(), Some(1));
        q.enqueue(3).unwrap();
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
    }

    #[test]
    fn nodes_are_recycled_through_many_generations() {
        // 10k ops through a 2-node pool: counters must keep reuse safe.
        let q = queue(2);
        for i in 0..10_000 {
            q.enqueue(i).unwrap();
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn mpmc_stress_conserves_values() {
        let q = Arc::new(queue(256));
        let produced: u64 = 4 * 5_000;
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let taken = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..4_u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000_u64 {
                    let v = t * 5_000 + i + 1;
                    loop {
                        if q.enqueue(v).is_ok() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for _ in 0..4 {
            let q = Arc::clone(&q);
            let sum = Arc::clone(&sum);
            let taken = Arc::clone(&taken);
            handles.push(std::thread::spawn(move || {
                while taken.load(std::sync::atomic::Ordering::SeqCst) < produced {
                    if let Some(v) = q.dequeue() {
                        sum.fetch_add(v, std::sync::atomic::Ordering::SeqCst);
                        taken.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let expected: u64 = (1..=produced).sum();
        assert_eq!(sum.load(std::sync::atomic::Ordering::SeqCst), expected);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn per_producer_order_is_preserved() {
        // All 3 x 2000 items live in the queue at once before draining.
        let q = Arc::new(queue(6_000));
        let mut handles = Vec::new();
        for t in 0..3_u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000_u64 {
                    q.enqueue((t << 32) | i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut last = [None::<u64>; 3];
        while let Some(v) = q.dequeue() {
            let producer = (v >> 32) as usize;
            let seq = v & 0xffff_ffff;
            if let Some(prev) = last[producer] {
                assert!(seq > prev, "producer {producer} out of order");
            }
            last[producer] = Some(seq);
        }
        assert_eq!(last, [Some(1999), Some(1999), Some(1999)]);
    }

    #[test]
    fn works_under_simulation_with_preemption() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 3,
            processes_per_processor: 2,
            quantum_ns: 100_000,
            ..SimConfig::default()
        });
        let q = Arc::new(WordMsQueue::with_capacity(&sim.platform(), 64));
        let report = sim.run({
            let q = Arc::clone(&q);
            move |info| {
                for i in 0..100 {
                    let v = (info.pid as u64) << 32 | i;
                    q.enqueue(v).unwrap();
                    q.dequeue().expect("an item is always available");
                }
            }
        });
        assert_eq!(q.dequeue(), None);
        assert!(report.total_ops > 0);
    }

    #[test]
    fn reports_identity() {
        let q = queue(1);
        assert_eq!(q.name(), "ms-nonblocking");
        assert!(q.is_nonblocking());
        assert_eq!(q.capacity(), 1);
    }
}
