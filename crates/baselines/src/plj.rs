//! The Prakash–Lee–Johnson non-blocking queue (IEEE ToC 1994) —
//! reconstructed.
//!
//! PLJ was "the best of the known non-blocking alternatives" in the
//! paper's evaluation. Its published algorithm requires operations to take
//! a **snapshot** of the queue to determine its state before updating it,
//! and achieves the non-blocking property by letting faster processes
//! *complete the operations of slower ones* (helping). Michael & Scott
//! contrast their own validation ("we need to check only one shared
//! variable rather than two") with PLJ's heavier two-variable snapshot.
//!
//! This reconstruction preserves those load-bearing characteristics:
//!
//! * each operation reads **both** `Head` and `Tail` (plus the relevant
//!   `next` link) and revalidates **both** before acting — two extra shared
//!   reads per operation relative to the MS queue, which is what costs PLJ
//!   its constant factor in Figure 3;
//! * a half-finished enqueue (node linked, `Tail` not yet swung) is
//!   completed by whichever process observes it, in both enqueue and
//!   dequeue — so no stalled process can block others (non-blocking);
//! * counted pointers defeat ABA, and nodes recycle through the shared
//!   free list.

use std::sync::Arc;

use msq_arena::{MemBudget, NodeArena};
use msq_platform::{
    AtomicWord, Backoff, BackoffConfig, ConcurrentWordQueue, Platform, QueueFull, Tagged,
    NULL_INDEX,
};

/// The Prakash–Lee–Johnson snapshot-based non-blocking queue.
///
/// # Example
///
/// ```
/// use msq_baselines::PljQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = PljQueue::with_capacity(&NativePlatform::new(), 8);
/// queue.enqueue(21).unwrap();
/// assert_eq!(queue.dequeue(), Some(21));
/// assert_eq!(queue.dequeue(), None);
/// ```
pub struct PljQueue<P: Platform> {
    head: P::Cell,
    tail: P::Cell,
    arena: NodeArena<P>,
    platform: P,
    backoff: BackoffConfig,
}

impl<P: Platform> PljQueue<P> {
    /// Creates a queue able to hold `capacity` values simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity(platform: &P, capacity: u32) -> Self {
        Self::new(platform, capacity, None)
    }

    /// As [`PljQueue::with_capacity`] with explicit backoff parameters.
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
    /// The pool is force-reserved — an over-budget queue surfaces in
    /// [`MemBudget::overruns`], not as a construction failure.
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
        let dummy = arena.alloc().expect("fresh arena");
        arena.set_next(dummy, NULL_INDEX);
        PljQueue {
            head: platform.alloc_cell(Tagged::new(dummy, 0).raw()),
            tail: platform.alloc_cell(Tagged::new(dummy, 0).raw()),
            arena,
            platform: platform.clone(),
            backoff,
        }
    }

    /// Maximum number of values the queue can hold.
    pub fn capacity(&self) -> u32 {
        self.arena.capacity() - 1
    }

    /// Takes a consistent snapshot of `(head, tail, tail->next)`, retrying
    /// until neither anchor moved while it was read.
    fn snapshot(&self) -> (Tagged, Tagged, Tagged) {
        loop {
            let head = Tagged::from_raw(self.head.load());
            let tail = Tagged::from_raw(self.tail.load());
            let next = self.arena.next(tail.index());
            if self.tail.load() != tail.raw() {
                continue;
            }
            if self.head.load() != head.raw() {
                continue;
            }
            return (head, tail, next);
        }
    }

    /// Completes a half-finished enqueue observed in a snapshot (the
    /// helping rule): swings `Tail` over the already-linked node.
    fn help_finish_enqueue(&self, tail: Tagged, next: Tagged) {
        debug_assert!(!next.is_null());
        self.tail
            .cas(tail.raw(), tail.with_index(next.index()).raw());
    }
}

impl<P: Platform> ConcurrentWordQueue for PljQueue<P> {
    fn enqueue(&self, value: u64) -> Result<(), QueueFull> {
        let Some(node) = self.arena.alloc() else {
            return Err(QueueFull(value));
        };
        self.arena.set_value(node, value);
        self.arena.set_next(node, NULL_INDEX);
        let mut backoff = Backoff::new(self.backoff);
        loop {
            let (_head, tail, next) = self.snapshot();
            if !next.is_null() {
                // Another enqueue is half done: complete it, then retry.
                self.help_finish_enqueue(tail, next);
                continue;
            }
            if self.arena.cas_next(tail.index(), next, node) {
                // Linked but Tail not yet swung: the snapshot's helping
                // rule lets any other process finish this enqueue, so a
                // process halted or killed here blocks nobody.
                self.platform.fault_point("plj:enq:window");
                // Linked; complete our own enqueue (any helper may already
                // have done so).
                self.tail.cas(tail.raw(), tail.with_index(node).raw());
                return Ok(());
            }
            backoff.spin(&self.platform);
        }
    }

    fn dequeue(&self) -> Option<u64> {
        let mut backoff = Backoff::new(self.backoff);
        loop {
            let (head, tail, tail_next) = self.snapshot();
            if head.index() == tail.index() {
                if tail_next.is_null() {
                    return None;
                }
                // Queue momentarily looks empty only because an enqueue is
                // half done: help it and retry.
                self.help_finish_enqueue(tail, tail_next);
                continue;
            }
            let next = self.arena.next(head.index());
            // Revalidate the snapshot against the link we just read.
            if self.head.load() != head.raw() {
                continue;
            }
            debug_assert!(!next.is_null(), "head != tail implies a successor");
            let value = self.arena.value(next.index());
            if self
                .head
                .cas(head.raw(), head.with_index(next.index()).raw())
            {
                // Head is swung but the old dummy is not yet freed: a
                // death here strands one node and blocks nobody — the
                // snapshot protocol never waits on a dequeuer.
                self.platform.fault_point("plj:deq:window");
                self.arena.free(head.index());
                return Some(value);
            }
            backoff.spin(&self.platform);
        }
    }

    fn name(&self) -> &'static str {
        "prakash-lee-johnson"
    }

    fn is_nonblocking(&self) -> bool {
        true
    }
}

impl<P: Platform> std::fmt::Debug for PljQueue<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PljQueue(capacity={})", self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::NativePlatform;
    use std::sync::Arc;

    fn queue(capacity: u32) -> PljQueue<NativePlatform> {
        PljQueue::with_capacity(&NativePlatform::new(), capacity)
    }

    #[test]
    fn fifo_order() {
        let q = queue(16);
        for i in 0..12 {
            q.enqueue(i * 2).unwrap();
        }
        for i in 0..12 {
            assert_eq!(q.dequeue(), Some(i * 2));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn empty_and_single_element_transitions() {
        let q = queue(4);
        assert_eq!(q.dequeue(), None);
        q.enqueue(1).unwrap();
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), None);
        q.enqueue(2).unwrap();
        q.enqueue(3).unwrap();
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
    }

    #[test]
    fn node_reuse_across_generations() {
        let q = queue(2);
        for i in 0..5_000 {
            q.enqueue(i).unwrap();
            assert_eq!(q.dequeue(), Some(i));
        }
    }

    #[test]
    fn capacity_enforced() {
        let q = queue(1);
        q.enqueue(1).unwrap();
        assert_eq!(q.enqueue(2), Err(QueueFull(2)));
    }

    #[test]
    fn mpmc_stress_conserves_values() {
        let q = Arc::new(queue(512));
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
            (1..=total).sum::<u64>()
        );
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn per_producer_order_preserved() {
        let q = Arc::new(queue(8_192));
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
                assert!(seq > prev, "producer {producer} reordered");
            }
            last[producer] = Some(seq);
        }
    }

    #[test]
    fn works_under_simulation_with_preemption() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 3,
            processes_per_processor: 2,
            quantum_ns: 80_000,
            ..SimConfig::default()
        });
        let q = Arc::new(PljQueue::with_capacity(&sim.platform(), 64));
        sim.run({
            let q = Arc::clone(&q);
            move |info| {
                for i in 0..60 {
                    q.enqueue((info.pid as u64) << 32 | i).unwrap();
                    q.dequeue().expect("value available");
                }
            }
        });
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn reports_identity() {
        let q = queue(1);
        assert_eq!(q.name(), "prakash-lee-johnson");
        assert!(q.is_nonblocking());
    }
}
