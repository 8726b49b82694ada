//! Valois's non-blocking queue (1994) over the corrected reference-count
//! manager.
//!
//! Valois keeps a dummy node like the MS queue, but allows `Tail` to lag
//! arbitrarily — even behind `Head` — which is why dequeued nodes cannot be
//! freed directly and every pointer acquisition goes through the counted
//! `safe_read` protocol of [`msq_arena::RcArena`]. The costs the paper
//! measures are faithfully present here: two extra atomic read-modify-
//! writes (increment + decrement) per pointer traversal, and the
//! characteristic failure mode that a delayed process holding one node
//! pins that node *and all its successors*, so "no finite memory can
//! guarantee to satisfy the memory requirements of the algorithm all the
//! time".

use std::sync::Arc;

use msq_arena::{MemBudget, RcArena};
use msq_platform::{
    AtomicWord, Backoff, BackoffConfig, ConcurrentWordQueue, Platform, QueueFull, Tagged,
    NULL_INDEX,
};

/// Valois's reference-counted non-blocking queue.
///
/// # Example
///
/// ```
/// use msq_baselines::ValoisQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = ValoisQueue::with_capacity(&NativePlatform::new(), 8);
/// queue.enqueue(9).unwrap();
/// assert_eq!(queue.dequeue(), Some(9));
/// ```
pub struct ValoisQueue<P: Platform> {
    head: P::Cell,
    tail: P::Cell,
    rc: RcArena<P>,
    platform: P,
    backoff: BackoffConfig,
}

impl<P: Platform> ValoisQueue<P> {
    /// Creates a queue with a pool of `capacity + 1` reference-counted
    /// nodes. Note that unlike the other queues, exhaustion does **not**
    /// imply `capacity` values are enqueued — pinned chains of dequeued
    /// nodes also consume the pool (the algorithm's documented flaw).
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity(platform: &P, capacity: u32) -> Self {
        Self::new(platform, capacity, None)
    }

    /// As [`ValoisQueue::with_capacity`] with explicit backoff parameters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity_and_backoff(platform: &P, capacity: u32, backoff: BackoffConfig) -> Self {
        Self::build(platform, capacity, backoff, None)
    }

    /// As [`ValoisQueue::with_capacity`], metering the reference-counted
    /// node pool (one unit per node, `capacity + 1` total for the dummy)
    /// against `budget`, if given, for the queue's lifetime. The pool is
    /// force-reserved — an over-budget queue surfaces in
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
        let rc = RcArena::new(
            platform,
            capacity.checked_add(1).expect("capacity overflow"),
            budget,
        );
        let dummy = rc.alloc().expect("fresh arena");
        // Head and Tail each hold a counted reference to the dummy; our
        // allocation reference transfers to Head and we add one for Tail.
        rc.add_ref(dummy);
        ValoisQueue {
            head: platform.alloc_cell(Tagged::new(dummy, 0).raw()),
            tail: platform.alloc_cell(Tagged::new(dummy, 0).raw()),
            rc,
            platform: platform.clone(),
            backoff,
        }
    }

    /// Size of the node pool (excluding the dummy).
    pub fn capacity(&self) -> u32 {
        self.rc.nodes().capacity() - 1
    }

    /// Acquires a counted reference to the head node and exposes it to
    /// `f`; used by tests to emulate a stalled reader pinning the chain.
    pub fn with_pinned_head<R>(&self, f: impl FnOnce() -> R) -> R {
        let pinned = self.rc.safe_read(&self.head).expect("head is never null");
        let result = f();
        self.rc.release(pinned.index());
        result
    }
}

impl<P: Platform> ConcurrentWordQueue for ValoisQueue<P> {
    fn enqueue(&self, value: u64) -> Result<(), QueueFull> {
        let Some(node) = self.rc.alloc() else {
            return Err(QueueFull(value));
        };
        let nodes = self.rc.nodes();
        nodes.set_value(node, value);
        nodes.set_next(node, NULL_INDEX);
        let mut backoff = Backoff::new(self.backoff);
        loop {
            // Pin the current Tail target; the word (with its counter) is
            // what every CAS below is keyed to.
            let tail = self.rc.safe_read(&self.tail).expect("tail is never null");
            let next = nodes.next(tail.index());
            if next.is_null() {
                // Count the prospective link before publishing it.
                self.rc.add_ref(node);
                if nodes.cas_next(tail.index(), next, node) {
                    // Linked but Tail not yet swung: a process halted here
                    // leaves a lagging Tail any later enqueue can help
                    // forward — non-blocking, so faults here delay nobody.
                    self.platform.fault_point("valois:enq:window");
                    // Inserted. Try to swing Tail to the new node; on
                    // failure Tail simply lags (the defining Valois
                    // behaviour) until a later enqueue helps it forward.
                    self.rc.add_ref(node);
                    if self.tail.cas(tail.raw(), tail.with_index(node).raw()) {
                        // Tail dropped its reference to the old target.
                        self.rc.release(tail.index());
                    } else {
                        self.rc.release(node);
                    }
                    self.rc.release(tail.index()); // traversal pin
                    self.rc.release(node); // allocation reference
                    return Ok(());
                }
                self.rc.release(node);
                backoff.spin(&self.platform);
            } else {
                // Tail lags: help it forward one step. `next` is kept alive
                // by the pinned tail node's link reference, and its link
                // word never changes once non-null, so counting the
                // prospective Tail reference first is safe.
                self.rc.add_ref(next.index());
                if self
                    .tail
                    .cas(tail.raw(), tail.with_index(next.index()).raw())
                {
                    self.rc.release(tail.index());
                } else {
                    self.rc.release(next.index());
                }
            }
            self.rc.release(tail.index());
        }
    }

    fn dequeue(&self) -> Option<u64> {
        let nodes = self.rc.nodes();
        let mut backoff = Backoff::new(self.backoff);
        loop {
            let head = self.rc.safe_read(&self.head).expect("head is never null");
            let next = nodes.next(head.index());
            if next.is_null() {
                self.rc.release(head.index());
                return None;
            }
            // Value read is safe while we pin `head`: its counted link
            // keeps the successor alive.
            let value = nodes.value(next.index());
            // Count Head's prospective reference to the successor before
            // the swing, so a racing dequeuer can never drive it to zero.
            self.rc.add_ref(next.index());
            if self
                .head
                .cas(head.raw(), head.with_index(next.index()).raw())
            {
                // Head is swung but our two references to the old dummy
                // are still counted: a death here strands the node on a
                // nonzero count (Valois's well-known leak) and blocks
                // nobody.
                self.platform.fault_point("valois:deq:window");
                // Head's reference to the old dummy, plus our pin.
                self.rc.release(head.index());
                self.rc.release(head.index());
                return Some(value);
            }
            self.rc.release(next.index());
            self.rc.release(head.index());
            backoff.spin(&self.platform);
        }
    }

    fn name(&self) -> &'static str {
        "valois"
    }

    fn is_nonblocking(&self) -> bool {
        true
    }
}

impl<P: Platform> std::fmt::Debug for ValoisQueue<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ValoisQueue(capacity={})", self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::NativePlatform;
    use std::sync::Arc;

    fn queue(capacity: u32) -> ValoisQueue<NativePlatform> {
        ValoisQueue::with_capacity(&NativePlatform::new(), capacity)
    }

    #[test]
    fn fifo_order() {
        let q = queue(16);
        for i in 0..10 {
            q.enqueue(i + 7).unwrap();
        }
        for i in 0..10 {
            assert_eq!(q.dequeue(), Some(i + 7));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn empty_transitions() {
        let q = queue(4);
        assert_eq!(q.dequeue(), None);
        q.enqueue(1).unwrap();
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), None);
        q.enqueue(2).unwrap();
        assert_eq!(q.dequeue(), Some(2));
    }

    #[test]
    fn nodes_recycle_when_unpinned() {
        let q = queue(2);
        for i in 0..5_000 {
            q.enqueue(i).unwrap();
            assert_eq!(q.dequeue(), Some(i));
        }
    }

    #[test]
    fn pinned_head_starves_the_pool() {
        // The paper's observed flaw: with a reader stalled holding one
        // node, churning the queue exhausts any finite pool even though
        // the queue itself stays tiny.
        let q = queue(8);
        q.enqueue(0).unwrap();
        let exhausted = q.with_pinned_head(|| {
            let mut exhausted = false;
            for i in 0..64 {
                if q.enqueue(i).is_err() {
                    exhausted = true;
                    break;
                }
                q.dequeue();
            }
            exhausted
        });
        assert!(exhausted, "pool must run dry while the head is pinned");
        // After the pin is dropped, churn works again (chain reclaimed).
        while q.dequeue().is_some() {}
        for i in 0..64 {
            q.enqueue(i).unwrap();
            assert_eq!(q.dequeue(), Some(i));
        }
    }

    #[test]
    fn mpmc_stress_conserves_values() {
        let q = Arc::new(queue(1_024));
        let total = 3 * 3_000_u64;
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let got = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..3_u64 {
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
    fn works_under_simulation_with_preemption() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 3,
            processes_per_processor: 2,
            quantum_ns: 80_000,
            ..SimConfig::default()
        });
        let q = Arc::new(ValoisQueue::with_capacity(&sim.platform(), 128));
        sim.run({
            let q = Arc::clone(&q);
            move |info| {
                for i in 0..50 {
                    // A preempted process pinning a chain can transiently
                    // exhaust the pool (the algorithm's documented flaw) —
                    // retrying is the only recourse; once the pinner
                    // resumes, the chain unravels and allocation succeeds.
                    while q.enqueue((info.pid as u64) << 32 | i).is_err() {}
                    q.dequeue().expect("value available");
                }
            }
        });
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn reports_identity() {
        let q = queue(1);
        assert_eq!(q.name(), "valois");
        assert!(q.is_nonblocking());
    }
}
