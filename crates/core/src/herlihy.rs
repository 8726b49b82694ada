//! Herlihy's universal construction, applied to a queue — reconstructed.
//!
//! The paper's related work surveys "general methodologies for generating
//! non-blocking versions of sequential ... algorithms" (Herlihy; Turek,
//! Shasha & Prakash; Barnes) and observes that "the resulting
//! implementations are generally inefficient compared to specialized
//! algorithms". This module makes that comparison concrete: the small-
//! object variant of Herlihy's 1993 methodology, where each operation
//! copies the entire sequential object, applies itself to the copy, and
//! installs the copy with one CAS on the root pointer.
//!
//! Properties preserved (and measured by the `ops` bench):
//!
//! * non-blocking and linearizable for *any* sequential object — here the
//!   plain `VecDeque` queue;
//! * O(n) copying per operation and a single contended root — the
//!   inefficiency the paper contrasts its specialized algorithm against.
//!
//! The queue is heap-allocated and native-only (the whole-state copy does
//! not decompose into fixed word cells), so it appears in the native
//! benches but not the simulator sweeps — exactly like the paper, whose
//! figures also exclude the general constructions. It reclaims replaced
//! snapshots through the same hazard-pointer domain as [`crate::MsQueue`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicPtr, Ordering};

use msq_hazard::{PooledHazard, GLOBAL_DOMAIN};

/// A non-blocking FIFO queue built from a sequential `VecDeque` via
/// Herlihy's copy-the-object universal construction.
///
/// Every operation leaves the snapshot it replaced, with that snapshot's
/// copies of the queued values, to a later hazard-pointer scan, which may
/// run on any thread and after the queue itself is dropped. That is why
/// `T` must be `'static`: those copies may be dropped after any borrow
/// they hold has ended.
///
/// # Example
///
/// ```
/// use msq_core::HerlihyQueue;
///
/// let queue = HerlihyQueue::new();
/// queue.enqueue(1);
/// queue.enqueue(2);
/// assert_eq!(queue.dequeue(), Some(1));
/// assert_eq!(queue.dequeue(), Some(2));
/// assert_eq!(queue.dequeue(), None);
/// ```
///
/// A queue of borrowed values does not compile:
///
/// ```compile_fail
/// use msq_core::HerlihyQueue;
///
/// let text = String::from("borrowed");
/// let queue = HerlihyQueue::new();
/// queue.enqueue(text.as_str());
/// ```
pub struct HerlihyQueue<T: Clone + 'static> {
    /// The current snapshot; never null. A replaced snapshot is retired to
    /// [`GLOBAL_DOMAIN`], which frees it once no hazard protects it.
    root: AtomicPtr<VecDeque<T>>,
}

// SAFETY: `root` is the queue's one field. Threads that share the queue
// clone values out of a shared snapshot (`T: Sync`), and a replaced
// snapshot, with its values, is dropped by whichever thread's hazard scan
// frees it (`T: Send`).
unsafe impl<T: Clone + Send + Sync + 'static> Send for HerlihyQueue<T> {}
unsafe impl<T: Clone + Send + Sync + 'static> Sync for HerlihyQueue<T> {}

impl<T: Clone + 'static> HerlihyQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HerlihyQueue {
            root: AtomicPtr::new(Box::into_raw(Box::new(VecDeque::new()))),
        }
    }

    /// Applies `op` to a copy of the current state and installs the copy;
    /// retries on interference. Returns the operation's result.
    fn apply<R>(&self, op: impl Fn(&mut VecDeque<T>) -> R) -> R {
        let mut hazard = PooledHazard::acquire(&GLOBAL_DOMAIN);
        loop {
            let current = hazard.protect(&self.root);
            // SAFETY: root is never null, and `protect` re-validated that
            // `current` was still the root after publishing it, so no
            // retirement can free it while the hazard holds it.
            let mut copy = unsafe { &*current }.clone();
            let result = op(&mut copy);
            let copy = Box::into_raw(Box::new(copy));
            match self
                .root
                .compare_exchange(current, copy, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    // Released first, so a scan this retirement triggers may
                    // free the snapshot at once.
                    drop(hazard);
                    // SAFETY: `current` came from `Box::into_raw`, this CAS
                    // unlinked it, and only the one thread whose CAS
                    // replaced it retires it.
                    unsafe { GLOBAL_DOMAIN.retire(current) };
                    return result;
                }
                Err(_) => {
                    // SAFETY: the copy came from `Box::into_raw` and was
                    // never published.
                    drop(unsafe { Box::from_raw(copy) });
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Adds `value` at the tail (copies the whole queue).
    pub fn enqueue(&self, value: T) {
        self.apply(|queue| queue.push_back(value.clone()));
    }

    /// Removes the head value (copies the whole queue).
    pub fn dequeue(&self) -> Option<T> {
        self.apply(|queue| queue.pop_front())
    }

    /// Number of queued values at the observed snapshot.
    pub fn len(&self) -> usize {
        let mut hazard = PooledHazard::acquire(&GLOBAL_DOMAIN);
        // SAFETY: root is never null; protected and re-validated.
        unsafe { &*hazard.protect(&self.root) }.len()
    }

    /// Whether the observed snapshot was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Clone + 'static> Default for HerlihyQueue<T> {
    fn default() -> Self {
        HerlihyQueue::new()
    }
}

impl<T: Clone + 'static> Drop for HerlihyQueue<T> {
    fn drop(&mut self) {
        // SAFETY: exclusive access during drop; the root came from
        // `Box::into_raw` and is still linked, so it was never retired.
        drop(unsafe { Box::from_raw(*self.root.get_mut()) });
    }
}

impl<T: Clone + 'static> std::fmt::Debug for HerlihyQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HerlihyQueue(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = HerlihyQueue::new();
        for i in 0..20 {
            q.enqueue(i);
        }
        for i in 0..20 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn len_tracks_snapshot() {
        let q = HerlihyQueue::new();
        assert!(q.is_empty());
        q.enqueue("a");
        q.enqueue("b");
        assert_eq!(q.len(), 2);
        q.dequeue();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn concurrent_operations_conserve_values() {
        let q = Arc::new(HerlihyQueue::new());
        let total = 3 * 1_000_u64;
        let sum = Arc::new(AtomicU64::new(0));
        let got = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..3_u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000_u64 {
                    q.enqueue(t * 1_000 + i + 1);
                }
            }));
        }
        for _ in 0..2 {
            let q = Arc::clone(&q);
            let sum = Arc::clone(&sum);
            let got = Arc::clone(&got);
            handles.push(std::thread::spawn(move || {
                while got.load(Ordering::SeqCst) < total {
                    if let Some(v) = q.dequeue() {
                        sum.fetch_add(v, Ordering::SeqCst);
                        got.fetch_add(1, Ordering::SeqCst);
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::SeqCst), (1..=total).sum::<u64>());
        assert!(q.is_empty());
    }

    #[test]
    fn per_producer_order_preserved() {
        let q = Arc::new(HerlihyQueue::new());
        let mut handles = Vec::new();
        for t in 0..2_u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..500_u64 {
                    q.enqueue((t << 32) | i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut last = [None::<u64>; 2];
        while let Some(v) = q.dequeue() {
            let producer = (v >> 32) as usize;
            let seq = v & 0xffff_ffff;
            if let Some(prev) = last[producer] {
                assert!(seq > prev);
            }
            last[producer] = Some(seq);
        }
    }
}
