//! Lamport's wait-free single-producer/single-consumer queue (1983).
//!
//! Cited by the paper as the classic algorithm that "restricts concurrency
//! to a single enqueuer and a single dequeuer": a circular buffer where the
//! producer owns `tail`, the consumer owns `head`, and neither ever
//! executes an atomic read-modify-write — both operations are wait-free.

use msq_platform::{AtomicWord, CellArray, ConcurrentWordQueue, Platform, QueueFull};

/// Lamport's SPSC ring buffer.
///
/// **Concurrency contract:** at most one thread may call
/// [`LamportQueue::enqueue`] (the producer) and at most one may call
/// [`LamportQueue::dequeue`] (the consumer) at any time; the two may run
/// concurrently. Violating this is a logic error (values may be lost or
/// duplicated), though never memory-unsafe here.
///
/// # Example
///
/// ```
/// use msq_baselines::LamportQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = LamportQueue::with_capacity(&NativePlatform::new(), 4);
/// queue.enqueue(1).unwrap();
/// queue.enqueue(2).unwrap();
/// assert_eq!(queue.dequeue(), Some(1));
/// assert_eq!(queue.dequeue(), Some(2));
/// ```
pub struct LamportQueue<P: Platform> {
    buffer: CellArray<P>,
    head: P::Cell,
    tail: P::Cell,
}

impl<P: Platform> LamportQueue<P> {
    /// Creates a ring holding at most `capacity` values.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn with_capacity(platform: &P, capacity: u32) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        LamportQueue {
            buffer: platform.alloc_cells(std::iter::repeat_n(0, capacity as usize)),
            head: platform.alloc_cell(0),
            tail: platform.alloc_cell(0),
        }
    }

    /// Maximum number of values the ring can hold.
    pub fn capacity(&self) -> u32 {
        self.buffer.len() as u32
    }

    /// Number of values currently buffered (exact in SPSC use).
    pub fn len(&self) -> u64 {
        self.tail.load().wrapping_sub(self.head.load())
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<P: Platform> ConcurrentWordQueue for LamportQueue<P> {
    fn enqueue(&self, value: u64) -> Result<(), QueueFull> {
        let tail = self.tail.load();
        let head = self.head.load();
        if tail.wrapping_sub(head) >= self.buffer.len() as u64 {
            return Err(QueueFull(value));
        }
        self.buffer
            .get((tail % self.buffer.len() as u64) as usize)
            .store(value);
        // Publishing the slot before bumping tail is the whole algorithm.
        self.tail.store(tail.wrapping_add(1));
        Ok(())
    }

    fn dequeue(&self) -> Option<u64> {
        let head = self.head.load();
        if head == self.tail.load() {
            return None;
        }
        let value = self
            .buffer
            .get((head % self.buffer.len() as u64) as usize)
            .load();
        self.head.store(head.wrapping_add(1));
        Some(value)
    }

    fn name(&self) -> &'static str {
        "lamport-spsc"
    }

    fn is_nonblocking(&self) -> bool {
        true
    }
}

impl<P: Platform> std::fmt::Debug for LamportQueue<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LamportQueue(capacity={}, len={})",
            self.capacity(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::NativePlatform;
    use std::sync::Arc;

    fn queue(capacity: u32) -> LamportQueue<NativePlatform> {
        LamportQueue::with_capacity(&NativePlatform::new(), capacity)
    }

    #[test]
    fn fifo_order() {
        let q = queue(8);
        for i in 0..8 {
            q.enqueue(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn full_ring_rejects() {
        let q = queue(2);
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        assert_eq!(q.enqueue(3), Err(QueueFull(3)));
        assert_eq!(q.dequeue(), Some(1));
        q.enqueue(3).unwrap();
    }

    #[test]
    fn wraps_around_many_times() {
        let q = queue(3);
        for i in 0..1_000 {
            q.enqueue(i).unwrap();
            assert_eq!(q.dequeue(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_occupancy() {
        let q = queue(4);
        assert_eq!(q.len(), 0);
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        assert_eq!(q.len(), 2);
        q.dequeue();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn spsc_streaming_preserves_order() {
        let q = Arc::new(queue(16));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..30_000_u64 {
                    while q.enqueue(i).is_err() {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for expected in 0..30_000_u64 {
                    loop {
                        if let Some(v) = q.dequeue() {
                            assert_eq!(v, expected, "order violated");
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            })
        };
        producer.join().unwrap();
        consumer.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn reports_identity() {
        let q = queue(1);
        assert_eq!(q.name(), "lamport-spsc");
        assert!(q.is_nonblocking());
    }
}
