//! Recording concurrent operations against a live queue.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use msq_platform::{ConcurrentWordQueue, QueueFull};

use crate::history::{Event, History, Operation};

/// Records operation intervals across threads with a shared logical clock.
///
/// Create one `Recorder`, hand a [`RecorderHandle`] to each worker thread,
/// run the workload, then call [`Recorder::finish`].
///
/// # Example
///
/// ```
/// use msq_linearize::Recorder;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
/// // Any ConcurrentWordQueue works; here a single-threaded demo:
/// # use msq_core::WordMsQueue;
/// let queue = WordMsQueue::with_capacity(&NativePlatform::new(), 8);
/// let recorder = Recorder::new();
/// let mut handle = recorder.handle(0);
/// handle.enqueue(&queue, 5).unwrap();
/// assert_eq!(handle.dequeue(&queue), Some(5));
/// drop(handle);
/// let history = recorder.finish();
/// assert!(history.check_queue_safety().is_empty());
/// ```
pub struct Recorder {
    clock: Arc<AtomicU64>,
    events: Arc<Mutex<Vec<Event>>>,
}

impl Recorder {
    /// Creates a recorder with an empty history.
    pub fn new() -> Self {
        Recorder {
            clock: Arc::new(AtomicU64::new(0)),
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A handle for `process` to record with; cheap to create, one per
    /// thread. Events are buffered locally and flushed when the handle
    /// drops.
    pub fn handle(&self, process: usize) -> RecorderHandle {
        RecorderHandle {
            clock: Arc::clone(&self.clock),
            events: Arc::clone(&self.events),
            buffer: Vec::new(),
            process,
        }
    }

    /// Collects the recorded history. Call after every handle has dropped:
    /// a handle flushes its events only when it drops.
    ///
    /// # Panics
    ///
    /// Panics if a handle is still alive, rather than return a history
    /// missing that handle's events.
    pub fn finish(self) -> History {
        let events = Arc::try_unwrap(self.events).unwrap_or_else(|events| {
            panic!(
                "Recorder::finish called while {} RecorderHandle(s) are still alive; drop every \
                 handle first, or their buffered events would be missing from the history",
                Arc::strong_count(&events) - 1
            )
        });
        History::from_events(events.into_inner().expect("recorder events"))
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Recorder(clock={})", self.clock.load(Ordering::Relaxed))
    }
}

/// Per-thread recording handle; see [`Recorder::handle`].
pub struct RecorderHandle {
    clock: Arc<AtomicU64>,
    events: Arc<Mutex<Vec<Event>>>,
    buffer: Vec<Event>,
    process: usize,
}

impl RecorderHandle {
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Performs and records `queue.enqueue(value)`.
    ///
    /// # Errors
    ///
    /// Propagates [`QueueFull`]; failed enqueues are *not* recorded (they
    /// have no effect on the abstract queue).
    pub fn enqueue<Q: ConcurrentWordQueue + ?Sized>(
        &mut self,
        queue: &Q,
        value: u64,
    ) -> Result<(), QueueFull> {
        let invoked_at = self.tick();
        let result = queue.enqueue(value);
        let returned_at = self.tick();
        if result.is_ok() {
            self.buffer.push(Event {
                process: self.process,
                operation: Operation::Enqueue(value),
                invoked_at,
                returned_at,
            });
        }
        result
    }

    /// Performs and records `queue.dequeue()`.
    pub fn dequeue<Q: ConcurrentWordQueue + ?Sized>(&mut self, queue: &Q) -> Option<u64> {
        let invoked_at = self.tick();
        let result = queue.dequeue();
        let returned_at = self.tick();
        self.buffer.push(Event {
            process: self.process,
            operation: Operation::Dequeue(result),
            invoked_at,
            returned_at,
        });
        result
    }

    /// Number of events buffered so far on this handle.
    pub fn recorded(&self) -> usize {
        self.buffer.len()
    }
}

impl Drop for RecorderHandle {
    fn drop(&mut self) {
        if !self.buffer.is_empty() {
            let mut events = self.events.lock().expect("recorder events");
            events.append(&mut self.buffer);
        }
    }
}

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RecorderHandle(process={}, recorded={})",
            self.process,
            self.buffer.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_core::WordMsQueue;
    use msq_platform::NativePlatform;

    #[test]
    fn records_intervals_in_order() {
        let q = WordMsQueue::with_capacity(&NativePlatform::new(), 8);
        let recorder = Recorder::new();
        let mut h = recorder.handle(3);
        h.enqueue(&q, 1).unwrap();
        h.enqueue(&q, 2).unwrap();
        assert_eq!(h.dequeue(&q), Some(1));
        assert_eq!(h.recorded(), 3);
        drop(h);
        let history = recorder.finish();
        assert_eq!(history.len(), 3);
        for e in history.events() {
            assert_eq!(e.process, 3);
            assert!(e.invoked_at < e.returned_at);
        }
        assert!(history.check_queue_safety().is_empty());
    }

    #[test]
    fn failed_enqueues_are_not_recorded() {
        let q = WordMsQueue::with_capacity(&NativePlatform::new(), 1);
        let recorder = Recorder::new();
        let mut h = recorder.handle(0);
        h.enqueue(&q, 1).unwrap();
        assert!(h.enqueue(&q, 2).is_err());
        drop(h);
        assert_eq!(recorder.finish().len(), 1);
    }

    #[test]
    #[should_panic(expected = "1 RecorderHandle(s) are still alive")]
    fn finishing_with_a_live_handle_panics() {
        let q = WordMsQueue::with_capacity(&NativePlatform::new(), 8);
        let recorder = Recorder::new();
        let mut h = recorder.handle(0);
        h.enqueue(&q, 1).unwrap();
        let _history = recorder.finish();
        drop(h);
    }

    #[test]
    fn concurrent_recording_produces_checkable_history() {
        use std::sync::Arc as StdArc;
        let q = StdArc::new(WordMsQueue::with_capacity(&NativePlatform::new(), 128));
        let recorder = Recorder::new();
        let mut threads = Vec::new();
        for t in 0..4_u64 {
            let q = StdArc::clone(&q);
            let mut handle = recorder.handle(t as usize);
            threads.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let v = t * 1_000 + i;
                    handle.enqueue(&*q, v).unwrap();
                    handle.dequeue(&*q);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let history = recorder.finish();
        assert_eq!(history.len(), 4 * 1_000);
        assert!(history.check_queue_safety().is_empty());
    }
}
