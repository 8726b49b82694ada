//! Exhaustive linearizability checking (Wing & Gong's algorithm).

use std::collections::HashSet;

use crate::history::{Event, Operation};

/// Decides whether `events` is linearizable with respect to the sequential
/// FIFO queue specification.
///
/// Implements the Wing–Gong search: repeatedly pick a *minimal* pending
/// operation (one whose real-time predecessors have all been linearized),
/// apply it to the specification, and backtrack on mismatch. Candidates
/// are tried in response order, which linearizes a correct queue's
/// history with little or no backtracking. Memoizes the
/// `(completed-set, spec-state)` pairs that failed, which makes typical
/// histories of a few dozen events tractable; the search is exponential
/// in the worst case, so callers keep histories small (the integration
/// tests use windows of ≤ 20 operations).
///
/// # Panics
///
/// Panics if `events` contains more than 64 operations (the memoization
/// mask is a `u64`).
///
/// # Example
///
/// ```
/// use msq_linearize::{is_linearizable_queue, Event, Operation};
///
/// let history = [
///     Event { process: 0, operation: Operation::Enqueue(1), invoked_at: 0, returned_at: 3 },
///     Event { process: 1, operation: Operation::Dequeue(Some(1)), invoked_at: 1, returned_at: 2 },
/// ];
/// assert!(is_linearizable_queue(&history));
/// ```
pub fn is_linearizable_queue(events: &[Event]) -> bool {
    assert!(
        events.len() <= MAX_EVENTS,
        "history too large for exhaustive check"
    );
    events.is_empty() || Search::new(events).search(0)
}

/// Most events a history may hold: one bit each in a `u64` done mask.
const MAX_EVENTS: usize = 64;

/// One depth-first search over a history, with the specification queue
/// kept in place and undone on backtrack instead of cloned per branch.
struct Search<'a> {
    events: &'a [Event],
    /// Bit `j` of `preds[i]`: event `j` returned before event `i` was
    /// invoked, so `i` may be linearized only after `j`.
    preds: [u64; MAX_EVENTS],
    /// Event indices in response order: the order candidates are tried.
    order: [u8; MAX_EVENTS],
    /// The queue, as enqueue indices in `queue[head..tail]`. A path
    /// enqueues each event at most once, so the slots never wrap, and a
    /// dequeue is undone by stepping `head` back over its intact slot.
    queue: [u8; MAX_EVENTS],
    head: usize,
    tail: usize,
    /// States, as the done mask and the queue's enqueue indices, whose
    /// every continuation failed. A state cannot recur on its own path
    /// (the mask only grows), so each revisit is a finished failure.
    failed: HashSet<(u64, Vec<u8>)>,
}

impl<'a> Search<'a> {
    fn new(events: &'a [Event]) -> Self {
        let mut preds = [0; MAX_EVENTS];
        for (pred, event) in preds.iter_mut().zip(events) {
            for (j, other) in events.iter().enumerate() {
                if other.returned_at < event.invoked_at {
                    *pred |= 1 << j;
                }
            }
        }
        let mut order = [0; MAX_EVENTS];
        for (slot, i) in order.iter_mut().zip(0..) {
            *slot = i;
        }
        order[..events.len()].sort_by_key(|&i| events[usize::from(i)].returned_at);
        Search {
            events,
            preds,
            order,
            queue: [0; MAX_EVENTS],
            head: 0,
            tail: 0,
            failed: HashSet::new(),
        }
    }

    fn search(&mut self, done: u64) -> bool {
        if done.count_ones() as usize == self.events.len() {
            return true;
        }
        if !self.failed.is_empty() && self.failed.contains(&self.key(done)) {
            return false;
        }
        for k in 0..self.events.len() {
            let i = usize::from(self.order[k]);
            let bit = 1 << i;
            if done & bit != 0 || self.preds[i] & !done != 0 {
                continue;
            }
            let next = done | bit;
            match self.events[i].operation {
                Operation::Enqueue(_) => {
                    self.queue[self.tail] = self.order[k];
                    self.tail += 1;
                    if self.search(next) {
                        return true;
                    }
                    self.tail -= 1;
                }
                Operation::Dequeue(None) => {
                    if self.head == self.tail && self.search(next) {
                        return true;
                    }
                }
                Operation::Dequeue(Some(value)) => {
                    if self.head < self.tail && self.front() == value {
                        self.head += 1;
                        if self.search(next) {
                            return true;
                        }
                        self.head -= 1;
                    }
                }
            }
        }
        self.failed.insert(self.key(done));
        false
    }

    /// The value at the head of the (non-empty) queue.
    fn front(&self) -> u64 {
        match self.events[usize::from(self.queue[self.head])].operation {
            Operation::Enqueue(value) => value,
            Operation::Dequeue(_) => unreachable!("the queue holds enqueues"),
        }
    }

    fn key(&self, done: u64) -> (u64, Vec<u8>) {
        (done, self.queue[self.head..self.tail].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(operation: Operation, invoked_at: u64, returned_at: u64) -> Event {
        Event {
            process: 0,
            operation,
            invoked_at,
            returned_at,
        }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(is_linearizable_queue(&[]));
    }

    #[test]
    fn sequential_fifo_is_linearizable() {
        let h = [
            ev(Operation::Enqueue(1), 0, 1),
            ev(Operation::Enqueue(2), 2, 3),
            ev(Operation::Dequeue(Some(1)), 4, 5),
            ev(Operation::Dequeue(Some(2)), 6, 7),
            ev(Operation::Dequeue(None), 8, 9),
        ];
        assert!(is_linearizable_queue(&h));
    }

    #[test]
    fn sequential_lifo_is_not_linearizable() {
        let h = [
            ev(Operation::Enqueue(1), 0, 1),
            ev(Operation::Enqueue(2), 2, 3),
            ev(Operation::Dequeue(Some(2)), 4, 5),
        ];
        assert!(!is_linearizable_queue(&h));
    }

    #[test]
    fn overlapping_enqueues_permit_either_order() {
        let h = [
            ev(Operation::Enqueue(1), 0, 10),
            ev(Operation::Enqueue(2), 1, 9),
            ev(Operation::Dequeue(Some(2)), 11, 12),
            ev(Operation::Dequeue(Some(1)), 13, 14),
        ];
        assert!(is_linearizable_queue(&h));
    }

    #[test]
    fn dequeue_none_must_be_justifiable() {
        // Dequeue(None) strictly after an unmatched enqueue completed and
        // with nothing else removing the value: not linearizable.
        let h = [
            ev(Operation::Enqueue(1), 0, 1),
            ev(Operation::Dequeue(None), 2, 3),
            ev(Operation::Dequeue(Some(1)), 4, 5),
        ];
        assert!(!is_linearizable_queue(&h));
    }

    #[test]
    fn dequeue_none_overlapping_enqueue_is_fine() {
        // The empty observation can linearize before the overlapping
        // enqueue takes effect.
        let h = [
            ev(Operation::Enqueue(1), 0, 5),
            ev(Operation::Dequeue(None), 1, 2),
            ev(Operation::Dequeue(Some(1)), 6, 7),
        ];
        assert!(is_linearizable_queue(&h));
    }

    #[test]
    fn stone_style_lost_value_is_caught() {
        // The race the paper found in Stone's queue: an item is enqueued
        // (operation completed) and then never dequeued, while later
        // operations observe empty. A full drain observing None after the
        // enqueue completed cannot linearize.
        let h = [
            ev(Operation::Enqueue(7), 0, 1),
            ev(Operation::Dequeue(None), 2, 3),
            ev(Operation::Dequeue(None), 4, 5),
        ];
        assert!(!is_linearizable_queue(&h));
    }

    #[test]
    fn pending_overlap_three_processes() {
        // Three overlapping operations with only one valid linearization.
        let h = [
            ev(Operation::Enqueue(1), 0, 6),
            ev(Operation::Enqueue(2), 0, 6),
            ev(Operation::Dequeue(Some(2)), 0, 6),
        ];
        // deq(2) requires enq(2) before it; enq(1) can go anywhere.
        assert!(is_linearizable_queue(&h));
    }

    #[test]
    fn respects_realtime_order() {
        // deq returns before enq begins: the dequeue cannot see the value.
        let h = [
            ev(Operation::Dequeue(Some(1)), 0, 1),
            ev(Operation::Enqueue(1), 2, 3),
        ];
        assert!(!is_linearizable_queue(&h));
    }

    #[test]
    #[should_panic(expected = "history too large")]
    fn oversized_history_is_rejected() {
        let h: Vec<Event> = (0..65)
            .map(|i| ev(Operation::Enqueue(i), i * 2, i * 2 + 1))
            .collect();
        is_linearizable_queue(&h);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::spec::SequentialQueue;
    use proptest::prelude::*;

    /// Builds a correct sequential history from a random op script, then
    /// randomly *stretches* each operation's interval leftward (keeping
    /// the response order). A sequential witness still exists, so the
    /// stretched, overlapping history must remain linearizable.
    fn correct_history(script: &[Option<u64>], stretches: &[u64]) -> Vec<Event> {
        let mut spec = SequentialQueue::new();
        let mut events = Vec::new();
        for (i, op) in script.iter().enumerate() {
            let t = (i as u64) * 10;
            let stretch = stretches.get(i).copied().unwrap_or(0) % (t + 1);
            let (invoked_at, returned_at) = (t - stretch.min(t), t + 5);
            let operation = match op {
                Some(v) => {
                    spec.enqueue(*v);
                    Operation::Enqueue(*v)
                }
                None => Operation::Dequeue(spec.dequeue()),
            };
            events.push(Event {
                process: i % 3,
                operation,
                invoked_at,
                returned_at,
            });
        }
        events
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn correct_histories_are_linearizable(
            script in prop::collection::vec(prop::option::of(0u64..50), 0..12),
            stretches in prop::collection::vec(0u64..100, 0..12),
        ) {
            let events = correct_history(&script, &stretches);
            prop_assert!(is_linearizable_queue(&events));
        }

        #[test]
        fn lifo_misorder_of_nonoverlapping_enqueues_is_rejected(
            gap in 1u64..10,
            a in 0u64..100,
            b in 100u64..200,
        ) {
            // enq(a) strictly precedes enq(b); dequeuing b first from a
            // 2-element queue can never linearize.
            let events = [
                Event { process: 0, operation: Operation::Enqueue(a), invoked_at: 0, returned_at: 1 },
                Event { process: 0, operation: Operation::Enqueue(b), invoked_at: 1 + gap, returned_at: 2 + gap },
                Event { process: 1, operation: Operation::Dequeue(Some(b)), invoked_at: 10 + gap, returned_at: 11 + gap },
            ];
            prop_assert!(!is_linearizable_queue(&events));
        }
    }
}
