//! Recorded histories and the fast whole-history safety checks.

use std::collections::BTreeMap;

/// One completed queue operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operation {
    /// `enqueue(value)`; always succeeds in recorded histories.
    Enqueue(u64),
    /// `dequeue()` returning `Some(value)` or observing empty (`None`).
    Dequeue(Option<u64>),
}

/// A completed operation with its real-time interval.
///
/// `invoked_at < returned_at` always; timestamps come from a shared logical
/// clock, so intervals across processes are comparable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The process (thread) that performed the operation.
    pub process: usize,
    /// What was done and what came back.
    pub operation: Operation,
    /// Logical time just before the operation was invoked.
    pub invoked_at: u64,
    /// Logical time just after the operation returned.
    pub returned_at: u64,
}

/// A safety violation found by the fast checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A dequeue returned a value no enqueue inserted.
    UnknownValue(u64),
    /// A value was dequeued more than once.
    DuplicateDequeue(u64),
    /// More successful dequeues than enqueues (should be caught by the two
    /// above when values are unique, but guards non-unique histories).
    Imbalance {
        /// Number of enqueues in the history.
        enqueues: usize,
        /// Number of successful dequeues in the history.
        dequeues: usize,
    },
    /// Real-time FIFO order violated: `first` was enqueued strictly before
    /// `second` (non-overlapping), yet dequeued strictly after it.
    FifoReorder {
        /// The earlier-enqueued value.
        first: u64,
        /// The later-enqueued value that was dequeued first.
        second: u64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::UnknownValue(v) => write!(f, "dequeued value {v} was never enqueued"),
            Violation::DuplicateDequeue(v) => write!(f, "value {v} dequeued twice"),
            Violation::Imbalance { enqueues, dequeues } => {
                write!(f, "{dequeues} dequeues exceed {enqueues} enqueues")
            }
            Violation::FifoReorder { first, second } => write!(
                f,
                "value {first} enqueued strictly before {second} but dequeued after it"
            ),
        }
    }
}

/// A complete recorded history.
#[derive(Clone, Debug, Default)]
pub struct History {
    events: Vec<Event>,
}

impl History {
    /// Builds a history from raw events.
    pub fn from_events(events: Vec<Event>) -> Self {
        History { events }
    }

    /// The recorded events (unordered across processes).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Runs every fast safety check, returning all violations found.
    ///
    /// Values must be unique across enqueues for the conservation checks to
    /// be meaningful (the harness guarantees this by construction).
    pub fn check_queue_safety(&self) -> Vec<Violation> {
        let mut violations = Vec::new();
        // Ordered maps: a checked window holds a handful of values, which
        // a B-tree finds faster than SipHash hashes them. The order never
        // reaches the result while timestamps are distinct.
        let mut enqueued: BTreeMap<u64, &Event> = BTreeMap::new();
        let mut enqueue_count = 0usize;
        for event in &self.events {
            if let Operation::Enqueue(v) = event.operation {
                enqueued.insert(v, event);
                enqueue_count += 1;
            }
        }
        let mut dequeued: BTreeMap<u64, &Event> = BTreeMap::new();
        let mut dequeue_count = 0usize;
        for event in &self.events {
            if let Operation::Dequeue(Some(v)) = event.operation {
                dequeue_count += 1;
                if !enqueued.contains_key(&v) {
                    violations.push(Violation::UnknownValue(v));
                }
                if dequeued.insert(v, event).is_some() {
                    violations.push(Violation::DuplicateDequeue(v));
                }
            }
        }
        if dequeue_count > enqueue_count {
            violations.push(Violation::Imbalance {
                enqueues: enqueue_count,
                dequeues: dequeue_count,
            });
        }
        violations.extend(self.check_realtime_fifo(&enqueued, &dequeued));
        violations
    }

    /// Real-time FIFO: if `enq(a)` returned before `enq(b)` was invoked and
    /// both values were dequeued, then `deq(a)` must not have been invoked
    /// strictly after `deq(b)` returned.
    fn check_realtime_fifo(
        &self,
        enqueued: &BTreeMap<u64, &Event>,
        dequeued: &BTreeMap<u64, &Event>,
    ) -> Vec<Violation> {
        // Sort dequeued values by their enqueue completion time; a
        // violation needs enq(a).ret < enq(b).inv with deq(b).ret <
        // deq(a).inv. O(n log n + candidate pairs) via a sweep: for each b
        // in enqueue-invocation order, compare against the a whose dequeue
        // started latest among strictly-earlier enqueues.
        let mut pairs: Vec<(&Event, &Event)> = dequeued
            .iter()
            .filter_map(|(v, deq)| enqueued.get(v).map(|enq| (*enq, *deq)))
            .collect();
        // Order by enqueue return time.
        pairs.sort_by_key(|(enq, _)| enq.returned_at);
        let mut violations = Vec::new();
        // Track, over the prefix of values whose enqueue returned before
        // time t, the maximum dequeue invocation time (the "latest leaving"
        // earlier value).
        let mut best: Option<(&Event, &Event)> = None; // (enq, deq) with max deq.invoked_at
        let mut idx = 0;
        let mut by_enqueue_invoke = pairs.clone();
        by_enqueue_invoke.sort_by_key(|(enq, _)| enq.invoked_at);
        for (enq_b, deq_b) in &by_enqueue_invoke {
            // Admit into `best` every a with enq_a.returned_at < enq_b.invoked_at.
            while idx < pairs.len() && pairs[idx].0.returned_at < enq_b.invoked_at {
                let candidate = pairs[idx];
                if best.is_none_or(|(_, d)| candidate.1.invoked_at > d.invoked_at) {
                    best = Some(candidate);
                }
                idx += 1;
            }
            if let Some((enq_a, deq_a)) = best {
                if deq_b.returned_at < deq_a.invoked_at {
                    violations.push(Violation::FifoReorder {
                        first: match enq_a.operation {
                            Operation::Enqueue(v) => v,
                            _ => unreachable!("enqueue event"),
                        },
                        second: match enq_b.operation {
                            Operation::Enqueue(v) => v,
                            _ => unreachable!("enqueue event"),
                        },
                    });
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(process: usize, operation: Operation, invoked_at: u64, returned_at: u64) -> Event {
        Event {
            process,
            operation,
            invoked_at,
            returned_at,
        }
    }

    #[test]
    fn clean_history_passes() {
        let h = History::from_events(vec![
            ev(0, Operation::Enqueue(1), 0, 1),
            ev(0, Operation::Enqueue(2), 2, 3),
            ev(1, Operation::Dequeue(Some(1)), 4, 5),
            ev(1, Operation::Dequeue(Some(2)), 6, 7),
            ev(1, Operation::Dequeue(None), 8, 9),
        ]);
        assert!(h.check_queue_safety().is_empty());
    }

    #[test]
    fn detects_unknown_value() {
        let h = History::from_events(vec![ev(0, Operation::Dequeue(Some(99)), 0, 1)]);
        let v = h.check_queue_safety();
        assert!(v.contains(&Violation::UnknownValue(99)));
        assert!(v.iter().any(|v| matches!(v, Violation::Imbalance { .. })));
    }

    #[test]
    fn detects_duplicate_dequeue() {
        let h = History::from_events(vec![
            ev(0, Operation::Enqueue(5), 0, 1),
            ev(1, Operation::Dequeue(Some(5)), 2, 3),
            ev(2, Operation::Dequeue(Some(5)), 4, 5),
        ]);
        let v = h.check_queue_safety();
        assert!(v.contains(&Violation::DuplicateDequeue(5)));
    }

    #[test]
    fn detects_fifo_reorder() {
        // enq(1) finishes before enq(2) begins, but 2 is dequeued strictly
        // before deq(1) is even invoked.
        let h = History::from_events(vec![
            ev(0, Operation::Enqueue(1), 0, 1),
            ev(0, Operation::Enqueue(2), 2, 3),
            ev(1, Operation::Dequeue(Some(2)), 4, 5),
            ev(1, Operation::Dequeue(Some(1)), 6, 7),
        ]);
        let v = h.check_queue_safety();
        assert_eq!(
            v,
            vec![Violation::FifoReorder {
                first: 1,
                second: 2
            }]
        );
    }

    #[test]
    fn overlapping_enqueues_may_dequeue_in_either_order() {
        // enq(1) and enq(2) overlap in real time: either dequeue order is
        // linearizable, so no violation.
        let h = History::from_events(vec![
            ev(0, Operation::Enqueue(1), 0, 5),
            ev(1, Operation::Enqueue(2), 1, 4),
            ev(2, Operation::Dequeue(Some(2)), 6, 7),
            ev(2, Operation::Dequeue(Some(1)), 8, 9),
        ]);
        assert!(h.check_queue_safety().is_empty());
    }

    #[test]
    fn violation_messages_are_descriptive() {
        for v in [
            Violation::UnknownValue(1),
            Violation::DuplicateDequeue(2),
            Violation::Imbalance {
                enqueues: 1,
                dequeues: 2,
            },
            Violation::FifoReorder {
                first: 3,
                second: 4,
            },
        ] {
            assert!(!v.to_string().is_empty());
        }
    }
}
