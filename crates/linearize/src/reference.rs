//! The former checks: the Wing–Gong search over cloned
//! [`SequentialQueue`]s with a `HashSet` of `(mask, contents)` keys, and
//! the safety check over two `HashMap`s. Kept test-only, as references the
//! current checks must agree with exactly.

use std::collections::{HashMap, HashSet};

use crate::history::{Event, Operation, Violation};
use crate::spec::SequentialQueue;

/// The former [`crate::is_linearizable_queue`].
pub(crate) fn is_linearizable_queue(events: &[Event]) -> bool {
    assert!(events.len() <= 64, "history too large for exhaustive check");
    if events.is_empty() {
        return true;
    }
    let mut memo = HashSet::new();
    search(events, 0, &SequentialQueue::new(), &mut memo)
}

fn search(
    events: &[Event],
    done: u64,
    spec: &SequentialQueue,
    memo: &mut HashSet<(u64, Vec<u64>)>,
) -> bool {
    if done.count_ones() as usize == events.len() {
        return true;
    }
    if !memo.insert((done, spec.items().collect())) {
        return false; // already explored this configuration
    }
    // A pending op is minimal if its invocation precedes every pending
    // response; only minimal ops may be linearized next.
    let min_pending_return = events
        .iter()
        .enumerate()
        .filter(|(i, _)| done & (1 << i) == 0)
        .map(|(_, e)| e.returned_at)
        .min()
        .expect("at least one pending");
    for (i, event) in events.iter().enumerate() {
        if done & (1 << i) != 0 || event.invoked_at > min_pending_return {
            continue;
        }
        let mut next_spec = spec.clone();
        let consistent = match event.operation {
            Operation::Enqueue(v) => {
                next_spec.enqueue(v);
                true
            }
            Operation::Dequeue(expected) => next_spec.dequeue() == expected,
        };
        if consistent && search(events, done | (1 << i), &next_spec, memo) {
            return true;
        }
    }
    false
}

/// The former [`crate::History::check_queue_safety`].
pub(crate) fn check_queue_safety(events: &[Event]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut enqueued: HashMap<u64, &Event> = HashMap::new();
    let mut enqueue_count = 0usize;
    for event in events {
        if let Operation::Enqueue(v) = event.operation {
            enqueued.insert(v, event);
            enqueue_count += 1;
        }
    }
    let mut dequeued: HashMap<u64, &Event> = HashMap::new();
    let mut dequeue_count = 0usize;
    for event in events {
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
    violations.extend(check_realtime_fifo(&enqueued, &dequeued));
    violations
}

fn check_realtime_fifo(
    enqueued: &HashMap<u64, &Event>,
    dequeued: &HashMap<u64, &Event>,
) -> Vec<Violation> {
    let mut pairs: Vec<(&Event, &Event)> = dequeued
        .iter()
        .filter_map(|(v, deq)| enqueued.get(v).map(|enq| (*enq, *deq)))
        .collect();
    pairs.sort_by_key(|(enq, _)| enq.returned_at);
    let mut violations = Vec::new();
    let mut best: Option<(&Event, &Event)> = None;
    let mut idx = 0;
    let mut by_enqueue_invoke = pairs.clone();
    by_enqueue_invoke.sort_by_key(|(enq, _)| enq.invoked_at);
    for (enq_b, deq_b) in &by_enqueue_invoke {
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

/// The current checks against the references above, on random histories
/// and on recorded simulator runs, many of them made unlinearizable.
mod differential {
    use std::sync::Mutex;

    use msq_harness::Algorithm;
    use msq_sim::{SimConfig, Simulation};
    use proptest::prelude::*;
    use proptest::TestRng;

    use crate::{Event, History, Operation, Recorder};

    /// Both checks agree with their references on `events`; returns the
    /// Wing–Gong verdict.
    fn agree(events: &[Event]) -> bool {
        let verdict = crate::is_linearizable_queue(events);
        assert_eq!(
            verdict,
            super::is_linearizable_queue(events),
            "Wing–Gong verdicts differ on {events:?}"
        );
        assert_eq!(
            History::from_events(events.to_vec()).check_queue_safety(),
            super::check_queue_safety(events),
            "safety violations differ on {events:?}"
        );
        verdict
    }

    /// A history as a recorder with one shared clock would log it: each
    /// of `procs` processes runs its ops (from `codes`) one after another,
    /// and `picks`, then round robin, choose which process takes its next
    /// step, an invocation or a response. Every timestamp is distinct, and
    /// ops of different processes overlap at random. A code picks the
    /// process, the op (enqueue half the time; dequeue of a random value,
    /// or of nothing) and the value, from 8, so values repeat and
    /// dequeues often return what no linearization allows.
    fn random_history(procs: usize, codes: &[u64], picks: &[usize]) -> Vec<Event> {
        let mut scripts = vec![Vec::new(); procs];
        for &code in codes {
            let value = (code / 16) % 8;
            let operation = match code % 6 {
                0..3 => Operation::Enqueue(value),
                3 | 4 => Operation::Dequeue(Some(value)),
                _ => Operation::Dequeue(None),
            };
            scripts[(code / 128) as usize % procs].push(operation);
        }
        let mut next = vec![0; procs];
        let mut open: Vec<Option<Event>> = vec![None; procs];
        let mut events = Vec::new();
        let mut clock = 0;
        let rest = (0..).map(|turn| turn % procs);
        for p in picks.iter().map(|&p| p % procs).chain(rest) {
            if events.len() == codes.len() {
                break;
            }
            clock += 1;
            if let Some(mut event) = open[p].take() {
                event.returned_at = clock;
                events.push(event);
            } else if let Some(&operation) = scripts[p].get(next[p]) {
                next[p] += 1;
                open[p] = Some(Event {
                    process: p,
                    operation,
                    invoked_at: clock,
                    returned_at: 0,
                });
            }
        }
        events
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn random_histories_get_the_reference_verdicts(
            procs in 1usize..4,
            codes in prop::collection::vec(0u64..1024, 0..13),
            picks in prop::collection::vec(0usize..3, 0..48),
        ) {
            let events = random_history(procs, &codes, &picks);
            agree(&events);
            // Coarser clocks tie timestamps, which a recorder never does.
            // The reference safety check orders tied values by hash, so
            // only the verdicts are compared.
            let tied: Vec<Event> = (events.iter())
                .map(|&e| Event { invoked_at: e.invoked_at / 3, returned_at: e.returned_at / 3, ..e })
                .collect();
            prop_assert_eq!(
                crate::is_linearizable_queue(&tied),
                super::is_linearizable_queue(&tied)
            );
        }
    }

    #[test]
    fn random_histories_reach_both_verdicts() {
        let mut rng = TestRng::for_test("both verdicts");
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..2_000 {
            let procs = 1 + rng.below(3) as usize;
            let codes: Vec<u64> = (0..rng.below(13)).map(|_| rng.below(1024)).collect();
            let picks: Vec<usize> = (0..rng.below(48)).map(|_| rng.below(3) as usize).collect();
            if agree(&random_history(procs, &codes, &picks)) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(
            accepted > 200 && rejected > 200,
            "{accepted} accepted, {rejected} rejected"
        );
    }

    /// One tiny simulated run, the shape of the seed sweeps: 3 processes
    /// each doing 2 x (enqueue, dequeue) through a recorder.
    fn tiny_run(algorithm: Algorithm, seed: u64) -> Vec<Event> {
        let sim = Simulation::new(SimConfig {
            processors: 3,
            quantum_ns: 60_000,
            seed,
            ..SimConfig::default()
        });
        let queue = algorithm.build(&sim.platform(), 64);
        let recorder = Recorder::new();
        let handles: Vec<_> = (0..3).map(|p| Some(recorder.handle(p))).collect();
        let handles = Mutex::new(handles);
        sim.run(move |info| {
            let mut handle = handles.lock().unwrap()[info.pid].take().unwrap();
            for i in 0..2_u64 {
                handle.enqueue(&*queue, (info.pid as u64) << 8 | i).unwrap();
                handle.dequeue(&*queue);
            }
        });
        recorder.finish().events().to_vec()
    }

    /// Changes one event of a recorded history, chosen by `pick`: its
    /// interval moved after every other, shrunk to its last instant or
    /// stretched back to the start, or its value or result replaced.
    /// Timestamps are spread out first, so every one stays distinct, as a
    /// recorder's are.
    fn mutate(events: &mut [Event], pick: u64) {
        for event in events.iter_mut() {
            event.invoked_at *= 4;
            event.returned_at *= 4;
        }
        let last = events.iter().map(|e| e.returned_at).max().unwrap_or(0);
        let event = &mut events[(pick % 12) as usize];
        match (pick / 12) % 4 {
            0 => (event.invoked_at, event.returned_at) = (last + 1, last + 2),
            1 => event.invoked_at = event.returned_at - 1,
            2 => event.invoked_at = 1,
            _ => {
                event.operation = match event.operation {
                    Operation::Enqueue(v) => Operation::Enqueue(v ^ 1),
                    Operation::Dequeue(Some(_)) if pick.is_multiple_of(2) => {
                        Operation::Dequeue(None)
                    }
                    Operation::Dequeue(Some(v)) => Operation::Dequeue(Some(v ^ 0x100)),
                    Operation::Dequeue(None) => Operation::Dequeue(Some((pick % 3) << 8)),
                }
            }
        }
    }

    #[test]
    fn recorded_runs_and_their_mutants_get_the_reference_verdicts() {
        let (mut accepted, mut rejected) = (0, 0);
        for algorithm in Algorithm::ALL {
            for seed in 0..16_u64 {
                let mut events = tiny_run(algorithm, seed);
                assert_eq!(events.len(), 12, "{algorithm} seed {seed}");
                assert!(agree(&events), "{algorithm} seed {seed}: {events:?}");
                mutate(&mut events, seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40);
                if agree(&events) {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        assert!(
            accepted >= 16 && rejected >= 16,
            "mutants: {accepted} accepted, {rejected} rejected"
        );
    }
}
