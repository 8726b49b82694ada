//! Property-based tests: every queue implementation is sequentially
//! equivalent to the FIFO specification under arbitrary operation
//! sequences, and the core data words (tagged pointers, arena, rings)
//! uphold their invariants.

use ms_queues::linearize::SequentialQueue;
use ms_queues::platform::ConcurrentStack;
use ms_queues::{Algorithm, ConcurrentWordQueue, NativePlatform, Tagged};
use ms_queues::{LamportQueue, TreiberStack};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    Enqueue(u64),
    Dequeue,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![(0u64..1_000_000).prop_map(Op::Enqueue), Just(Op::Dequeue),]
}

/// Single-threaded model equivalence: the implementation must agree with
/// the sequential specification on every operation's result.
fn check_model_equivalence(algorithm: Algorithm, ops: &[Op]) {
    let platform = NativePlatform::new();
    let queue = algorithm.build(&platform, 512);
    let mut spec = SequentialQueue::new();
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Enqueue(value) => {
                if spec.len() < 512 {
                    queue
                        .enqueue(value)
                        .unwrap_or_else(|e| panic!("{algorithm} step {step}: {e}"));
                    spec.enqueue(value);
                }
            }
            Op::Dequeue => {
                assert_eq!(
                    queue.dequeue(),
                    spec.dequeue(),
                    "{algorithm} diverged from spec at step {step}"
                );
            }
        }
    }
    // Drain and compare the remainder.
    loop {
        let (got, want) = (queue.dequeue(), spec.dequeue());
        assert_eq!(got, want, "{algorithm} diverged from spec during drain");
        if want.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ms_nonblocking_matches_model(ops in prop::collection::vec(op_strategy(), 0..400)) {
        check_model_equivalence(Algorithm::NewNonBlocking, &ops);
    }

    #[test]
    fn two_lock_matches_model(ops in prop::collection::vec(op_strategy(), 0..400)) {
        check_model_equivalence(Algorithm::NewTwoLock, &ops);
    }

    #[test]
    fn single_lock_matches_model(ops in prop::collection::vec(op_strategy(), 0..400)) {
        check_model_equivalence(Algorithm::SingleLock, &ops);
    }

    #[test]
    fn mellor_crummey_matches_model(ops in prop::collection::vec(op_strategy(), 0..400)) {
        check_model_equivalence(Algorithm::MellorCrummey, &ops);
    }

    #[test]
    fn plj_matches_model(ops in prop::collection::vec(op_strategy(), 0..400)) {
        check_model_equivalence(Algorithm::PljNonBlocking, &ops);
    }

    #[test]
    fn valois_matches_model(ops in prop::collection::vec(op_strategy(), 0..400)) {
        check_model_equivalence(Algorithm::Valois, &ops);
    }

    #[test]
    fn seg_batched_matches_model(ops in prop::collection::vec(op_strategy(), 0..400)) {
        check_model_equivalence(Algorithm::SegBatched, &ops);
    }

    /// The heap SegQueue against the same model, with a segment size small
    /// enough that the op sequences constantly cross segment boundaries.
    #[test]
    fn heap_seg_queue_matches_model(ops in prop::collection::vec(op_strategy(), 0..400)) {
        use ms_queues::{SegConfig, SegQueue};
        let queue: SegQueue<u64> = SegQueue::with_config(SegConfig {
            seg_size: 4,
            ..SegConfig::DEFAULT
        });
        let mut spec = SequentialQueue::new();
        for &op in &ops {
            match op {
                Op::Enqueue(value) => {
                    queue.enqueue(value);
                    spec.enqueue(value);
                }
                Op::Dequeue => {
                    prop_assert_eq!(queue.dequeue(), spec.dequeue());
                }
            }
        }
        loop {
            let (got, want) = (queue.dequeue(), spec.dequeue());
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    #[test]
    fn lamport_ring_matches_model_with_bound(ops in prop::collection::vec(op_strategy(), 0..400)) {
        let platform = NativePlatform::new();
        let ring = LamportQueue::with_capacity(&platform, 16);
        let mut spec = SequentialQueue::new();
        for &op in &ops {
            match op {
                Op::Enqueue(value) => {
                    let got = ring.enqueue(value);
                    if spec.len() < 16 {
                        prop_assert!(got.is_ok());
                        spec.enqueue(value);
                    } else {
                        prop_assert!(got.is_err(), "full ring must reject");
                    }
                }
                Op::Dequeue => {
                    prop_assert_eq!(ring.dequeue(), spec.dequeue());
                }
            }
        }
    }

    #[test]
    fn treiber_stack_matches_vec_model(ops in prop::collection::vec(op_strategy(), 0..400)) {
        let platform = NativePlatform::new();
        let stack = TreiberStack::with_capacity(&platform, 256);
        let mut spec: Vec<u64> = Vec::new();
        for &op in &ops {
            match op {
                Op::Enqueue(value) => {
                    if spec.len() < 256 {
                        prop_assert!(stack.push(value).is_ok());
                        spec.push(value);
                    }
                }
                Op::Dequeue => {
                    prop_assert_eq!(stack.pop(), spec.pop());
                }
            }
        }
    }

    #[test]
    fn tagged_words_round_trip(index in 0u32..u32::MAX, tag in any::<u32>()) {
        let word = Tagged::new(index, tag);
        prop_assert_eq!(word.index(), index);
        prop_assert_eq!(word.tag(), tag);
        prop_assert_eq!(Tagged::from_raw(word.raw()), word);
        let bumped = word.with_index(index);
        prop_assert_eq!(bumped.tag(), tag.wrapping_add(1));
        prop_assert_eq!(bumped.index(), index);
    }

    #[test]
    fn tagged_words_with_distinct_histories_differ(
        index in 0u32..1000,
        tag_a in any::<u32>(),
        tag_b in any::<u32>(),
    ) {
        prop_assume!(tag_a != tag_b);
        prop_assert_ne!(Tagged::new(index, tag_a), Tagged::new(index, tag_b));
    }
}

/// Mixed per-op and bulk traffic for the batch-capable queues: arbitrary
/// interleavings of `enqueue`/`dequeue`/`enqueue_batch`/`dequeue_batch`
/// must stay sequentially equivalent to the FIFO spec (a batch of k is k
/// spec operations in slice order).
#[derive(Clone, Debug)]
enum BatchOp {
    Enqueue(u64),
    Dequeue,
    EnqueueBatch(Vec<u64>),
    DequeueBatch(usize),
}

fn batch_op_strategy() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        (0u64..1_000_000).prop_map(BatchOp::Enqueue),
        Just(BatchOp::Dequeue),
        prop::collection::vec(0u64..1_000_000, 0..40).prop_map(BatchOp::EnqueueBatch),
        (0usize..40).prop_map(BatchOp::DequeueBatch),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The word-level seg-batched queue through the trait's batch entry
    /// points: a successful `enqueue_batch` is the values in slice order,
    /// `dequeue_batch(max)` is a prefix of what the spec would hand out.
    #[test]
    fn word_seg_batch_ops_match_model(ops in prop::collection::vec(batch_op_strategy(), 0..200)) {
        let platform = NativePlatform::new();
        let queue = Algorithm::SegBatched.build(&platform, 2_048);
        let mut spec = SequentialQueue::new();
        let mut out = Vec::new();
        for op in &ops {
            match op {
                BatchOp::Enqueue(value) => {
                    if spec.len() < 1_024 {
                        queue.enqueue(*value).unwrap();
                        spec.enqueue(*value);
                    }
                }
                BatchOp::Dequeue => {
                    prop_assert_eq!(queue.dequeue(), spec.dequeue());
                }
                BatchOp::EnqueueBatch(values) => {
                    if spec.len() + values.len() < 1_024 {
                        queue.enqueue_batch(values).unwrap();
                        for &v in values {
                            spec.enqueue(v);
                        }
                    }
                }
                BatchOp::DequeueBatch(max) => {
                    out.clear();
                    let taken = queue.dequeue_batch(&mut out, *max);
                    prop_assert_eq!(taken, out.len());
                    prop_assert!(taken <= *max);
                    // Single-threaded, a batch dequeue must drain
                    // min(max, len) values in spec order.
                    prop_assert_eq!(taken, (*max).min(spec.len()));
                    for &got in &out {
                        prop_assert_eq!(Some(got), spec.dequeue());
                    }
                }
            }
        }
        loop {
            let (got, want) = (queue.dequeue(), spec.dequeue());
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    /// The heap `SegQueue` batch API against the same model, with 4-slot
    /// segments so batches constantly splice whole chains.
    #[test]
    fn heap_seg_batch_ops_match_model(ops in prop::collection::vec(batch_op_strategy(), 0..200)) {
        use ms_queues::{SegConfig, SegQueue};
        let queue: SegQueue<u64> = SegQueue::with_config(SegConfig {
            seg_size: 4,
            ..SegConfig::DEFAULT
        });
        let mut spec = SequentialQueue::new();
        let mut out = Vec::new();
        for op in &ops {
            match op {
                BatchOp::Enqueue(value) => {
                    queue.enqueue(*value);
                    spec.enqueue(*value);
                }
                BatchOp::Dequeue => {
                    prop_assert_eq!(queue.dequeue(), spec.dequeue());
                }
                BatchOp::EnqueueBatch(values) => {
                    queue.enqueue_batch(values);
                    for &v in values {
                        spec.enqueue(v);
                    }
                }
                BatchOp::DequeueBatch(max) => {
                    out.clear();
                    let taken = queue.dequeue_batch(&mut out, *max);
                    prop_assert_eq!(taken, out.len());
                    prop_assert_eq!(taken, (*max).min(spec.len()));
                    for &got in &out {
                        prop_assert_eq!(Some(got), spec.dequeue());
                    }
                }
            }
        }
        loop {
            let (got, want) = (queue.dequeue(), spec.dequeue());
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    /// `BatchFull` contract: a failed bulk enqueue has pushed exactly the
    /// reported prefix, in order, and the untouched suffix is retriable —
    /// for any batch size against any (tiny) queue capacity.
    #[test]
    fn batch_full_prefix_is_exact_and_suffix_retries(
        capacity in 1u32..24,
        total in 1usize..300,
    ) {
        use ms_queues::{BackoffConfig, WordSegQueue};
        let platform = NativePlatform::new();
        let queue =
            WordSegQueue::with_seg_size_and_backoff(&platform, capacity, 4, BackoffConfig::DEFAULT);
        let values: Vec<u64> = (0..total as u64).collect();
        let mut sent = 0usize;
        let mut received = Vec::with_capacity(total);
        let mut rest: &[u64] = &values;
        loop {
            match queue.enqueue_batch(rest) {
                Ok(()) => break,
                Err(e) => {
                    sent += e.pushed;
                    rest = &rest[e.pushed..];
                    prop_assert!(!rest.is_empty(), "Err with nothing left to push");
                    // Drain what made it in; the prefix must be exact.
                    while let Some(v) = queue.dequeue() {
                        received.push(v);
                    }
                    prop_assert_eq!(received.len(), sent);
                }
            }
        }
        while let Some(v) = queue.dequeue() {
            received.push(v);
        }
        prop_assert_eq!(received, values);
    }
}

/// The segment-boundary race: with 2-slot segments, every other operation
/// crosses a boundary, so enqueuers racing the append CAS and dequeuers
/// racing the unlink CAS constantly interleave with slot claims. FIFO per
/// producer and exactly-once delivery must survive it.
#[test]
fn seg_queue_boundary_race_preserves_fifo() {
    use ms_queues::{SegConfig, SegQueue};
    use std::sync::Arc;

    for _ in 0..10 {
        let queue: Arc<SegQueue<u64>> = Arc::new(SegQueue::with_config(SegConfig {
            seg_size: 2,
            ..SegConfig::DEFAULT
        }));
        let producers = 3_u64;
        let per_producer = 500_u64;
        let mut handles = Vec::new();
        for t in 0..producers {
            let queue = Arc::clone(&queue);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    queue.enqueue((t << 32) | i);
                }
            }));
        }
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut last = vec![None::<u64>; producers as usize];
                let mut seen = 0;
                while seen < producers * per_producer {
                    if let Some(v) = queue.dequeue() {
                        let producer = (v >> 32) as usize;
                        let seq = v & 0xffff_ffff;
                        if let Some(prev) = last[producer] {
                            assert!(seq > prev, "producer {producer} reordered");
                        }
                        last[producer] = Some(seq);
                        seen += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        for handle in handles {
            handle.join().unwrap();
        }
        consumer.join().unwrap();
        assert!(queue.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arena conservation under arbitrary alloc/free traffic.
    #[test]
    fn arena_never_double_allocates(script in prop::collection::vec(any::<bool>(), 1..200)) {
        use ms_queues::arena::NodeArena;
        let platform = NativePlatform::new();
        let arena = NodeArena::new(&platform, 16, None);
        let mut held: Vec<u32> = Vec::new();
        for take in script {
            if take {
                if let Some(node) = arena.alloc() {
                    prop_assert!(!held.contains(&node), "double allocation");
                    held.push(node);
                }
            } else if let Some(node) = held.pop() {
                arena.free(node);
            }
        }
        // Everything still accounted for.
        let mut drained = held.len();
        while arena.alloc().is_some() {
            drained += 1;
        }
        prop_assert_eq!(drained, 16);
    }
}
