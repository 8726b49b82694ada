//! Section 3.2 made mechanical: small concurrent histories recorded from
//! the real implementations are checked against the sequential FIFO
//! specification with the exhaustive Wing–Gong search; large histories get
//! the fast whole-history checks.

use std::sync::{Arc, Mutex};

use ms_queues::{
    is_linearizable_queue, schedule_sweep, Algorithm, NativePlatform, Recorder, SimConfig,
    Simulation,
};

use ms_queues::ConcurrentWordQueue;

/// Records a small burst of genuinely concurrent operations and checks
/// the exact history is linearizable. Repeated to sample many real
/// interleavings.
fn linearizable_small_windows(algorithm: Algorithm) {
    let platform = NativePlatform::new();
    linearizable_small_windows_with(&format!("{algorithm}"), || algorithm.build(&platform, 64));
}

/// The same check for any queue constructor (used for configurations the
/// [`Algorithm`] registry doesn't name, like a single-shard sharded queue).
fn linearizable_small_windows_with(name: &str, build: impl Fn() -> Arc<dyn ConcurrentWordQueue>) {
    for round in 0..30 {
        let queue = build();
        let recorder = Recorder::new();
        let mut handles = Vec::new();
        for t in 0..3_u64 {
            let queue = Arc::clone(&queue);
            let mut handle = recorder.handle(t as usize);
            handles.push(std::thread::spawn(move || {
                // 2 enqueues + 2 dequeues per thread = 12 ops per window:
                // well inside the exhaustive checker's comfort zone.
                for i in 0..2_u64 {
                    let value = (round << 16) | (t << 8) | i;
                    handle.enqueue(&*queue, value).unwrap();
                    handle.dequeue(&*queue);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let history = recorder.finish();
        assert!(
            history.check_queue_safety().is_empty(),
            "{name}: fast checks failed in round {round}"
        );
        assert!(
            is_linearizable_queue(history.events()),
            "{name}: history not linearizable in round {round}: {:?}",
            history.events()
        );
    }
}

/// Fast whole-history checks over a larger recorded run.
fn safe_large_history(algorithm: Algorithm) {
    let platform = NativePlatform::new();
    let queue = algorithm.build(&platform, 8_192);
    let recorder = Recorder::new();
    let mut handles = Vec::new();
    for t in 0..4_u64 {
        let queue = Arc::clone(&queue);
        let mut handle = recorder.handle(t as usize);
        handles.push(std::thread::spawn(move || {
            for i in 0..2_000_u64 {
                let value = (t << 32) | i;
                while handle.enqueue(&*queue, value).is_err() {
                    std::thread::yield_now();
                }
                handle.dequeue(&*queue);
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    let history = recorder.finish();
    assert_eq!(history.len(), 4 * 4_000);
    let violations = history.check_queue_safety();
    assert!(
        violations.is_empty(),
        "{algorithm}: violations: {violations:?}"
    );
}

/// The same small-window check on the deterministic simulator, sampling
/// preemption-driven interleavings a host scheduler rarely produces. The
/// recorder's logical clock is host-level, so the recorded intervals are
/// the real-time order of the simulated execution. [`schedule_sweep`]
/// perturbs the deterministic schedule across 32 seeds, so each algorithm
/// is checked against 32 distinct (individually reproducible)
/// interleavings; on failure the sweep prints the seed to replay.
fn linearizable_small_windows_simulated(algorithm: Algorithm) {
    let base = SimConfig {
        processors: 3,
        quantum_ns: 60_000,
        ..SimConfig::default()
    };
    schedule_sweep(base, 32, |cfg| {
        let seed = cfg.seed;
        let sim = Simulation::new(cfg);
        let queue = algorithm.build(&sim.platform(), 64);
        let recorder = Recorder::new();
        let handles: Vec<_> = (0..3).map(|p| Some(recorder.handle(p))).collect();
        let handles = Arc::new(Mutex::new(handles));
        sim.run({
            let queue = Arc::clone(&queue);
            let handles = Arc::clone(&handles);
            move |info| {
                let mut handle = handles.lock().unwrap()[info.pid].take().unwrap();
                for i in 0..2_u64 {
                    let value = (info.pid as u64) << 8 | i;
                    handle.enqueue(&*queue, value).unwrap();
                    handle.dequeue(&*queue);
                }
            }
        });
        let history = recorder.finish();
        assert!(
            history.check_queue_safety().is_empty(),
            "{algorithm}: fast checks failed at seed {seed:#x}"
        );
        assert!(
            is_linearizable_queue(history.events()),
            "{algorithm}: simulated history not linearizable at seed \
             {seed:#x}: {:?}",
            history.events()
        );
    });
}

macro_rules! linearizability_tests {
    ($($name:ident => $alg:expr),+ $(,)?) => {
        $(
            mod $name {
                use super::*;

                #[test]
                fn small_windows_are_linearizable() {
                    linearizable_small_windows($alg);
                }

                #[test]
                fn simulated_windows_are_linearizable() {
                    linearizable_small_windows_simulated($alg);
                }

                #[test]
                fn large_history_passes_fast_checks() {
                    safe_large_history($alg);
                }
            }
        )+
    };
}

linearizability_tests! {
    single_lock => Algorithm::SingleLock,
    mellor_crummey => Algorithm::MellorCrummey,
    valois => Algorithm::Valois,
    new_two_lock => Algorithm::NewTwoLock,
    plj => Algorithm::PljNonBlocking,
    new_nonblocking => Algorithm::NewNonBlocking,
    seg_batched => Algorithm::SegBatched,
}

/// The sharded front-end is *relaxed*: only per-shard FIFO is promised, so
/// the whole-queue Wing–Gong check does not apply to a multi-shard
/// configuration (a sweep can return `None` from a momentarily nonempty
/// queue, and values from different shards interleave freely). What we
/// check instead:
///
/// 1. a **single-shard** composition is a linearizable queue — the
///    dispatch layer adds no reordering of its own;
/// 2. a **multi-shard** run satisfies the per-shard FIFO spec: each
///    producer is thread-affine, so all its values funnel through one
///    shard, and shard FIFO means every consumer must observe each
///    producer's values in strictly increasing sequence order; plus
///    exactly-once conservation and emptiness at quiescence.
mod sharded {
    use super::*;
    use ms_queues::WordShardedQueue;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn single_shard_composition_is_linearizable() {
        let platform = NativePlatform::new();
        linearizable_small_windows_with("sharded(1)", || {
            Arc::new(WordShardedQueue::with_shards(&platform, 64, 1, None))
        });
    }

    fn check_per_shard_fifo(consumed: &[Vec<u64>], producers: u64, per_producer: u64) {
        // Per consumer, per producer: sequence numbers strictly increase.
        for (c, seq) in consumed.iter().enumerate() {
            let mut last = vec![None::<u64>; producers as usize];
            for &v in seq {
                let producer = (v >> 32) as usize;
                let i = v & 0xffff_ffff;
                if let Some(prev) = last[producer] {
                    assert!(
                        i > prev,
                        "consumer {c} saw producer {producer} reordered: \
                         {i} after {prev}"
                    );
                }
                last[producer] = Some(i);
            }
        }
        // Exactly-once conservation across all consumers.
        let mut all: Vec<u64> = consumed.iter().flatten().copied().collect();
        all.sort_unstable();
        let mut want: Vec<u64> = (0..producers)
            .flat_map(|t| (0..per_producer).map(move |i| (t << 32) | i))
            .collect();
        want.sort_unstable();
        assert_eq!(all, want, "values lost or duplicated");
    }

    #[test]
    fn multi_shard_preserves_per_shard_fifo_natively() {
        let producers = 4_u64;
        let per_producer = 1_000_u64;
        let platform = NativePlatform::new();
        // 4 shards of 4096 slots each: even if every producer landed on
        // one shard, nothing spills to a neighbour, so each producer's
        // values stay on a single FIFO shard.
        let queue: Arc<WordShardedQueue<NativePlatform>> =
            Arc::new(WordShardedQueue::with_shards(&platform, 16_384, 4, None));
        let taken = Arc::new(AtomicU64::new(0));
        let total = producers * per_producer;

        let mut producer_handles = Vec::new();
        for t in 0..producers {
            let queue = Arc::clone(&queue);
            producer_handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    queue.enqueue((t << 32) | i).unwrap();
                }
            }));
        }
        let mut consumer_handles = Vec::new();
        for _ in 0..2 {
            let queue = Arc::clone(&queue);
            let taken = Arc::clone(&taken);
            consumer_handles.push(std::thread::spawn(move || {
                let mut local = Vec::new();
                while taken.load(Ordering::Relaxed) < total {
                    if let Some(v) = queue.dequeue() {
                        taken.fetch_add(1, Ordering::Relaxed);
                        local.push(v);
                    } else {
                        std::thread::yield_now();
                    }
                }
                local
            }));
        }
        for handle in producer_handles {
            handle.join().unwrap();
        }
        let consumed: Vec<Vec<u64>> = consumer_handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();

        check_per_shard_fifo(&consumed, producers, per_producer);
        // Quiescent emptiness: with no producers left, a full sweep must
        // report the queue empty.
        assert_eq!(queue.dequeue(), None);
    }

    #[test]
    fn multi_shard_preserves_per_shard_fifo_simulated() {
        use ms_queues::{schedule_sweep, SimConfig, Simulation};

        let per_producer = 64_u64;
        let producers = 2_u64; // pids 0 and 1 produce; pids 2 and 3 consume
        let total = producers * per_producer;
        let base = SimConfig {
            processors: 4,
            ..SimConfig::default()
        };
        // 32 seeded schedules: each perturbs which producer/consumer the
        // virtual-time scheduler favours, so the per-shard FIFO promise is
        // checked across many distinct interleavings.
        schedule_sweep(base, 32, |cfg| {
            let sim = Simulation::new(cfg);
            let queue = Arc::new(WordShardedQueue::with_shards(
                &sim.platform(),
                16_384,
                4,
                None,
            ));
            let taken = Arc::new(AtomicU64::new(0));
            let consumed = Arc::new(Mutex::new(vec![Vec::new(), Vec::new()]));
            sim.run({
                let queue = Arc::clone(&queue);
                let taken = Arc::clone(&taken);
                let consumed = Arc::clone(&consumed);
                move |info| {
                    if (info.pid as u64) < producers {
                        let t = info.pid as u64;
                        for i in 0..per_producer {
                            queue.enqueue((t << 32) | i).unwrap();
                        }
                    } else {
                        let mut local = Vec::new();
                        while taken.load(Ordering::Relaxed) < total {
                            if let Some(v) = queue.dequeue() {
                                taken.fetch_add(1, Ordering::Relaxed);
                                local.push(v);
                            }
                        }
                        consumed.lock().unwrap()[info.pid - 2] = local;
                    }
                }
            });
            let consumed = Arc::try_unwrap(consumed).unwrap().into_inner().unwrap();
            check_per_shard_fifo(&consumed, producers, per_producer);
            assert_eq!(queue.dequeue(), None);
        });
    }
}
