//! Native per-operation costs: uncontended enqueue/dequeue pairs for the
//! six word queues plus the seg-batched extension, the idiomatic heap
//! queues, and comparators (our segment-batched SegQueue, a mutexed
//! VecDeque). The paper's "with only one processor ... completion times
//! are very low" anchor.

use std::collections::VecDeque;

use criterion::{criterion_group, criterion_main, Criterion};
use msq_core::{HerlihyQueue, MsQueue, SegQueue, TwoLockQueue};
use msq_harness::Algorithm;
use msq_platform::NativePlatform;
use std::hint::black_box;

fn word_queues(c: &mut Criterion) {
    let platform = NativePlatform::new();
    let mut group = c.benchmark_group("uncontended_pair");
    for algorithm in Algorithm::WITH_EXTENSIONS {
        let queue = algorithm.build(&platform, 64);
        group.bench_function(algorithm.label(), |b| {
            b.iter(|| {
                queue.enqueue(black_box(7)).unwrap();
                black_box(queue.dequeue())
            })
        });
    }
    group.finish();
}

fn heap_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("uncontended_pair_idiomatic");
    let ms: MsQueue<u64> = MsQueue::new();
    group.bench_function("ms-queue-hazard", |b| {
        b.iter(|| {
            ms.enqueue(black_box(7));
            black_box(ms.dequeue())
        })
    });
    let two_lock: TwoLockQueue<u64> = TwoLockQueue::new();
    group.bench_function("two-lock-parking-lot", |b| {
        b.iter(|| {
            two_lock.enqueue(black_box(7));
            black_box(two_lock.dequeue())
        })
    });
    let seg: SegQueue<u64> = SegQueue::new();
    group.bench_function("seg-queue-hazard", |b| {
        b.iter(|| {
            seg.enqueue(black_box(7u64));
            black_box(seg.dequeue())
        })
    });
    let mutexed = parking_lot::Mutex::new(VecDeque::new());
    group.bench_function("mutex-vecdeque", |b| {
        b.iter(|| {
            mutexed.lock().push_back(black_box(7u64));
            black_box(mutexed.lock().pop_front())
        })
    });
    // Herlihy's universal construction: the "general methodology" the
    // paper contrasts specialized algorithms against. Keep some items in
    // the queue so the per-op whole-object copy is visible.
    let herlihy = HerlihyQueue::new();
    for i in 0..64_u64 {
        herlihy.enqueue(i);
    }
    group.bench_function("herlihy-universal", |b| {
        b.iter(|| {
            herlihy.enqueue(black_box(7u64));
            black_box(herlihy.dequeue())
        })
    });
    group.finish();
}

fn contended_native(c: &mut Criterion) {
    // Two-thread ping: one producer thread runs in the background while
    // the measured thread does pairs; captures cache-line transfer costs
    // even on a single-core host (via preemption) and real contention on
    // multicore hosts.
    let mut group = c.benchmark_group("contended_pair_2thread");
    group.sample_size(20);
    for algorithm in [
        Algorithm::SingleLock,
        Algorithm::NewTwoLock,
        Algorithm::NewNonBlocking,
        Algorithm::SegBatched,
    ] {
        let platform = NativePlatform::new();
        let queue = algorithm.build(&platform, 4_096);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let background = {
            let queue = std::sync::Arc::clone(&queue);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let _ = queue.enqueue(1);
                    let _ = queue.dequeue();
                }
            })
        };
        group.bench_function(algorithm.label(), |b| {
            b.iter(|| {
                queue.enqueue(black_box(7)).unwrap();
                black_box(queue.dequeue())
            })
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        background.join().unwrap();
    }
    group.finish();
}

criterion_group!(benches, word_queues, heap_queues, contended_native);
criterion_main!(benches);
