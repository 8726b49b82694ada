//! The native workloads: the five production queues on host threads.
//! Closed loops on one thread; the traced run adds a two-thread round per
//! queue as a contention diagnostic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use ms_queues::{
    ConcurrentWordQueue, MemBudget, MsQueue, NativePlatform, Platform, SegConfig, SegQueue,
    SegStats, ShardedQueue, TwoLockQueue, WordMsQueue,
};

use crate::os::{self, Usage};
use crate::stats::Latencies;
use crate::trace::{
    push_platform_layer, push_queue_layer, push_run_layer, queue_op, write_trace, OpStats, Side,
    TracedPlatform, Tracer,
};
use crate::{splitmix64, Opts, Run};

/// Enqueue→dequeue pairs per queue per round.
const PAIRS: u64 = 2_000_000;
/// Pairs per queue in the traced run, which keeps every latency sample.
const TRACE_PAIRS: u64 = 200_000;
/// Longest burst of `native-burst`, and the arena queue's capacity.
const MAX_BURST: u32 = 16_384;
/// Rounds a native workload runs even when the budget is spent sooner.
const MIN_ROUNDS: usize = 5;

/// The production queues, by their metric prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// `WordMsQueue<NativePlatform>`: the paper's Figure 1 over an arena.
    WordMs,
    /// `MsQueue<u64>`: hazard-pointer reclamation.
    Ms,
    /// `SegQueue<u64>`: array segments, a pool and a `MemBudget`.
    Seg,
    /// `ShardedQueue<u64>`: segment queues behind thread-affine dispatch.
    Sharded,
    /// `TwoLockQueue<u64>`: the paper's Figure 2.
    TwoLock,
}

impl Kind {
    const ALL: [Kind; 5] = [
        Kind::WordMs,
        Kind::Ms,
        Kind::Seg,
        Kind::Sharded,
        Kind::TwoLock,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::WordMs => "word_ms",
            Kind::Ms => "ms",
            Kind::Seg => "seg",
            Kind::Sharded => "sharded",
            Kind::TwoLock => "two_lock",
        }
    }
}

/// The two operations the workloads need, over each queue's own API.
trait BenchQueue: Sync {
    /// Enqueues `value`; false when the queue is full.
    fn push(&self, value: u64) -> bool;
    fn pop(&self) -> Option<u64>;
    /// Segment lifecycle counters and the budget's peak, for `SegQueue`.
    fn seg_stats(&self) -> Option<(SegStats, u64)> {
        None
    }
}

impl<P: Platform> BenchQueue for WordMsQueue<P> {
    fn push(&self, value: u64) -> bool {
        self.enqueue(value).is_ok()
    }
    fn pop(&self) -> Option<u64> {
        self.dequeue()
    }
}

impl BenchQueue for MsQueue<u64> {
    fn push(&self, value: u64) -> bool {
        self.enqueue(value);
        true
    }
    fn pop(&self) -> Option<u64> {
        self.dequeue()
    }
}

impl BenchQueue for SegQueue<u64> {
    fn push(&self, value: u64) -> bool {
        self.enqueue(value);
        true
    }
    fn pop(&self) -> Option<u64> {
        self.dequeue()
    }
    fn seg_stats(&self) -> Option<(SegStats, u64)> {
        Some((self.stats(), self.budget().peak()))
    }
}

impl BenchQueue for ShardedQueue<u64> {
    fn push(&self, value: u64) -> bool {
        self.enqueue(value);
        true
    }
    fn pop(&self) -> Option<u64> {
        self.dequeue()
    }
}

impl BenchQueue for TwoLockQueue<u64> {
    fn push(&self, value: u64) -> bool {
        self.enqueue(value);
        true
    }
    fn pop(&self) -> Option<u64> {
        self.dequeue()
    }
}

/// The work of one pass: bursts of enqueues, each followed by as many
/// dequeues. `native-paired` is all bursts of one.
#[derive(Clone, Debug)]
enum Shape {
    Paired(u64),
    Bursts(Vec<u32>),
}

impl Shape {
    fn pairs(&self) -> u64 {
        match self {
            Shape::Paired(pairs) => *pairs,
            Shape::Bursts(lens) => lens.iter().map(|&l| u64::from(l)).sum(),
        }
    }

    /// Burst lengths in [1, MAX_BURST] drawn from the seed, clipped to
    /// `pairs` in total.
    fn bursts(seed: u64, pairs: u64) -> Shape {
        let base = splitmix64(seed);
        let mut lens = Vec::new();
        let mut left = pairs;
        for k in 0.. {
            if left == 0 {
                break;
            }
            let len = (splitmix64(base.wrapping_add(k)) % u64::from(MAX_BURST) + 1).min(left);
            lens.push(len as u32);
            left -= len;
        }
        Shape::Bursts(lens)
    }
}

/// Runs `shape` over `queue`, checking that every dequeue returns the next
/// value in FIFO order, so each value comes out exactly once. Returns the
/// number of pairs that failed the check.
/// `TRACED` times each operation into the attached tracer.
fn exercise<Q: BenchQueue + ?Sized, const TRACED: bool>(queue: &Q, shape: &Shape) -> u64 {
    let push = |v: u64| {
        if TRACED {
            queue_op(Side::Enqueue, || queue.push(v), |ok| !ok)
        } else {
            queue.push(v)
        }
    };
    let pop = || {
        if TRACED {
            queue_op(Side::Dequeue, || queue.pop(), Option::is_none)
        } else {
            queue.pop()
        }
    };
    let mut failed = 0;
    let mut burst = |next: u64, len: u64| {
        for v in next..next + len {
            failed += u64::from(!push(v));
        }
        for v in next..next + len {
            failed += u64::from(pop() != Some(v));
        }
    };
    match shape {
        Shape::Paired(pairs) => (0..*pairs).for_each(|v| burst(v, 1)),
        Shape::Bursts(lens) => {
            let mut next = 0;
            for &len in lens {
                burst(next, u64::from(len));
                next += u64::from(len);
            }
        }
    }
    failed
}

/// One queue's pass: construction, the exercise, and the end check that
/// the queue is empty again.
struct Pass {
    kind: Kind,
    setup_ns: u64,
    exec_ns: u64,
    check_ns: u64,
    failed: u64,
    seg: Option<(SegStats, u64)>,
}

fn measure<Q: BenchQueue, const TRACED: bool>(
    kind: Kind,
    build: impl FnOnce() -> Q,
    shape: &Shape,
) -> Pass {
    let t0 = Instant::now();
    let queue = build();
    let t1 = Instant::now();
    let failed = exercise::<Q, TRACED>(&queue, shape);
    let t2 = Instant::now();
    let leftover = queue.pop().is_some();
    let t3 = Instant::now();
    let seg = queue.seg_stats();
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    Pass {
        kind,
        setup_ns: ns(t0, t1),
        exec_ns: ns(t1, t2),
        check_ns: ns(t2, t3),
        failed: failed + u64::from(leftover),
        seg,
    }
}

fn seg_queue() -> SegQueue<u64> {
    let budget = Arc::new(MemBudget::unlimited(&NativePlatform::new()));
    SegQueue::with_config_and_budget(SegConfig::DEFAULT, budget)
}

/// Builds and exercises `kind`.
fn pass<const TRACED: bool>(kind: Kind, shape: &Shape) -> Pass {
    match kind {
        Kind::WordMs => measure::<_, TRACED>(
            kind,
            || WordMsQueue::with_capacity(&NativePlatform::new(), MAX_BURST),
            shape,
        ),
        Kind::Ms => measure::<_, TRACED>(kind, MsQueue::<u64>::new, shape),
        Kind::Seg => measure::<_, TRACED>(kind, seg_queue, shape),
        Kind::Sharded => measure::<_, TRACED>(kind, ShardedQueue::<u64>::new, shape),
        Kind::TwoLock => measure::<_, TRACED>(kind, TwoLockQueue::<u64>::new, shape),
    }
}

/// The five constructors, as one round sets them up.
fn build_all() -> impl Sized {
    (
        WordMsQueue::with_capacity(&NativePlatform::new(), MAX_BURST),
        MsQueue::<u64>::new(),
        seg_queue(),
        ShardedQueue::<u64>::new(),
        TwoLockQueue::<u64>::new(),
    )
}

/// Round `round`'s queue order: rotated, so no queue always runs first.
fn order(round: usize) -> impl Iterator<Item = Kind> {
    (0..Kind::ALL.len()).map(move |j| Kind::ALL[(round + j) % Kind::ALL.len()])
}

fn record_pass(run: &mut Run, p: &Pass, pairs: u64) {
    run.attempted += pairs;
    if p.failed > 0 {
        run.fail(
            p.failed,
            format!(
                "{}: {} pairs lost, duplicated or reordered",
                p.kind.name(),
                p.failed
            ),
        );
    }
}

/// An untraced pass, checked, with the queue's own throughput.
fn timed_pass(run: &mut Run, kind: Kind, shape: &Shape) -> Pass {
    let p = pass::<false>(kind, shape);
    let pairs = shape.pairs();
    record_pass(run, &p, pairs);
    run.push(
        format!("{}.pairs_per_s", kind.name()),
        "1/s",
        pairs as f64 * 1e9 / p.exec_ns as f64,
    );
    p
}

pub fn paired(opts: Opts) -> Run {
    workload(
        opts,
        Shape::Paired(PAIRS),
        Shape::Paired(TRACE_PAIRS),
        "native-paired",
    )
}

pub fn burst(opts: Opts) -> Run {
    workload(
        opts,
        Shape::bursts(opts.seed, PAIRS),
        Shape::bursts(opts.seed, TRACE_PAIRS),
        "native-burst",
    )
}

fn workload(opts: Opts, shape: Shape, trace_shape: Shape, name: &str) -> Run {
    let mut run = Run::default();
    if opts.trace {
        traced(opts, &trace_shape, name, &mut run);
        return run;
    }
    run.time_setups(build_all);
    let pairs = shape.pairs();
    // Warm-up: lets the allocator and the hazard domain reach their
    // steady state before the timed rounds. Untimed, but still checked.
    for kind in Kind::ALL {
        record_pass(&mut run, &pass::<false>(kind, &shape), pairs);
    }
    opts.rounds(MIN_ROUNDS, |round| {
        let exec_ns: u64 = order(round)
            .map(|kind| timed_pass(&mut run, kind, &shape).exec_ns)
            .sum();
        let total = pairs * Kind::ALL.len() as u64;
        run.push("work_per_s", "1/s", total as f64 * 1e9 / exec_ns as f64);
    });
    run
}

fn traced(opts: Opts, shape: &Shape, name: &str, run: &mut Run) {
    let pairs = shape.pairs();
    opts.rounds(1, |round| {
        // Untraced work: per-queue throughput, the baseline for the
        // tracing overhead, and the two-thread contention rounds. The OS
        // layer is measured over all of it: single-thread passes alone
        // make almost no system calls.
        let usage = Usage::now();
        let plain_ns: u64 = order(round)
            .map(|kind| {
                let p = timed_pass(run, kind, shape);
                p.setup_ns + p.exec_ns + p.check_ns
            })
            .sum();
        for kind in Kind::ALL {
            contended(run, kind);
        }
        let usage = Usage::now().since(&usage);
        os::push_layer(
            run,
            &usage,
            (pairs + CONTENDED_PAIRS) * Kind::ALL.len() as u64,
        );

        // Traced passes: each operation's host latency.
        let tracer = Tracer::new();
        let (mut enq, mut deq) = (OpStats::default(), OpStats::default());
        let (mut setup, mut exec, mut check) = (Vec::new(), Vec::new(), Vec::new());
        let mut traced_ns = 0;
        for kind in order(round) {
            let (p, _) = tracer.span(kind.name(), None, |_| {
                let _attached = tracer.attach(0);
                pass::<true>(kind, shape)
            });
            record_pass(run, &p, pairs);
            traced_ns += p.setup_ns + p.exec_ns + p.check_ns;
            setup.push(p.setup_ns);
            exec.push(p.exec_ns);
            check.push(p.check_ns);
            let mut t = tracer.totals();
            let (e, d) = (std::mem::take(&mut t.enq), std::mem::take(&mut t.deq));
            drop(t);
            if round == 0 {
                let (e, d) = (Latencies::new(e.ns.clone()), Latencies::new(d.ns.clone()));
                run.note(format!("{}.enq_ns {}", kind.name(), e.describe()));
                run.note(format!("{}.deq_ns {}", kind.name(), d.describe()));
            }
            enq.merge(e);
            deq.merge(d);
            if let Some((stats, peak)) = p.seg {
                push_seg(run, stats, peak);
            }
        }
        run.push(
            "trace.overhead_share",
            "share",
            traced_ns as f64 / plain_ns as f64 - 1.0,
        );
        // The arena queue's platform calls, in a pass of their own so that
        // timing them does not inflate its operation latencies above.
        let (p, _) = tracer.span("word_ms.platform", None, |_| {
            let _attached = tracer.attach(0);
            measure::<_, false>(
                Kind::WordMs,
                || WordMsQueue::with_capacity(&TracedPlatform(NativePlatform::new()), MAX_BURST),
                shape,
            )
        });
        record_pass(run, &p, pairs);
        push_run_layer(run, setup, exec, check);
        let calls = push_platform_layer(run, &mut tracer.totals());
        let (e, d) = push_queue_layer(run, enq, deq);
        if round == 0 {
            run.note(format!("platform.call_ns (word_ms) {}", calls.describe()));
            run.note(format!("queue.enq_ns (all five) {}", e.describe()));
            run.note(format!("queue.deq_ns (all five) {}", d.describe()));
            write_trace(run, &tracer, name);
        }
    });
}

fn push_seg(run: &mut Run, stats: SegStats, peak: u64) {
    let reused = stats.segs_pooled as f64;
    run.push("seg.segs_allocated", "count", stats.segs_allocated as f64);
    run.push("seg.segs_pooled", "count", reused);
    run.push("seg.segs_retired", "count", stats.segs_retired as f64);
    // Segments a pass needed = fresh allocations + pool recycles.
    run.push(
        "seg.pool_hit_share",
        "share",
        reused / (stats.segs_allocated as f64 + reused),
    );
    run.push("budget.peak_segments", "count", peak as f64);
}

/// Pairs per two-thread contention round (split between the threads).
const CONTENDED_PAIRS: u64 = 400_000;

/// Two threads each run half of `CONTENDED_PAIRS` enqueue→dequeue pairs on
/// one shared queue; conservation is checked by count and sum.
fn contended(run: &mut Run, kind: Kind) {
    match kind {
        Kind::WordMs => contended_on(
            run,
            kind,
            WordMsQueue::with_capacity(&NativePlatform::new(), MAX_BURST),
        ),
        Kind::Ms => contended_on(run, kind, MsQueue::<u64>::new()),
        Kind::Seg => contended_on(run, kind, seg_queue()),
        Kind::Sharded => contended_on(run, kind, ShardedQueue::<u64>::new()),
        Kind::TwoLock => contended_on(run, kind, TwoLockQueue::<u64>::new()),
    }
}

fn contended_on<Q: BenchQueue>(run: &mut Run, kind: Kind, queue: Q) {
    const THREADS: u64 = 2;
    let per_thread = CONTENDED_PAIRS / THREADS;
    let empties = AtomicU64::new(0);
    let popped_sum = AtomicU64::new(0);
    let popped = AtomicU64::new(0);
    let full = AtomicU64::new(0);
    let barrier = Barrier::new(THREADS as usize + 1);
    let elapsed = std::thread::scope(|s| {
        for t in 0..THREADS {
            let (queue, barrier) = (&queue, &barrier);
            let (empties, popped_sum, popped, full) = (&empties, &popped_sum, &popped, &full);
            s.spawn(move || {
                barrier.wait();
                let (mut sum, mut n, mut misses) = (0u64, 0u64, 0u64);
                for i in 0..per_thread {
                    if !queue.push(t << 40 | i) {
                        full.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    // This thread's own value is in the queue, so an empty
                    // answer is transient (or the sharded sweep missed it).
                    loop {
                        match queue.pop() {
                            Some(v) => {
                                sum = sum.wrapping_add(v);
                                n += 1;
                                break;
                            }
                            None => misses += 1,
                        }
                    }
                }
                empties.fetch_add(misses, Ordering::Relaxed);
                popped_sum.fetch_add(sum, Ordering::Relaxed);
                popped.fetch_add(n, Ordering::Relaxed);
            });
        }
        barrier.wait();
        Instant::now()
    })
    .elapsed();
    let expected_sum = (0..THREADS)
        .flat_map(|t| (0..per_thread).map(move |i| t << 40 | i))
        .fold(0u64, u64::wrapping_add);
    let n = popped.load(Ordering::Relaxed);
    run.attempted += CONTENDED_PAIRS;
    if n != CONTENDED_PAIRS
        || popped_sum.load(Ordering::Relaxed) != expected_sum
        || full.load(Ordering::Relaxed) != 0
        || queue.pop().is_some()
    {
        run.fail(
            CONTENDED_PAIRS - n.min(CONTENDED_PAIRS),
            format!("{}: two-thread values lost or duplicated", kind.name()),
        );
    }
    let misses = empties.load(Ordering::Relaxed);
    run.push(
        format!("{}.pairs_per_s_2t", kind.name()),
        "1/s",
        CONTENDED_PAIRS as f64 / elapsed.as_secs_f64(),
    );
    run.push(
        format!("{}.deq_empty_share_2t", kind.name()),
        "share",
        misses as f64 / (misses + n).max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_queues::QueueFull;
    use std::sync::Mutex;

    /// A queue trait object is a [`BenchQueue`] too, for test doubles.
    impl BenchQueue for dyn ConcurrentWordQueue {
        fn push(&self, value: u64) -> bool {
            self.enqueue(value).is_ok()
        }
        fn pop(&self) -> Option<u64> {
            self.dequeue()
        }
    }

    /// A FIFO that silently drops its `lose`-th enqueued value.
    struct Lossy {
        items: Mutex<std::collections::VecDeque<u64>>,
        seen: AtomicU64,
        lose: u64,
    }

    impl ConcurrentWordQueue for Lossy {
        fn enqueue(&self, value: u64) -> Result<(), QueueFull> {
            if self.seen.fetch_add(1, Ordering::Relaxed) != self.lose {
                self.items.lock().unwrap().push_back(value);
            }
            Ok(())
        }
        fn dequeue(&self) -> Option<u64> {
            self.items.lock().unwrap().pop_front()
        }
        fn name(&self) -> &'static str {
            "lossy"
        }
        fn is_nonblocking(&self) -> bool {
            false
        }
    }

    fn lossy(lose: u64) -> Lossy {
        Lossy {
            items: Mutex::new(Default::default()),
            seen: AtomicU64::new(0),
            lose,
        }
    }

    #[test]
    fn the_conservation_check_catches_a_planted_lost_value() {
        for shape in [Shape::Paired(100), Shape::bursts(3, 100)] {
            let sound = lossy(u64::MAX);
            assert_eq!(
                exercise::<dyn ConcurrentWordQueue, false>(&sound, &shape),
                0
            );
            let leaky = lossy(17);
            assert!(
                exercise::<dyn ConcurrentWordQueue, false>(&leaky, &shape) > 0,
                "{shape:?}"
            );
        }
    }

    #[test]
    fn every_production_queue_passes_both_shapes() {
        for kind in Kind::ALL {
            for shape in [Shape::Paired(1_000), Shape::bursts(1, 5_000)] {
                assert_eq!(pass::<false>(kind, &shape).failed, 0, "{kind:?}");
            }
        }
    }

    #[test]
    fn bursts_cover_the_pairs_within_bounds_and_follow_the_seed() {
        let Shape::Bursts(lens) = Shape::bursts(9, 100_000) else {
            unreachable!()
        };
        assert_eq!(lens.iter().map(|&l| u64::from(l)).sum::<u64>(), 100_000);
        assert!(lens.iter().all(|&l| (1..=MAX_BURST).contains(&l)));
        assert_eq!(Shape::bursts(9, 100_000).pairs(), 100_000);
        let Shape::Bursts(other) = Shape::bursts(10, 100_000) else {
            unreachable!()
        };
        assert_ne!(lens, other);
    }
}
