//! Memory-reclamation safety of the heap queues and stack: under real
//! concurrency, every value is dropped exactly once — no leaks, no double
//! frees (the latter would crash; the former is counted).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ms_queues::{HerlihyQueue, LockFreeStack, MsQueue, SegConfig, SegQueue, TwoLockQueue};

/// Held by every test here that builds a heap `MsQueue`, `SegQueue`,
/// `LockFreeStack` or `HerlihyQueue`, which all retire into and scan the
/// process-global hazard domain. Tests run on parallel threads, and a scan
/// by one adopts the others' orphaned retirements, so without the lock an
/// exact residency assertion after `GLOBAL_DOMAIN.eager_scan()` could find
/// another test's scan holding this test's segments, or recycling them
/// into a pool after this test shrank it.
static GLOBAL_DOMAIN_TESTS: Mutex<()> = Mutex::new(());

/// Locks [`GLOBAL_DOMAIN_TESTS`]. Poison-tolerant: a test that fails while
/// holding the lock must not fail the ones after it.
fn serialize_global_domain_tests() -> MutexGuard<'static, ()> {
    GLOBAL_DOMAIN_TESTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

struct Tracked {
    drops: Arc<AtomicU64>,
    payload: u64,
}

impl Tracked {
    fn new(drops: &Arc<AtomicU64>, payload: u64) -> Self {
        Tracked {
            drops: Arc::clone(drops),
            payload,
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

const PRODUCERS: u64 = 3;
const PER_PRODUCER: u64 = 5_000;

fn run_queue_reclamation<Q, E, D>(queue: Arc<Q>, enqueue: E, dequeue: D)
where
    Q: Send + Sync + 'static,
    E: Fn(&Q, Tracked) + Send + Sync + Copy + 'static,
    D: Fn(&Q) -> Option<Tracked> + Send + Sync + Copy + 'static,
{
    let drops = Arc::new(AtomicU64::new(0));
    let consumed = Arc::new(AtomicU64::new(0));
    let payload_sum = Arc::new(AtomicU64::new(0));
    let total = PRODUCERS * PER_PRODUCER;

    let mut handles = Vec::new();
    for producer in 0..PRODUCERS {
        let queue = Arc::clone(&queue);
        let drops = Arc::clone(&drops);
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_PRODUCER {
                enqueue(
                    &queue,
                    Tracked::new(&drops, producer * PER_PRODUCER + i + 1),
                );
            }
        }));
    }
    for _ in 0..2 {
        let queue = Arc::clone(&queue);
        let consumed = Arc::clone(&consumed);
        let payload_sum = Arc::clone(&payload_sum);
        handles.push(std::thread::spawn(move || {
            while consumed.load(Ordering::SeqCst) < total {
                if let Some(value) = dequeue(&queue) {
                    payload_sum.fetch_add(value.payload, Ordering::SeqCst);
                    consumed.fetch_add(1, Ordering::SeqCst);
                } else {
                    std::hint::spin_loop();
                }
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    assert_eq!(
        payload_sum.load(Ordering::SeqCst),
        (1..=total).sum::<u64>(),
        "value conservation"
    );
    // Every dequeued Tracked has been dropped by now (consumers drop on
    // the spot); none may have been dropped twice or leaked.
    assert_eq!(drops.load(Ordering::SeqCst), total, "drop-exactly-once");
}

#[test]
fn ms_queue_drops_every_value_exactly_once() {
    let _serial = serialize_global_domain_tests();
    run_queue_reclamation(
        Arc::new(MsQueue::new()),
        |q: &MsQueue<Tracked>, v| q.enqueue(v),
        |q| q.dequeue(),
    );
}

/// A value that counts its live copies: making one, by `new` or `clone`,
/// adds one, and dropping one takes one away.
struct LiveCopy {
    live: Arc<AtomicU64>,
}

impl LiveCopy {
    fn new(live: &Arc<AtomicU64>) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        LiveCopy {
            live: Arc::clone(live),
        }
    }
}

impl Clone for LiveCopy {
    fn clone(&self) -> Self {
        LiveCopy::new(&self.live)
    }
}

impl Drop for LiveCopy {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Herlihy's construction copies the whole queue per operation, so every
/// snapshot it replaces holds copies of the queued values. Each replaced
/// snapshot must go to the hazard domain and be freed there: once the
/// queue is dropped and the domain scanned, no copy may be left alive.
#[test]
fn herlihy_queue_reclaims_every_replaced_snapshot() {
    let _serial = serialize_global_domain_tests();
    use ms_queues::hazard::GLOBAL_DOMAIN;

    let live = Arc::new(AtomicU64::new(0));
    let queue = Arc::new(HerlihyQueue::new());
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let queue = Arc::clone(&queue);
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                for _ in 0..500 {
                    queue.enqueue(LiveCopy::new(&live));
                    assert!(
                        queue.dequeue().is_some(),
                        "each thread dequeues after its own enqueue"
                    );
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    drop(queue);
    // The workers' unscanned retirements were orphaned when they exited;
    // this scan adopts and frees them with the main thread's own.
    GLOBAL_DOMAIN.eager_scan();
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "a replaced snapshot leaked its copies"
    );
}

#[test]
fn two_lock_queue_drops_every_value_exactly_once() {
    run_queue_reclamation(
        Arc::new(TwoLockQueue::new()),
        |q: &TwoLockQueue<Tracked>, v| q.enqueue(v),
        |q| q.dequeue(),
    );
}

#[test]
fn seg_queue_drops_every_value_exactly_once() {
    let _serial = serialize_global_domain_tests();
    // Small segments so reclamation runs thousands of times, not dozens.
    run_queue_reclamation(
        Arc::new(SegQueue::with_config(SegConfig {
            seg_size: 4,
            ..SegConfig::DEFAULT
        })),
        |q: &SegQueue<Tracked>, v| q.enqueue(v),
        |q| q.dequeue(),
    );
}

/// Drained segments must actually reach the hazard domain: with the reuse
/// pool disabled, every unlinked segment is retired (not leaked, not
/// pooled), and the domain eventually frees it.
#[test]
fn seg_queue_retires_drained_segments_through_hazard_domain() {
    let _serial = serialize_global_domain_tests();
    let queue: SegQueue<u64> = SegQueue::with_config(SegConfig {
        seg_size: 4,
        pool_limit: 0,
        ..SegConfig::DEFAULT
    });
    for round in 0..50_u64 {
        for i in 0..16 {
            queue.enqueue(round * 16 + i);
        }
        for _ in 0..16 {
            assert!(queue.dequeue().is_some());
        }
    }
    let stats = queue.stats();
    assert_eq!(stats.segs_pooled, 0, "pool disabled, nothing may be pooled");
    assert!(
        stats.segs_retired >= 50,
        "50 rounds × 4 drained segments each must retire through the \
         hazard domain, got {}",
        stats.segs_retired
    );
}

#[test]
fn lock_free_stack_drops_every_value_exactly_once() {
    let _serial = serialize_global_domain_tests();
    run_queue_reclamation(
        Arc::new(LockFreeStack::new()),
        |s: &LockFreeStack<Tracked>, v| s.push(v),
        |s| s.pop(),
    );
}

/// Budget invariants under multi-queue churn: three queues share one
/// [`MemBudget`], worker threads hammer them through the fallible paths,
/// and at every step the number of live segments (in queues *or* pools —
/// pooled segments are still resident memory) stays within the limit.
/// After the churn, escalating reclaim (pool shrink, hazard flush) must
/// walk residency back down to the floor: one dummy segment per live
/// queue, then zero once the queues are gone.
#[test]
fn shared_budget_bounds_residency_across_churning_queues() {
    let _serial = serialize_global_domain_tests();
    use ms_queues::hazard::GLOBAL_DOMAIN;
    use ms_queues::{MemBudget, NativePlatform};

    const LIMIT: u64 = 8;
    const QUEUES: usize = 3;
    let budget = Arc::new(MemBudget::new(&NativePlatform::new(), LIMIT));
    let queues: Arc<Vec<SegQueue<u64>>> = Arc::new(
        (0..QUEUES)
            .map(|_| {
                SegQueue::with_config_and_budget(
                    SegConfig {
                        seg_size: 2,
                        ..SegConfig::DEFAULT
                    },
                    Arc::clone(&budget),
                )
            })
            .collect(),
    );
    assert_eq!(budget.reserved(), QUEUES as u64, "one dummy per queue");

    let accepted = Arc::new(AtomicU64::new(0));
    let consumed = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..3_u64 {
        let queues = Arc::clone(&queues);
        let budget = Arc::clone(&budget);
        let accepted = Arc::clone(&accepted);
        let consumed = Arc::clone(&consumed);
        handles.push(std::thread::spawn(move || {
            for i in 0..2_000_u64 {
                let q = &queues[((t + i) % QUEUES as u64) as usize];
                match q.try_enqueue((t << 32) | i) {
                    Ok(()) => {
                        accepted.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => {
                        // Exhausted: make room instead of spinning.
                        if q.dequeue().is_some() {
                            consumed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
                if i % 5 == 0 && q.dequeue().is_some() {
                    consumed.fetch_add(1, Ordering::SeqCst);
                }
                let reserved = budget.reserved();
                assert!(
                    reserved <= LIMIT,
                    "live + pooled segments ({reserved}) exceeded the budget ({LIMIT})"
                );
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    // Conservation: everything accepted is still retrievable.
    let mut drained = 0_u64;
    for q in queues.iter() {
        while q.dequeue().is_some() {
            drained += 1;
        }
    }
    assert_eq!(
        drained + consumed.load(Ordering::SeqCst),
        accepted.load(Ordering::SeqCst),
        "values lost or duplicated under budget churn"
    );
    assert!(budget.peak() <= LIMIT, "peak watermark respected the limit");
    assert_eq!(budget.overruns(), 0, "no infallible path overran the limit");

    // Drained process returns to the floor: flush hazard retirements —
    // including orphans from the exited workers — then shrink the pools
    // (reclaimers registered by `with_config_and_budget`). The flush goes
    // first, as in `SegQueue`'s own allocation ladder, because it recycles
    // a retired segment into its queue's pool, where it stays resident
    // until a shrink.
    GLOBAL_DOMAIN.eager_scan();
    budget.reclaim();
    assert_eq!(
        budget.reserved(),
        QUEUES as u64,
        "after drain + reclaim only the dummies stay resident"
    );
    drop(queues);
    GLOBAL_DOMAIN.eager_scan();
    assert_eq!(budget.reserved(), 0, "dropping the queues frees the floor");
}

/// Queues created and dropped mid-test must return every unit they took:
/// each round builds a fresh queue on the same shared budget, drives it to
/// denial, then drops it with values still inside — the drop must release
/// both the values (exactly once) and the budget units.
#[test]
fn queues_created_and_dropped_mid_test_release_their_units() {
    let _serial = serialize_global_domain_tests();
    use ms_queues::hazard::GLOBAL_DOMAIN;
    use ms_queues::{MemBudget, NativePlatform};

    const LIMIT: u64 = 4;
    let budget = Arc::new(MemBudget::new(&NativePlatform::new(), LIMIT));
    for round in 0..5_u64 {
        let drops = Arc::new(AtomicU64::new(0));
        let queue: SegQueue<Tracked> = SegQueue::with_config_and_budget(
            SegConfig {
                seg_size: 2,
                ..SegConfig::DEFAULT
            },
            Arc::clone(&budget),
        );
        let mut accepted = 0_u64;
        while queue.try_enqueue(Tracked::new(&drops, accepted)).is_ok() {
            accepted += 1;
        }
        assert_eq!(
            accepted,
            LIMIT * 2,
            "round {round}: {LIMIT} segments x 2 slots fill exactly"
        );
        assert!(budget.reserved() <= LIMIT, "round {round}");
        // Take a few out, leave the rest in-flight for Drop to handle.
        for _ in 0..3 {
            drop(queue.dequeue());
        }
        drop(queue);
        GLOBAL_DOMAIN.eager_scan();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            accepted + 1, // the rejected probe value also dropped
            "round {round}: mid-flight values must drop exactly once"
        );
        assert_eq!(
            budget.reserved(),
            0,
            "round {round}: a dropped queue returns every unit"
        );
    }
    assert!(budget.peak() <= LIMIT);
    assert!(budget.denials() >= 5, "each round was driven to denial");
}

/// The two-lock queue preallocates its whole node pool (Figure 2), so a
/// budget-metered instance must force-reserve `capacity + 1` units up
/// front: a pool larger than the budget is an *overrun* (the constructor
/// stays infallible, as in the paper), and dropping the queue must credit
/// every unit back.
#[test]
fn two_lock_arena_is_metered_against_the_budget() {
    use ms_queues::{ConcurrentWordQueue, MemBudget, NativePlatform, WordTwoLockQueue};

    let platform = NativePlatform::new();
    // Pool fits: 7 + 1 dummy = 8 units of 8.
    let budget = Arc::new(MemBudget::new(&platform, 8));
    {
        let q = WordTwoLockQueue::<NativePlatform>::new(&platform, 7, Some(Arc::clone(&budget)));
        assert_eq!(budget.reserved(), 8, "capacity + dummy reserved up front");
        assert_eq!(budget.overruns(), 0, "a fitting pool is no overrun");
        q.enqueue(1).unwrap();
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(
            budget.reserved(),
            8,
            "churn reuses the pool; residency is constant"
        );
    }
    assert_eq!(budget.reserved(), 0, "drop credits the whole pool back");

    // Pool does not fit: 16 units against a limit of 4 must be recorded
    // as an overrun, not denied — construction still succeeds.
    let tiny = Arc::new(MemBudget::new(&platform, 4));
    {
        let q = WordTwoLockQueue::<NativePlatform>::new(&platform, 15, Some(Arc::clone(&tiny)));
        assert!(tiny.overruns() > 0, "over-budget pool counts as overrun");
        assert_eq!(tiny.reserved(), 16, "force_reserve still books the units");
        q.enqueue(9).unwrap();
        assert_eq!(q.dequeue(), Some(9), "the queue works regardless");
    }
    assert_eq!(tiny.reserved(), 0, "overrun units are still released");
    assert!(tiny.peak() >= 16);
}

/// The same metering through the registry's `build_with_budget` path. The
/// budget is the test's own, so the counts are exact: the whole pool
/// (31 + 1 dummy) is reserved by the build and credited back by the drop.
#[test]
fn two_lock_budget_attaches_through_the_registry() {
    use ms_queues::{Algorithm, MemBudget, NativePlatform};

    let platform = NativePlatform::new();
    let budget = Arc::new(MemBudget::new(&platform, 1 << 20));
    let q =
        Algorithm::NewTwoLock.build_with_budget(&platform, 31, Some(Arc::clone(&budget)), false);
    assert_eq!(
        budget.reserved(),
        32,
        "registry-built two-lock reserves its pool"
    );
    q.enqueue(5).unwrap();
    assert_eq!(q.dequeue(), Some(5));
    drop(q);
    assert_eq!(budget.reserved(), 0, "registry path releases on drop");
}

/// **Reclamation survives the reclaimer's death.** The word-level segment
/// queue recycles a drained segment through a drop guard held across its
/// `seg:reclaim` fault point: a process killed mid-reclaim frees the
/// segment (and credits its budget unit) during the kill unwind, on the
/// dead process's post-mortem direct path. Under a tiny budget this is
/// load-bearing — a leaked segment would be a quarter of the whole
/// allowance — so the run must end at the dummy-only floor regardless.
#[test]
fn killed_reclaimer_still_frees_the_segment_under_a_tiny_budget() {
    use ms_queues::{
        ConcurrentWordQueue, FaultPlan, MemBudget, SimConfig, Simulation, WordSegQueue,
    };

    const LIMIT: u64 = 4;
    let sim = Simulation::with_faults(
        SimConfig {
            processors: 3,
            ..SimConfig::default()
        },
        FaultPlan::new().kill_at_label(0, "seg:reclaim", 0),
    );
    let platform = sim.platform();
    let budget = Arc::new(MemBudget::new(&platform, LIMIT));
    let queue = Arc::new(WordSegQueue::new(
        &platform,
        4_096,
        Some(Arc::clone(&budget)),
    ));
    let report = sim.run({
        let queue = Arc::clone(&queue);
        move |info| {
            for i in 0..200_u64 {
                let value = ((info.pid as u64) << 40) | i;
                while queue.enqueue(value).is_err() {
                    queue.dequeue();
                }
                while queue.dequeue().is_none() {
                    std::hint::spin_loop();
                }
            }
        }
    });
    assert_eq!(report.killed, vec![0], "the reclaim-window kill fired");
    assert!(
        report.blocked.is_empty(),
        "death in the reclaim ladder blocks nobody: {:?}",
        report.blocked
    );
    while queue.dequeue().is_some() {}
    assert_eq!(
        budget.reserved(),
        1,
        "the victim's half-reclaimed segment must reach the free list via \
         its unwind, leaving only the dummy resident after the drain"
    );
    assert!(budget.peak() <= LIMIT, "the bound held across the death");
    assert_eq!(budget.overruns(), 0);
}

/// **Repair returns the discarded node to the arena.** A process killed
/// while holding the repairable single lock mid-enqueue (node allocated
/// and intent published, link not yet made) has its node discarded by
/// the repairing waiter — back onto the arena free list, not leaked.
/// Under a pool of 5 nodes (capacity 4 + dummy) a leak would be
/// immediately visible: the drained queue could never again hold its
/// full capacity, and the metered budget would misreport after drop.
#[test]
fn repair_discarded_node_returns_to_the_arena_and_budget() {
    use ms_queues::{
        ConcurrentWordQueue, FaultPlan, MemBudget, RepairableSingleLockQueue, SimConfig, Simulation,
    };

    let sim = Simulation::with_faults(
        SimConfig {
            processors: 3,
            watchdog_ns: 400_000_000,
            ..SimConfig::default()
        },
        FaultPlan::new().kill_at_label(0, "single-lock:enq:locked", 0),
    );
    let platform = sim.platform();
    let budget = Arc::new(MemBudget::new(&platform, 5));
    let queue = Arc::new(RepairableSingleLockQueue::new(
        &platform,
        4,
        Some(Arc::clone(&budget)),
    ));
    assert_eq!(budget.reserved(), 5, "capacity + dummy reserved up front");
    let report = sim.run({
        let queue = Arc::clone(&queue);
        move |info| {
            for i in 0..20_u64 {
                let value = ((info.pid as u64) << 40) | i;
                while queue.enqueue(value).is_err() {
                    queue.dequeue();
                }
                while queue.dequeue().is_none() {
                    std::hint::spin_loop();
                }
            }
        }
    });
    assert_eq!(report.killed, vec![0], "the enqueue-window kill fired");
    assert!(
        report.blocked.is_empty(),
        "a waiter repaired the dead holder instead of wedging: {:?}",
        report.blocked
    );
    assert_eq!(report.repairs.len(), 1);
    assert_eq!(report.repairs[0].point, "single-lock:repair:enq-discard");
    while queue.dequeue().is_some() {}
    assert_eq!(
        budget.reserved(),
        5,
        "the pool is preallocated; churn, death, and repair keep residency constant"
    );
    // The discarded node must be back on the free list: the empty queue
    // accepts its full capacity again.
    for i in 0..4_u64 {
        queue.enqueue(i).expect("repair credited the node back");
    }
    assert!(queue.enqueue(99).is_err(), "capacity unchanged");
    while queue.dequeue().is_some() {}
    drop(queue);
    assert_eq!(budget.reserved(), 0, "drop credits the whole pool back");
    assert_eq!(budget.overruns(), 0);
}

#[test]
fn queues_dropped_mid_flight_leak_nothing() {
    let _serial = serialize_global_domain_tests();
    let drops = Arc::new(AtomicU64::new(0));
    {
        let queue = MsQueue::new();
        for i in 0..100 {
            queue.enqueue(Tracked::new(&drops, i));
        }
        for _ in 0..37 {
            drop(queue.dequeue());
        }
        // 63 values still inside; Drop must release them.
    }
    assert_eq!(drops.load(Ordering::SeqCst), 100);

    let drops = Arc::new(AtomicU64::new(0));
    {
        let stack = LockFreeStack::new();
        for i in 0..50 {
            stack.push(Tracked::new(&drops, i));
        }
        drop(stack.pop());
    }
    assert_eq!(drops.load(Ordering::SeqCst), 50);
}
