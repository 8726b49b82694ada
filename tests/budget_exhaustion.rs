//! The [`MemBudget`] analogue of `valois_exhaustion.rs`: drive a queue
//! into *budget* exhaustion (rather than pool exhaustion) and prove the
//! failure mode is backpressure, not a panic or a lost value — and that
//! the queue recovers fully once dequeues release segments.
//!
//! Two queue families are covered: the heap `SegQueue` (hazard-pointer
//! reclamation, `try_enqueue`/`try_enqueue_batch` backpressure) natively,
//! and the arena-backed `WordSegQueue` (generation-tagged recycling,
//! `QueueFull` backpressure) both natively and inside the deterministic
//! simulator — the budget's counters are platform cells, so the same
//! protocol runs in both worlds.

use std::sync::Arc;

use ms_queues::{
    ConcurrentWordQueue, MemBudget, NativePlatform, QueueFull, SegConfig, SegQueue, SimConfig,
    Simulation, WordSegQueue,
};

/// Budget for every cell: a handful of segments, far below what the
/// workload would like.
const LIMIT: u64 = 4;

#[test]
fn heap_seg_queue_backpressures_at_the_budget_and_recovers() {
    let budget = Arc::new(MemBudget::new(&NativePlatform::new(), LIMIT));
    let queue: SegQueue<u64> = SegQueue::with_config_and_budget(
        SegConfig {
            seg_size: 2,
            ..SegConfig::DEFAULT
        },
        Arc::clone(&budget),
    );

    // Fill to the brim: LIMIT segments x 2 slots fit, the next enqueue is
    // denied with the value handed back intact.
    let mut accepted = 0_u64;
    let rejected = loop {
        match queue.try_enqueue(accepted) {
            Ok(()) => accepted += 1,
            Err(v) => break v,
        }
    };
    assert_eq!(accepted, LIMIT * 2);
    assert_eq!(rejected, accepted, "no value may be lost on denial");
    assert!(budget.denials() > 0, "exhaustion was metered");
    assert!(budget.reserved() <= LIMIT, "the bound held throughout");
    assert_eq!(budget.overruns(), 0, "no fallible path may overrun");

    // Sustained churn at the boundary. A single dequeue does not free a
    // segment (units come back only when a whole segment drains), so
    // denials keep happening — each one must hand the value back so the
    // caller can retry after making room, and FIFO must survive it all.
    let mut next_in = accepted;
    let mut next_out = 0_u64;
    let mut len = accepted;
    for _ in 0..5_000 {
        if len < accepted {
            match queue.try_enqueue(next_in) {
                Ok(()) => {
                    next_in += 1;
                    len += 1;
                }
                Err(v) => {
                    assert_eq!(v, next_in, "denied value intact");
                    assert_eq!(queue.dequeue(), Some(next_out), "FIFO under denial");
                    next_out += 1;
                    len -= 1;
                }
            }
        } else {
            assert_eq!(queue.dequeue(), Some(next_out), "FIFO across backpressure");
            next_out += 1;
            len -= 1;
        }
        assert!(budget.reserved() <= LIMIT);
    }
    assert!(
        next_in > accepted,
        "churn made progress past the first fill"
    );

    // Full drain, then the queue works as if never exhausted.
    while queue.dequeue().is_some() {}
    queue.try_enqueue(u64::MAX).expect("recovered after drain");
    assert_eq!(queue.dequeue(), Some(u64::MAX));
}

#[test]
fn word_seg_queue_backpressures_at_the_budget_natively() {
    let platform = NativePlatform::new();
    let budget = Arc::new(MemBudget::new(&platform, LIMIT));
    let queue = WordSegQueue::new(&platform, 4_096, Some(Arc::clone(&budget)));

    let mut accepted = 0_u64;
    let rejected = loop {
        match queue.enqueue(accepted) {
            Ok(()) => accepted += 1,
            Err(QueueFull(v)) => break v,
        }
    };
    assert_eq!(rejected, accepted, "the rejected value comes back intact");
    assert!(
        accepted >= u64::from(queue.seg_size()),
        "at least one full segment beyond the dummy fits, got {accepted}"
    );
    assert!(budget.denials() > 0);
    assert!(budget.reserved() <= LIMIT);

    // Bounded-length churn (the valois_exhaustion workload) right at the
    // budget boundary must sustain indefinitely: dequeues recycle
    // segments through the arena, crediting units back. Transient
    // `QueueFull` at the boundary (a segment frees only when fully
    // drained) is answered by dequeuing, never by panicking or losing
    // the value.
    let mut next_in = accepted;
    let mut next_out = 0_u64;
    let mut len = accepted;
    for _ in 0..100_000_u64 {
        if len < accepted {
            match queue.enqueue(next_in) {
                Ok(()) => {
                    next_in += 1;
                    len += 1;
                }
                Err(QueueFull(v)) => {
                    assert_eq!(v, next_in, "denied value intact");
                    assert_eq!(queue.dequeue(), Some(next_out), "FIFO under denial");
                    next_out += 1;
                    len -= 1;
                }
            }
        } else {
            assert_eq!(queue.dequeue(), Some(next_out), "FIFO across backpressure");
            next_out += 1;
            len -= 1;
        }
        debug_assert!(budget.reserved() <= LIMIT);
    }
    while queue.dequeue().is_some() {}
    assert!(budget.reserved() <= LIMIT);
}

#[test]
fn word_seg_queue_backpressures_at_the_budget_under_simulation() {
    let sim = Simulation::new(SimConfig {
        processors: 2,
        ..SimConfig::default()
    });
    let platform = sim.platform();
    let budget = Arc::new(MemBudget::new(&platform, LIMIT));
    let queue = Arc::new(WordSegQueue::new(
        &platform,
        4_096,
        Some(Arc::clone(&budget)),
    ));
    sim.run({
        let queue = Arc::clone(&queue);
        move |info| {
            if info.pid != 0 {
                // The second processor contends for the budget too: its
                // denials must also surface as QueueFull, never a panic.
                for i in 0..64_u64 {
                    if queue.enqueue(u64::MAX - i).is_ok() {
                        queue.dequeue();
                    }
                }
                return;
            }
            let mut sent = 0_u64;
            let rejected = loop {
                match queue.enqueue(sent) {
                    Ok(()) => sent += 1,
                    Err(QueueFull(v)) => break v,
                }
            };
            assert_eq!(rejected, sent, "no value may be lost on denial");
            // Drain everything this process can see and prove recovery.
            while queue.dequeue().is_some() {}
            queue.enqueue(u64::MAX).expect("recovered after drain");
            queue.dequeue().expect("the probe value is retrievable");
        }
    });
    assert!(budget.denials() > 0, "the simulated run hit the budget");
    assert!(
        budget.reserved() <= LIMIT,
        "the bound held under simulation"
    );
    assert!(budget.peak() <= LIMIT);
    assert_eq!(queue.dequeue(), None, "the run drained the queue");
}

/// **Budget conservation across a mid-allocation death.** The arena's
/// `seg:alloc:reserved` fault point sits exactly between reserving a
/// budget unit and committing it to a popped segment. A process killed
/// there unwinds through the RAII [`ms_queues::Reservation`] guard, which
/// must credit the unit back — otherwise the budget leaks one unit per
/// death and the global bound rots. After the survivors finish and the
/// queue drains, exactly the dummy segment may remain resident.
#[test]
fn kill_between_reserve_and_commit_credits_the_unit_back() {
    use ms_queues::FaultPlan;

    let sim = Simulation::with_faults(
        SimConfig {
            processors: 3,
            ..SimConfig::default()
        },
        FaultPlan::new().kill_at_label(0, "seg:alloc:reserved", 0),
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
            // A full pairs workload: 200 pairs per process crosses the
            // 32-slot segment boundary often enough that every process
            // allocates segments (and pid 0 dies at its first attempt).
            for i in 0..200_u64 {
                let value = ((info.pid as u64) << 40) | i;
                while queue.enqueue(value).is_err() {
                    // Budget-full is backpressure: make room, not spin.
                    queue.dequeue();
                }
                while queue.dequeue().is_none() {
                    std::hint::spin_loop();
                }
            }
        }
    });
    assert_eq!(report.killed, vec![0], "the reserve-commit kill fired");
    assert!(
        report.blocked.is_empty(),
        "a death mid-allocation must not block survivors: {:?}",
        report.blocked
    );
    while queue.dequeue().is_some() {}
    assert_eq!(
        budget.reserved(),
        1,
        "after the drain only the dummy segment is resident — the killed \
         process's uncommitted reservation was credited back by unwinding"
    );
    assert!(budget.peak() <= LIMIT, "the bound held across the death");
    assert_eq!(budget.overruns(), 0, "no path overran the budget");
}

/// Every registered contender now meters its preallocated memory against
/// a shared [`MemBudget`]. The six node-arena algorithms force-reserve
/// one unit per node (`capacity + 1`, counting the dummy) for the queue's
/// lifetime and credit it all back on drop; the segment-based extensions
/// reserve segment by segment. Either way the residency is *observable*:
/// building any contender moves `reserved()`, and dropping it restores
/// the budget to empty. The repair-mode builds (`repair = true`) meter
/// the same way.
#[test]
fn every_contender_meters_residency_against_a_shared_budget() {
    use ms_queues::Algorithm;
    let platform = NativePlatform::new();
    for repair in [false, true] {
        for alg in Algorithm::WITH_EXTENSIONS {
            let budget = Arc::new(MemBudget::new(&platform, 1_000));
            let queue = alg.build_with_budget(&platform, 16, Some(Arc::clone(&budget)), repair);
            assert!(
                budget.reserved() > 0,
                "{alg} (repair {repair}): building the queue must reserve budget units"
            );
            assert_eq!(
                budget.overruns(),
                0,
                "{alg} (repair {repair}): a within-budget pool must not overrun"
            );
            // The queue still works while metered.
            queue.enqueue(7).unwrap();
            assert_eq!(
                queue.dequeue(),
                Some(7),
                "{alg} (repair {repair}) round trip under budget"
            );
            let resident = budget.reserved();
            drop(queue);
            if matches!(alg, Algorithm::SegBatched | Algorithm::Sharded) {
                // Segment arenas credit units when segments are *freed*; the
                // still-resident initial segments ride out the drop.
                assert!(
                    budget.reserved() <= resident,
                    "{alg} (repair {repair}): drop must not grow the reservation"
                );
            } else {
                assert_eq!(
                    budget.reserved(),
                    0,
                    "{alg} (repair {repair}): dropping the queue must credit every unit back"
                );
            }
        }
    }
}

/// The paper's algorithms preallocate their free lists unconditionally,
/// so a pool larger than the budget is *recorded as an overrun* rather
/// than denied — the queue is built, the debt is visible.
#[test]
fn node_arena_contenders_record_overruns_instead_of_failing() {
    use ms_queues::Algorithm;
    let platform = NativePlatform::new();
    for alg in [
        Algorithm::SingleLock,
        Algorithm::MellorCrummey,
        Algorithm::Valois,
        Algorithm::NewTwoLock,
        Algorithm::PljNonBlocking,
        Algorithm::NewNonBlocking,
    ] {
        let budget = Arc::new(MemBudget::new(&platform, 4));
        let queue = alg.build_with_budget(&platform, 64, Some(Arc::clone(&budget)), false);
        assert!(
            budget.overruns() > 0,
            "{alg}: an over-budget preallocated pool must be metered as an overrun"
        );
        assert_eq!(
            budget.reserved(),
            65,
            "{alg}: the full pool (capacity + dummy) is resident regardless"
        );
        queue.enqueue(1).unwrap();
        assert_eq!(queue.dequeue(), Some(1));
        drop(queue);
        assert_eq!(budget.reserved(), 0, "{alg}: drop credits the debt back");
    }
}
