//! The paper's progress claims under deterministic adversity (DESIGN.md
//! §11): a [`FaultPlan`] stalls, preempts, or permanently kills chosen
//! processes at labelled *fault points* inside each algorithm's critical
//! windows, and the virtual-time watchdog turns "non-blocking" from prose
//! into an oracle. The headline pair, swept across ≥ 16 perturbed
//! schedules each:
//!
//! * killing a process inside the MS queue's enqueue window leaves every
//!   survivor able to finish, the queue drainable, and the recorded
//!   history linearizable (the victim's linearized-but-unacknowledged
//!   enqueue is admitted as a pending operation, Section 3.2 style);
//! * the *same* death inside the single-lock queue's critical section is
//!   detected by the watchdog as permanently blocking every survivor —
//!   the expected outcome for a blocking algorithm, asserted rather than
//!   hung.

use std::sync::{Arc, Mutex};

use ms_queues::linearize::{Event, Operation};
use ms_queues::{
    is_linearizable_queue, run_simulated_faulted, run_simulated_recovered, run_simulated_repaired,
    schedule_sweep, Algorithm, AtomicWord, BlockedKind, FaultPlan, History, MemBudget,
    NativePlatform, Platform, Recorder, RecoveryPolicy, SimConfig, Simulation, WorkloadConfig,
};

fn tiny() -> WorkloadConfig {
    WorkloadConfig {
        pairs_total: 240,
        other_work_ns: 500,
        capacity: 256,
        mem_budget: None,
    }
}

/// Stalls in the enqueue critical window delay but never corrupt: every
/// algorithm (blocking ones included — the victim *resumes*) completes
/// the full workload and leaves an empty queue.
#[test]
fn stalls_in_the_critical_window_delay_but_never_corrupt() {
    for algorithm in Algorithm::ALL {
        let plan = FaultPlan::new()
            .stall_at_label(0, algorithm.enqueue_fault_label(), 0, 200_000)
            .stall_at_label(0, algorithm.enqueue_fault_label(), 4, 200_000);
        let point = run_simulated_faulted(
            algorithm,
            SimConfig {
                processors: 3,
                ..SimConfig::default()
            },
            &tiny(),
            plan,
        );
        assert_eq!(point.stalls_injected, 2, "{algorithm}: stalls fired");
        assert!(point.killed.is_empty(), "{algorithm}");
        assert!(point.survivors_completed(), "{algorithm}");
        assert_eq!(point.pairs_completed, 240, "{algorithm}");
        assert_eq!(point.drained, Some(0), "{algorithm}: queue empty after");
    }
}

/// A preemption storm parked on the MS enqueue window — the
/// multiprogrammed scheduler landing on the worst instruction over and
/// over (the paper's Figures 4–5 regime) — is absorbed without loss.
#[test]
fn preempt_storm_on_the_ms_window_is_absorbed() {
    let point = run_simulated_faulted(
        Algorithm::NewNonBlocking,
        SimConfig {
            processors: 2,
            processes_per_processor: 2,
            ..SimConfig::default()
        },
        &tiny(),
        FaultPlan::new().preempt_storm(0, "msq:enq:window", 16),
    );
    assert_eq!(point.preempts_injected, 16);
    assert!(point.killed.is_empty());
    assert!(point.survivors_completed());
    assert_eq!(point.pairs_completed, 240);
    assert_eq!(point.drained, Some(0));
}

/// The victim's first enqueue value in [`kill_and_record`] workloads:
/// pid 0, iteration 0.
const VICTIM_VALUE: u64 = 0;

/// Runs 3 simulated processes over the MS queue with pid 0 killed at its
/// first pass through the enqueue critical window (node linked, Tail
/// lagging), records the surviving history, drains the queue, and
/// returns the history with the victim's linearized-but-unacknowledged
/// enqueue admitted as a pending operation (interval `[0, u64::MAX]`,
/// concurrent with everything) if its value ever surfaced.
fn kill_and_record(cfg: SimConfig) -> History {
    let seed = cfg.seed;
    let sim = Simulation::with_faults(cfg, FaultPlan::new().kill_at_label(0, "msq:enq:window", 0));
    let queue = Algorithm::NewNonBlocking.build(&sim.platform(), 64);
    let recorder = Recorder::new();
    let handles: Vec<_> = (0..3).map(|p| Some(recorder.handle(p))).collect();
    let handles = Arc::new(Mutex::new(handles));
    let report = sim.run({
        let queue = Arc::clone(&queue);
        let handles = Arc::clone(&handles);
        move |info| {
            let mut handle = handles.lock().unwrap()[info.pid].take().unwrap();
            for i in 0..2_u64 {
                let value = ((info.pid as u64) << 8) | i;
                handle.enqueue(&*queue, value).unwrap();
                handle.dequeue(&*queue);
            }
        }
    });
    assert_eq!(report.killed, vec![0], "seed {seed:#x}");
    assert!(
        report.blocked.is_empty(),
        "seed {seed:#x}: watchdog flagged survivors of a non-blocking queue: {:?}",
        report.blocked
    );
    // The dead process must not block the drain either: the queue is
    // fully operable from the outside afterwards.
    let mut drainer = recorder.handle(3);
    while drainer.dequeue(&*queue).is_some() {}
    drop(drainer);

    let mut events = recorder.finish().events().to_vec();
    let victim_surfaced = events
        .iter()
        .any(|e| e.operation == Operation::Dequeue(Some(VICTIM_VALUE)));
    let victim_recorded = events
        .iter()
        .any(|e| e.operation == Operation::Enqueue(VICTIM_VALUE));
    if victim_surfaced && !victim_recorded {
        events.push(Event {
            process: 0,
            operation: Operation::Enqueue(VICTIM_VALUE),
            invoked_at: 0,
            returned_at: u64::MAX,
        });
    }
    History::from_events(events)
}

/// **Acceptance, part 1**: kill a process mid-enqueue on the MS queue
/// across 16 perturbed schedules. Survivors always finish, the queue
/// always drains, and every recorded history — victim's pending enqueue
/// included — passes the fast checks and the exhaustive Wing–Gong
/// linearizability search.
#[test]
fn kill_mid_enqueue_on_ms_queue_survivors_linearize_across_16_seeds() {
    let base = SimConfig {
        processors: 3,
        quantum_ns: 60_000,
        watchdog_ns: 50_000_000,
        ..SimConfig::default()
    };
    schedule_sweep(base, 16, |cfg| {
        let seed = cfg.seed;
        let history = kill_and_record(cfg);
        assert!(
            history.check_queue_safety().is_empty(),
            "seed {seed:#x}: fast checks failed: {:?}",
            history.events()
        );
        assert!(
            is_linearizable_queue(history.events()),
            "seed {seed:#x}: faulted history not linearizable: {:?}",
            history.events()
        );
    });
}

/// **Acceptance, part 2**: the *same* fault — death at the first enqueue
/// critical window — on the single-lock queue. Across 16 perturbed
/// schedules the victim dies holding the lock, and the virtual-time
/// watchdog must report every survivor permanently blocked (and the
/// post-mortem queue unapproachable: no drain is attempted).
#[test]
fn kill_mid_enqueue_on_single_lock_watchdog_flags_survivors_across_16_seeds() {
    let base = SimConfig {
        processors: 3,
        quantum_ns: 60_000,
        watchdog_ns: 50_000_000,
        ..SimConfig::default()
    };
    schedule_sweep(base, 16, |cfg| {
        let seed = cfg.seed;
        let point = run_simulated_faulted(
            Algorithm::SingleLock,
            cfg,
            &tiny(),
            FaultPlan::new().kill_at_label(0, "single-lock:enq:locked", 0),
        );
        assert_eq!(point.killed, vec![0], "seed {seed:#x}");
        assert!(
            !point.survivors_completed(),
            "seed {seed:#x}: a single-lock death should block survivors"
        );
        assert_eq!(
            point.blocked.len(),
            2,
            "seed {seed:#x}: both survivors hang on the dead process's lock: {:?}",
            point.blocked
        );
        assert_eq!(
            point.blocked_kinds,
            vec![BlockedKind::DeadHolder; 2],
            "seed {seed:#x}: the watchdog must classify the wedge as a dead holder"
        );
        assert_eq!(
            point.drained, None,
            "seed {seed:#x}: drain must not be attempted"
        );
    });
}

/// Mellor-Crummey's torn-tail window (between its tail `swap` and the
/// predecessor link store) is just as fatal: a death there strands the
/// link and the watchdog flags the survivors — the queue is "lock-free"
/// only in the informal sense, exactly as the paper classifies it.
#[test]
fn kill_in_mellor_crummey_torn_tail_window_blocks_survivors() {
    let point = run_simulated_faulted(
        Algorithm::MellorCrummey,
        SimConfig {
            processors: 3,
            watchdog_ns: 50_000_000,
            ..SimConfig::default()
        },
        &tiny(),
        FaultPlan::new().kill_at_label(0, "mc:enq:window", 0),
    );
    assert_eq!(point.killed, vec![0]);
    assert!(!point.survivors_completed());
    assert!(
        point
            .blocked_kinds
            .iter()
            .all(|k| *k == BlockedKind::DeadHolder),
        "the stranded link is a dead holder's, not live contention: {:?}",
        point.blocked_kinds
    );
    assert_eq!(point.drained, None);
}

/// The watchdog's other verdict: a straggler that outlives the deadline
/// with *nobody dead* is classified as live contention — the
/// non-repairable complement of [`BlockedKind::DeadHolder`]. Here a
/// 100 ms stall inside the MS enqueue window overshoots a 50 ms watchdog
/// while every peer stays alive.
#[test]
fn watchdog_classifies_an_overlong_stall_as_live_contention() {
    let point = run_simulated_faulted(
        Algorithm::NewNonBlocking,
        SimConfig {
            processors: 3,
            watchdog_ns: 50_000_000,
            ..SimConfig::default()
        },
        &tiny(),
        FaultPlan::new().stall_at_label(0, "msq:enq:window", 0, 100_000_000),
    );
    assert!(point.killed.is_empty(), "a stall is not a death");
    assert_eq!(point.blocked, vec![0], "the straggler itself is retired");
    assert_eq!(point.blocked_kinds, vec![BlockedKind::LiveContention]);
    // The other two processes finished their shares long before the
    // straggler's stall elapsed.
    assert_eq!(point.pairs_completed, 160);
}

/// Killing a process *between* reserving a [`MemBudget`] unit and
/// committing the allocation (the `seg:alloc:reserved` fault point) must
/// not leak the reservation: the guard releases it during the kill
/// unwind, survivors keep allocating, and after drain + drop the budget
/// is exactly where it started.
#[test]
fn kill_mid_allocation_conserves_budget_reservations_simulated() {
    let sim = Simulation::with_faults(
        SimConfig {
            processors: 3,
            watchdog_ns: 50_000_000,
            ..SimConfig::default()
        },
        FaultPlan::new().kill_at_label(0, "seg:alloc:reserved", 0),
    );
    let platform = sim.platform();
    let budget = Arc::new(MemBudget::new(&platform, 8));
    let queue =
        Algorithm::SegBatched.build_with_budget(&platform, 64, Some(Arc::clone(&budget)), false);
    // The residency floor: the dummy segment's unit, held for the queue's
    // whole lifetime.
    let floor = budget.reserved();
    assert_eq!(floor, 1, "one dummy segment resident after construction");
    let report = sim.run({
        let queue = Arc::clone(&queue);
        // Enqueue-only: all three processes push past segment boundaries,
        // so each calls into the arena's reserve-then-allocate slow path.
        move |info| {
            for i in 0..40_u64 {
                let value = ((info.pid as u64) << 8) | i;
                while queue.enqueue(value).is_err() {}
            }
        }
    });
    assert_eq!(
        report.killed,
        vec![0],
        "pid 0 should die at its first slow-path allocation"
    );
    assert!(report.blocked.is_empty(), "blocked: {:?}", report.blocked);
    assert_eq!(budget.overruns(), 0);
    // Reserved units now count exactly the live segments; draining walks
    // every unit except the dummy's back. A leaked mid-allocation
    // reservation would leave the count permanently above the floor.
    while queue.dequeue().is_some() {}
    assert_eq!(
        budget.reserved(),
        floor,
        "the killed process's uncommitted reservation leaked"
    );
}

/// Stalls in the *dequeue* critical window — the other half of the §11
/// taxonomy — likewise delay but never corrupt: every algorithm
/// completes the full workload and leaves an empty queue.
#[test]
fn stalls_in_the_dequeue_window_delay_but_never_corrupt() {
    for algorithm in Algorithm::ALL {
        let plan = FaultPlan::new()
            .stall_at_label(0, algorithm.dequeue_fault_label(), 0, 200_000)
            .stall_at_label(0, algorithm.dequeue_fault_label(), 4, 200_000);
        let point = run_simulated_faulted(
            algorithm,
            SimConfig {
                processors: 3,
                ..SimConfig::default()
            },
            &tiny(),
            plan,
        );
        assert_eq!(point.stalls_injected, 2, "{algorithm}: stalls fired");
        assert!(point.killed.is_empty(), "{algorithm}");
        assert!(point.survivors_completed(), "{algorithm}");
        assert_eq!(point.pairs_completed, 240, "{algorithm}");
        assert_eq!(point.drained, Some(0), "{algorithm}: queue empty after");
    }
}

/// A preemption storm parked on the MS dequeue window (Head swung, dummy
/// not yet freed) is absorbed without loss, exactly like its enqueue
/// twin.
#[test]
fn preempt_storm_on_the_ms_dequeue_window_is_absorbed() {
    let point = run_simulated_faulted(
        Algorithm::NewNonBlocking,
        SimConfig {
            processors: 2,
            processes_per_processor: 2,
            ..SimConfig::default()
        },
        &tiny(),
        FaultPlan::new().preempt_storm(0, "msq:deq:window", 16),
    );
    assert_eq!(point.preempts_injected, 16);
    assert!(point.killed.is_empty());
    assert!(point.survivors_completed());
    assert_eq!(point.pairs_completed, 240);
    assert_eq!(point.drained, Some(0));
}

/// Death in the dequeue window, across the paper's whole legend: only
/// the queues whose dequeue window is a held lock block their survivors.
/// Mellor-Crummey lands on the *survivable* side here — its dequeue
/// tears nothing — even though its enqueue window is blocking, the
/// asymmetry [`Algorithm::dequeue_death_survivable`] encodes.
#[test]
fn kill_in_the_dequeue_window_blocks_only_the_lock_based_queues() {
    for algorithm in Algorithm::ALL {
        let point = run_simulated_faulted(
            algorithm,
            SimConfig {
                processors: 3,
                watchdog_ns: 50_000_000,
                ..SimConfig::default()
            },
            &tiny(),
            FaultPlan::new().kill_at_label(0, algorithm.dequeue_fault_label(), 0),
        );
        assert_eq!(point.killed, vec![0], "{algorithm}");
        assert_eq!(
            point.survivors_completed(),
            algorithm.dequeue_death_survivable(),
            "{algorithm}: blocked {:?}",
            point.blocked
        );
        if algorithm.dequeue_death_survivable() {
            // Both survivors ran their full shares (the victim died
            // inside its first dequeue, so only its share is lost).
            assert_eq!(point.pairs_completed, 160, "{algorithm}");
            if algorithm.is_nonblocking() {
                // The victim's in-flight dequeue already swung Head, so
                // the queue ends balanced.
                assert_eq!(point.drained, Some(0), "{algorithm}");
            }
        } else {
            assert_eq!(point.drained, None, "{algorithm}");
        }
    }
}

/// Runs 3 simulated processes over the MS queue with pid 0 killed at its
/// first pass through the *dequeue* critical window (Head swung, dummy
/// not yet freed), records the surviving history, drains the queue, and
/// returns the history with the victim's in-flight dequeue admitted as a
/// pending operation. The kill fires *after* the Head CAS, so exactly
/// one recorded enqueue has no recorded dequeue: the value the victim
/// removed but never acknowledged.
fn kill_mid_dequeue_and_record(cfg: SimConfig) -> History {
    let seed = cfg.seed;
    let sim = Simulation::with_faults(cfg, FaultPlan::new().kill_at_label(0, "msq:deq:window", 0));
    let queue = Algorithm::NewNonBlocking.build(&sim.platform(), 64);
    let recorder = Recorder::new();
    let handles: Vec<_> = (0..3).map(|p| Some(recorder.handle(p))).collect();
    let handles = Arc::new(Mutex::new(handles));
    let report = sim.run({
        let queue = Arc::clone(&queue);
        let handles = Arc::clone(&handles);
        move |info| {
            let mut handle = handles.lock().unwrap()[info.pid].take().unwrap();
            for i in 0..2_u64 {
                let value = ((info.pid as u64) << 8) | i;
                handle.enqueue(&*queue, value).unwrap();
                handle.dequeue(&*queue);
            }
        }
    });
    assert_eq!(report.killed, vec![0], "seed {seed:#x}");
    assert!(
        report.blocked.is_empty(),
        "seed {seed:#x}: watchdog flagged survivors of a non-blocking queue: {:?}",
        report.blocked
    );
    let mut drainer = recorder.handle(3);
    while drainer.dequeue(&*queue).is_some() {}
    drop(drainer);

    let mut events = recorder.finish().events().to_vec();
    let enqueued: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.operation {
            Operation::Enqueue(v) => Some(v),
            _ => None,
        })
        .collect();
    let dequeued: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.operation {
            Operation::Dequeue(Some(v)) => Some(v),
            _ => None,
        })
        .collect();
    // Values are unique per (pid, iteration), so a set difference finds
    // the one the victim linearized out but never returned.
    let missing: Vec<u64> = enqueued
        .into_iter()
        .filter(|v| !dequeued.contains(v))
        .collect();
    assert_eq!(
        missing.len(),
        1,
        "seed {seed:#x}: exactly the victim's in-flight dequeue should be unrecorded: {missing:?}"
    );
    events.push(Event {
        process: 0,
        operation: Operation::Dequeue(Some(missing[0])),
        invoked_at: 0,
        returned_at: u64::MAX,
    });
    History::from_events(events)
}

/// **Acceptance, dequeue side**: kill a process mid-dequeue on the MS
/// queue across 16 perturbed schedules. Survivors always finish, the
/// queue always drains, and every recorded history — the victim's
/// pending dequeue included — passes the fast checks and the exhaustive
/// Wing–Gong linearizability search.
#[test]
fn kill_mid_dequeue_on_ms_queue_survivors_linearize_across_16_seeds() {
    let base = SimConfig {
        processors: 3,
        quantum_ns: 60_000,
        watchdog_ns: 50_000_000,
        ..SimConfig::default()
    };
    schedule_sweep(base, 16, |cfg| {
        let seed = cfg.seed;
        let history = kill_mid_dequeue_and_record(cfg);
        assert!(
            history.check_queue_safety().is_empty(),
            "seed {seed:#x}: fast checks failed: {:?}",
            history.events()
        );
        assert!(
            is_linearizable_queue(history.events()),
            "seed {seed:#x}: faulted history not linearizable: {:?}",
            history.events()
        );
    });
}

/// The same death inside the single-lock queue's *dequeue* critical
/// section (`H_lock` held): across 16 perturbed schedules the watchdog
/// must report every survivor permanently blocked.
#[test]
fn kill_mid_dequeue_on_single_lock_watchdog_flags_survivors_across_16_seeds() {
    let base = SimConfig {
        processors: 3,
        quantum_ns: 60_000,
        watchdog_ns: 50_000_000,
        ..SimConfig::default()
    };
    schedule_sweep(base, 16, |cfg| {
        let seed = cfg.seed;
        let point = run_simulated_faulted(
            Algorithm::SingleLock,
            cfg,
            &tiny(),
            FaultPlan::new().kill_at_label(0, "single-lock:deq:locked", 0),
        );
        assert_eq!(point.killed, vec![0], "seed {seed:#x}");
        assert!(
            !point.survivors_completed(),
            "seed {seed:#x}: a single-lock dequeue death should block survivors"
        );
        assert_eq!(
            point.blocked.len(),
            2,
            "seed {seed:#x}: both survivors hang on the dead process's lock: {:?}",
            point.blocked
        );
        assert_eq!(
            point.blocked_kinds,
            vec![BlockedKind::DeadHolder; 2],
            "seed {seed:#x}: the watchdog must classify the wedge as a dead holder"
        );
        assert_eq!(
            point.drained, None,
            "seed {seed:#x}: drain must not be attempted"
        );
    });
}

/// The two-lock queue's `H_lock` is just as fatal held-at-death: the
/// paper's Figure 2 algorithm lets enqueuers sail past (T_lock is
/// independent) but every survivor eventually needs a dequeue, wedges on
/// the dead holder, and is watchdog-flagged — across 16 schedules.
#[test]
fn kill_mid_dequeue_on_two_lock_watchdog_flags_survivors_across_16_seeds() {
    let base = SimConfig {
        processors: 3,
        quantum_ns: 60_000,
        watchdog_ns: 50_000_000,
        ..SimConfig::default()
    };
    schedule_sweep(base, 16, |cfg| {
        let seed = cfg.seed;
        let point = run_simulated_faulted(
            Algorithm::NewTwoLock,
            cfg,
            &tiny(),
            FaultPlan::new().kill_at_label(0, "two-lock:deq:locked", 0),
        );
        assert_eq!(point.killed, vec![0], "seed {seed:#x}");
        assert!(
            !point.survivors_completed(),
            "seed {seed:#x}: a dead H_lock holder should block survivors"
        );
        assert_eq!(
            point.blocked.len(),
            2,
            "seed {seed:#x}: both survivors wedge on their next dequeue: {:?}",
            point.blocked
        );
        assert_eq!(
            point.blocked_kinds,
            vec![BlockedKind::DeadHolder; 2],
            "seed {seed:#x}: the watchdog must classify the wedge as a dead holder"
        );
        assert_eq!(point.drained, None, "seed {seed:#x}");
    });
}

/// Restart-and-catch-up on the MS queue: the designated survivor sees
/// the death notice, replays the victim's whole residual share, and the
/// handoff is stamped with a positive time-to-recover — deterministically
/// across 16 perturbed schedules.
#[test]
fn dequeue_kill_recovery_absorbs_residual_share_across_16_seeds() {
    let base = SimConfig {
        processors: 3,
        quantum_ns: 60_000,
        watchdog_ns: 400_000_000,
        ..SimConfig::default()
    };
    schedule_sweep(base, 16, |cfg| {
        let seed = cfg.seed;
        let point = run_simulated_recovered(
            Algorithm::NewNonBlocking,
            cfg,
            &tiny(),
            FaultPlan::new().kill_at_label(1, "msq:deq:window", 0),
            RecoveryPolicy::designated(0),
        );
        assert_eq!(point.killed, vec![1], "seed {seed:#x}");
        assert!(
            point.survivors_completed(),
            "seed {seed:#x}: blocked {:?}",
            point.blocked
        );
        // The victim died inside its first dequeue: its whole 80-pair
        // share is residual and must be replayed.
        assert_eq!(point.recovered_pairs, 80, "seed {seed:#x}");
        assert_eq!(
            point.pairs_completed + point.recovered_pairs,
            240,
            "seed {seed:#x}"
        );
        assert_eq!(point.recoveries.len(), 1, "seed {seed:#x}");
        let ttr = point.time_to_recover_ns.expect("recovery completed");
        assert!(ttr > 0, "seed {seed:#x}: catch-up costs virtual time");
        assert_eq!(point.drained, Some(0), "seed {seed:#x}");
    });
}

/// Every (queue, held lock) pair in the blocking legend, with the
/// expected repair verdict and the number of values the repaired death
/// strands. Killing at occurrence 0 of each label dies holding:
/// the single lock (enqueue side, then dequeue side), the two-lock
/// queue's `T_lock` and `H_lock`, and Mellor-Crummey's torn-tail and
/// stranded-dummy windows.
const REPAIR_COMBOS: [(Algorithm, &str, &str, u64); 6] = [
    (
        Algorithm::SingleLock,
        "single-lock:enq:locked",
        "single-lock:repair:enq-discard",
        0,
    ),
    (
        Algorithm::SingleLock,
        "single-lock:deq:locked",
        "single-lock:repair:deq-rollback",
        1,
    ),
    (
        Algorithm::NewTwoLock,
        "two-lock:enq:locked",
        "two-lock:repair:enq-discard",
        0,
    ),
    (
        Algorithm::NewTwoLock,
        "two-lock:deq:locked",
        "two-lock:repair:deq-rollback",
        1,
    ),
    (
        Algorithm::MellorCrummey,
        "mc:enq:window",
        "mc:repair:enq-complete",
        1,
    ),
    (
        Algorithm::MellorCrummey,
        "mc:deq:window",
        "mc:repair:deq-complete",
        0,
    ),
];

/// **Tentpole acceptance**: kill a process while it holds each lock (or
/// sits in each blocking window) of every repairable queue, across 16
/// perturbed schedules. The watchdog never fires: a waiter revokes the
/// dead holder's lock, repairs the torn invariant with the expected
/// verdict, stamps a positive time-to-repair, and the designated
/// survivor replays the victim's residual share to full conservation.
#[test]
fn kill_while_holding_each_lock_is_repaired_across_16_seeds() {
    let base = SimConfig {
        processors: 3,
        quantum_ns: 60_000,
        watchdog_ns: 400_000_000,
        ..SimConfig::default()
    };
    schedule_sweep(base, 16, |cfg| {
        let seed = cfg.seed;
        for (algorithm, kill_label, repair_label, stranded) in REPAIR_COMBOS {
            let point = run_simulated_repaired(
                algorithm,
                cfg,
                &tiny(),
                FaultPlan::new().kill_at_label(1, kill_label, 0),
                RecoveryPolicy::designated(0),
            );
            assert_eq!(point.killed, vec![1], "{algorithm} seed {seed:#x}");
            assert!(
                point.survivors_completed(),
                "{algorithm} seed {seed:#x}: repair must beat the watchdog, blocked {:?}",
                point.blocked
            );
            assert!(point.blocked_kinds.is_empty(), "{algorithm} seed {seed:#x}");
            // The victim died inside its first pair: its whole 80-pair
            // share is residual and must be replayed.
            assert_eq!(point.recovered_pairs, 80, "{algorithm} seed {seed:#x}");
            assert_eq!(
                point.pairs_completed + point.recovered_pairs,
                240,
                "{algorithm} seed {seed:#x}: conservation"
            );
            assert_eq!(point.repairs.len(), 1, "{algorithm} seed {seed:#x}");
            assert_eq!(point.repairs[0].victim, 1, "{algorithm} seed {seed:#x}");
            assert_eq!(
                point.repairs[0].point, repair_label,
                "{algorithm} seed {seed:#x}: wrong repair verdict"
            );
            let ttr = point
                .time_to_repair_ns
                .expect("a repaired run stamps time-to-repair");
            assert!(
                ttr > 0,
                "{algorithm} seed {seed:#x}: dispossession costs virtual time"
            );
            assert_eq!(
                point.drained,
                Some(stranded),
                "{algorithm} seed {seed:#x}: the repair verdict fixes the stranded count"
            );
        }
    });
}

/// Runs 3 simulated processes over `algorithm`'s *repairable* build with
/// pid 0 killed at its first pass through `label`, records the surviving
/// history, drains the queue (possible precisely because repair healed
/// it), and admits the victim's in-flight operation per the repair
/// verdict: a repair-completed enqueue whose value surfaced becomes a
/// pending enqueue, a repair-completed dequeue's vanished value becomes
/// a pending dequeue, and a discarded or rolled-back operation never
/// happened at all.
fn kill_and_record_repaired(cfg: SimConfig, algorithm: Algorithm, label: &'static str) -> History {
    let seed = cfg.seed;
    let sim = Simulation::with_faults(cfg, FaultPlan::new().kill_at_label(0, label, 0));
    let queue = algorithm.build_with_budget(&sim.platform(), 64, None, true);
    let recorder = Recorder::new();
    let handles: Vec<_> = (0..3).map(|p| Some(recorder.handle(p))).collect();
    let handles = Arc::new(Mutex::new(handles));
    let report = sim.run({
        let queue = Arc::clone(&queue);
        let handles = Arc::clone(&handles);
        move |info| {
            let mut handle = handles.lock().unwrap()[info.pid].take().unwrap();
            for i in 0..2_u64 {
                let value = ((info.pid as u64) << 8) | i;
                handle.enqueue(&*queue, value).unwrap();
                handle.dequeue(&*queue);
            }
        }
    });
    assert_eq!(report.killed, vec![0], "{algorithm} seed {seed:#x}");
    assert!(
        report.blocked.is_empty(),
        "{algorithm} seed {seed:#x}: repair must beat the watchdog: {:?}",
        report.blocked
    );
    assert!(report.repairs.len() <= 1, "{algorithm} seed {seed:#x}");
    let mut drainer = recorder.handle(3);
    while drainer.dequeue(&*queue).is_some() {}
    drop(drainer);

    let mut events = recorder.finish().events().to_vec();
    // Enqueue side: the victim's repair-completed enqueue surfaced a
    // value nobody recorded enqueuing.
    let victim_surfaced = events
        .iter()
        .any(|e| e.operation == Operation::Dequeue(Some(VICTIM_VALUE)));
    let victim_recorded = events
        .iter()
        .any(|e| e.operation == Operation::Enqueue(VICTIM_VALUE));
    if victim_surfaced && !victim_recorded {
        events.push(Event {
            process: 0,
            operation: Operation::Enqueue(VICTIM_VALUE),
            invoked_at: 0,
            returned_at: u64::MAX,
        });
    }
    // Dequeue side: a recorded enqueue whose value never surfaced was
    // linearized out by the victim's repair-completed dequeue.
    let enqueued: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.operation {
            Operation::Enqueue(v) => Some(v),
            _ => None,
        })
        .collect();
    let dequeued: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.operation {
            Operation::Dequeue(Some(v)) => Some(v),
            _ => None,
        })
        .collect();
    let missing: Vec<u64> = enqueued
        .into_iter()
        .filter(|v| !dequeued.contains(v))
        .collect();
    assert!(
        missing.len() <= 1,
        "{algorithm} seed {seed:#x}: at most the victim's in-flight dequeue vanishes: {missing:?}"
    );
    for v in missing {
        events.push(Event {
            process: 0,
            operation: Operation::Dequeue(Some(v)),
            invoked_at: 0,
            returned_at: u64::MAX,
        });
    }
    History::from_events(events)
}

/// **Tentpole acceptance, history side**: every repaired history — with
/// the victim's in-flight operation admitted per the repair verdict —
/// passes the fast checks and the exhaustive Wing–Gong linearizability
/// search, across 16 perturbed schedules for all six (queue, lock)
/// combinations. Repair never invents, loses, reorders, or duplicates a
/// value.
#[test]
fn repaired_histories_linearize_across_16_seeds() {
    let base = SimConfig {
        processors: 3,
        quantum_ns: 60_000,
        watchdog_ns: 400_000_000,
        ..SimConfig::default()
    };
    schedule_sweep(base, 16, |cfg| {
        for (algorithm, kill_label, _, _) in REPAIR_COMBOS {
            let seed = cfg.seed;
            let history = kill_and_record_repaired(cfg, algorithm, kill_label);
            assert!(
                history.check_queue_safety().is_empty(),
                "{algorithm} seed {seed:#x}: fast checks failed: {:?}",
                history.events()
            );
            assert!(
                is_linearizable_queue(history.events()),
                "{algorithm} seed {seed:#x}: repaired history not linearizable: {:?}",
                history.events()
            );
        }
    });
}

/// The "unless the lock-holder's death is survivable" nuance:
/// Mellor-Crummey is blocking on the enqueue side (its torn-tail window
/// wedges survivors), but a dequeue-window death tears nothing — the
/// designated survivor absorbs the victim's share like a non-blocking
/// queue's would.
#[test]
fn mellor_crummey_dequeue_death_is_survivable_and_recoverable() {
    let point = run_simulated_recovered(
        Algorithm::MellorCrummey,
        SimConfig {
            processors: 3,
            watchdog_ns: 400_000_000,
            ..SimConfig::default()
        },
        &tiny(),
        FaultPlan::new().kill_at_label(1, "mc:deq:window", 0),
        RecoveryPolicy::designated(0),
    );
    assert_eq!(point.killed, vec![1]);
    assert!(point.survivors_completed(), "blocked: {:?}", point.blocked);
    assert_eq!(point.recovered_pairs, 80);
    assert_eq!(point.recoveries.len(), 1);
    assert!(point.time_to_recover_ns.expect("recovered") > 0);
}

/// The native analogue: a thread that panics while holding an
/// uncommitted [`ms_queues::Reservation`] releases it during unwinding.
#[test]
fn panicking_thread_releases_uncommitted_reservation_natively() {
    let platform = NativePlatform::new();
    let budget = Arc::new(MemBudget::new(&platform, 4));
    let worker = {
        let budget = Arc::clone(&budget);
        std::thread::spawn(move || {
            let _guard = budget.try_reserve_guard(2).expect("well under limit");
            assert_eq!(budget.reserved(), 2);
            // The guard is still held (uncommitted) when the thread dies.
            panic!("process dies mid-allocation");
        })
    };
    assert!(worker.join().is_err(), "the worker must have panicked");
    assert_eq!(budget.reserved(), 0, "unwinding released the reservation");
    assert_eq!(budget.overruns(), 0);
}

/// Builds the deterministic *re-revocation chain* on the repairable
/// single-lock queue and returns the surviving history. Staggered
/// arrivals make the chain identical on every perturbed schedule:
///
/// 1. pid 1 starts immediately, takes the lock, and is killed holding
///    it (`single-lock:enq:locked`, intent published, node unlinked);
/// 2. pids 2 and 3 arrive 500 µs later, so each one's first
///    acquisition finds a dead owner past the probe budget and
///    *revokes* — the CAS winner inherits the repair duty and is
///    killed inside `single-lock:repair:window`, leaving
///    `repairing(dead)`, which the loser then re-revokes by the very
///    same rule and dies the same way;
/// 3. pid 0 arrives at 5 ms, re-revokes the second dead *repairer*
///    (not the original lock holder — that is the chain's proof),
///    completes pid 1's repair, and runs its pairs to completion.
fn rerevocation_chain_and_record(cfg: SimConfig) -> History {
    let seed = cfg.seed;
    let plan = FaultPlan::new()
        .kill_at_label(1, "single-lock:enq:locked", 0)
        .kill_at_label(2, "single-lock:repair:window", 0)
        .kill_at_label(3, "single-lock:repair:window", 0);
    let sim = Simulation::with_faults(cfg, plan);
    let platform = sim.platform();
    let queue = Algorithm::SingleLock.build_with_budget(&platform, 64, None, true);
    let recorder = Recorder::new();
    let handles: Vec<_> = (0..4).map(|p| Some(recorder.handle(p))).collect();
    let handles = Arc::new(Mutex::new(handles));
    let report = sim.run({
        let queue = Arc::clone(&queue);
        let handles = Arc::clone(&handles);
        move |info| {
            let mut handle = handles.lock().unwrap()[info.pid].take().unwrap();
            match info.pid {
                2 | 3 => platform.delay(500_000),
                0 => platform.delay(5_000_000),
                _ => {}
            }
            let pairs = if info.pid == 0 { 4 } else { 2 };
            for i in 0..pairs {
                let value = ((info.pid as u64) << 8) | i;
                handle.enqueue(&*queue, value).unwrap();
                handle.dequeue(&*queue);
            }
        }
    });
    let mut killed = report.killed.clone();
    killed.sort_unstable();
    assert_eq!(killed, vec![1, 2, 3], "seed {seed:#x}");
    assert!(
        report.blocked.is_empty(),
        "seed {seed:#x}: the chain must beat the watchdog: {:?}",
        report.blocked
    );
    // Exactly one repair completes — by pid 0, and its reported victim
    // is a dead *repairer*, proving the `repairing(dead)` word was
    // itself revoked rather than the original holder's `held(dead)`.
    assert_eq!(report.repairs.len(), 1, "seed {seed:#x}");
    assert_eq!(report.repairs[0].by, 0, "seed {seed:#x}");
    assert!(
        report.repairs[0].victim == 2 || report.repairs[0].victim == 3,
        "seed {seed:#x}: pid 0 must dispossess a dead repairer, got victim {}",
        report.repairs[0].victim
    );
    // pid 1 died with its node unlinked, so the torn enqueue is
    // discarded — same verdict as the single-victim sweep.
    assert_eq!(
        report.repairs[0].point, "single-lock:repair:enq-discard",
        "seed {seed:#x}"
    );
    let ttr = report
        .time_to_repair_ns()
        .expect("the chain stamps time-to-repair");
    assert!(
        ttr > 0,
        "seed {seed:#x}: two re-revocations cost virtual time"
    );

    // The queue is fully operable afterwards: the drain succeeds and
    // comes back empty (pid 1's value was discarded, pids 2 and 3 died
    // before publishing anything, pid 0's pairs balanced).
    let mut drainer = recorder.handle(4);
    let mut stranded = 0_u64;
    while drainer.dequeue(&*queue).is_some() {
        stranded += 1;
    }
    drop(drainer);
    assert_eq!(
        stranded, 0,
        "seed {seed:#x}: the discard verdict strands nothing"
    );

    let mut events = recorder.finish().events().to_vec();
    // Defensive admission, mirroring `kill_and_record_repaired`: any
    // surfaced-but-unrecorded value is a victim's linearized-but-
    // unacknowledged enqueue (none is expected under the discard
    // verdict, but the checker must not depend on that).
    let recorded: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.operation {
            Operation::Enqueue(v) => Some(v),
            _ => None,
        })
        .collect();
    let surfaced: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.operation {
            Operation::Dequeue(Some(v)) => Some(v),
            _ => None,
        })
        .collect();
    for v in surfaced {
        if !recorded.contains(&v) {
            events.push(Event {
                process: (v >> 8) as usize,
                operation: Operation::Enqueue(v),
                invoked_at: 0,
                returned_at: u64::MAX,
            });
        }
    }
    History::from_events(events)
}

/// **Multi-victim fault plans, part 1**: a repairer killed mid-repair
/// leaves `repairing(dead)`, which is revocable by the same dead-holder
/// rule — twice over. Across 16 perturbed schedules the three-death
/// chain (holder, repairer, re-repairer) always ends with the last
/// arrival completing the original victim's repair, and the surviving
/// history passes the fast checks and the exhaustive Wing–Gong search.
#[test]
fn repairer_killed_mid_repair_is_rerevoked_across_16_seeds() {
    let base = SimConfig {
        processors: 4,
        quantum_ns: 60_000,
        watchdog_ns: 400_000_000,
        ..SimConfig::default()
    };
    schedule_sweep(base, 16, |cfg| {
        let seed = cfg.seed;
        let history = rerevocation_chain_and_record(cfg);
        assert!(
            history.check_queue_safety().is_empty(),
            "seed {seed:#x}: fast checks failed: {:?}",
            history.events()
        );
        assert!(
            is_linearizable_queue(history.events()),
            "seed {seed:#x}: chain history not linearizable: {:?}",
            history.events()
        );
    });
}

/// Runs the designated-survivor protocol with recorder handles and a
/// fault point before every replayed pair, killing pid 1 at its first
/// MS enqueue window and then pid 0 — the survivor — at the *second*
/// replay fault point, i.e. mid-replay: after exactly one replayed
/// pair, before the handoff is stamped. Returns the surviving history.
fn survivor_killed_mid_replay_and_record(cfg: SimConfig) -> History {
    const PAIRS_EACH: u64 = 2;
    const REPLAY_BASE: u64 = 1 << 12;
    let seed = cfg.seed;
    let plan = FaultPlan::new()
        .kill_at_label(1, "msq:enq:window", 0)
        .kill_at_label(0, "test:replay:pair", 1);
    let sim = Simulation::with_faults(cfg, plan);
    let platform = sim.platform();
    let queue = Algorithm::NewNonBlocking.build(&platform, 64);
    let n = sim.num_processes();
    // Progress cells and the death board are allocated during untimed
    // setup so cell ids stay schedule-stable, exactly like the policy
    // driver's own setup.
    let progress: Arc<Vec<_>> = Arc::new((0..n).map(|_| platform.alloc_cell(0)).collect());
    let _ = platform.death_board();
    let recorder = Recorder::new();
    let handles: Vec<_> = (0..n).map(|p| Some(recorder.handle(p))).collect();
    let handles = Arc::new(Mutex::new(handles));
    let report = sim.run({
        let queue = Arc::clone(&queue);
        let progress = Arc::clone(&progress);
        let handles = Arc::clone(&handles);
        move |info| {
            let mut handle = handles.lock().unwrap()[info.pid].take().unwrap();
            let mut absorbed = vec![false; n];
            let absorb_new_deaths = |handle: &mut ms_queues::linearize::RecorderHandle,
                                     absorbed: &mut [bool]| {
                let notices = platform.dead_peers();
                for victim in 0..n {
                    if victim == info.pid || absorbed[victim] || notices & (1 << victim) == 0 {
                        continue;
                    }
                    absorbed[victim] = true;
                    for i in progress[victim].load()..PAIRS_EACH {
                        // The watched window: pid 0 dies at occurrence
                        // 1, after replaying exactly one pair.
                        platform.fault_point("test:replay:pair");
                        handle.enqueue(&*queue, REPLAY_BASE | i).unwrap();
                        handle.dequeue(&*queue);
                    }
                    platform.mark_recovered(victim);
                }
            };
            for i in 0..PAIRS_EACH {
                let value = ((info.pid as u64) << 8) | i;
                handle.enqueue(&*queue, value).unwrap();
                handle.dequeue(&*queue);
                progress[info.pid].store(i + 1);
                if info.pid == 0 {
                    absorb_new_deaths(&mut handle, &mut absorbed);
                }
            }
            if info.pid == 0 {
                loop {
                    absorb_new_deaths(&mut handle, &mut absorbed);
                    let all_settled = (0..n)
                        .all(|v| v == info.pid || absorbed[v] || progress[v].load() == PAIRS_EACH);
                    if all_settled {
                        break;
                    }
                    platform.delay(500);
                }
            }
        }
    });
    let mut killed = report.killed.clone();
    killed.sort_unstable();
    assert_eq!(killed, vec![0, 1], "seed {seed:#x}");
    assert!(
        report.blocked.is_empty(),
        "seed {seed:#x}: deaths on a non-blocking queue wedge nobody: {:?}",
        report.blocked
    );
    // The survivor died between replayed pairs, before stamping the
    // handoff: the run records *no* completed recovery.
    assert!(
        report.recoveries.is_empty(),
        "seed {seed:#x}: a mid-replay death must not stamp the handoff"
    );
    assert_eq!(report.time_to_recover_ns(), None, "seed {seed:#x}");

    // The queue remains fully operable: drain whatever the deaths left.
    let mut drainer = recorder.handle(n);
    while drainer.dequeue(&*queue).is_some() {}
    drop(drainer);

    let mut events = recorder.finish().events().to_vec();
    // Exactly one replayed pair completed before the survivor died —
    // that is what "mid-replay" means, and the history must show it.
    assert!(
        events
            .iter()
            .any(|e| e.operation == Operation::Enqueue(REPLAY_BASE)),
        "seed {seed:#x}: the first replayed pair must be on record"
    );
    assert!(
        !events
            .iter()
            .any(|e| e.operation == Operation::Enqueue(REPLAY_BASE | 1)),
        "seed {seed:#x}: the survivor died before the second replayed pair"
    );
    // Admit pid 1's linearized-but-unacknowledged enqueue if its value
    // surfaced (it died inside the MS enqueue window, so the link CAS
    // may or may not have landed, seed by seed).
    let recorded: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.operation {
            Operation::Enqueue(v) => Some(v),
            _ => None,
        })
        .collect();
    let surfaced: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.operation {
            Operation::Dequeue(Some(v)) => Some(v),
            _ => None,
        })
        .collect();
    for v in surfaced {
        if !recorded.contains(&v) {
            events.push(Event {
                process: (v >> 8) as usize,
                operation: Operation::Enqueue(v),
                invoked_at: 0,
                returned_at: u64::MAX,
            });
        }
    }
    History::from_events(events)
}

/// **Multi-victim fault plans, part 2**: the designated survivor itself
/// is killed mid-replay — after absorbing the victim's death notice and
/// replaying one residual pair, before the handoff stamp. Across 16
/// perturbed schedules no recovery is recorded, the remaining process
/// finishes untouched, the queue drains, and the history — replayed
/// pair included — stays linearizable.
#[test]
fn survivor_killed_mid_replay_linearizes_across_16_seeds() {
    let base = SimConfig {
        processors: 3,
        quantum_ns: 60_000,
        watchdog_ns: 50_000_000,
        ..SimConfig::default()
    };
    schedule_sweep(base, 16, |cfg| {
        let seed = cfg.seed;
        let history = survivor_killed_mid_replay_and_record(cfg);
        assert!(
            history.check_queue_safety().is_empty(),
            "seed {seed:#x}: fast checks failed: {:?}",
            history.events()
        );
        assert!(
            is_linearizable_queue(history.events()),
            "seed {seed:#x}: mid-replay history not linearizable: {:?}",
            history.events()
        );
    });
}
