//! Fault-injection acceptance numbers for the progress guarantees →
//! `BENCH_fault.json`.
//!
//! The paper's core robustness claim (Section 1, borne out by Figures 4–5)
//! is that a non-blocking queue keeps making global progress when a
//! process is halted in the middle of its operation, while lock-based
//! queues make everyone wait. This bench turns the claim into numbers:
//!
//! 1. **Stall sweep**: for each of the paper's six algorithms, process 0
//!    is deterministically stalled at the algorithm's *enqueue critical
//!    window* (`Algorithm::enqueue_fault_label`) for 0 / 100 µs / 400 µs /
//!    1.6 ms, several times over the run. The reported metric is
//!    **survivor completion time** — the virtual time at which the last
//!    *non-victim* process finishes its share. Non-blocking queues must
//!    stay flat (survivors sail past the stalled victim, helping its
//!    half-done enqueue along); the single-lock and Mellor-Crummey queues
//!    collapse by roughly (number of stalls) x (stall length), because
//!    every survivor waits out every stall — the Figure 4–5 ordering.
//! 2. **Death cells**: process 0 is *killed* inside the same window. On
//!    the new non-blocking queue every survivor completes and the queue
//!    drains (one stranded value from the victim's linearized enqueue);
//!    on the single-lock queue the virtual-time watchdog reports the
//!    survivors permanently blocked — the expected, asserted outcome.
//!
//! The stall comparison is repeated at 64 processors (the raised
//! simulator ceiling) for the three headline algorithms, and the
//! Figure 4–5 ordering is asserted there as well. Two later cells extend
//! the death story: **Cell 3** layers restart-and-catch-up recovery on
//! every contender (survivable windows absorb the victim's residual
//! share; held-lock windows watchdog), and **Cell 4** reruns the
//! held-lock deaths on the *repairable* builds (DESIGN.md §13), where a
//! waiter revokes the dead holder's lock and repairs the torn invariant
//! — reported as **time-to-repair**, with no lock queue left
//! watchdog-blocked.
//!
//! Run from the workspace root: `cargo run --release -p msq-bench --bin
//! faultbench`. Writes `BENCH_fault.json` in the current directory. Pass
//! `--smoke` for a scaled-down CI sanity run (same cells, same shape),
//! written under `target/bench-smoke/` instead.

use std::fmt::Write as _;

use msq_harness::{
    run_scenario_simulated, Algorithm, PairedScenario, PolicyScenario, WorkloadConfig,
};
use msq_sim::{FaultPlan, RecoveryPolicy, SimConfig};

/// Simulated processors (dedicated: one process each, as in Figure 3's
/// machine model — the *faults* supply the adverse scheduling here).
const PROCESSORS: usize = 4;

/// High-scale repeat of the headline cells: the same victim stalls with
/// 63 survivors instead of 3, exercising the raised simulator ceiling.
/// The Figure 4–5 ordering must hold there too.
const PROCESSORS_HIGH: usize = 64;

/// Enqueue/dequeue pairs across all processes.
const PAIRS: u64 = 1_600;
const SMOKE_PAIRS: u64 = 320;

/// The paper's ~6 µs of "other work" between queue operations.
const OTHER_WORK_NS: u64 = 6_000;

/// Stalls injected per run, and the victim's window-hit stride between
/// them (occurrences 0, 8, 16, 24 of the critical-window label).
const NUM_STALLS: u64 = 4;
const STALL_STRIDE: u64 = 8;

/// Stall lengths swept, in virtual nanoseconds.
const STALL_LENGTHS: [u64; 4] = [0, 100_000, 400_000, 1_600_000];

/// Virtual-time watchdog for the death cells (far above any faultless
/// completion time at these scales).
const WATCHDOG_NS: u64 = 400_000_000;

struct StallCell {
    algorithm: Algorithm,
    stall_ns: u64,
    elapsed_ns: u64,
    survivor_completion_ns: u64,
    stalls_fired: u64,
}

/// One stall-sweep run: pid 0 stalls `NUM_STALLS` times at the
/// algorithm's enqueue critical window; everyone runs the Section 4
/// workload. Returns survivor (non-victim) completion alongside elapsed.
fn stall_cell(algorithm: Algorithm, pairs: u64, stall_ns: u64) -> StallCell {
    stall_cell_at(
        algorithm,
        PROCESSORS,
        pairs,
        stall_ns,
        algorithm.enqueue_fault_label(),
    )
}

/// The dequeue-side twin: pid 0 stalls at the algorithm's *dequeue*
/// critical window instead. The collapser set differs from the enqueue
/// sweep — Mellor-Crummey's dequeue window (Head swung, old dummy not
/// yet recycled) blocks nobody, so on this side it joins the flat group.
fn dequeue_stall_cell(algorithm: Algorithm, pairs: u64, stall_ns: u64) -> StallCell {
    stall_cell_at(
        algorithm,
        PROCESSORS,
        pairs,
        stall_ns,
        algorithm.dequeue_fault_label(),
    )
}

fn stall_cell_at(
    algorithm: Algorithm,
    processors: usize,
    pairs: u64,
    stall_ns: u64,
    label: &'static str,
) -> StallCell {
    let mut plan = FaultPlan::new();
    if stall_ns > 0 {
        for k in 0..NUM_STALLS {
            plan = plan.stall_at_label(0, label, k * STALL_STRIDE, stall_ns);
        }
    }
    let config = SimConfig {
        processors,
        ..SimConfig::default()
    };
    let scenario = PairedScenario {
        workload: workload(pairs),
    };
    let report = run_scenario_simulated(algorithm, config, scenario, plan)
        .sim_report
        .expect("simulated runs carry a report");
    let survivor_completion_ns = report
        .per_process
        .iter()
        .filter(|p| p.pid != 0)
        .map(|p| p.finished_at_ns)
        .max()
        .unwrap_or(0);
    StallCell {
        algorithm,
        stall_ns,
        elapsed_ns: report.elapsed_ns,
        survivor_completion_ns,
        stalls_fired: report.stalls_injected,
    }
}

/// The Section 4 workload every cell runs: `pairs` pairs with the
/// paper's other work.
fn workload(pairs: u64) -> WorkloadConfig {
    WorkloadConfig {
        pairs_total: pairs,
        other_work_ns: OTHER_WORK_NS,
        capacity: 4_096,
        mem_budget: None,
    }
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let pairs = if smoke { SMOKE_PAIRS } else { PAIRS };

    // --- Cell 1: the stall sweep over the paper's six. ---
    let mut cells: Vec<StallCell> = Vec::new();
    for algorithm in Algorithm::ALL {
        for stall_ns in STALL_LENGTHS {
            let cell = stall_cell(algorithm, pairs, stall_ns);
            eprintln!(
                "stall {:>9} ns  {:<16} survivors done at {:>12} ns (elapsed {:>12} ns, {} stalls fired)",
                cell.stall_ns,
                cell.algorithm.label(),
                cell.survivor_completion_ns,
                cell.elapsed_ns,
                cell.stalls_fired
            );
            cells.push(cell);
        }
    }
    let baseline = |alg: Algorithm| {
        cells
            .iter()
            .find(|c| c.algorithm == alg && c.stall_ns == 0)
            .expect("baseline cell")
            .survivor_completion_ns
    };
    let at_max = |alg: Algorithm| {
        cells
            .iter()
            .find(|c| c.algorithm == alg && c.stall_ns == *STALL_LENGTHS.last().unwrap())
            .expect("max-stall cell")
            .survivor_completion_ns
    };

    // --- Cell 1b: the headline comparison again at 64 processors. Only
    // the extremes of the stall sweep (0 and the longest), for the three
    // algorithms the Figure 4–5 ordering is about. ---
    let high_contenders = [
        Algorithm::NewNonBlocking,
        Algorithm::SingleLock,
        Algorithm::MellorCrummey,
    ];
    let mut high_cells: Vec<StallCell> = Vec::new();
    for algorithm in high_contenders {
        for stall_ns in [0, *STALL_LENGTHS.last().unwrap()] {
            let cell = stall_cell_at(
                algorithm,
                PROCESSORS_HIGH,
                pairs,
                stall_ns,
                algorithm.enqueue_fault_label(),
            );
            eprintln!(
                "stall {:>9} ns  {:<16} ({}p) survivors done at {:>12} ns ({} stalls fired)",
                cell.stall_ns,
                cell.algorithm.label(),
                PROCESSORS_HIGH,
                cell.survivor_completion_ns,
                cell.stalls_fired
            );
            high_cells.push(cell);
        }
    }
    let high_at = |alg: Algorithm, stall_ns: u64| {
        high_cells
            .iter()
            .find(|c| c.algorithm == alg && c.stall_ns == stall_ns)
            .expect("high-scale cell")
            .survivor_completion_ns
    };

    // --- Cell 1c: the dequeue-side stall sweep over the same six. ---
    let mut deq_cells: Vec<StallCell> = Vec::new();
    for algorithm in Algorithm::ALL {
        for stall_ns in STALL_LENGTHS {
            let cell = dequeue_stall_cell(algorithm, pairs, stall_ns);
            eprintln!(
                "deq stall {:>9} ns  {:<16} survivors done at {:>12} ns ({} stalls fired)",
                cell.stall_ns,
                cell.algorithm.label(),
                cell.survivor_completion_ns,
                cell.stalls_fired
            );
            deq_cells.push(cell);
        }
    }
    let deq_baseline = |alg: Algorithm| {
        deq_cells
            .iter()
            .find(|c| c.algorithm == alg && c.stall_ns == 0)
            .expect("dequeue baseline cell")
            .survivor_completion_ns
    };
    let deq_at_max = |alg: Algorithm| {
        deq_cells
            .iter()
            .find(|c| c.algorithm == alg && c.stall_ns == *STALL_LENGTHS.last().unwrap())
            .expect("dequeue max-stall cell")
            .survivor_completion_ns
    };

    // --- Cell 2: death in the critical window. ---
    let faulted_cfg = SimConfig {
        processors: PROCESSORS,
        watchdog_ns: WATCHDOG_NS,
        ..SimConfig::default()
    };
    let killed_in_enqueue = |algorithm: Algorithm| {
        let plan = FaultPlan::new().kill_at_label(0, algorithm.enqueue_fault_label(), 0);
        let scenario = PairedScenario {
            workload: workload(pairs),
        };
        run_scenario_simulated(algorithm, faulted_cfg, scenario, plan).point
    };
    let kill_ms = killed_in_enqueue(Algorithm::NewNonBlocking);
    let kill_lock = killed_in_enqueue(Algorithm::SingleLock);
    eprintln!(
        "kill new-nonblocking: killed {:?}, blocked {:?}, drained {:?}, {} pairs completed",
        kill_ms.killed, kill_ms.blocked, kill_ms.drained, kill_ms.pairs_completed
    );
    eprintln!(
        "kill single-lock:     killed {:?}, blocked {:?} (watchdog), {} pairs completed",
        kill_lock.killed, kill_lock.blocked, kill_lock.pairs_completed
    );

    // --- Cell 3: kill/recovery cells for every contender. Pid 1 is
    // killed at its first pass through the algorithm's dequeue-side fault
    // point; pid 0 is the designated survivor of the restart-and-catch-up
    // policy. On a contender whose dequeue-window death is survivable the
    // survivor absorbs the victim's residual share (recovery cost ==
    // residual pairs, a positive time-to-recover is stamped); on the
    // lock-based queues the dead H_lock holder wedges everyone and the
    // watchdog flags the run instead. ---
    let policy = |repairable| PolicyScenario {
        workload: workload(pairs),
        policy: RecoveryPolicy::designated(0),
        repairable,
    };
    struct RecoveryCell {
        algorithm: Algorithm,
        point: msq_harness::FaultedPoint,
    }
    let mut recovery_cells: Vec<RecoveryCell> = Vec::new();
    for algorithm in Algorithm::WITH_EXTENSIONS {
        let plan = FaultPlan::new().kill_at_label(1, algorithm.dequeue_fault_label(), 0);
        let point = run_scenario_simulated(algorithm, faulted_cfg, policy(false), plan).point;
        eprintln!(
            "recovery {:<16} killed {:?}, blocked {:?}, recovered {} pairs, ttr {:?} ns",
            algorithm.label(),
            point.killed,
            point.blocked,
            point.recovered_pairs,
            point.time_to_recover_ns
        );
        recovery_cells.push(RecoveryCell { algorithm, point });
    }

    // --- Cell 4: revocable-lock repair cells (DESIGN.md §13). The same
    // kind of death that leaves Cell 3's lock queues watchdog-flagged —
    // pid 1 killed while holding each lock or blocking window — is rerun
    // on the *repairable* builds: a waiter revokes the dead holder's
    // lock, repairs the torn invariant, and the designated survivor
    // absorbs the residual share. The reported metric is
    // **time-to-repair**: the virtual time from the kill to the
    // repairing waiter's verdict. ---
    struct RepairCell {
        algorithm: Algorithm,
        kill_label: &'static str,
        point: msq_harness::FaultedPoint,
    }
    const REPAIR_KILLS: [(Algorithm, &str); 6] = [
        (Algorithm::SingleLock, "single-lock:enq:locked"),
        (Algorithm::SingleLock, "single-lock:deq:locked"),
        (Algorithm::NewTwoLock, "two-lock:enq:locked"),
        (Algorithm::NewTwoLock, "two-lock:deq:locked"),
        (Algorithm::MellorCrummey, "mc:enq:window"),
        (Algorithm::MellorCrummey, "mc:deq:window"),
    ];
    let mut repair_cells: Vec<RepairCell> = Vec::new();
    for (algorithm, kill_label) in REPAIR_KILLS {
        let plan = FaultPlan::new().kill_at_label(1, kill_label, 0);
        let point = run_scenario_simulated(algorithm, faulted_cfg, policy(true), plan).point;
        eprintln!(
            "repair {:<16} @ {:<24} killed {:?}, blocked {:?}, verdict {:?}, ttr {:?} ns",
            algorithm.label(),
            kill_label,
            point.killed,
            point.blocked,
            point.repairs.first().map(|r| r.point),
            point.time_to_repair_ns
        );
        repair_cells.push(RepairCell {
            algorithm,
            kill_label,
            point,
        });
    }

    // --- Cell 5: repair latency vs victim count. Kill pids 1..=v, each
    // at occurrence 0 of the enqueue-side lock label, so the deaths
    // chain: the lock serializes the critical section, each later
    // victim (or the survivor) revokes and repairs its predecessor
    // before dying in its own window — a dead *repairer* leaves
    // `repairing(dead)`, revocable by the very same rule — and pid 0
    // finishes the chain, then absorbs every victim's residual share.
    // The metric is how time-to-repair stretches as the chain deepens. ---
    struct MultiRepairCell {
        algorithm: Algorithm,
        kill_label: &'static str,
        victims: usize,
        point: msq_harness::FaultedPoint,
    }
    const MULTI_REPAIR: [(Algorithm, &str); 2] = [
        (Algorithm::SingleLock, "single-lock:enq:locked"),
        (Algorithm::NewTwoLock, "two-lock:enq:locked"),
    ];
    let mut multi_repair_cells: Vec<MultiRepairCell> = Vec::new();
    for (algorithm, kill_label) in MULTI_REPAIR {
        for victims in 1..=3_usize {
            let mut plan = FaultPlan::new();
            for pid in 1..=victims {
                plan = plan.kill_at_label(pid, kill_label, 0);
            }
            let point = run_scenario_simulated(algorithm, faulted_cfg, policy(true), plan).point;
            eprintln!(
                "multi-repair {:<16} victims {}: killed {:?}, repairs {}, slowest ttr {:?} ns",
                algorithm.label(),
                victims,
                point.killed,
                point.repairs.len(),
                point.time_to_repair_ns
            );
            multi_repair_cells.push(MultiRepairCell {
                algorithm,
                kill_label,
                victims,
                point,
            });
        }
    }

    // --- Acceptance. ---
    let max_stall = *STALL_LENGTHS.last().unwrap();
    let injected = NUM_STALLS * max_stall;
    // Non-blocking survivors must be (nearly) oblivious to the victim's
    // stalls. Smoke scale leaves fixed costs a bigger share, so its bound
    // is looser.
    let flat_bound = if smoke { 1.20 } else { 1.10 };
    let nonblocking_flat = Algorithm::ALL
        .into_iter()
        .filter(|a| a.is_nonblocking())
        .all(|a| (at_max(a) as f64) <= (baseline(a) as f64) * flat_bound);
    // Blocking survivors wait out the stalls: their excess must reflect a
    // sizable share of the injected stall time.
    let collapsers = [Algorithm::SingleLock, Algorithm::MellorCrummey];
    let blocking_collapses = collapsers
        .into_iter()
        .all(|a| at_max(a).saturating_sub(baseline(a)) >= injected / 2);
    // The Figure 4–5 ordering at the longest stall: the new non-blocking
    // queue beats both collapsing baselines outright.
    let figure_ordering = collapsers
        .into_iter()
        .all(|a| at_max(Algorithm::NewNonBlocking) < at_max(a));
    // The same ordering at 64 processors: with 63 survivors sharing the
    // fixed pair budget, the lock queues still serialize every survivor
    // behind the stalled victim while the non-blocking queue sails past.
    let figure_ordering_high = collapsers
        .into_iter()
        .all(|a| high_at(Algorithm::NewNonBlocking, max_stall) < high_at(a, max_stall));
    let all_stalls_fired = cells
        .iter()
        .all(|c| c.stalls_fired == if c.stall_ns == 0 { 0 } else { NUM_STALLS });
    let kill_nonblocking_survives =
        kill_ms.killed == vec![0] && kill_ms.survivors_completed() && kill_ms.drained == Some(1);
    let kill_single_lock_blocks = kill_lock.killed == vec![0] && !kill_lock.survivors_completed();
    // Dequeue side: survivable-window contenders (the four non-blocking
    // AND Mellor-Crummey, whose dequeue window blocks nobody) stay flat;
    // only the queues whose dequeue window is a held lock collapse.
    let deq_survivable_flat = Algorithm::ALL
        .into_iter()
        .filter(|a| a.dequeue_death_survivable())
        .all(|a| (deq_at_max(a) as f64) <= (deq_baseline(a) as f64) * flat_bound);
    let deq_collapsers = [Algorithm::SingleLock, Algorithm::NewTwoLock];
    let deq_blocking_collapses = deq_collapsers
        .into_iter()
        .all(|a| deq_at_max(a).saturating_sub(deq_baseline(a)) >= injected / 2);
    let deq_all_stalls_fired = deq_cells
        .iter()
        .all(|c| c.stalls_fired == if c.stall_ns == 0 { 0 } else { NUM_STALLS });
    // The committed asymmetry: every survivable contender's recovery cost
    // is exactly the victim's residual share (pairs conserved, a positive
    // time-to-recover stamped), while the lock-based queues end
    // watchdog-flagged with nothing recovered.
    let recovery_absorbs_residual = recovery_cells
        .iter()
        .filter(|c| c.algorithm.dequeue_death_survivable())
        .all(|c| {
            c.point.killed == vec![1]
                && c.point.survivors_completed()
                && c.point.recovered_pairs > 0
                && c.point.pairs_completed + c.point.recovered_pairs == pairs
                && c.point.time_to_recover_ns.is_some_and(|t| t > 0)
        });
    let recovery_lock_based_flagged = recovery_cells
        .iter()
        .filter(|c| !c.algorithm.dequeue_death_survivable())
        .all(|c| {
            c.point.killed == vec![1]
                && !c.point.survivors_completed()
                && c.point.recovered_pairs == 0
                && c.point.time_to_recover_ns.is_none()
        });
    // The tentpole claim: under repair *no* lock queue ends
    // watchdog-blocked — every cell completes with full conservation,
    // exactly one repair stamped with a positive time-to-repair, and a
    // drainable queue.
    let repair_unwedges_lock_queues = repair_cells.iter().all(|c| {
        c.point.killed == vec![1]
            && c.point.survivors_completed()
            && c.point.blocked_kinds.is_empty()
            && c.point.repairs.len() == 1
            && c.point.pairs_completed + c.point.recovered_pairs == pairs
            && c.point.time_to_repair_ns.is_some_and(|t| t > 0)
            && c.point.drained.is_some()
    });
    // Cell 5's claim: the chain of v deaths ends fully repaired — one
    // repair per victim, every victim's whole share (it died in its
    // first pair) replayed by the survivor, and nobody watchdog-flagged.
    let multi_repair_chain_conserves = multi_repair_cells.iter().all(|c| {
        let v = c.victims;
        c.point.killed.len() == v
            && c.point.survivors_completed()
            && c.point.blocked_kinds.is_empty()
            && c.point.repairs.len() == v
            && c.point.recovered_pairs == (v as u64) * (pairs / PROCESSORS as u64)
            && c.point.pairs_completed + c.point.recovered_pairs == pairs
            && c.point.time_to_repair_ns.is_some_and(|t| t > 0)
            && c.point.drained.is_some()
    });
    eprintln!(
        "acceptance: nonblocking_flat={nonblocking_flat} blocking_collapses={blocking_collapses} \
         figure_ordering={figure_ordering} figure_ordering_{PROCESSORS_HIGH}p={figure_ordering_high} \
         all_stalls_fired={all_stalls_fired} \
         kill_nonblocking_survives={kill_nonblocking_survives} \
         kill_single_lock_blocks={kill_single_lock_blocks} \
         deq_survivable_flat={deq_survivable_flat} \
         deq_blocking_collapses={deq_blocking_collapses} \
         deq_all_stalls_fired={deq_all_stalls_fired} \
         recovery_absorbs_residual={recovery_absorbs_residual} \
         recovery_lock_based_flagged={recovery_lock_based_flagged} \
         repair_unwedges_lock_queues={repair_unwedges_lock_queues} \
         multi_repair_chain_conserves={multi_repair_chain_conserves}"
    );

    // --- JSON report. ---
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"description\": \"deterministic fault injection: survivor completion time vs critical-window stall length (non-blocking flat, lock-based collapsing), plus mid-operation death cells\","
    );
    let _ = writeln!(json, "  \"processors\": {PROCESSORS},");
    let _ = writeln!(json, "  \"workload_pairs\": {pairs},");
    let _ = writeln!(json, "  \"stalls_per_run\": {NUM_STALLS},");
    let _ = writeln!(json, "  \"victim\": 0,");
    json.push_str("  \"stall_sweep\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let degradation = c.survivor_completion_ns as f64 / baseline(c.algorithm) as f64;
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"nonblocking\": {}, \"stall_ns\": {}, \"survivor_completion_virtual_ns\": {}, \"elapsed_virtual_ns\": {}, \"stalls_fired\": {}, \"survivor_degradation\": {:.4}}}{}",
            c.algorithm.label(),
            c.algorithm.is_nonblocking(),
            c.stall_ns,
            c.survivor_completion_ns,
            c.elapsed_ns,
            c.stalls_fired,
            degradation,
            if i + 1 == cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"processors_high\": {PROCESSORS_HIGH},");
    json.push_str("  \"stall_sweep_high\": [\n");
    for (i, c) in high_cells.iter().enumerate() {
        let degradation = c.survivor_completion_ns as f64 / high_at(c.algorithm, 0) as f64;
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"nonblocking\": {}, \"stall_ns\": {}, \"survivor_completion_virtual_ns\": {}, \"elapsed_virtual_ns\": {}, \"stalls_fired\": {}, \"survivor_degradation\": {:.4}}}{}",
            c.algorithm.label(),
            c.algorithm.is_nonblocking(),
            c.stall_ns,
            c.survivor_completion_ns,
            c.elapsed_ns,
            c.stalls_fired,
            degradation,
            if i + 1 == high_cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"deq_stall_sweep\": [\n");
    for (i, c) in deq_cells.iter().enumerate() {
        let degradation = c.survivor_completion_ns as f64 / deq_baseline(c.algorithm) as f64;
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"nonblocking\": {}, \"dequeue_death_survivable\": {}, \"stall_ns\": {}, \"survivor_completion_virtual_ns\": {}, \"elapsed_virtual_ns\": {}, \"stalls_fired\": {}, \"survivor_degradation\": {:.4}}}{}",
            c.algorithm.label(),
            c.algorithm.is_nonblocking(),
            c.algorithm.dequeue_death_survivable(),
            c.stall_ns,
            c.survivor_completion_ns,
            c.elapsed_ns,
            c.stalls_fired,
            degradation,
            if i + 1 == deq_cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"recovery\": [\n");
    for (i, c) in recovery_cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"nonblocking\": {}, \"dequeue_death_survivable\": {}, \"victim\": 1, \"designated_survivor\": 0, \"killed\": {:?}, \"blocked\": {:?}, \"pairs_completed\": {}, \"recovered_pairs\": {}, \"time_to_recover_virtual_ns\": {}, \"drained\": {}}}{}",
            c.algorithm.label(),
            c.algorithm.is_nonblocking(),
            c.algorithm.dequeue_death_survivable(),
            c.point.killed,
            c.point.blocked,
            c.point.pairs_completed,
            c.point.recovered_pairs,
            c.point
                .time_to_recover_ns
                .map_or_else(|| "null".into(), |t| t.to_string()),
            c.point
                .drained
                .map_or_else(|| "null".into(), |d| d.to_string()),
            if i + 1 == recovery_cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"repair\": [\n");
    for (i, c) in repair_cells.iter().enumerate() {
        let verdict = c
            .point
            .repairs
            .first()
            .map_or_else(|| "null".into(), |r| format!("\"{}\"", r.point));
        let repaired_by = c
            .point
            .repairs
            .first()
            .map_or_else(|| "null".into(), |r| r.by.to_string());
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"lock\": \"{}\", \"victim\": 1, \"designated_survivor\": 0, \"killed\": {:?}, \"blocked\": {:?}, \"repaired_by\": {}, \"verdict\": {}, \"time_to_repair_virtual_ns\": {}, \"pairs_completed\": {}, \"recovered_pairs\": {}, \"drained\": {}}}{}",
            c.algorithm.label(),
            c.kill_label,
            c.point.killed,
            c.point.blocked,
            repaired_by,
            verdict,
            c.point
                .time_to_repair_ns
                .map_or_else(|| "null".into(), |t| t.to_string()),
            c.point.pairs_completed,
            c.point.recovered_pairs,
            c.point
                .drained
                .map_or_else(|| "null".into(), |d| d.to_string()),
            if i + 1 == repair_cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"repair_vs_victims\": [\n");
    for (i, c) in multi_repair_cells.iter().enumerate() {
        let mean_ttr = if c.point.repairs.is_empty() {
            "null".into()
        } else {
            (c.point
                .repairs
                .iter()
                .map(|r| r.time_to_repair_ns())
                .sum::<u64>()
                / c.point.repairs.len() as u64)
                .to_string()
        };
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"lock\": \"{}\", \"victims\": {}, \"designated_survivor\": 0, \"killed\": {:?}, \"blocked\": {:?}, \"repairs\": {}, \"slowest_time_to_repair_virtual_ns\": {}, \"mean_time_to_repair_virtual_ns\": {}, \"pairs_completed\": {}, \"recovered_pairs\": {}, \"drained\": {}}}{}",
            c.algorithm.label(),
            c.kill_label,
            c.victims,
            c.point.killed,
            c.point.blocked,
            c.point.repairs.len(),
            c.point
                .time_to_repair_ns
                .map_or_else(|| "null".into(), |t| t.to_string()),
            mean_ttr,
            c.point.pairs_completed,
            c.point.recovered_pairs,
            c.point
                .drained
                .map_or_else(|| "null".into(), |d| d.to_string()),
            if i + 1 == multi_repair_cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"death\": {{\"new_nonblocking\": {{\"killed\": {:?}, \"blocked\": {:?}, \"drained\": {}, \"pairs_completed\": {}, \"max_completion_virtual_ns\": {}}}, \"single_lock\": {{\"killed\": {:?}, \"blocked\": {:?}, \"pairs_completed\": {}}}}},",
        kill_ms.killed,
        kill_ms.blocked,
        kill_ms.drained.map_or_else(|| "null".into(), |d| d.to_string()),
        kill_ms.pairs_completed,
        kill_ms.max_completion_ns,
        kill_lock.killed,
        kill_lock.blocked,
        kill_lock.pairs_completed
    );
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"nonblocking_flat_bound\": {flat_bound}, \"nonblocking_flat\": {nonblocking_flat}, \"blocking_collapses\": {blocking_collapses}, \"figure_ordering\": {figure_ordering}, \"figure_ordering_high\": {figure_ordering_high}, \"all_stalls_fired\": {all_stalls_fired}, \"kill_nonblocking_survives\": {kill_nonblocking_survives}, \"kill_single_lock_blocks\": {kill_single_lock_blocks}, \"deq_survivable_flat\": {deq_survivable_flat}, \"deq_blocking_collapses\": {deq_blocking_collapses}, \"deq_all_stalls_fired\": {deq_all_stalls_fired}, \"recovery_absorbs_residual\": {recovery_absorbs_residual}, \"recovery_lock_based_flagged\": {recovery_lock_based_flagged}, \"repair_unwedges_lock_queues\": {repair_unwedges_lock_queues}, \"multi_repair_chain_conserves\": {multi_repair_chain_conserves}}}"
    );
    json.push_str("}\n");

    msq_bench::write_report("BENCH_fault.json", smoke, &json);
    println!("{json}");
}
