//! The composable scenario engine: pluggable workload shapes over one
//! driver.
//!
//! Every workload the harness runs, the paper's Section 4 pairs
//! included, is a [`Scenario`]: the per-process op script plus the
//! declarative bits the driver needs (queue count, whether the blocking
//! queues run in their crash-repair mode, setup cells, net-time
//! accounting, and a conservation predicate). [`run_scenario_simulated`]
//! and [`run_scenario_native`] are the only code that runs one. They
//! share one setup — budget, queues and cells, always in that order —
//! and one post-run drain and measurement, and differ only in how the
//! processes run: as simulated processes under a [`FaultPlan`], or as
//! threads. Repair is a mode of each blocking queue, so the setup builds
//! every queue through the one registry call,
//! [`Algorithm::build_with_budget`], and passes the scenario's choice
//! along.
//!
//! The `scenario_pins` integration test pins the driver's `SimReport`s
//! for the paired and policy shapes, faulted and not, to digests
//! recorded from the hand-written loops the driver replaced.
//!
//! Three scenario shapes beyond the paper's ship here:
//!
//! * [`StealingScenario`] — per-worker queues with a deterministic
//!   round-robin steal path, in the spirit of Sundell–Tsigas/Arora-style
//!   work-stealing runtimes (our queues are FIFO, so owner and thief
//!   take the same end; victim order is `pid+1, pid+2, …` so the steal
//!   schedule is a pure function of the seed under the simulator).
//! * [`PipelineScenario`] — a fan-out/fan-in pipeline: stage 0
//!   generates, interior stages transform queue-to-queue, the last
//!   stage consumes, with per-stage conservation checks.
//! * [`OpenLoopScenario`] — open-loop bursty arrivals: producers pace a
//!   seeded Poisson-like schedule on [`Platform::now_ns`] and stamp each
//!   item with its arrival time; consumers report enqueue-to-dequeue
//!   latency ([`Platform::record_latency`]) instead of only throughput,
//!   so saturation shows up as a latency distribution, not a smaller
//!   ops/sec number.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use msq_arena::MemBudget;
use msq_platform::{AtomicWord, ConcurrentWordQueue, NativePlatform, Platform};
use msq_sim::{FaultPlan, RecoveryPolicy, SimConfig, SimPlatform, SimReport, Simulation};

use crate::registry::Algorithm;
use crate::workload::{share, FaultedPoint, MeasuredPoint, WorkloadConfig, RECOVERY_BIT};

/// Low 40 bits of a value word: the arrival-time stamp an open-loop
/// producer folds into each item (the pid lives in bits 40+, so stamps
/// wrap modulo ~18 virtual minutes without colliding across producers).
const MASK40: u64 = (1 << 40) - 1;

/// Idle-wait backoff for a scenario worker with nothing to do yet (an
/// empty steal sweep, a starved pipeline stage, an idle open-loop
/// consumer): one timed wait instead of a step-dense `cpu_relax` spin.
/// Small against every per-item cost in play, so the added latency
/// noise is bounded; large against a single scheduler step, so a
/// simulated idle wait advances in one hop instead of hundreds.
const IDLE_BACKOFF_NS: u64 = 200;

/// Host-side counters shared by every process of a scenario run.
///
/// These live outside the simulated machine: updates are ordinary Rust
/// atomics, cost no virtual time, and are invisible to the `SimReport`,
/// so counting never perturbs a schedule.
pub struct ScenarioCounters {
    /// Work units completed per process (a killed process's finished
    /// units still count — its closure never returns).
    pub per_process: Vec<AtomicU64>,
    /// Work units replayed on behalf of dead victims under a recovery
    /// policy.
    pub recovered: AtomicU64,
    /// Scenario-defined tally slots ([`Scenario::num_tallies`]): steal
    /// counts, per-stage throughput, and the like.
    pub tallies: Vec<AtomicU64>,
    /// Enqueue-to-dequeue latency samples in nanoseconds, pushed by
    /// consumers of latency-stamping scenarios.
    pub latencies_ns: Mutex<Vec<u64>>,
}

impl ScenarioCounters {
    fn new(processes: usize, tallies: usize) -> Self {
        ScenarioCounters {
            per_process: (0..processes).map(|_| AtomicU64::new(0)).collect(),
            recovered: AtomicU64::new(0),
            tallies: (0..tallies).map(|_| AtomicU64::new(0)).collect(),
            latencies_ns: Mutex::new(Vec::new()),
        }
    }

    /// Sum of completed work units over all processes.
    pub fn completed(&self) -> u64 {
        self.per_process
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// Everything a scenario's per-process script can touch.
pub struct ScenarioCtx<'a, P: Platform> {
    /// This process's id, `0..num_processes`.
    pub pid: usize,
    /// Total processes in the run.
    pub num_processes: usize,
    /// The execution platform (virtual or native time).
    pub platform: &'a P,
    /// The queues under test, `Scenario::num_queues` of them.
    pub queues: &'a [Arc<dyn ConcurrentWordQueue>],
    /// Shared cells allocated during untimed setup
    /// ([`Scenario::num_cells`]), in allocation order.
    pub cells: &'a [P::Cell],
    /// The run's host-side counters.
    pub counters: &'a ScenarioCounters,
}

/// A pluggable workload shape: the per-process op script plus the
/// declarative facts the unified driver needs to run it.
///
/// Implementations are generic over the [`Platform`] so one scenario
/// drives both the simulator and native threads; anything simulator-only
/// (death notices, fault points) degrades to a no-op natively through
/// the platform trait's defaults.
pub trait Scenario<P: Platform>: Send + Sync + 'static {
    /// The workload parameters (op count, other-work spin, capacity,
    /// budget) driving the scenario.
    fn workload(&self) -> &WorkloadConfig;

    /// How many queues the driver builds (`n` = process count). The
    /// classic shapes use one; work-stealing uses one per worker.
    fn num_queues(&self, n: usize) -> usize {
        let _ = n;
        1
    }

    /// Whether queues are built in their crash-survivable repair mode
    /// (the `repair` flag of [`Algorithm::build_with_budget`]). The
    /// simulated driver then drains the queues even after a kill on a
    /// blocking queue: the drain itself revokes a dead holder's lock.
    fn repairable(&self) -> bool {
        false
    }

    /// Shared cells the driver allocates during untimed setup, before
    /// the run, so cell ids (and therefore schedules) are stable.
    fn num_cells(&self, n: usize) -> usize {
        let _ = n;
        0
    }

    /// Whether the simulator's death board must be allocated during
    /// setup (scenarios that poll [`Platform::dead_peers`] mid-run).
    fn uses_death_board(&self) -> bool {
        false
    }

    /// Host-side tally slots to allocate in [`ScenarioCounters::tallies`].
    fn num_tallies(&self) -> usize {
        0
    }

    /// Validates the machine shape before the run; panic on misuse.
    fn validate(&self, n: usize) {
        let _ = n;
    }

    /// The per-process op script.
    fn run(&self, cx: &ScenarioCtx<'_, P>);

    /// The "other work" one processor performs over the run, subtracted
    /// from elapsed time to produce the paper-style net time. Return 0
    /// for open-loop shapes whose figure of merit is latency.
    fn other_work_share(&self, processors: usize) -> u64;

    /// Conservation predicate, invoked by the driver after a clean run
    /// (nobody killed, nobody blocked, queue drained); panic on
    /// violation.
    fn check_conservation(&self, counters: &ScenarioCounters, drained: u64) {
        let _ = (counters, drained);
    }
}

/// The result of one scenario run: the fault-aware measurement, the raw
/// `SimReport` (simulated runs only — `scenario_pins` pins it), the
/// scenario's tallies, and the sorted latency samples.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The measurement (native runs leave the fault fields empty).
    pub point: FaultedPoint,
    /// The run's raw simulator report; `None` for native runs.
    pub sim_report: Option<SimReport>,
    /// Final values of the scenario's tally slots.
    pub tallies: Vec<u64>,
    /// Enqueue-to-dequeue latency samples, sorted ascending (empty for
    /// scenarios that do not stamp latencies).
    pub latencies_ns: Vec<u64>,
}

impl ScenarioOutcome {
    /// The `pct`-th percentile of the run's latency samples, or `None`
    /// when the scenario recorded none.
    pub fn latency_percentile_ns(&self, pct: f64) -> Option<u64> {
        if self.latencies_ns.is_empty() {
            None
        } else {
            Some(percentile_ns(&self.latencies_ns, pct))
        }
    }
}

/// Nearest-rank percentile (`pct` in (0, 100]) over an ascending-sorted
/// sample slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile_ns(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What both drivers set up before any process runs, and read after the
/// run. [`Setup::new`] allocates in a fixed order — the budget, the
/// queues, then the scenario's cells — and the simulated driver takes
/// the death board after these, so cell ids, and with them every
/// schedule, do not move.
struct Setup<P: Platform, S> {
    algorithm: Algorithm,
    scenario: S,
    budget: Option<Arc<MemBudget<P>>>,
    queues: Vec<Arc<dyn ConcurrentWordQueue>>,
    cells: Vec<P::Cell>,
    counters: ScenarioCounters,
}

impl<P: Platform, S: Scenario<P>> Setup<P, S> {
    fn new(algorithm: Algorithm, platform: &P, n: usize, scenario: S) -> Self {
        scenario.validate(n);
        let workload = scenario.workload();
        let budget = workload
            .mem_budget
            .map(|limit| Arc::new(MemBudget::new(platform, limit)));
        let queues = (0..scenario.num_queues(n))
            .map(|_| {
                algorithm.build_with_budget(
                    platform,
                    workload.capacity,
                    budget.clone(),
                    scenario.repairable(),
                )
            })
            .collect();
        let cells = (0..scenario.num_cells(n))
            .map(|_| platform.alloc_cell(0))
            .collect();
        let counters = ScenarioCounters::new(n, scenario.num_tallies());
        Setup {
            algorithm,
            scenario,
            budget,
            queues,
            cells,
            counters,
        }
    }

    /// Runs process `pid`'s script on `platform`.
    fn run_process(&self, platform: &P, pid: usize) {
        self.scenario.run(&ScenarioCtx {
            pid,
            num_processes: self.counters.per_process.len(),
            platform,
            queues: &self.queues,
            cells: &self.cells,
            counters: &self.counters,
        });
    }

    /// Drains the queues where that cannot hang, checks conservation
    /// after a clean run, and measures it. `report` is the simulator's; a
    /// native run passes `None`, its wall time as `elapsed_ns`, and has
    /// no faults to report.
    fn finish(
        &self,
        processors: usize,
        elapsed_ns: u64,
        report: Option<SimReport>,
    ) -> ScenarioOutcome {
        let r = report.as_ref();
        let killed = r.map(|r| r.killed.clone()).unwrap_or_default();
        let blocked = r.map(|r| r.blocked.clone()).unwrap_or_default();
        // Draining a blocking queue whose lock died held would spin
        // forever on this host thread, out of the watchdog's reach; it is
        // safe once nobody died, on a non-blocking queue, or in repair
        // mode, where the drain itself revokes the dead holder's lock.
        let drain_is_safe =
            killed.is_empty() || self.algorithm.is_nonblocking() || self.scenario.repairable();
        let drained = (drain_is_safe && blocked.is_empty()).then(|| {
            let mut count = 0u64;
            for queue in &self.queues {
                while queue.dequeue().is_some() {
                    count += 1;
                }
            }
            count
        });
        let counters = &self.counters;
        if killed.is_empty() && blocked.is_empty() {
            if let Some(count) = drained {
                self.scenario.check_conservation(counters, count);
            }
        }
        let point = FaultedPoint {
            point: MeasuredPoint {
                algorithm: self.algorithm,
                processors,
                processes: counters.per_process.len(),
                pairs: self.scenario.workload().pairs_total,
                elapsed_ns,
                net_ns: elapsed_ns.saturating_sub(self.scenario.other_work_share(processors)),
                miss_rate: r.map_or(0.0, SimReport::miss_rate),
                cas_failures: r.map_or(0, |r| r.cas_failures),
                preemptions: r.map_or(0, |r| r.preemptions),
                peak_resident_segments: self.budget.as_ref().map(|b| b.peak()),
                budget_denials: self.budget.as_ref().map(|b| b.denials()),
            },
            pairs_completed: counters.completed(),
            killed,
            blocked,
            blocked_kinds: r.map(|r| r.blocked_kinds.clone()).unwrap_or_default(),
            stalls_injected: r.map_or(0, |r| r.stalls_injected),
            preempts_injected: r.map_or(0, |r| r.preempts_injected),
            max_completion_ns: r.map_or(elapsed_ns, SimReport::max_completion_ns),
            drained,
            recovered_pairs: counters.recovered.load(Ordering::Relaxed),
            time_to_recover_ns: r.and_then(SimReport::time_to_recover_ns),
            recoveries: r.map(|r| r.recoveries.clone()).unwrap_or_default(),
            repairs: r.map(|r| r.repairs.clone()).unwrap_or_default(),
            time_to_repair_ns: r.and_then(SimReport::time_to_repair_ns),
        };
        let mut latencies_ns = counters
            .latencies_ns
            .lock()
            .expect("latency samples")
            .clone();
        latencies_ns.sort_unstable();
        ScenarioOutcome {
            point,
            sim_report: report,
            tallies: counters
                .tallies
                .iter()
                .map(|t| t.load(Ordering::Relaxed))
                .collect(),
            latencies_ns,
        }
    }
}

/// Runs `scenario` for `algorithm` on the deterministic simulator with
/// `plan`'s faults injected.
///
/// `sim_config.processors` and `.processes_per_processor` select the
/// machine: `(p, 1)` for Figure 3, `(p, 2)` for Figure 4, `(p, 3)` for
/// Figure 5. Set [`SimConfig::watchdog_ns`] when the plan can block a
/// lock-based queue, or the run never terminates.
///
/// # Panics
///
/// Panics before the run if the scenario polls the death board, the plan
/// kills, and the machine has more than 64 processes: the board is one
/// 64-bit word, so the death of pid 64 or above could never be posted
/// and a survivor waiting for it would never finish.
pub fn run_scenario_simulated<S: Scenario<SimPlatform>>(
    algorithm: Algorithm,
    sim_config: SimConfig,
    scenario: S,
    plan: FaultPlan,
) -> ScenarioOutcome {
    let n = sim_config.num_processes();
    assert!(
        n <= 64 || !(plan.has_kills() && scenario.uses_death_board()),
        "the 64-bit death board cannot post the death of pid 64 or above: \
         a scenario that polls it runs at most 64 processes under a plan with kills, not {n}"
    );
    let sim = Simulation::with_faults(sim_config, plan);
    let platform = sim.platform();
    let setup = Arc::new(Setup::new(algorithm, &platform, n, scenario));
    if setup.scenario.uses_death_board() {
        let _ = platform.death_board();
    }
    let report = sim.run({
        let setup = Arc::clone(&setup);
        move |info| setup.run_process(&platform, info.pid)
    });
    setup.finish(sim_config.processors, report.elapsed_ns, Some(report))
}

/// Runs `scenario` for `algorithm` on real threads: the native
/// counterpart of [`run_scenario_simulated`] (no faults — threads either
/// run or the whole process is gone).
///
/// On a host with at least `processes` cores this reproduces the paper's
/// dedicated machine directly; on a smaller host it measures an
/// OS-multiprogrammed analogue instead.
pub fn run_scenario_native<S: Scenario<NativePlatform>>(
    algorithm: Algorithm,
    processes: usize,
    scenario: S,
) -> ScenarioOutcome {
    assert!(processes >= 1);
    let setup = Arc::new(Setup::new(
        algorithm,
        &NativePlatform::new(),
        processes,
        scenario,
    ));
    let barrier = Arc::new(Barrier::new(processes + 1));
    let handles: Vec<_> = (0..processes)
        .map(|pid| {
            let (setup, barrier) = (Arc::clone(&setup), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let platform = NativePlatform::new();
                barrier.wait();
                setup.run_process(&platform, pid);
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    for handle in handles {
        handle.join().expect("workload thread");
    }
    setup.finish(processes, start.elapsed().as_nanos() as u64, None)
}

// ---------------------------------------------------------------------------
// The paper's shapes, as scenarios.
// ---------------------------------------------------------------------------

/// The paper's Section 4 workload: every process repeatedly enqueues,
/// spins ~6 µs of other work, dequeues, and spins again, for
/// `pairs_total` pairs across all processes.
#[derive(Clone, Copy, Debug)]
pub struct PairedScenario {
    /// Workload parameters.
    pub workload: WorkloadConfig,
}

impl<P: Platform> Scenario<P> for PairedScenario {
    fn workload(&self) -> &WorkloadConfig {
        &self.workload
    }

    fn run(&self, cx: &ScenarioCtx<'_, P>) {
        let my_pairs = share(self.workload.pairs_total, cx.num_processes, cx.pid);
        let other_work_ns = self.workload.other_work_ns;
        let queue = &*cx.queues[0];
        for i in 0..my_pairs {
            let value = ((cx.pid as u64) << 40) | i;
            // Valois can transiently exhaust its pool under preemption;
            // every other algorithm succeeds immediately when
            // capacity >= processes.
            while queue.enqueue(value).is_err() {
                cx.platform.cpu_relax();
            }
            cx.platform.delay(other_work_ns);
            // A dequeue may observe empty only transiently (each process
            // enqueued before dequeuing, so the queue holds at least as
            // many values as there are processes inside `dequeue`); retry.
            while queue.dequeue().is_none() {
                cx.platform.cpu_relax();
            }
            cx.platform.delay(other_work_ns);
            // Recorded per pair so a killed process's completed work
            // still counts (its closure never returns).
            cx.counters.per_process[cx.pid].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn other_work_share(&self, processors: usize) -> u64 {
        // Each processor's processes execute pairs_total / processors
        // pairs in aggregate, each pair spinning twice.
        (self.workload.pairs_total / processors as u64) * 2 * self.workload.other_work_ns
    }

    fn check_conservation(&self, counters: &ScenarioCounters, drained: u64) {
        assert_eq!(counters.completed(), self.workload.pairs_total);
        assert_eq!(drained, 0, "workload must drain the queue");
    }
}

/// The batch-mode workload: each process moves its pairs in rounds of
/// `batch` via `enqueue_batch`/`dequeue_batch` (trait defaults degrade
/// to per-op loops for the paper's six, so every algorithm is drivable).
#[derive(Clone, Copy, Debug)]
pub struct BatchedScenario {
    /// Workload parameters.
    pub workload: WorkloadConfig,
    /// Pairs moved per round.
    pub batch: usize,
}

impl<P: Platform> Scenario<P> for BatchedScenario {
    fn workload(&self) -> &WorkloadConfig {
        &self.workload
    }

    fn validate(&self, n: usize) {
        assert!(self.batch >= 1);
        // Every process may hold a whole batch in flight; a tighter
        // capacity could deadlock all producers against a full queue.
        assert!(
            u64::from(self.workload.capacity) >= (n as u64) * (self.batch as u64),
            "capacity must cover processes * batch"
        );
    }

    fn run(&self, cx: &ScenarioCtx<'_, P>) {
        let my_pairs = share(self.workload.pairs_total, cx.num_processes, cx.pid);
        let other_work_ns = self.workload.other_work_ns;
        let batch = self.batch;
        let queue = &*cx.queues[0];
        let mut out: Vec<u64> = Vec::with_capacity(batch);
        let mut done = 0u64;
        while done < my_pairs {
            let b = (my_pairs - done).min(batch as u64);
            let values: Vec<u64> = (done..done + b)
                .map(|i| ((cx.pid as u64) << 40) | i)
                .collect();
            let mut rest: &[u64] = &values;
            // A bounded queue can fill transiently; retry the unconsumed
            // suffix (the prefix is already in, in order).
            loop {
                match queue.enqueue_batch(rest) {
                    Ok(()) => break,
                    Err(e) => {
                        rest = &rest[e.pushed..];
                        cx.platform.cpu_relax();
                    }
                }
            }
            cx.platform.delay(other_work_ns);
            // Every process enqueues its batch before collecting one
            // back, so the union of shards/segments holds at least `b`
            // values while anyone is still collecting; empty sweeps are
            // transient.
            let mut taken = 0usize;
            while taken < b as usize {
                let got = queue.dequeue_batch(&mut out, b as usize - taken);
                if got == 0 {
                    cx.platform.cpu_relax();
                }
                taken += got;
            }
            out.clear();
            cx.platform.delay(other_work_ns);
            done += b;
            cx.counters.per_process[cx.pid].fetch_add(b, Ordering::Relaxed);
        }
    }

    fn other_work_share(&self, processors: usize) -> u64 {
        // One round of `batch` pairs spins the other work twice.
        (self.workload.pairs_total / processors as u64 / self.batch as u64)
            * 2
            * self.workload.other_work_ns
    }

    fn check_conservation(&self, counters: &ScenarioCounters, drained: u64) {
        assert_eq!(counters.completed(), self.workload.pairs_total);
        assert_eq!(drained, 0, "workload must drain the queue");
    }
}

/// The paired workload under a restart-and-catch-up [`RecoveryPolicy`]:
/// every process publishes its progress to a shared cell, and the
/// designated survivor polls the death board — once per own pair and
/// then continuously after its own share — absorbing each killed
/// victim's residual share (replayed with `RECOVERY_BIT`-marked values)
/// before stamping the handoff with [`Platform::mark_recovered`].
///
/// On a non-blocking queue the survivor completes each victim's share;
/// on a lock-based queue whose lock died held it wedges, and the
/// watchdog flags it. With `repairable` set the queues are built in
/// repair mode (the `repair` flag of [`Algorithm::build_with_budget`]),
/// where a waiter revokes the dead holder's lock instead, and the
/// post-run drain is always attempted (the drain itself revokes a
/// still-held dead lock). Killing the designated survivor leaves every
/// other victim unabsorbed.
#[derive(Clone, Copy, Debug)]
pub struct PolicyScenario {
    /// Workload parameters.
    pub workload: WorkloadConfig,
    /// Which survivor absorbs victims' shares.
    pub policy: RecoveryPolicy,
    /// Build the blocking queues in their crash-survivable repair mode.
    pub repairable: bool,
}

impl<P: Platform> Scenario<P> for PolicyScenario {
    fn workload(&self) -> &WorkloadConfig {
        &self.workload
    }

    fn repairable(&self) -> bool {
        self.repairable
    }

    fn num_cells(&self, n: usize) -> usize {
        n // one progress cell per process
    }

    fn uses_death_board(&self) -> bool {
        true
    }

    fn validate(&self, n: usize) {
        assert!(
            self.policy.survivor < n,
            "designated survivor must be a pid"
        );
    }

    fn run(&self, cx: &ScenarioCtx<'_, P>) {
        let n = cx.num_processes;
        let pairs_total = self.workload.pairs_total;
        let other_work_ns = self.workload.other_work_ns;
        let policy = self.policy;
        let queue = &*cx.queues[0];
        let progress = cx.cells;
        let my_pairs = share(pairs_total, n, cx.pid);
        let mut absorbed = vec![false; n];
        let run_pair = |value: u64| {
            while queue.enqueue(value).is_err() {
                cx.platform.cpu_relax();
            }
            cx.platform.delay(other_work_ns);
            while queue.dequeue().is_none() {
                cx.platform.cpu_relax();
            }
            cx.platform.delay(other_work_ns);
        };
        // Absorb any victim whose death notice is newly posted: size its
        // residual share from its progress cell, replay it, and stamp
        // the handoff.
        let absorb_new_deaths = |absorbed: &mut [bool]| {
            let notices = cx.platform.dead_peers();
            for victim in 0..n.min(64) {
                if victim == cx.pid || absorbed[victim] || notices & (1 << victim) == 0 {
                    continue;
                }
                absorbed[victim] = true;
                let done = progress[victim].load();
                for i in done..share(pairs_total, n, victim) {
                    run_pair(((victim as u64) << 40) | RECOVERY_BIT | i);
                    cx.counters.recovered.fetch_add(1, Ordering::Relaxed);
                }
                cx.platform.mark_recovered(victim);
            }
        };
        for i in 0..my_pairs {
            run_pair(((cx.pid as u64) << 40) | i);
            cx.counters.per_process[cx.pid].fetch_add(1, Ordering::Relaxed);
            progress[cx.pid].store(i + 1);
            if policy.is_survivor(cx.pid) {
                absorb_new_deaths(&mut absorbed);
            }
        }
        if policy.is_survivor(cx.pid) {
            // Stay on watch until every other process has either
            // finished its share or been absorbed. A watchdog-blocked
            // process (lock-based queue, dead lock-holder) posts no
            // notice and never finishes, so the watchdog eventually
            // retires this survivor too — the asserted blocking outcome.
            loop {
                absorb_new_deaths(&mut absorbed);
                let all_settled = (0..n).all(|v| {
                    v == cx.pid || absorbed[v] || progress[v].load() == share(pairs_total, n, v)
                });
                if all_settled {
                    break;
                }
                cx.platform.delay(other_work_ns);
            }
        }
    }

    fn other_work_share(&self, processors: usize) -> u64 {
        (self.workload.pairs_total / processors as u64) * 2 * self.workload.other_work_ns
    }

    fn check_conservation(&self, counters: &ScenarioCounters, drained: u64) {
        assert_eq!(
            counters.completed() + counters.recovered.load(Ordering::Relaxed),
            self.workload.pairs_total
        );
        assert_eq!(drained, 0, "a clean policy run must drain the queue");
    }
}

// ---------------------------------------------------------------------------
// The new shapes.
// ---------------------------------------------------------------------------

/// Work-stealing: every worker owns a queue; the first `max(n/2, 1)`
/// workers produce the task pool into their own queues (deliberately
/// imbalanced, so stealing is load-bearing), and every worker executes
/// tasks from its own queue first, falling back to stealing from victims
/// in deterministic round-robin order (`pid+1, pid+2, …`).
///
/// Production is interleaved with consumption (an owner whose queue is
/// full simply proceeds to execute and retries the enqueue next trip),
/// so any `capacity >= 1` is deadlock-free. A charged shared
/// consumed-counter doubles as the termination signal; owners also
/// publish their produced count to a charged progress cell, so when a
/// producer is killed mid-run the survivors read the death board,
/// subtract the victim's unproduced tasks from the target, and still
/// terminate (instead of spinning for tasks that will never exist).
/// Steals land in `tallies[0]`.
#[derive(Clone, Copy, Debug)]
pub struct StealingScenario {
    /// Workload parameters (`pairs_total` = tasks, `other_work_ns` = the
    /// cost of executing one task).
    pub workload: WorkloadConfig,
}

impl StealingScenario {
    /// Index of the steal tally in [`ScenarioOutcome::tallies`].
    pub const STEALS: usize = 0;

    fn owners(n: usize) -> usize {
        (n / 2).max(1)
    }
}

impl<P: Platform> Scenario<P> for StealingScenario {
    fn workload(&self) -> &WorkloadConfig {
        &self.workload
    }

    fn num_queues(&self, n: usize) -> usize {
        n
    }

    fn num_cells(&self, n: usize) -> usize {
        1 + Self::owners(n) // the consumed counter + per-owner progress
    }

    fn uses_death_board(&self) -> bool {
        true
    }

    fn num_tallies(&self) -> usize {
        1
    }

    fn run(&self, cx: &ScenarioCtx<'_, P>) {
        let n = cx.num_processes;
        let total = self.workload.pairs_total;
        let owners = Self::owners(n);
        let my_seed = if cx.pid < owners {
            share(total, owners, cx.pid)
        } else {
            0
        };
        let consumed = &cx.cells[0];
        let progress = &cx.cells[1..1 + owners];
        let mut produced = 0u64;
        loop {
            // Seed the whole share up front — executing nothing while
            // the queue accepts tasks — so the imbalance is real: the
            // non-owning half works concurrently with production, and
            // stealing carries actual load for every contender. A full
            // queue backpressures production: fall through and execute
            // one task to make room instead of wedging.
            if produced < my_seed {
                let value = ((cx.pid as u64) << 40) | produced;
                if cx.queues[cx.pid].enqueue(value).is_ok() {
                    produced += 1;
                    progress[cx.pid].store(produced);
                    continue;
                }
            }
            let mut stolen = false;
            let mut task = cx.queues[cx.pid].dequeue();
            if task.is_none() {
                for k in 1..n {
                    let victim = (cx.pid + k) % n;
                    if let Some(v) = cx.queues[victim].dequeue() {
                        task = Some(v);
                        stolen = true;
                        break;
                    }
                }
            }
            match task {
                Some(_) => {
                    if stolen {
                        cx.counters.tallies[Self::STEALS].fetch_add(1, Ordering::Relaxed);
                    }
                    cx.platform.delay(self.workload.other_work_ns); // execute
                    consumed.fetch_add(1);
                    cx.counters.per_process[cx.pid].fetch_add(1, Ordering::Relaxed);
                }
                None if produced < my_seed => {} // still seeding; retry
                None => {
                    // Tasks a dead owner never produced will never exist;
                    // shrink the termination target by its residual.
                    let notices = cx.platform.dead_peers();
                    let lost: u64 = (0..owners.min(64))
                        .filter(|&o| notices & (1 << o) != 0)
                        .map(|o| share(total, owners, o) - progress[o].load())
                        .sum();
                    // `>=`: a victim's in-flight enqueue can linearize
                    // beyond its published progress, overshooting the
                    // shrunken target by one.
                    if consumed.load() >= total - lost {
                        break;
                    }
                    // Idle backoff: one timed wait instead of a
                    // step-dense spin, so simulated runs don't burn a
                    // scheduler step per empty probe.
                    cx.platform.delay(IDLE_BACKOFF_NS);
                }
            }
        }
    }

    fn other_work_share(&self, processors: usize) -> u64 {
        // Each task is executed exactly once, at one delay per task.
        (self.workload.pairs_total / processors as u64) * self.workload.other_work_ns
    }

    fn check_conservation(&self, counters: &ScenarioCounters, drained: u64) {
        assert_eq!(
            counters.completed(),
            self.workload.pairs_total,
            "every task executes exactly once"
        );
        assert_eq!(drained, 0, "all worker queues must drain");
    }
}

/// Fan-out/fan-in pipeline: `stages` stages connected by `stages - 1`
/// queues. Stage 0 (pids with `pid % stages == 0`) generates the items,
/// interior stages move them queue-to-queue, the last stage consumes;
/// every stage spins `other_work_ns` per item. A charged per-stage
/// completion counter is the termination signal, and per-stage host
/// tallies feed the stage-conservation check (every stage must handle
/// exactly `pairs_total` items).
#[derive(Clone, Copy, Debug)]
pub struct PipelineScenario {
    /// Workload parameters (`pairs_total` = items through the pipeline).
    pub workload: WorkloadConfig,
    /// Stage count (>= 2); processes are assigned round-robin
    /// (`stage = pid % stages`), so `n >= stages` staffs every stage.
    pub stages: usize,
}

impl<P: Platform> Scenario<P> for PipelineScenario {
    fn workload(&self) -> &WorkloadConfig {
        &self.workload
    }

    fn num_queues(&self, _n: usize) -> usize {
        self.stages - 1
    }

    fn num_cells(&self, _n: usize) -> usize {
        self.stages // per-stage completion counters
    }

    fn num_tallies(&self) -> usize {
        self.stages
    }

    fn validate(&self, n: usize) {
        assert!(self.stages >= 2, "a pipeline needs at least two stages");
        assert!(n >= self.stages, "every stage needs at least one process");
    }

    fn run(&self, cx: &ScenarioCtx<'_, P>) {
        let n = cx.num_processes;
        let total = self.workload.pairs_total;
        let other_work_ns = self.workload.other_work_ns;
        let stages = self.stages;
        let stage = cx.pid % stages;
        let done_cell = &cx.cells[stage];
        let finish_item = |item_done: &dyn Fn()| {
            cx.platform.delay(other_work_ns);
            item_done();
            done_cell.fetch_add(1);
            cx.counters.tallies[stage].fetch_add(1, Ordering::Relaxed);
            cx.counters.per_process[cx.pid].fetch_add(1, Ordering::Relaxed);
        };
        if stage == 0 {
            // Generator: split the item budget across stage-0 processes.
            let generators = (n - 1) / stages + 1;
            let my_items = share(total, generators, cx.pid / stages);
            for i in 0..my_items {
                let value = ((cx.pid as u64) << 40) | i;
                while cx.queues[0].enqueue(value).is_err() {
                    cx.platform.cpu_relax();
                }
                finish_item(&|| {});
            }
        } else {
            let in_q = &*cx.queues[stage - 1];
            let out_q = (stage < stages - 1).then(|| &*cx.queues[stage]);
            loop {
                match in_q.dequeue() {
                    Some(value) => finish_item(&|| {
                        if let Some(out) = out_q {
                            // Items flow through unchanged; a full
                            // downstream queue backpressures this stage.
                            while out.enqueue(value).is_err() {
                                cx.platform.cpu_relax();
                            }
                        }
                    }),
                    None => {
                        // Stage done iff this stage collectively handled
                        // every item: nothing can ever arrive upstream
                        // again.
                        if done_cell.load() == total {
                            break;
                        }
                        cx.platform.delay(IDLE_BACKOFF_NS);
                    }
                }
            }
        }
    }

    fn other_work_share(&self, processors: usize) -> u64 {
        // Every item is worked on once per stage.
        (self.workload.pairs_total * self.stages as u64 / processors as u64)
            * self.workload.other_work_ns
    }

    fn check_conservation(&self, counters: &ScenarioCounters, drained: u64) {
        for (stage, tally) in counters.tallies.iter().enumerate() {
            assert_eq!(
                tally.load(Ordering::Relaxed),
                self.workload.pairs_total,
                "stage {stage} must handle every item exactly once"
            );
        }
        assert_eq!(drained, 0, "all inter-stage queues must drain");
    }
}

/// Open-loop bursty arrivals: the first `max(n/2, 1)` processes produce
/// on a seeded Poisson-like schedule in platform time (gaps uniform in
/// `[0, 2*mean_gap_ns]`, with every ~4th gap collapsed to 0 — a burst),
/// pacing with [`Platform::now_ns`] and stamping each item's scheduled
/// arrival time into its low 40 bits. The remaining processes consume,
/// charging `other_work_ns` of service per item, and report
/// enqueue-to-dequeue latency both host-side (the sorted samples in
/// [`ScenarioOutcome::latencies_ns`]) and through
/// [`Platform::record_latency`], so simulated runs carry the identical
/// samples in `SimReport::latencies`.
///
/// Unlike the closed-loop shapes, arrivals do not wait for completions:
/// when the queue (or its consumers) can't keep up, latency grows —
/// which is exactly the signal this scenario exists to measure. Net
/// time equals elapsed time (`other_work_share` is 0); the figures of
/// merit are the p50/p95/p99 latency percentiles.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopScenario {
    /// Workload parameters (`pairs_total` = items, `other_work_ns` =
    /// per-item service time at the consumer).
    pub workload: WorkloadConfig,
    /// Mean inter-arrival gap per producer, in platform nanoseconds.
    pub mean_gap_ns: u64,
    /// Seed for the arrival schedule.
    pub seed: u64,
}

/// splitmix64: the arrival-schedule PRNG (tiny, seedable, and identical
/// on every platform).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<P: Platform> Scenario<P> for OpenLoopScenario {
    fn workload(&self) -> &WorkloadConfig {
        &self.workload
    }

    fn num_cells(&self, _n: usize) -> usize {
        1 // the consumed counter
    }

    fn validate(&self, n: usize) {
        assert!(n >= 2, "open-loop needs a producer and a consumer");
    }

    fn run(&self, cx: &ScenarioCtx<'_, P>) {
        let n = cx.num_processes;
        let total = self.workload.pairs_total;
        let producers = (n / 2).max(1);
        let consumed = &cx.cells[0];
        if cx.pid < producers {
            let my_items = share(total, producers, cx.pid);
            let mut rng = self.seed ^ (cx.pid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            // The schedule is anchored at this producer's run start, so
            // it is expressible on both the virtual clock (0 at start)
            // and the native epoch clock.
            let mut t = cx.platform.now_ns();
            for _ in 0..my_items {
                let r = splitmix64(&mut rng);
                // Poisson-like with bursts: every ~4th gap is 0.
                let gap = if r.is_multiple_of(4) {
                    0
                } else {
                    (r >> 2) % (2 * self.mean_gap_ns + 1)
                };
                t += gap;
                let now = cx.platform.now_ns();
                if t > now {
                    cx.platform.delay(t - now);
                }
                let value = ((cx.pid as u64) << 40) | (t & MASK40);
                // Open-loop until the queue fills; then backpressure
                // (the latency samples record the resulting delay).
                while cx.queues[0].enqueue(value).is_err() {
                    cx.platform.cpu_relax();
                }
            }
        } else {
            loop {
                match cx.queues[0].dequeue() {
                    Some(value) => {
                        let arrival = value & MASK40;
                        // Free, token-keeping stamps: the report's sample
                        // and the host-side sample read the same clock.
                        cx.platform.record_latency(arrival);
                        let now = cx.platform.now_ns();
                        let sample = now.wrapping_sub(arrival) & MASK40;
                        cx.counters
                            .latencies_ns
                            .lock()
                            .expect("latency samples")
                            .push(sample);
                        cx.platform.delay(self.workload.other_work_ns); // service
                        consumed.fetch_add(1);
                        cx.counters.per_process[cx.pid].fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        if consumed.load() == total {
                            break;
                        }
                        cx.platform.delay(IDLE_BACKOFF_NS);
                    }
                }
            }
        }
    }

    fn other_work_share(&self, _processors: usize) -> u64 {
        // Open-loop: elapsed time is paced by the arrival schedule, so
        // net time is not meaningful — the latency distribution is.
        0
    }

    fn check_conservation(&self, counters: &ScenarioCounters, drained: u64) {
        assert_eq!(counters.completed(), self.workload.pairs_total);
        assert_eq!(
            counters.latencies_ns.lock().expect("latency samples").len() as u64,
            self.workload.pairs_total,
            "every consumed item must leave a latency sample"
        );
        assert_eq!(drained, 0, "consumers must empty the queue");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WorkloadConfig {
        WorkloadConfig {
            pairs_total: 300,
            other_work_ns: 500,
            capacity: 256,
            mem_budget: None,
        }
    }

    fn cfg(processors: usize) -> SimConfig {
        SimConfig {
            processors,
            ..SimConfig::default()
        }
    }

    fn watched(processors: usize, watchdog_ns: u64) -> SimConfig {
        SimConfig {
            watchdog_ns,
            ..cfg(processors)
        }
    }

    fn paired(algorithm: Algorithm, config: SimConfig, plan: FaultPlan) -> FaultedPoint {
        run_scenario_simulated(algorithm, config, PairedScenario { workload: tiny() }, plan).point
    }

    fn batched(algorithm: Algorithm, workload: WorkloadConfig, batch: usize) -> MeasuredPoint {
        run_scenario_simulated(
            algorithm,
            cfg(2),
            BatchedScenario { workload, batch },
            FaultPlan::new(),
        )
        .point
        .point
    }

    /// The policy shape on three processes, pid 0 the designated
    /// survivor.
    fn policy(
        algorithm: Algorithm,
        watchdog_ns: u64,
        plan: FaultPlan,
        repairable: bool,
    ) -> FaultedPoint {
        let scenario = PolicyScenario {
            workload: tiny(),
            policy: RecoveryPolicy::designated(0),
            repairable,
        };
        run_scenario_simulated(algorithm, watched(3, watchdog_ns), scenario, plan).point
    }

    /// Runs `scenario` twice and asserts the runs are identical: report,
    /// measurement, tallies and latency samples.
    fn assert_replays<S: Scenario<SimPlatform> + Copy>(
        shape: &str,
        algorithm: Algorithm,
        config: SimConfig,
        scenario: S,
        plan: FaultPlan,
    ) {
        let run = || run_scenario_simulated(algorithm, config, scenario, plan.clone());
        let (a, b) = (run(), run());
        assert_eq!(a.sim_report, b.sim_report, "{shape}");
        let debug = |out: &ScenarioOutcome| format!("{:?}", out.point);
        assert_eq!(debug(&a), debug(&b), "{shape}");
        assert_eq!(a.tallies, b.tallies, "{shape}");
        assert_eq!(a.latencies_ns, b.latencies_ns, "{shape}");
        // Every run drains clean, a recovery answers each kill, and with
        // no kill in repair mode nothing is repaired.
        assert_eq!(a.point.drained, Some(0), "{shape}");
        assert_eq!(a.point.recoveries.len(), a.point.killed.len(), "{shape}");
        assert!(a.point.repairs.is_empty(), "{shape}: {:?}", a.point.repairs);
    }

    #[test]
    fn every_shape_is_deterministic() {
        let workload = tiny();
        let recovery = |survivor, repairable| PolicyScenario {
            workload,
            policy: RecoveryPolicy::designated(survivor),
            repairable,
        };
        let open_loop = OpenLoopScenario {
            workload,
            mean_gap_ns: 1_000,
            seed: 7,
        };
        let (msq, none) = (Algorithm::NewNonBlocking, FaultPlan::new);
        assert_replays("paired", msq, cfg(3), PairedScenario { workload }, none());
        let batched = BatchedScenario { workload, batch: 8 };
        assert_replays("batched", Algorithm::Sharded, cfg(3), batched, none());
        let kill = FaultPlan::new().kill_at_label(2, "msq:deq:window", 0);
        assert_replays(
            "recovered",
            msq,
            watched(3, 400_000_000),
            recovery(1, false),
            kill,
        );
        assert_replays(
            "repairable",
            Algorithm::NewTwoLock,
            cfg(2),
            recovery(0, true),
            none(),
        );
        assert_replays(
            "stealing",
            msq,
            cfg(3),
            StealingScenario { workload },
            none(),
        );
        let pipeline = PipelineScenario {
            workload,
            stages: 3,
        };
        assert_replays("pipeline", Algorithm::SingleLock, cfg(3), pipeline, none());
        assert_replays("open-loop", msq, cfg(3), open_loop, none());
    }

    #[test]
    fn simulated_run_completes_for_every_algorithm() {
        for alg in Algorithm::ALL {
            let point = paired(alg, cfg(2), FaultPlan::new()).point;
            assert!(point.elapsed_ns > 0, "{alg}");
            assert!(point.net_ns <= point.elapsed_ns, "{alg}");
            assert_eq!(point.pairs, 300);
            assert_eq!(point.processes, 2);
        }
    }

    #[test]
    fn simulated_multiprogrammed_run_completes() {
        let cfg = SimConfig {
            processes_per_processor: 2,
            quantum_ns: 100_000,
            ..cfg(2)
        };
        let point = paired(Algorithm::NewNonBlocking, cfg, FaultPlan::new()).point;
        assert_eq!(point.processes, 4);
        assert!(point.elapsed_ns > 0);
    }

    #[test]
    fn native_run_completes() {
        let scenario = PairedScenario { workload: tiny() };
        let point = run_scenario_native(Algorithm::NewNonBlocking, 2, scenario)
            .point
            .point;
        assert!(point.elapsed_ns > 0);
        assert_eq!(point.processes, 2);
    }

    #[test]
    fn simulated_batched_run_completes_for_batchers_and_loopers() {
        // A real batcher, the sharded front-end, and a trait-default
        // per-op looper all drive the same workload.
        for alg in [
            Algorithm::SegBatched,
            Algorithm::Sharded,
            Algorithm::NewNonBlocking,
        ] {
            let point = batched(alg, tiny(), 8);
            assert!(point.elapsed_ns > 0, "{alg}");
            assert_eq!(point.pairs, 300, "{alg}");
        }
    }

    #[test]
    fn native_batched_run_completes() {
        let scenario = BatchedScenario {
            workload: tiny(),
            batch: 16,
        };
        let point = run_scenario_native(Algorithm::SegBatched, 2, scenario)
            .point
            .point;
        assert!(point.elapsed_ns > 0);
        assert_eq!(point.processes, 2);
    }

    #[test]
    fn batch_of_one_matches_per_op_structure() {
        // batch=1 must be a valid degenerate case, not a special one.
        assert!(batched(Algorithm::SegBatched, tiny(), 1).elapsed_ns > 0);
    }

    #[test]
    fn budgeted_simulated_run_reports_peak_within_limit() {
        for alg in [Algorithm::SegBatched, Algorithm::Sharded] {
            let workload = WorkloadConfig {
                mem_budget: Some(48),
                ..tiny()
            };
            let point = batched(alg, workload, 8);
            let peak = point.peak_resident_segments.expect("budgeted run");
            assert!(peak >= 1, "{alg}: the dummy segment is always resident");
            assert!(peak <= 48, "{alg}: peak {peak} exceeded the budget");
            assert!(point.budget_denials.is_some(), "{alg}");
        }
    }

    #[test]
    fn unbudgeted_runs_report_no_residency_metrics() {
        let point = paired(Algorithm::SegBatched, cfg(2), FaultPlan::new()).point;
        assert_eq!(point.peak_resident_segments, None);
        assert_eq!(point.budget_denials, None);
    }

    #[test]
    fn faulted_run_kill_on_nonblocking_queue_still_completes() {
        let point = paired(
            Algorithm::NewNonBlocking,
            watched(2, 50_000_000),
            FaultPlan::new().kill_at_label(1, "msq:enq:window", 0),
        );
        assert_eq!(point.killed, vec![1]);
        assert!(point.survivors_completed(), "blocked: {:?}", point.blocked);
        // Process 0 finished all its pairs; the victim died on pair 0.
        assert_eq!(point.pairs_completed, share(300, 2, 0));
        // The victim's linearized-but-unfinished enqueue strands one value.
        assert_eq!(point.drained, Some(1));
        assert!(point.max_completion_ns > 0);
        assert!(point.max_completion_ns < 50_000_000, "no watchdog overrun");
    }

    #[test]
    fn faulted_run_kill_on_lock_queue_is_detected_as_blocked() {
        let point = paired(
            Algorithm::SingleLock,
            watched(2, 50_000_000),
            FaultPlan::new().kill_at_label(1, "single-lock:enq:locked", 0),
        );
        assert_eq!(point.killed, vec![1]);
        assert!(
            !point.survivors_completed(),
            "a dead lock-holder must block the survivor"
        );
        assert_eq!(point.blocked, vec![0]);
        assert_eq!(point.drained, None, "a seized lock makes draining unsafe");
    }

    #[test]
    fn recovered_run_absorbs_the_victims_residual_share() {
        let point = policy(
            Algorithm::NewNonBlocking,
            400_000_000,
            FaultPlan::new().kill_at_label(1, "msq:deq:window", 0),
            false,
        );
        assert_eq!(point.killed, vec![1]);
        assert!(point.survivors_completed(), "blocked: {:?}", point.blocked);
        // The victim died inside its first dequeue: its whole share is
        // residual, and the survivor replays every pair of it.
        assert_eq!(point.recovered_pairs, share(300, 3, 1));
        assert_eq!(point.pairs_completed + point.recovered_pairs, 300);
        assert_eq!(point.recoveries.len(), 1);
        assert_eq!(point.recoveries[0].victim, 1);
        assert_eq!(point.recoveries[0].by, 0);
        let ttr = point.time_to_recover_ns.expect("one recovery completed");
        assert!(ttr > 0, "catch-up work costs virtual time");
        // The victim's in-flight dequeue already swung Head, so the
        // replayed pairs leave the queue balanced.
        assert_eq!(point.drained, Some(0));
    }

    #[test]
    fn recovered_run_on_a_lock_queue_is_watchdog_flagged_not_recovered() {
        let point = policy(
            Algorithm::SingleLock,
            50_000_000,
            FaultPlan::new().kill_at_label(1, "single-lock:deq:locked", 0),
            false,
        );
        assert_eq!(point.killed, vec![1]);
        assert!(
            !point.survivors_completed(),
            "a dead lock-holder must wedge the survivors"
        );
        assert_eq!(point.recovered_pairs, 0);
        assert_eq!(point.time_to_recover_ns, None);
        assert!(point.recoveries.is_empty());
        assert_eq!(point.drained, None);
    }

    #[test]
    fn repaired_run_on_a_lock_queue_completes_with_conservation() {
        for (alg, label) in [
            (Algorithm::SingleLock, "single-lock:deq:locked"),
            (Algorithm::NewTwoLock, "two-lock:deq:locked"),
        ] {
            let point = policy(
                alg,
                400_000_000,
                FaultPlan::new().kill_at_label(1, label, 0),
                true,
            );
            assert_eq!(point.killed, vec![1], "{alg}");
            assert!(
                point.survivors_completed(),
                "{alg}: repair must beat the watchdog, blocked {:?}",
                point.blocked
            );
            assert_eq!(point.repairs.len(), 1, "{alg}: {:?}", point.repairs);
            assert_eq!(point.repairs[0].victim, 1, "{alg}");
            let ttr = point.time_to_repair_ns.expect("one repair landed");
            assert!(ttr > 0, "{alg}: revocation costs virtual time");
            assert_eq!(
                point.pairs_completed + point.recovered_pairs,
                300,
                "{alg}: conservation"
            );
            let drained = point.drained.expect("a repaired queue is drainable");
            assert!(drained <= 1, "{alg}: at most the rolled-back value remains");
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&samples, 50.0), 50);
        assert_eq!(percentile_ns(&samples, 95.0), 95);
        assert_eq!(percentile_ns(&samples, 99.0), 99);
        assert_eq!(percentile_ns(&samples, 100.0), 100);
        assert_eq!(percentile_ns(&[7], 50.0), 7);
        assert_eq!(percentile_ns(&[7], 99.0), 7);
    }

    #[test]
    fn stealing_completes_with_load_bearing_steals() {
        for alg in [Algorithm::NewNonBlocking, Algorithm::NewTwoLock] {
            let out = run_scenario_simulated(
                alg,
                cfg(4),
                StealingScenario { workload: tiny() },
                FaultPlan::new(),
            );
            assert_eq!(out.point.pairs_completed, 300, "{alg}");
            assert_eq!(out.point.drained, Some(0), "{alg}");
            // Half the workers own no tasks: their whole throughput is
            // stolen work.
            assert!(out.tallies[StealingScenario::STEALS] > 0, "{alg}");
            assert!(out.point.point.elapsed_ns > 0, "{alg}");
        }
    }

    #[test]
    fn stealing_survives_a_tiny_capacity() {
        // Production is interleaved with consumption, so a queue that
        // cannot hold a worker's whole seed share must not deadlock.
        let out = run_scenario_simulated(
            Algorithm::NewNonBlocking,
            cfg(2),
            StealingScenario {
                workload: WorkloadConfig {
                    capacity: 8,
                    ..tiny()
                },
            },
            FaultPlan::new(),
        );
        assert_eq!(out.point.pairs_completed, 300);
    }

    #[test]
    fn pipeline_conserves_items_at_every_stage() {
        let out = run_scenario_simulated(
            Algorithm::NewNonBlocking,
            cfg(3),
            PipelineScenario {
                workload: tiny(),
                stages: 3,
            },
            FaultPlan::new(),
        );
        assert_eq!(out.tallies, vec![300, 300, 300]);
        assert_eq!(out.point.drained, Some(0));
        assert!(out.point.point.elapsed_ns > 0);
    }

    #[test]
    fn pipeline_staffs_stages_round_robin() {
        // 5 processes over 3 stages: stage 0 gets pids {0, 3}, the item
        // budget splits across both generators.
        let out = run_scenario_simulated(
            Algorithm::NewTwoLock,
            cfg(5),
            PipelineScenario {
                workload: tiny(),
                stages: 3,
            },
            FaultPlan::new(),
        );
        assert_eq!(out.tallies, vec![300, 300, 300]);
        assert_eq!(out.point.pairs_completed, 900, "300 items x 3 stages");
    }

    #[test]
    fn open_loop_reports_latency_in_report_and_host_samples() {
        let out = run_scenario_simulated(
            Algorithm::NewNonBlocking,
            cfg(2),
            OpenLoopScenario {
                workload: tiny(),
                mean_gap_ns: 2_000,
                seed: 42,
            },
            FaultPlan::new(),
        );
        assert_eq!(out.latencies_ns.len(), 300);
        let report = out.sim_report.as_ref().expect("simulated run");
        assert_eq!(report.latencies.len(), 300, "stamps land in the report");
        // Token-keeping stamps: the report's virtual-time samples are
        // exactly the host-side samples.
        let mut from_report: Vec<u64> = report.latencies.iter().map(|s| s.latency_ns()).collect();
        from_report.sort_unstable();
        assert_eq!(from_report, out.latencies_ns);
        let p50 = out.latency_percentile_ns(50.0).unwrap();
        let p95 = out.latency_percentile_ns(95.0).unwrap();
        let p99 = out.latency_percentile_ns(99.0).unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        // Net time is elapsed time for open-loop runs.
        assert_eq!(out.point.point.net_ns, out.point.point.elapsed_ns);
    }

    #[test]
    fn open_loop_is_seed_sensitive() {
        let run = |seed| {
            let scenario = OpenLoopScenario {
                workload: tiny(),
                mean_gap_ns: 1_000,
                seed,
            };
            run_scenario_simulated(
                Algorithm::NewNonBlocking,
                cfg(3),
                scenario,
                FaultPlan::new(),
            )
        };
        assert_ne!(
            run(7).point.point.elapsed_ns,
            run(8).point.point.elapsed_ns,
            "a different seed must produce a different arrival schedule"
        );
    }

    #[test]
    fn new_scenarios_run_natively() {
        let out = run_scenario_native(
            Algorithm::NewNonBlocking,
            2,
            StealingScenario { workload: tiny() },
        );
        assert_eq!(out.point.pairs_completed, 300);
        let out = run_scenario_native(
            Algorithm::NewNonBlocking,
            3,
            PipelineScenario {
                workload: tiny(),
                stages: 3,
            },
        );
        assert_eq!(out.tallies, vec![300, 300, 300]);
        let out = run_scenario_native(
            Algorithm::NewNonBlocking,
            2,
            OpenLoopScenario {
                workload: tiny(),
                mean_gap_ns: 1_000,
                seed: 1,
            },
        );
        assert_eq!(out.latencies_ns.len(), 300);
        assert!(out.sim_report.is_none());
    }

    #[test]
    fn stealing_under_a_kill_still_finishes_survivors() {
        // Kill one worker mid-enqueue on the non-blocking queue: the
        // other workers steal whatever it seeded and drain the pool,
        // minus the victim's unproduced tasks.
        let out = run_scenario_simulated(
            Algorithm::NewNonBlocking,
            SimConfig {
                processors: 4,
                watchdog_ns: 200_000_000,
                ..cfg(4)
            },
            StealingScenario { workload: tiny() },
            FaultPlan::new().kill_at_label(1, "msq:enq:window", 0),
        );
        assert_eq!(out.point.killed, vec![1]);
        assert!(out.point.survivors_completed());
        assert!(
            out.point.pairs_completed < 300,
            "the victim's pool is short"
        );
    }
}
