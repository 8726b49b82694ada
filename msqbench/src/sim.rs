//! The simulator workloads: two Figure 3–5 points and a sweep of tiny
//! checked runs. All are closed loops; the simulator's per-process host
//! threads take turns holding its execution token, so one runs at a time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ms_queues::{
    is_linearizable_queue, run_scenario_simulated, Algorithm, ConcurrentWordQueue, FaultPlan,
    PairedScenario, Recorder, Scenario, ScenarioCounters, ScenarioCtx, SimConfig, SimPlatform,
    SimReport, Simulation, WorkloadConfig,
};

use crate::os::{self, Usage};
use crate::stats::ratio;
use crate::trace::{
    push_platform_layer, push_queue_layer, push_run_layer, write_trace, TracedPlatform,
    TracedQueue, Tracer,
};
use crate::{fnv1a, panic_message, splitmix64, Opts, Run, FNV_BASIS};

/// A point of the paper's Section 4 workload.
pub struct Figure {
    pub name: &'static str,
    pub algorithm: Algorithm,
    pub processors: usize,
    pub processes_per_processor: usize,
    pub pairs: u64,
}

/// The headline Figure 3 point: few processors, so the token handoff
/// between host threads dominates and the scheduler scan is cheap.
pub const FIG3: Figure = Figure {
    name: "sim-fig3-8p",
    algorithm: Algorithm::NewNonBlocking,
    processors: 8,
    processes_per_processor: 1,
    pairs: 20_000,
};

/// The Figure 5 multiprogrammed shape at 64 processors: the scheduler's
/// per-processor scan, run-queue rotation, preemption and lock-holder
/// spinning.
pub const FIG5: Figure = Figure {
    name: "sim-fig5-64p",
    algorithm: Algorithm::NewTwoLock,
    processors: 64,
    processes_per_processor: 3,
    pairs: 10_000,
};

/// Rounds a figure workload runs even when the budget is spent sooner.
const FIGURE_MIN_ROUNDS: usize = 3;

impl Figure {
    /// The machine as the `figures` bin builds it: the paper's 10 ms
    /// quantum scaled by pairs / 10^6, and a context switch of 1/400 of
    /// it.
    fn config(&self, seed: u64) -> SimConfig {
        let quantum_ns = (10_000_000 * self.pairs / 1_000_000).max(20_000);
        SimConfig {
            processors: self.processors,
            processes_per_processor: self.processes_per_processor,
            quantum_ns,
            ctx_switch_ns: (quantum_ns / 400).max(200),
            seed,
            ..SimConfig::default()
        }
    }

    fn workload(&self) -> WorkloadConfig {
        WorkloadConfig {
            pairs_total: self.pairs,
            other_work_ns: 6_000,
            ..WorkloadConfig::default()
        }
    }
}

/// FNV-1a over a report's `Debug` text: equal digests mean byte-identical
/// model output.
fn report_digest(reports: &[SimReport]) -> u64 {
    reports
        .iter()
        .fold(FNV_BASIS, |h, r| fnv1a(h, format!("{r:?}").as_bytes()))
}

/// One untraced round, through the harness's own driver.
struct Round {
    wall_s: f64,
    usage: Usage,
    report: SimReport,
    net_ns: u64,
}

fn untraced_round(fig: &Figure, cfg: SimConfig) -> Result<Round, String> {
    let usage = Usage::now();
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        run_scenario_simulated(
            fig.algorithm,
            cfg,
            PairedScenario {
                workload: fig.workload(),
            },
            FaultPlan::new(),
        )
    }));
    let wall_s = start.elapsed().as_secs_f64();
    let usage = Usage::now().since(&usage);
    let out = out.map_err(|p| format!("round panicked: {}", panic_message(&*p)))?;
    let point = &out.point;
    if !point.killed.is_empty() || !point.blocked.is_empty() {
        return Err(format!(
            "killed {:?}, blocked {:?} in an unfaulted run",
            point.killed, point.blocked
        ));
    }
    if point.drained != Some(0) || point.pairs_completed != fig.pairs {
        return Err(format!(
            "conservation: drained {:?}, completed {} of {} pairs",
            point.drained, point.pairs_completed, fig.pairs
        ));
    }
    Ok(Round {
        wall_s,
        usage,
        report: out.sim_report.expect("simulated runs carry a report"),
        net_ns: point.point.net_ns,
    })
}

/// One traced round, built from the harness's public pieces the way
/// `run_scenario_simulated` builds it, with the platform and the queue
/// wrapped.
struct TracedRound {
    wall_s: f64,
    report: SimReport,
    setup_ns: u64,
    exec_ns: u64,
    check_ns: u64,
}

fn traced_round(fig: &Figure, cfg: SimConfig, tracer: &Arc<Tracer>) -> Result<TracedRound, String> {
    let workload = fig.workload();
    let scenario = Arc::new(PairedScenario { workload });
    let start = Instant::now();
    let (out, _) = tracer.span("round", None, |round| -> Result<_, String> {
        let ((sim, platform, queues), setup_ns) = tracer.span("setup", round, |_| {
            let sim = Simulation::new(cfg);
            let platform = TracedPlatform(sim.platform());
            let queue: Arc<dyn ConcurrentWordQueue> = Arc::new(TracedQueue(
                fig.algorithm.build(&platform, workload.capacity),
            ));
            (sim, platform, Arc::new(vec![queue]))
        });
        let n = cfg.num_processes();
        let counters = Arc::new(ScenarioCounters {
            per_process: (0..n).map(|_| AtomicU64::new(0)).collect(),
            recovered: AtomicU64::new(0),
            tallies: Vec::new(),
            latencies_ns: Mutex::new(Vec::new()),
        });
        let body = {
            let (tracer, queues, counters, scenario) = (
                Arc::clone(tracer),
                Arc::clone(&queues),
                Arc::clone(&counters),
                Arc::clone(&scenario),
            );
            move |info: ms_queues::sim::ProcessInfo| {
                let _attached = tracer.attach(info.pid as u64 + 1);
                let cx = ScenarioCtx {
                    pid: info.pid,
                    num_processes: info.num_processes,
                    platform: &platform,
                    queues: &queues,
                    cells: &[],
                    counters: &counters,
                };
                Scenario::<TracedPlatform<SimPlatform>>::run(&*scenario, &cx);
            }
        };
        let (report, exec_ns) = tracer.span("exec", round, |exec| {
            catch_unwind(AssertUnwindSafe(|| tracer.time_run(exec, || sim.run(body))))
        });
        let report =
            report.map_err(|p| format!("traced round panicked: {}", panic_message(&*p)))?;
        let (checked, check_ns) = tracer.span("check", round, |_| {
            if !report.killed.is_empty() || !report.blocked.is_empty() {
                return Err("a process was killed or blocked in an unfaulted run".to_string());
            }
            let drained = queues
                .iter()
                .map(|q| std::iter::from_fn(|| q.dequeue()).count())
                .sum::<usize>();
            catch_unwind(AssertUnwindSafe(|| {
                Scenario::<TracedPlatform<SimPlatform>>::check_conservation(
                    &*scenario,
                    &counters,
                    drained as u64,
                )
            }))
            .map_err(|p| format!("traced conservation: {}", panic_message(&*p)))
        });
        checked?;
        Ok((report, setup_ns, exec_ns, check_ns))
    });
    let (report, setup_ns, exec_ns, check_ns) = out?;
    Ok(TracedRound {
        wall_s: start.elapsed().as_secs_f64(),
        report,
        setup_ns,
        exec_ns,
        check_ns,
    })
}

/// A figure workload: rounds of the same run, checked, with the host
/// throughput in simulated shared-memory ops per second.
pub fn figure(fig: &Figure, opts: Opts) -> Run {
    let cfg = fig.config(opts.seed);
    let mut run = Run::default();
    if opts.trace {
        traced_figure(fig, cfg, opts, &mut run);
        return run;
    }
    run.time_setups(|| {
        let sim = Simulation::new(cfg);
        let queue = fig
            .algorithm
            .build(&sim.platform(), fig.workload().capacity);
        (queue, sim)
    });
    let mut first: Option<Round> = None;
    opts.rounds(FIGURE_MIN_ROUNDS, |_| {
        run.attempted += fig.pairs;
        match untraced_round(fig, cfg) {
            Err(why) => run.fail(fig.pairs, why),
            Ok(round) => {
                run.push(
                    "work_per_s",
                    "1/s",
                    round.report.total_ops as f64 / round.wall_s,
                );
                match &first {
                    None => first = Some(round),
                    Some(f) if f.report != round.report => run.fail(
                        fig.pairs,
                        "the SimReport changed between rounds of identical work",
                    ),
                    Some(_) => {}
                }
            }
        }
    });
    if let Some(round) = first {
        note_model(&mut run, fig.name, &[round.report], round.net_ns, fig.pairs);
    }
    run
}

fn traced_figure(fig: &Figure, cfg: SimConfig, opts: Opts, run: &mut Run) {
    opts.rounds(1, |i| {
        run.attempted += 2 * fig.pairs;
        let base = match untraced_round(fig, cfg) {
            Ok(base) => base,
            Err(why) => return run.fail(2 * fig.pairs, why),
        };
        let tracer = Tracer::new();
        let traced = match traced_round(fig, cfg, &tracer) {
            Ok(traced) => traced,
            Err(why) => return run.fail(fig.pairs, why),
        };
        if traced.report != base.report {
            run.fail(
                fig.pairs,
                "the traced SimReport differs from the untraced one",
            );
        }
        let ops = base.report.total_ops;
        os::push_layer(run, &base.usage, ops);
        run.push(
            "trace.overhead_share",
            "share",
            traced.wall_s / base.wall_s - 1.0,
        );
        push_run_layer(
            run,
            vec![traced.setup_ns],
            vec![traced.exec_ns],
            vec![traced.check_ns],
        );
        push_model(
            run,
            std::slice::from_ref(&base.report),
            base.net_ns,
            fig.pairs,
        );
        push_sim_layers(run, &tracer, ops, i == 0);
        if i == 0 {
            write_trace(run, &tracer, fig.name);
            note_model(run, fig.name, &[base.report], base.net_ns, fig.pairs);
        }
    });
}

/// Tiny checked runs per sweep round.
pub const SWEEP_RUNS: u64 = 2_000;
/// Node capacity of each tiny run's queue.
const SWEEP_CAPACITY: u32 = 64;
/// Enqueue/dequeue pairs per tiny run: 3 processes x 2.
const SWEEP_PAIRS_PER_RUN: u64 = 6;
/// Rounds the sweep runs even when the budget is spent sooner.
const SWEEP_MIN_ROUNDS: usize = 3;

fn tiny_config(seed: u64) -> SimConfig {
    SimConfig {
        processors: 3,
        quantum_ns: 60_000,
        seed,
        ..SimConfig::default()
    }
}

/// The `i`-th tiny run of a sweep whose seeds start from `base`.
fn tiny_case(base: u64, i: u64) -> (Algorithm, SimConfig) {
    let algorithm = Algorithm::ALL[(i % Algorithm::ALL.len() as u64) as usize];
    (algorithm, tiny_config(splitmix64(base.wrapping_add(i))))
}

struct TinyRun {
    report: SimReport,
    setup_ns: u64,
    exec_ns: u64,
    check_ns: u64,
}

/// One tiny run: each process does 2 x (enqueue, dequeue) through a
/// `Recorder`, and the history is checked for safety and for Wing–Gong
/// linearizability. With a tracer the platform and the queue are wrapped.
fn tiny_run(
    algorithm: Algorithm,
    cfg: SimConfig,
    tracer: Option<&Arc<Tracer>>,
    parent: Option<usize>,
) -> Result<TinyRun, String> {
    let t0 = Instant::now();
    let sim = Simulation::new(cfg);
    let queue: Arc<dyn ConcurrentWordQueue> = match tracer {
        Some(_) => Arc::new(TracedQueue(
            algorithm.build(&TracedPlatform(sim.platform()), SWEEP_CAPACITY),
        )),
        None => algorithm.build(&sim.platform(), SWEEP_CAPACITY),
    };
    let recorder = Recorder::new();
    let handles: Vec<_> = (0..cfg.num_processes())
        .map(|p| Some(recorder.handle(p)))
        .collect();
    let handles = Arc::new(Mutex::new(handles));
    let body = {
        let tracer = tracer.cloned();
        move |info: ms_queues::sim::ProcessInfo| {
            let _attached = tracer.as_ref().map(|t| t.attach(info.pid as u64 + 1));
            let mut handle = handles
                .lock()
                .expect("no process panics holding the handles")[info.pid]
                .take()
                .expect("each process takes its own handle once");
            for k in 0..2_u64 {
                let value = (info.pid as u64) << 8 | k;
                handle
                    .enqueue(&*queue, value)
                    .expect("the queue holds every value in flight");
                handle.dequeue(&*queue);
            }
        }
    };
    let t1 = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| match tracer {
        Some(t) => t.time_run(parent, || sim.run(body)),
        None => sim.run(body),
    }));
    let t2 = Instant::now();
    let report = report.map_err(|p| format!("{algorithm} run panicked: {}", panic_message(&*p)))?;
    let history = recorder.finish();
    // Two enqueues and two dequeues per process.
    let expected_events = 4 * cfg.num_processes();
    if history.len() != expected_events {
        return Err(format!(
            "{algorithm} seed {:#x}: {} events recorded, {expected_events} expected",
            cfg.seed,
            history.len()
        ));
    }
    let violations = history.check_queue_safety();
    if !violations.is_empty() {
        return Err(format!("{algorithm} seed {:#x}: {violations:?}", cfg.seed));
    }
    if !is_linearizable_queue(history.events()) {
        return Err(format!(
            "{algorithm} seed {:#x}: history not linearizable: {:?}",
            cfg.seed,
            history.events()
        ));
    }
    let t3 = Instant::now();
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    Ok(TinyRun {
        report,
        setup_ns: ns(t0, t1),
        exec_ns: ns(t1, t2),
        check_ns: ns(t2, t3),
    })
}

struct SweepRound {
    wall_s: f64,
    usage: Usage,
    runs: Vec<TinyRun>,
    failures: Vec<String>,
}

fn sweep_round(base: u64, tracer: Option<&Arc<Tracer>>) -> SweepRound {
    let usage = Usage::now();
    let start = Instant::now();
    let mut runs = Vec::with_capacity(SWEEP_RUNS as usize);
    let mut failures = Vec::new();
    for i in 0..SWEEP_RUNS {
        let (algorithm, cfg) = tiny_case(base, i);
        let outcome = match tracer {
            Some(t) => {
                t.span("tiny.run", None, |id| tiny_run(algorithm, cfg, tracer, id))
                    .0
            }
            None => tiny_run(algorithm, cfg, None, None),
        };
        match outcome {
            Ok(run) => runs.push(run),
            Err(why) => failures.push(why),
        }
    }
    SweepRound {
        wall_s: start.elapsed().as_secs_f64(),
        usage: Usage::now().since(&usage),
        runs,
        failures,
    }
}

impl SweepRound {
    fn reports(&self) -> Vec<SimReport> {
        self.runs.iter().map(|r| r.report.clone()).collect()
    }

    fn record_failures(&self, run: &mut Run) {
        for why in &self.failures {
            run.fail(1, why.clone());
        }
    }
}

/// The sweep workload: rounds of 2,000 tiny checked runs, the shape of the
/// seed sweeps in the test suite.
pub fn sweep(opts: Opts) -> Run {
    let base = splitmix64(opts.seed);
    let mut run = Run::default();
    if opts.trace {
        traced_sweep(base, opts, &mut run);
        return run;
    }
    run.time_setups(|| {
        (0..SWEEP_RUNS)
            .map(|i| {
                let (algorithm, cfg) = tiny_case(base, i);
                let sim = Simulation::new(cfg);
                (algorithm.build(&sim.platform(), SWEEP_CAPACITY), sim)
            })
            .collect::<Vec<_>>()
    });
    let mut first: Option<(u64, Vec<SimReport>)> = None;
    opts.rounds(SWEEP_MIN_ROUNDS, |_| {
        let round = sweep_round(base, None);
        run.attempted += SWEEP_RUNS;
        round.record_failures(&mut run);
        run.push("work_per_s", "1/s", SWEEP_RUNS as f64 / round.wall_s);
        let reports = round.reports();
        let digest = report_digest(&reports);
        match &first {
            None => first = Some((digest, reports)),
            Some((d, _)) if *d != digest => run.fail(
                SWEEP_RUNS,
                "the SimReports changed between rounds of identical work",
            ),
            Some(_) => {}
        }
    });
    if let Some((_, reports)) = first {
        let net_ns = reports.iter().map(|r| r.elapsed_ns).sum();
        let pairs = SWEEP_PAIRS_PER_RUN * reports.len() as u64;
        note_model(&mut run, "sim-sweep-tiny", &reports, net_ns, pairs);
    }
    run
}

fn traced_sweep(base: u64, opts: Opts, run: &mut Run) {
    opts.rounds(1, |i| {
        run.attempted += 2 * SWEEP_RUNS;
        let plain = sweep_round(base, None);
        plain.record_failures(run);
        let tracer = Tracer::new();
        let traced = sweep_round(base, Some(&tracer));
        traced.record_failures(run);
        let reports = plain.reports();
        if report_digest(&reports) != report_digest(&traced.reports()) {
            run.fail(
                SWEEP_RUNS,
                "the traced SimReports differ from the untraced ones",
            );
        }
        let ops = reports.iter().map(|r| r.total_ops).sum();
        os::push_layer(run, &plain.usage, ops);
        run.push(
            "trace.overhead_share",
            "share",
            traced.wall_s / plain.wall_s - 1.0,
        );
        let phase = |pick: fn(&TinyRun) -> u64| traced.runs.iter().map(pick).collect();
        push_run_layer(
            run,
            phase(|r| r.setup_ns),
            phase(|r| r.exec_ns),
            phase(|r| r.check_ns),
        );
        let net_ns = reports.iter().map(|r| r.elapsed_ns).sum();
        let pairs = SWEEP_PAIRS_PER_RUN * reports.len() as u64;
        push_model(run, &reports, net_ns, pairs);
        push_sim_layers(run, &tracer, ops, i == 0);
        if i == 0 {
            write_trace(run, &tracer, "sim-sweep-tiny");
            note_model(run, "sim-sweep-tiny", &reports, net_ns, pairs);
        }
    });
}

/// The cost model's exact counts, summed over `reports`.
fn push_model(run: &mut Run, reports: &[SimReport], net_ns: u64, pairs: u64) {
    let sum = |f: fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();
    let ops = sum(|r| r.total_ops);
    run.push(
        "model.virtual_ns_per_pair",
        "virtual_ns",
        ratio(net_ns, pairs),
    );
    run.push("model.ops_per_pair", "count", ratio(ops, pairs));
    run.push(
        "model.misses_per_op",
        "count",
        ratio(sum(|r| r.cache_misses), ops),
    );
    run.push(
        "model.cas_failures",
        "count",
        sum(|r| r.cas_failures) as f64,
    );
    run.push("model.preemptions", "count", sum(|r| r.preemptions) as f64);
}

/// The model's output for the report: what a simulator-speed change must
/// leave byte-identical.
fn note_model(run: &mut Run, name: &str, reports: &[SimReport], net_ns: u64, pairs: u64) {
    let ops: u64 = reports.iter().map(|r| r.total_ops).sum();
    run.note(format!(
        "report_digest {name} {:#018x} (virtual_ns_per_pair={} total_ops={ops})",
        report_digest(reports),
        ratio(net_ns, pairs)
    ));
}

/// The platform, scheduler and queue layers from a traced round of
/// simulated runs making `ops` shared-memory operations.
fn push_sim_layers(run: &mut Run, tracer: &Tracer, ops: u64, describe: bool) {
    let d = tracer.decomposition();
    let mut t = tracer.totals();
    let stays = push_platform_layer(run, &mut t);
    run.push("sim.handoffs_per_op", "count", ratio(t.handoffs, ops));
    run.push("sim.stay_time_share", "share", d.share(d.stay_ns));
    run.push(
        "sim.handoff_time_share",
        "share",
        d.share(d.handoff_total_ns()),
    );
    run.push("sim.body_time_share", "share", d.share(d.body_ns));
    run.push("sim.startup_time_share", "share", d.share(d.startup_ns));
    run.push("sim.teardown_time_share", "share", d.share(d.teardown_ns));
    // Report-only: the derived cost of one handoff.
    run.push("sim.handoff_ns", "ns", d.handoff_ns);
    let enq = std::mem::take(&mut t.enq);
    let deq = std::mem::take(&mut t.deq);
    drop(t);
    run.push(
        "queue.sim_calls_per_enqueue",
        "count",
        ratio(enq.calls, enq.count()),
    );
    run.push(
        "queue.sim_calls_per_dequeue",
        "count",
        ratio(deq.calls, deq.count()),
    );
    let lat = push_queue_layer(run, enq, deq);
    if describe {
        run.note(format!("platform.call_ns (stays) {}", stays.describe()));
        run.note(format!("queue.enq_ns {}", lat.0.describe()));
        run.note(format!("queue.deq_ns {}", lat.1.describe()));
        run.note(format!(
            "decomposition of {:.1} ms in Simulation::run: stay {:.1} + body {:.1} + startup {:.1} \
             + teardown {:.1} + {} handoffs x {:.0} ns = {:.1} ms",
            d.run_wall_ns / 1e6,
            d.stay_ns / 1e6,
            d.body_ns / 1e6,
            d.startup_ns / 1e6,
            d.teardown_ns / 1e6,
            d.handoffs,
            d.handoff_ns,
            (d.stay_ns + d.body_ns + d.startup_ns + d.teardown_ns + d.handoff_total_ns()) / 1e6
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced driver must reproduce the harness's run exactly: for
    /// every contender, wrapping the platform and the queue changes no
    /// simulated statistic.
    #[test]
    fn traced_runs_are_identical_to_the_harness_driver_for_every_contender() {
        for algorithm in Algorithm::WITH_EXTENSIONS {
            let fig = Figure {
                name: "test",
                algorithm,
                processors: 2,
                processes_per_processor: 1,
                pairs: 200,
            };
            let cfg = fig.config(0);
            let plain = untraced_round(&fig, cfg).expect("untraced round");
            let tracer = Tracer::new();
            let traced = traced_round(&fig, cfg, &tracer).expect("traced round");
            assert_eq!(traced.report, plain.report, "{algorithm}");
            let t = tracer.totals();
            assert!(t.calls > 0, "{algorithm}: calls were traced");
            assert_eq!(t.enq.count(), 200, "{algorithm}: every enqueue was timed");
            assert!(t.deq.count() >= 200, "{algorithm}: every dequeue was timed");
        }
    }
}
