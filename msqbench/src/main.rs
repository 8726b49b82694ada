//! msqbench: one command that measures the simulator and the heap queues
//! end to end and layer by layer. See `README.md` beside this package.
//!
//! ```text
//! msqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! msqbench --seed <n> [--seconds <s>] [--trace]     # all five workloads
//! ```
//!
//! One workload runs in this process: it sets up, runs rounds of identical
//! work for `--seconds`, checks every output, prints a table of each
//! metric's median, quartiles and round count, and ends with one JSON line
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Without `--workload`, every workload runs in a child
//! process of its own, so peak RSS is measured per workload.

mod native;
mod os;
mod sim;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use stats::Summary;

/// The workloads, in the order the all-workload mode runs them.
const WORKLOADS: [&str; 5] = [
    "sim-fig3-8p",
    "sim-fig5-64p",
    "sim-sweep-tiny",
    "native-paired",
    "native-burst",
];

/// Environment knobs of the program under test that would change what a
/// run measures; the benchmark refuses to run under any of them.
const ENV_KNOBS: [&str; 4] = [
    "MSQ_SIM_WORKERS",
    "MSQ_SWEEP_LANES",
    "MSQ_SWEEP_SEED",
    "MSQ_MEM_BUDGET",
];

/// A metric the final JSON line reports.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user sees; reported by every workload with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("work_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Single layers, from the traced run. Every workload reports every one;
/// a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("os.user_s", "s"),
    m("os.sys_s", "s"),
    m("os.vcsw_per_op", "count"),
    m("trace.overhead_share", "share"),
    m("run.setup_us.p50", "us"),
    m("run.exec_us.p50", "us"),
    m("run.check_us.p50", "us"),
    m("platform.calls", "count"),
    m("platform.stay_share", "share"),
    m("platform.call_ns.p50", "ns"),
    m("platform.call_ns.p99", "ns"),
    m("sim.handoffs_per_op", "count"),
    m("sim.stay_time_share", "share"),
    m("sim.handoff_time_share", "share"),
    m("sim.body_time_share", "share"),
    m("sim.startup_time_share", "share"),
    m("sim.teardown_time_share", "share"),
    m("model.virtual_ns_per_pair", "virtual_ns"),
    m("model.ops_per_pair", "count"),
    m("model.misses_per_op", "count"),
    m("model.cas_failures", "count"),
    m("model.preemptions", "count"),
    m("queue.enq_ns.p50", "ns"),
    m("queue.enq_ns.p99", "ns"),
    m("queue.deq_ns.p50", "ns"),
    m("queue.deq_ns.p99", "ns"),
    m("queue.sim_calls_per_enqueue", "count"),
    m("queue.sim_calls_per_dequeue", "count"),
    m("queue.deq_empty_share", "share"),
    m("queue.enq_full", "count"),
    m("word_ms.pairs_per_s", "1/s"),
    m("ms.pairs_per_s", "1/s"),
    m("seg.pairs_per_s", "1/s"),
    m("sharded.pairs_per_s", "1/s"),
    m("two_lock.pairs_per_s", "1/s"),
    m("seg.segs_allocated", "count"),
    m("seg.segs_pooled", "count"),
    m("seg.segs_retired", "count"),
    m("seg.pool_hit_share", "share"),
    m("budget.peak_segments", "count"),
    m("word_ms.pairs_per_s_2t", "1/s"),
    m("ms.pairs_per_s_2t", "1/s"),
    m("seg.pairs_per_s_2t", "1/s"),
    m("sharded.pairs_per_s_2t", "1/s"),
    m("two_lock.pairs_per_s_2t", "1/s"),
    m("word_ms.deq_empty_share_2t", "share"),
    m("ms.deq_empty_share_2t", "share"),
    m("seg.deq_empty_share_2t", "share"),
    m("sharded.deq_empty_share_2t", "share"),
    m("two_lock.deq_empty_share_2t", "share"),
];

/// How one workload run is driven.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Measurement budget: rounds start until it is spent.
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    /// Runs `round` until the budget is spent and at least `min` rounds
    /// ran.
    pub fn rounds(&self, min: usize, mut round: impl FnMut(usize)) {
        let start = Instant::now();
        let mut i = 0;
        while i < min || start.elapsed().as_secs_f64() < self.seconds {
            round(i);
            i += 1;
        }
    }
}

/// One series of per-round values.
struct Series {
    name: String,
    unit: &'static str,
    values: Vec<f64>,
}

/// The outcome of one workload run: every series it measured, the work it
/// attempted and how much of it failed a check.
#[derive(Default)]
pub struct Run {
    series: Vec<Series>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

/// Failure messages kept per run (the count covers the rest).
const MAX_FAILURE_MESSAGES: usize = 8;

/// Set-up repetitions: at least this many…
const SETUP_MIN_REPS: usize = 5;
/// …and more, up to this many, while the set-up budget lasts.
const SETUP_MAX_REPS: usize = 201;
const SETUP_BUDGET: Duration = Duration::from_millis(1_000);

impl Run {
    /// Appends one value to the series `name`.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "{name} measured a non-finite value");
        match self.series.iter_mut().find(|s| s.name == name) {
            Some(series) => series.values.push(value),
            None => self.series.push(Series {
                name,
                unit,
                values: vec![value],
            }),
        }
    }

    /// Records that `units` of attempted work failed a check.
    pub fn fail(&mut self, units: u64, why: impl Into<String>) {
        self.failed += units;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(why.into());
        }
    }

    /// A line for the human-readable report (digests, derived numbers).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Times `setup` several times, dropping what it builds outside the
    /// timing, into the `setup_s` series.
    pub fn time_setups<T>(&mut self, mut setup: impl FnMut() -> T) {
        let start = Instant::now();
        let mut reps = 0;
        while reps < SETUP_MIN_REPS || (reps < SETUP_MAX_REPS && start.elapsed() < SETUP_BUDGET) {
            let t = Instant::now();
            let built = setup();
            let secs = t.elapsed().as_secs_f64();
            drop(built);
            self.push("setup_s", "s", secs);
            reps += 1;
        }
    }

    fn summary(&self, name: &str) -> Option<Summary> {
        self.series
            .iter()
            .find(|s| s.name == name)
            .map(|s| Summary::of(&s.values))
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable report: one row per series, then notes and
    /// failures.
    fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<32} {:>16} {:>16} {:>16} {:>4}  unit",
            "metric", "median", "q1", "q3", "n"
        );
        for series in &self.series {
            let s = Summary::of(&series.values);
            let _ = writeln!(
                out,
                "{:<32} {:>16.6} {:>16.6} {:>16.6} {:>4}  {}",
                series.name, s.median, s.q1, s.q3, s.n, series.unit
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "attempted={} failed={} failed_share={share}",
            self.attempted, self.failed
        );
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        for why in &self.failures {
            let _ = writeln!(out, "FAILED: {why}");
        }
        out
    }

    /// The final JSON line: the medians of exactly the metrics in `defs`.
    /// A per-layer metric the workload did not measure reads 0.
    fn json(&self, defs: &[MetricDef], trace: bool) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|def| {
                let value = match self.summary(def.name) {
                    Some(s) => s.median,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {} was not measured", def.name),
                };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// splitmix64: the seed expander for every generated input.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a offset basis: the digest of nothing.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The text of a caught panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Measurement seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut args = args.into_iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                }
                out.workload = Some(name);
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(out.seconds >= 0.0 && out.seconds <= 3_600.0) {
                    return Err("--seconds must lie in [0, 3600]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1`, or a bare `--trace` switch.
                let explicit = match args.peek().map(String::as_str) {
                    Some("0") => Some(false),
                    Some("1") => Some(true),
                    _ => None,
                };
                out.trace = explicit.unwrap_or(true);
                if explicit.is_some() {
                    args.next();
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload in this process and prints its report.
fn run_workload(workload: &str, opts: Opts) -> ExitCode {
    println!(
        "msqbench workload={workload} seed={} seconds={} trace={} nproc={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        nproc()
    );
    let mut run = match workload {
        "sim-fig3-8p" => sim::figure(&sim::FIG3, opts),
        "sim-fig5-64p" => sim::figure(&sim::FIG5, opts),
        "sim-sweep-tiny" => sim::sweep(opts),
        "native-paired" => native::paired(opts),
        "native-burst" => native::burst(opts),
        other => unreachable!("workload {other} was validated at parse time"),
    };
    if !opts.trace {
        let peak = os::peak_rss_kib() as f64 / 1024.0;
        run.push("peak_rss_mb", "MiB", peak);
    }
    print!("{}", run.table());
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    println!("{}", run.json(defs, opts.trace));
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    let mut summary = String::new();
    for workload in WORKLOADS {
        let started = Instant::now();
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn a workload child process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let passed = output.status.success() && last.starts_with("{\"correct\": true");
        ok &= passed;
        let _ = writeln!(
            summary,
            "{workload:<16} {} in {:.1}s",
            if passed { "ok" } else { "FAILED" },
            started.elapsed().as_secs_f64()
        );
        println!();
    }
    print!("{summary}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if let Some(knob) = ENV_KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!("msqbench: {knob} is set; unset it, the benchmark measures the defaults");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("msqbench: {message}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(workload) => run_workload(
            workload,
            Opts {
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
            },
        ),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_single_workload_and_all_workload_forms() {
        let a = parse("--workload native-burst --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("native-burst"));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        let a = parse("--trace --seed 1").unwrap();
        assert_eq!((a.workload, a.seed, a.trace), (None, 1, true));
        assert!(!parse("--trace 0").unwrap().trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--seed").is_err());
    }

    #[test]
    fn json_reports_medians_of_exactly_the_listed_metrics() {
        let mut run = Run {
            attempted: 4,
            ..Run::default()
        };
        for v in [3.0, 1.0, 2.0] {
            run.push("work_per_s", "1/s", v);
        }
        run.push("setup_s", "s", 0.5);
        run.push("peak_rss_mb", "MiB", 7.25);
        run.push("extra", "s", 1.0);
        let json = run.json(END_TO_END, false);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"work_per_s\": {\"value\": 2.0, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 7.25, \"unit\": \"MiB\"}}}"
        );
        run.fail(1, "planted");
        assert!(run
            .json(END_TO_END, false)
            .starts_with("{\"correct\": false"));
        // Unmeasured layers read 0 in the traced report.
        assert!(run
            .json(PER_LAYER, true)
            .contains("\"sim.handoffs_per_op\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let spec = include_str!("../../BENCHMARK.json");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{workload}\"")));
        }
        let names = spec.matches("\"name\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }
}
