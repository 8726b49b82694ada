//! Tracing from outside the program: wrappers that time every call into
//! the platform layer ([`TracedPlatform`], [`TracedCell`]) and the queue
//! layer ([`TracedQueue`]) through their public traits, plus the spans and
//! totals those timings add up to.
//!
//! A thread records only while it is attached to a [`Tracer`]
//! ([`Tracer::attach`]); calls from unattached threads — queue
//! construction before a simulation, the drain after it — pass straight
//! through. Records go to a thread-local buffer and are folded into the
//! tracer when the thread detaches, so recording takes no lock.
//!
//! **Handoff detection.** Only one simulated process runs at a time: the
//! simulator passes an execution token between process threads. A call
//! during which no other process ran is a *stay*; every other call waited
//! for the token to come back, a *handoff*. A host-side counter of
//! completed calls tells the two apart: a stay sees it unchanged between
//! its own entry and exit. Natively every call is a stay.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ms_queues::{AtomicWord, BatchFull, ConcurrentWordQueue, Platform, QueueFull};

use crate::stats::{ratio, Latencies};
use crate::Run;

/// Per-process call spans kept for the trace file (the rest are counted,
/// not kept).
const CALL_SPANS_PER_PROCESS: usize = 64;
/// Upper bound on spans kept per tracer.
const MAX_SPANS: usize = 50_000;

/// Platform calls completed by any attached thread, ever.
static COMPLETED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Host-time samples and counts for one kind of queue operation.
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    /// Host ns per operation.
    pub ns: Vec<u64>,
    /// Platform calls made inside the operations.
    pub calls: u64,
    /// Operations that found the queue empty (dequeue) or full (enqueue).
    pub misses: u64,
}

impl OpStats {
    pub fn merge(&mut self, other: OpStats) {
        self.ns.extend(other.ns);
        self.calls += other.calls;
        self.misses += other.misses;
    }

    pub fn count(&self) -> u64 {
        self.ns.len() as u64
    }
}

/// One traced interval, in ns since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Everything a tracer has folded in.
#[derive(Debug, Default)]
pub struct Totals {
    /// Platform calls (shared-memory ops, delays, spins).
    pub calls: u64,
    /// Calls that waited for the token to come back.
    pub handoffs: u64,
    /// Host ns of each stay call.
    pub stay_ns: Vec<u64>,
    /// Host ns between consecutive calls of one thread.
    pub body_ns: u64,
    pub enq: OpStats,
    pub deq: OpStats,
    /// Host ns inside `Simulation::run`, summed over runs.
    pub run_wall_ns: u64,
    /// `run()` entry to the run's first call, summed over runs.
    pub startup_ns: u64,
    /// The run's last call to `run()` return, summed over runs.
    pub teardown_ns: u64,
    pub spans: Vec<Span>,
    run_first: Option<u64>,
    run_last: Option<u64>,
    run_span: Option<usize>,
}

impl Totals {
    pub fn stay_total_ns(&self) -> u64 {
        self.stay_ns.iter().sum()
    }

    fn push_span(&mut self, span: Span) -> Option<usize> {
        (self.spans.len() < MAX_SPANS).then(|| {
            self.spans.push(span);
            self.spans.len() - 1
        })
    }
}

/// The host time of the simulated runs, split by layer. The parts sum to
/// `run_wall_ns` by construction: the handoff cost is what the measured
/// parts leave over, divided by the handoff count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Decomposition {
    pub run_wall_ns: f64,
    pub stay_ns: f64,
    pub body_ns: f64,
    pub startup_ns: f64,
    pub teardown_ns: f64,
    pub handoffs: u64,
    /// Derived host ns per handoff (0 when there were none).
    pub handoff_ns: f64,
}

impl Decomposition {
    pub fn new(
        run_wall_ns: u64,
        stay_ns: u64,
        body_ns: u64,
        startup_ns: u64,
        teardown_ns: u64,
        handoffs: u64,
    ) -> Decomposition {
        let [run_wall_ns, stay_ns, body_ns, startup_ns, teardown_ns] =
            [run_wall_ns, stay_ns, body_ns, startup_ns, teardown_ns].map(|v| v as f64);
        let rest = run_wall_ns - stay_ns - body_ns - startup_ns - teardown_ns;
        Decomposition {
            run_wall_ns,
            stay_ns,
            body_ns,
            startup_ns,
            teardown_ns,
            handoffs,
            handoff_ns: if handoffs == 0 {
                0.0
            } else {
                rest / handoffs as f64
            },
        }
    }

    /// `part` as a share of the run wall time (0 for an empty run).
    pub fn share(&self, part: f64) -> f64 {
        if self.run_wall_ns > 0.0 {
            part / self.run_wall_ns
        } else {
            0.0
        }
    }

    pub fn handoff_total_ns(&self) -> f64 {
        self.handoff_ns * self.handoffs as f64
    }
}

/// Collects the records of every thread attached to it.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    totals: Mutex<Totals>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            totals: Mutex::new(Totals::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        ns_since(self.epoch, Instant::now())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Totals> {
        self.totals
            .lock()
            .expect("a tracer's totals are only updated by non-panicking folds")
    }

    /// Starts recording the calling thread's calls into this tracer until
    /// the returned guard drops. `tid` names the thread in spans.
    pub fn attach(self: &Arc<Self>, tid: u64) -> Attached {
        LOCAL.with(|l| {
            *l.borrow_mut() = Some(Local {
                tracer: Arc::clone(self),
                epoch: self.epoch,
                tid,
                calls: 0,
                handoffs: 0,
                stay_ns: Vec::new(),
                body_ns: 0,
                first_enter: None,
                last_exit: None,
                enq: OpStats::default(),
                deq: OpStats::default(),
                call_spans: Vec::new(),
            });
        });
        Attached(())
    }

    /// Runs `f` as a span named `name`, returning its result and its
    /// duration in host ns. The span's id is passed to `f` so nested spans
    /// can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> (R, u64) {
        let start_ns = self.now_ns();
        let id = self.lock().push_span(Span {
            name,
            tid: 0,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let out = f(id);
        let end_ns = self.now_ns();
        if let Some(id) = id {
            self.lock().spans[id].end_ns = end_ns;
        }
        (out, end_ns - start_ns)
    }

    /// Runs a simulation (`f` wraps `Simulation::run`) as a `sim.run`
    /// span, accounting its start-up and teardown: host time from entry to
    /// the first traced call of any process, and from the last one to the
    /// return.
    pub fn time_run<R>(&self, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let (out, wall) = self.span("sim.run", parent, |id| {
            {
                let mut t = self.lock();
                t.run_first = None;
                t.run_last = None;
                t.run_span = id;
            }
            let start = self.now_ns();
            let out = f();
            (out, start, self.now_ns())
        });
        let (out, start, end) = out;
        let mut t = self.lock();
        t.run_wall_ns += wall;
        match (t.run_first.take(), t.run_last.take()) {
            (Some(first), Some(last)) => {
                t.startup_ns += first.saturating_sub(start);
                t.teardown_ns += end.saturating_sub(last);
            }
            // No process made a call: the whole run is start-up.
            _ => t.startup_ns += end - start,
        }
        t.run_span = None;
        out
    }

    /// The folded totals. Call once every attached thread has detached.
    pub fn totals(&self) -> std::sync::MutexGuard<'_, Totals> {
        self.lock()
    }

    pub fn decomposition(&self) -> Decomposition {
        let t = self.lock();
        Decomposition::new(
            t.run_wall_ns,
            t.stay_total_ns(),
            t.body_ns,
            t.startup_ns,
            t.teardown_ns,
            t.handoffs,
        )
    }

    fn fold(&self, local: Local) {
        // Runs in a guard's `Drop`: never panic, so skip a poisoned lock.
        let Ok(mut t) = self.totals.lock() else {
            return;
        };
        t.calls += local.calls;
        t.handoffs += local.handoffs;
        t.stay_ns.extend(local.stay_ns);
        t.body_ns += local.body_ns;
        t.enq.merge(local.enq);
        t.deq.merge(local.deq);
        let (Some(first), Some(last)) = (local.first_enter, local.last_exit) else {
            return;
        };
        t.run_first = Some(t.run_first.map_or(first, |f| f.min(first)));
        t.run_last = Some(t.run_last.map_or(last, |l| l.max(last)));
        let parent = t.run_span;
        let Some(process) = t.push_span(Span {
            name: "process",
            tid: local.tid,
            start_ns: first,
            end_ns: last,
            parent,
        }) else {
            return;
        };
        for (start_ns, end_ns, stay) in local.call_spans {
            t.push_span(Span {
                name: if stay { "call.stay" } else { "call.handoff" },
                tid: local.tid,
                start_ns,
                end_ns,
                parent: Some(process),
            });
        }
    }

    /// Writes the spans as Chrome trace-event JSON, which Perfetto and
    /// `chrome://tracing` open offline.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let t = self.lock();
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (id, span) in t.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"msqbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                if id == 0 { "" } else { "," },
                span.name,
                span.tid,
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Detaches the thread from its tracer, folding its records in, on drop.
pub struct Attached(());

impl Drop for Attached {
    fn drop(&mut self) {
        if let Some(local) = LOCAL.with(|l| l.borrow_mut().take()) {
            Arc::clone(&local.tracer).fold(local);
        }
    }
}

struct Local {
    tracer: Arc<Tracer>,
    epoch: Instant,
    tid: u64,
    calls: u64,
    handoffs: u64,
    stay_ns: Vec<u64>,
    body_ns: u64,
    first_enter: Option<u64>,
    last_exit: Option<u64>,
    enq: OpStats,
    deq: OpStats,
    call_spans: Vec<(u64, u64, bool)>,
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

fn attached_epoch() -> Option<Instant> {
    LOCAL.with(|l| l.borrow().as_ref().map(|l| l.epoch))
}

/// Times one platform call `f` if the thread is attached.
fn platform_call<R>(f: impl FnOnce() -> R) -> R {
    let Some(epoch) = attached_epoch() else {
        return f();
    };
    let before = COMPLETED.load(Ordering::SeqCst);
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    let stay = COMPLETED.load(Ordering::SeqCst) == before;
    COMPLETED.fetch_add(1, Ordering::SeqCst);
    let (start, end) = (ns_since(epoch, t0), ns_since(epoch, t1));
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let Some(local) = l.as_mut() else { return };
        local.calls += 1;
        if let Some(prev) = local.last_exit {
            local.body_ns += start.saturating_sub(prev);
        }
        local.first_enter.get_or_insert(start);
        local.last_exit = Some(end);
        if stay {
            local.stay_ns.push(end - start);
        } else {
            local.handoffs += 1;
        }
        if local.call_spans.len() < CALL_SPANS_PER_PROCESS {
            local.call_spans.push((start, end, stay));
        }
    });
    out
}

/// Which side of a queue an operation is on.
#[derive(Clone, Copy, Debug)]
pub enum Side {
    Enqueue,
    Dequeue,
}

/// Times one queue operation `f` if the thread is attached, counting the
/// platform calls it made and whether `missed` (empty or full) holds.
pub fn queue_op<R>(side: Side, f: impl FnOnce() -> R, missed: impl FnOnce(&R) -> bool) -> R {
    let Some(epoch) = attached_epoch() else {
        return f();
    };
    let calls_before = LOCAL.with(|l| l.borrow().as_ref().map_or(0, |l| l.calls));
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    let miss = missed(&out);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let Some(local) = l.as_mut() else { return };
        let calls = local.calls - calls_before;
        let stats = match side {
            Side::Enqueue => &mut local.enq,
            Side::Dequeue => &mut local.deq,
        };
        stats.ns.push(ns_since(epoch, t1) - ns_since(epoch, t0));
        stats.calls += calls;
        stats.misses += u64::from(miss);
    });
    out
}

/// A [`Platform`] that forwards every method to `P`, timing each call that
/// can touch shared memory or the scheduler: every [`AtomicWord`] call on
/// its cells, `delay`, `cpu_relax` and the charged `dead_peers` read.
#[derive(Clone, Debug)]
pub struct TracedPlatform<P>(pub P);

/// The cell of a [`TracedPlatform`].
#[derive(Debug)]
pub struct TracedCell<C>(C);

impl<C: AtomicWord> AtomicWord for TracedCell<C> {
    fn load(&self) -> u64 {
        platform_call(|| self.0.load())
    }

    fn store(&self, value: u64) {
        platform_call(|| self.0.store(value))
    }

    fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64> {
        platform_call(|| self.0.compare_exchange(current, new))
    }

    fn swap(&self, value: u64) -> u64 {
        platform_call(|| self.0.swap(value))
    }

    fn fetch_add(&self, delta: u64) -> u64 {
        platform_call(|| self.0.fetch_add(delta))
    }

    fn fetch_sub(&self, delta: u64) -> u64 {
        platform_call(|| self.0.fetch_sub(delta))
    }

    fn test_and_set(&self) -> bool {
        platform_call(|| self.0.test_and_set())
    }

    fn cas(&self, current: u64, new: u64) -> bool {
        platform_call(|| self.0.cas(current, new))
    }
}

impl<P: Platform> Platform for TracedPlatform<P> {
    type Cell = TracedCell<P::Cell>;

    fn alloc_cell(&self, init: u64) -> Self::Cell {
        TracedCell(self.0.alloc_cell(init))
    }

    fn delay(&self, nanos: u64) {
        platform_call(|| self.0.delay(nanos))
    }

    fn cpu_relax(&self) {
        platform_call(|| self.0.cpu_relax())
    }

    fn jitter_seed(&self) -> u64 {
        self.0.jitter_seed()
    }

    fn affinity_hint(&self) -> usize {
        self.0.affinity_hint()
    }

    fn fault_point(&self, label: &'static str) {
        self.0.fault_point(label)
    }

    fn dead_peers(&self) -> u64 {
        platform_call(|| self.0.dead_peers())
    }

    fn mark_repaired(&self, victim: usize, point: &'static str) {
        self.0.mark_repaired(victim, point)
    }

    fn mark_recovered(&self, victim: usize) {
        self.0.mark_recovered(victim)
    }

    fn now_ns(&self) -> u64 {
        self.0.now_ns()
    }

    fn record_latency(&self, arrival_ns: u64) {
        self.0.record_latency(arrival_ns)
    }
}

/// A [`ConcurrentWordQueue`] that forwards every method, timing single
/// enqueues and dequeues.
pub struct TracedQueue(pub Arc<dyn ConcurrentWordQueue>);

impl ConcurrentWordQueue for TracedQueue {
    fn enqueue(&self, value: u64) -> Result<(), QueueFull> {
        queue_op(Side::Enqueue, || self.0.enqueue(value), Result::is_err)
    }

    fn dequeue(&self) -> Option<u64> {
        queue_op(Side::Dequeue, || self.0.dequeue(), Option::is_none)
    }

    fn enqueue_batch(&self, values: &[u64]) -> Result<(), BatchFull> {
        self.0.enqueue_batch(values)
    }

    fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        self.0.dequeue_batch(out, max)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn is_nonblocking(&self) -> bool {
        self.0.is_nonblocking()
    }
}

// Reporting: the traced layers' metrics, shared by every workload.

/// The run lifecycle: median host time of each run's set-up, execution
/// and check, in µs. Empty phases (every run failed) push nothing.
pub fn push_run_layer(run: &mut Run, setup_ns: Vec<u64>, exec_ns: Vec<u64>, check_ns: Vec<u64>) {
    for (name, ns) in [
        ("run.setup_us.p50", setup_ns),
        ("run.exec_us.p50", exec_ns),
        ("run.check_us.p50", check_ns),
    ] {
        let ns = Latencies::new(ns);
        if ns.len() > 0 {
            run.push(name, "us", ns.pct(50.0) / 1e3);
        }
    }
}

/// The platform layer: call count, stay share and stay-call latency.
/// Takes the stay samples out of `t`; returns them for the report.
pub fn push_platform_layer(run: &mut Run, t: &mut Totals) -> Latencies {
    run.push("platform.calls", "count", t.calls as f64);
    run.push(
        "platform.stay_share",
        "share",
        ratio(t.stay_ns.len() as u64, t.calls),
    );
    let stays = Latencies::new(std::mem::take(&mut t.stay_ns));
    run.push("platform.call_ns.p50", "ns", stays.pct(50.0));
    run.push("platform.call_ns.p99", "ns", stays.pct(99.0));
    stays
}

/// The queue layer's host latencies and misses; returns the latency sets
/// for the report.
pub fn push_queue_layer(run: &mut Run, enq: OpStats, deq: OpStats) -> (Latencies, Latencies) {
    run.push(
        "queue.deq_empty_share",
        "share",
        ratio(deq.misses, deq.count()),
    );
    run.push("queue.enq_full", "count", enq.misses as f64);
    let enq = Latencies::new(enq.ns);
    let deq = Latencies::new(deq.ns);
    run.push("queue.enq_ns.p50", "ns", enq.pct(50.0));
    run.push("queue.enq_ns.p99", "ns", enq.pct(99.0));
    run.push("queue.deq_ns.p50", "ns", deq.pct(50.0));
    run.push("queue.deq_ns.p99", "ns", deq.pct(99.0));
    (enq, deq)
}

/// Writes the tracer's spans to `target/msqbench/<workload>.trace.json`.
pub fn write_trace(run: &mut Run, tracer: &Tracer, workload: &str) {
    let path = format!("target/msqbench/{workload}.trace.json");
    match tracer.write_chrome_trace(Path::new(&path)) {
        Ok(()) => run.note(format!("spans written to {path}")),
        Err(e) => run.note(format!("spans not written to {path}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handoff_cost_is_what_the_measured_parts_leave_over() {
        // 10 ms of run: 3 ms in stays, 2 ms of body, 0.5 + 0.5 ms of
        // start-up and teardown leave 4 ms for 1,000 handoffs.
        let d = Decomposition::new(10_000_000, 3_000_000, 2_000_000, 500_000, 500_000, 1_000);
        assert_eq!(d.handoff_ns, 4_000.0);
        let sum = d.stay_ns + d.body_ns + d.startup_ns + d.teardown_ns + d.handoff_total_ns();
        assert_eq!(sum, d.run_wall_ns);
        assert_eq!(d.share(d.handoff_total_ns()), 0.4);
        // No handoffs (a native run): no derived cost, no division by 0.
        let native = Decomposition::new(1_000, 900, 100, 0, 0, 0);
        assert_eq!(native.handoff_ns, 0.0);
        assert_eq!(Decomposition::new(0, 0, 0, 0, 0, 0).share(5.0), 0.0);
    }

    #[test]
    fn unattached_threads_record_nothing() {
        let tracer = Tracer::new();
        let platform = TracedPlatform(ms_queues::NativePlatform::new());
        let cell = platform.alloc_cell(1);
        cell.fetch_add(1);
        {
            let _attached = tracer.attach(1);
            cell.fetch_add(1);
            cell.load();
            platform.cpu_relax();
        }
        cell.store(0);
        let t = tracer.totals();
        assert_eq!(t.calls, 3);
        // Tests on other threads share the completed-call counter, so
        // only the total is exact here.
        assert_eq!(t.stay_ns.len() as u64 + t.handoffs, 3);
    }
}
