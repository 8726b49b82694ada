//! [`Simulation`]: construction, the run loop over process fibers,
//! teardown.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::config::SimConfig;
use crate::core::{ProcessKilled, SimShared};
use crate::fault::FaultPlan;
use crate::fiber::Fiber;
use crate::platform::SimPlatform;
use crate::report::SimReport;

/// Identity of a simulated process, passed to the process body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcessInfo {
    /// Process id, `0..num_processes`.
    pub pid: usize,
    /// The simulated processor this process is bound to.
    pub processor: usize,
    /// Total number of processes in the simulation.
    pub num_processes: usize,
}

/// A deterministic multiprocessor simulation.
///
/// Lifecycle: create with [`Simulation::new`], allocate shared state through
/// [`Simulation::platform`] (untimed setup), then call [`Simulation::run`]
/// once with the per-process body. The platform handle (and any cells)
/// remain usable afterwards for untimed inspection.
pub struct Simulation {
    shared: Arc<SimShared>,
    cfg: SimConfig,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Simulation({} processors x {} processes)",
            self.cfg.processors, self.cfg.processes_per_processor
        )
    }
}

impl Simulation {
    /// Creates a simulation of the machine described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`SimConfig::validate`]).
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_faults(cfg, FaultPlan::new())
    }

    /// Creates a simulation that injects the faults scheduled in `plan`
    /// (see [`FaultPlan`]). An empty plan is exactly [`Simulation::new`]:
    /// the schedule is not perturbed in any way.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or if `plan` targets a pid outside
    /// `0..cfg.num_processes()`.
    pub fn with_faults(cfg: SimConfig, plan: FaultPlan) -> Self {
        cfg.validate();
        Simulation {
            shared: Arc::new(SimShared::with_plan(cfg, plan)),
            cfg,
        }
    }

    /// The platform handle used to allocate shared cells and to construct
    /// the data structures under test.
    pub fn platform(&self) -> SimPlatform {
        SimPlatform::new(Arc::clone(&self.shared))
    }

    /// The simulation's configuration.
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// Total number of simulated processes.
    pub fn num_processes(&self) -> usize {
        self.cfg.num_processes()
    }

    /// Runs `body` once per simulated process and returns the run's
    /// statistics.
    ///
    /// Each process runs as a fiber (a stack of its own) on the calling
    /// thread, which owns the simulation until the run returns. A process
    /// that must wait for the execution token switches straight to the
    /// process holding it. So exactly one process runs at a time, and the
    /// interleaving of `Platform`/`AtomicWord` operations, and of the host
    /// code between them, depends only on the configuration and the
    /// operations the bodies perform, never on host scheduling.
    ///
    /// # Panics
    ///
    /// Panics if a process panics (the lowest pid's panic is propagated,
    /// after every other process has finished). A call that reaches this
    /// simulation from another thread during the run panics there, with
    /// a message naming the single-owner rule.
    pub fn run<F>(self, body: F) -> SimReport
    where
        F: Fn(ProcessInfo) + Send + Sync + 'static,
    {
        let n = self.cfg.num_processes();
        let shared = &*self.shared;
        let body = &body;
        let mut fibers: Vec<Fiber<'_>> = (0..n)
            .map(|pid| {
                let info = ProcessInfo {
                    pid,
                    processor: pid % self.cfg.processors,
                    num_processes: n,
                };
                Fiber::new(Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| body(info)));
                    if outcome.as_ref().is_err_and(|p| p.is::<ProcessKilled>()) {
                        // A fault-layer kill: the scheduler already retired
                        // this process; swallow the unwind.
                        return;
                    }
                    shared.finish(pid);
                    if let Err(panic) = outcome {
                        resume_unwind(panic);
                    }
                }))
            })
            .collect();
        let report = shared.drive(&mut fibers);
        // Every process retires only on its own stack, and a retired
        // process runs to the end of its fiber without switching.
        assert!(
            fibers.iter().all(Fiber::finished),
            "a process fiber outlived its retirement"
        );
        if let Some(panic) = fibers.iter_mut().find_map(Fiber::take_panic) {
            resume_unwind(panic);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::{AtomicWord, Platform};
    use std::panic::AssertUnwindSafe;

    #[test]
    fn single_process_accumulates_costs() {
        let sim = Simulation::new(SimConfig::default());
        let cfg = sim.config();
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                cell.store(1); // miss
                cell.store(2); // hit
            }
        });
        assert_eq!(cell.load(), 2);
        assert_eq!(report.total_ops, 2);
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(
            report.elapsed_ns,
            2 * cfg.t_local_ns + cfg.t_miss_ns + cfg.t_hit_ns
        );
    }

    #[test]
    fn fetch_add_from_many_processes_is_atomic() {
        for processors in [1, 2, 7] {
            for ppp in [1, 3] {
                let sim = Simulation::new(SimConfig {
                    processors,
                    processes_per_processor: ppp,
                    quantum_ns: 5_000,
                    ..SimConfig::default()
                });
                let n = sim.num_processes() as u64;
                let cell = Arc::new(sim.platform().alloc_cell(0));
                let report = sim.run({
                    let cell = Arc::clone(&cell);
                    move |_| {
                        for _ in 0..200 {
                            cell.fetch_add(1);
                        }
                    }
                });
                assert_eq!(cell.load(), 200 * n);
                assert_eq!(report.total_ops, 200 * n);
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let run_once = || {
            let sim = Simulation::new(SimConfig {
                processors: 3,
                processes_per_processor: 2,
                quantum_ns: 3_000,
                ..SimConfig::default()
            });
            let cell = Arc::new(sim.platform().alloc_cell(0));
            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            let report = sim.run({
                let cell = Arc::clone(&cell);
                let log = Arc::clone(&log);
                move |info| {
                    for _ in 0..50 {
                        let seen = cell.fetch_add(1);
                        log.lock().unwrap().push((info.pid, seen));
                    }
                }
            });
            let log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
            (report, log)
        };
        let (r1, l1) = run_once();
        let (r2, l2) = run_once();
        assert_eq!(r1, r2);
        assert_eq!(l1, l2, "operation interleaving must be reproducible");
    }

    #[test]
    fn parallel_processes_overlap_in_virtual_time() {
        // Two processors each doing independent work should take barely
        // longer than one (true parallelism in virtual time).
        let elapsed = |processors| {
            let sim = Simulation::new(SimConfig {
                processors,
                ..SimConfig::default()
            });
            let cells: Vec<_> = (0..processors)
                .map(|_| Arc::new(sim.platform().alloc_cell(0)))
                .collect();
            sim.run(move |info| {
                let cell = &cells[info.processor];
                for _ in 0..1000 {
                    cell.fetch_add(1);
                }
            })
            .elapsed_ns
        };
        let one = elapsed(1);
        let four = elapsed(4);
        assert!(
            four <= one + one / 10,
            "independent work should scale: 1p={one}ns 4p={four}ns"
        );
    }

    #[test]
    fn multiprogramming_serializes_processes_on_one_processor() {
        // Two processes on ONE processor take about twice as long as one
        // process doing the same per-process work.
        let elapsed = |ppp| {
            let sim = Simulation::new(SimConfig {
                processors: 1,
                processes_per_processor: ppp,
                quantum_ns: 10_000,
                ..SimConfig::default()
            });
            let p = sim.platform();
            let cell = Arc::new(p.alloc_cell(0));
            sim.run(move |_| {
                let _ = &cell;
                for _ in 0..500 {
                    cell.fetch_add(1);
                }
            })
            .elapsed_ns
        };
        let one = elapsed(1);
        let two = elapsed(2);
        assert!(
            two >= 2 * one,
            "multiprogrammed work must serialize: 1x={one}ns 2x={two}ns"
        );
    }

    #[test]
    fn preemptions_occur_only_when_multiprogrammed() {
        let run = |ppp| {
            let sim = Simulation::new(SimConfig {
                processors: 2,
                processes_per_processor: ppp,
                quantum_ns: 2_000,
                ..SimConfig::default()
            });
            let p = sim.platform();
            let cell = Arc::new(p.alloc_cell(0));
            sim.run(move |_| {
                let _ = &cell;
                for _ in 0..200 {
                    cell.fetch_add(1);
                }
            })
        };
        assert_eq!(run(1).preemptions, 0);
        assert!(run(2).preemptions > 0);
    }

    #[test]
    fn delay_advances_clock_without_memory_ops() {
        let sim = Simulation::new(SimConfig::default());
        let platform = sim.platform();
        let report = sim.run(move |_| {
            platform.delay(123_456);
        });
        assert_eq!(report.total_ops, 0);
        assert_eq!(report.elapsed_ns, 123_456);
    }

    #[test]
    fn empty_bodies_finish_immediately() {
        let sim = Simulation::new(SimConfig {
            processors: 4,
            processes_per_processor: 2,
            ..SimConfig::default()
        });
        let report = sim.run(|_| {});
        assert_eq!(report.total_ops, 0);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let sim = Simulation::new(SimConfig {
            processors: 2,
            ..SimConfig::default()
        });
        let platform = sim.platform();
        let cell = Arc::new(platform.alloc_cell(0));
        sim.run(move |info| {
            // Both processes do some work; pid 1 then panics. The
            // simulation must still drain and re-raise.
            cell.fetch_add(1);
            if info.pid == 1 {
                panic!("boom");
            }
            cell.fetch_add(1);
        });
    }

    /// Does charged stores on drop: on a panic's unwind path they must take
    /// the direct path, because an unwinding fiber may not switch.
    struct StoreOnDrop(Arc<crate::SimCell>, u64);

    impl Drop for StoreOnDrop {
        fn drop(&mut self) {
            self.0.store(self.1);
            self.0.store(self.1 + 1);
        }
    }

    /// Captures a backtrace on drop if it runs during an unwind, the way
    /// the panic hook captures one under `RUST_BACKTRACE=1`.
    struct CaptureOnUnwind(Arc<std::sync::Mutex<Vec<String>>>);

    impl Drop for CaptureOnUnwind {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let trace = std::backtrace::Backtrace::force_capture().to_string();
                self.0.lock().unwrap().push(trace);
            }
        }
    }

    #[test]
    fn a_panic_unwinding_through_charged_stores_is_reraised() {
        let sim = Simulation::new(SimConfig {
            processors: 2,
            ..SimConfig::default()
        });
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let traces = Arc::new(std::sync::Mutex::new(Vec::new()));
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let cell = Arc::clone(&cell);
            let traces = Arc::clone(&traces);
            sim.run(move |info| {
                let _guard = StoreOnDrop(Arc::clone(&cell), 10 * info.pid as u64);
                let _capture = CaptureOnUnwind(Arc::clone(&traces));
                cell.fetch_add(1);
                if info.pid == 1 {
                    panic!("boom under a guard");
                }
                cell.fetch_add(1);
            })
        }));
        let payload = outcome.expect_err("the process panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom under a guard"),
            "the original message, not a double-panic abort or a lock error"
        );
        // Both guards' stores landed: pid 1's directly inside its unwind,
        // pid 0's charged at the end of its body.
        assert!([1, 11].contains(&cell.load()), "got {}", cell.load());
        // Only pid 1 unwound, and its backtrace walked down to the fiber.
        let traces = traces.lock().unwrap();
        assert_eq!(traces.len(), 1);
        assert!(traces[0].contains("fiber_main"), "{}", traces[0]);
    }

    #[test]
    fn a_killed_process_drop_lands_before_any_survivor_runs() {
        // Both processes share one processor, so pid 1 first runs when the
        // kill retires pid 0: its very first load follows the unwind.
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 1,
                processes_per_processor: 2,
                ..SimConfig::default()
            },
            crate::FaultPlan::new().kill_at_op(0, 1),
        );
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let first_seen = Arc::new(std::sync::Mutex::new(None));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            let first_seen = Arc::clone(&first_seen);
            move |info| {
                if info.pid == 0 {
                    let _guard = StoreOnDrop(Arc::clone(&cell), 41);
                    cell.fetch_add(1);
                    cell.fetch_add(1); // killed here
                } else {
                    *first_seen.lock().unwrap() = Some(cell.load());
                }
            }
        });
        assert_eq!(report.killed, vec![0]);
        assert_eq!(*first_seen.lock().unwrap(), Some(42));
    }

    #[test]
    fn backtraces_inside_a_process_end_at_the_fiber_root() {
        let sim = Simulation::new(SimConfig {
            processors: 2,
            ..SimConfig::default()
        });
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let traces = Arc::new(std::sync::Mutex::new(Vec::new()));
        sim.run({
            let traces = Arc::clone(&traces);
            move |_| {
                cell.fetch_add(1);
                let trace = std::backtrace::Backtrace::force_capture().to_string();
                traces.lock().unwrap().push(trace);
                cell.fetch_add(1);
            }
        });
        let traces = traces.lock().unwrap();
        assert_eq!(traces.len(), 2);
        for trace in traces.iter() {
            assert!(trace.contains("fiber_main"), "{trace}");
        }
    }

    #[test]
    fn the_largest_machine_runs_to_completion() {
        let sim = Simulation::new(SimConfig {
            processors: 256,
            ..SimConfig::default()
        });
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                for _ in 0..4 {
                    cell.fetch_add(1);
                }
            }
        });
        assert_eq!(cell.load(), 4 * 256);
        assert_eq!(report.per_process.len(), 256);
    }

    #[test]
    fn a_deep_recursion_fits_a_process_stack() {
        // ~512 KiB of frames, with a switch at the bottom of each stack.
        fn recurse(depth: usize, cell: &crate::SimCell) -> u64 {
            let pad = std::hint::black_box([depth as u8; 1024]);
            let below = if depth == 0 {
                cell.fetch_add(1)
            } else {
                recurse(depth - 1, cell)
            };
            below + u64::from(pad[depth % 1024])
        }
        let sim = Simulation::new(SimConfig {
            processors: 2,
            ..SimConfig::default()
        });
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                std::hint::black_box(recurse(512, &cell));
            }
        });
        assert_eq!(cell.load(), 2);
        assert_eq!(report.total_ops, 2);
    }

    /// Each process's jitter-seed sequence, drawn after every op, with its
    /// pid checked after every op as well.
    fn seed_sequences(
        processors: usize,
        processes_per_processor: usize,
        seed: u64,
    ) -> Vec<Vec<u64>> {
        let sim = Simulation::new(SimConfig {
            processors,
            processes_per_processor,
            quantum_ns: 2_000,
            seed,
            ..SimConfig::default()
        });
        let platform = sim.platform();
        let cell = Arc::new(platform.alloc_cell(0));
        let sequences = Arc::new(std::sync::Mutex::new(vec![Vec::new(); sim.num_processes()]));
        sim.run({
            let sequences = Arc::clone(&sequences);
            move |info| {
                for _ in 0..20 {
                    cell.fetch_add(1);
                    assert_eq!(platform.affinity_hint(), info.pid);
                    let seed = platform.jitter_seed();
                    sequences.lock().unwrap()[info.pid].push(seed);
                }
            }
        });
        Arc::try_unwrap(sequences).unwrap().into_inner().unwrap()
    }

    #[test]
    fn bindings_follow_every_switch() {
        // A process's pid and jitter seeds depend on nothing but its own
        // program order, however the processes interleave: one processor
        // rotating four processes by quantum, four processors alternating
        // op by op, and three seeds of each.
        let reference = seed_sequences(1, 4, 0);
        for seed in 0..3 {
            assert_eq!(seed_sequences(1, 4, seed), reference, "1x4, seed {seed}");
            assert_eq!(seed_sequences(4, 1, seed), reference, "4x1, seed {seed}");
        }
    }

    #[test]
    fn a_process_touching_an_idle_simulation_takes_the_setup_path() {
        let cfg = SimConfig {
            processors: 2,
            ..SimConfig::default()
        };
        let other = Simulation::new(cfg);
        let foreign = Arc::new(other.platform().alloc_cell(0));
        let sim = Simulation::new(cfg);
        let own = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let (own, foreign) = (Arc::clone(&own), Arc::clone(&foreign));
            move |info| {
                own.fetch_add(1);
                if info.pid == 1 {
                    foreign.store(42);
                }
                own.fetch_add(1);
            }
        });
        assert_eq!(foreign.load(), 42);
        assert_eq!(own.load(), 4);
        assert_eq!(report.total_ops, 4, "only the run's own cells are charged");
        assert_eq!(other.run(|_| {}).elapsed_ns, 0, "the store was untimed");
    }

    #[test]
    fn a_foreign_thread_touching_a_running_simulation_panics() {
        let run = |spawn: bool| {
            let sim = Simulation::new(SimConfig {
                processors: 2,
                ..SimConfig::default()
            });
            let cell = Arc::new(sim.platform().alloc_cell(0));
            let report = sim.run({
                let cell = Arc::clone(&cell);
                move |info| {
                    cell.fetch_add(1);
                    if spawn && info.pid == 1 {
                        let joined = std::thread::scope(|s| s.spawn(|| cell.load()).join());
                        let payload = joined.expect_err("a load from another thread must panic");
                        let message = payload.downcast_ref::<&str>().expect("a literal message");
                        assert!(message.contains("single-owner rule"), "{message}");
                    }
                    cell.fetch_add(1);
                }
            });
            (report, cell.load())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_unfaulted() {
        let run = |faulted: bool| {
            let cfg = SimConfig {
                processors: 3,
                processes_per_processor: 2,
                quantum_ns: 3_000,
                ..SimConfig::default()
            };
            let sim = if faulted {
                Simulation::with_faults(cfg, crate::FaultPlan::new())
            } else {
                Simulation::new(cfg)
            };
            let cell = Arc::new(sim.platform().alloc_cell(0));
            sim.run(move |_| {
                for _ in 0..100 {
                    cell.fetch_add(1);
                }
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn kill_fault_retires_victim_while_others_complete() {
        let plan = crate::FaultPlan::new().kill_at_op(1, 5);
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 2,
                ..SimConfig::default()
            },
            plan,
        );
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                for _ in 0..100 {
                    cell.fetch_add(1);
                }
            }
        });
        assert_eq!(report.killed, vec![1]);
        assert!(report.blocked.is_empty());
        // Victim got exactly 5 increments in before dying mid-operation.
        assert_eq!(cell.load(), 105);
        assert_eq!(report.per_process[1].ops, 5);
        assert_eq!(report.per_process[0].ops, 100);
        assert!(report.per_process[0].finished_at_ns > 0);
    }

    #[test]
    fn kill_at_label_fires_on_the_chosen_occurrence() {
        let plan = crate::FaultPlan::new().kill_at_label(0, "test:window", 3);
        let sim = Simulation::with_faults(SimConfig::default(), plan);
        let platform = sim.platform();
        let cell = Arc::new(platform.alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                for _ in 0..10 {
                    cell.fetch_add(1);
                    platform.fault_point("test:window");
                }
            }
        });
        assert_eq!(report.killed, vec![0]);
        // Occurrence 3 is the fourth hit: four increments landed.
        assert_eq!(cell.load(), 4);
    }

    #[test]
    fn stall_fault_idles_the_victim_for_its_duration() {
        const STALL_NS: u64 = 5_000_000;
        let base = SimConfig::default();
        let unfaulted = {
            let sim = Simulation::new(base);
            let cell = Arc::new(sim.platform().alloc_cell(0));
            sim.run(move |_| {
                for _ in 0..50 {
                    cell.fetch_add(1);
                }
            })
        };
        let faulted = {
            let sim =
                Simulation::with_faults(base, crate::FaultPlan::new().stall_at_op(0, 10, STALL_NS));
            let cell = Arc::new(sim.platform().alloc_cell(0));
            sim.run(move |_| {
                for _ in 0..50 {
                    cell.fetch_add(1);
                }
            })
        };
        assert_eq!(faulted.stalls_injected, 1);
        assert_eq!(
            faulted.elapsed_ns,
            unfaulted.elapsed_ns + STALL_NS,
            "a lone stalled process idles its processor for exactly the stall"
        );
        assert_eq!(faulted.total_ops, unfaulted.total_ops, "work unchanged");
    }

    #[test]
    fn stalled_process_cedes_its_processor_to_queue_mates() {
        // Two processes multiprogrammed on one processor; pid 0 stalls for
        // a long time early on. Pid 1 must finish long before pid 0's
        // stall would allow if the stall blocked the whole processor.
        const STALL_NS: u64 = 50_000_000;
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 1,
                processes_per_processor: 2,
                quantum_ns: 10_000,
                ..SimConfig::default()
            },
            crate::FaultPlan::new().stall_at_op(0, 1, STALL_NS),
        );
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                for _ in 0..100 {
                    cell.fetch_add(1);
                }
            }
        });
        assert_eq!(cell.load(), 200, "both processes finish all their work");
        assert!(
            report.per_process[1].finished_at_ns < STALL_NS,
            "pid 1 finished at {}ns, inside pid 0's {}ns stall",
            report.per_process[1].finished_at_ns,
            STALL_NS
        );
        assert!(report.per_process[0].finished_at_ns >= STALL_NS);
    }

    #[test]
    fn preempt_fault_rotates_and_charges_a_context_switch() {
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 1,
                processes_per_processor: 2,
                ..SimConfig::default()
            },
            crate::FaultPlan::new().preempt_storm(0, "test:crit", 3),
        );
        let platform = sim.platform();
        let cell = Arc::new(platform.alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                for _ in 0..5 {
                    cell.fetch_add(1);
                    platform.fault_point("test:crit");
                }
            }
        });
        assert_eq!(report.preempts_injected, 3);
        assert!(report.preemptions >= 3);
        assert_eq!(cell.load(), 10);
    }

    #[test]
    fn watchdog_reports_a_spinning_survivor_as_blocked() {
        // Pid 0 "holds a lock" forever by dying; pid 1 spins on the flag.
        // The watchdog must convert pid 1's infinite spin into a recorded
        // `blocked` verdict and terminate the run.
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 2,
                watchdog_ns: 3_000_000,
                ..SimConfig::default()
            },
            crate::FaultPlan::new().kill_at_op(0, 0),
        );
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |info| {
                if info.pid == 0 {
                    cell.store(1); // killed before this ever lands
                    cell.store(0);
                } else {
                    while cell.load() == 0 {
                        // spin: each probe charges virtual time
                    }
                }
            }
        });
        assert_eq!(report.killed, vec![0]);
        assert_eq!(report.blocked, vec![1]);
        assert!(!report.survivors_completed());
        assert_eq!(cell.load(), 0, "the killed store never executed");
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let run = || {
            let sim = Simulation::with_faults(
                SimConfig {
                    processors: 2,
                    processes_per_processor: 2,
                    quantum_ns: 3_000,
                    seed: 42,
                    ..SimConfig::default()
                },
                crate::FaultPlan::new()
                    .kill_at_op(3, 17)
                    .stall_at_op(1, 9, 100_000)
                    .preempt_at_label(2, "test:w", 1),
            );
            let platform = sim.platform();
            let cell = Arc::new(platform.alloc_cell(0));
            let report = sim.run({
                let cell = Arc::clone(&cell);
                move |_| {
                    for _ in 0..40 {
                        cell.fetch_add(1);
                        platform.fault_point("test:w");
                    }
                }
            });
            (report, cell.load())
        };
        let (r1, v1) = run();
        let (r2, v2) = run();
        assert_eq!(r1, r2, "same plan, same schedule, same history");
        assert_eq!(v1, v2);
        assert_eq!(r1.killed, vec![3]);
        assert_eq!(r1.stalls_injected, 1);
        assert_eq!(r1.preempts_injected, 1);
    }

    #[test]
    #[should_panic(expected = "targets pid 9")]
    fn fault_plan_pid_out_of_range_is_rejected() {
        let _ = Simulation::with_faults(
            SimConfig::default(),
            crate::FaultPlan::new().kill_at_op(9, 0),
        );
    }

    #[test]
    fn trace_records_operations_in_time_order() {
        use crate::report::TraceKind;
        let sim = Simulation::new(SimConfig {
            processors: 2,
            trace_capacity: 64,
            ..SimConfig::default()
        });
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |info| {
                if info.pid == 0 {
                    cell.store(1);
                    cell.fetch_add(2);
                } else {
                    let _ = cell.load();
                    let _ = cell.compare_exchange(1_000, 0); // will fail
                }
            }
        });
        assert_eq!(report.trace.len(), 4);
        // Virtual-time order is non-decreasing.
        for pair in report.trace.windows(2) {
            assert!(pair[0].at_ns <= pair[1].at_ns);
        }
        // Kinds and outcomes are recorded.
        assert!(report
            .trace
            .iter()
            .any(|e| e.kind == TraceKind::CompareExchange { success: false }));
        assert!(report.trace.iter().any(|e| e.kind == TraceKind::FetchAdd));
        assert!(report.trace.iter().all(|e| e.cell == 0));
    }

    #[test]
    fn trace_capacity_caps_recording() {
        let sim = Simulation::new(SimConfig {
            trace_capacity: 5,
            ..SimConfig::default()
        });
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                for _ in 0..50 {
                    cell.fetch_add(1);
                }
            }
        });
        assert_eq!(report.trace.len(), 5, "capped at capacity");
        assert_eq!(report.total_ops, 50, "execution itself unaffected");
    }

    #[test]
    fn tracing_disabled_by_default() {
        let sim = Simulation::new(SimConfig::default());
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                cell.store(1);
            }
        });
        assert!(report.trace.is_empty());
    }

    #[test]
    fn per_process_stats_sum_to_totals() {
        let sim = Simulation::new(SimConfig {
            processors: 3,
            processes_per_processor: 2,
            ..SimConfig::default()
        });
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |info| {
                for _ in 0..(info.pid as u64 + 1) * 10 {
                    cell.fetch_add(1);
                }
            }
        });
        assert_eq!(report.per_process.len(), 6);
        for (pid, p) in report.per_process.iter().enumerate() {
            assert_eq!(p.pid, pid);
            assert_eq!(p.processor, pid % 3);
            assert_eq!(p.ops, (pid as u64 + 1) * 10, "per-process op counts");
            assert_eq!(p.cache_hits + p.cache_misses, p.ops);
        }
        assert_eq!(
            report.per_process.iter().map(|p| p.ops).sum::<u64>(),
            report.total_ops
        );
        assert_eq!(
            report
                .per_process
                .iter()
                .map(|p| p.cache_misses)
                .sum::<u64>(),
            report.cache_misses
        );
    }

    #[test]
    fn process_info_is_consistent() {
        let sim = Simulation::new(SimConfig {
            processors: 3,
            processes_per_processor: 2,
            ..SimConfig::default()
        });
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        sim.run({
            let seen = Arc::clone(&seen);
            move |info| {
                seen.lock().unwrap().push(info);
            }
        });
        let mut infos = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
        infos.sort_by_key(|i| i.pid);
        assert_eq!(infos.len(), 6);
        for (pid, info) in infos.iter().enumerate() {
            assert_eq!(info.pid, pid);
            assert_eq!(info.processor, pid % 3);
            assert_eq!(info.num_processes, 6);
        }
    }
}
