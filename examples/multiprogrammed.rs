//! Why non-blocking matters: blocking vs non-blocking queues under
//! multiprogramming (the story of Figures 4 and 5) on the simulator.
//!
//! Runs the paper's workload on a simulated 4-processor machine at 1, 2,
//! and 3 processes per processor and prints the slowdown each algorithm
//! suffers. Blocking algorithms degrade dramatically — a preempted lock
//! holder stalls everyone for up to a 10 ms quantum — while the
//! non-blocking queues degrade only in proportion to lost CPU time.
//!
//! ```text
//! cargo run --release --example multiprogrammed
//! ```

use ms_queues::harness::figure_machine;
use ms_queues::{
    run_scenario_simulated, Algorithm, FaultPlan, PairedScenario, SimConfig, WorkloadConfig,
};

fn main() {
    let workload = WorkloadConfig {
        pairs_total: 4_000,
        other_work_ns: 6_000,
        capacity: 2_048,
        mem_budget: None,
    };
    let processors = 4;
    println!("net time (s per 10^6 pairs) on a simulated {processors}-processor machine\n");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>18}",
        "algorithm", "dedicated", "2x multi", "3x multi", "slowdown (3x/1x)"
    );
    for algorithm in Algorithm::ALL {
        let mut nets = Vec::new();
        for processes_per_processor in 1..=3 {
            // The paper ran 10^6 pairs against a 10 ms quantum; the
            // figures' machine scales the quantum (and switch cost) with
            // the op count, so each process still experiences many
            // preemptions over its lifetime.
            let config = SimConfig {
                processors,
                processes_per_processor,
                ..figure_machine(workload.pairs_total, None)
            };
            let scenario = PairedScenario { workload };
            let out = run_scenario_simulated(algorithm, config, scenario, FaultPlan::new());
            nets.push(out.point.point.net_secs_per_million_pairs());
        }
        println!(
            "{:<16} {:>10.3} {:>10.3} {:>10.3} {:>17.1}x{}",
            algorithm.label(),
            nets[0],
            nets[1],
            nets[2],
            nets[2] / nets[0],
            if algorithm.is_nonblocking() {
                "   (non-blocking)"
            } else {
                "   (blocking)"
            }
        );
    }
}
