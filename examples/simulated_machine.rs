//! Drive all six queue algorithms on the simulated multiprocessor and
//! print a miniature Figure 3 (dedicated machine, small op count).
//!
//! For the full-size reproduction use the harness binary:
//! `cargo run -p msq-harness --release --bin figures`.
//!
//! ```text
//! cargo run --release --example simulated_machine
//! ```

use ms_queues::{
    run_scenario_simulated, Algorithm, FaultPlan, PairedScenario, SimConfig, WorkloadConfig,
};

fn main() {
    let workload = WorkloadConfig {
        pairs_total: 4_000,
        other_work_ns: 6_000,
        capacity: 1_024,
        mem_budget: None,
    };
    let processors = [1, 2, 4, 8];
    println!(
        "net time (s per 10^6 pairs), dedicated machine, {} pairs\n",
        workload.pairs_total
    );
    print!("{:<16}", "algorithm");
    for p in processors {
        print!(" p={p:<7}");
    }
    println!();
    for algorithm in Algorithm::ALL {
        print!("{:<16}", algorithm.label());
        for p in processors {
            let config = SimConfig {
                processors: p,
                ..SimConfig::default()
            };
            let scenario = PairedScenario { workload };
            let out = run_scenario_simulated(algorithm, config, scenario, FaultPlan::new());
            print!(" {:<9.3}", out.point.point.net_secs_per_million_pairs());
        }
        println!();
    }
    println!(
        "\nExpect the paper's shape: the new non-blocking queue leads beyond ~3\n\
         processors; the two-lock queue beats the single lock at higher counts;\n\
         Valois pays its reference-counting tax everywhere."
    );
}
