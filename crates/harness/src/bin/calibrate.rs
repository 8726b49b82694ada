//! Prints single-processor per-operation costs for every algorithm, on
//! both the simulator and native threads — the sanity anchor for the
//! figure sweeps (the paper's "with only one processor ... completion
//! times are very low" observation).
//!
//! ```text
//! cargo run -p msq-harness --release --bin calibrate -- [--pairs N]
//! ```

use msq_harness::{
    run_scenario_native, run_scenario_simulated, Algorithm, PairedScenario, WorkloadConfig,
};
use msq_sim::{FaultPlan, SimConfig};

fn main() {
    let mut workload = WorkloadConfig {
        pairs_total: 10_000,
        ..WorkloadConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--pairs" => {
                workload.pairs_total = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--pairs <N>");
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    println!("| algorithm | sim ns/pair (p=1) | sim miss rate | native ns/pair (1 thread) |");
    println!("|---|---|---|---|");
    for alg in Algorithm::ALL {
        let scenario = PairedScenario { workload };
        let sim = run_scenario_simulated(alg, SimConfig::default(), scenario, FaultPlan::new())
            .point
            .point;
        let native = run_scenario_native(alg, 1, scenario).point.point;
        println!(
            "| {} | {:.0} | {:.3} | {:.0} |",
            alg.label(),
            sim.net_ns as f64 / sim.pairs as f64,
            sim.miss_rate,
            native.net_ns as f64 / native.pairs as f64,
        );
    }
}
