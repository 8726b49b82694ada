//! Regenerates the paper's Figures 3–5 on the simulated multiprocessor.
//!
//! ```text
//! cargo run -p msq-harness --release --bin figures -- [OPTIONS]
//!
//! --figure <3|4|5|all>      which figure to regenerate   (default: all)
//! --pairs <N>               total enqueue/dequeue pairs  (default: 20000)
//! --processors <list>       comma-separated sweep        (default: 1,2,3,4,6,8,10,12)
//! --other-work <ns>         other-work spin per phase    (default: 6000)
//! --quantum <ns>            scheduling quantum           (default: auto-scaled)
//! --out <dir>               also write CSV files there
//! --native                  run on real threads instead of the simulator
//!                           (figure 4/5 levels become thread oversubscription;
//!                           meaningful only on a host with enough cores)
//! ```

use std::io::Write as _;

use msq_harness::{
    figure_machine, figure_spec, run_figure, run_scenario_native, Algorithm, PairedScenario,
    WorkloadConfig,
};

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--figure" => {
                let v = value("--figure")?;
                args.figures = match v.as_str() {
                    "all" => vec![3, 4, 5],
                    n => vec![n
                        .parse::<u8>()
                        .map_err(|_| format!("bad figure id {n:?}"))?],
                };
            }
            "--pairs" => {
                args.workload.pairs_total = value("--pairs")?
                    .parse()
                    .map_err(|_| "bad --pairs".to_string())?;
            }
            "--processors" => {
                args.processors = value("--processors")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| "bad --processors".to_string())?;
            }
            "--other-work" => {
                args.workload.other_work_ns = value("--other-work")?
                    .parse()
                    .map_err(|_| "bad --other-work".to_string())?;
            }
            "--quantum" => {
                args.quantum_ns = value("--quantum")?
                    .parse()
                    .map_err(|_| "bad --quantum".to_string())?;
            }
            "--out" => args.out = Some(value("--out")?),
            "--native" => args.native = true,
            "--help" | "-h" => {
                args.help = true;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

struct Args {
    figures: Vec<u8>,
    processors: Vec<usize>,
    workload: WorkloadConfig,
    quantum_ns: u64,
    out: Option<String>,
    native: bool,
    help: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            figures: vec![3, 4, 5],
            processors: vec![1, 2, 3, 4, 6, 8, 10, 12],
            workload: WorkloadConfig::default(),
            quantum_ns: 0, // 0 = auto-scale with --pairs
            out: None,
            native: false,
            help: false,
        }
    }
}

/// Native-thread mode: a figure's multiprogramming level k at p
/// "processors" becomes k*p OS threads; the host scheduler provides the
/// preemption. Absolute meaning requires >= p host cores (the simulator
/// path is the host-independent reproduction).
fn run_native_mode(args: &Args) {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "native mode on {host_cores} host core(s); points with p > {host_cores} \
         are OS-multiprogrammed regardless of figure"
    );
    for &id in &args.figures {
        let spec = figure_spec(id);
        println!(
            "### Figure {id} (native threads): net time (s) per 10^6 pairs, {}x threads\n",
            spec.processes_per_processor
        );
        print!("| threads |");
        for algorithm in Algorithm::ALL {
            print!(" {} |", algorithm.label());
        }
        println!();
        print!("|---|");
        for _ in Algorithm::ALL {
            print!("---|");
        }
        println!();
        for &p in &args.processors {
            print!("| {} |", p * spec.processes_per_processor);
            for algorithm in Algorithm::ALL {
                let scenario = PairedScenario {
                    workload: args.workload,
                };
                let out =
                    run_scenario_native(algorithm, p * spec.processes_per_processor, scenario);
                print!(" {:.3} |", out.point.point.net_secs_per_million_pairs());
                let _ = std::io::stdout().flush();
            }
            println!();
        }
        println!();
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\nrun with --help for usage");
            std::process::exit(2);
        }
    };
    if args.help {
        println!(
            "figures: regenerate Michael & Scott 1996 Figures 3-5\n\
             --figure <3|4|5|all>  --pairs <N>  --processors <list>\n\
             --other-work <ns>  --quantum <ns>  --out <dir>  --native"
        );
        return;
    }
    if args.native {
        run_native_mode(&args);
        return;
    }
    let base = figure_machine(
        args.workload.pairs_total,
        (args.quantum_ns != 0).then_some(args.quantum_ns),
    );
    for &id in &args.figures {
        let spec = figure_spec(id);
        eprintln!(
            "regenerating figure {id} ({} pairs, processors {:?})...",
            args.workload.pairs_total, args.processors
        );
        let data = run_figure(spec, &args.processors, base, &args.workload, |alg, p| {
            eprint!("\r  {alg:<16} p={p:<3}   ");
            let _ = std::io::stderr().flush();
        });
        eprintln!();
        println!("{}", data.to_markdown());
        if let Some(dir) = &args.out {
            std::fs::create_dir_all(dir).expect("create output dir");
            let path = format!("{dir}/figure{id}.csv");
            std::fs::write(&path, data.to_csv()).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
}
