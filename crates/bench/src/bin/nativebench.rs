//! What each registry queue costs to build and to run natively →
//! `BENCH_native.json`.
//!
//! Every `Algorithm::WITH_EXTENSIONS` queue is built on `NativePlatform`
//! at capacity 16,384 (msqbench's `native-*` arena size) and measured
//! four ways:
//!
//! 1. **construction time**: median and quartiles over repeated builds,
//!    each queue dropped outside the timing. The builds run in child
//!    processes (this bin, re-run with `--construction <label>`), so no
//!    queue is timed on a heap that the bin's other phases left grown,
//!    trimmed or past glibc's mmap threshold. Each queue gets several
//!    children, taken in turns across the queues before any throughput
//!    round, so every queue's samples span the whole phase and a drift in
//!    the host's speed reaches them all alike;
//! 2. **minor page faults per construction**, from `getrusage(2)`, in the
//!    same children;
//! 3. **resident bytes per node**: the growth of `VmRSS` over each
//!    construction child's warm-up build, divided by the capacity, median
//!    over the children. Each child's heap is fresh, so no queue is
//!    charged for growth that another queue left behind;
//! 4. **single-thread pairs per second**: enqueue→dequeue pairs at queue
//!    depth 1, median over rounds.
//!
//! The bin uses only the queues' public API, so the same file builds at
//! an earlier commit for a before/after comparison. `--parent <file>`
//! embeds the `"change"` block of a `BENCH_native.json` written there as
//! this file's `"parent"` block, and computes the acceptance flags.
//!
//! Run from the workspace root: `cargo run --release -p msq-bench --bin
//! nativebench [-- --parent <file>]`. Writes `BENCH_native.json` in the
//! current directory. Pass `--smoke` for a scaled-down CI sanity run
//! (same cells, same JSON shape), written under `target/bench-smoke/`
//! instead.

use std::fmt::Write as _;
use std::time::Instant;

use msq_bench::{minor_faults, quartiles};
use msq_harness::Algorithm;
use msq_platform::NativePlatform;

/// Capacity of every queue built: msqbench's `native-*` arena size.
const CAPACITY: u32 = 16_384;
/// Construction children per queue, and builds per child after its
/// warm-up build: 105 builds per queue.
const CHILDREN: usize = 5;
const BUILDS_PER_CHILD: usize = 21;
const SMOKE_CHILDREN: usize = 2;
const SMOKE_BUILDS_PER_CHILD: usize = 5;
/// Enqueue→dequeue pairs per throughput round.
const PAIRS: u64 = 1_000_000;
const SMOKE_PAIRS: u64 = 10_000;
/// Throughput rounds per queue.
const ROUNDS: usize = 5;

/// This process's resident set in bytes (`VmRSS`).
fn resident_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS in /proc/self/status");
    kib * 1024
}

/// The first CPU model name and the number of CPUs this process may use.
fn host() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    format!("{model}, {cpus} CPUs")
}

struct Row {
    algorithm: Algorithm,
    build_us: [f64; 3],
    faults_per_build: f64,
    resident_bytes_per_node: f64,
    pairs_per_s: f64,
}

/// Builds `builds` queues after a warm-up build, timing each construction
/// and counting its faults; the queue is dropped outside both. Returns
/// the resident bytes per node the warm-up build grew, the times in
/// microseconds and the faults of all the timed builds.
fn construction(algorithm: Algorithm, builds: usize) -> (f64, Vec<f64>, u64) {
    let platform = NativePlatform::new();
    // The first read of `/proc/self/status` grows the heap by 16 pages
    // in about a third of fresh processes; a second read grows nothing.
    let _ = resident_bytes();
    let before = resident_bytes();
    let warm_up = algorithm.build(&platform, CAPACITY);
    let per_node = (resident_bytes() - before) as f64 / f64::from(CAPACITY);
    drop(warm_up);
    let mut micros = Vec::with_capacity(builds);
    let mut faults = 0;
    for _ in 0..builds {
        let before = minor_faults();
        let start = Instant::now();
        let queue = algorithm.build(&platform, CAPACITY);
        let elapsed = start.elapsed();
        faults += minor_faults() - before;
        micros.push(elapsed.as_secs_f64() * 1e6);
        drop(queue);
    }
    (per_node, micros, faults)
}

/// Median pairs per second over [`ROUNDS`] rounds of `pairs` pairs.
fn throughput(algorithm: Algorithm, pairs: u64) -> f64 {
    let queue = algorithm.build(&NativePlatform::new(), CAPACITY);
    let rates: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..pairs {
                queue.enqueue(i).expect("a depth-1 queue never fills");
                assert_eq!(queue.dequeue(), Some(i), "{algorithm} lost a value");
            }
            pairs as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    quartiles(rates)[1]
}

/// [`construction`] of `algorithm` in a child process of its own: this
/// bin re-run with `--construction <label>`, which prints the bytes per
/// node, the faults and then each build's microseconds on one line.
fn construction_in_child(algorithm: Algorithm, smoke: bool) -> (f64, Vec<f64>, u64) {
    let exe = std::env::current_exe().expect("this bin's path");
    let mut child = std::process::Command::new(exe);
    child.args(["--construction", algorithm.label()]);
    if smoke {
        child.arg("--smoke");
    }
    let out = child.output().expect("run a construction child");
    assert!(
        out.status.success(),
        "{algorithm} construction child failed"
    );
    let line = String::from_utf8(out.stdout).expect("UTF-8 child output");
    let mut numbers = line.split_whitespace();
    let mut next = || {
        numbers
            .next()
            .unwrap_or_else(|| panic!("{algorithm} construction child printed {line:?}"))
    };
    let per_node = next().parse().expect("bytes per node");
    let faults = next().parse().expect("a fault count");
    let micros = numbers.map(|n| n.parse().expect("a number")).collect();
    (per_node, micros, faults)
}

/// A number from `block`'s row for `algorithm`.
fn field(block: &str, algorithm: Algorithm, key: &str) -> f64 {
    let row = block
        .lines()
        .find(|l| l.contains(&format!("\"algorithm\": \"{}\"", algorithm.label())))
        .unwrap_or_else(|| panic!("no {algorithm} row in the parent block"));
    msq_bench::number_field(row, key).expect(key)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let (children, builds_per_child, pairs) = if smoke {
        (SMOKE_CHILDREN, SMOKE_BUILDS_PER_CHILD, SMOKE_PAIRS)
    } else {
        (CHILDREN, BUILDS_PER_CHILD, PAIRS)
    };
    let builds = children * builds_per_child;
    if let Some(i) = args.iter().position(|a| a == "--construction") {
        let label = args.get(i + 1).expect("--construction takes a queue label");
        let algorithm = Algorithm::from_label(label).expect("a registry queue label");
        let (per_node, micros, faults) = construction(algorithm, builds_per_child);
        let micros: String = micros.iter().map(|us| format!(" {us}")).collect();
        println!("{per_node} {faults}{micros}");
        return;
    }
    let parent = args.iter().position(|a| a == "--parent").map(|i| {
        let path = args.get(i + 1).expect("--parent takes a file");
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    });

    // Every construction before any throughput round, in children taken
    // in turns across the queues.
    let mut samples = vec![(Vec::new(), Vec::new(), 0); Algorithm::WITH_EXTENSIONS.len()];
    for _ in 0..children {
        for (algorithm, (all_per_node, all_micros, all_faults)) in
            Algorithm::WITH_EXTENSIONS.into_iter().zip(&mut samples)
        {
            let (per_node, micros, faults) = construction_in_child(algorithm, smoke);
            all_per_node.push(per_node);
            all_micros.extend(micros);
            *all_faults += faults;
        }
    }
    let built = samples.into_iter().map(|(per_node, micros, faults)| {
        (
            quartiles(per_node)[1],
            quartiles(micros),
            faults as f64 / builds as f64,
        )
    });

    let mut rows = Vec::new();
    for (algorithm, (resident_bytes_per_node, build_us, faults_per_build)) in
        Algorithm::WITH_EXTENSIONS.into_iter().zip(built)
    {
        let pairs_per_s = throughput(algorithm, pairs);
        eprintln!(
            "{:<16} build {:>9.1} us (q1 {:.1}, q3 {:.1}), {faults_per_build:>7.1} faults/build, \
             {resident_bytes_per_node:>6.1} B/node, {:>5.2} M pairs/s",
            algorithm.label(),
            build_us[1],
            build_us[0],
            build_us[2],
            pairs_per_s / 1e6
        );
        rows.push(Row {
            algorithm,
            build_us,
            faults_per_build,
            resident_bytes_per_node,
            pairs_per_s,
        });
    }

    let mut run = String::from("{\n");
    let _ = writeln!(run, "    \"host\": \"{}\",", host());
    let _ = writeln!(
        run,
        "    \"command\": \"cargo run --release -p msq-bench --bin nativebench{}{}\",",
        if args.is_empty() { "" } else { " --" },
        args.iter().map(|a| format!(" {a}")).collect::<String>()
    );
    let _ = writeln!(run, "    \"builds\": {builds},");
    let _ = writeln!(run, "    \"pairs_per_round\": {pairs},");
    run.push_str("    \"queues\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            run,
            "      {{\"algorithm\": \"{}\", \"build_us_median\": {:.1}, \"build_us_q1\": {:.1}, \"build_us_q3\": {:.1}, \"minor_faults_per_build\": {:.1}, \"resident_bytes_per_node\": {:.1}, \"pairs_per_s\": {:.0}}}{}",
            row.algorithm.label(),
            row.build_us[1],
            row.build_us[0],
            row.build_us[2],
            row.faults_per_build,
            row.resident_bytes_per_node,
            row.pairs_per_s,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    run.push_str("    ]\n  }");

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"description\": \"every registry queue on NativePlatform at capacity {CAPACITY}: construction time (median and quartiles, us), minor page faults per construction, resident bytes per node (median over children), single-thread enqueue/dequeue pairs per second; parent is the same bin at the commit before the change\","
    );
    let parent_block = parent.as_deref().map(msq_bench::parent_block);
    let _ = writeln!(
        json,
        "  \"parent\": {},",
        parent_block.as_deref().unwrap_or("null")
    );
    let _ = write!(json, "  \"change\": {run}");
    if let Some(block) = parent_block.as_deref() {
        // Fixed before either run: the claimed 10x on the queue msqbench's
        // `native-paired` builds, and a smaller pool for every queue.
        let ms = Algorithm::NewNonBlocking;
        let build_speedup = field(block, ms, "build_us_median")
            / rows
                .iter()
                .find(|r| r.algorithm == ms)
                .expect("new-nonblocking row")
                .build_us[1];
        let smaller = rows.iter().all(|r| {
            r.resident_bytes_per_node < field(block, r.algorithm, "resident_bytes_per_node")
        });
        let _ = write!(
            json,
            ",\n  \"acceptance\": {{\"new_nonblocking_build_speedup\": {build_speedup:.1}, \"new_nonblocking_builds_at_least_10x_faster\": {}, \"every_queue_resident_bytes_per_node_lower\": {smaller}}}",
            build_speedup >= 10.0
        );
    }
    json.push_str("\n}\n");

    msq_bench::write_report("BENCH_native.json", smoke, &json);
    println!("{json}");
}
