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
//! 3. **resident bytes per node**: the growth of `VmRSS` while one queue
//!    of each kind is held, divided by the capacity. This phase runs
//!    first, on a fresh heap;
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
use std::os::raw::{c_int, c_long};
use std::time::Instant;

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

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs, of
/// which only the minor-fault count is read.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    times: [c_long; 4],
    maxrss_to_isrss: [c_long; 4],
    ru_minflt: c_long,
    rest: [c_long; 9],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

/// Minor page faults of this process so far.
fn minor_faults() -> u64 {
    const RUSAGE_SELF: c_int = 0;
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout declared above, and RUSAGE_SELF is a valid `who`; the
    // call writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.ru_minflt as u64
}

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

/// The value at quantile `q` of sorted `values` (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
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
/// the times in microseconds and the faults of all the builds.
fn construction(algorithm: Algorithm, builds: usize) -> (Vec<f64>, u64) {
    let platform = NativePlatform::new();
    drop(algorithm.build(&platform, CAPACITY)); // warm-up
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
    (micros, faults)
}

/// Median pairs per second over [`ROUNDS`] rounds of `pairs` pairs.
fn throughput(algorithm: Algorithm, pairs: u64) -> f64 {
    let queue = algorithm.build(&NativePlatform::new(), CAPACITY);
    let mut rates: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..pairs {
                queue.enqueue(i).expect("a depth-1 queue never fills");
                assert_eq!(queue.dequeue(), Some(i), "{algorithm} lost a value");
            }
            pairs as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    quantile(&rates, 0.5)
}

/// [`construction`] of `algorithm` in a child process of its own: this
/// bin re-run with `--construction <label>`, which prints the faults and
/// then each build's microseconds on one line.
fn construction_in_child(algorithm: Algorithm, smoke: bool) -> (Vec<f64>, u64) {
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
    let faults = numbers
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("{algorithm} construction child printed {line:?}"));
    let micros = numbers.map(|n| n.parse().expect("a number")).collect();
    (micros, faults)
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
        let (micros, faults) = construction(algorithm, builds_per_child);
        let micros: String = micros.iter().map(|us| format!(" {us}")).collect();
        println!("{faults}{micros}");
        return;
    }
    let parent = args.iter().position(|a| a == "--parent").map(|i| {
        let path = args.get(i + 1).expect("--parent takes a file");
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    });
    let platform = NativePlatform::new();

    // Resident memory first, on a fresh heap: one queue of each kind is
    // held until all are measured, so no freed pool is reused.
    let mut held = Vec::new();
    let mut per_node = Vec::new();
    for algorithm in Algorithm::WITH_EXTENSIONS {
        let before = resident_bytes();
        held.push(algorithm.build(&platform, CAPACITY));
        per_node.push((resident_bytes() - before) as f64 / f64::from(CAPACITY));
    }
    drop(held);

    // Every construction before any throughput round, in children taken
    // in turns across the queues.
    let mut samples = vec![(Vec::new(), 0); Algorithm::WITH_EXTENSIONS.len()];
    for _ in 0..children {
        for (algorithm, (all_micros, all_faults)) in
            Algorithm::WITH_EXTENSIONS.into_iter().zip(&mut samples)
        {
            let (micros, faults) = construction_in_child(algorithm, smoke);
            all_micros.extend(micros);
            *all_faults += faults;
        }
    }
    let built = samples.into_iter().map(|(mut micros, faults)| {
        micros.sort_by(f64::total_cmp);
        let quartiles = [0.25, 0.5, 0.75].map(|q| quantile(&micros, q));
        (quartiles, faults as f64 / builds as f64)
    });

    let mut rows = Vec::new();
    for ((algorithm, resident_bytes_per_node), (build_us, faults_per_build)) in
        Algorithm::WITH_EXTENSIONS
            .into_iter()
            .zip(per_node)
            .zip(built)
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
        "  \"description\": \"every registry queue on NativePlatform at capacity {CAPACITY}: construction time (median and quartiles, us), minor page faults per construction, resident bytes per node, single-thread enqueue/dequeue pairs per second; parent is the same bin at the commit before the change\","
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
