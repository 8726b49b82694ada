//! What the bench binaries share: where a run's JSON report goes, how a
//! report reads the numbers of an earlier one, and the host counters and
//! order statistics their cells record.

use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};

/// Where `--smoke` runs write their reports, so that a smoke run never
/// overwrites a committed `BENCH_*.json`.
const SMOKE_DIR: &str = "target/bench-smoke";

/// Writes a bench binary's JSON report: to `file` in the current directory
/// for a full run (the committed `BENCH_*.json`), and to `file` under
/// `target/bench-smoke/` for a `--smoke` run.
///
/// # Panics
///
/// Panics if the file (or, for a smoke run, its directory) cannot be
/// written.
pub fn write_report(file: &str, smoke: bool, json: &str) {
    let path = if smoke {
        std::fs::create_dir_all(SMOKE_DIR).expect("create the smoke report directory");
        Path::new(SMOKE_DIR).join(file)
    } else {
        PathBuf::from(file)
    };
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// The numbers of an earlier report, to embed as a `"parent"` block: the
/// text of its `"change"` object, or, for a report written before its bin
/// split its numbers into one, the whole report indented one level.
///
/// # Panics
///
/// Panics if the `"change"` object is not terminated.
pub fn parent_block(report: &str) -> String {
    let Some(key) = report.find("\"change\": {") else {
        return report.trim().replace('\n', "\n  ");
    };
    let start = key + "\"change\": ".len();
    let mut depth = 0;
    for (offset, byte) in report[start..].bytes().enumerate() {
        match byte {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return report[start..=start + offset].to_string();
                }
            }
            _ => {}
        }
    }
    panic!("unterminated \"change\" block");
}

/// The number at `"key": ` in `line`, a one-line JSON object.
pub fn number_field(line: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\": ");
    let tail = &line[line.find(&pattern)? + pattern.len()..];
    tail[..tail.find([',', '}'])?].trim().parse().ok()
}

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

/// Minor page faults of this process so far, from `getrusage(2)`.
///
/// # Panics
///
/// Panics if `getrusage` fails, which it cannot for `RUSAGE_SELF`.
pub fn minor_faults() -> u64 {
    const RUSAGE_SELF: c_int = 0;
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout declared above, and RUSAGE_SELF is a valid `who`; the
    // call writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.ru_minflt as u64
}

/// The first quartile, median and third quartile of `values`, each the
/// nearest-rank value.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(mut values: Vec<f64>) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| values[(q * (values.len() - 1) as f64).round() as usize])
}
