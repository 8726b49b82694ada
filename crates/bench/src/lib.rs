//! What the bench binaries share: where a run's JSON report goes.

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
