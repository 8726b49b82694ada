//! [`schedule_sweep`]: run a test body across many deterministic
//! schedules.
//!
//! A single simulated run explores exactly one legal interleaving. The
//! sweep re-runs a closure under `K` distinct [`SimConfig::seed`] values —
//! always starting with seed 0, the canonical schedule — so a test
//! samples `K` different (but individually reproducible) interleavings.
//! Because every seed is independent, the *minimal failing sweep index is
//! already the minimal counterexample*; on failure the helper prints the
//! exact `seed` value to paste into a `SimConfig` for a single-schedule
//! reproduction, then re-raises the panic.
//!
//! Seeds share nothing, so the sweep dispatches them across host cores:
//! lane threads claim sweep indices off an atomic cursor (lane count from
//! `MSQ_SWEEP_LANES`, defaulting to the host's available parallelism).
//! Failure reporting stays deterministic regardless of lane count —
//! indices are claimed in increasing order, so every index below a
//! failing one also ran, and the report names the minimum failing index.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::config::SimConfig;
use crate::core::splitmix64;

/// Runs `body` once per sweep index in `0..seeds`, each time with a
/// distinct deterministic schedule seed patched into `base` (index 0 maps
/// to seed 0, the canonical schedule). Seeds are dispatched across host
/// cores; see [`schedule_sweep_with`] to pick the lane count explicitly.
///
/// On failure, prints the minimal failing sweep index and seed — the
/// shrunk, single-schedule reproduction — plus a ready-to-paste
/// `MSQ_SWEEP_SEED=<seed> cargo test -q <test>` command line, and resumes
/// the panic. Setting `MSQ_SWEEP_SEED` pins the sweep to that single seed
/// (the printed reproducer does exactly this).
///
/// # Example
///
/// ```
/// use msq_sim::{schedule_sweep, SimConfig, Simulation};
///
/// schedule_sweep(SimConfig { processors: 2, ..SimConfig::default() }, 4, |cfg| {
///     let sim = Simulation::new(cfg);
///     let report = sim.run(|_| {});
///     assert_eq!(report.total_ops, 0);
/// });
/// ```
///
/// # Panics
///
/// Re-raises the minimal failing panic from `body`, after printing the
/// failing seed. Also panics if `MSQ_SWEEP_LANES` is set but not a
/// positive integer.
pub fn schedule_sweep<F>(base: SimConfig, seeds: u64, body: F)
where
    F: Fn(SimConfig) + Sync,
{
    schedule_sweep_with(base, seeds, default_lanes(seeds), body);
}

/// [`schedule_sweep`] with an explicit lane count: `lanes` host threads,
/// each named after the calling test, claim sweep indices off a shared
/// cursor. Indices already claimed when a failure occurs still complete
/// (their outcomes are needed to determine the *minimal* failing index),
/// but no index beyond a known failure is newly claimed.
///
/// Every lane observes the same seed ↦ index mapping, so which seeds run
/// (and the failure report) do not depend on the lane count — only
/// wall-clock time does.
pub fn schedule_sweep_with<F>(base: SimConfig, seeds: u64, lanes: usize, body: F)
where
    F: Fn(SimConfig) + Sync,
{
    // MSQ_SWEEP_SEED pins the sweep to one seed — the reproduction mode
    // the failure report prints.
    if let Some(seed) = pinned_seed() {
        let cfg = SimConfig { seed, ..base };
        eprintln!("schedule_sweep: MSQ_SWEEP_SEED pins this sweep to seed {seed:#x}");
        body(cfg);
        return;
    }
    if seeds == 0 {
        return;
    }
    let lanes = lanes.clamp(1, seeds.min(256) as usize);
    let test = thread::current()
        .name()
        .map_or_else(|| "<test name>".to_string(), str::to_owned);
    let started = std::time::Instant::now();
    let cursor = AtomicU64::new(0);
    // Indices at or beyond this bound need not start: a failure at a
    // lower index already decides the sweep.
    let bound = AtomicU64::new(seeds);
    let failed: Mutex<Option<(u64, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    thread::scope(|scope| {
        for _ in 0..lanes {
            let body = &body;
            let cursor = &cursor;
            let bound = &bound;
            let failed = &failed;
            // Named after the test, so a panic line still names it.
            thread::Builder::new()
                .name(test.clone())
                .spawn_scoped(scope, move || loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= seeds || index >= bound.load(Ordering::Relaxed) {
                        return;
                    }
                    let cfg = SimConfig {
                        seed: sweep_seed(index),
                        ..base
                    };
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(cfg))) {
                        bound.fetch_min(index, Ordering::Relaxed);
                        let mut failed = failed.lock().expect("sweep failure slot");
                        match &*failed {
                            Some((first, _)) if *first <= index => {}
                            _ => *failed = Some((index, payload)),
                        }
                    }
                })
                .expect("spawn a sweep lane");
        }
    });
    if let Some((index, payload)) = failed.into_inner().expect("sweep failure slot") {
        report_failure(&test, index, seeds, sweep_seed(index));
        resume_unwind(payload);
    }
    report_timing(&test, seeds, lanes, started);
}

/// One wall-clock line per completed sweep, so CI logs show what the
/// lanes buy on the sweep-heavy suites.
/// Opt-in via `MSQ_SWEEP_TIMINGS=1`: `eprintln!` bypasses the test
/// harness's output capture, so unconditional per-sweep lines would
/// spam every `cargo test -q` run of the sweep-heavy suites. CI lanes
/// that want the breakdown set the flag on their own step.
fn report_timing(test: &str, seeds: u64, lanes: usize, started: std::time::Instant) {
    if !timings_enabled() {
        return;
    }
    eprintln!(
        "schedule_sweep: {test}: {seeds} seeds x {lanes} lane(s) in {:.3}s wall-clock",
        started.elapsed().as_secs_f64()
    );
}

/// Whether `MSQ_SWEEP_TIMINGS` asks for per-sweep wall-clock lines
/// (any non-empty value other than `0` enables them).
fn timings_enabled() -> bool {
    std::env::var("MSQ_SWEEP_TIMINGS").is_ok_and(|v| {
        let v = v.trim();
        !v.is_empty() && v != "0"
    })
}

/// The deterministic seed for a sweep index: index 0 is the canonical
/// schedule, every other index a splitmix64 point.
fn sweep_seed(index: u64) -> u64 {
    if index == 0 {
        0
    } else {
        splitmix64(index)
    }
}

fn report_failure(test: &str, index: u64, seeds: u64, seed: u64) {
    eprintln!(
        "schedule_sweep: minimal failing schedule at sweep index {index} \
         of {seeds}; reproduce with `SimConfig {{ seed: {seed:#x}, .. }}` or:\n    \
         MSQ_SWEEP_SEED={seed} cargo test -q {test}"
    );
}

/// The lane count [`schedule_sweep`] uses for a `seeds`-seed sweep:
/// `MSQ_SWEEP_LANES` if set, else the host's available parallelism,
/// capped at the seed count.
///
/// # Panics
///
/// Panics if `MSQ_SWEEP_LANES` is set but not a positive integer.
pub fn default_lanes(seeds: u64) -> usize {
    if let Ok(raw) = std::env::var("MSQ_SWEEP_LANES") {
        let lanes: usize = raw
            .trim()
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("MSQ_SWEEP_LANES must be a positive integer, got `{raw}`"));
        return lanes;
    }
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    host.min(seeds.max(1) as usize)
}

/// Parses `MSQ_SWEEP_SEED` (decimal, or hex with an `0x` prefix).
fn pinned_seed() -> Option<u64> {
    let raw = std::env::var("MSQ_SWEEP_SEED").ok()?;
    let raw = raw.trim();
    let parsed = raw
        .strip_prefix("0x")
        .or_else(|| raw.strip_prefix("0X"))
        .map_or_else(|| raw.parse(), |hex| u64::from_str_radix(hex, 16));
    match parsed {
        Ok(seed) => Some(seed),
        Err(_) => panic!("MSQ_SWEEP_SEED must be a u64 (decimal or 0x-hex), got `{raw}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use msq_platform::Platform;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn visits_every_seed_starting_with_canonical() {
        let seen = Mutex::new(Vec::new());
        schedule_sweep(SimConfig::default(), 8, |cfg| {
            seen.lock().unwrap().push(cfg.seed);
        });
        let mut seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 8);
        assert!(seen.contains(&0), "the canonical schedule is always swept");
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8, "seeds must be distinct");
    }

    #[test]
    fn lane_count_changes_nothing_but_wall_clock() {
        let seeds_under = |lanes| {
            let seen = Mutex::new(Vec::new());
            schedule_sweep_with(SimConfig::default(), 12, lanes, |cfg| {
                seen.lock().unwrap().push(cfg.seed);
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            seen
        };
        let serial = seeds_under(1);
        assert_eq!(serial, seeds_under(2));
        assert_eq!(serial, seeds_under(8));
    }

    #[test]
    fn seeds_actually_produce_different_interleavings() {
        // Two contended processors bumping one counter: the per-seed
        // clock phases shift which processor pick_next favours, so the
        // elapsed virtual time varies across seeds (while any single
        // seed stays deterministic).
        let mut elapsed = Vec::new();
        for _ in 0..2 {
            let per_seed = Mutex::new(Vec::new());
            schedule_sweep(
                SimConfig {
                    processors: 2,
                    ..SimConfig::default()
                },
                8,
                |cfg| {
                    let sim = Simulation::new(cfg);
                    let counter = Arc::new(sim.platform().alloc_cell(0));
                    let report = sim.run({
                        let counter = Arc::clone(&counter);
                        move |_| {
                            use msq_platform::AtomicWord;
                            for _ in 0..32 {
                                counter.fetch_add(1);
                            }
                        }
                    });
                    per_seed.lock().unwrap().push((cfg.seed, report.elapsed_ns));
                },
            );
            let mut per_seed = per_seed.into_inner().unwrap();
            per_seed.sort_unstable();
            elapsed.push(per_seed);
        }
        assert_eq!(elapsed[0], elapsed[1], "each seed is deterministic");
        let mut unique: Vec<u64> = elapsed[0].iter().map(|&(_, ns)| ns).collect();
        unique.sort_unstable();
        unique.dedup();
        assert!(
            unique.len() > 1,
            "8 seeds should yield more than one distinct schedule: {:?}",
            elapsed[0]
        );
    }

    #[test]
    fn serial_failure_reports_first_failing_seed_and_reraises() {
        let runs = Arc::new(AtomicU64::new(0));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let runs = Arc::clone(&runs);
            schedule_sweep_with(SimConfig::default(), 16, 1, move |_| {
                if runs.fetch_add(1, Ordering::Relaxed) == 3 {
                    panic!("injected failure");
                }
            });
        }));
        assert!(result.is_err(), "the panic must propagate");
        assert_eq!(
            runs.load(Ordering::Relaxed),
            4,
            "a single lane stops at the first failure (indices 0..=3 ran)"
        );
    }

    #[test]
    fn parallel_failure_reports_the_minimal_failing_index() {
        // Indices 3 and 9 both fail; whatever the lane interleaving, the
        // sweep must re-raise index 3's payload.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let failing: Vec<u64> = vec![sweep_seed(3), sweep_seed(9)];
            schedule_sweep_with(SimConfig::default(), 16, 4, move |cfg| {
                if failing.contains(&cfg.seed) {
                    if cfg.seed == sweep_seed(3) {
                        panic!("minimal failure");
                    }
                    panic!("later failure");
                }
            });
        }));
        let payload = result.expect_err("the panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(message, "minimal failure", "must surface index 3, not 9");
    }

    #[test]
    fn parallel_failure_does_not_claim_new_indices_past_the_failure() {
        // With the failure at index 0 claimed first, lanes may finish
        // in-flight work but must not start arbitrarily many more seeds.
        let runs = Arc::new(AtomicU64::new(0));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let runs = Arc::clone(&runs);
            schedule_sweep_with(SimConfig::default(), 1_000, 2, move |cfg| {
                runs.fetch_add(1, Ordering::Relaxed);
                if cfg.seed == 0 {
                    panic!("early failure");
                }
                // Keep non-failing indices slow enough that the bound is
                // in place before any lane loops back for more work.
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        }));
        assert!(result.is_err());
        assert!(
            runs.load(Ordering::Relaxed) < 100,
            "the failure bound must stop new claims ({} ran)",
            runs.load(Ordering::Relaxed)
        );
    }
}
