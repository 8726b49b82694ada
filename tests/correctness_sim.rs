//! Every algorithm driven on the simulated multiprocessor, with
//! preemption: conservation and determinism hold under interleavings a
//! host scheduler would be unlikely to produce.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ms_queues::{
    Algorithm, BackoffConfig, BatchFull, ConcurrentWordQueue, SimConfig, Simulation, WordSegQueue,
};

fn preempting_config() -> SimConfig {
    SimConfig {
        processors: 3,
        processes_per_processor: 2,
        quantum_ns: 60_000,
        ..SimConfig::default()
    }
}

fn simulated_stress(algorithm: Algorithm) {
    let sim = Simulation::new(preempting_config());
    let queue = algorithm.build(&sim.platform(), 4_096);
    let consumed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let report = sim.run({
        let queue = Arc::clone(&queue);
        let consumed = Arc::clone(&consumed);
        move |info| {
            let mut local = Vec::new();
            for i in 0..80_u64 {
                let value = ((info.pid as u64) << 32) | i;
                while queue.enqueue(value).is_err() {}
                loop {
                    if let Some(v) = queue.dequeue() {
                        local.push(v);
                        break;
                    }
                }
            }
            consumed.lock().unwrap().extend(local);
        }
    });
    assert!(report.preemptions > 0, "{algorithm}: config must preempt");
    assert_eq!(queue.dequeue(), None, "{algorithm}: drained");
    let consumed = Arc::try_unwrap(consumed).unwrap().into_inner().unwrap();
    assert_eq!(consumed.len(), 6 * 80, "{algorithm}: count");
    let unique: std::collections::HashSet<u64> = consumed.iter().copied().collect();
    assert_eq!(unique.len(), 6 * 80, "{algorithm}: duplicates");
}

fn simulated_determinism(algorithm: Algorithm) {
    let run = || {
        let sim = Simulation::new(preempting_config());
        let queue = algorithm.build(&sim.platform(), 2_048);
        let report = sim.run({
            let queue = Arc::clone(&queue);
            move |info| {
                for i in 0..40_u64 {
                    let value = ((info.pid as u64) << 32) | i;
                    while queue.enqueue(value).is_err() {}
                    while queue.dequeue().is_none() {}
                }
            }
        });
        (report.elapsed_ns, report.cas_failures, report.preemptions)
    };
    assert_eq!(run(), run(), "{algorithm}: simulation must be reproducible");
}

macro_rules! sim_tests {
    ($($name:ident => $alg:expr),+ $(,)?) => {
        $(
            mod $name {
                use super::*;

                #[test]
                fn conservation_under_preemption() {
                    simulated_stress($alg);
                }

                #[test]
                fn deterministic_execution() {
                    simulated_determinism($alg);
                }
            }
        )+
    };
}

sim_tests! {
    single_lock => Algorithm::SingleLock,
    mellor_crummey => Algorithm::MellorCrummey,
    valois => Algorithm::Valois,
    new_two_lock => Algorithm::NewTwoLock,
    plj => Algorithm::PljNonBlocking,
    new_nonblocking => Algorithm::NewNonBlocking,
    seg_batched => Algorithm::SegBatched,
}

/// One run of a `WordSegQueue` with 2-slot segments and room for 8 values,
/// so a segment is recycled every other operation and the slow paths keep
/// meeting segments that were freed under them. Each process does 100
/// rounds of one enqueue and one dequeue, each round led by an
/// `enqueue_batch` of three and a `dequeue_batch` of up to three when
/// `batched`; the last process to finish drains the queue. Every value an
/// enqueue accepted must come out, and no process may hang.
fn seg_recycling_run(seed: u64, batched: bool) -> Result<(), String> {
    let config = SimConfig {
        seed,
        watchdog_ns: 200_000_000,
        ..preempting_config()
    };
    let sim = Simulation::new(config);
    let queue = Arc::new(WordSegQueue::with_seg_size_and_backoff(
        &sim.platform(),
        8,
        2,
        BackoffConfig::DEFAULT,
    ));
    let enqueued = Arc::new(AtomicU64::new(0));
    let dequeued = Arc::new(AtomicU64::new(0));
    let finished = Arc::new(AtomicUsize::new(0));
    let report = sim.run({
        let queue = Arc::clone(&queue);
        let enqueued = Arc::clone(&enqueued);
        let dequeued = Arc::clone(&dequeued);
        move |info| {
            let mut out = Vec::new();
            for i in 0..100_u64 {
                let value = ((info.pid as u64) << 32) | (i * 4);
                if batched {
                    let pushed = match queue.enqueue_batch(&[value + 1, value + 2, value + 3]) {
                        Ok(()) => 3,
                        Err(BatchFull { pushed }) => pushed,
                    };
                    enqueued.fetch_add(pushed as u64, Ordering::Relaxed);
                    out.clear();
                    let taken = queue.dequeue_batch(&mut out, 3);
                    dequeued.fetch_add(taken as u64, Ordering::Relaxed);
                }
                if queue.enqueue(value).is_ok() {
                    enqueued.fetch_add(1, Ordering::Relaxed);
                }
                if queue.dequeue().is_some() {
                    dequeued.fetch_add(1, Ordering::Relaxed);
                }
            }
            if finished.fetch_add(1, Ordering::Relaxed) + 1 == config.num_processes() {
                while queue.dequeue().is_some() {
                    dequeued.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    });
    let (enqueued, dequeued) = (
        enqueued.load(Ordering::Relaxed),
        dequeued.load(Ordering::Relaxed),
    );
    if !report.blocked.is_empty() {
        return Err(format!("seed {seed}: processes {:?} hung", report.blocked));
    }
    if enqueued != dequeued {
        return Err(format!(
            "seed {seed}: {enqueued} values accepted, {dequeued} came out"
        ));
    }
    Ok(())
}

fn seg_recycling_sweep(batched: bool) {
    let failures: Vec<String> = (0..32)
        .filter_map(|seed| seg_recycling_run(seed, batched).err())
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn seg_batched_keeps_every_value_while_segments_recycle() {
    seg_recycling_sweep(false);
}

#[test]
fn seg_batched_batches_keep_every_value_while_segments_recycle() {
    seg_recycling_sweep(true);
}
