//! Lock implementations.

use msq_platform::{AtomicWord, Backoff, BackoffConfig, Platform};

use crate::Acquired;

/// A mutual-exclusion spin lock over a [`Platform`].
///
/// `lock`/`unlock` take the platform so delays (backoff) are charged to the
/// calling simulated process. These are *raw* locks: the caller is
/// responsible for pairing `lock` with `unlock` (the queue algorithms use
/// them in strict bracketed fashion, exactly like the paper's pseudo-code).
pub trait RawLock<P: Platform>: Send + Sync {
    /// Acquires the lock, spinning until available. The plain spin locks
    /// always return [`Acquired::Clean`]; a [`crate::RevocableLock`] may
    /// instead seize the lock from a dead holder and say so.
    fn lock(&self, platform: &P) -> Acquired;

    /// Releases the lock.
    ///
    /// Calling `unlock` on a lock the caller does not hold is a logic error
    /// (not memory-unsafe for these word-based locks, but it breaks mutual
    /// exclusion).
    fn unlock(&self, platform: &P);
}

/// Test-and-`test_and_set` lock with bounded exponential backoff — the
/// lock the paper uses for both lock-based queue algorithms.
///
/// Waiters spin on an ordinary read (which stays in their cache until the
/// holder's release invalidates it) and only attempt the atomic
/// `test_and_set` when the lock looks free.
pub struct TtasLock<P: Platform> {
    word: P::Cell,
    backoff: BackoffConfig,
}

impl<P: Platform> TtasLock<P> {
    /// Creates an unlocked lock with default backoff.
    pub fn new(platform: &P) -> Self {
        Self::with_backoff(platform, BackoffConfig::DEFAULT)
    }

    /// Creates an unlocked lock with explicit backoff parameters (the
    /// backoff ablation benches pass [`BackoffConfig::DISABLED`]).
    pub fn with_backoff(platform: &P, backoff: BackoffConfig) -> Self {
        TtasLock {
            word: platform.alloc_cell(0),
            backoff,
        }
    }
}

impl<P: Platform> RawLock<P> for TtasLock<P> {
    fn lock(&self, platform: &P) -> Acquired {
        let mut backoff = Backoff::new(self.backoff);
        loop {
            // Wait until the lock at least looks free (read-only spin).
            while self.word.load() != 0 {
                backoff.spin(platform);
            }
            if !self.word.test_and_set() {
                return Acquired::Clean;
            }
            backoff.spin(platform);
        }
    }

    fn unlock(&self, _platform: &P) {
        self.word.store(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RevocableLock;
    use msq_platform::NativePlatform;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn exercise_mutual_exclusion<L, F>(make: F)
    where
        L: RawLock<NativePlatform> + 'static,
        F: FnOnce(&NativePlatform) -> L,
    {
        let platform = NativePlatform::new();
        let lock = Arc::new(make(&platform));
        let counter = Arc::new(AtomicU64::new(0));
        let in_cs = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            let in_cs = Arc::clone(&in_cs);
            handles.push(std::thread::spawn(move || {
                let platform = NativePlatform::new();
                for _ in 0..2_000 {
                    assert_eq!(
                        lock.lock(&platform),
                        Acquired::Clean,
                        "nobody dies natively"
                    );
                    assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0, "overlap!");
                    let v = counter.load(Ordering::SeqCst);
                    counter.store(v + 1, Ordering::SeqCst); // non-atomic RMW on purpose
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                    lock.unlock(&platform);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 8_000);
    }

    #[test]
    fn ttas_lock_excludes() {
        exercise_mutual_exclusion(TtasLock::new);
    }

    #[test]
    fn revocable_lock_excludes() {
        exercise_mutual_exclusion(RevocableLock::new);
    }

    #[test]
    fn locks_work_under_simulated_contention() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 3,
            processes_per_processor: 2,
            quantum_ns: 50_000,
            ..SimConfig::default()
        });
        let platform = sim.platform();
        let lock = Arc::new(TtasLock::new(&platform));
        let shared = Arc::new(platform.alloc_cell(0));
        let report = sim.run({
            let shared = Arc::clone(&shared);
            let lock = Arc::clone(&lock);
            let platform = platform.clone();
            move |_| {
                for _ in 0..50 {
                    lock.lock(&platform);
                    // Non-atomic read-modify-write under the lock.
                    let v = shared.load();
                    shared.store(v + 1);
                    lock.unlock(&platform);
                }
            }
        });
        assert_eq!(shared.load(), 6 * 50, "mutual exclusion under preemption");
        assert!(report.preemptions > 0 || report.elapsed_ns > 0);
    }
}
