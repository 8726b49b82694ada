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

    /// Attempts to acquire without spinning; `true` on success.
    fn try_lock(&self, platform: &P) -> bool;
}

/// Plain `test_and_set` spin lock with bounded exponential backoff.
///
/// Every acquisition attempt is a read-modify-write, so under contention
/// the lock word ping-pongs between caches — the behaviour that makes bare
/// TAS locks scale poorly and motivates [`TtasLock`].
pub struct TasLock<P: Platform> {
    word: P::Cell,
    backoff: BackoffConfig,
}

impl<P: Platform> TasLock<P> {
    /// Creates an unlocked lock with default backoff.
    pub fn new(platform: &P) -> Self {
        Self::with_backoff(platform, BackoffConfig::DEFAULT)
    }

    /// Creates an unlocked lock with explicit backoff parameters.
    pub fn with_backoff(platform: &P, backoff: BackoffConfig) -> Self {
        TasLock {
            word: platform.alloc_cell(0),
            backoff,
        }
    }
}

impl<P: Platform> RawLock<P> for TasLock<P> {
    fn lock(&self, platform: &P) -> Acquired {
        let mut backoff = Backoff::new(self.backoff);
        while self.word.test_and_set() {
            backoff.spin(platform);
        }
        Acquired::Clean
    }

    fn unlock(&self, _platform: &P) {
        self.word.store(0);
    }

    fn try_lock(&self, _platform: &P) -> bool {
        !self.word.test_and_set()
    }
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

    fn try_lock(&self, _platform: &P) -> bool {
        self.word.load() == 0 && !self.word.test_and_set()
    }
}

/// FIFO ticket lock built on `fetch_and_increment` (extension; not used by
/// the paper's experiments but handy for ablations: fairness at the price
/// of preemption-sensitivity even worse than TTAS).
pub struct TicketLock<P: Platform> {
    next_ticket: P::Cell,
    now_serving: P::Cell,
    backoff: BackoffConfig,
}

impl<P: Platform> TicketLock<P> {
    /// Creates an unlocked lock with default backoff.
    pub fn new(platform: &P) -> Self {
        Self::with_backoff(platform, BackoffConfig::DEFAULT)
    }

    /// Creates an unlocked lock with explicit backoff parameters.
    pub fn with_backoff(platform: &P, backoff: BackoffConfig) -> Self {
        TicketLock {
            next_ticket: platform.alloc_cell(0),
            now_serving: platform.alloc_cell(0),
            backoff,
        }
    }
}

impl<P: Platform> RawLock<P> for TicketLock<P> {
    fn lock(&self, platform: &P) -> Acquired {
        let my_ticket = self.next_ticket.fetch_add(1);
        let mut backoff = Backoff::new(self.backoff);
        while self.now_serving.load() != my_ticket {
            backoff.spin(platform);
        }
        Acquired::Clean
    }

    fn unlock(&self, _platform: &P) {
        self.now_serving.fetch_add(1);
    }

    fn try_lock(&self, _platform: &P) -> bool {
        let serving = self.now_serving.load();
        // Claim the next ticket only if it would be served immediately.
        self.next_ticket.cas(serving, serving.wrapping_add(1))
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
    fn tas_lock_excludes() {
        exercise_mutual_exclusion(TasLock::new);
    }

    #[test]
    fn ttas_lock_excludes() {
        exercise_mutual_exclusion(TtasLock::new);
    }

    #[test]
    fn ticket_lock_excludes() {
        exercise_mutual_exclusion(TicketLock::new);
    }

    #[test]
    fn revocable_lock_excludes() {
        exercise_mutual_exclusion(RevocableLock::new);
    }

    #[test]
    fn try_lock_succeeds_only_when_free() {
        fn check<L: RawLock<NativePlatform>>(p: &NativePlatform, lock: L) {
            assert!(lock.try_lock(p));
            assert!(!lock.try_lock(p));
            lock.unlock(p);
            assert!(lock.try_lock(p));
        }
        let p = NativePlatform::new();
        check(&p, TasLock::new(&p));
        check(&p, TtasLock::new(&p));
        check(&p, TicketLock::new(&p));
        check(&p, RevocableLock::new(&p));
    }

    #[test]
    fn ticket_lock_is_fifo_under_simulation() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 4,
            ..SimConfig::default()
        });
        let platform = sim.platform();
        let lock = Arc::new(TicketLock::new(&platform));
        let order = Arc::new(platform.alloc_cell(0));
        let grants = Arc::new(std::sync::Mutex::new(Vec::new()));
        sim.run({
            let grants = Arc::clone(&grants);
            move |info| {
                for _ in 0..5 {
                    lock.lock(&platform);
                    let seq = order.fetch_add(1);
                    grants.lock().unwrap().push((seq, info.pid));
                    lock.unlock(&platform);
                }
            }
        });
        let mut grants = Arc::try_unwrap(grants).unwrap().into_inner().unwrap();
        grants.sort_unstable();
        assert_eq!(grants.len(), 20);
        // Every process got all 5 of its acquisitions.
        for pid in 0..4 {
            assert_eq!(grants.iter().filter(|&&(_, p)| p == pid).count(), 5);
        }
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
