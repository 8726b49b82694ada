//! [`RevocableLock`]: a spin lock whose holder can be declared dead and
//! dispossessed, and [`RepairMode`]: the type parameter that turns the
//! blocking queues' crash repair on.
//!
//! The paper's blocking queues wedge forever when a lock holder dies
//! (DESIGN.md §11): the lock word stays set and every waiter spins until
//! the watchdog retires it. A revocable lock closes that hole by
//! recording *who* holds the lock inside the lock word itself. A waiter
//! that has spun past a bounded probe budget consults
//! [`Platform::dead_peers`] — the simulator's death board, or the empty
//! set natively — and, if the recorded holder is provably dead, CASes
//! the word from `held(dead)` to `repairing(self)`. The successful
//! revoker enters the critical section knowing the invariant may be
//! torn mid-operation; it runs the owning structure's repair routine
//! before doing anything else. The single-lock, two-lock and
//! Mellor-Crummey queues run that protocol in [`Repair`] mode.
//!
//! Safety of the `held(dead) → repairing(self)` transition:
//!
//! * The holder id is written *atomically with* the acquisition (one
//!   CAS installs both), so the word never names a stale holder.
//! * Death notices are monotonic — a dead process never runs again —
//!   so a waiter that observes `held(p)` with `p` on the death board
//!   knows `p` died inside the critical section and cannot race the
//!   revocation.
//! * Competing revokers CAS against the same observed word; exactly one
//!   wins, and the losers re-observe `repairing(winner)` and go back to
//!   spinning (the winner is alive and will unlock).
//! * A revoker that *itself* dies mid-repair leaves
//!   `repairing(dead)` — which names a dead holder and is revocable by
//!   the same rule, so repair responsibility cannot be lost.

use msq_platform::{AtomicWord, Backoff, BackoffConfig, Platform};

use crate::{RawLock, TtasLock};

/// Lock-word state tags (upper byte; the low 56 bits carry the holder
/// id). `FREE` is the whole word, so an unlocked lock is all-zeros —
/// the same resting state as every other lock in this crate.
const FREE: u64 = 0;
const HELD_TAG: u64 = 1 << 56;
const REPAIRING_TAG: u64 = 2 << 56;
const ID_MASK: u64 = (1 << 56) - 1;

/// How a [`RawLock::lock`] call obtained the lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acquired {
    /// The lock was taken from the free state: the protected invariant
    /// is intact.
    Clean,
    /// The lock was *revoked* from the named dead holder: the caller
    /// must repair the protected structure before relying on its
    /// invariant (the victim died somewhere inside the critical
    /// section).
    Repairing {
        /// The dead process the lock was seized from.
        victim: usize,
    },
}

/// A mutual-exclusion spin lock that records its holder's identity and
/// lets waiters revoke it from a provably dead holder.
///
/// The holder id is [`Platform::affinity_hint`] — the simulated process
/// id under `msq-sim`, a stable per-thread token natively. Revocation
/// consults [`Platform::dead_peers`], which natively reports nobody
/// dead: on real hardware this lock degrades to a plain CAS spin lock
/// with an inert holder field.
pub struct RevocableLock<P: Platform> {
    word: P::Cell,
    backoff: BackoffConfig,
    /// Failed spin probes between consultations of the death board.
    probe_budget: u32,
}

impl<P: Platform> RevocableLock<P> {
    /// Failed probes a waiter tolerates before suspecting the holder.
    /// Small enough that a dead holder is detected within a handful of
    /// cache misses, large enough that the death board is not hammered
    /// on ordinary contention.
    pub const DEFAULT_PROBE_BUDGET: u32 = 8;

    /// Creates an unlocked lock with default backoff and probe budget.
    pub fn new(platform: &P) -> Self {
        Self::with_backoff(platform, BackoffConfig::DEFAULT)
    }

    /// Creates an unlocked lock with explicit backoff parameters.
    pub fn with_backoff(platform: &P, backoff: BackoffConfig) -> Self {
        RevocableLock {
            word: platform.alloc_cell(FREE),
            backoff,
            probe_budget: Self::DEFAULT_PROBE_BUDGET,
        }
    }
}

impl<P: Platform> RawLock<P> for RevocableLock<P> {
    /// Acquires the lock, spinning until it is free — or until its
    /// recorded holder is found dead, in which case the lock is seized
    /// and [`Acquired::Repairing`] names the victim whose torn critical
    /// section the caller must repair.
    fn lock(&self, platform: &P) -> Acquired {
        let me = HELD_TAG | (platform.affinity_hint() as u64 & ID_MASK);
        let mut backoff = Backoff::new(self.backoff);
        let mut probes = 0u32;
        loop {
            let observed = self.word.load();
            if observed == FREE {
                if self.word.cas(FREE, me) {
                    return Acquired::Clean;
                }
                backoff.spin(platform);
                continue;
            }
            probes += 1;
            if probes >= self.probe_budget {
                probes = 0;
                let holder = (observed & ID_MASK) as usize;
                if holder < 64 && platform.dead_peers() & (1 << holder) != 0 {
                    // The holder (or a failed repairer) died inside the
                    // critical section. Seize the lock; on success the
                    // caller owns both the lock and the repair duty.
                    if self.word.cas(observed, REPAIRING_TAG | (me & ID_MASK)) {
                        return Acquired::Repairing { victim: holder };
                    }
                    // Lost the revocation race (or the word moved on);
                    // re-observe without burning backoff.
                    continue;
                }
            }
            backoff.spin(platform);
        }
    }

    /// Releases the lock (valid from both the held and the repairing
    /// state — a completed repair releases like any critical section).
    fn unlock(&self, _platform: &P) {
        self.word.store(FREE);
    }
}

/// Whether a blocking queue runs the crash-repair protocol of DESIGN.md
/// §13.
///
/// `SingleLockQueue`, `WordTwoLockQueue` and `McQueue` take a mode
/// parameter that defaults to [`Plain`], the paper's queue: a process
/// that dies inside its critical window wedges every survivor. In
/// [`Repair`] mode each TTAS lock becomes a [`RevocableLock`] and the
/// queue publishes its in-flight operation in protocol cells — intent
/// cells for the lock queues, per-process announce cells for
/// Mellor-Crummey — so a survivor can complete or roll back a dead
/// process's operation and stamp it with [`Platform::mark_repaired`].
///
/// A queue branches on [`RepairMode::REPAIR`] only where the two op
/// sequences differ, so the plain instance issues exactly the
/// shared-memory ops it always did and carries no repair state.
pub trait RepairMode<P: Platform>: Send + Sync + 'static {
    /// Whether the queue publishes its in-flight operations and repairs
    /// those of dead processes.
    const REPAIR: bool;
    /// The lock guarding each critical section.
    type Lock: RawLock<P>;
    /// The protocol cells: `()` in plain mode.
    type Cells: Send + Sync;

    /// Creates an unlocked lock with the given backoff.
    fn new_lock(platform: &P, backoff: BackoffConfig) -> Self::Lock;

    /// Allocates `count` protocol cells, each holding 0 (none in plain
    /// mode).
    fn alloc_cells(platform: &P, count: usize) -> Self::Cells;

    /// The protocol cells, in allocation order (empty in plain mode).
    fn cells(cells: &Self::Cells) -> &[P::Cell];
}

/// The paper's blocking queue: a TTAS lock and no repair state.
#[derive(Debug)]
pub enum Plain {}

/// The crash-survivable blocking queue: revocable locks plus intent or
/// announce cells.
#[derive(Debug)]
pub enum Repair {}

impl<P: Platform> RepairMode<P> for Plain {
    const REPAIR: bool = false;
    type Lock = TtasLock<P>;
    type Cells = ();

    fn new_lock(platform: &P, backoff: BackoffConfig) -> TtasLock<P> {
        TtasLock::with_backoff(platform, backoff)
    }

    fn alloc_cells(_platform: &P, _count: usize) {}

    fn cells(_cells: &()) -> &[P::Cell] {
        &[]
    }
}

impl<P: Platform> RepairMode<P> for Repair {
    const REPAIR: bool = true;
    type Lock = RevocableLock<P>;
    type Cells = Vec<P::Cell>;

    fn new_lock(platform: &P, backoff: BackoffConfig) -> RevocableLock<P> {
        RevocableLock::with_backoff(platform, backoff)
    }

    fn alloc_cells(platform: &P, count: usize) -> Vec<P::Cell> {
        // One padded cell per slot, not a dense `Platform::alloc_cells`
        // array: different processes write neighbouring slots. Under the
        // simulator the ids are the same either way.
        (0..count).map(|_| platform.alloc_cell(0)).collect()
    }

    fn cells(cells: &Vec<P::Cell>) -> &[P::Cell] {
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_sim::{FaultPlan, SimConfig, Simulation};
    use std::sync::Arc;

    /// The headline property: a holder killed inside its critical
    /// section is detected via the death board, its lock revoked, and
    /// the revoker — not the watchdog — ends the stall. The repair
    /// stamp lands in the report.
    #[test]
    fn dead_holders_lock_is_revoked_by_a_waiter() {
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 3,
                watchdog_ns: 400_000_000,
                ..SimConfig::default()
            },
            FaultPlan::new().kill_at_label(0, "revocable:test:cs", 0),
        );
        let platform = sim.platform();
        // Untimed setup: fix the death board's cell id before the run.
        let _ = platform.death_board();
        let lock = Arc::new(RevocableLock::new(&platform));
        let shared = Arc::new(platform.alloc_cell(0));
        let revocations = Arc::new(std::sync::Mutex::new(Vec::new()));
        let report = sim.run({
            let lock = Arc::clone(&lock);
            let shared = Arc::clone(&shared);
            let revocations = Arc::clone(&revocations);
            move |info| {
                for _ in 0..10u64 {
                    match lock.lock(&platform) {
                        Acquired::Clean => {}
                        Acquired::Repairing { victim } => {
                            revocations.lock().unwrap().push((info.pid, victim));
                            platform.mark_repaired(victim, "revocable:test:repaired");
                        }
                    }
                    let v = shared.load();
                    platform.fault_point("revocable:test:cs");
                    shared.store(v + 1);
                    lock.unlock(&platform);
                }
            }
        });
        assert_eq!(report.killed, vec![0], "the in-lock kill fired");
        assert!(
            report.blocked.is_empty(),
            "revocation must beat the watchdog: {:?}",
            report.blocked
        );
        let revocations = revocations.lock().unwrap();
        assert_eq!(
            revocations.len(),
            1,
            "exactly one waiter wins the revocation: {revocations:?}"
        );
        assert_eq!(revocations[0].1, 0, "the victim is the dead holder");
        assert_eq!(report.repairs.len(), 1);
        assert_eq!(report.repairs[0].victim, 0);
        assert_eq!(report.repairs[0].point, "revocable:test:repaired");
        assert!(report.repairs[0].time_to_repair_ns() > 0);
        // The victim died between its load and store: its increment is
        // lost, every survivor increment landed.
        assert_eq!(shared.load(), 2 * 10, "both survivors ran all 10 CSes");
    }

    /// Without a death, the revocation path is never taken and the lock
    /// behaves exactly like a spin lock under simulated contention.
    #[test]
    fn no_death_means_no_revocation_under_simulation() {
        let sim = Simulation::new(SimConfig {
            processors: 3,
            ..SimConfig::default()
        });
        let platform = sim.platform();
        let _ = platform.death_board();
        let lock = Arc::new(RevocableLock::new(&platform));
        let shared = Arc::new(platform.alloc_cell(0));
        sim.run({
            let lock = Arc::clone(&lock);
            let shared = Arc::clone(&shared);
            move |_| {
                for _ in 0..50 {
                    assert_eq!(lock.lock(&platform), Acquired::Clean);
                    let v = shared.load();
                    shared.store(v + 1);
                    lock.unlock(&platform);
                }
            }
        });
        assert_eq!(shared.load(), 3 * 50, "mutual exclusion held");
    }
}
