//! The [`AtomicWord`] operation set and the [`Platform`] factory trait.

use crate::array::CellArray;

/// A single 64-bit shared-memory word supporting the atomic primitives used
/// by every algorithm in the reproduction.
///
/// The operation set mirrors what Michael & Scott emulated with
/// `load_linked`/`store_conditional` on the SGI Challenge:
/// `compare_and_swap` (for the non-blocking queues), `fetch_and_store`
/// a.k.a. swap (for Mellor-Crummey's queue), `fetch_and_add` (Valois
/// reference counts, segment slot claims), and `test_and_set` (spin locks).
///
/// All operations are sequentially consistent. The paper reasons about an
/// SC machine, and the simulator executes one operation at a time in virtual
/// time order, so SC is both faithful and the only sensible contract here.
/// (The idiomatic heap-allocated queues in `msq-core` use weaker orderings;
/// they do not go through this trait.)
pub trait AtomicWord: Send + Sync + 'static {
    /// Atomically reads the word.
    fn load(&self) -> u64;

    /// Atomically writes the word.
    fn store(&self, value: u64);

    /// Atomic compare-and-swap: if the word equals `current`, replace it
    /// with `new`.
    ///
    /// # Errors
    ///
    /// Returns `Ok(current)` on success and `Err(actual)` with the observed
    /// value on failure, matching `AtomicU64::compare_exchange`.
    fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64>;

    /// Atomic `fetch_and_store`: writes `value`, returns the previous value.
    fn swap(&self, value: u64) -> u64;

    /// Atomic `fetch_and_add` (wrapping), returning the previous value.
    fn fetch_add(&self, delta: u64) -> u64;

    /// Atomic `fetch_and_sub` (wrapping), returning the previous value.
    fn fetch_sub(&self, delta: u64) -> u64 {
        self.fetch_add(delta.wrapping_neg())
    }

    /// `test_and_set`: atomically sets the word to 1 and reports whether it
    /// was already non-zero (i.e. `true` means the "lock" was already held).
    fn test_and_set(&self) -> bool {
        self.swap(1) != 0
    }

    /// Boolean-flavoured CAS for call sites that do not need the witness.
    fn cas(&self, current: u64, new: u64) -> bool {
        self.compare_exchange(current, new).is_ok()
    }
}

/// Factory for shared cells plus the execution-environment services the
/// algorithms need (pure delay for backoff / "other work", and a spin hint).
///
/// Implementations: [`crate::NativePlatform`] (real atomics, wall-clock
/// delays) and `msq_sim::SimPlatform` (simulated memory, virtual-time
/// delays).
///
/// Platforms are cheap handles (`Clone`): data structures store one so
/// their internal retry loops can issue backoff delays.
pub trait Platform: Clone + Send + Sync + Sized + 'static {
    /// The shared-cell type produced by this platform.
    type Cell: AtomicWord;

    /// Allocates a new shared cell holding `init`.
    ///
    /// Allocation is a *setup-time* operation: the experiments pre-allocate
    /// every node before timing starts, so implementations do not charge
    /// simulated time for it.
    fn alloc_cell(&self, init: u64) -> Self::Cell;

    /// Allocates one word per value of `inits`, in order, as one
    /// [`CellArray`].
    ///
    /// Node pools, segment slots and ring buffers allocate their words as
    /// arrays through this method; hot singletons (`Head`, `Tail`, lock
    /// words, free-list tops) take one [`Platform::alloc_cell`] each. The
    /// default stores the cells that one `alloc_cell` call per value
    /// returns. The simulator stores the same cells, with the same ids,
    /// but takes its core lock once per array during setup, where an
    /// `inits` that uses the platform panics. The native platform stores
    /// dense, unpadded words. Like `alloc_cell` it is untimed.
    fn alloc_cells(&self, inits: impl IntoIterator<Item = u64>) -> CellArray<Self> {
        CellArray::from_cells(
            inits
                .into_iter()
                .map(|init| self.alloc_cell(init))
                .collect(),
        )
    }

    /// Burns `nanos` nanoseconds without touching shared memory.
    ///
    /// Used for bounded exponential backoff and for the workload's ~6 µs
    /// "other work" loop. On the native platform this spins on the
    /// monotonic clock; in the simulator it advances the calling process's
    /// virtual clock.
    fn delay(&self, nanos: u64);

    /// A single spin-wait pause (native: `std::hint::spin_loop`; simulated:
    /// a small fixed virtual-time charge).
    fn cpu_relax(&self);

    /// A seed for randomized backoff jitter.
    ///
    /// The default draws from a global atomic sequence, which is fine
    /// natively. The simulator overrides this with a value derived from
    /// the calling *process's own* program order, because a global
    /// sequence observed from concurrently-running worker threads would
    /// make simulated runs irreproducible.
    fn jitter_seed(&self) -> u64 {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0x243f_6a88_85a3_08d3);
        SEQ.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
    }

    /// A small stable integer identifying the calling execution context,
    /// used by sharded structures to pick a home shard (`hint % shards`).
    ///
    /// Contract: the hint must be stable for the lifetime of the calling
    /// thread/process and should differ between concurrently-running
    /// contexts so they spread across shards. It carries no ordering or
    /// uniqueness guarantee beyond that.
    ///
    /// The default hands each OS thread the next value of a global
    /// counter on first use. The simulator overrides this with the
    /// simulated process id, which keeps shard assignment deterministic
    /// across runs regardless of host-thread scheduling.
    fn affinity_hint(&self) -> usize {
        affinity_hint_default()
    }

    /// Marks a labelled *fault point*: a spot inside an algorithm where a
    /// scheduler-induced fault (stall, preemption, death) is interesting —
    /// typically the window between an operation's linearization step and
    /// the cleanup that follows it, or the body of a critical section.
    ///
    /// The contract is "may not return": a fault plan can stall the caller
    /// for virtual time, preempt it, or kill its process outright (by
    /// unwinding). Algorithms therefore must be in a *legal shared state*
    /// at every fault point — exactly the states the paper reasons about
    /// when it argues non-blocking progress.
    ///
    /// The default (and the native platform's behaviour) is a no-op, so
    /// fault points cost nothing outside the simulator. `msq_sim`'s
    /// platform routes them to the active `FaultPlan`, if any.
    fn fault_point(&self, label: &'static str) {
        let _ = label;
    }

    /// A bitmask of peer execution contexts known to be *dead* (bit `p` set
    /// means context `p` died and will never run again).
    ///
    /// Revocable locks consult this before seizing a lock from an
    /// unresponsive holder: revocation is only sound when the holder is
    /// provably dead, never merely slow. Natively there is no death notice
    /// — threads either run or the whole process is gone — so the default
    /// reports *nobody dead*, which makes revocation unreachable and the
    /// revocable lock behave exactly like a plain spin lock. The simulator
    /// overrides this with a (charged) read of its death board.
    fn dead_peers(&self) -> u64 {
        0
    }

    /// Records that the caller revoked a dead peer's lock and repaired the
    /// structure it protected, restoring the invariant torn at fault point
    /// `point`.
    ///
    /// Mirrors the recovery handoff (`mark_recovered`): purely an
    /// observability stamp, free of shared-memory traffic. The default is a
    /// no-op; the simulator stamps a `RepairReport` into its `SimReport`.
    fn mark_repaired(&self, victim: usize, point: &'static str) {
        let _ = (victim, point);
    }

    /// Records that the caller absorbed dead peer `victim`'s remaining
    /// work share (the restart-and-catch-up recovery handoff).
    ///
    /// Purely an observability stamp, free of shared-memory traffic, like
    /// [`Platform::mark_repaired`]. The default is a no-op — natively
    /// nobody is ever reported dead ([`Platform::dead_peers`]), so the
    /// handoff is unreachable — while the simulator stamps a
    /// `RecoveryReport` into its `SimReport`.
    fn mark_recovered(&self, victim: usize) {
        let _ = victim;
    }

    /// The caller's current time in nanoseconds, on whatever clock the
    /// platform runs: virtual time for the simulator, monotonic wall
    /// clock (measured from a process-wide epoch) natively. Open-loop
    /// workloads use it to pace arrival schedules and to timestamp
    /// enqueue-to-dequeue latency; the two uses only need the clock to be
    /// consistent within one run, never across platforms.
    fn now_ns(&self) -> u64 {
        native_epoch_ns()
    }

    /// Records one enqueue-to-dequeue latency sample: the caller consumed
    /// an item whose producer stamped it with `arrival_ns` (on this
    /// platform's [`Platform::now_ns`] clock).
    ///
    /// Purely an observability stamp, free of shared-memory traffic. The
    /// default is a no-op — native harnesses collect samples host-side —
    /// while the simulator appends a `LatencySample` to its `SimReport`
    /// so virtual-time percentiles survive into the report.
    fn record_latency(&self, arrival_ns: u64) {
        let _ = arrival_ns;
    }
}

/// Nanoseconds since a process-wide monotonic epoch (fixed at first use),
/// the default [`Platform::now_ns`] clock.
fn native_epoch_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn affinity_hint_default() -> usize {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT_TOKEN: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static TOKEN: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    TOKEN.with(|token| {
        if token.get() == usize::MAX {
            token.set(NEXT_TOKEN.fetch_add(1, Ordering::Relaxed));
        }
        token.get()
    })
}
