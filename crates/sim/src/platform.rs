//! [`SimPlatform`] and [`SimCell`]: the `msq_platform::Platform`
//! implementation that routes every operation through the simulator.

use std::ptr::NonNull;
use std::sync::Arc;

use msq_platform::{AtomicWord, CellArray, Platform};

use crate::core::{MemOp, SimShared};

/// Handle to a simulation's memory and clock, implementing
/// [`msq_platform::Platform`].
///
/// Cloning is cheap; clones refer to the same simulated machine. When used
/// from a simulated process (inside [`crate::Simulation::run`]) every
/// operation costs virtual time and participates in the deterministic
/// interleaving; when used outside one (queue construction before the run,
/// result inspection after it, or a process of another simulation)
/// operations apply directly and cost nothing, mirroring the paper's
/// untimed initialization.
///
/// The handle is `Send` and `Sync` for setup and inspection, but while the
/// simulation runs, only its own processes may use it: the thread inside
/// `run` owns the machine, and a call from any other thread panics.
#[derive(Clone)]
pub struct SimPlatform {
    shared: Arc<SimShared>,
}

impl SimPlatform {
    pub(crate) fn new(shared: Arc<SimShared>) -> Self {
        SimPlatform { shared }
    }

    /// The simulation's **death board**: a cell whose bit `pid` is set
    /// the instant the fault layer kills `pid` (watchdog retirements are
    /// *not* posted — a watchdog-flagged process is wedged, not dead,
    /// and nothing deterministic distinguishes the two from inside).
    ///
    /// The cell is allocated lazily on first call (so runs that never
    /// ask keep their cell ids, and therefore traces, unchanged) and is
    /// shared by all callers. Survivors implementing a recovery policy
    /// poll it with ordinary charged loads; the coherence model prices
    /// the polls but never hides the bits.
    pub fn death_board(&self) -> SimCell {
        SimCell::owning(self.shared.death_board(), Arc::clone(&self.shared))
    }
}

impl std::fmt::Debug for SimPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimPlatform({} processors)",
            self.shared.config().processors
        )
    }
}

impl Platform for SimPlatform {
    type Cell = SimCell;

    fn alloc_cell(&self, init: u64) -> SimCell {
        SimCell::owning(self.shared.alloc_cell(init), Arc::clone(&self.shared))
    }

    fn alloc_cells(&self, inits: impl IntoIterator<Item = u64>) -> CellArray<Self> {
        let inits = inits.into_iter();
        // The array before the core's cell table grows, as with one
        // `alloc_cell` per value: the heap layout, and with it the host's
        // page faults, stays what it was.
        let mut cells = Vec::with_capacity(inits.size_hint().0);
        self.shared.alloc_cells(inits, |id| {
            // One count for the whole array, held by its first cell.
            let cell = match cells.first() {
                Some(first) => SimCell::borrowing(id, first),
                None => SimCell::owning(id, Arc::clone(&self.shared)),
            };
            cells.push(cell);
        });
        CellArray::from_cells(cells)
    }

    fn delay(&self, nanos: u64) {
        // Outside the simulation, delay is free: setup time is untimed.
        self.shared.delay(nanos);
    }

    fn cpu_relax(&self) {
        // A failed spin probe that does not touch memory: charge one
        // local-work unit.
        self.shared.delay(1);
    }

    fn jitter_seed(&self) -> u64 {
        // Derived purely from the calling process's identity and its own
        // program order (every switch moves each process's counter in and
        // out of the run record), so the seed sequence is identical on
        // every run.
        let (pid, counter) = self.shared.next_seed();
        let pid = pid.map_or(u64::MAX, |p| p as u64);
        // splitmix64-style finalizer for good bit spread.
        let mut z = pid
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(counter)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn affinity_hint(&self) -> usize {
        // The simulated process id: stable for the process's lifetime and
        // identical on every run, so sharded structures dispatch
        // deterministically. Setup/inspection callers (unbound) all map
        // to 0, which is fine — setup is untimed and single-threaded.
        self.shared.bound().unwrap_or(0)
    }

    fn fault_point(&self, label: &'static str) {
        // Routes to the run's FaultPlan. The shared side prechecks the
        // plan without touching the core, so unwatched processes (and
        // every process of an unfaulted run) take a few instructions and
        // no scheduler interaction — the canonical schedule is untouched.
        self.shared.fault_point(label);
    }

    fn dead_peers(&self) -> u64 {
        // A charged load of the death board: consulting the board is an
        // ordinary shared-memory read, priced like any survivor poll.
        // The board cell is allocated lazily on first use; structures
        // that call this mid-run should touch `death_board()` during
        // untimed setup so cell ids (and traces) stay schedule-stable.
        // Outside a simulated process the read is direct and free.
        let cell = self.shared.death_board();
        self.shared
            .mem_op(cell, MemOp::Load)
            .expect("load is infallible")
    }

    fn mark_recovered(&self, victim: usize) {
        // Stamps a `RecoveryReport` with the victim's death time and the
        // caller's current virtual time. Free, like a fault point: the
        // catch-up work itself was already charged op by op. No-op outside
        // a simulated process.
        self.shared.mark_recovered(victim);
    }

    fn mark_repaired(&self, victim: usize, point: &'static str) {
        // Free, like mark_recovered: the repair's memory traffic was
        // already charged op by op. No-op outside a simulated process.
        self.shared.mark_repaired(victim, point);
    }

    fn now_ns(&self) -> u64 {
        // The calling process's virtual time. Free and token-keeping: a
        // clock read touches no shared memory. The coordinator (setup /
        // inspection) reads 0 — setup is untimed.
        self.shared.now_ns()
    }

    fn record_latency(&self, arrival_ns: u64) {
        // Free, like mark_recovered: the dequeue that surfaced the item
        // was already charged. No-op outside a simulated process.
        self.shared.record_latency(arrival_ns);
    }
}

/// A simulated shared-memory word.
///
/// Operations performed from a simulated process are charged virtual time
/// under the coherence cost model and are serialized by the scheduler;
/// operations from outside a simulated process apply immediately and free
/// of charge. Like [`SimPlatform`], a cell may be used from any thread
/// except while its simulation runs, when only its processes may touch
/// it: a call from another thread then panics.
pub struct SimCell {
    id: u32,
    /// Whether this handle holds a count of the simulation. An array from
    /// [`SimPlatform::alloc_cells`] pays one count, held by its first cell;
    /// the others borrow it. A borrowed handle is reached only through its
    /// [`CellArray`], which lends its cells and never moves one out, so it
    /// is never reached after the first cell is dropped.
    owner: bool,
    /// From [`Arc::into_raw`] in an owning handle; in a borrowed one, a
    /// copy of its array's first cell's pointer.
    shared: NonNull<SimShared>,
}

// SAFETY: `id` and `owner` are plain values. `shared` is only read
// through as a `&SimShared`, or its count released, as an
// `Arc<SimShared>` is, and `SimShared` is `Send + Sync` (checked below).
unsafe impl Send for SimCell {}
unsafe impl Sync for SimCell {}

const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<SimShared>();
};

impl SimCell {
    /// A handle to cell `id` that holds a count of `shared`.
    fn owning(id: u32, shared: Arc<SimShared>) -> Self {
        SimCell {
            id,
            owner: true,
            // SAFETY: `Arc::into_raw` never returns null.
            shared: unsafe { NonNull::new_unchecked(Arc::into_raw(shared).cast_mut()) },
        }
    }

    /// A handle to cell `id` that borrows the count of `first`, the first
    /// cell of the array it is stored in.
    fn borrowing(id: u32, first: &SimCell) -> Self {
        SimCell {
            id,
            owner: false,
            shared: first.shared,
        }
    }

    fn op(&self, op: MemOp) -> Result<u64, u64> {
        // SAFETY: the simulation is alive while this handle can be reached:
        // an owning handle holds a count of it, and a borrowed one is
        // reached only while its array's first cell is (see `owner`).
        let shared = unsafe { self.shared.as_ref() };
        shared.mem_op(self.id, op)
    }
}

impl Drop for SimCell {
    // Inlined into the drop loop of each array's `Vec`, which the caller's
    // crate instantiates: a borrowed handle's drop is one test of `owner`.
    #[inline]
    fn drop(&mut self) {
        if self.owner {
            // SAFETY: an owning handle's pointer came from `Arc::into_raw`,
            // and its count is released here, once.
            unsafe { Arc::decrement_strong_count(self.shared.as_ptr()) }
        }
    }
}

impl std::fmt::Debug for SimCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimCell(#{id})", id = self.id)
    }
}

impl AtomicWord for SimCell {
    fn load(&self) -> u64 {
        self.op(MemOp::Load).expect("load is infallible")
    }

    fn store(&self, value: u64) {
        let _ = self.op(MemOp::Store(value));
    }

    fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.op(MemOp::CompareExchange { current, new })
    }

    fn swap(&self, value: u64) -> u64 {
        self.op(MemOp::Swap(value)).expect("swap is infallible")
    }

    fn fetch_add(&self, delta: u64) -> u64 {
        self.op(MemOp::FetchAdd(delta))
            .expect("fetch_add is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulation};
    use msq_platform::CellRef;

    #[test]
    fn setup_mode_operations_are_direct_and_free() {
        let sim = Simulation::new(SimConfig::default());
        let p = sim.platform();
        let c = p.alloc_cell(4);
        assert_eq!(c.load(), 4);
        c.store(6);
        assert_eq!(c.swap(8), 6);
        assert_eq!(c.compare_exchange(8, 9), Ok(8));
        assert_eq!(c.compare_exchange(1, 2), Err(9));
        assert_eq!(c.fetch_add(1), 9);
        assert_eq!(c.load(), 10);
        // None of that advanced any clock.
        let report = sim.run(|_| {});
        assert_eq!(report.elapsed_ns, 0);
    }

    #[test]
    fn latency_stamps_and_clock_reads_are_free() {
        let sim = Simulation::new(SimConfig::default());
        let p = sim.platform();
        assert_eq!(p.now_ns(), 0, "coordinator clock reads are zero");
        p.record_latency(5); // no-op outside a simulated process
        let report = sim.run({
            let p = p.clone();
            move |_| {
                let before = p.now_ns();
                p.delay(100);
                let after = p.now_ns();
                assert_eq!(after, before + 100);
                // Stamp then re-read: the stamp is free, so the clock
                // must not have moved — the host-side latency equals the
                // report's sample exactly.
                p.record_latency(before);
                assert_eq!(p.now_ns(), after);
            }
        });
        assert_eq!(report.latencies.len(), 1);
        assert_eq!(report.latencies[0].latency_ns(), 100);
        assert_eq!(report.total_ops, 0, "stamps and clock reads are free");
    }

    #[test]
    fn alloc_cells_returns_what_one_alloc_cell_per_value_would() {
        let inits = [3, 1, 4, 1, 5];
        let batched = Simulation::new(SimConfig::default()).platform();
        let single = Simulation::new(SimConfig::default()).platform();
        let lead = (batched.alloc_cell(7), single.alloc_cell(7));
        assert_eq!(lead.0.id, lead.1.id);
        let cells = batched.alloc_cells(inits);
        let one_by_one: Vec<_> = inits.iter().map(|&init| single.alloc_cell(init)).collect();
        let ids = |cells: &[SimCell]| cells.iter().map(|c| c.id).collect::<Vec<_>>();
        let stored = cells
            .as_cells()
            .expect("the simulator stores its own cells");
        assert_eq!(ids(stored), ids(&one_by_one));
        let values: Vec<u64> = cells.iter().map(CellRef::load).collect();
        assert_eq!(values, inits);
        assert_eq!(batched.alloc_cell(0).id, single.alloc_cell(0).id);
    }

    #[test]
    fn an_array_takes_one_count_and_a_singleton_one() {
        let p = Simulation::new(SimConfig::default()).platform();
        let count = || Arc::strong_count(&p.shared);
        let base = count();
        let array = p.alloc_cells([1, 2, 3, 4]);
        assert_eq!(count(), base + 1, "one count for four cells");
        let empty = p.alloc_cells(std::iter::empty());
        assert_eq!(count(), base + 1, "an empty array holds none");
        let single = p.alloc_cell(5);
        let board = p.death_board();
        assert_eq!(count(), base + 3);
        let stored = array.as_cells().expect("simulator cells");
        assert!(stored[0].owner && stored[1..].iter().all(|c| !c.owner));
        drop(array);
        assert_eq!(count(), base + 2);
        drop((empty, single, board));
        assert_eq!(count(), base);
    }

    #[test]
    fn array_cells_outlive_the_run_and_the_platform() {
        let sim = Simulation::new(SimConfig {
            processors: 3,
            ..SimConfig::default()
        });
        let platform = sim.platform();
        let shared = Arc::downgrade(&platform.shared);
        let array = Arc::new(platform.alloc_cells([1, 2, 3, 4]));
        drop(platform);
        sim.run({
            let array = Arc::clone(&array);
            move |info| {
                array.get(info.pid).fetch_add(10);
            }
        });
        assert_eq!(
            shared.strong_count(),
            1,
            "the array's first cell holds the last count"
        );
        assert_eq!(
            array.iter().map(CellRef::load).collect::<Vec<_>>(),
            [11, 12, 13, 4]
        );
        for (i, cell) in array.iter().enumerate() {
            cell.store(i as u64);
            assert_eq!(cell.swap(7), i as u64);
        }
        let stored = array.as_cells().expect("simulator cells");
        assert!(stored.iter().all(|c| c.load() == 7));
        drop(array);
        assert_eq!(shared.strong_count(), 0);
    }

    #[test]
    fn alloc_cells_inside_a_run_gives_each_value_an_id() {
        let sim = Simulation::new(SimConfig::default());
        let p = sim.platform();
        sim.run(move |_| {
            let base = Arc::strong_count(&p.shared);
            // Each value allocates a cell of its own first, so the array's
            // ids are not a range.
            let cells = p.alloc_cells((0..3).inspect(|_| drop(p.alloc_cell(0))));
            let stored = cells.as_cells().expect("simulator cells");
            assert_eq!(stored.iter().map(|c| c.id).collect::<Vec<_>>(), [1, 3, 5]);
            assert!(stored[0].owner && stored[1..].iter().all(|c| !c.owner));
            assert_eq!(Arc::strong_count(&p.shared), base + 1);
            assert_eq!(
                cells.iter().map(CellRef::load).collect::<Vec<_>>(),
                [0, 1, 2]
            );
            drop(cells);
            assert_eq!(Arc::strong_count(&p.shared), base);
        });
    }

    #[test]
    fn alloc_cells_of_nothing_allocates_nothing() {
        let p = Simulation::new(SimConfig::default()).platform();
        assert!(p.alloc_cells(std::iter::empty()).is_empty());
        assert_eq!(p.alloc_cell(0).id, 0);
    }

    #[test]
    fn alloc_cells_inside_a_process_is_untimed() {
        let run = |batched: bool| {
            let sim = Simulation::new(SimConfig::default());
            let p = sim.platform();
            let counter = std::sync::Arc::new(p.alloc_cell(0));
            sim.run({
                let counter = std::sync::Arc::clone(&counter);
                move |_| {
                    counter.fetch_add(1);
                    let cells = if batched {
                        p.alloc_cells([2, 4, 6])
                    } else {
                        CellArray::from_cells([2, 4, 6].map(|init| p.alloc_cell(init)).into())
                    };
                    let ids = cells.as_cells().expect("simulator cells");
                    assert_eq!(ids.iter().map(|c| c.id).collect::<Vec<_>>(), [1, 2, 3]);
                    counter.fetch_add(1);
                }
            })
        };
        let (batched, single) = (run(true), run(false));
        assert_eq!(batched.total_ops, 2, "allocation is not an op");
        assert_eq!(batched.elapsed_ns, single.elapsed_ns);
        assert_eq!(format!("{batched:?}"), format!("{single:?}"));
    }

    #[test]
    fn alloc_cells_from_another_thread_during_a_run_panics() {
        let sim = Simulation::new(SimConfig {
            processors: 2,
            ..SimConfig::default()
        });
        let p = sim.platform();
        let cell = std::sync::Arc::new(p.alloc_cell(0));
        sim.run({
            let cell = std::sync::Arc::clone(&cell);
            move |info| {
                cell.fetch_add(1);
                if info.pid == 1 {
                    let joined = std::thread::scope(|s| {
                        s.spawn(|| p.alloc_cells(std::iter::repeat_n(0, 3))).join()
                    });
                    let payload = joined.expect_err("an allocation from another thread must panic");
                    let message = payload.downcast_ref::<&str>().expect("a literal message");
                    assert!(message.contains("single-owner rule"), "{message}");
                }
            }
        });
        assert_eq!(cell.load(), 2);
    }

    #[test]
    fn alloc_cells_whose_values_use_the_platform_panics_during_setup() {
        let p = Simulation::new(SimConfig::default()).platform();
        let nested = std::panic::catch_unwind(|| {
            p.alloc_cells((0..3).inspect(|_| {
                p.alloc_cell(0);
            }))
        });
        let payload = nested.expect_err("a nested allocation during setup must panic");
        let message = payload.downcast_ref::<&str>().expect("a literal message");
        assert!(message.contains("`alloc_cells`"), "{message}");
    }

    #[test]
    fn alloc_cells_whose_values_use_the_platform_works_inside_a_process() {
        let sim = Simulation::new(SimConfig {
            processors: 2,
            ..SimConfig::default()
        });
        let p = sim.platform();
        let counter = std::sync::Arc::new(p.alloc_cell(0));
        sim.run({
            let (p, counter) = (p.clone(), std::sync::Arc::clone(&counter));
            move |_| {
                // Each value takes a timed op, which may pass the token to
                // the other process, and an allocation of its own.
                let cells = p.alloc_cells((0..3).map(|i| {
                    counter.fetch_add(1);
                    p.alloc_cell(i).load() + 10
                }));
                assert_eq!(
                    cells.iter().map(CellRef::load).collect::<Vec<_>>(),
                    [10, 11, 12]
                );
            }
        });
        assert_eq!(counter.load(), 6);
        assert_eq!(p.alloc_cell(0).id, 13, "one counter and 2 x 6 cells");
    }

    #[test]
    fn simulated_operations_cost_time() {
        let sim = Simulation::new(SimConfig::default());
        let c = std::sync::Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let c = std::sync::Arc::clone(&c);
            move |_| {
                c.store(3);
            }
        });
        assert_eq!(c.load(), 3);
        assert!(report.elapsed_ns > 0);
        assert_eq!(report.total_ops, 1);
    }
}
