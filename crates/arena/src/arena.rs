//! [`NodeArena`]: fixed-capacity nodes + Treiber-stack free list.

use std::sync::Arc;

use msq_platform::{AtomicWord, CellArray, Platform, Tagged, NULL_INDEX};

use crate::budget::MemBudget;

/// A fixed pool of list nodes shared by one concurrent data structure.
///
/// Each node is a pair of shared words:
///
/// * a **value** word (opaque `u64` payload), and
/// * a **next** word holding a [`Tagged`] `{index, modification-counter}`
///   pair, used both as the linked-list link while a node is in a queue and
///   as the stack link while it sits on the free list — the same reuse the
///   paper's C implementation performs.
///
/// [`NodeArena::alloc`] and [`NodeArena::free`] are lock-free (Treiber's
/// stack with ABA counters in the top-of-stack word).
///
/// # Example
///
/// ```
/// use msq_arena::NodeArena;
/// use msq_platform::NativePlatform;
///
/// let platform = NativePlatform::new();
/// let arena = NodeArena::new(&platform, 4, None);
/// let node = arena.alloc().expect("fresh arena has free nodes");
/// arena.set_value(node, 42);
/// assert_eq!(arena.value(node), 42);
/// arena.free(node);
/// ```
pub struct NodeArena<P: Platform> {
    values: CellArray<P>,
    nexts: CellArray<P>,
    free_top: P::Cell,
    capacity: u32,
    /// Budget the whole pool is accounted against (one unit per node,
    /// reserved for the arena's lifetime), if any.
    budget: Option<Arc<MemBudget<P>>>,
}

impl<P: Platform> NodeArena<P> {
    /// Creates an arena of `capacity` nodes, all initially free, metering
    /// the pool against `budget` if one is given.
    ///
    /// The budget is the one the caller passes; an arena never falls back
    /// on [`MemBudget::global`]. The whole `capacity` is preallocated and
    /// resident for the arena's lifetime, so that many units are reserved
    /// up front (one per node) and released when the arena drops. The
    /// constructor is infallible, so the reservation uses
    /// [`MemBudget::force_reserve`]: an arena larger than the remaining
    /// budget is *counted as an overrun*, not denied — the paper's queues
    /// preallocate their free lists unconditionally, and the budget's job
    /// here is to make that residency visible in the caller's counters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or does not fit in a [`Tagged`] index.
    pub fn new(platform: &P, capacity: u32, budget: Option<Arc<MemBudget<P>>>) -> Self {
        assert!(capacity > 0, "arena capacity must be positive");
        assert!(capacity < NULL_INDEX, "capacity must fit a tagged index");
        if let Some(budget) = &budget {
            budget.force_reserve(u64::from(capacity));
        }
        let values = platform.alloc_cells(std::iter::repeat_n(0, capacity as usize));
        // Thread the free list: node i links to i + 1, the last to NULL.
        let nexts = platform.alloc_cells((0..capacity).map(|i| {
            let next = if i + 1 < capacity { i + 1 } else { NULL_INDEX };
            Tagged::new(next, 0).raw()
        }));
        let free_top = platform.alloc_cell(Tagged::new(0, 0).raw());
        NodeArena {
            values,
            nexts,
            free_top,
            capacity,
            budget,
        }
    }

    /// The budget this arena is metered against, if any.
    pub fn budget(&self) -> Option<&Arc<MemBudget<P>>> {
        self.budget.as_ref()
    }

    /// Number of nodes in the pool.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Pops a node index off the free list (Treiber pop), or `None` if the
    /// pool is exhausted. Lock-free.
    ///
    /// The returned node's `next` and `value` words hold stale contents;
    /// callers initialize them (Figure 1 lines E1–E3).
    pub fn alloc(&self) -> Option<u32> {
        loop {
            let top = Tagged::from_raw(self.free_top.load());
            if top.is_null() {
                return None;
            }
            // Reading the next link of the would-be-popped node is safe even
            // if it is concurrently popped and reused: the CAS below fails
            // (counter mismatch) and we retry.
            let next = Tagged::from_raw(self.nexts.get(top.index() as usize).load());
            if self
                .free_top
                .cas(top.raw(), top.with_index(next.index()).raw())
            {
                return Some(top.index());
            }
            // Retry pressure on the free list is far below that on the
            // queue ends (the paper applies backoff to the queues, not the
            // free list); a bare spin hint suffices. Under simulation each
            // retry already pays memory-op costs, so progress is charged.
            std::hint::spin_loop();
        }
    }

    /// Pushes `node` back onto the free list (Treiber push). Lock-free.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `node` is out of range.
    pub fn free(&self, node: u32) {
        debug_assert!(node < self.capacity);
        loop {
            let top = Tagged::from_raw(self.free_top.load());
            self.set_next(node, top.index());
            if self.free_top.cas(top.raw(), top.with_index(node).raw()) {
                return;
            }
            std::hint::spin_loop();
        }
    }

    /// Reads a node's value word.
    pub fn value(&self, node: u32) -> u64 {
        self.values.get(node as usize).load()
    }

    /// Writes a node's value word.
    pub fn set_value(&self, node: u32, value: u64) {
        self.values.get(node as usize).store(value)
    }

    /// Reads a node's next word.
    pub fn next(&self, node: u32) -> Tagged {
        Tagged::from_raw(self.nexts.get(node as usize).load())
    }

    /// Points `node`'s next word at `to` (or [`NULL_INDEX`]), preserving the
    /// word's modification counter by bumping it — so an in-flight CAS by
    /// another process keyed to the old contents cannot spuriously succeed.
    pub fn set_next(&self, node: u32, to: u32) {
        let old = Tagged::from_raw(self.nexts.get(node as usize).load());
        self.nexts
            .get(node as usize)
            .store(old.with_index(to).raw());
    }

    /// CAS on `node`'s next word: installs `<to, expected.tag + 1>` if the
    /// word still equals `expected` (Figure 1 line E9).
    pub fn cas_next(&self, node: u32, expected: Tagged, to: u32) -> bool {
        self.nexts
            .get(node as usize)
            .cas(expected.raw(), expected.with_index(to).raw())
    }
}

impl<P: Platform> Drop for NodeArena<P> {
    fn drop(&mut self) {
        // Credit the pool back only now that no node can be reached: the
        // arena owns every cell, so dropping it is the unreachability proof
        // the budget discipline requires.
        if let Some(budget) = &self.budget {
            budget.release(u64::from(self.capacity));
        }
    }
}

impl<P: Platform> std::fmt::Debug for NodeArena<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeArena(capacity={})", self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::NativePlatform;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn arena(capacity: u32) -> NodeArena<NativePlatform> {
        NodeArena::new(&NativePlatform::new(), capacity, None)
    }

    #[test]
    fn allocates_every_node_exactly_once() {
        let a = arena(8);
        let mut seen = HashSet::new();
        for _ in 0..8 {
            let n = a.alloc().expect("has capacity");
            assert!(seen.insert(n), "double allocation of {n}");
            assert!(n < 8);
        }
        assert_eq!(a.alloc(), None, "exhausted arena must refuse");
    }

    #[test]
    fn freed_nodes_are_reused() {
        let a = arena(2);
        let n1 = a.alloc().unwrap();
        let n2 = a.alloc().unwrap();
        assert_eq!(a.alloc(), None);
        a.free(n1);
        assert_eq!(a.alloc(), Some(n1), "LIFO reuse");
        a.free(n2);
        a.free(n1);
        assert_eq!(a.alloc(), Some(n1));
        assert_eq!(a.alloc(), Some(n2));
    }

    #[test]
    fn value_and_next_round_trip() {
        let a = arena(3);
        let n = a.alloc().unwrap();
        a.set_value(n, 999);
        assert_eq!(a.value(n), 999);
        a.set_next(n, NULL_INDEX);
        assert!(a.next(n).is_null());
        a.set_next(n, 2);
        assert_eq!(a.next(n).index(), 2);
    }

    #[test]
    fn set_next_bumps_the_counter() {
        let a = arena(2);
        let n = a.alloc().unwrap();
        let before = a.next(n).tag();
        a.set_next(n, NULL_INDEX);
        assert_eq!(a.next(n).tag(), before.wrapping_add(1));
    }

    #[test]
    fn cas_next_requires_exact_tagged_match() {
        let a = arena(4);
        let n = a.alloc().unwrap();
        a.set_next(n, NULL_INDEX);
        let current = a.next(n);
        // Stale tag must fail even with the right index.
        let stale = Tagged::new(current.index(), current.tag().wrapping_sub(1));
        assert!(!a.cas_next(n, stale, 2));
        assert!(a.cas_next(n, current, 2));
        assert_eq!(a.next(n).index(), 2);
        assert_eq!(a.next(n).tag(), current.tag().wrapping_add(1));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        arena(0);
    }

    #[test]
    fn concurrent_alloc_free_conserves_nodes() {
        let a = Arc::new(arena(64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_000 {
                    if let Some(n) = a.alloc() {
                        // Touch the node to shake out aliasing bugs.
                        a.set_value(n, u64::from(n) + 1);
                        assert_eq!(a.value(n), u64::from(n) + 1);
                        a.free(n);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All nodes must be back: drain exactly `capacity` then None.
        let mut count = 0;
        let mut seen = HashSet::new();
        while let Some(n) = a.alloc() {
            assert!(seen.insert(n), "node {n} on free list twice");
            count += 1;
        }
        assert_eq!(count, 64);
    }

    #[test]
    fn concurrent_allocators_never_share_a_node() {
        let a = Arc::new(arena(32));
        let taken: Arc<Vec<std::sync::atomic::AtomicU32>> = Arc::new(
            (0..32)
                .map(|_| std::sync::atomic::AtomicU32::new(0))
                .collect(),
        );
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = Arc::clone(&a);
            let taken = Arc::clone(&taken);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    if let Some(n) = a.alloc() {
                        let prev =
                            taken[n as usize].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        assert_eq!(prev, 0, "node {n} allocated to two threads");
                        taken[n as usize].fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                        a.free(n);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn works_inside_the_simulator() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 4,
            ..SimConfig::default()
        });
        let a = Arc::new(NodeArena::new(&sim.platform(), 16, None));
        let report = sim.run({
            let a = Arc::clone(&a);
            move |_| {
                for _ in 0..50 {
                    let n = a.alloc().expect("16 nodes for 4 procs");
                    a.free(n);
                }
            }
        });
        assert!(report.total_ops > 0);
        let mut count = 0;
        while a.alloc().is_some() {
            count += 1;
        }
        assert_eq!(count, 16, "conservation under simulated contention");
    }
}
