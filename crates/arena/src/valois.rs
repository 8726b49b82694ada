//! [`RcArena`]: Valois-style reference-counted node management.
//!
//! Valois's non-blocking queue lets `Tail` lag behind `Head`, so dequeued
//! nodes cannot simply be pushed back to a free list; his fix associates an
//! atomically-updated reference counter with every node, counting both
//! process-local pointers and links from the data structure itself. A node
//! is reclaimed only when its count reaches zero. Michael & Scott found and
//! corrected races in the original mechanism (TR 599); this implementation
//! follows the corrected discipline:
//!
//! * counts are kept shifted left one bit; the low bit is a **claim flag**
//!   so exactly one process reclaims a node whose count reaches zero, even
//!   while stale `safe_read`s transiently increment and decrement it;
//! * `safe_read` validates the source link (with its modification counter)
//!   after incrementing, releasing on mismatch;
//! * reclamation drops the node's own link reference to its successor,
//!   which is what produces the paper's observed failure mode: a single
//!   delayed process holding one node pins *that node and all its
//!   successors*, and "no finite memory can guarantee to satisfy the memory
//!   requirements of the algorithm all the time". The
//!   `valois_exhaustion` integration test and `valois_leak` example
//!   demonstrate it, mirroring the paper's 64,000-node experiment.

use std::sync::Arc;

use msq_platform::{AtomicWord, CellArray, Platform, Tagged};

use crate::arena::NodeArena;
use crate::MemBudget;

/// A node arena whose nodes carry Valois reference counts.
///
/// Count encoding: `refs = 2 * count + claimed`. Free-list nodes hold
/// `refs == 1` (count 0, claimed by the free list); [`RcArena::alloc`]
/// hands out nodes with count 1 (the allocating process's local
/// reference).
pub struct RcArena<P: Platform> {
    arena: NodeArena<P>,
    refs: CellArray<P>,
}

impl<P: Platform> RcArena<P> {
    /// Creates an arena of `capacity` reference-counted nodes, metering
    /// the node pool (one unit per node, reserved for the arena's
    /// lifetime) against `budget` if one is given, as [`NodeArena::new`]
    /// does — force-reserved, so an over-budget pool surfaces in
    /// [`MemBudget::overruns`] rather than failing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or does not fit a tagged index.
    pub fn new(platform: &P, capacity: u32, budget: Option<Arc<MemBudget<P>>>) -> Self {
        let arena = NodeArena::new(platform, capacity, budget);
        let refs = platform.alloc_cells(std::iter::repeat_n(1, capacity as usize));
        RcArena { arena, refs }
    }

    /// The underlying plain arena (value/next accessors).
    pub fn nodes(&self) -> &NodeArena<P> {
        &self.arena
    }

    /// Allocates a node with reference count 1 (the caller's local
    /// reference), or `None` if every node is pinned or in use.
    pub fn alloc(&self) -> Option<u32> {
        let node = self.arena.alloc()?;
        // The free list holds nodes claimed (odd count). Adding 1 clears the
        // claim flag and establishes count 1 in a single atomic step, so
        // stray increments from stale readers interleave harmlessly.
        let prev = self.refs.get(node as usize).fetch_add(1);
        debug_assert!(prev & 1 == 1, "allocated node must have been claimed");
        // Reclamation interprets `next` as a counted link, so it must never
        // carry stale free-list threading once the node is live.
        self.arena.set_next(node, msq_platform::NULL_INDEX);
        Some(node)
    }

    /// Records a new reference (a structure link or copied local pointer)
    /// to `node`.
    pub fn add_ref(&self, node: u32) {
        self.refs.get(node as usize).fetch_add(2);
    }

    /// Drops a reference to `node`, reclaiming it (and releasing its link
    /// reference to its successor) if the count reaches zero.
    pub fn release(&self, node: u32) {
        let prev = self.refs.get(node as usize).fetch_sub(2);
        debug_assert!(prev >= 2, "release without a matching reference");
        if prev == 2 {
            self.try_reclaim(node);
        }
    }

    /// Valois `SafeRead`: loads a tagged link from `cell` and returns the
    /// validated word — whose node's count is already incremented — or
    /// `None` if the link is null. The increment-then-validate dance
    /// guarantees the referenced node cannot be reclaimed while the caller
    /// holds it. (Returning the full [`Tagged`] word lets callers CAS the
    /// source cell against exactly what they validated.)
    pub fn safe_read(&self, cell: &P::Cell) -> Option<Tagged> {
        loop {
            let observed = cell.load();
            let link = Tagged::from_raw(observed);
            if link.is_null() {
                return None;
            }
            let node = link.index();
            self.refs.get(node as usize).fetch_add(2);
            if cell.load() == observed {
                return Some(link);
            }
            // The link changed (its modification counter guarantees we can
            // tell): our increment may have landed on a reused or free
            // node. Undo it; `release` arbitrates reclamation races.
            self.release(node);
        }
    }

    /// Current reference count of `node` (for tests and diagnostics; racy
    /// by nature).
    pub fn ref_count(&self, node: u32) -> u64 {
        self.refs.get(node as usize).load() >> 1
    }

    fn try_reclaim(&self, node: u32) {
        // Only the process that wins the claim flag pushes the node to the
        // free list; late decrementers see a non-zero word and stand down.
        if self.refs.get(node as usize).cas(0, 1) {
            let successor = self.arena.next(node);
            self.arena.free(node);
            if !successor.is_null() {
                // The reclaimed node's link reference to its successor dies
                // with it.
                self.release(successor.index());
            }
        }
    }
}

impl<P: Platform> std::fmt::Debug for RcArena<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RcArena(capacity={})", self.arena.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::{NativePlatform, Tagged, NULL_INDEX};
    use std::sync::Arc;

    fn rc_arena(capacity: u32) -> RcArena<NativePlatform> {
        RcArena::new(&NativePlatform::new(), capacity, None)
    }

    #[test]
    fn alloc_release_cycles_a_node() {
        let a = rc_arena(1);
        let n = a.alloc().unwrap();
        assert_eq!(a.ref_count(n), 1);
        assert_eq!(a.alloc(), None, "single node is in use");
        a.release(n);
        assert_eq!(a.alloc(), Some(n), "released node is reusable");
    }

    #[test]
    fn add_ref_pins_a_node() {
        let a = rc_arena(1);
        let n = a.alloc().unwrap();
        a.add_ref(n);
        a.release(n);
        assert_eq!(a.alloc(), None, "outstanding reference pins the node");
        a.release(n);
        assert!(a.alloc().is_some());
    }

    #[test]
    fn safe_read_returns_pinned_node() {
        let p = NativePlatform::new();
        let a = RcArena::new(&p, 2, None);
        let n = a.alloc().unwrap();
        let link = p.alloc_cell(Tagged::new(n, 0).raw());
        let read = a.safe_read(&link).unwrap();
        assert_eq!(read.index(), n);
        assert_eq!(read.tag(), 0);
        assert_eq!(a.ref_count(n), 2, "local + safe_read references");
        a.release(n);
        a.release(n);
    }

    #[test]
    fn safe_read_of_null_is_none() {
        let p = NativePlatform::new();
        let a = RcArena::new(&p, 1, None);
        let link = p.alloc_cell(Tagged::NULL.raw());
        assert_eq!(a.safe_read(&link), None);
    }

    #[test]
    fn reclaim_releases_the_successor_link() {
        let a = rc_arena(2);
        let first = a.alloc().unwrap();
        let second = a.alloc().unwrap();
        // first --> second, with the link counted.
        a.nodes().set_next(first, second);
        a.add_ref(second);
        // Drop our local reference to second; only the link keeps it alive.
        a.release(second);
        assert_eq!(a.ref_count(second), 1);
        // Dropping first reclaims it AND unpins second transitively.
        a.release(first);
        let mut free = 0;
        while a.alloc().is_some() {
            free += 1;
        }
        assert_eq!(free, 2, "both nodes reclaimed");
    }

    #[test]
    fn held_node_pins_its_successors() {
        // The paper's Valois failure mode in miniature: a stalled process
        // holding one node keeps the whole chain from being reclaimed.
        let a = rc_arena(3);
        let n0 = a.alloc().unwrap();
        let n1 = a.alloc().unwrap();
        let n2 = a.alloc().unwrap();
        a.nodes().set_next(n0, n1);
        a.add_ref(n1);
        a.nodes().set_next(n1, n2);
        a.add_ref(n2);
        a.nodes().set_next(n2, NULL_INDEX);
        // Drop local refs to n1 and n2; links keep them alive.
        a.release(n1);
        a.release(n2);
        // A "stalled process" still holds n0 — nothing can be allocated.
        assert_eq!(a.alloc(), None);
        // Once it lets go, the entire chain unravels.
        a.release(n0);
        let mut free = 0;
        while a.alloc().is_some() {
            free += 1;
        }
        assert_eq!(free, 3);
    }

    #[test]
    fn stale_safe_read_does_not_double_free() {
        // Exercise release-vs-safe_read interleavings with real threads:
        // nodes cycle through a shared link while readers pin/unpin them.
        let p = NativePlatform::new();
        let a = Arc::new(RcArena::new(&p, 8, None));
        let link = Arc::new(p.alloc_cell(Tagged::NULL.raw()));

        let writer = {
            let a = Arc::clone(&a);
            let link = Arc::clone(&link);
            std::thread::spawn(move || {
                for _ in 0..20_000 {
                    if let Some(n) = a.alloc() {
                        a.nodes().set_next(n, NULL_INDEX);
                        // Publish with a link reference, then drop ours.
                        a.add_ref(n);
                        let old = Tagged::from_raw(link.swap(Tagged::new(n, 0).raw()));
                        a.release(n);
                        if !old.is_null() {
                            a.release(old.index());
                        }
                    }
                }
                // Retire the final published node.
                let old = Tagged::from_raw(link.swap(Tagged::NULL.raw()));
                if !old.is_null() {
                    a.release(old.index());
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let a = Arc::clone(&a);
                let link = Arc::clone(&link);
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        if let Some(n) = a.safe_read(&link) {
                            std::hint::spin_loop();
                            a.release(n.index());
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        // Conservation: all 8 nodes reclaimable, each exactly once.
        let mut seen = std::collections::HashSet::new();
        while let Some(n) = a.alloc() {
            assert!(seen.insert(n), "node {n} freed twice");
        }
        assert_eq!(seen.len(), 8, "all nodes recovered");
    }
}
