//! [`SegArena`]: fixed pool of array segments + Treiber-stack free list.
//!
//! The segment-batched queue (`msq-core`'s `WordSegQueue`) needs nodes
//! that are whole *arrays* of slots rather than single values. This arena
//! provides them in the same spirit as [`NodeArena`](crate::NodeArena):
//! a pre-allocated pool, a non-blocking LIFO free list threaded through
//! the segments' own `next` words, and tagged words against ABA.
//!
//! Because a segment is reused across *generations* while stale processes
//! may still hold its index, every mutable per-segment word carries the
//! segment's generation in its tag half:
//!
//! * **state words** (one per slot): `{state, gen}` — a slot-state CAS
//!   keyed to an old generation fails;
//! * **enqueue-count word**: `{count, gen}` — claimed by `fetch_add(1)`
//!   on the raw word; a claimant compares the returned tag against the
//!   generation it expected, so a stale `fetch_add` on a recycled
//!   segment is detected (it merely burns one claim index, which the
//!   queue's poisoning protocol skips over);
//! * **dequeue-index word**: `{index, gen}` — same CAS discipline;
//! * **next word**: `{segment index, modification counter}` exactly as in
//!   `NodeArena`, doubling as the free-list link.
//!
//! [`SegArena::free`] bumps the authoritative generation word *first*,
//! then resets the tagged words under the new generation, so by the time
//! a segment can be re-allocated every stale CAS is already doomed.
//!
//! Value words are plain (untaggable) `u64`s; the queue's slot protocol
//! guarantees a value store only happens between a generation-checked
//! claim CAS and the matching publication store.

use std::sync::Arc;

use msq_platform::{AtomicWord, CellArray, CellRef, Platform, Tagged, NULL_INDEX};

use crate::MemBudget;

/// A fixed pool of array segments shared by one concurrent queue.
///
/// # Example
///
/// ```
/// use msq_arena::SegArena;
/// use msq_platform::NativePlatform;
///
/// let platform = NativePlatform::new();
/// let arena = SegArena::new(&platform, 4, 8, None);
/// let seg = arena.alloc().expect("fresh arena has free segments");
/// arena.value_cell(seg, 0).store(42);
/// assert_eq!(arena.value_cell(seg, 0).load(), 42);
/// arena.free(seg);
/// ```
pub struct SegArena<P: Platform> {
    /// Slot states, `seg * seg_size + slot`: `{state, gen}`.
    states: CellArray<P>,
    /// Slot values, `seg * seg_size + slot`: raw payloads.
    values: CellArray<P>,
    /// Per-segment claim counters: `{count, gen}`.
    enq_counts: CellArray<P>,
    /// Per-segment dequeue indices: `{index, gen}`.
    deq_idxs: CellArray<P>,
    /// Per-segment prefill counts: `{count, gen}`. Written only while a
    /// segment is privately owned (before a bulk splice publishes it);
    /// slots below the prefill count are published by the splice CAS
    /// itself, with no per-slot state transition.
    prefills: CellArray<P>,
    /// Per-segment links: `{segment index, modification counter}`.
    nexts: CellArray<P>,
    /// Per-segment authoritative generation (full 64-bit, monotone).
    gens: CellArray<P>,
    free_top: P::Cell,
    seg_count: u32,
    seg_size: u32,
    /// Optional global residency budget: one unit per segment currently
    /// *out* of the free list. Reserved before a pop, released after a
    /// push-back (the free list's tagged generations make a pushed
    /// segment unreachable-by-construction, so crediting there respects
    /// the credit-after-unreachability rule).
    budget: Option<Arc<MemBudget<P>>>,
    /// Kept for the `seg:alloc:reserved` fault point in [`SegArena::alloc`]
    /// (a no-op outside the simulator).
    platform: P,
}

impl<P: Platform> SegArena<P> {
    /// Creates an arena of `seg_count` segments of `seg_size` slots, all
    /// initially free and at generation 0.
    ///
    /// With a `budget`, every [`SegArena::alloc`] reserves one unit
    /// against it (and every [`SegArena::free`] credits it back), so
    /// segment residency across all arenas sharing the budget is globally
    /// bounded. An exhausted budget makes `alloc` return `None` exactly as
    /// an exhausted free list does.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0 or `seg_count` does not fit a
    /// tagged index.
    pub fn new(
        platform: &P,
        seg_count: u32,
        seg_size: u32,
        budget: Option<Arc<MemBudget<P>>>,
    ) -> Self {
        assert!(seg_count > 0, "arena needs at least one segment");
        assert!(seg_size > 0, "segments need at least one slot");
        assert!(
            seg_count < NULL_INDEX,
            "segment count must fit a tagged index"
        );
        let slots = (seg_count as usize) * (seg_size as usize);
        let zeroed = |count| platform.alloc_cells(std::iter::repeat_n(0, count));
        let fresh =
            |count| platform.alloc_cells(std::iter::repeat_n(Tagged::new(0, 0).raw(), count));
        let segs = seg_count as usize;
        // One padded cell per slot state natively, where every other array
        // is dense: an enqueuer's state CAS and a dequeuer's on the next
        // slot would share a line, and dense states cost a contended
        // two-thread pair 15-21% (DESIGN.md §3). Under the simulator these
        // are the cells, and ids, that `alloc_cells` would return.
        let states = CellArray::from_cells(
            (0..slots)
                .map(|_| platform.alloc_cell(Tagged::new(0, 0).raw()))
                .collect(),
        );
        let values = zeroed(slots);
        let enq_counts = fresh(segs);
        let deq_idxs = fresh(segs);
        let prefills = fresh(segs);
        // Thread the free list: segment i links to i + 1, the last to NULL.
        let nexts = platform.alloc_cells((0..seg_count).map(|i| {
            let next = if i + 1 < seg_count { i + 1 } else { NULL_INDEX };
            Tagged::new(next, 0).raw()
        }));
        let gens = zeroed(segs);
        let free_top = platform.alloc_cell(Tagged::new(0, 0).raw());
        SegArena {
            states,
            values,
            enq_counts,
            deq_idxs,
            prefills,
            nexts,
            gens,
            free_top,
            seg_count,
            seg_size,
            budget,
            platform: platform.clone(),
        }
    }

    /// The budget this arena reserves against, if any.
    pub fn budget(&self) -> Option<&Arc<MemBudget<P>>> {
        self.budget.as_ref()
    }

    /// Number of segments in the pool.
    pub fn seg_count(&self) -> u32 {
        self.seg_count
    }

    /// Slots per segment.
    pub fn seg_size(&self) -> u32 {
        self.seg_size
    }

    /// Pops a segment off the free list (Treiber pop), or `None` if the
    /// pool is exhausted. Lock-free.
    ///
    /// The segment's state, claim, and dequeue words are already reset
    /// under its current generation (done by [`SegArena::free`]); its
    /// `next` word holds a stale free-list link that callers must point at
    /// `NULL_INDEX` (via [`SegArena::set_next`]) before publishing.
    pub fn alloc(&self) -> Option<u32> {
        // Reserve through the RAII guard so the unit cannot leak: until
        // `commit`, any exit from this function — including the unwind of
        // a process killed at the fault point below — credits it back.
        let reservation = match &self.budget {
            Some(budget) => match budget.try_reserve_guard(1) {
                Some(r) => Some(r),
                None => return None,
            },
            None => None,
        };
        // The unit is booked but no segment is attached yet: the window
        // the budget-conservation fault tests target.
        self.platform.fault_point("seg:alloc:reserved");
        let popped = self.pop_free();
        if popped.is_some() {
            if let Some(r) = reservation {
                // The segment now carries the unit; `free` releases it.
                r.commit();
            }
        }
        popped
    }

    /// The Treiber pop itself, budget aside.
    fn pop_free(&self) -> Option<u32> {
        loop {
            let top = Tagged::from_raw(self.free_top.load());
            if top.is_null() {
                return None;
            }
            // Safe even if the would-be-popped segment is concurrently
            // popped and reused: the CAS below fails (counter mismatch).
            let next = Tagged::from_raw(self.nexts.get(top.index() as usize).load());
            if self
                .free_top
                .cas(top.raw(), top.with_index(next.index()).raw())
            {
                return Some(top.index());
            }
            std::hint::spin_loop();
        }
    }

    /// Returns a drained segment to the free list. Lock-free.
    ///
    /// Bumps the generation first, then resets every tagged word (state
    /// and counter index halves to 0) under the new generation, so stale
    /// CASes keyed to the old generation can no longer succeed once the
    /// segment is re-allocatable.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `seg` is out of range.
    pub fn free(&self, seg: u32) {
        debug_assert!(seg < self.seg_count);
        let gen = self.gens.get(seg as usize).fetch_add(1).wrapping_add(1);
        let gtag = gen as u32;
        let base = (seg as usize) * (self.seg_size as usize);
        for slot in 0..self.seg_size as usize {
            self.states
                .get(base + slot)
                .store(Tagged::new(0, gtag).raw());
        }
        self.enq_counts
            .get(seg as usize)
            .store(Tagged::new(0, gtag).raw());
        self.deq_idxs
            .get(seg as usize)
            .store(Tagged::new(0, gtag).raw());
        self.prefills
            .get(seg as usize)
            .store(Tagged::new(0, gtag).raw());
        loop {
            let top = Tagged::from_raw(self.free_top.load());
            self.set_next(seg, top.index());
            if self.free_top.cas(top.raw(), top.with_index(seg).raw()) {
                break;
            }
            std::hint::spin_loop();
        }
        // The push is the unreachability point: any stale CAS on the
        // segment is doomed by the generation bump above, so the unit may
        // be credited back to the shared budget.
        if let Some(budget) = &self.budget {
            budget.release(1);
        }
    }

    /// The segment's current generation. Its low 32 bits are the tag
    /// carried by the segment's state/claim/dequeue words.
    pub fn gen(&self, seg: u32) -> u64 {
        self.gens.get(seg as usize).load()
    }

    /// Direct access to a slot's state word (`{state, gen}`).
    pub fn state_cell(&self, seg: u32, slot: u32) -> CellRef<'_, P> {
        self.states
            .get((seg as usize) * (self.seg_size as usize) + slot as usize)
    }

    /// Direct access to a slot's value word.
    pub fn value_cell(&self, seg: u32, slot: u32) -> CellRef<'_, P> {
        self.values
            .get((seg as usize) * (self.seg_size as usize) + slot as usize)
    }

    /// Direct access to the segment's claim-counter word (`{count, gen}`).
    pub fn enq_cell(&self, seg: u32) -> CellRef<'_, P> {
        self.enq_counts.get(seg as usize)
    }

    /// Direct access to the segment's dequeue-index word (`{index, gen}`).
    pub fn deq_cell(&self, seg: u32) -> CellRef<'_, P> {
        self.deq_idxs.get(seg as usize)
    }

    /// Direct access to the segment's prefill-count word (`{count, gen}`).
    ///
    /// Slots below the prefill count were published wholesale by a bulk
    /// splice: their value words are authoritative and their state words
    /// are still in the reset (`EMPTY`) state. Dequeuers must consult this
    /// word before interpreting a slot's state.
    pub fn prefill_cell(&self, seg: u32) -> CellRef<'_, P> {
        self.prefills.get(seg as usize)
    }

    /// Reads a segment's next word.
    pub fn next(&self, seg: u32) -> Tagged {
        Tagged::from_raw(self.nexts.get(seg as usize).load())
    }

    /// Points `seg`'s next word at `to` (or [`NULL_INDEX`]), bumping the
    /// modification counter as [`NodeArena::set_next`](crate::NodeArena::set_next) does.
    pub fn set_next(&self, seg: u32, to: u32) {
        let old = Tagged::from_raw(self.nexts.get(seg as usize).load());
        self.nexts.get(seg as usize).store(old.with_index(to).raw());
    }

    /// CAS on `seg`'s next word: installs `<to, expected.tag + 1>` if the
    /// word still equals `expected`.
    pub fn cas_next(&self, seg: u32, expected: Tagged, to: u32) -> bool {
        self.nexts
            .get(seg as usize)
            .cas(expected.raw(), expected.with_index(to).raw())
    }
}

impl<P: Platform> std::fmt::Debug for SegArena<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SegArena(seg_count={}, seg_size={})",
            self.seg_count, self.seg_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::NativePlatform;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn arena(seg_count: u32, seg_size: u32) -> SegArena<NativePlatform> {
        SegArena::new(&NativePlatform::new(), seg_count, seg_size, None)
    }

    #[test]
    fn allocates_every_segment_exactly_once() {
        let a = arena(4, 8);
        let mut seen = HashSet::new();
        for _ in 0..4 {
            let s = a.alloc().expect("has capacity");
            assert!(seen.insert(s), "double allocation of {s}");
            assert!(s < 4);
        }
        assert_eq!(a.alloc(), None, "exhausted arena must refuse");
    }

    #[test]
    fn free_bumps_generation_and_resets_words() {
        let a = arena(2, 4);
        let s = a.alloc().unwrap();
        let g0 = a.gen(s);
        a.enq_cell(s).store(Tagged::new(3, g0 as u32).raw());
        a.state_cell(s, 1).store(Tagged::new(2, g0 as u32).raw());

        a.free(s);
        let g1 = a.gen(s);
        assert_eq!(g1, g0 + 1);
        let enq = Tagged::from_raw(a.enq_cell(s).load());
        assert_eq!(enq.index(), 0);
        assert_eq!(enq.tag(), g1 as u32);
        let state = Tagged::from_raw(a.state_cell(s, 1).load());
        assert_eq!(state.index(), 0);
        assert_eq!(state.tag(), g1 as u32);
    }

    #[test]
    fn stale_generation_cas_fails_after_free() {
        let a = arena(2, 2);
        let s = a.alloc().unwrap();
        let old_gtag = a.gen(s) as u32;
        a.free(s);
        assert_eq!(a.alloc(), Some(s), "LIFO reuse");
        // A CAS keyed to the pre-free generation must fail even though the
        // index halves match a freshly reset segment.
        assert!(!a.state_cell(s, 0).cas(
            Tagged::new(0, old_gtag).raw(),
            Tagged::new(1, old_gtag).raw()
        ));
        let new_gtag = a.gen(s) as u32;
        assert!(a.state_cell(s, 0).cas(
            Tagged::new(0, new_gtag).raw(),
            Tagged::new(1, new_gtag).raw()
        ));
    }

    #[test]
    fn stale_fetch_add_is_detectable_from_returned_tag() {
        let a = arena(2, 2);
        let s = a.alloc().unwrap();
        let expected = a.gen(s) as u32;
        a.free(s);
        // Stale claimant increments the recycled segment's counter; the
        // returned tag exposes the mismatch.
        let prev = Tagged::from_raw(a.enq_cell(s).fetch_add(1));
        assert_ne!(prev.tag(), expected);
        assert_eq!(prev.tag(), a.gen(s) as u32);
        // The burnt claim is visible to the current generation.
        assert_eq!(Tagged::from_raw(a.enq_cell(s).load()).index(), 1);
    }

    #[test]
    fn next_words_double_as_free_list_links() {
        let a = arena(3, 2);
        let s0 = a.alloc().unwrap();
        a.set_next(s0, NULL_INDEX);
        assert!(a.next(s0).is_null());
        let counter = a.next(s0).tag();
        a.free(s0);
        assert_ne!(a.next(s0).tag(), counter, "free must bump the link counter");
    }

    #[test]
    fn cas_next_requires_exact_tagged_match() {
        let a = arena(2, 2);
        let s = a.alloc().unwrap();
        a.set_next(s, NULL_INDEX);
        let current = a.next(s);
        let stale = Tagged::new(current.index(), current.tag().wrapping_sub(1));
        assert!(!a.cas_next(s, stale, 1));
        assert!(a.cas_next(s, current, 1));
        assert_eq!(a.next(s).index(), 1);
    }

    #[test]
    fn concurrent_alloc_free_conserves_segments() {
        let a = Arc::new(arena(16, 4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_000 {
                    if let Some(s) = a.alloc() {
                        a.value_cell(s, 0).store(u64::from(s) + 1);
                        assert_eq!(a.value_cell(s, 0).load(), u64::from(s) + 1);
                        a.free(s);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = HashSet::new();
        while let Some(s) = a.alloc() {
            assert!(seen.insert(s), "segment {s} on free list twice");
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn budget_caps_alloc_below_free_list_capacity() {
        let platform = NativePlatform::new();
        let budget = Arc::new(crate::MemBudget::new(&platform, 2));
        let a = SegArena::new(&platform, 8, 4, Some(Arc::clone(&budget)));
        let s0 = a.alloc().expect("within budget");
        let s1 = a.alloc().expect("within budget");
        assert_eq!(a.alloc(), None, "budget of 2 denies a third segment");
        assert_eq!(budget.denials(), 1);
        assert_eq!(budget.reserved(), 2);
        a.free(s0);
        assert_eq!(budget.reserved(), 1, "free credits the budget");
        assert_eq!(a.alloc(), Some(s0), "credit makes room again");
        a.free(s1);
        assert_eq!(budget.peak(), 2);
    }

    #[test]
    fn budget_is_shared_across_arenas() {
        let platform = NativePlatform::new();
        let budget = Arc::new(crate::MemBudget::new(&platform, 3));
        let a = SegArena::new(&platform, 4, 2, Some(Arc::clone(&budget)));
        let b = SegArena::new(&platform, 4, 2, Some(Arc::clone(&budget)));
        assert!(a.alloc().is_some());
        assert!(b.alloc().is_some());
        let last = a.alloc().unwrap();
        assert_eq!(b.alloc(), None, "sibling arena exhausts the shared cap");
        a.free(last);
        assert!(
            b.alloc().is_some(),
            "credit from one arena unblocks another"
        );
    }

    #[test]
    fn exhausted_free_list_refunds_its_reservation() {
        let platform = NativePlatform::new();
        let budget = Arc::new(crate::MemBudget::new(&platform, 10));
        let a = SegArena::new(&platform, 2, 2, Some(Arc::clone(&budget)));
        let _s0 = a.alloc().unwrap();
        let _s1 = a.alloc().unwrap();
        assert_eq!(a.alloc(), None, "free list empty");
        assert_eq!(
            budget.reserved(),
            2,
            "the failed alloc must not leak its reservation"
        );
    }

    #[test]
    fn works_inside_the_simulator() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 4,
            ..SimConfig::default()
        });
        let a = Arc::new(SegArena::new(&sim.platform(), 8, 4, None));
        let report = sim.run({
            let a = Arc::clone(&a);
            move |_| {
                for _ in 0..50 {
                    let s = a.alloc().expect("8 segments for 4 procs");
                    a.free(s);
                }
            }
        });
        assert!(report.total_ops > 0);
        let mut count = 0;
        while a.alloc().is_some() {
            count += 1;
        }
        assert_eq!(count, 8, "conservation under simulated contention");
    }
}
