//! Hazard-pointer safe memory reclamation.
//!
//! The paper's queues sidestep reclamation by recycling nodes through a
//! type-stable free list (an arena in this reproduction). For the idiomatic
//! heap-allocated `MsQueue<T>` in `msq-core` — where nodes are `Box`es that
//! must eventually be dropped — something stronger is needed: a dequeuer
//! may free a node another thread still holds a raw pointer to. This crate
//! implements Michael's hazard-pointer scheme (the historical successor to
//! this very paper): readers publish the pointers they are about to
//! dereference in single-writer/multi-reader slots; threads that retire
//! nodes defer the actual `drop` until a scan shows no hazard slot mentions
//! them.
//!
//! The implementation is deliberately compact but complete: per-thread slot
//! acquisition/release, bounded hazards per thread, amortized O(R log H)
//! scans, and an orphan list so nodes retired by exiting threads are
//! adopted rather than leaked.
//!
//! Queue operations take their hazards as [`PooledHazard`]s, which come
//! from a small per-thread cache of idle slots: a fixed array of
//! `(domain, slot)` pairs. Acquiring one pops the most recent pair of its
//! domain and dropping one clears the slot and pushes it back, so the hot
//! path neither scans the domain for a free slot nor allocates. A full
//! cache hands the slot back to the domain, and a thread's cached slots
//! are released when it exits.
//!
//! # Example
//!
//! ```
//! use msq_hazard::{Domain, HazardPointer};
//! use std::sync::atomic::{AtomicPtr, Ordering};
//!
//! static DOMAIN: Domain = Domain::new();
//! let shared = AtomicPtr::new(Box::into_raw(Box::new(42_u64)));
//!
//! let mut hazard = HazardPointer::new(&DOMAIN);
//! let protected = hazard.protect(&shared);
//! assert!(!protected.is_null());
//! // Safety: `protect` guarantees the node cannot be freed while held.
//! assert_eq!(unsafe { *protected }, 42);
//! hazard.clear();
//!
//! // Retiring transfers ownership to the domain, which drops it once no
//! // hazard pointer protects it.
//! let old = shared.swap(std::ptr::null_mut(), Ordering::AcqRel);
//! unsafe { DOMAIN.retire(old) };
//! ```

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maximum number of threads that may simultaneously hold hazard pointers
/// in one domain.
pub const MAX_SLOTS: usize = 512;

/// Retired-list length that triggers a reclamation scan. Chosen so scans
/// amortize to O(1) per retire while bounding unreclaimed garbage at
/// O(`MAX_SLOTS`).
const SCAN_THRESHOLD: usize = 128;

struct Retired {
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8),
}

// Retired nodes are owned by the domain; the raw pointer is not shared
// until dropped.
unsafe impl Send for Retired {}

/// A reclamation domain: a fixed array of hazard slots plus an orphan list
/// for retirements from exited threads.
///
/// Domains are usually `static`; every structure sharing a domain also
/// shares its slots and scan costs.
pub struct Domain {
    slots: [Slot; MAX_SLOTS],
    orphans: Mutex<Vec<Retired>>,
    /// Whether `orphans` may be non-empty; set and cleared under its lock,
    /// so a scan takes the lock only when an exiting thread left
    /// retirements.
    has_orphans: AtomicBool,
    /// Upper bound on slots ever used, to shorten scans.
    high_water: AtomicUsize,
}

struct Slot {
    /// 0 = free, 1 = owned by some live thread.
    owner: AtomicUsize,
    hazard: AtomicPtr<u8>,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Slot = Slot {
    owner: AtomicUsize::new(0),
    hazard: AtomicPtr::new(std::ptr::null_mut()),
};

impl Domain {
    /// Creates an empty domain (const, so domains can be `static`).
    pub const fn new() -> Self {
        Domain {
            slots: [EMPTY_SLOT; MAX_SLOTS],
            orphans: Mutex::new(Vec::new()),
            has_orphans: AtomicBool::new(false),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Retires `ptr` for deferred destruction via `Box::from_raw`.
    ///
    /// # Safety
    ///
    /// `ptr` must have come from `Box::into_raw`, must not be reachable by
    /// new readers (it has been unlinked from every shared location), and
    /// must not be retired twice.
    ///
    /// The `T` is dropped later, by whichever thread's scan finds it
    /// unprotected, possibly after the structure that retired it is gone.
    /// So that deferred drop must be sound: `T` must be safe to drop on
    /// another thread, and must borrow nothing that can end before the
    /// drop runs (as a `T: 'static` bound on the caller ensures).
    pub unsafe fn retire<T>(&'static self, ptr: *mut T) {
        unsafe fn drop_box<T>(p: *mut u8) {
            drop(unsafe { Box::from_raw(p.cast::<T>()) });
        }
        self.retire_with(ptr.cast::<u8>(), drop_box::<T>);
    }

    /// Retires `ptr` with a custom destructor.
    ///
    /// # Safety
    ///
    /// As [`Domain::retire`]; additionally `drop_fn` must be safe to call
    /// exactly once on `ptr` after no hazard pointer protects it.
    pub unsafe fn retire_with(&'static self, ptr: *mut u8, drop_fn: unsafe fn(*mut u8)) {
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let participant = local.participant_mut(self);
            participant.retired.push(Retired { ptr, drop_fn });
            if participant.retired.len() >= SCAN_THRESHOLD {
                let mut retired = std::mem::take(&mut participant.retired);
                self.scan(&mut retired);
                participant.retired = retired;
            }
        });
    }

    /// Drops every retired node not currently protected. Called
    /// automatically; exposed for tests and for quiescent teardown.
    pub fn eager_scan(&'static self) {
        let mut batch = Vec::new();
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let participant = local.participant_mut(self);
            batch.append(&mut participant.retired);
        });
        self.scan(&mut batch);
        if !batch.is_empty() {
            LOCAL.with(|local| {
                let mut local = local.borrow_mut();
                local.participant_mut(self).retired.append(&mut batch);
            });
        }
    }

    /// Whether any hazard slot currently protects `ptr`.
    ///
    /// A `false` answer is advisory: a reader may publish `ptr` right
    /// after the scan, so this alone never justifies freeing memory.
    /// It is intended as a *reuse* gate — e.g. the segment pool in
    /// `msq-core`'s `SegQueue` recycles an unlinked segment only when no
    /// slot mentions it, falling back to `retire` otherwise. The race is
    /// benign there because readers re-validate reachability after
    /// publishing, and an unlinked segment fails that re-validation.
    pub fn is_protected(&self, ptr: *mut u8) -> bool {
        if ptr.is_null() {
            return false;
        }
        let limit = self.high_water.load(Ordering::SeqCst);
        self.slots[..limit]
            .iter()
            .any(|s| s.hazard.load(Ordering::SeqCst) == ptr)
    }

    /// Number of currently protected (non-null) hazard slots; diagnostic.
    pub fn active_hazards(&self) -> usize {
        let limit = self.high_water.load(Ordering::Acquire);
        self.slots[..limit]
            .iter()
            .filter(|s| !s.hazard.load(Ordering::Acquire).is_null())
            .count()
    }

    fn scan(&'static self, retired: &mut Vec<Retired>) {
        // Adopt orphans from exited threads first so they cannot linger.
        if self.has_orphans.load(Ordering::Acquire) {
            let mut orphans = self.orphans.lock().expect("orphan list");
            retired.append(&mut orphans);
            self.has_orphans.store(false, Ordering::Release);
        }
        let limit = self.high_water.load(Ordering::Acquire);
        let mut protected: Vec<*mut u8> = self.slots[..limit]
            .iter()
            .map(|s| s.hazard.load(Ordering::Acquire))
            .filter(|p| !p.is_null())
            .collect();
        protected.sort_unstable();
        retired.retain(|r| {
            if protected.binary_search(&r.ptr).is_ok() {
                true
            } else {
                // Safety: unlinked (retire contract) and unprotected now;
                // protection cannot be re-established for an unlinked node.
                unsafe { (r.drop_fn)(r.ptr) };
                false
            }
        });
    }

    fn acquire_slot(&'static self) -> usize {
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.owner.load(Ordering::Relaxed) == 0
                && slot
                    .owner
                    .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                self.high_water.fetch_max(i + 1, Ordering::AcqRel);
                return i;
            }
        }
        panic!("hazard domain slot capacity ({MAX_SLOTS}) exhausted");
    }

    fn release_slot(&'static self, index: usize) {
        self.slots[index]
            .hazard
            .store(std::ptr::null_mut(), Ordering::Release);
        self.slots[index].owner.store(0, Ordering::Release);
    }
}

impl Default for Domain {
    fn default() -> Self {
        Domain::new()
    }
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Domain(active_hazards={})", self.active_hazards())
    }
}

/// The global domain used by `msq-core`'s heap queues by default.
pub static GLOBAL_DOMAIN: Domain = Domain::new();

// --- per-thread state -----------------------------------------------------

struct Participant {
    domain: &'static Domain,
    retired: Vec<Retired>,
}

#[derive(Default)]
struct LocalState {
    participants: Vec<Participant>,
}

impl LocalState {
    fn participant_mut(&mut self, domain: &'static Domain) -> &mut Participant {
        let idx = self
            .participants
            .iter()
            .position(|p| std::ptr::eq(p.domain, domain));
        match idx {
            Some(i) => &mut self.participants[i],
            None => {
                self.participants.push(Participant {
                    domain,
                    retired: Vec::new(),
                });
                self.participants.last_mut().expect("just pushed")
            }
        }
    }
}

impl Drop for LocalState {
    fn drop(&mut self) {
        // A thread exiting with unreclaimed retirements hands them to the
        // domain's orphan list; the next scan (from any thread) adopts them.
        for participant in self.participants.drain(..) {
            if !participant.retired.is_empty() {
                let domain = participant.domain;
                let mut orphans = domain.orphans.lock().expect("orphan list");
                orphans.extend(participant.retired);
                domain.has_orphans.store(true, Ordering::Release);
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalState> = RefCell::new(LocalState::default());
}

/// One hazard slot held by the current thread.
///
/// `HazardPointer` is intentionally *not* `Send`: the slot is released when
/// the value is dropped on the owning thread.
pub struct HazardPointer {
    domain: &'static Domain,
    slot: usize,
    _not_send: std::marker::PhantomData<*mut u8>,
}

impl HazardPointer {
    /// Acquires a hazard slot in `domain`.
    ///
    /// # Panics
    ///
    /// Panics if all [`MAX_SLOTS`] slots are taken.
    pub fn new(domain: &'static Domain) -> Self {
        HazardPointer {
            domain,
            slot: domain.acquire_slot(),
            _not_send: std::marker::PhantomData,
        }
    }

    /// Protects the current value of `src`: publishes it as a hazard and
    /// re-validates until the publication is consistent. The returned
    /// pointer (possibly null) is safe to dereference until
    /// [`HazardPointer::clear`], the next `protect`, or drop — provided it
    /// was reachable from `src`, which is what re-validation establishes.
    pub fn protect<T>(&mut self, src: &AtomicPtr<T>) -> *mut T {
        loop {
            let p = src.load(Ordering::Acquire);
            self.domain.slots[self.slot]
                .hazard
                .store(p.cast::<u8>(), Ordering::SeqCst);
            if src.load(Ordering::SeqCst) == p {
                return p;
            }
        }
    }

    /// Publishes a specific pointer value without validation.
    ///
    /// Callers must re-validate reachability themselves (the Michael–Scott
    /// dequeue's `head == Q->Head` re-check plays that role).
    pub fn protect_raw<T>(&mut self, ptr: *mut T) {
        self.domain.slots[self.slot]
            .hazard
            .store(ptr.cast::<u8>(), Ordering::SeqCst);
    }

    /// Clears the slot, allowing the previously protected node to be
    /// reclaimed.
    pub fn clear(&mut self) {
        self.domain.slots[self.slot]
            .hazard
            .store(std::ptr::null_mut(), Ordering::Release);
    }
}

impl Drop for HazardPointer {
    fn drop(&mut self) {
        self.domain.release_slot(self.slot);
    }
}

impl std::fmt::Debug for HazardPointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HazardPointer(slot={})", self.slot)
    }
}

// --- pooled hazard pointers -------------------------------------------------

/// Idle slots a thread keeps for [`PooledHazard`]: more than any queue
/// operation holds at once (the Michael–Scott dequeue holds two).
const CACHED_SLOTS: usize = 4;

/// A thread's idle `(domain, slot)` pairs, most recently returned last.
/// Each slot stays owned by the thread until it leaves the cache.
struct SlotCache {
    len: Cell<usize>,
    idle: [Cell<Option<(&'static Domain, usize)>>; CACHED_SLOTS],
}

impl SlotCache {
    /// Removes and returns an idle slot of `domain`, the most recent first.
    fn take(&self, domain: &'static Domain) -> Option<usize> {
        let len = self.len.get();
        let (i, slot) = (0..len).rev().find_map(|i| match self.idle[i].get() {
            Some((d, slot)) if std::ptr::eq(d, domain) => Some((i, slot)),
            _ => None,
        })?;
        self.idle[i].set(self.idle[len - 1].get());
        self.len.set(len - 1);
        Some(slot)
    }

    /// Keeps `slot` of `domain` for reuse; `false` if the cache is full.
    fn put(&self, domain: &'static Domain, slot: usize) -> bool {
        let len = self.len.get();
        if len == CACHED_SLOTS {
            return false;
        }
        self.idle[len].set(Some((domain, slot)));
        self.len.set(len + 1);
        true
    }
}

impl Drop for SlotCache {
    fn drop(&mut self) {
        // The thread is exiting: its idle slots go back to their domains.
        for idle in &self.idle[..self.len.get()] {
            if let Some((domain, slot)) = idle.get() {
                domain.release_slot(slot);
            }
        }
    }
}

thread_local! {
    static SLOT_CACHE: SlotCache = const {
        SlotCache {
            len: Cell::new(0),
            idle: [const { Cell::new(None) }; CACHED_SLOTS],
        }
    };
}

/// A [`HazardPointer`] whose slot comes from the current thread's cache of
/// idle slots; on drop the slot is cleared and returned to the cache
/// instead of being released, so hot paths (queue operations) avoid the
/// slot-acquisition scan.
pub struct PooledHazard {
    inner: ManuallyDrop<HazardPointer>,
}

impl PooledHazard {
    /// Takes a hazard slot in `domain` from the current thread's cache,
    /// acquiring a fresh slot only when the cache holds none.
    ///
    /// # Panics
    ///
    /// Panics if a fresh slot is needed and the domain is exhausted.
    pub fn acquire(domain: &'static Domain) -> Self {
        let slot = SLOT_CACHE
            .try_with(|cache| cache.take(domain))
            .ok()
            .flatten()
            .unwrap_or_else(|| domain.acquire_slot());
        PooledHazard {
            inner: ManuallyDrop::new(HazardPointer {
                domain,
                slot,
                _not_send: std::marker::PhantomData,
            }),
        }
    }
}

impl std::ops::Deref for PooledHazard {
    type Target = HazardPointer;

    fn deref(&self) -> &HazardPointer {
        &self.inner
    }
}

impl std::ops::DerefMut for PooledHazard {
    fn deref_mut(&mut self) -> &mut HazardPointer {
        &mut self.inner
    }
}

impl Drop for PooledHazard {
    fn drop(&mut self) {
        let (domain, slot) = (self.inner.domain, self.inner.slot);
        self.inner.clear();
        // A full cache, or one already torn down at thread exit, hands the
        // slot back to the domain. The inner `HazardPointer` is never
        // dropped, so the slot is released at most once.
        let cached = SLOT_CACHE
            .try_with(|cache| cache.put(domain, slot))
            .unwrap_or(false);
        if !cached {
            domain.release_slot(slot);
        }
    }
}

impl std::fmt::Debug for PooledHazard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledHazard({:?})", *self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    static TEST_DOMAIN: Domain = Domain::new();

    struct DropCounter(Arc<StdAtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn protect_returns_current_pointer() {
        let value = Box::into_raw(Box::new(5_u64));
        let shared = AtomicPtr::new(value);
        let mut h = HazardPointer::new(&TEST_DOMAIN);
        let p = h.protect(&shared);
        assert_eq!(p, value);
        assert_eq!(unsafe { *p }, 5);
        h.clear();
        unsafe { drop(Box::from_raw(value)) };
    }

    #[test]
    fn protected_node_survives_scans() {
        let drops = Arc::new(StdAtomicUsize::new(0));
        let node = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
        let shared = AtomicPtr::new(node);

        let mut h = HazardPointer::new(&TEST_DOMAIN);
        let p = h.protect(&shared);
        assert_eq!(p, node);

        // Unlink and retire while protected.
        shared.store(std::ptr::null_mut(), Ordering::SeqCst);
        unsafe { TEST_DOMAIN.retire(node) };
        TEST_DOMAIN.eager_scan();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "still protected");

        h.clear();
        TEST_DOMAIN.eager_scan();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "reclaimed after clear");
    }

    #[test]
    fn unprotected_retirements_are_dropped_at_threshold() {
        let drops = Arc::new(StdAtomicUsize::new(0));
        for _ in 0..(SCAN_THRESHOLD * 2) {
            let node = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
            unsafe { TEST_DOMAIN.retire(node) };
        }
        assert!(
            drops.load(Ordering::SeqCst) >= SCAN_THRESHOLD,
            "automatic scans must have reclaimed"
        );
        TEST_DOMAIN.eager_scan();
        assert_eq!(drops.load(Ordering::SeqCst), SCAN_THRESHOLD * 2);
    }

    #[test]
    fn is_protected_tracks_hazard_publication() {
        static IP_DOMAIN: Domain = Domain::new();
        let value = Box::into_raw(Box::new(9_u64));
        let shared = AtomicPtr::new(value);

        assert!(!IP_DOMAIN.is_protected(value.cast()));
        assert!(!IP_DOMAIN.is_protected(std::ptr::null_mut()));

        let mut h = HazardPointer::new(&IP_DOMAIN);
        let p = h.protect(&shared);
        assert!(IP_DOMAIN.is_protected(p.cast()));

        h.clear();
        assert!(!IP_DOMAIN.is_protected(value.cast()));
        unsafe { drop(Box::from_raw(value)) };
    }

    #[test]
    fn slots_are_recycled() {
        let before = {
            let h = HazardPointer::new(&TEST_DOMAIN);
            h.slot
        };
        let after = {
            let h = HazardPointer::new(&TEST_DOMAIN);
            h.slot
        };
        assert_eq!(before, after, "released slot is reacquired");
    }

    #[test]
    fn exiting_thread_orphans_are_adopted() {
        static ORPHAN_DOMAIN: Domain = Domain::new();
        let drops = Arc::new(StdAtomicUsize::new(0));
        {
            let drops = Arc::clone(&drops);
            std::thread::spawn(move || {
                let node = Box::into_raw(Box::new(DropCounter(drops)));
                unsafe { ORPHAN_DOMAIN.retire(node) };
                // Thread exits with the node still on its local list.
            })
            .join()
            .unwrap();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "not yet adopted");
        ORPHAN_DOMAIN.eager_scan();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "adopted and dropped");
    }

    #[test]
    fn pooled_hazards_reuse_slots() {
        static POOL_DOMAIN: Domain = Domain::new();
        let first_slot = {
            let hp = PooledHazard::acquire(&POOL_DOMAIN);
            hp.slot
        };
        let second_slot = {
            let hp = PooledHazard::acquire(&POOL_DOMAIN);
            hp.slot
        };
        assert_eq!(first_slot, second_slot, "pool must hand back the slot");
        // Two simultaneous pooled hazards get distinct slots.
        let a = PooledHazard::acquire(&POOL_DOMAIN);
        let b = PooledHazard::acquire(&POOL_DOMAIN);
        assert_ne!(a.slot, b.slot);
    }

    #[test]
    fn a_threads_cached_slots_are_released_when_it_exits() {
        static EXIT_DOMAIN: Domain = Domain::new();
        let cached = std::thread::spawn(|| {
            let hp = PooledHazard::acquire(&EXIT_DOMAIN);
            let slot = hp.slot;
            drop(hp);
            assert_eq!(
                PooledHazard::acquire(&EXIT_DOMAIN).slot,
                slot,
                "the dropped hazard's slot waits in the thread's cache"
            );
            slot
        })
        .join()
        .unwrap();
        let again = HazardPointer::new(&EXIT_DOMAIN);
        assert_eq!(again.slot, cached, "another thread reacquires the index");
    }

    #[test]
    fn cached_slots_stay_with_their_domain() {
        static FIRST: Domain = Domain::new();
        static SECOND: Domain = Domain::new();
        drop(PooledHazard::acquire(&FIRST));
        let hp = PooledHazard::acquire(&SECOND);
        assert_eq!(
            SECOND.slots[hp.slot].owner.load(Ordering::SeqCst),
            1,
            "a slot cached for FIRST is not lent out for SECOND"
        );
        assert_eq!(
            FIRST.slots[0].owner.load(Ordering::SeqCst),
            1,
            "still cached"
        );
    }

    #[test]
    fn nested_pooled_hazards_past_the_cache_get_distinct_slots() {
        static NEST_DOMAIN: Domain = Domain::new();
        let held = 2 * CACHED_SLOTS + 1;
        let distinct = |hazards: &[PooledHazard]| {
            let mut slots: Vec<usize> = hazards.iter().map(|h| h.slot).collect();
            slots.sort_unstable();
            slots.dedup();
            slots.len()
        };
        let first: Vec<PooledHazard> = (0..held)
            .map(|_| PooledHazard::acquire(&NEST_DOMAIN))
            .collect();
        assert_eq!(distinct(&first), held);
        // The cache keeps CACHED_SLOTS of them and the domain gets the rest.
        drop(first);
        let second: Vec<PooledHazard> = (0..held)
            .map(|_| PooledHazard::acquire(&NEST_DOMAIN))
            .collect();
        assert_eq!(distinct(&second), held);
        assert_eq!(
            NEST_DOMAIN.high_water.load(Ordering::SeqCst),
            held,
            "no slot was lost between the cache and the domain"
        );
    }

    #[test]
    fn pooled_hazard_protects_like_plain() {
        static POOL_DOMAIN2: Domain = Domain::new();
        let value = Box::into_raw(Box::new(11_u64));
        let shared = AtomicPtr::new(value);
        let mut hp = PooledHazard::acquire(&POOL_DOMAIN2);
        let p = hp.protect(&shared);
        assert_eq!(unsafe { *p }, 11);
        drop(hp);
        unsafe { drop(Box::from_raw(value)) };
    }

    #[test]
    fn concurrent_protect_retire_stress() {
        static STRESS_DOMAIN: Domain = Domain::new();
        let shared = Arc::new(AtomicPtr::new(Box::into_raw(Box::new(0_u64))));
        let stop = Arc::new(StdAtomicUsize::new(0));

        let readers: Vec<_> = (0..3)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut h = HazardPointer::new(&STRESS_DOMAIN);
                    let mut checksum = 0_u64;
                    while stop.load(Ordering::SeqCst) == 0 {
                        let p = h.protect(&shared);
                        if !p.is_null() {
                            // Safety: protected ⇒ not freed.
                            checksum ^= unsafe { *p };
                        }
                        h.clear();
                    }
                    checksum
                })
            })
            .collect();

        for i in 1..3_000_u64 {
            let fresh = Box::into_raw(Box::new(i));
            let old = shared.swap(fresh, Ordering::AcqRel);
            unsafe { STRESS_DOMAIN.retire(old) };
        }
        stop.store(1, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        let last = shared.swap(std::ptr::null_mut(), Ordering::AcqRel);
        unsafe { STRESS_DOMAIN.retire(last) };
        STRESS_DOMAIN.eager_scan();
    }
}
