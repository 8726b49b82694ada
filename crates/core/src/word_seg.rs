//! The segment-batched non-blocking queue over the `Platform` abstraction.
//!
//! This is the word-level twin of [`SegQueue`](crate::SegQueue): the
//! Michael–Scott list where each node is an array segment from a
//! [`SegArena`], so the paper's per-operation link/unlink CASes amortize
//! over `seg_size` operations. Running over `Platform` means the same code
//! executes on hardware atomics and inside the `msq-sim` coherence
//! simulator, where its cache-miss advantage over the per-node queue can
//! be measured directly.
//!
//! Where the heap variant leans on hazard pointers, this one leans on the
//! paper's tagging discipline, extended from pointers to *every* mutable
//! segment word: the arena stamps states, claim counters, and dequeue
//! indices with the segment's generation (see [`SegArena`]), so any
//! action by a process holding a recycled segment fails its CAS. The one
//! asymmetry is the value word, which cannot carry a tag: an enqueuer
//! therefore claims its slot with a generation-checked `EMPTY → WRITING`
//! CAS *before* storing the value, and publishes with `WRITING → FULL`
//! afterwards. Dequeuers never poison a `WRITING` slot, so the store is
//! always generation-correct; the cost is a two-store publication window
//! in which a preempted enqueuer delays dequeuers at that slot (every
//! other path keeps the paper's lock-freedom).

use std::sync::Arc;

use msq_arena::{MemBudget, SegArena};
use msq_platform::{
    AtomicWord, Backoff, BackoffConfig, BatchFull, ConcurrentWordQueue, Platform, QueueFull,
    Tagged, NULL_INDEX,
};

/// Slot states (index half of a `{state, gen}` word). `EMPTY` must be 0:
/// [`SegArena::free`] resets state words to `{0, gen}`.
const EMPTY: u32 = 0;
const WRITING: u32 = 1;
const FULL: u32 = 2;
const TAKEN: u32 = 3;

/// How many times a dequeuer re-reads a claimed-but-unpublished slot
/// before poisoning it. Generous, because a poisoned claim burns a slot
/// of capacity until its segment is recycled.
const POISON_PATIENCE: usize = 256;

/// Extra segments beyond `ceil(capacity / seg_size)`: one for the
/// partially drained head, one for the partially filled tail, plus margin
/// for slots burnt by poisoning/stale claims. With this headroom,
/// `enqueue` only reports [`QueueFull`] under genuine (or pathological
/// stall-induced) exhaustion; callers that retry always recover once a
/// drained segment is recycled.
const SEG_HEADROOM: u32 = 4;

/// Frees an unlinked, fully-consumed segment when dropped. The reclaim
/// ladder holds one of these across its `seg:reclaim` fault point so a
/// kill there recycles the segment during the unwind — the killed
/// process's memory operations take the post-mortem direct path, so the
/// destructor cannot deadlock on the scheduler.
struct FreeSegOnDrop<'a, P: Platform> {
    arena: &'a SegArena<P>,
    seg: u32,
}

impl<P: Platform> Drop for FreeSegOnDrop<'_, P> {
    fn drop(&mut self) {
        self.arena.free(self.seg);
    }
}

/// The Michael–Scott non-blocking queue with array-segment nodes, over a
/// segment arena.
///
/// # Example
///
/// ```
/// use msq_core::WordSegQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = WordSegQueue::with_capacity(&NativePlatform::new(), 128);
/// queue.enqueue(7).unwrap();
/// queue.enqueue(8).unwrap();
/// assert_eq!(queue.dequeue(), Some(7));
/// assert_eq!(queue.dequeue(), Some(8));
/// assert_eq!(queue.dequeue(), None);
/// ```
pub struct WordSegQueue<P: Platform> {
    /// `{segment index, modification counter}`.
    head: P::Cell,
    /// `{segment index, modification counter}`.
    tail: P::Cell,
    arena: SegArena<P>,
    platform: P,
    backoff: BackoffConfig,
    capacity: u32,
}

impl<P: Platform> WordSegQueue<P> {
    /// Default slots per segment.
    pub const DEFAULT_SEG_SIZE: u32 = 32;

    /// Creates a queue able to hold at least `capacity` values, with
    /// 32-slot segments and default backoff.
    ///
    /// # Panics
    ///
    /// Panics if the implied segment count does not fit a tagged index.
    pub fn with_capacity(platform: &P, capacity: u32) -> Self {
        Self::new(platform, capacity, None)
    }

    /// As [`WordSegQueue::with_capacity`] with explicit backoff parameters
    /// (the ablation benches pass [`BackoffConfig::DISABLED`]).
    pub fn with_capacity_and_backoff(platform: &P, capacity: u32, backoff: BackoffConfig) -> Self {
        Self::with_seg_size_and_backoff(platform, capacity, Self::DEFAULT_SEG_SIZE, backoff)
    }

    /// As [`WordSegQueue::with_capacity`], but with a `budget` the queue's
    /// segment residency (live segments, including the dummy) is reserved
    /// against it, shared with any other arenas on the same budget. When
    /// the budget is exhausted the growth paths report
    /// [`QueueFull`] / [`BatchFull`] backpressure exactly as an exhausted
    /// arena does — natively and under the simulator alike, since the
    /// budget's counters are platform cells.
    ///
    /// Note the dummy segment consumes one unit for the queue's whole
    /// lifetime: a budget below the number of sharing queues cannot even
    /// construct them.
    ///
    /// # Panics
    ///
    /// Panics if the implied segment count does not fit a tagged index.
    pub fn new(platform: &P, capacity: u32, budget: Option<Arc<MemBudget<P>>>) -> Self {
        Self::build(
            platform,
            capacity,
            Self::DEFAULT_SEG_SIZE,
            BackoffConfig::DEFAULT,
            budget,
        )
    }

    /// Full control over segment size, for the segment-size ablation.
    ///
    /// # Panics
    ///
    /// Panics if `seg_size` is 0 or the implied segment count does not fit
    /// a tagged index.
    pub fn with_seg_size_and_backoff(
        platform: &P,
        capacity: u32,
        seg_size: u32,
        backoff: BackoffConfig,
    ) -> Self {
        Self::build(platform, capacity, seg_size, backoff, None)
    }

    fn build(
        platform: &P,
        capacity: u32,
        seg_size: u32,
        backoff: BackoffConfig,
        budget: Option<Arc<MemBudget<P>>>,
    ) -> Self {
        assert!(seg_size > 0, "segments need at least one slot");
        let seg_count = capacity.div_ceil(seg_size).max(1) + SEG_HEADROOM;
        let arena = SegArena::new(platform, seg_count, seg_size, budget);
        // initialize(Q): one segment plays the role of the dummy node;
        // Head and Tail both point at it.
        let first = arena
            .alloc()
            .expect("fresh arena with at least one budget unit");
        arena.set_next(first, NULL_INDEX);
        let head = platform.alloc_cell(Tagged::new(first, 0).raw());
        let tail = platform.alloc_cell(Tagged::new(first, 0).raw());
        WordSegQueue {
            head,
            tail,
            arena,
            platform: platform.clone(),
            backoff,
            capacity,
        }
    }

    /// The capacity the queue was sized for (a guaranteed lower bound on
    /// what it can hold; the segment rounding adds slack).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Slots per segment.
    pub fn seg_size(&self) -> u32 {
        self.arena.seg_size()
    }

    /// The memory budget the queue's arena reserves against, if any.
    pub fn budget(&self) -> Option<&Arc<MemBudget<P>>> {
        self.arena.budget()
    }
}

impl<P: Platform> ConcurrentWordQueue for WordSegQueue<P> {
    fn enqueue(&self, value: u64) -> Result<(), QueueFull> {
        let k = self.arena.seg_size();
        let mut backoff = Backoff::new(self.backoff);
        // A segment we prepared for an append that lost its race, kept
        // (exclusively owned) for the next attempt.
        let mut spare: Option<u32> = None;
        loop {
            // Read Tail, the segment's generation, and re-validate Tail —
            // the word-level analogue of E5–E7: a consistent (tail, gen)
            // snapshot means the segment was live *as the tail* when the
            // generation was read.
            let tail_raw = self.tail.load();
            let tail = Tagged::from_raw(tail_raw);
            let seg = tail.index();
            let gtag = self.arena.gen(seg) as u32;
            if self.tail.load() != tail_raw {
                continue;
            }

            // Fast path: claim a slot with one fetch_add — the only
            // access most enqueues make to the shared counter. The
            // returned previous value carries the generation tag, so no
            // pre-read of the hot word (and its extra coherence miss) is
            // needed. On a full segment the increment is wasted but
            // harmless: growth is one claim per contending process per
            // retry, and overflow into the tag half would need 2^32
            // claims within a single generation.
            let prev = Tagged::from_raw(self.arena.enq_cell(seg).fetch_add(1));
            if prev.tag() != gtag {
                // The segment recycled under us: the increment burnt a
                // claim index of the *new* generation, which its
                // dequeuers will poison past. Harmless; retry.
                continue;
            }
            let t = prev.index();
            if t < k {
                // Claim slot t: EMPTY -> WRITING, generation-checked.
                // Only after this CAS is a value store safe — the slot
                // provably belongs to generation `gtag` and cannot be
                // poisoned or recycled until we publish.
                let state = self.arena.state_cell(seg, t);
                if state.cas(
                    Tagged::new(EMPTY, gtag).raw(),
                    Tagged::new(WRITING, gtag).raw(),
                ) {
                    self.arena.value_cell(seg, t).store(value);
                    state.store(Tagged::new(FULL, gtag).raw());
                    if let Some(s) = spare.take() {
                        self.arena.free(s);
                    }
                    return Ok(());
                }
                // Poisoned by an impatient dequeuer (or the segment
                // recycled): the claim is a non-event; re-claim.
                backoff.spin(&self.platform);
                continue;
            }
            // t >= k: segment full; fall through to append.

            // Slow path: the tail segment is full — the paper's E8–E13,
            // once per seg_size enqueues.
            let next = self.arena.next(seg);
            // E7: `next` is meaningful only if `seg` was still the tail
            // when it was read. Once recycled, the segment's next word is
            // a free-list link, and acting on it would swing Tail onto a
            // free segment or link after a segment that is not full.
            if self.tail.load() != tail_raw {
                continue;
            }
            if !next.is_null() {
                // E12: Tail is lagging; help swing it and retry.
                self.tail.cas(tail_raw, tail.with_index(next.index()).raw());
                continue;
            }
            // Prepare a fresh segment with our value pre-installed in slot
            // 0, so the append CAS is also this enqueue's linearization
            // point. We own `fresh` exclusively until that CAS.
            let Some(fresh) = spare.take().or_else(|| self.arena.alloc()) else {
                return Err(QueueFull(value));
            };
            let fgtag = self.arena.gen(fresh) as u32;
            self.arena.set_next(fresh, NULL_INDEX);
            self.arena.value_cell(fresh, 0).store(value);
            self.arena
                .state_cell(fresh, 0)
                .store(Tagged::new(FULL, fgtag).raw());
            self.arena
                .enq_cell(fresh)
                .store(Tagged::new(1, fgtag).raw());
            // E9: link the segment at the end of the list.
            if self.arena.cas_next(seg, next, fresh) {
                // Linked but Tail not yet swung — the E12 helping rule
                // lets any process finish it, so a fault here blocks
                // nobody (the per-slot WRITING window is the exception,
                // covered by the poisoning protocol).
                self.platform.fault_point("seg:enq:window");
                // E13: enqueue done; try to swing Tail to the segment.
                self.tail.cas(tail_raw, tail.with_index(fresh).raw());
                return Ok(());
            }
            // E9 failed: another process appended first. Unwind our slot-0
            // installation and keep the segment for the next attempt.
            self.arena
                .state_cell(fresh, 0)
                .store(Tagged::new(EMPTY, fgtag).raw());
            self.arena
                .enq_cell(fresh)
                .store(Tagged::new(0, fgtag).raw());
            spare = Some(fresh);
            backoff.spin(&self.platform);
        }
    }

    fn dequeue(&self) -> Option<u64> {
        let k = self.arena.seg_size();
        let mut backoff = Backoff::new(self.backoff);
        loop {
            // D2–D5 analogue: consistent (head, gen) snapshot. Unlike the
            // heap variant, `head`'s modification counter rules out ABA
            // outright: an unchanged raw word means the head never moved.
            let head_raw = self.head.load();
            let head = Tagged::from_raw(head_raw);
            let seg = head.index();
            let gtag = self.arena.gen(seg) as u32;
            if self.head.load() != head_raw {
                continue;
            }

            let deq = Tagged::from_raw(self.arena.deq_cell(seg).load());
            if deq.tag() != gtag {
                continue;
            }
            let d = deq.index();

            if d >= k {
                // Segment fully consumed: unlink it (the paper's D10–D14,
                // once per seg_size dequeues). Read Tail, then `next`, then
                // re-check Head (D3–D5): an unchanged Head means `seg` was
                // still the head, so not recycled, when both were read. A
                // recycled segment's next word is a free-list link.
                let tail_raw = self.tail.load();
                let next = self.arena.next(seg);
                if self.head.load() != head_raw {
                    continue;
                }
                if next.is_null() {
                    // Empty: the null `next` was read while `seg` was the
                    // (fully drained) head segment, the linearization
                    // point of this empty dequeue.
                    return None;
                }
                // Head must never pass Tail: help Tail off this segment
                // first (the D9 helping rule).
                let tail = Tagged::from_raw(tail_raw);
                if tail.index() == seg {
                    self.tail.cas(tail_raw, tail.with_index(next.index()).raw());
                }
                if self.head.cas(head_raw, head.with_index(next.index()).raw()) {
                    // Head is off the segment but it is not yet recycled.
                    // Recycling happens on drop so that a process killed
                    // at the fault point below still frees the segment
                    // (and credits its budget unit) during the kill
                    // unwind: death in the reclaim ladder blocks nobody
                    // and strands nothing.
                    let reclaim = FreeSegOnDrop {
                        arena: &self.arena,
                        seg,
                    };
                    self.platform.fault_point("seg:reclaim");
                    // D14 analogue: safe to recycle — Tail was helped off,
                    // and every stale process fails its generation check.
                    drop(reclaim);
                }
                continue;
            }

            let state_cell = self.arena.state_cell(seg, d);
            let state = Tagged::from_raw(state_cell.load());
            if state.tag() != gtag {
                continue;
            }
            match state.index() {
                FULL => {
                    // D11: read the value BEFORE the index CAS — after it,
                    // the segment may drain, recycle, and be overwritten.
                    // The generation tag on the CAS detects exactly that.
                    let value = self.arena.value_cell(seg, d).load();
                    if self
                        .arena
                        .deq_cell(seg)
                        .cas(deq.raw(), Tagged::new(d + 1, gtag).raw())
                    {
                        return Some(value);
                    }
                    backoff.spin(&self.platform);
                }
                TAKEN => {
                    // Poisoned slot; step over it.
                    self.arena
                        .deq_cell(seg)
                        .cas(deq.raw(), Tagged::new(d + 1, gtag).raw());
                }
                WRITING => {
                    // Publication in progress: a two-store window. Never
                    // poison it — the value store may already have landed.
                    backoff.spin(&self.platform);
                }
                _ => {
                    // EMPTY. A bulk splice publishes values without per-slot
                    // state transitions: slots below the segment's prefill
                    // count hold live values despite their EMPTY state, and
                    // must never be poisoned.
                    let pre = Tagged::from_raw(self.arena.prefill_cell(seg).load());
                    if pre.tag() != gtag {
                        continue;
                    }
                    if d < pre.index() {
                        // D11 again: read the value before the index CAS.
                        let value = self.arena.value_cell(seg, d).load();
                        if self
                            .arena
                            .deq_cell(seg)
                            .cas(deq.raw(), Tagged::new(d + 1, gtag).raw())
                        {
                            return Some(value);
                        }
                        backoff.spin(&self.platform);
                        continue;
                    }
                    let enq = Tagged::from_raw(self.arena.enq_cell(seg).load());
                    if enq.tag() != gtag {
                        continue;
                    }
                    if enq.index() <= d {
                        // No claim covers slot d, so no append ever
                        // happened either (appending requires a full
                        // counter): empty if the head is unmoved.
                        if self.arena.next(seg).is_null() && self.head.load() == head_raw {
                            return None;
                        }
                        continue;
                    }
                    // A claimant owns slot d but has not started writing.
                    // Wait, then poison, so one stalled enqueuer cannot
                    // block the queue (it re-claims when it resumes).
                    let mut moved = false;
                    for _ in 0..POISON_PATIENCE {
                        if state_cell.load() != Tagged::new(EMPTY, gtag).raw() {
                            moved = true;
                            break;
                        }
                        self.platform.cpu_relax();
                    }
                    if !moved {
                        state_cell.cas(
                            Tagged::new(EMPTY, gtag).raw(),
                            Tagged::new(TAKEN, gtag).raw(),
                        );
                    }
                }
            }
        }
    }

    /// Bulk enqueue: fill privately, publish with one link CAS.
    ///
    /// While the tail segment has room, a single `fetch_add` claims a run
    /// of its slots (one contended atomic for up to `seg_size` values).
    /// Once the tail is full, the remaining suffix is copied into a
    /// privately-owned chain of pool segments — one plain value store per
    /// slot, the per-segment `prefill` word standing in for every slot
    /// state — and the whole chain is spliced after the tail with a single
    /// `next` CAS, which is the linearization point of every value it
    /// carries. A batch of `n` values therefore costs O(n / seg_size)
    /// contended CASes instead of O(n).
    fn enqueue_batch(&self, values: &[u64]) -> Result<(), BatchFull> {
        let k = self.arena.seg_size();
        let mut backoff = Backoff::new(self.backoff);
        let mut pushed = 0usize;
        // Segments kept from a lost splice race, still privately owned.
        let mut spares: Vec<u32> = Vec::new();
        loop {
            if pushed == values.len() {
                for s in spares {
                    self.arena.free(s);
                }
                return Ok(());
            }
            let remaining = values.len() - pushed;

            // Consistent (tail, gen) snapshot, exactly as in `enqueue`.
            let tail_raw = self.tail.load();
            let tail = Tagged::from_raw(tail_raw);
            let seg = tail.index();
            let gtag = self.arena.gen(seg) as u32;
            if self.tail.load() != tail_raw {
                continue;
            }

            // Fast path: claim a run of tail slots with ONE fetch_add.
            // Capping the delta at seg_size bounds what a stale add on a
            // recycled segment can burn to one segment's worth of claims.
            let delta = remaining.min(k as usize) as u32;
            let prev = Tagged::from_raw(self.arena.enq_cell(seg).fetch_add(u64::from(delta)));
            if prev.tag() != gtag {
                continue;
            }
            let t = prev.index();
            if t < k {
                // Fill the claimed run [t, end) in slice order. A poisoned
                // slot shifts the pending value to the next slot of the
                // run, so batch order survives; the burnt slot costs
                // capacity, never ordering.
                let end = k.min(t + delta);
                for slot in t..end {
                    if pushed == values.len() {
                        break;
                    }
                    let state = self.arena.state_cell(seg, slot);
                    if state.cas(
                        Tagged::new(EMPTY, gtag).raw(),
                        Tagged::new(WRITING, gtag).raw(),
                    ) {
                        self.arena.value_cell(seg, slot).store(values[pushed]);
                        state.store(Tagged::new(FULL, gtag).raw());
                        pushed += 1;
                    }
                }
                continue;
            }
            // t >= k: tail segment full — the splice path.
            let next = self.arena.next(seg);
            // E7, as in `enqueue`: a recycled segment's next word is a
            // free-list link.
            if self.tail.load() != tail_raw {
                continue;
            }
            if !next.is_null() {
                // Tail is lagging; help swing it and retry. Helping is
                // progress, so no backoff here.
                self.tail.cas(tail_raw, tail.with_index(next.index()).raw());
                continue;
            }
            // Build a privately-owned chain holding the remaining suffix
            // (or as much of it as the pool can provide). Every chain
            // segment except the last is completely full, preserving the
            // invariant that only a full segment gains a successor.
            let mut chain: Vec<u32> = Vec::new();
            let mut filled = 0usize;
            while filled < remaining {
                let Some(s) = spares.pop().or_else(|| self.arena.alloc()) else {
                    break;
                };
                let sgtag = self.arena.gen(s) as u32;
                let m = ((remaining - filled) as u64).min(u64::from(k)) as u32;
                for i in 0..m {
                    self.arena
                        .value_cell(s, i)
                        .store(values[pushed + filled + i as usize]);
                }
                self.arena
                    .prefill_cell(s)
                    .store(Tagged::new(m, sgtag).raw());
                self.arena.enq_cell(s).store(Tagged::new(m, sgtag).raw());
                self.arena.set_next(s, NULL_INDEX);
                if let Some(&prev_seg) = chain.last() {
                    self.arena.set_next(prev_seg, s);
                }
                chain.push(s);
                filled += m as usize;
            }
            let Some(&chain_head) = chain.first() else {
                // Pool exhausted with nothing to splice. (`spares` is
                // empty: chain building drains it before allocating.)
                return Err(BatchFull { pushed });
            };
            // Splice the whole chain with one CAS — the linearization
            // point of every value it carries.
            if self.arena.cas_next(seg, next, chain_head) {
                let chain_tail = *chain.last().expect("chain is non-empty");
                self.tail.cas(tail_raw, tail.with_index(chain_tail).raw());
                pushed += filled;
                continue;
            }
            // Lost the splice race: the chain is still private. Keep the
            // segments for the next attempt (contents are rebuilt — the
            // fast path may consume part of the suffix first).
            spares.append(&mut chain);
            backoff.spin(&self.platform);
        }
    }

    /// Bulk dequeue: claim a run of published slots with one CAS.
    ///
    /// Scans the published prefix starting at the head segment's dequeue
    /// index — prefilled slots need no state loads at all, slot-enqueued
    /// ones are checked for `FULL` — reads every value in the run (the
    /// D11 rule, applied run-wide), then claims the whole run by moving
    /// the dequeue index once. Slots the run-claim cannot handle (a
    /// publication in progress, a stalled claimant, segment turnover)
    /// fall back to the per-op path for one value.
    fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        let k = self.arena.seg_size();
        let mut backoff = Backoff::new(self.backoff);
        let mut taken = 0usize;
        while taken < max {
            let head_raw = self.head.load();
            let head = Tagged::from_raw(head_raw);
            let seg = head.index();
            let gtag = self.arena.gen(seg) as u32;
            if self.head.load() != head_raw {
                continue;
            }
            let deq = Tagged::from_raw(self.arena.deq_cell(seg).load());
            if deq.tag() != gtag {
                continue;
            }
            let d = deq.index();
            let want = ((max - taken) as u64).min(u64::from(k)) as u32;
            let mut end = d;
            if d < k {
                let pre = Tagged::from_raw(self.arena.prefill_cell(seg).load());
                if pre.tag() != gtag {
                    continue;
                }
                let hard_end = k.min(d + want);
                if d < pre.index() {
                    // Spliced in bulk: published up to the prefill count,
                    // no per-slot state to consult.
                    end = pre.index().min(hard_end);
                } else {
                    // Slot-enqueued: extend the run across FULL slots.
                    while end < hard_end
                        && self.arena.state_cell(seg, end).load() == Tagged::new(FULL, gtag).raw()
                    {
                        end += 1;
                    }
                }
            }
            if end == d {
                // Head slot not consumable by a run claim (EMPTY, WRITING,
                // TAKEN, or a drained segment). The per-op path knows how
                // to wait, step over, poison, or unlink; reuse it.
                match self.dequeue() {
                    Some(value) => {
                        out.push(value);
                        taken += 1;
                    }
                    None => break,
                }
                continue;
            }
            // D11 for a whole run: read every value BEFORE the claim CAS;
            // the generation-checked CAS detects recycling mid-read.
            let base = out.len();
            for slot in d..end {
                out.push(self.arena.value_cell(seg, slot).load());
            }
            if self
                .arena
                .deq_cell(seg)
                .cas(deq.raw(), Tagged::new(end, gtag).raw())
            {
                taken += (end - d) as usize;
            } else {
                // Lost the run claim: discard the speculative reads.
                out.truncate(base);
                backoff.spin(&self.platform);
            }
        }
        taken
    }

    fn name(&self) -> &'static str {
        "seg-batched"
    }

    fn is_nonblocking(&self) -> bool {
        true
    }
}

impl<P: Platform> std::fmt::Debug for WordSegQueue<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WordSegQueue(capacity={}, seg_size={})",
            self.capacity,
            self.arena.seg_size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::NativePlatform;
    use std::sync::Arc;

    fn queue(capacity: u32) -> WordSegQueue<NativePlatform> {
        WordSegQueue::with_capacity(&NativePlatform::new(), capacity)
    }

    fn small_seg_queue(capacity: u32, seg_size: u32) -> WordSegQueue<NativePlatform> {
        WordSegQueue::with_seg_size_and_backoff(
            &NativePlatform::new(),
            capacity,
            seg_size,
            BackoffConfig::DEFAULT,
        )
    }

    #[test]
    fn fifo_order_single_thread() {
        let q = queue(16);
        for i in 0..10 {
            q.enqueue(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn fifo_order_across_segment_boundaries() {
        let q = small_seg_queue(64, 4);
        for i in 0..60 {
            q.enqueue(i).unwrap();
        }
        for i in 0..60 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn empty_queue_dequeues_none() {
        let q = queue(4);
        assert_eq!(q.dequeue(), None);
        assert_eq!(q.dequeue(), None, "repeatable");
    }

    #[test]
    fn segments_are_recycled_through_many_generations() {
        // 10k ops through a tiny segment pool: the generation tags must
        // keep reuse safe.
        let q = small_seg_queue(4, 2);
        for i in 0..10_000 {
            q.enqueue(i).unwrap();
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn capacity_is_a_guaranteed_lower_bound() {
        let q = small_seg_queue(10, 4);
        for i in 0..10 {
            q.enqueue(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(q.dequeue(), Some(i));
        }
    }

    #[test]
    fn mpmc_stress_conserves_values() {
        let q = Arc::new(queue(256));
        let produced: u64 = 4 * 5_000;
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let taken = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..4_u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000_u64 {
                    let v = t * 5_000 + i + 1;
                    loop {
                        if q.enqueue(v).is_ok() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for _ in 0..4 {
            let q = Arc::clone(&q);
            let sum = Arc::clone(&sum);
            let taken = Arc::clone(&taken);
            handles.push(std::thread::spawn(move || {
                while taken.load(std::sync::atomic::Ordering::SeqCst) < produced {
                    if let Some(v) = q.dequeue() {
                        sum.fetch_add(v, std::sync::atomic::Ordering::SeqCst);
                        taken.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let expected: u64 = (1..=produced).sum();
        assert_eq!(sum.load(std::sync::atomic::Ordering::SeqCst), expected);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn per_producer_order_is_preserved() {
        let q = Arc::new(queue(6_000));
        let mut handles = Vec::new();
        for t in 0..3_u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000_u64 {
                    loop {
                        if q.enqueue((t << 32) | i).is_ok() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut last = [None::<u64>; 3];
        while let Some(v) = q.dequeue() {
            let producer = (v >> 32) as usize;
            let seq = v & 0xffff_ffff;
            if let Some(prev) = last[producer] {
                assert!(seq > prev, "producer {producer} out of order");
            }
            last[producer] = Some(seq);
        }
        assert_eq!(last, [Some(1999), Some(1999), Some(1999)]);
    }

    #[test]
    fn works_under_simulation_with_preemption() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 3,
            processes_per_processor: 2,
            quantum_ns: 100_000,
            ..SimConfig::default()
        });
        let q = Arc::new(WordSegQueue::with_capacity(&sim.platform(), 64));
        let report = sim.run({
            let q = Arc::clone(&q);
            move |info| {
                for i in 0..100 {
                    let v = (info.pid as u64) << 32 | i;
                    q.enqueue(v).unwrap();
                    q.dequeue().expect("an item is always available");
                }
            }
        });
        assert_eq!(q.dequeue(), None);
        assert!(report.total_ops > 0);
    }

    #[test]
    fn batch_round_trip_across_segments() {
        // Batch larger than a segment: exercises run-fill + chain splice.
        let q = small_seg_queue(64, 4);
        let values: Vec<u64> = (0..30).collect();
        q.enqueue_batch(&values).unwrap();
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 64), 30);
        assert_eq!(out, values);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn batch_interleaves_with_per_op_calls() {
        let q = small_seg_queue(64, 4);
        q.enqueue(100).unwrap();
        q.enqueue_batch(&[101, 102, 103, 104, 105]).unwrap();
        q.enqueue(106).unwrap();
        for expect in 100..=106 {
            assert_eq!(q.dequeue(), Some(expect));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn batch_full_reports_pushed_prefix_and_suffix_is_retriable() {
        let q = small_seg_queue(8, 4);
        let values: Vec<u64> = (0..1000).collect();
        let err = q.enqueue_batch(&values).unwrap_err();
        let pushed = err.pushed;
        assert!(pushed >= 8, "capacity is a lower bound, got {pushed}");
        assert!(pushed < 1000);
        // The enqueued prefix comes out in order...
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 1000), pushed);
        assert_eq!(out, values[..pushed]);
        // ...and the suffix can be retried once space frees up.
        q.enqueue_batch(&values[pushed..pushed + 4]).unwrap();
        let mut rest = Vec::new();
        q.dequeue_batch(&mut rest, 8);
        assert_eq!(rest, values[pushed..pushed + 4]);
    }

    #[test]
    fn dequeue_batch_respects_max() {
        let q = small_seg_queue(32, 4);
        q.enqueue_batch(&(0..20).collect::<Vec<_>>()).unwrap();
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 7), 7);
        assert_eq!(out, (0..7).collect::<Vec<u64>>());
        assert_eq!(q.dequeue_batch(&mut out, 100), 13);
        assert_eq!(out, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_dequeue_batch_takes_nothing() {
        let q = queue(8);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 4), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn batch_segments_recycle_through_generations() {
        // Push the splice/prefill path through many pool generations.
        let q = small_seg_queue(8, 2);
        let mut next = 0u64;
        for _ in 0..2_000 {
            let batch: Vec<u64> = (next..next + 6).collect();
            q.enqueue_batch(&batch).unwrap();
            let mut out = Vec::new();
            assert_eq!(q.dequeue_batch(&mut out, 6), 6);
            assert_eq!(out, batch);
            next += 6;
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn mpmc_batch_stress_conserves_values_and_producer_order() {
        let q = Arc::new(queue(4096));
        const PRODUCERS: u64 = 3;
        const BATCHES: u64 = 200;
        const BATCH: u64 = 24;
        let mut handles = Vec::new();
        for t in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for b in 0..BATCHES {
                    let batch: Vec<u64> = (0..BATCH).map(|i| (t << 32) | (b * BATCH + i)).collect();
                    let mut rest: &[u64] = &batch;
                    loop {
                        match q.enqueue_batch(rest) {
                            Ok(()) => break,
                            Err(BatchFull { pushed }) => {
                                rest = &rest[pushed..];
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        let total = (PRODUCERS * BATCHES * BATCH) as usize;
        let collected = Arc::new(std::sync::Mutex::new(Vec::new()));
        let taken = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for _ in 0..3 {
            let q = Arc::clone(&q);
            let collected = Arc::clone(&collected);
            let taken = Arc::clone(&taken);
            handles.push(std::thread::spawn(move || {
                let mut local = Vec::new();
                while taken.load(std::sync::atomic::Ordering::SeqCst) < total {
                    let got = q.dequeue_batch(&mut local, 32);
                    if got > 0 {
                        taken.fetch_add(got, std::sync::atomic::Ordering::SeqCst);
                    } else {
                        std::thread::yield_now();
                    }
                }
                collected.lock().unwrap().extend_from_slice(&local);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let all = collected.lock().unwrap();
        assert_eq!(all.len(), total);
        // Conservation: every value exactly once.
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), total);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn batch_ops_work_under_simulation_with_preemption() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 3,
            processes_per_processor: 2,
            quantum_ns: 50_000,
            ..SimConfig::default()
        });
        let q = Arc::new(WordSegQueue::with_capacity(&sim.platform(), 512));
        let report = sim.run({
            let q = Arc::clone(&q);
            move |info| {
                let mut out = Vec::new();
                for b in 0..10u64 {
                    let batch: Vec<u64> = (0..8)
                        .map(|i| (info.pid as u64) << 32 | (b * 8 + i))
                        .collect();
                    let mut rest: &[u64] = &batch;
                    loop {
                        match q.enqueue_batch(rest) {
                            Ok(()) => break,
                            Err(BatchFull { pushed }) => rest = &rest[pushed..],
                        }
                    }
                    let mut got = 0;
                    while got < 8 {
                        got += q.dequeue_batch(&mut out, 8 - got);
                    }
                }
                // Per-producer order within what this process dequeued is
                // not checkable here (items mix across processes); the
                // conservation check below is.
                assert_eq!(out.len(), 80);
            }
        });
        assert_eq!(q.dequeue(), None);
        assert!(report.total_ops > 0);
    }

    #[test]
    fn budget_backpressure_and_recovery_native() {
        let platform = NativePlatform::new();
        let budget = Arc::new(MemBudget::new(&platform, 2));
        let q = WordSegQueue::new(&platform, 64, Some(Arc::clone(&budget)));
        // The dummy segment holds one unit for the queue's lifetime.
        assert_eq!(budget.reserved(), 1);

        let mut accepted = 0u64;
        let rejected = loop {
            match q.enqueue(accepted) {
                Ok(()) => accepted += 1,
                Err(QueueFull(v)) => break v,
            }
        };
        assert_eq!(rejected, accepted, "the rejected value comes back intact");
        assert!(
            accepted >= u64::from(q.seg_size()),
            "two budget units hold at least one segment of values, got {accepted}"
        );
        assert!(budget.reserved() <= 2, "residency never exceeds the limit");
        assert!(budget.denials() > 0, "exhaustion was metered");

        // Draining recycles segments back through the arena, crediting the
        // budget, so the queue recovers without any reconfiguration.
        for i in 0..accepted {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        q.enqueue(u64::MAX).unwrap();
        assert_eq!(q.dequeue(), Some(u64::MAX));
        assert!(budget.reserved() <= 2);
    }

    #[test]
    fn budget_backpressure_and_recovery_under_simulation() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 2,
            ..SimConfig::default()
        });
        let platform = sim.platform();
        let budget = Arc::new(MemBudget::new(&platform, 2));
        let q = Arc::new(WordSegQueue::new(&platform, 64, Some(Arc::clone(&budget))));
        sim.run({
            let q = Arc::clone(&q);
            move |info| {
                if info.pid != 0 {
                    return;
                }
                let mut sent = 0u64;
                let rejected = loop {
                    match q.enqueue(sent) {
                        Ok(()) => sent += 1,
                        Err(QueueFull(v)) => break v,
                    }
                };
                assert_eq!(rejected, sent);
                for i in 0..sent {
                    assert_eq!(q.dequeue(), Some(i));
                }
                q.enqueue(u64::MAX).unwrap();
                assert_eq!(q.dequeue(), Some(u64::MAX));
            }
        });
        assert_eq!(q.dequeue(), None);
        assert!(budget.reserved() <= 2, "simulated residency is capped too");
        assert!(budget.denials() > 0);
    }

    #[test]
    fn reports_identity() {
        let q = queue(1);
        assert_eq!(q.name(), "seg-batched");
        assert!(q.is_nonblocking());
        assert_eq!(q.capacity(), 1);
        assert_eq!(
            q.seg_size(),
            WordSegQueue::<NativePlatform>::DEFAULT_SEG_SIZE
        );
    }

    /// Regression for the backoff placement rule: the batch paths spin
    /// only after *losing* a race (failed splice CAS, failed run-claim
    /// CAS), never after helping swing the tail. If backoff ever got
    /// dropped from the new loss points — or misapplied to the helping
    /// path, where it would stall the helper without reducing contention
    /// — this deterministic cell moves: disabling backoff must never
    /// *reduce* failed CASes, and the contended cell must actually fail
    /// CASes so the comparison is not vacuous.
    #[test]
    fn batch_paths_back_off_on_lost_races() {
        use msq_sim::{SimConfig, Simulation};

        fn contended_batch_cell(backoff: BackoffConfig) -> u64 {
            let sim = Simulation::new(SimConfig {
                processors: 8,
                ..SimConfig::default()
            });
            let q = Arc::new(WordSegQueue::with_capacity_and_backoff(
                &sim.platform(),
                4_096,
                backoff,
            ));
            let report = sim.run({
                let q = Arc::clone(&q);
                move |info| {
                    for round in 0..8_u64 {
                        let values: Vec<u64> = (0..32)
                            .map(|i| ((info.pid as u64) << 32) | (round * 32 + i))
                            .collect();
                        let mut rest: &[u64] = &values;
                        loop {
                            match q.enqueue_batch(rest) {
                                Ok(()) => break,
                                Err(e) => rest = &rest[e.pushed..],
                            }
                        }
                        let mut out = Vec::with_capacity(32);
                        while out.len() < 32 {
                            let want = 32 - out.len();
                            q.dequeue_batch(&mut out, want);
                        }
                    }
                }
            });
            report.cas_failures
        }

        let with_backoff = contended_batch_cell(BackoffConfig::DEFAULT);
        let without = contended_batch_cell(BackoffConfig::DISABLED);
        assert!(without > 0, "cell must contend for the comparison to bite");
        assert!(
            with_backoff <= without,
            "backoff made batch-path contention worse: {with_backoff} failed \
             CASes with backoff vs {without} without"
        );
    }
}
