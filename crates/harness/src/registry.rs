//! The algorithm registry: every queue in the paper's evaluation, plus
//! extra contenders that are *not* part of the reproduced figures.

use std::sync::Arc;

use msq_arena::MemBudget;
use msq_baselines::{
    McQueue, PljQueue, RepairableMcQueue, RepairableSingleLockQueue, SingleLockQueue, ValoisQueue,
};
use msq_core::{
    RepairableTwoLockQueue, WordMsQueue, WordSegQueue, WordShardedQueue, WordTwoLockQueue,
    DEFAULT_SHARDS,
};
use msq_platform::{ConcurrentWordQueue, Platform};

/// The six algorithms of Figures 3–5, in the paper's legend order, plus
/// extension contenders (kept out of [`Algorithm::ALL`] so the reproduced
/// figures stay faithful to the paper's legend).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// "Single lock": one TTAS lock around both queue ends.
    SingleLock,
    /// "MC lock-free": Mellor-Crummey's swap-based (blocking) queue.
    MellorCrummey,
    /// "Valois non-blocking": reference-counted, lagging-tail queue.
    Valois,
    /// "new two-lock": the paper's Figure 2 algorithm.
    NewTwoLock,
    /// "PLJ non-blocking": Prakash–Lee–Johnson snapshot queue.
    PljNonBlocking,
    /// "new non-blocking": the paper's Figure 1 algorithm.
    NewNonBlocking,
    /// "seg-batched": extension — the MS list over array segments, with
    /// `fetch_add` slot claims amortizing the CAS traffic. Not one of the
    /// paper's six; excluded from the Figures 3–5 legends.
    SegBatched,
    /// "sharded": extension — a relaxed-FIFO front-end striping load
    /// across independent seg-batched sub-queues behind thread-affine
    /// dispatch. Per-shard FIFO only; excluded from the Figures 3–5
    /// legends.
    Sharded,
}

impl Algorithm {
    /// The paper's six algorithms in the paper's legend order. Figure
    /// sweeps iterate exactly this set.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::SingleLock,
        Algorithm::MellorCrummey,
        Algorithm::Valois,
        Algorithm::NewTwoLock,
        Algorithm::PljNonBlocking,
        Algorithm::NewNonBlocking,
    ];

    /// The extension contenders: everything benchable that is *not* one
    /// of the paper's six. New extensions are added here (and only here);
    /// [`Algorithm::WITH_EXTENSIONS`] is derived.
    pub const EXTENSIONS: [Algorithm; 2] = [Algorithm::SegBatched, Algorithm::Sharded];

    /// The paper's six plus the extension contenders, for benches and
    /// ad-hoc comparisons. Derived as `ALL ++ EXTENSIONS` so the paper
    /// prefix can never drift out of sync with the legend order.
    pub const WITH_EXTENSIONS: [Algorithm; Algorithm::ALL.len() + Algorithm::EXTENSIONS.len()] = {
        let mut out = [Algorithm::SingleLock; Algorithm::ALL.len() + Algorithm::EXTENSIONS.len()];
        let mut i = 0;
        while i < Algorithm::ALL.len() {
            out[i] = Algorithm::ALL[i];
            i += 1;
        }
        let mut j = 0;
        while j < Algorithm::EXTENSIONS.len() {
            out[Algorithm::ALL.len() + j] = Algorithm::EXTENSIONS[j];
            j += 1;
        }
        out
    };

    /// The label used in figures and CSV headers.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::SingleLock => "single-lock",
            Algorithm::MellorCrummey => "mellor-crummey",
            Algorithm::Valois => "valois",
            Algorithm::NewTwoLock => "new-two-lock",
            Algorithm::PljNonBlocking => "plj-nonblocking",
            Algorithm::NewNonBlocking => "new-nonblocking",
            Algorithm::SegBatched => "seg-batched",
            Algorithm::Sharded => "sharded",
        }
    }

    /// Parses a label back into an algorithm (extensions included).
    pub fn from_label(label: &str) -> Option<Algorithm> {
        Algorithm::WITH_EXTENSIONS
            .into_iter()
            .find(|a| a.label() == label)
    }

    /// Whether the algorithm is non-blocking in the paper's sense.
    pub fn is_nonblocking(self) -> bool {
        matches!(
            self,
            Algorithm::Valois
                | Algorithm::PljNonBlocking
                | Algorithm::NewNonBlocking
                | Algorithm::SegBatched
                | Algorithm::Sharded
        )
    }

    /// The fault-point label inside the algorithm's *enqueue* critical
    /// window (DESIGN.md §11 taxonomy): the spot where a stalled, preempted
    /// or killed process does maximal damage. For the non-blocking queues
    /// this is the linked-but-tail-lagging window that helping rules cover;
    /// for the lock-based queues it is "holding the enqueue lock"; for
    /// Mellor-Crummey it is the torn-tail window between its `swap` and
    /// link store. The fault bench and tests target these labels.
    ///
    /// Note the segment-based extensions only reach their window once per
    /// segment (the fast path is a `fetch_add` with no window at all), so
    /// faults aimed there fire correspondingly rarely.
    pub fn enqueue_fault_label(self) -> &'static str {
        match self {
            Algorithm::SingleLock => "single-lock:enq:locked",
            Algorithm::MellorCrummey => "mc:enq:window",
            Algorithm::Valois => "valois:enq:window",
            Algorithm::NewTwoLock => "two-lock:enq:locked",
            Algorithm::PljNonBlocking => "plj:enq:window",
            Algorithm::NewNonBlocking => "msq:enq:window",
            Algorithm::SegBatched | Algorithm::Sharded => "seg:enq:window",
        }
    }

    /// The *dequeue*-side counterpart of
    /// [`Algorithm::enqueue_fault_label`]: the window a halted dequeuer
    /// leaves torn. For the lock-based queues this is "holding the
    /// dequeue (head) lock" — a death there blocks every survivor. For
    /// the non-blocking queues (and, notably, Mellor-Crummey, whose
    /// dequeue side is survivable even though its enqueue window is
    /// blocking) it is the Head-swung-but-dummy-not-yet-recycled window:
    /// a death there strands at most one node and blocks nobody.
    ///
    /// As with the enqueue side, the segment-based extensions only reach
    /// their window (`seg:reclaim`, the D10–D14 unlink ladder) once per
    /// fully-consumed segment, so faults aimed there fire rarely.
    pub fn dequeue_fault_label(self) -> &'static str {
        match self {
            Algorithm::SingleLock => "single-lock:deq:locked",
            Algorithm::MellorCrummey => "mc:deq:window",
            Algorithm::Valois => "valois:deq:window",
            Algorithm::NewTwoLock => "two-lock:deq:locked",
            Algorithm::PljNonBlocking => "plj:deq:window",
            Algorithm::NewNonBlocking => "msq:deq:window",
            Algorithm::SegBatched | Algorithm::Sharded => "seg:reclaim",
        }
    }

    /// Whether a process killed inside the algorithm's *dequeue* window
    /// ([`Algorithm::dequeue_fault_label`]) leaves the queue operable for
    /// survivors. True for every non-blocking queue and for
    /// Mellor-Crummey (its dequeue tears nothing); false only for the
    /// queues whose dequeue window is a held lock.
    pub fn dequeue_death_survivable(self) -> bool {
        !matches!(self, Algorithm::SingleLock | Algorithm::NewTwoLock)
    }

    /// Whether the algorithm has a crash-survivable repair mode
    /// (DESIGN.md §13): the blocking queues whose critical windows can
    /// wedge survivors have one; the non-blocking queues do not need one —
    /// their helping rules already make every death survivable.
    pub fn has_repairable_variant(self) -> bool {
        matches!(
            self,
            Algorithm::SingleLock | Algorithm::NewTwoLock | Algorithm::MellorCrummey
        )
    }

    /// Constructs the queue over any platform with the given capacity.
    pub fn build<P: Platform>(self, platform: &P, capacity: u32) -> Arc<dyn ConcurrentWordQueue> {
        self.build_with_budget(platform, capacity, None, false)
    }

    /// As [`Algorithm::build`], optionally metering memory residency
    /// against a shared [`MemBudget`], and with `repair` set building the
    /// queues that have a repair mode ([`Algorithm::has_repairable_variant`])
    /// in it: revocable locks plus intent-cell repair for the lock-based
    /// queues, announce-cell repair for Mellor-Crummey. Algorithms without
    /// one build their ordinary (already death-survivable) queue, so a
    /// repair-enabled sweep can still cover the full legend.
    ///
    /// The segment-based extensions ([`Algorithm::SegBatched`],
    /// [`Algorithm::Sharded`]) reserve and release units segment by
    /// segment; every node-arena algorithm (the paper's six)
    /// force-reserves its whole preallocated pool for the queue's
    /// lifetime, so an over-budget pool surfaces in
    /// [`MemBudget::overruns`] rather than failing construction.
    pub fn build_with_budget<P: Platform>(
        self,
        platform: &P,
        capacity: u32,
        budget: Option<Arc<MemBudget<P>>>,
        repair: bool,
    ) -> Arc<dyn ConcurrentWordQueue> {
        match self {
            Algorithm::SingleLock if repair => {
                Arc::new(RepairableSingleLockQueue::new(platform, capacity, budget))
            }
            Algorithm::SingleLock => {
                Arc::new(SingleLockQueue::<P>::new(platform, capacity, budget))
            }
            Algorithm::MellorCrummey if repair => {
                Arc::new(RepairableMcQueue::new(platform, capacity, budget))
            }
            Algorithm::MellorCrummey => Arc::new(McQueue::<P>::new(platform, capacity, budget)),
            Algorithm::NewTwoLock if repair => {
                Arc::new(RepairableTwoLockQueue::new(platform, capacity, budget))
            }
            Algorithm::NewTwoLock => {
                Arc::new(WordTwoLockQueue::<P>::new(platform, capacity, budget))
            }
            Algorithm::Valois => match budget {
                Some(budget) => Arc::new(ValoisQueue::with_capacity_and_budget(
                    platform, capacity, budget,
                )),
                None => Arc::new(ValoisQueue::with_capacity(platform, capacity)),
            },
            Algorithm::PljNonBlocking => match budget {
                Some(budget) => Arc::new(PljQueue::with_capacity_and_budget(
                    platform, capacity, budget,
                )),
                None => Arc::new(PljQueue::with_capacity(platform, capacity)),
            },
            Algorithm::NewNonBlocking => match budget {
                Some(budget) => Arc::new(WordMsQueue::with_capacity_and_budget(
                    platform, capacity, budget,
                )),
                None => Arc::new(WordMsQueue::with_capacity(platform, capacity)),
            },
            Algorithm::SegBatched => match budget {
                Some(budget) => Arc::new(WordSegQueue::with_capacity_and_budget(
                    platform, capacity, budget,
                )),
                None => Arc::new(WordSegQueue::with_capacity(platform, capacity)),
            },
            Algorithm::Sharded => match budget {
                Some(budget) => Arc::new(WordShardedQueue::with_shards_and_budget(
                    platform,
                    capacity,
                    DEFAULT_SHARDS,
                    budget,
                )),
                None => Arc::new(WordShardedQueue::with_capacity(platform, capacity)),
            },
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::NativePlatform;

    #[test]
    fn all_algorithms_build_and_work() {
        let platform = NativePlatform::new();
        for alg in Algorithm::WITH_EXTENSIONS {
            let q = alg.build(&platform, 16);
            q.enqueue(42).unwrap();
            assert_eq!(q.dequeue(), Some(42), "{alg} round trip");
            assert_eq!(q.dequeue(), None, "{alg} empty");
        }
    }

    #[test]
    fn repairable_builds_cover_the_legend() {
        let platform = NativePlatform::new();
        for alg in Algorithm::WITH_EXTENSIONS {
            let q = alg.build_with_budget(&platform, 16, None, true);
            q.enqueue(7).unwrap();
            assert_eq!(q.dequeue(), Some(7), "{alg} repairable round trip");
            assert_eq!(
                q.name().ends_with("-repair"),
                alg.has_repairable_variant(),
                "{alg} built {}",
                q.name()
            );
        }
    }

    #[test]
    fn labels_round_trip() {
        for alg in Algorithm::WITH_EXTENSIONS {
            assert_eq!(Algorithm::from_label(alg.label()), Some(alg));
        }
        assert_eq!(Algorithm::from_label("nope"), None);
    }

    #[test]
    fn nonblocking_flags_match_implementations() {
        let platform = NativePlatform::new();
        for alg in Algorithm::WITH_EXTENSIONS {
            let q = alg.build(&platform, 4);
            assert_eq!(q.is_nonblocking(), alg.is_nonblocking(), "{alg}");
        }
    }

    #[test]
    fn legend_order_matches_paper() {
        assert_eq!(Algorithm::ALL[0], Algorithm::SingleLock);
        assert_eq!(Algorithm::ALL[5], Algorithm::NewNonBlocking);
    }

    #[test]
    fn extensions_stay_out_of_the_paper_legend() {
        assert_eq!(Algorithm::ALL.len(), 6, "the paper has exactly six");
        for ext in Algorithm::EXTENSIONS {
            assert!(!Algorithm::ALL.contains(&ext), "{ext} leaked into ALL");
        }
        assert_eq!(Algorithm::SegBatched.label(), "seg-batched");
        assert_eq!(Algorithm::Sharded.label(), "sharded");
    }

    #[test]
    fn with_extensions_is_all_then_extensions() {
        assert_eq!(
            Algorithm::WITH_EXTENSIONS.len(),
            Algorithm::ALL.len() + Algorithm::EXTENSIONS.len()
        );
        assert_eq!(
            Algorithm::WITH_EXTENSIONS[..Algorithm::ALL.len()],
            Algorithm::ALL
        );
        assert_eq!(
            Algorithm::WITH_EXTENSIONS[Algorithm::ALL.len()..],
            Algorithm::EXTENSIONS
        );
        // No duplicates anywhere.
        for (i, a) in Algorithm::WITH_EXTENSIONS.iter().enumerate() {
            for b in &Algorithm::WITH_EXTENSIONS[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
