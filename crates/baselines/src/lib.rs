//! The comparison algorithms from the paper's evaluation (Section 4), plus
//! two auxiliary published structures the paper builds on or cites.
//!
//! | Type | Algorithm | Properties |
//! |---|---|---|
//! | [`SingleLockQueue`] | one test-and-test_and_set lock around both ends | blocking; the paper's "straightforward single-lock queue" |
//! | [`McQueue`] | Mellor-Crummey TR 229 (reconstructed) | lock-free *but blocking*: `fetch_and_store`-based enqueue is ABA-immune, yet a stalled enqueuer stalls every dequeuer |
//! | [`PljQueue`] | Prakash–Lee–Johnson (reconstructed) | non-blocking, linearizable; takes a two-variable snapshot and helps stalled operations |
//! | [`ValoisQueue`] | Valois with the corrected reference-count manager | non-blocking; `Tail` may lag arbitrarily, so reclamation needs per-node counts — with the paper's memory-exhaustion failure mode |
//! | [`TreiberStack`] | Treiber's non-blocking stack | the free-list algorithm, exposed as a structure |
//! | [`LamportQueue`] | Lamport's wait-free ring | single-producer/single-consumer only |
//! | [`RepairableSingleLockQueue`] / [`RepairableMcQueue`] | the two blocking baselines in `msq_sync::Repair` mode (DESIGN.md §13) | revocable-lock / announce-cell repair closes the wedge-on-death hole; aliases, not separate types |
//!
//! All queues implement [`msq_platform::ConcurrentWordQueue`] over any
//! [`msq_platform::Platform`], so the harness can drive them natively or in
//! the simulator. Reconstructions preserve exactly the properties the
//! paper's analysis depends on; see `DESIGN.md` §7. Herlihy's universal
//! construction, a heap structure rather than a word queue, lives in
//! `msq-core` as `HerlihyQueue`, on the same hazard pointers as the other
//! heap structures.

#![warn(missing_docs)]

mod lamport;
mod mellor_crummey;
mod plj;
mod single_lock;
mod treiber;
mod valois_queue;

pub use lamport::LamportQueue;
pub use mellor_crummey::{McQueue, RepairableMcQueue, REPAIR_PIDS};
pub use plj::PljQueue;
pub use single_lock::{RepairableSingleLockQueue, SingleLockQueue};
pub use treiber::TreiberStack;
pub use valois_queue::ValoisQueue;
