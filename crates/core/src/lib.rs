//! The paper's two contributions.
//!
//! * [`WordMsQueue`] — the **non-blocking concurrent queue** of Figure 1:
//!   a singly-linked list with `Head`/`Tail`, a dummy node, counted
//!   (tagged) pointers against ABA, and a Treiber-stack free list so
//!   dequeued nodes are reused. Implemented line-for-line against the
//!   paper's pseudo-code over the `Platform` abstraction, so it runs
//!   unchanged on hardware atomics and inside the `msq-sim` simulator.
//! * [`WordTwoLockQueue`] — the **two-lock queue** of Figure 2: separate
//!   head and tail test-and-test_and_set locks (with bounded exponential
//!   backoff) plus the same dummy-node trick, allowing one enqueue and one
//!   dequeue to proceed concurrently.
//!
//! For downstream users the crate also provides idiomatic heap-allocated
//! generic versions:
//!
//! * [`MsQueue`] — `MsQueue<T>` with hazard-pointer reclamation
//!   (`msq-hazard`) and release/acquire orderings;
//! * [`TwoLockQueue`] — `TwoLockQueue<T>` over `parking_lot` mutexes;
//! * [`LockFreeStack`] — Treiber's stack (the paper's free-list
//!   algorithm) as a generic structure; and
//! * [`HerlihyQueue`] — Herlihy's copy-the-object universal construction
//!   over a `VecDeque`, the "general methodology" the paper says
//!   specialized algorithms beat (native-only).
//!
//! Every lock-free heap structure here reclaims memory through one
//! scheme, `msq-hazard`'s hazard pointers; the two-lock queue frees its
//! nodes under its locks.
//!
//! Beyond the paper, the crate adds a segment-batched variant of the
//! non-blocking queue in both flavours:
//!
//! * [`SegQueue`] — heap-allocated `SegQueue<T>`: the Michael–Scott list
//!   where each node is a fixed-size array segment, so the link/unlink
//!   CASes amortize over `SegConfig::seg_size` operations; and
//! * [`WordSegQueue`] — the same algorithm over the `Platform`
//!   abstraction (arena-backed, tagged indices), so it runs inside the
//!   `msq-sim` coherence simulator next to the paper's six algorithms.
//!
//! Both flavours support **bulk operations** (`enqueue_batch` /
//! `dequeue_batch`) that amortize the contended link and index CASes over
//! whole segments, and both have a **sharded relaxed-FIFO front-end**
//! ([`ShardedQueue`] / [`WordShardedQueue`]) that stripes load across
//! independent sub-queues behind thread-affine dispatch (per-shard FIFO
//! only — see the `sharded` module docs for the weakened contract).
//!
//! # Quickstart
//!
//! ```
//! use msq_core::MsQueue;
//! use std::sync::Arc;
//!
//! let queue = Arc::new(MsQueue::new());
//! let producers: Vec<_> = (0..4)
//!     .map(|t| {
//!         let queue = Arc::clone(&queue);
//!         std::thread::spawn(move || {
//!             for i in 0..100 {
//!                 queue.enqueue((t, i));
//!             }
//!         })
//!     })
//!     .collect();
//! for p in producers {
//!     p.join().unwrap();
//! }
//! let mut count = 0;
//! while queue.dequeue().is_some() {
//!     count += 1;
//! }
//! assert_eq!(count, 400);
//! ```

#![warn(missing_docs)]

mod herlihy;
mod ms_queue;
mod seg_queue;
mod sharded;
mod stack;
mod two_lock_queue;
mod word_ms;
mod word_seg;
mod word_two_lock;

pub use herlihy::HerlihyQueue;
pub use ms_queue::MsQueue;
pub use seg_queue::{SegConfig, SegQueue, SegStats};
pub use sharded::{ShardedQueue, WordShardedQueue, DEFAULT_SHARDS};
pub use stack::LockFreeStack;
pub use two_lock_queue::TwoLockQueue;
pub use word_ms::WordMsQueue;
pub use word_seg::WordSegQueue;
pub use word_two_lock::{RepairableTwoLockQueue, WordTwoLockQueue};
