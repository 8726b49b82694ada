//! # A guided tour: from the paper's pseudo-code to this crate
//!
//! This module contains no code — it is the map between Michael & Scott's
//! TR 600 and the implementation, for readers following along with the
//! paper.
//!
//! ## Figure 1 → [`WordMsQueue`](crate::WordMsQueue)
//!
//! The paper's non-blocking queue names three shared structures:
//!
//! ```text
//! structure pointer_t {ptr: pointer to node_t, count: unsigned integer}
//! structure node_t    {value: data type, next: pointer_t}
//! structure queue_t   {Head: pointer_t, Tail: pointer_t}
//! ```
//!
//! | Paper | Here |
//! |---|---|
//! | `pointer_t` (counted pointer) | [`Tagged`](crate::Tagged): `{index: u32, tag: u32}` in one 64-bit word — the paper's own suggestion to "use array indices instead of pointers, so that they may share a single word with a counter" |
//! | `node_t` pool + free list | [`arena::NodeArena`](crate::arena::NodeArena): one value cell and one tagged next cell per node, threaded through a Treiber-stack free list exactly as the paper prescribes ("We use Treiber's simple and efficient non-blocking stack algorithm to implement a non-blocking free list") |
//! | `queue_t` | [`WordMsQueue`](crate::WordMsQueue): `head` and `tail` cells plus the arena |
//! | `CAS(addr, expected, <new, count+1>)` | [`Tagged::with_index`](crate::Tagged::with_index) builds the counter-bumped word; `AtomicWord::cas` installs it |
//!
//! Every line `E1`–`E13` and `D1`–`D15` of the pseudo-code appears as a
//! comment at the corresponding statement in
//! `crates/core/src/word_ms.rs`; the dequeue's load-bearing subtlety —
//! *read the value before the CAS* (D11), because afterwards another
//! dequeuer may free and reuse the node — is preserved and tested by
//! node-recycling tests that push 10,000 values through a two-node pool.
//!
//! ## Figure 2 → [`WordTwoLockQueue`](crate::WordTwoLockQueue)
//!
//! The two-lock queue keeps the dummy node so "enqueuers never have to
//! access Head, and dequeuers never have to access Tail": `H_lock` and
//! `T_lock` are [`sync::TtasLock`](crate::sync::TtasLock)s —
//! test-and-test_and_set with bounded exponential backoff, the lock used
//! in the paper's experiments. The heap-allocated
//! [`TwoLockQueue`](crate::TwoLockQueue) is the same algorithm with
//! `parking_lot` mutexes and `Box`ed nodes.
//!
//! ## Section 3 (correctness) → executable checks
//!
//! * Safety properties 1–5 (list connectivity, insert-at-end,
//!   delete-at-front, Head/Tail invariants) manifest as conservation and
//!   per-producer-FIFO assertions in `tests/correctness_native.rs` and
//!   `tests/correctness_sim.rs`.
//! * Linearizability (§3.2) is checked mechanically:
//!   [`Recorder`](crate::Recorder) captures real interleavings and
//!   [`is_linearizable_queue`](crate::is_linearizable_queue) runs the
//!   Wing–Gong search against
//!   [`linearize::SequentialQueue`](crate::linearize::SequentialQueue).
//! * Non-blocking liveness (§3.3) shows up as the multiprogrammed
//!   experiments: stalled processes do not stop the non-blocking queues
//!   (`tests/figure_shapes.rs`).
//!
//! ## Section 4 (performance) → [`harness`](crate::harness) + [`sim`](crate::sim)
//!
//! The paper's 12-processor SGI Challenge is replaced by
//! [`Simulation`](crate::Simulation), a deterministic virtual-time
//! multiprocessor with an invalidation-based cache cost model and
//! quantum-preemptive scheduling (see `DESIGN.md` §5). The workload loop
//! — enqueue, ~6 µs of "other work", dequeue, more other work, for 10⁶/p
//! iterations per process — is
//! [`PairedScenario`](crate::PairedScenario), run by
//! [`run_scenario_simulated`](crate::run_scenario_simulated) /
//! [`run_scenario_native`](crate::run_scenario_native), and
//! `cargo run -p msq-harness --release --bin figures` regenerates
//! Figures 3–5 (results in `EXPERIMENTS.md`).
//!
//! ## The baselines (Section 1's related work)
//!
//! | Paper reference | Here |
//! |---|---|
//! | "straightforward single-lock queue" | [`SingleLockQueue`](crate::SingleLockQueue) |
//! | Mellor-Crummey \[11\] | [`McQueue`](crate::McQueue) — `fetch_and_store`-modify sequence, ABA-immune but blocking |
//! | Prakash, Lee & Johnson \[16\] | [`PljQueue`](crate::PljQueue) — two-variable snapshot + helping |
//! | Valois \[24\] + corrected memory management \[13\] | [`ValoisQueue`](crate::ValoisQueue) over [`arena::RcArena`](crate::arena::RcArena) |
//! | Treiber's stack \[21\] | [`TreiberStack`](crate::TreiberStack) (word/arena) and [`LockFreeStack`](crate::LockFreeStack) (generic) |
//! | Lamport's SPSC queue \[9\] | [`LamportQueue`](crate::LamportQueue) — a ring of words, one producer and one consumer |
//!
//! ## Choosing a queue (the paper's conclusions, in API terms)
//!
//! * Machine with universal atomics (every modern CPU), any workload:
//!   [`MsQueue`](crate::MsQueue) — "the clear algorithm of choice".
//! * Heavily-used queue, no universal atomic primitive, dedicated
//!   machine: [`TwoLockQueue`](crate::TwoLockQueue).
//! * Queue touched by only one or two threads: a single lock "will run a
//!   little faster" — `Mutex<VecDeque>`; and if the two threads are one
//!   producer and one consumer, Lamport's ring
//!   ([`LamportQueue`](crate::LamportQueue)) needs no atomic RMW at all.
