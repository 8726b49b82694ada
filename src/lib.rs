//! # ms-queues
//!
//! A full reproduction of **M. M. Michael and M. L. Scott, "Simple, Fast,
//! and Practical Non-Blocking and Blocking Concurrent Queue Algorithms"**
//! (PODC 1996 / University of Rochester TR 600, 1995): the two contributed
//! algorithms, every baseline the paper compares against, and the
//! experimental apparatus that regenerates its three evaluation figures —
//! including a deterministic multiprocessor simulator standing in for the
//! paper's 12-processor SGI Challenge.
//!
//! This crate is a facade: it re-exports the workspace's public API.
//!
//! ## The contributions ([`mod@core`])
//!
//! * [`MsQueue`] / [`TwoLockQueue`] — idiomatic heap-allocated generic
//!   queues for downstream use (hazard-pointer reclamation, `parking_lot`
//!   locks respectively).
//! * [`WordMsQueue`] / [`WordTwoLockQueue`] — the paper's Figure 1 and
//!   Figure 2 pseudo-code, line for line, over the [`platform`]
//!   abstraction and an arena free list, runnable natively or simulated.
//! * [`SegQueue`] / [`WordSegQueue`] — beyond the paper: the same linked
//!   structure with array *segments* for nodes, so most operations are a
//!   single `fetch_add` instead of a CAS retry loop. Both expose bulk
//!   `enqueue_batch`/`dequeue_batch` operations that splice privately
//!   pre-filled segments with a single link CAS.
//! * [`ShardedQueue`] / [`WordShardedQueue`] — a relaxed-FIFO front-end
//!   striping load across independent seg-batched sub-queues behind
//!   thread-affine dispatch (per-shard FIFO, visible emptiness).
//!
//! ## The baselines ([`baselines`])
//!
//! [`SingleLockQueue`], [`McQueue`] (Mellor-Crummey), [`PljQueue`]
//! (Prakash–Lee–Johnson), [`ValoisQueue`], plus [`TreiberStack`] and
//! [`LamportQueue`].
//!
//! ## The apparatus
//!
//! * [`sim`] — deterministic virtual-time multiprocessor ([`Simulation`]),
//!   with seeded schedule perturbation ([`schedule_sweep`]).
//! * [`MemBudget`] — a process-global bound on live segments, shared
//!   across queues, with reclaim pressure and backpressure on exhaustion.
//! * [`harness`] — the Section 4 workload and figure sweeps
//!   ([`run_scenario_simulated`], [`run_figure`]).
//! * [`linearize`] — history recording and linearizability checking.
//!
//! [`sim`] and [`harness`] exist on x86-64 Linux only: the simulator's
//! fiber engine switches stacks with x86-64 code. Everything else,
//! including every queue, builds on any target.
//!
//! ## Quickstart
//!
//! ```
//! use ms_queues::MsQueue;
//! use std::sync::Arc;
//!
//! let queue = Arc::new(MsQueue::new());
//! let handle = {
//!     let queue = Arc::clone(&queue);
//!     std::thread::spawn(move || queue.enqueue(42))
//! };
//! handle.join().unwrap();
//! assert_eq!(queue.dequeue(), Some(42));
//! ```

#![warn(missing_docs)]

pub mod guide;

pub use msq_arena as arena;
pub use msq_baselines as baselines;
pub use msq_core as core;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use msq_harness as harness;
pub use msq_hazard as hazard;
pub use msq_linearize as linearize;
pub use msq_platform as platform;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use msq_sim as sim;
pub use msq_sync as sync;

pub use msq_arena::{MemBudget, Reservation, SegArena};
pub use msq_baselines::{
    LamportQueue, McQueue, PljQueue, RepairableMcQueue, RepairableSingleLockQueue, SingleLockQueue,
    TreiberStack, ValoisQueue,
};
pub use msq_core::{
    HerlihyQueue, LockFreeStack, MsQueue, RepairableTwoLockQueue, SegConfig, SegQueue, SegStats,
    ShardedQueue, TwoLockQueue, WordMsQueue, WordSegQueue, WordShardedQueue, WordTwoLockQueue,
    DEFAULT_SHARDS,
};
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use msq_harness::{
    percentile_ns, run_figure, run_scenario_native, run_scenario_simulated, Algorithm,
    BatchedScenario, FaultedPoint, MeasuredPoint, OpenLoopScenario, PairedScenario,
    PipelineScenario, PolicyScenario, Scenario, ScenarioCounters, ScenarioCtx, ScenarioOutcome,
    StealingScenario, WorkloadConfig,
};
pub use msq_linearize::{is_linearizable_queue, History, Recorder};
pub use msq_platform::{
    AtomicWord, Backoff, BackoffConfig, BatchFull, ConcurrentStack, ConcurrentWordQueue,
    NativePlatform, Platform, QueueFull, Tagged,
};
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use msq_sim::{
    schedule_sweep, BlockedKind, FaultAction, FaultPlan, FaultSpec, FaultTrigger, RecoveryPolicy,
    RecoveryReport, RepairReport, SimConfig, SimPlatform, SimReport, Simulation,
};
pub use msq_sync::{Acquired, RawLock, RevocableLock, TtasLock};
