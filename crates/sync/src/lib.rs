//! Spin locks for the lock-based queue algorithms.
//!
//! The paper's lock-based contenders (the single-lock queue and the new
//! two-lock queue) use "test-and-test_and_set locks with bounded
//! exponential backoff"; this crate provides that lock ([`TtasLock`]),
//! which needs nothing stronger than `test_and_set` (the machines the
//! paper's two-lock algorithm is meant for), and a [`RevocableLock`]
//! that a waiter can seize from a dead holder. Both are expressed over
//! [`msq_platform::Platform`] so they run natively and under simulation.
//! [`RepairMode`] picks between the TTAS lock ([`Plain`]) and the
//! revocable one plus repair state ([`Repair`]) for the blocking queues.
//!
//! # Example
//!
//! ```
//! use msq_platform::NativePlatform;
//! use msq_sync::{RawLock, TtasLock};
//!
//! let platform = NativePlatform::new();
//! let lock = TtasLock::new(&platform);
//! lock.lock(&platform);
//! // ... critical section ...
//! lock.unlock(&platform);
//! ```

#![warn(missing_docs)]

mod locks;
mod revocable;

pub use locks::{RawLock, TtasLock};
pub use revocable::{Acquired, Plain, Repair, RepairMode, RevocableLock};
