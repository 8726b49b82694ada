//! Spin locks for the lock-based queue algorithms.
//!
//! The paper's lock-based contenders (the single-lock queue and the new
//! two-lock queue) use "test-and-test_and_set locks with bounded
//! exponential backoff"; this crate provides that lock ([`TtasLock`]),
//! plus a plain [`TasLock`] (the machines-with-only-`test_and_set`
//! motivation for the two-lock algorithm) and a [`TicketLock`] (FIFO
//! extension, useful in the ablation benches), and a [`RevocableLock`]
//! that a waiter can seize from a dead holder. All are expressed over
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
mod qlocks;
mod revocable;

pub use locks::{RawLock, TasLock, TicketLock, TtasLock};
pub use qlocks::{ClhLock, ClhToken, McsLock, TokenLock};
pub use revocable::{Acquired, Plain, Repair, RepairMode, RevocableLock};
