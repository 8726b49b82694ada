//! Mechanical checking of the paper's Section 3 claims.
//!
//! The paper argues its queues are *linearizable*: "there is a specific
//! point during each operation at which it is considered to take effect"
//! [Herlihy & Wing]. This crate turns that claim into executable checks:
//!
//! * [`Recorder`] / [`RecorderHandle`] — wrap any
//!   [`msq_platform::ConcurrentWordQueue`] and record every operation's
//!   invocation/response interval with a global logical clock;
//! * [`History`] — the recorded events, with **fast whole-history checks**
//!   (value conservation, no duplication, real-time FIFO ordering) that
//!   scale to millions of operations; and
//! * [`is_linearizable_queue`] — an exhaustive Wing–Gong search against the
//!   sequential FIFO specification ([`SequentialQueue`]) for small
//!   histories, with memoization.

#![warn(missing_docs)]

mod checker;
mod history;
mod recorder;
#[cfg(test)]
mod reference;
mod spec;

pub use checker::is_linearizable_queue;
pub use history::{Event, History, Operation, Violation};
pub use recorder::{Recorder, RecorderHandle};
pub use spec::SequentialQueue;
