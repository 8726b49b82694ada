//! Platform abstraction for the Michael–Scott queue reproduction.
//!
//! The algorithms from Michael & Scott's 1996 paper (and every baseline it
//! compares against) are expressed over a small set of single-word atomic
//! primitives: `load`, `store`, `compare_and_swap`, `swap` (fetch-and-store),
//! `fetch_and_add`, and `test_and_set`. The paper emulated all of these with
//! MIPS R4000 `load_linked`/`store_conditional`; this crate captures the same
//! operation set behind the [`AtomicWord`] trait so that a single algorithm
//! body can run either
//!
//! * natively, on real [`std::sync::atomic::AtomicU64`]s and OS threads
//!   ([`NativePlatform`]), or
//! * inside the deterministic multiprocessor simulator from the `msq-sim`
//!   crate, where every shared-memory access is charged virtual time from a
//!   cache-coherence cost model.
//!
//! The [`Platform`] trait is the factory and clock: it allocates cells (and
//! arrays of them, [`CellArray`]) and models pure delay (backoff, the
//! workload's "other work" spin).
//!
//! # Example
//!
//! ```
//! use msq_platform::{AtomicWord, NativePlatform, Platform};
//!
//! let platform = NativePlatform::new();
//! let cell = platform.alloc_cell(7);
//! assert_eq!(cell.load(), 7);
//! assert_eq!(cell.compare_exchange(7, 9), Ok(7));
//! assert_eq!(cell.load(), 9);
//! ```

#![warn(missing_docs)]

mod array;
mod backoff;
mod native;
mod queue;
mod tagged;
mod word;

pub use array::{CellArray, CellRef};
pub use backoff::{Backoff, BackoffConfig};
pub use native::{NativeCell, NativePlatform};
pub use queue::{BatchFull, ConcurrentStack, ConcurrentWordQueue, QueueFull};
pub use tagged::{Tagged, NULL_INDEX};
pub use word::{AtomicWord, Platform};
