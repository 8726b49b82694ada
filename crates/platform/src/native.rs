//! The native execution platform: real atomics, real time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;

use crate::array::CellArray;
use crate::word::{AtomicWord, Platform};

/// A cache-line-padded `AtomicU64`: the native platform's hot singleton.
///
/// Each [`Platform::alloc_cell`] word gets a 128-byte line of its own (two
/// 64-byte lines, against the adjacent-line prefetcher). Those words are the
/// ones different processors write at once: `Head`, `Tail`, lock words,
/// free-list tops, budget counters, repair mode's per-process slots and
/// segment slot states. Sharing a line would make every enqueue's `Tail`
/// CAS invalidate the dequeuers' `Head` line.
///
/// The bulk arrays are not padded. Node values and links, segment slot
/// values and ring buffers come from [`Platform::alloc_cells`] as dense
/// 8-byte words
/// (see [`CellArray`]), as the nodes of the paper's array-index variant sit
/// in one array. Padding them would multiply a pool's memory 16×, and its
/// set-up page faults with it.
pub struct NativeCell(CachePadded<AtomicU64>);

impl NativeCell {
    /// Creates a cell holding `init`.
    pub fn new(init: u64) -> Self {
        NativeCell(CachePadded::new(AtomicU64::new(init)))
    }
}

impl std::fmt::Debug for NativeCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NativeCell({})", self.load())
    }
}

impl AtomicWord for NativeCell {
    #[inline]
    fn load(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    #[inline]
    fn store(&self, value: u64) {
        self.0.store(value, Ordering::SeqCst)
    }

    #[inline]
    fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.0
            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    #[inline]
    fn swap(&self, value: u64) -> u64 {
        self.0.swap(value, Ordering::SeqCst)
    }

    #[inline]
    fn fetch_add(&self, delta: u64) -> u64 {
        self.0.fetch_add(delta, Ordering::SeqCst)
    }
}

/// The platform that runs algorithms on OS threads and hardware atomics.
///
/// [`Platform::delay`] spins on the monotonic clock (it must not yield or
/// sleep: the paper's "other work" and backoff are busy loops, and on a
/// multiprogrammed host a sleep would hand the scheduler exactly the
/// opportunity the experiment is trying to measure).
#[derive(Clone, Copy, Debug, Default)]
pub struct NativePlatform;

impl NativePlatform {
    /// Creates the (stateless) native platform.
    pub fn new() -> Self {
        NativePlatform
    }
}

impl Platform for NativePlatform {
    type Cell = NativeCell;

    fn alloc_cell(&self, init: u64) -> NativeCell {
        NativeCell::new(init)
    }

    fn alloc_cells(&self, inits: impl IntoIterator<Item = u64>) -> CellArray<Self> {
        CellArray::from_words(inits.into_iter().map(AtomicU64::new).collect())
    }

    fn delay(&self, nanos: u64) {
        let deadline = Instant::now() + Duration::from_nanos(nanos);
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }

    #[inline]
    fn cpu_relax(&self) {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn load_store_round_trip() {
        let c = NativeCell::new(3);
        assert_eq!(c.load(), 3);
        c.store(9);
        assert_eq!(c.load(), 9);
    }

    #[test]
    fn compare_exchange_success_and_failure() {
        let c = NativeCell::new(1);
        assert_eq!(c.compare_exchange(1, 2), Ok(1));
        assert_eq!(c.compare_exchange(1, 3), Err(2));
        assert_eq!(c.load(), 2);
    }

    #[test]
    fn swap_returns_previous() {
        let c = NativeCell::new(5);
        assert_eq!(c.swap(6), 5);
        assert_eq!(c.load(), 6);
    }

    #[test]
    fn fetch_add_and_sub() {
        let c = NativeCell::new(10);
        assert_eq!(c.fetch_add(5), 10);
        assert_eq!(c.fetch_sub(3), 15);
        assert_eq!(c.load(), 12);
    }

    #[test]
    fn test_and_set_reports_prior_state() {
        let c = NativeCell::new(0);
        assert!(!c.test_and_set());
        assert!(c.test_and_set());
        c.store(0);
        assert!(!c.test_and_set());
    }

    #[test]
    fn delay_advances_wall_clock() {
        let p = NativePlatform::new();
        let start = Instant::now();
        p.delay(2_000_000); // 2 ms
        assert!(start.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn cells_are_shareable_across_threads() {
        let p = NativePlatform::new();
        let c = Arc::new(p.alloc_cell(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.fetch_add(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.load(), 4000);
    }

    #[test]
    fn concurrent_cas_loses_exactly_once_per_conflict() {
        // Two threads CAS-increment; total must equal attempts succeeded.
        let c = Arc::new(NativeCell::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut done = 0;
                while done < 500 {
                    let v = c.load();
                    if c.cas(v, v + 1) {
                        done += 1;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.load(), 1000);
    }
}
