//! Treiber's non-blocking stack (IBM RJ 5118, 1986).
//!
//! The paper uses this algorithm for its non-blocking free list (as does
//! [`msq_arena::NodeArena`] internally); it is exposed here as a value
//! stack in its own right — "simple and efficient" in the paper's words —
//! and for direct benchmarking.

use msq_arena::NodeArena;
use msq_platform::{AtomicWord, ConcurrentStack, Platform, QueueFull, Tagged, NULL_INDEX};

/// A lock-free LIFO stack of `u64` values over a node arena, with counted
/// top-of-stack pointers against ABA.
///
/// # Example
///
/// ```
/// use msq_baselines::TreiberStack;
/// use msq_platform::{ConcurrentStack, NativePlatform};
///
/// let stack = TreiberStack::with_capacity(&NativePlatform::new(), 8);
/// stack.push(1).unwrap();
/// stack.push(2).unwrap();
/// assert_eq!(stack.pop(), Some(2));
/// assert_eq!(stack.pop(), Some(1));
/// assert_eq!(stack.pop(), None);
/// ```
pub struct TreiberStack<P: Platform> {
    top: P::Cell,
    arena: NodeArena<P>,
}

impl<P: Platform> TreiberStack<P> {
    /// Creates a stack able to hold `capacity` values.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or does not fit a tagged index.
    pub fn with_capacity(platform: &P, capacity: u32) -> Self {
        TreiberStack {
            top: platform.alloc_cell(Tagged::NULL.raw()),
            arena: NodeArena::new(platform, capacity, None),
        }
    }

    /// Maximum number of values the stack can hold.
    pub fn capacity(&self) -> u32 {
        self.arena.capacity()
    }

    /// Whether the stack was observed empty (snapshot semantics).
    pub fn is_empty(&self) -> bool {
        Tagged::from_raw(self.top.load()).is_null()
    }
}

impl<P: Platform> ConcurrentStack for TreiberStack<P> {
    fn push(&self, value: u64) -> Result<(), QueueFull> {
        let Some(node) = self.arena.alloc() else {
            return Err(QueueFull(value));
        };
        self.arena.set_value(node, value);
        loop {
            let top = Tagged::from_raw(self.top.load());
            self.arena.set_next(
                node,
                if top.is_null() {
                    NULL_INDEX
                } else {
                    top.index()
                },
            );
            if self.top.cas(top.raw(), top.with_index(node).raw()) {
                return Ok(());
            }
            std::hint::spin_loop();
        }
    }

    fn pop(&self) -> Option<u64> {
        loop {
            let top = Tagged::from_raw(self.top.load());
            if top.is_null() {
                return None;
            }
            let next = self.arena.next(top.index());
            // Read before the CAS: the node may be popped and reused by
            // another thread immediately after.
            let value = self.arena.value(top.index());
            if self.top.cas(top.raw(), top.with_index(next.index()).raw()) {
                self.arena.free(top.index());
                return Some(value);
            }
            std::hint::spin_loop();
        }
    }
}

impl<P: Platform> std::fmt::Debug for TreiberStack<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TreiberStack(capacity={})", self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::NativePlatform;
    use std::sync::Arc;

    fn stack(capacity: u32) -> TreiberStack<NativePlatform> {
        TreiberStack::with_capacity(&NativePlatform::new(), capacity)
    }

    #[test]
    fn lifo_order() {
        let s = stack(8);
        for i in 0..5 {
            s.push(i).unwrap();
        }
        for i in (0..5).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn capacity_enforced() {
        let s = stack(2);
        s.push(1).unwrap();
        s.push(2).unwrap();
        assert_eq!(s.push(3), Err(QueueFull(3)));
        assert_eq!(s.pop(), Some(2));
        s.push(3).unwrap();
    }

    #[test]
    fn concurrent_push_pop_conserves_values() {
        let s = Arc::new(stack(256));
        let total = 4 * 5_000_u64;
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let got = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..4_u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000_u64 {
                    let v = t * 5_000 + i + 1;
                    while s.push(v).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for _ in 0..3 {
            let s = Arc::clone(&s);
            let sum = Arc::clone(&sum);
            let got = Arc::clone(&got);
            handles.push(std::thread::spawn(move || {
                while got.load(std::sync::atomic::Ordering::SeqCst) < total {
                    if let Some(v) = s.pop() {
                        sum.fetch_add(v, std::sync::atomic::Ordering::SeqCst);
                        got.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            sum.load(std::sync::atomic::Ordering::SeqCst),
            (1..=total).sum::<u64>()
        );
        assert!(s.is_empty());
    }

    #[test]
    fn works_under_simulation() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 4,
            ..SimConfig::default()
        });
        let s = Arc::new(TreiberStack::with_capacity(&sim.platform(), 64));
        sim.run({
            let s = Arc::clone(&s);
            move |info| {
                for i in 0..50 {
                    s.push((info.pid as u64) << 32 | i).unwrap();
                    s.pop().expect("own push available");
                }
            }
        });
        assert!(s.is_empty());
    }
}
