//! [`CellArray`]: an array of shared words whose storage the platform
//! picks, and [`CellRef`], a borrowed element of one.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::word::{AtomicWord, Platform};

/// An array of shared words, as [`Platform::alloc_cells`] returns it.
///
/// Node pools, segment slots and ring buffers are the bulk of a queue's
/// memory, so the storage follows the platform:
///
/// * [`NativePlatform`](crate::NativePlatform) stores dense `AtomicU64`
///   words, 8 bytes apart, with `SeqCst` on every operation as
///   [`NativeCell`](crate::NativeCell) has. The paper's Figure 1 node is a
///   value and a counted `next` word, and padding every one of them to its
///   own cache line would multiply the pool 16×.
/// * Every other platform stores the cells that one [`Platform::alloc_cell`]
///   call per value returns, in one `Vec`. Under the simulator each element
///   keeps its cell id, and every operation is charged as before.
///
/// Elements are reached through [`CellArray::get`], which returns a
/// [`CellRef`] carrying the [`AtomicWord`] operation set.
///
/// # Example
///
/// ```
/// use msq_platform::{NativePlatform, Platform};
///
/// let words = NativePlatform::new().alloc_cells([3, 1, 4]);
/// assert_eq!(words.len(), 3);
/// assert_eq!(words.get(2).fetch_add(1), 4);
/// assert_eq!(words.get(2).load(), 5);
/// ```
pub struct CellArray<P: Platform>(Slots<P>);

enum Slots<P: Platform> {
    /// SAFETY invariant: the array holds these cells until it is dropped
    /// and only lends them by `&`. No method moves a cell out, drops one
    /// early, or hands one out by `&mut`. The simulator's arrays are sound
    /// only so: all their cells but the first borrow the first one's
    /// reference to the simulation, and must not outlive it.
    Cells(Vec<P::Cell>),
    Words(Box<[AtomicU64]>),
}

impl<P: Platform> CellArray<P> {
    /// An array of the platform's own cells, in order: what the default
    /// [`Platform::alloc_cells`] builds from one `alloc_cell` per value.
    /// The array keeps them until it is dropped and only lends them, which
    /// the simulator's arrays rely on: all their cells but the first
    /// borrow the first one's reference to the simulation.
    pub fn from_cells(cells: Vec<P::Cell>) -> Self {
        CellArray(Slots::Cells(cells))
    }

    /// Dense native words. Only the native platform builds these: its
    /// operations bypass `P::Cell`, which under any other platform would
    /// bypass the platform itself.
    pub(crate) fn from_words(words: Box<[AtomicU64]>) -> Self {
        CellArray(Slots::Words(words))
    }

    /// Number of words in the array.
    pub fn len(&self) -> usize {
        match &self.0 {
            Slots::Cells(cells) => cells.len(),
            Slots::Words(words) => words.len(),
        }
    }

    /// Whether the array holds no words.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The word at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn get(&self, index: usize) -> CellRef<'_, P> {
        CellRef(match &self.0 {
            Slots::Cells(cells) => Slot::Cell(&cells[index]),
            Slots::Words(words) => Slot::Word(&words[index]),
        })
    }

    /// The words in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = CellRef<'_, P>> {
        (0..self.len()).map(|index| self.get(index))
    }

    /// The platform's own cells, in order, unless the array stores dense
    /// native words.
    pub fn as_cells(&self) -> Option<&[P::Cell]> {
        match &self.0 {
            Slots::Cells(cells) => Some(cells),
            Slots::Words(_) => None,
        }
    }
}

impl<P: Platform> std::fmt::Debug for CellArray<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Values stay unread: under the simulator a read inside a run is
        // a charged operation.
        let kind = match self.0 {
            Slots::Cells(_) => "cells",
            Slots::Words(_) => "dense words",
        };
        write!(f, "CellArray({} {kind})", self.len())
    }
}

/// One word of a [`CellArray`], borrowed: a `Copy` handle with the
/// [`AtomicWord`] operation set, every operation sequentially consistent.
///
/// (It is not itself an [`AtomicWord`], whose cells are owned and
/// `'static`.)
pub struct CellRef<'a, P: Platform>(Slot<'a, P>);

enum Slot<'a, P: Platform> {
    Cell(&'a P::Cell),
    Word(&'a AtomicU64),
}

impl<P: Platform> Clone for CellRef<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: Platform> Copy for CellRef<'_, P> {}

impl<P: Platform> Clone for Slot<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: Platform> Copy for Slot<'_, P> {}

impl<P: Platform> CellRef<'_, P> {
    /// As [`AtomicWord::load`].
    #[inline]
    pub fn load(self) -> u64 {
        match self.0 {
            Slot::Cell(cell) => cell.load(),
            Slot::Word(word) => word.load(Ordering::SeqCst),
        }
    }

    /// As [`AtomicWord::store`].
    #[inline]
    pub fn store(self, value: u64) {
        match self.0 {
            Slot::Cell(cell) => cell.store(value),
            Slot::Word(word) => word.store(value, Ordering::SeqCst),
        }
    }

    /// As [`AtomicWord::compare_exchange`].
    ///
    /// # Errors
    ///
    /// Returns `Err(actual)` with the observed value when it is not
    /// `current`.
    #[inline]
    pub fn compare_exchange(self, current: u64, new: u64) -> Result<u64, u64> {
        match self.0 {
            Slot::Cell(cell) => cell.compare_exchange(current, new),
            Slot::Word(word) => {
                word.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            }
        }
    }

    /// As [`AtomicWord::swap`].
    #[inline]
    pub fn swap(self, value: u64) -> u64 {
        match self.0 {
            Slot::Cell(cell) => cell.swap(value),
            Slot::Word(word) => word.swap(value, Ordering::SeqCst),
        }
    }

    /// As [`AtomicWord::fetch_add`].
    #[inline]
    pub fn fetch_add(self, delta: u64) -> u64 {
        match self.0 {
            Slot::Cell(cell) => cell.fetch_add(delta),
            Slot::Word(word) => word.fetch_add(delta, Ordering::SeqCst),
        }
    }

    /// As [`AtomicWord::fetch_sub`].
    #[inline]
    pub fn fetch_sub(self, delta: u64) -> u64 {
        match self.0 {
            Slot::Cell(cell) => cell.fetch_sub(delta),
            Slot::Word(word) => word.fetch_sub(delta, Ordering::SeqCst),
        }
    }

    /// As [`AtomicWord::test_and_set`].
    #[inline]
    pub fn test_and_set(self) -> bool {
        match self.0 {
            Slot::Cell(cell) => cell.test_and_set(),
            Slot::Word(word) => word.swap(1, Ordering::SeqCst) != 0,
        }
    }

    /// As [`AtomicWord::cas`].
    #[inline]
    pub fn cas(self, current: u64, new: u64) -> bool {
        match self.0 {
            Slot::Cell(cell) => cell.cas(current, new),
            Slot::Word(_) => self.compare_exchange(current, new).is_ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NativeCell, NativePlatform};
    use std::mem::{align_of, size_of};

    #[test]
    fn native_words_are_dense_and_native_cells_stay_padded() {
        let array = NativePlatform.alloc_cells([1, 2, 3]);
        let Slots::Words(words) = &array.0 else {
            panic!("native arrays store dense words");
        };
        let at = |i: usize| std::ptr::from_ref(&words[i]) as usize;
        assert_eq!(at(1) - at(0), 8);
        assert_eq!(at(2) - at(1), 8);
        assert_eq!(
            array.iter().map(CellRef::load).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        assert_eq!(align_of::<NativeCell>(), 128);
        assert_eq!(size_of::<NativeCell>(), 128);
    }
}
