//! `Platform::alloc_cells` storage: dense native words behave exactly like
//! padded cells, and the simulator's structs keep the sizes (and with them
//! the heap layout) they always had.

use std::mem::size_of;

use ms_queues::arena::NodeArena;
use ms_queues::platform::{CellArray, CellRef, NativeCell};
use ms_queues::sim::SimCell;
use ms_queues::{
    McQueue, NativePlatform, Platform, SimPlatform, SingleLockQueue, WordMsQueue, WordTwoLockQueue,
};
use proptest::prelude::*;

/// A platform of padded native cells that forwards `alloc_cell` only, so
/// its arrays come from the trait's default `alloc_cells`: one
/// `NativeCell` per value.
#[derive(Clone, Debug)]
struct PaddedCells;

impl Platform for PaddedCells {
    type Cell = NativeCell;

    fn alloc_cell(&self, init: u64) -> NativeCell {
        NativePlatform.alloc_cell(init)
    }

    fn delay(&self, nanos: u64) {
        NativePlatform.delay(nanos);
    }

    fn cpu_relax(&self) {
        NativePlatform.cpu_relax();
    }
}

const WORDS: usize = 8;

#[derive(Clone, Copy, Debug)]
enum Op {
    Load(usize),
    Store(usize, u64),
    CompareExchange(usize, u64, u64),
    Cas(usize, u64, u64),
    Swap(usize, u64),
    FetchAdd(usize, u64),
    FetchSub(usize, u64),
    TestAndSet(usize),
}

/// Small values, so compare-and-swaps succeed as well as fail.
fn small(bits: u64, shift: u32) -> u64 {
    (bits >> shift) % 4
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let at = |bits: u64| (bits % WORDS as u64) as usize;
    prop_oneof![
        any::<u64>().prop_map(move |b| Op::Load(at(b))),
        any::<u64>().prop_map(move |b| Op::Store(at(b), small(b, 8))),
        any::<u64>().prop_map(move |b| Op::CompareExchange(at(b), small(b, 8), small(b, 16))),
        any::<u64>().prop_map(move |b| Op::Cas(at(b), small(b, 8), small(b, 16))),
        any::<u64>().prop_map(move |b| Op::Swap(at(b), small(b, 8))),
        any::<u64>().prop_map(move |b| Op::FetchAdd(at(b), small(b, 8))),
        any::<u64>().prop_map(move |b| Op::FetchSub(at(b), small(b, 8))),
        any::<u64>().prop_map(move |b| Op::TestAndSet(at(b))),
    ]
}

fn contents<P: Platform>(array: &CellArray<P>) -> Vec<u64> {
    array.iter().map(CellRef::load).collect()
}

/// What one operation returned, widened to a common shape.
fn apply<P: Platform>(array: &CellArray<P>, op: Op) -> (u64, bool) {
    match op {
        Op::Load(i) => (array.get(i).load(), true),
        Op::Store(i, v) => {
            array.get(i).store(v);
            (0, true)
        }
        Op::CompareExchange(i, current, new) => match array.get(i).compare_exchange(current, new) {
            Ok(seen) => (seen, true),
            Err(seen) => (seen, false),
        },
        Op::Cas(i, current, new) => (0, array.get(i).cas(current, new)),
        Op::Swap(i, v) => (array.get(i).swap(v), true),
        Op::FetchAdd(i, delta) => (array.get(i).fetch_add(delta), true),
        Op::FetchSub(i, delta) => (array.get(i).fetch_sub(delta), true),
        Op::TestAndSet(i) => (0, array.get(i).test_and_set()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The native platform's dense words and the default array of padded
    /// cells give the same result for every operation and end with the
    /// same contents.
    #[test]
    fn dense_words_match_padded_cells(
        inits in prop::collection::vec(0u64..4, WORDS..WORDS + 1),
        ops in prop::collection::vec(op_strategy(), 0..200),
    ) {
        let dense = NativePlatform.alloc_cells(inits.iter().copied());
        let padded = PaddedCells.alloc_cells(inits.iter().copied());
        prop_assert!(dense.as_cells().is_none(), "native arrays are dense words");
        prop_assert_eq!(padded.as_cells().map(<[NativeCell]>::len), Some(WORDS));
        for (step, &op) in ops.iter().enumerate() {
            let (d, p) = (apply(&dense, op), apply(&padded, op));
            prop_assert!(d == p, "step {step} ({op:?}): dense {d:?}, padded {p:?}");
        }
        prop_assert_eq!(contents(&dense), contents(&padded));
    }
}

/// `CellArray` replaced a `Vec` of cells in every simulated struct; each
/// keeps the size it had, so `Simulation::new` and `Algorithm::build`
/// make allocations of the same sizes in the same order as before. The
/// cell itself stays 16 bytes with its ownership flag beside the id.
#[test]
fn simulated_structs_keep_their_sizes() {
    assert_eq!(size_of::<SimCell>(), 16);
    assert_eq!(
        size_of::<CellArray<SimPlatform>>(),
        size_of::<Vec<SimCell>>()
    );
    assert_eq!(size_of::<NodeArena<SimPlatform>>(), 80);
    assert_eq!(size_of::<WordMsQueue<SimPlatform>>(), 136);
    assert_eq!(size_of::<WordTwoLockQueue<SimPlatform>>(), 184);
    assert_eq!(size_of::<SingleLockQueue<SimPlatform>>(), 152);
    assert_eq!(size_of::<McQueue<SimPlatform>>(), 136);
}
