//! Stackful fibers: the execution engine of [`crate::Simulation::run`].
//!
//! Every simulated process runs on a stack of its own, but all of them
//! run on the thread that called `run`. Passing the execution token is
//! then a user-space register switch (tens of ns) instead of an OS thread
//! handoff (µs): the run loop [`Fiber::resume`]s the first token holder,
//! a process that must wait [`switch_to`]s the holder directly, and a
//! fiber that finishes returns to the run loop.
//!
//! Stacks are `mmap`'d, committed lazily by the kernel as they are
//! touched, sit above a `PROT_NONE` guard page, and are kept in a
//! per-thread pool so repeated runs on one thread reuse them.
//!
//! Rules the engine relies on (see `core.rs` and `runner.rs`):
//! - a fiber that is unwinding never switches, so no other fiber runs in
//!   the middle of an unwind (the panic count is per thread);
//! - a fiber switches only to a fiber of the same run loop that is
//!   suspended or not yet started, and hands it the run loop's saved
//!   context, so whichever fiber finishes returns to that loop;
//! - the fiber's Rust entry catches every unwind, so none reaches the
//!   assembly frame below it;
//! - a stack returns to the pool only once its fiber's entry has
//!   returned (or before it ever started); a stack under live frames is
//!   leaked, never reused.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "msq-sim's fiber engine supports x86-64 Linux only: port `fiber::switch` \
     (and the initial frame `Fiber::new` lays out for it) to add a target"
);

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ffi::{c_int, c_void};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;

/// Usable bytes per fiber stack: the 2 MiB a spawned thread gets.
const STACK_BYTES: usize = 2 << 20;
/// The guard page below each stack.
const GUARD_BYTES: usize = 4096;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

thread_local! {
    /// Stacks of finished fibers, ready for the next run on this thread.
    static POOL: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    /// The running fiber's state, or null on the run loop.
    static CURRENT: Cell<*mut State> = const { Cell::new(ptr::null_mut()) };
}

/// One mapping: a guard page, then `STACK_BYTES` growing down from the top.
struct Stack {
    base: *mut u8,
}

impl Stack {
    fn new() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: a fresh anonymous private mapping aliases nothing.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mmap of a fiber stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the guard page is the first page of the mapping above.
        let guarded = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert_eq!(
            guarded,
            0,
            "mprotect of a fiber guard page failed: {}",
            std::io::Error::last_os_error()
        );
        Stack { base: base.cast() }
    }

    fn pooled() -> Stack {
        POOL.with(|pool| pool.borrow_mut().pop())
            .unwrap_or_else(Stack::new)
    }

    /// One past the highest usable byte; page-aligned, so 16-aligned.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(GUARD_BYTES + STACK_BYTES)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` is a live mapping of this length, and no frame
        // lives on it (stacks under live frames are leaked, not dropped).
        unsafe { munmap(self.base.cast(), GUARD_BYTES + STACK_BYTES) };
    }
}

/// What the switch code and the fiber's entry share. It lives behind one
/// raw pointer for the fiber's whole life, so its address is stable and
/// every access (run loop or fiber) goes through the same pointer.
struct State {
    /// The fiber's stack pointer while it is suspended.
    sp: *mut u8,
    /// The run loop's stack pointer while the fiber runs: saved by
    /// [`Fiber::resume`], passed along by [`switch_to`].
    resumer_sp: *mut u8,
    /// The body, until the first resume takes it.
    start: Option<Box<dyn FnOnce()>>,
    /// Set once the entry has returned from `start`.
    finished: bool,
    /// The unwind `start` ended with, if any.
    panic: Option<Box<dyn Any + Send>>,
}

/// A suspended computation with a stack of its own, run on the current
/// thread by [`Fiber::resume`] or [`switch_to`] until it switches to
/// another fiber or returns.
pub(crate) struct Fiber<'a> {
    /// From `Box::into_raw`; freed by `Drop`.
    state: *mut State,
    stack: Option<Stack>,
    _body: std::marker::PhantomData<Box<dyn FnOnce() + 'a>>,
}

impl<'a> Fiber<'a> {
    /// A fiber that runs `start` on its own stack once first resumed.
    pub(crate) fn new(start: Box<dyn FnOnce() + 'a>) -> Fiber<'a> {
        // SAFETY: only the lifetime changes. `Fiber` carries `'a`, and the
        // closure is consumed or dropped before the fiber is (see `Drop`).
        let start: Box<dyn FnOnce()> = unsafe { std::mem::transmute(start) };
        let stack = Stack::pooled();
        let top = stack.top().cast::<usize>();
        // The frame `switch` pops on the first resume: six callee-saved
        // registers (all zero, so `rbp` ends frame-pointer walks), then
        // `fiber_main` as the return address, then a null return address
        // for `fiber_main` itself, which ends the unwinder's frame chain.
        // At `fiber_main`'s entry `rsp` is 8 mod 16, as after a `call`.
        let frame: [usize; 8] = [0, 0, 0, 0, 0, 0, fiber_main as *const () as usize, 0];
        // SAFETY: the eight words sit at the top of the fresh stack.
        let sp = unsafe {
            let sp = top.sub(frame.len());
            sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len());
            sp
        };
        Fiber {
            state: Box::into_raw(Box::new(State {
                sp: sp.cast(),
                resumer_sp: ptr::null_mut(),
                start: Some(start),
                finished: false,
                panic: None,
            })),
            stack: Some(stack),
            _body: std::marker::PhantomData,
        }
    }

    /// Runs the fiber, and the fibers it switches to, until one of them
    /// finishes.
    pub(crate) fn resume(&mut self) {
        assert!(!self.finished(), "resumed a finished fiber");
        let state = self.state;
        let outer = CURRENT.replace(state);
        // SAFETY: `state.sp` is the fiber's saved context: the initial
        // frame or the point where it last switched away. The fiber that
        // finishes switches back to the context saved in `resumer_sp`,
        // which `switch_to` passes along, before this returns.
        unsafe { switch(&raw mut (*state).resumer_sp, (*state).sp, state as usize) };
        CURRENT.set(outer);
    }

    /// A handle for [`switch_to`], valid while this fiber is alive.
    pub(crate) fn handle(&self) -> Handle {
        Handle(self.state)
    }

    /// Whether the fiber's entry has returned.
    pub(crate) fn finished(&self) -> bool {
        // SAFETY: `state` is live until `Drop`, and the fiber is not
        // running (only the run loop holds the handle).
        unsafe { (*self.state).finished }
    }

    /// The unwind the fiber's body ended with, if any.
    pub(crate) fn take_panic(&mut self) -> Option<Box<dyn Any + Send>> {
        // SAFETY: as in `finished`.
        unsafe { (*self.state).panic.take() }
    }
}

impl Drop for Fiber<'_> {
    fn drop(&mut self) {
        let stack = self.stack.take().expect("a fiber owns its stack");
        // SAFETY: `state` came from `Box::into_raw` and the fiber is not
        // running; its stack no longer refers to it either way (finished,
        // never started, or leaked below along with the stack).
        let state = unsafe { Box::from_raw(self.state) };
        if state.finished || state.start.is_some() {
            // Finished or never started: nothing lives on the stack. The
            // unstarted body drops here, while `'a` still holds.
            drop(state);
            let _ = POOL.try_with(|pool| pool.borrow_mut().push(stack));
        } else {
            // Suspended mid-body (the run loop itself panicked): frames
            // still live on the stack and point at the state, so both
            // are leaked, never unmapped or reused.
            std::mem::forget(state);
            std::mem::forget(stack);
        }
    }
}

/// Names a fiber to [`switch_to`] without borrowing the run loop's
/// `Fiber`.
#[derive(Clone, Copy)]
pub(crate) struct Handle(*mut State);

/// Switches from the running fiber straight to `target`, which runs until
/// it switches on or finishes; this returns once some fiber switches back.
/// `target` takes over the run loop's saved context, so the run loop gets
/// control back when `target`, or any fiber after it, finishes.
///
/// # Safety
///
/// Must be called on a running fiber that a [`Fiber::resume`] started
/// (directly or down a chain of switches). `target` must name a live
/// fiber of the same run loop, other than the caller, that is not
/// finished: one not yet started or parked in `switch_to`.
pub(crate) unsafe fn switch_to(target: Handle) {
    let from = CURRENT.replace(target.0);
    debug_assert!(!from.is_null(), "switch_to called outside a fiber");
    debug_assert!(from != target.0, "a fiber switched to itself");
    // SAFETY: `from` is the running fiber and `target` a live, parked
    // one (the caller's contract), so both states are valid and
    // `target.sp` is a saved context nobody has resumed since. The run
    // loop's context moves to `target`, whose finish will return to it.
    unsafe {
        debug_assert!(!(*target.0).finished, "switched to a finished fiber");
        (*target.0).resumer_sp = (*from).resumer_sp;
        switch(&raw mut (*from).sp, (*target.0).sp, target.0 as usize);
    }
}

/// The first frame of every fiber: runs the body, records how it ended,
/// and switches to the run loop for good.
extern "C" fn fiber_main(state: *mut State) -> ! {
    // SAFETY: `resume` or `switch_to` passed its fiber's live state; it
    // outlives the fiber's run (the `Fiber` is not dropped while the
    // fiber runs).
    let start = unsafe { (*state).start.take() };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(start) = start {
            start();
        }
    }));
    // SAFETY: as above; after the switch nothing resumes this stack.
    unsafe {
        (*state).panic = outcome.err();
        (*state).finished = true;
        let mut unused = ptr::null_mut();
        switch(&mut unused, (*state).resumer_sp, 0);
    }
    unreachable!("a finished fiber was resumed")
}

/// Saves the callee-saved registers on the current stack, stores the
/// stack pointer in `*save`, loads `load` as the stack pointer, restores
/// the registers saved there, and returns into that context with `arg`
/// in `rdi` (the first argument of `fiber_main` on a fiber's first run).
///
/// The x87 and SSE control words are not switched: fibers share them,
/// and nothing in a simulated process changes them.
///
/// # Safety
///
/// `save` must be valid for a write, and `load` must be a stack pointer
/// this function saved (or the initial frame `Fiber::new` lays out) on a
/// stack that is still mapped and whose context has not been resumed
/// since it was saved.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8, arg: usize) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rdi, rdx",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three fibers pass control around a ring with [`switch_to`] for two
    /// laps, and the last one finishes instead of closing the second lap.
    /// The run loop resumes only fiber 0, yet gets control back when
    /// fiber 2, which a switch started, finishes; it then resumes the two
    /// parked fibers to their ends.
    #[test]
    fn fibers_interleave_at_direct_switches() {
        let log = RefCell::new(Vec::new());
        let handles = std::cell::OnceCell::<Vec<Handle>>::new();
        let mut fibers: Vec<Fiber<'_>> = (0..3)
            .map(|id| {
                let (log, handles) = (&log, &handles);
                Fiber::new(Box::new(move || {
                    for step in 0..2 {
                        log.borrow_mut().push((id, step));
                        if (id, step) == (2, 1) {
                            return;
                        }
                        let next =
                            handles.get().expect("set before the first resume")[(id + 1) % 3];
                        // SAFETY: `next` is another fiber of this loop, and
                        // it is parked or not yet started: the one fiber
                        // that finishes inside the ring, fiber 2, returns
                        // instead of switching.
                        unsafe { switch_to(next) };
                    }
                }))
            })
            .collect();
        assert!(handles
            .set(fibers.iter().map(Fiber::handle).collect())
            .is_ok());
        fibers[0].resume();
        let finished: Vec<bool> = fibers.iter().map(Fiber::finished).collect();
        assert_eq!(finished, [false, false, true]);
        fibers[0].resume();
        fibers[1].resume();
        assert!(fibers.iter().all(Fiber::finished));
        drop(fibers);
        let log = log.into_inner();
        assert_eq!(log, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn a_fiber_panic_is_caught_and_handed_back() {
        let mut fiber = Fiber::new(Box::new(|| panic!("inside a fiber")));
        fiber.resume();
        assert!(fiber.finished());
        let payload = fiber.take_panic().expect("the panic is kept");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"inside a fiber"));
    }

    #[test]
    fn stacks_are_reused_on_the_same_thread() {
        let mut first = Fiber::new(Box::new(|| {}));
        let base = first.stack.as_ref().unwrap().base;
        first.resume();
        drop(first);
        let second = Fiber::new(Box::new(|| {}));
        assert_eq!(second.stack.as_ref().unwrap().base, base);
    }
}
