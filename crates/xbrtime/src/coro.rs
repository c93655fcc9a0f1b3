//! Stackful coroutines: the engine's PEs run on their own `mmap`ed stacks
//! and a hand-off between two PEs of one worker thread is a user-space
//! stack switch.
//!
//! A [`Coroutine`] owns a stack and a body. [`Coroutine::resume`] switches
//! from the calling stack onto the coroutine's and runs it until the body
//! calls [`suspend`] or returns; [`suspend`] switches back. A coroutine is
//! resumed only by the thread that created it (the type is `!Send`): Rust
//! may keep a thread-local's address in a register across a call, so a
//! stack must never move to another thread.
//!
//! This module holds every line of `unsafe` the engine needs: the switch
//! itself (x86-64 System V, a naked function), the priming of a fresh
//! stack, and the `mmap` / `mprotect` / `munmap` calls that make one.
//!
//! Panics never cross a stack boundary. The body runs under
//! `catch_unwind` on its own stack and switches away for the last time
//! only once unwinding has finished; the panic count is per OS thread, so
//! a switch mid-unwind would hand a "panicking" thread to the next PE
//! (hence the `debug_assert!` in every switch). The bottom frame of a
//! coroutine stack has a null return address, where a backtrace stops.

use std::cell::Cell;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::ptr::{self, NonNull};
use std::thread;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "xbrtime's coroutine engine runs on x86_64 Linux only: port `coro::switch` \
     (and the mmap flags in `coro::Stack::new`) to this target"
);

extern "C" {
    // Declared here rather than through a `libc` crate: std already links
    // the platform C library and the build is offline.
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// Linux x86-64 `mmap` / `mprotect` constants.
const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;
/// The base page size on x86-64: the unit of the guard page.
const PAGE: usize = 4096;

/// The System V initial MXCSR (all exceptions masked, round to nearest)
/// and x87 control word (extended precision, exceptions masked).
const MXCSR_INIT: u64 = 0x1f80;
const FPUCW_INIT: u64 = 0x037f;

/// One coroutine stack: an anonymous mapping whose lowest page is a
/// `PROT_NONE` guard, so an overflow faults instead of writing into a
/// neighbour. `MAP_NORESERVE` commits nothing up front; the kernel backs
/// pages as the stack first touches them.
struct Stack {
    base: *mut u8,
    len: usize,
}

impl Stack {
    fn new(usable: usize) -> io::Result<Stack> {
        let len = usable.div_ceil(PAGE) * PAGE + PAGE;
        // SAFETY: an anonymous private mapping at an address the kernel
        // picks; it aliases no memory this process already uses.
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
        // `MAP_FAILED` is `(void *) -1`.
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // Owned from here on: an early return unmaps it.
        let stack = Stack { base, len };
        // SAFETY: the first page of the mapping just made, which nothing
        // references yet.
        if unsafe { mprotect(base, PAGE, PROT_NONE) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(stack)
    }

    /// One past the highest usable byte; 16-byte aligned (page aligned).
    fn top(&self) -> *mut u8 {
        // SAFETY: `len` is the length of the mapping at `base`, so this is
        // its one-past-the-end address.
        unsafe { self.base.add(self.len) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base`/`len` are exactly one mapping made in `new`, and
        // no coroutine runs on it any more (see `Coroutine`'s drop rule).
        unsafe { munmap(self.base, self.len) };
    }
}

/// Save the running context's callee-saved state on its own stack, store
/// its stack pointer through `save`, and continue the context whose saved
/// stack pointer is `to`, returning from *its* last `switch` (or entering
/// [`trampoline`] on a primed stack).
///
/// Saved: rbx, rbp, r12–r15 and rsp (everything else is caller-saved in
/// the System V ABI), plus MXCSR and the x87 control word, whose control
/// bits are callee-saved too. Nine words of stack, about fifteen
/// instructions each way.
///
/// # Safety
/// `save` must be valid for a pointer write. `to` must be a stack pointer
/// that `switch` stored and nothing has resumed since, or one that
/// [`Coroutine::new`] primed, on a stack that is still mapped.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a primed stack's first `switch` returns to: pass the coroutine
/// (parked in rbx by the priming) to its entry function (in r12) and
/// *jump* there, so the entry finds the primed null word as its return
/// address and a backtrace ends at it.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    std::arch::naked_asm!("mov rdi, rbx", "jmp r12")
}

/// Switch stacks (see [`switch`]). Never while unwinding: the panic count
/// belongs to the OS thread, not to the stack.
///
/// # Safety
/// As [`switch`].
unsafe fn jump(save: &Cell<*mut u8>, to: *mut u8) {
    debug_assert!(
        !thread::panicking(),
        "stack switch while unwinding: the panic would leak to the next coroutine"
    );
    // SAFETY: the caller upholds `switch`'s contract; `save` is a live cell.
    unsafe { switch(save.as_ptr(), to) }
}

/// The two saved stack pointers of a coroutine — what [`suspend`] needs,
/// free of the body's result type.
struct Link {
    /// The coroutine's own stack pointer while it is not running.
    sp: Cell<*mut u8>,
    /// The resumer's stack pointer while the coroutine runs.
    back: Cell<*mut u8>,
}

thread_local! {
    /// The coroutine running on this thread, if any.
    static CURRENT: Cell<*const Link> = const { Cell::new(ptr::null()) };
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Fresh,
    Running,
    Suspended,
    Done,
}

/// Heap-pinned coroutine state: its address is on the coroutine's stack
/// and in [`CURRENT`], so it never moves.
struct Inner<'a, T> {
    link: Link,
    state: Cell<State>,
    body: Cell<Option<Box<dyn FnOnce() -> T + 'a>>>,
    result: Cell<Option<thread::Result<T>>>,
    stack: Stack,
}

/// A body on its own stack, run in slices by [`Coroutine::resume`].
/// `!Send` (it holds a raw pointer): a stack stays on the thread that
/// made it.
pub(crate) struct Coroutine<'a, T> {
    /// A leaked `Box`, freed by `drop`. Held raw because the coroutine's
    /// own stack points at it too.
    inner: NonNull<Inner<'a, T>>,
}

/// First (and only) frame at the bottom of a coroutine stack: run the body
/// under `catch_unwind`, publish its outcome and switch away for good.
///
/// # Safety
/// `inner` is the `Inner<T>` this stack was primed for; it outlives the
/// coroutine's run.
unsafe extern "C" fn entry<T>(inner: *const Inner<'_, T>) -> ! {
    // SAFETY: the caller's contract; `Inner` is only read through shared
    // references (its mutable parts are cells).
    let inner = unsafe { &*inner };
    {
        let body = inner.body.take().expect("a coroutine body runs once");
        let result = panic::catch_unwind(AssertUnwindSafe(body));
        inner.result.set(Some(result));
    }
    inner.state.set(State::Done);
    // SAFETY: `back` is the resumer's stack pointer, saved by the `resume`
    // that is waiting for this switch. Nothing is left on this stack to
    // drop, and it is never resumed again.
    unsafe { jump(&inner.link.sp, inner.link.back.get()) };
    unreachable!("a finished coroutine was resumed");
}

impl<'a, T> Coroutine<'a, T> {
    /// Map a stack of `stack_bytes` usable bytes and prime it to run
    /// `body` on the first [`Coroutine::resume`].
    pub(crate) fn new(stack_bytes: usize, body: impl FnOnce() -> T + 'a) -> io::Result<Self> {
        let stack = Stack::new(stack_bytes)?;
        let inner = NonNull::from(Box::leak(Box::new(Inner {
            link: Link {
                sp: Cell::new(ptr::null_mut()),
                back: Cell::new(ptr::null_mut()),
            },
            state: Cell::new(State::Fresh),
            body: Cell::new(Some(Box::new(body))),
            result: Cell::new(None),
            stack,
        })));
        // The frame `switch` pops, lowest address first: MXCSR and the x87
        // control word in one word, r15, r14, r13, r12 (the entry), rbx
        // (its argument), rbp, `switch`'s return address, and at the top
        // the entry's null return address. `top` is 16-byte aligned, so
        // `entry` starts with rsp ≡ 8 (mod 16), as after a `call`.
        let entry: unsafe extern "C" fn(*const Inner<'a, T>) -> ! = entry::<T>;
        let frame: [u64; 9] = [
            MXCSR_INIT | FPUCW_INIT << 32,
            0,                              // r15
            0,                              // r14
            0,                              // r13
            entry as *const () as u64,      // r12
            inner.as_ptr() as u64,          // rbx
            0,                              // rbp: ends frame-pointer walks
            trampoline as *const () as u64, // switch's `ret`
            0,                              // entry's return address
        ];
        let co = Coroutine { inner };
        let inner = co.inner();
        // SAFETY: the nine words end at the top of a fresh, writable
        // mapping far larger than 72 bytes, and the pointer is 8-aligned.
        let sp = unsafe {
            let sp = inner.stack.top().sub(std::mem::size_of_val(&frame));
            ptr::copy_nonoverlapping(frame.as_ptr(), sp.cast::<u64>(), frame.len());
            sp
        };
        inner.link.sp.set(sp);
        Ok(co)
    }

    fn inner(&self) -> &Inner<'a, T> {
        // SAFETY: `inner` is the leaked box made in `new`, freed only by
        // `drop`; every mutable part of it is a cell.
        unsafe { self.inner.as_ref() }
    }

    /// Run the coroutine until it suspends (`None`) or its body returns or
    /// panics (`Some` with the outcome). Panics if it already finished.
    pub(crate) fn resume(&mut self) -> Option<thread::Result<T>> {
        let inner = self.inner();
        assert!(
            matches!(inner.state.get(), State::Fresh | State::Suspended),
            "resumed a coroutine in state {:?}",
            inner.state.get()
        );
        inner.state.set(State::Running);
        let outer = CURRENT.with(|c| c.replace(&inner.link));
        // SAFETY: `sp` was primed by `new` or saved by the coroutine's last
        // `suspend`, and nothing resumed it since (state was Fresh or
        // Suspended). `back` lives in `Inner`, which outlives the call.
        unsafe { jump(&inner.link.back, inner.link.sp.get()) };
        CURRENT.with(|c| c.set(outer));
        if inner.state.get() == State::Done {
            return Some(
                inner
                    .result
                    .take()
                    .expect("a finished coroutine left its result"),
            );
        }
        inner.state.set(State::Suspended);
        None
    }
}

impl<T> Drop for Coroutine<'_, T> {
    fn drop(&mut self) {
        // A suspended body's frames may borrow data its owner frees next,
        // and unwinding them from outside is not possible: there is no
        // sound way on but to stop.
        if self.inner().state.get() == State::Suspended {
            eprintln!("xbrtime: a suspended coroutine was dropped; aborting");
            std::process::abort();
        }
        // SAFETY: the box leaked in `new`; its coroutine is not running
        // (`resume` holds `&mut self` while it does) and never runs again.
        drop(unsafe { Box::from_raw(self.inner.as_ptr()) });
    }
}

/// Switch from the running coroutine back to whoever resumed it; returns
/// when it is resumed again.
///
/// # Panics
/// Panics when called outside a coroutine.
pub(crate) fn suspend() {
    let link = CURRENT.with(Cell::get);
    assert!(!link.is_null(), "coro::suspend outside a coroutine");
    // SAFETY: `CURRENT` names the coroutine whose stack this is — `resume`
    // set it on this thread and restores it only after the switch back —
    // so `link` is live and `back` holds the resumer's saved stack
    // pointer, which nothing else resumes.
    unsafe { jump(&(*link).sp, (*link).back.get()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suspends_resumes_and_returns() {
        let log = std::cell::RefCell::new(Vec::new());
        let mut co = Coroutine::new(64 * 1024, || {
            for i in 0..3 {
                log.borrow_mut().push(i);
                suspend();
            }
            7
        })
        .unwrap();
        for i in 0..3 {
            assert!(co.resume().is_none());
            assert_eq!(log.borrow().len(), i + 1);
        }
        assert_eq!(co.resume().unwrap().unwrap(), 7);
    }

    #[test]
    fn panics_stay_on_their_stack() {
        let mut a = Coroutine::new(64 * 1024, || -> u32 { panic!("first") }).unwrap();
        let mut b = Coroutine::new(64 * 1024, || -> u32 { panic!("second") }).unwrap();
        let msg = |r: thread::Result<u32>| *r.unwrap_err().downcast::<&str>().unwrap();
        assert_eq!(msg(a.resume().unwrap()), "first");
        assert!(!thread::panicking());
        assert_eq!(msg(b.resume().unwrap()), "second");
    }

    #[test]
    fn float_control_state_is_per_coroutine() {
        // A body that leaves the x87 control word changed must not leak
        // it to the resumer, and vice versa.
        fn fpucw() -> u16 {
            let mut cw = 0u16;
            // SAFETY: stores the x87 control word into a local.
            unsafe { std::arch::asm!("fnstcw [{}]", in(reg) &mut cw) };
            cw
        }
        let outer = fpucw();
        let mut co = Coroutine::new(64 * 1024, || {
            assert_eq!(fpucw(), FPUCW_INIT as u16);
            let cw = 0x027fu16; // double precision
                                // SAFETY: loads a valid control word; restored by the switch.
            unsafe { std::arch::asm!("fldcw [{}]", in(reg) &cw) };
            suspend();
            fpucw()
        })
        .unwrap();
        assert!(co.resume().is_none());
        assert_eq!(fpucw(), outer);
        assert_eq!(co.resume().unwrap().unwrap(), 0x027f);
    }
}
