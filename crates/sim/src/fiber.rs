//! Stackful fibers for the simulated world: one small interface
//! (`start` a fiber on a body, `resume(rank)`, `switch(from, to)`,
//! `to_host(rank)`, and the hint `prefetch(rank)`), two backends chosen
//! from `target_arch` at build time.
//!
//! Sim mode runs exactly one rank at a time (see [`crate::sched`]), so
//! a world is a host drive loop that resumes a ready rank, and ranks
//! that hand the token straight to the next one (`switch`) or, when
//! none can take it, back to the host (`to_host`). What a switch costs
//! is the only platform difference, and it lives here:
//!
//! * **x86_64** — a fiber is a stack of its own and a saved stack
//!   pointer; a switch is ~20 instructions in user space, tens of
//!   nanoseconds, and the scheduler state stays cache-hot.
//! * **elsewhere** — a fiber is an OS thread, and one baton says who
//!   runs (a fiber or the host), so exactly one of them runs at a time:
//!   same order, same results, microseconds per switch (a futex wake
//!   and a kernel context switch). The x86_64 test build compiles this
//!   backend too and runs the contract tests below against both.
//!
//! `prefetch(rank)` asks the cache for the lines `rank` touches first
//! when it is resumed (the scheduler issues it one rank's worth of work
//! ahead; see `PREFETCH_LINES`). It is empty on the thread backend,
//! whose switch is a kernel round trip.
//!
//! The contract is deliberately narrow:
//!
//! * every fiber of a set is started and first resumed by one host
//!   thread (the caller of `World::run` or `try_run_actors`);
//! * a fiber suspends only at explicit scheduler points (blocked recv,
//!   collective rendezvous, cooperative yield) by switching to another
//!   suspended fiber of the set or to the host, and a body that returns
//!   has made its final switch, to the host — nothing may switch to it
//!   again;
//! * panics never unwind across a switch: the rank body runs under
//!   `catch_unwind` *inside* the fiber and its outcome is a stored
//!   value; a body that unwinds anyway aborts the process.
//!
//! Stacks are [`Pages`] without guard pages, so the launcher checks
//! after the run that the deepest page of each is still all zeros
//! ([`FiberStack::deep_page_is_zero`]). (The thread backend runs on the
//! OS thread's own guarded stack and takes only the size from a
//! [`FiberStack`].)

use crate::pages::Pages;

#[cfg(target_arch = "x86_64")]
pub(crate) use asm::FiberSet;
#[cfg(not(target_arch = "x86_64"))]
pub(crate) use threads::FiberSet;

/// Default fiber stack size. Generous for the benchmark closures (heap
/// buffers, shallow call depth) while staying lazily committed:
/// untouched pages cost no RSS. The depth actually used is a measured
/// number ([`FiberStack::high_water`] with the release profile's fat LTO:
/// 2.7 kB for b_eff, 4.4 kB for b_eff_io; about three times that in a
/// debug build). Smaller stacks, and
/// one contiguous mapping of 16 or 64 KiB stacks, were tried against
/// this: no resolvable change in a 512-rank job — the TLB is not what a
/// handoff waits for — so the size and one mapping per stack stay.
/// The deepest page ([`FiberStack::deep_page_is_zero`]) is the overflow
/// tripwire: nothing writes it, so it costs no RSS either.
pub const STACK_SIZE: usize = 1 << 20;

/// The deep end of a stack that no fiber may reach: one page.
const DEEP_PAGE: usize = 4096;

/// One fiber stack, zero until a fiber writes it.
pub struct FiberStack {
    mem: Pages,
}

impl FiberStack {
    /// A fresh stack: nothing is written, so nothing is committed until
    /// a fiber first runs on it.
    pub fn new(size: usize) -> Self {
        Self { mem: Pages::zeroed(size) }
    }

    /// `n` stacks of the default [`STACK_SIZE`]: one world's worth.
    pub fn set(n: usize) -> Vec<Self> {
        (0..n).map(|_| Self::new(STACK_SIZE)).collect()
    }

    /// Does the deepest page of the stack still hold only zeros? A
    /// fiber that wrote anything there has overflowed (there are no
    /// guard pages). Reading an untouched page maps the kernel's zero
    /// page, which costs no RSS. Call it with the fiber suspended or
    /// finished.
    pub fn deep_page_is_zero(&self) -> bool {
        let deep = &self.mem[..DEEP_PAGE.min(self.mem.size())];
        deep.iter().fold(0, |any, &b| any | b) == 0
    }

    /// Deepest the fiber ever got: bytes from the top of the stack down
    /// to the deepest non-zero word. Call it with the fiber suspended or
    /// finished. (A stack starts zeroed and frames are not cleared on
    /// return, so this is a high-water mark up to frames that only ever
    /// stored zeros at their deep end.)
    pub fn high_water(&self) -> usize {
        let deepest = self.mem.chunks_exact(8).position(|w| w != [0; 8]);
        deepest.map_or(0, |i| self.mem.size() - 8 * i)
    }
}

/// The x86_64 backend: hand-written stack switch.
#[cfg(target_arch = "x86_64")]
mod asm {
    use super::FiberStack;
    use std::arch::naked_asm;
    use std::cell::UnsafeCell;

    /// Saved stack pointers for one world: the host context plus one
    /// per rank. Only the driving host thread ever reads or writes
    /// these (the narrow contract above); the raw cells exist because
    /// the scheduler that owns the set is shared by reference with
    /// every rank body.
    pub struct FiberSet {
        host_sp: UnsafeCell<*mut u8>,
        sps: Vec<UnsafeCell<*mut u8>>,
    }

    // SAFETY: see struct docs — single-thread use by construction; the
    // raw cells are only touched by the driving host thread.
    unsafe impl Send for FiberSet {}
    // SAFETY: as above — `Sync` exists so `&SimScheduler` can be
    // captured by rank bodies, not for actual cross-thread access.
    unsafe impl Sync for FiberSet {}

    impl FiberSet {
        /// Every fiber runs on the thread that drives it, so a world
        /// may claim the locks its ranks share for the whole run.
        pub const ON_HOST_THREAD: bool = true;

        pub fn new(n: usize) -> Self {
            Self {
                host_sp: UnsafeCell::new(std::ptr::null_mut()),
                sps: (0..n).map(|_| UnsafeCell::new(std::ptr::null_mut())).collect(),
            }
        }

        /// Prepare `stack` so the first switch into `rank`
        /// ([`resume`](Self::resume) or [`switch`](Self::switch)) enters
        /// `body`; when `body` returns the fiber frees what `start`
        /// boxed and makes its final switch to the host.
        ///
        /// # Safety
        /// The caller must be the driving host thread, must keep
        /// `stack` alive while the fiber can still be resumed, and
        /// must not resume the fiber once anything `body` borrows is
        /// gone.
        pub unsafe fn start<'a>(
            &'a self,
            rank: usize,
            stack: &'a FiberStack,
            body: impl FnOnce() + Send + 'a,
        ) {
            // the final switch, as `to_host(rank)` makes it, is left to
            // `fiber_main`, which makes it once this closure is freed
            let entry = move || {
                body();
                (self.sps[rank].get(), self.host_sp.get().cast_const())
            };
            // SAFETY: the caller keeps `stack` and `entry`'s borrows
            // alive for as long as it resumes this fiber.
            let sp = unsafe { init_fiber(stack, Box::new(entry)) };
            // SAFETY: start happens on the driving thread before any
            // resume of `rank`; no other reference to the cell exists.
            unsafe { *self.sps[rank].get() = sp };
        }

        /// Host → fiber. Returns when a fiber of the set switches to
        /// the host — `rank`, or one the token reached from it.
        ///
        /// # Safety
        /// `rank` must hold a started, suspended fiber whose body has
        /// not returned, and the caller must be the driving host thread.
        pub unsafe fn resume(&self, rank: usize) {
            // SAFETY: caller contract (driving host thread, started
            // fiber); the cells are written only by this thread.
            unsafe { fiber_switch(self.host_sp.get(), self.sps[rank].get()) };
        }

        /// Fiber → fiber. Returns when something switches back to `from`.
        ///
        /// # Safety
        /// Must be called from the fiber started at `from`; `to` must
        /// hold another started fiber, suspended, whose body has not
        /// returned.
        pub unsafe fn switch(&self, from: usize, to: usize) {
            // SAFETY: caller contract; every fiber of the set runs on
            // the driving host thread, the only one touching the cells.
            unsafe { fiber_switch(self.sps[from].get(), self.sps[to].get()) };
        }

        /// Fiber → host. Returns when something switches back to `rank`.
        ///
        /// # Safety
        /// Must be called from the fiber started at `rank`.
        pub unsafe fn to_host(&self, rank: usize) {
            // SAFETY: caller contract (called from the fiber started at
            // `rank`); the host is inside the resume that saved its slot.
            unsafe { fiber_switch(self.sps[rank].get(), self.host_sp.get()) };
        }

        /// Start pulling the top of `rank`'s suspended stack into the
        /// cache: the switch's save area and the frames it returns
        /// into. A hint — it cannot fault and changes no result. Call
        /// it where the scheduler runs: on the driving host thread or a
        /// fiber it resumed.
        #[inline]
        pub fn prefetch(&self, rank: usize) {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: the saved stack pointers are read and written only
            // on the driving host thread (the struct's contract; every
            // fiber of the set runs on it), so this read races with no
            // switch. The prefetch instruction dereferences nothing
            // architecturally; the addresses are formed with wrapping
            // arithmetic because the last lines may lie past the top of
            // a shallow stack.
            unsafe {
                let sp = *self.sps[rank].get();
                for line in 0..PREFETCH_LINES {
                    _mm_prefetch::<_MM_HINT_T0>(sp.wrapping_add(64 * line) as *const i8);
                }
            }
        }
    }

    /// How much of a suspended stack [`FiberSet::prefetch`] asks for:
    /// 16 lines = 1 KiB above the saved stack pointer: the save area and
    /// the frames it returns into. It no longer reaches the benchmark
    /// loop: with the release profile's fat LTO a b_eff rank blocked in
    /// `recv` saves its stack pointer ≈ 1.4 KiB below its ring loop's
    /// frame (≈ 0.6 KiB without LTO); whether more lines pay is not
    /// measured. A 512-rank world's working set is past the L2
    /// and swept in FIFO token order, LRU's worst case, so without the
    /// hint every resume starts with a chain of misses. What is
    /// measured is 0 against 16 lines (512-rank b_eff job ≈ 2.3 → 1.8 s,
    /// outside the run-to-run spread of ≈ 0.4 s). The depth itself
    /// is not resolved: single readings at 8 / 16 / 24 lines (2.16 /
    /// 1.76 / 1.87 s) differ by less than that spread, as did hinting
    /// the rank's `RankState` and mailbox as well (16 more lines).
    const PREFETCH_LINES: usize = 16;

    /// The two saved-stack-pointer cells of a fiber's final switch, to
    /// the host: where to save its own and where to load the host's.
    type FinalSwitch = (*mut *mut u8, *const *mut u8);

    /// Write the initial save area onto `stack` so that switching to
    /// the returned stack pointer enters `body`. The closure is boxed
    /// twice so a single (thin) pointer smuggles it through the
    /// register file.
    ///
    /// # Safety
    /// The caller must keep `stack` alive while the fiber can still be
    /// switched to, and `body`'s borrows alive until it has returned or
    /// the fiber is abandoned.
    unsafe fn init_fiber(stack: &FiberStack, body: Box<dyn FnOnce() -> FinalSwitch + '_>) -> *mut u8 {
        // SAFETY: lifetime erasure only — the fiber is not resumed
        // after the borrowed data dies (see # Safety above), and the
        // box layout is lifetime-free.
        let body: Box<dyn FnOnce() -> FinalSwitch + 'static> = unsafe { std::mem::transmute(body) };
        let closure = Box::into_raw(Box::new(body)) as u64;

        // SAFETY: one-past-the-end of the owned allocation, which is
        // explicitly allowed for pointer arithmetic (stacks grow down).
        let top = unsafe { stack.mem.base().add(stack.mem.size()) };
        // SAFETY: all writes land inside `stack`'s allocation (72 bytes
        // below its top, far above its deepest page), and the save-area
        // layout matches fiber_switch's asm exactly.
        unsafe {
            // Layout mirrors fiber_switch's save area (see its asm):
            //   sp + 0   mxcsr | x87 cw
            //   sp + 8   r15
            //   sp + 16  r14
            //   sp + 24  r13
            //   sp + 32  r12  ← closure pointer for fiber_entry
            //   sp + 40  rbx
            //   sp + 48  rbp  (0 terminates frame-pointer walks)
            //   sp + 56  return address → fiber_entry
            //   sp + 64  (top - 8) scratch word, keeps entry rsp ≡ 8 mod 16
            let sp = top.sub(72);
            (sp as *mut u32).write(0x1F80); // MXCSR power-on default
            (sp.add(4) as *mut u32).write(0x037F); // x87 CW default
            (sp.add(8) as *mut u64).write(0); // r15
            (sp.add(16) as *mut u64).write(0); // r14
            (sp.add(24) as *mut u64).write(0); // r13
            (sp.add(32) as *mut u64).write(closure); // r12
            (sp.add(40) as *mut u64).write(0); // rbx
            (sp.add(48) as *mut u64).write(0); // rbp
            (sp.add(56) as *mut u64).write(fiber_entry as *const () as usize as u64);
            (sp.add(64) as *mut u64).write(0);
            sp
        }
    }

    /// Save the callee-saved state on the current stack, store rsp
    /// through `save`, load rsp from `load`, restore and return — i.e.
    /// continue whatever context last saved itself into `load`.
    #[unsafe(naked)]
    unsafe extern "sysv64" fn fiber_switch(save: *mut *mut u8, load: *const *mut u8) {
        naked_asm!(
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
            "mov rsp, [rsi]",
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

    /// First frame of every fiber: forwards the closure pointer parked
    /// in r12 by [`init_fiber`] to [`fiber_main`] with a call-aligned
    /// stack.
    #[unsafe(naked)]
    unsafe extern "sysv64" fn fiber_entry() {
        naked_asm!(
            "sub rsp, 8",
            "mov rdi, r12",
            "call {main}",
            "ud2",
            main = sym fiber_main,
        )
    }

    unsafe extern "sysv64" fn fiber_main(closure: *mut u8) {
        // SAFETY: `closure` is the Box::into_raw pointer parked in r12
        // by init_fiber; ownership transfers here exactly once.
        let body = unsafe { Box::from_raw(closure as *mut Box<dyn FnOnce() -> FinalSwitch>) };
        // Calling the body consumes and frees both boxes before it
        // returns; a body that made the final switch itself would leave
        // them behind, since nothing ever switches back into it.
        let (save, load) = body();
        // SAFETY: the cells of this fiber's rank and of the host, the
        // switch `to_host(rank)` makes; the host is inside the resume
        // that saved its cell, and nothing is left on this frame to drop.
        unsafe { fiber_switch(save, load) };
        // Getting here means the host resumed a finished fiber, and
        // there is no frame below this one to return into.
        std::process::abort();
    }
}

/// The portable backend: each fiber is an OS thread, and one baton
/// says which of them — or the host — runs.
#[cfg(any(test, not(target_arch = "x86_64")))]
mod threads {
    use super::FiberStack;
    use beff_sync::{Condvar, Mutex, Rank};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// Lock-hierarchy position (DESIGN.md §8): the baton is taken with
    /// the scheduler state (40) released, never under it.
    static FIBER_BATON_RANK: Rank = Rank::new(50, "fiber.baton");

    /// Who runs: `Some(rank)`, or `None` for the host; each party sleeps
    /// on a condvar of its own, so a switch wakes only its target.
    struct Baton {
        turn: Mutex<Option<usize>>,
        fiber_cv: Vec<Condvar>,
        host_cv: Condvar,
        /// Bodies that returned: their threads are exiting and joinable.
        done: Vec<AtomicBool>,
    }

    impl Baton {
        fn cv(&self, who: Option<usize>) -> &Condvar {
            who.map_or(&self.host_cv, |r| &self.fiber_cv[r])
        }

        /// Hand the baton to `to`.
        fn give(&self, to: Option<usize>) {
            let finished = to.is_some_and(|r| self.done[r].load(Ordering::Acquire));
            assert!(!finished, "switch to a finished fiber");
            *self.turn.lock() = to;
            self.cv(to).notify_one();
        }

        /// Sleep until the baton is `me`'s.
        fn wait_for(&self, me: Option<usize>) {
            let mut turn = self.turn.lock();
            while *turn != me {
                self.cv(me).wait(&mut turn);
            }
        }

        /// `me` holds the baton: hand it to `to`, sleep until it is back.
        fn pass(&self, me: Option<usize>, to: Option<usize>) {
            self.give(to);
            self.wait_for(me);
        }
    }

    pub struct FiberSet {
        baton: Arc<Baton>,
        threads: Vec<Mutex<Option<JoinHandle<()>>>>,
    }

    impl FiberSet {
        /// Each fiber is a thread of its own: shared state is reached
        /// through the real locks, never a claim.
        pub const ON_HOST_THREAD: bool = false;

        pub fn new(n: usize) -> Self {
            let baton = Baton {
                turn: Mutex::ranked(&FIBER_BATON_RANK, None),
                fiber_cv: (0..n).map(|_| Condvar::new()).collect(),
                host_cv: Condvar::new(),
                done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            };
            Self { baton: Arc::new(baton), threads: (0..n).map(|_| Mutex::new(None)).collect() }
        }

        /// Spawn `rank`'s thread, parked until the baton first reaches
        /// it ([`resume`](Self::resume) or [`switch`](Self::switch));
        /// when `body` returns the baton goes to the host. The thread
        /// takes `stack`'s size, not its memory.
        ///
        /// # Safety
        /// The caller must not switch to the fiber once anything `body`
        /// borrows is gone (a fiber that never gets the baton again
        /// stays parked and touches nothing).
        pub unsafe fn start<'a>(
            &'a self,
            rank: usize,
            stack: &'a FiberStack,
            body: impl FnOnce() + Send + 'a,
        ) {
            let body: Box<dyn FnOnce() + Send + 'a> = Box::new(body);
            // SAFETY: lifetime erasure only — the thread runs `body`
            // only while it holds the baton, which the caller stops
            // passing to it before the borrowed data dies.
            let body: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(body) };
            let baton = Arc::clone(&self.baton);
            let thread = std::thread::Builder::new()
                .name(format!("beff-fiber-{rank}"))
                .stack_size(stack.mem.size())
                .spawn(move || {
                    baton.wait_for(Some(rank));
                    // Whoever passed the baton is asleep and cannot
                    // catch this thread's unwind; match the asm backend,
                    // where unwinding into the entry frame aborts.
                    if catch_unwind(AssertUnwindSafe(body)).is_err() {
                        std::process::abort();
                    }
                    baton.done[rank].store(true, Ordering::Release);
                    baton.give(None);
                })
                .expect("spawn fiber thread");
            *self.threads[rank].lock() = Some(thread);
        }

        /// Host → fiber. Returns when a fiber hands the baton to the
        /// host.
        ///
        /// # Safety
        /// None beyond `start`'s; `unsafe` to share one interface with
        /// the asm backend.
        pub unsafe fn resume(&self, rank: usize) {
            self.baton.pass(None, Some(rank));
        }

        /// Fiber → fiber. Returns when the baton comes back to `from`.
        ///
        /// # Safety
        /// As [`resume`](Self::resume).
        pub unsafe fn switch(&self, from: usize, to: usize) {
            self.baton.pass(Some(from), Some(to));
        }

        /// Fiber → host. Returns when the baton comes back to `rank`.
        ///
        /// # Safety
        /// As [`resume`](Self::resume).
        pub unsafe fn to_host(&self, rank: usize) {
            self.baton.pass(Some(rank), None);
        }

        /// Nothing to do: a switch here is a futex wake and a kernel
        /// context switch, and the stack is another thread's.
        #[inline]
        pub fn prefetch(&self, _rank: usize) {}
    }

    impl Drop for FiberSet {
        fn drop(&mut self) {
            for (done, thread) in self.baton.done.iter().zip(&self.threads) {
                // A fiber abandoned mid-body stays parked forever;
                // only finished ones can be joined.
                if done.load(Ordering::Acquire) {
                    if let Some(t) = thread.lock().take() {
                        let _ = t.join();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use beff_sync::Mutex;
    use std::sync::atomic::{AtomicU32, Ordering};

    type Log = Vec<(&'static str, usize)>;

    /// The fiber contract, once per backend; the flag is its ON_HOST_THREAD.
    macro_rules! contract_tests {
        ($backend:ident, $on_host_thread:expr) => {
            mod $backend {
                use super::*;
                use crate::fiber::$backend::FiberSet;

                /// Minimal two-way handoff: host → fiber → host → fiber → done.
                #[test]
                fn fiber_switches_roundtrip() {
                    assert_eq!(FiberSet::ON_HOST_THREAD, $on_host_thread);
                    let stack = FiberStack::new(STACK_SIZE);
                    let set = FiberSet::new(1);
                    let hits = AtomicU32::new(0);
                    let body = || {
                        hits.fetch_add(1, Ordering::Relaxed);
                        unsafe { set.to_host(0) };
                        hits.fetch_add(10, Ordering::Relaxed);
                    };
                    unsafe { set.start(0, &stack, body) };
                    set.prefetch(0); // a hint on either backend
                    unsafe { set.resume(0) };
                    assert_eq!(hits.load(Ordering::Relaxed), 1);
                    unsafe { set.resume(0) };
                    assert_eq!(hits.load(Ordering::Relaxed), 11);
                    assert!(stack.deep_page_is_zero());
                }

                /// The overflow check passes a fresh stack and one a
                /// fiber has run on, and trips on any non-zero byte in
                /// the deepest page: its deepest word, its middle, its
                /// top word and its last byte.
                #[test]
                fn a_write_into_the_deep_page_trips_the_overflow_check() {
                    let run_one = || {
                        let stack = FiberStack::new(STACK_SIZE);
                        assert!(stack.deep_page_is_zero(), "a fresh stack");
                        let set = FiberSet::new(1);
                        let body = || {
                            std::hint::black_box([1u64; 64]);
                        };
                        unsafe {
                            set.start(0, &stack, body);
                            set.resume(0);
                        }
                        assert!(stack.deep_page_is_zero(), "a stack a fiber ran on");
                        stack
                    };
                    for at in [0, DEEP_PAGE / 2, DEEP_PAGE - 8, DEEP_PAGE - 1] {
                        let mut stack = run_one();
                        stack.mem[at] = 1;
                        assert!(!stack.deep_page_is_zero(), "a byte at {at}");
                    }
                    let mut stack = run_one();
                    stack.mem[DEEP_PAGE] = 1;
                    assert!(stack.deep_page_is_zero(), "the page above the deepest");
                }

                /// Two fibers interleaved through the host in a fixed
                /// order.
                #[test]
                fn two_fibers_interleave_deterministically() {
                    let stacks = FiberStack::set(2);
                    let set = FiberSet::new(2);
                    let log = Mutex::new(Vec::new());
                    for (r, stack) in stacks.iter().enumerate() {
                        let (set, log) = (&set, &log);
                        let body = move || {
                            for step in 0..3 {
                                log.lock().push((r, step));
                                unsafe { set.to_host(r) };
                            }
                        };
                        unsafe { set.start(r, stack, body) };
                    }
                    for _ in 0..4 {
                        unsafe {
                            set.resume(0);
                            set.resume(1);
                        }
                    }
                    assert_eq!(
                        *log.lock(),
                        [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
                    );
                }

                /// A scripted drive loop: FIFO ready queue; fiber 0
                /// blocks to the host, 1 blocks by switching straight
                /// into the head of the queue (2), 2 unblocks 1 and 0
                /// and yields the same way (to 3), 3 runs straight
                /// through, 1 panics under its own `catch_unwind` after
                /// resuming.
                pub fn replay() -> Log {
                    let n = 4;
                    let stacks = FiberStack::set(n);
                    let set = FiberSet::new(n);
                    let ready = Mutex::new((0..n).collect::<VecDeque<usize>>());
                    let log = Mutex::new(Log::new());
                    for (r, stack) in stacks.iter().enumerate() {
                        let (set, ready, log) = (&set, &ready, &log);
                        let say = move |what| log.lock().push((what, r));
                        let pass = move || {
                            let next = ready.lock().pop_front();
                            match next {
                                Some(next) => {
                                    log.lock().push(("switch", next));
                                    unsafe { set.switch(r, next) }
                                }
                                None => unsafe { set.to_host(r) },
                            }
                        };
                        let body = move || {
                            say("start");
                            match r {
                                0 => unsafe { set.to_host(r) },
                                1 => pass(),
                                2 => {
                                    ready.lock().extend([1, 0, 2]);
                                    pass();
                                }
                                _ => {}
                            }
                            if r == 1 {
                                let boom = std::panic::catch_unwind(|| {
                                    std::panic::resume_unwind(Box::new("boom"))
                                });
                                assert!(boom.is_err());
                                say("caught");
                            }
                            say("done");
                        };
                        unsafe { set.start(r, stack, body) };
                    }
                    loop {
                        let next = ready.lock().pop_front();
                        let Some(r) = next else { break };
                        log.lock().push(("run", r));
                        unsafe { set.resume(r) };
                    }
                    assert!(stacks.iter().all(|s| s.deep_page_is_zero()));
                    log.into_inner()
                }

                #[test]
                fn scripted_drive_loop_logs_the_fixed_sequence() {
                    let want: Log = vec![
                        ("run", 0),
                        ("start", 0),
                        ("run", 1),
                        ("start", 1),
                        ("switch", 2),
                        ("start", 2),
                        ("switch", 3),
                        ("start", 3),
                        ("done", 3),
                        ("run", 1),
                        ("caught", 1),
                        ("done", 1),
                        ("run", 0),
                        ("done", 0),
                        ("run", 2),
                        ("done", 2),
                    ];
                    assert_eq!(replay(), want);
                }

                /// Float state survives switches (the benchmarks are
                /// f64-heavy) along a fiber → fiber → host chain: fiber
                /// 0 switches to 1, 1 to the host, the host resumes 0.
                #[test]
                fn float_state_survives_switches() {
                    let stacks = FiberStack::set(2);
                    let set = FiberSet::new(2);
                    let out = Mutex::new([0.0f64; 2]);
                    let (set_ref, out_ref) = (&set, &out);
                    let first = move || {
                        let mut acc = 1.0f64;
                        for i in 1..=10 {
                            acc = acc * 1.5 + i as f64;
                            unsafe { set_ref.switch(0, 1) };
                        }
                        out_ref.lock()[0] = acc;
                    };
                    let second = move || {
                        let mut acc = 2.0f64;
                        for i in 1..=10 {
                            acc = acc * 0.75 + i as f64;
                            unsafe { set_ref.to_host(1) };
                        }
                        out_ref.lock()[1] = acc;
                    };
                    unsafe {
                        set.start(0, &stacks[0], first);
                        set.start(1, &stacks[1], second);
                    }
                    let mut host_acc = 3.0f64;
                    for i in 1..=10 {
                        unsafe { set.resume(0) };
                        host_acc = host_acc * 1.25 + i as f64;
                    }
                    unsafe {
                        set.resume(0);
                        set.resume(1);
                    }
                    let want = |mut acc: f64, k: f64| {
                        (1..=10).for_each(|i| acc = acc * k + i as f64);
                        acc.to_bits()
                    };
                    assert_eq!(out.lock().map(f64::to_bits), [want(1.0, 1.5), want(2.0, 0.75)]);
                    assert_eq!(host_acc.to_bits(), want(3.0, 1.25));
                    assert!(stacks.iter().all(|s| s.deep_page_is_zero()));
                }
            }
        };
    }

    #[cfg(target_arch = "x86_64")]
    contract_tests!(asm, true);
    contract_tests!(threads, false);

    /// Both backends replay the same token order.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn both_backends_log_the_identical_sequence() {
        assert_eq!(asm::replay(), threads::replay());
    }

    /// The high-water mark follows the deepest frame, down to the
    /// deepest word; prefetching a suspended fiber — even one 72 bytes
    /// below the top of its stack — is a pure hint.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn high_water_tracks_the_deepest_frame() {
        #[inline(never)]
        fn dig(depth: usize) -> u64 {
            let frame = std::hint::black_box([depth as u64 | 1; 64]);
            if depth == 0 { frame[0] } else { frame[1] + dig(depth - 1) }
        }
        let mut stack = FiberStack::new(STACK_SIZE);
        assert_eq!(stack.high_water(), 0, "a fresh stack");
        stack.mem[8] = 1;
        assert_eq!(stack.high_water(), STACK_SIZE - 8, "the deepest word but one");
        stack.mem[0] = 1;
        assert_eq!(stack.high_water(), STACK_SIZE, "the deepest word");
        let stack = FiberStack::new(STACK_SIZE);
        let set = crate::fiber::asm::FiberSet::new(1);
        let body = || {
            unsafe { set.to_host(0) };
            std::hint::black_box(dig(32));
        };
        unsafe { set.start(0, &stack, body) };
        set.prefetch(0);
        unsafe { set.resume(0) };
        let shallow = stack.high_water();
        assert!(shallow > 0 && shallow < 16 * 1024, "shallow = {shallow}");
        set.prefetch(0);
        unsafe { set.resume(0) };
        let deep = stack.high_water();
        assert!(deep >= shallow + 32 * 64 * 8 && deep < STACK_SIZE / 4, "{shallow} -> {deep}");
        assert!(stack.deep_page_is_zero());
    }
}
