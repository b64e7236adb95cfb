//! Stackful fibers for the simulated world: one small interface
//! (`start` a fiber on a body, `resume(rank)`, `to_host(rank)`, and the
//! hint `prefetch(rank)`), two backends chosen from `target_arch` at
//! build time.
//!
//! Sim mode runs exactly one rank at a time (see [`crate::sched`]), so
//! a world is a host drive loop that resumes the next ready rank and
//! ranks that suspend back to the host. What "resume" and "suspend"
//! cost is the only platform difference, and it lives here:
//!
//! * **x86_64** — a fiber is a stack of its own and a saved stack
//!   pointer; a switch is ~20 instructions in user space, tens of
//!   nanoseconds, and the scheduler state stays cache-hot.
//! * **elsewhere** — a fiber is an OS thread that hands one baton to
//!   and from the host, so exactly one of them runs at a time: same
//!   order, same results, microseconds per switch (a futex wake and a
//!   kernel context switch). The x86_64 test build compiles this
//!   backend too and runs the contract tests below against both.
//!
//! `prefetch(rank)` asks the cache for the lines `rank` touches first
//! when it is resumed (the scheduler issues it one rank's worth of work
//! ahead; see `PREFETCH_LINES`). It is empty on the thread backend,
//! whose switch is a kernel round trip.
//!
//! The contract is deliberately narrow:
//!
//! * every fiber of a set is started and resumed by one host thread
//!   (the caller of `World::run` or `try_run_actors`);
//! * a fiber suspends only at explicit scheduler points (blocked recv,
//!   collective rendezvous, cooperative yield) by switching to the
//!   host, and a body that returns has made its final switch — the
//!   host must not resume it again;
//! * panics never unwind across a switch: the rank body runs under
//!   `catch_unwind` *inside* the fiber and its outcome is a stored
//!   value; a body that unwinds anyway aborts the process.
//!
//! Stacks are [`Pages`] without guard pages, so each carries a canary
//! at the deep end that the launcher checks after the run. (The thread
//! backend runs on the OS thread's own guarded stack and takes only
//! the size from a [`FiberStack`].)

use crate::pages::Pages;

#[cfg(target_arch = "x86_64")]
pub(crate) use asm::FiberSet;
#[cfg(not(target_arch = "x86_64"))]
pub(crate) use threads::FiberSet;

/// Default fiber stack size. Generous for the benchmark closures (heap
/// buffers, shallow call depth) while staying lazily committed:
/// untouched pages cost no RSS. The depth actually used is a measured
/// number ([`FiberStack::high_water`]: 2.8 kB for b_eff, 8.4 kB for
/// b_eff_io, three times that in a debug build). Smaller stacks, and
/// one contiguous mapping of 16 or 64 KiB stacks, were tried against
/// this: no resolvable change in a 512-rank job — the TLB is not what a
/// handoff waits for — so the size and one mapping per stack stay.
pub const STACK_SIZE: usize = 1 << 20;

const CANARY: u64 = 0xBEEF_F1BE_57AC_CA4D;

/// One fiber stack with a deep-end canary.
pub struct FiberStack {
    mem: Pages,
}

impl FiberStack {
    pub fn new(size: usize) -> Self {
        let mut mem = Pages::zeroed(size);
        mem[..8].copy_from_slice(&CANARY.to_ne_bytes());
        Self { mem }
    }

    /// `n` stacks of the default [`STACK_SIZE`]: one world's worth.
    pub fn set(n: usize) -> Vec<Self> {
        (0..n).map(|_| Self::new(STACK_SIZE)).collect()
    }

    /// Did the fiber ever scribble over the deep end? (No guard pages,
    /// so this is the overflow tripwire.)
    pub fn canary_intact(&self) -> bool {
        // SAFETY: reads the canary word written by `new` at the base of
        // the live region (aligned to 64 at least); fibers never
        // legally reach this deep.
        unsafe { (self.mem.base() as *const u64).read() == CANARY }
    }

    /// Deepest the fiber ever got: bytes from the top of the stack down
    /// to the deepest non-zero word, the canary excluded. Call it with
    /// the fiber suspended or finished. (A stack starts zeroed and
    /// frames are not cleared on return, so this is a high-water mark
    /// up to frames that only ever stored zeros at their deep end.)
    pub fn high_water(&self) -> usize {
        let words = self.mem.chunks_exact(8);
        let deepest = words.skip(1).position(|w| w != [0; 8]);
        deepest.map_or(0, |i| self.mem.size() - 8 * (i + 1))
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
        pub fn new(n: usize) -> Self {
            Self {
                host_sp: UnsafeCell::new(std::ptr::null_mut()),
                sps: (0..n).map(|_| UnsafeCell::new(std::ptr::null_mut())).collect(),
            }
        }

        /// Prepare `stack` so the first [`resume`](Self::resume) of
        /// `rank` enters `body`; when `body` returns the fiber makes
        /// its final switch to the host.
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
            let entry = move || {
                body();
                // SAFETY: runs on rank's own fiber, as its last action.
                unsafe { self.to_host(rank) };
            };
            // SAFETY: the caller keeps `stack` and `entry`'s borrows
            // alive for as long as it resumes this fiber.
            let sp = unsafe { init_fiber(stack, Box::new(entry)) };
            // SAFETY: start happens on the driving thread before any
            // resume of `rank`; no other reference to the cell exists.
            unsafe { *self.sps[rank].get() = sp };
        }

        /// Host → fiber. Returns when the fiber switches back.
        ///
        /// # Safety
        /// `rank` must hold a started fiber whose body has not
        /// returned, and the caller must be the driving host thread.
        pub unsafe fn resume(&self, rank: usize) {
            // SAFETY: caller contract (driving host thread, started
            // fiber); the cells are written only by this thread.
            unsafe { fiber_switch(self.host_sp.get(), self.sps[rank].get()) };
        }

        /// Fiber → host. Returns when the host resumes this fiber.
        ///
        /// # Safety
        /// Must be called from the fiber started at `rank`.
        pub unsafe fn to_host(&self, rank: usize) {
            // SAFETY: caller contract (called from the fiber started at
            // `rank`); the host slot was saved by the matching resume.
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
    /// 16 lines = 1 KiB above the saved stack pointer, which covers the
    /// save area and the frames between a blocked `recv` and the
    /// benchmark loop. A 512-rank world's working set is past the L2
    /// and swept in FIFO token order, LRU's worst case, so without the
    /// hint every resume starts with a chain of misses. What is
    /// measured is 0 against 16 lines (512-rank b_eff job ≈ 2.3 → 1.8 s,
    /// outside the run-to-run spread of ≈ 0.4 s). The depth itself
    /// is not resolved: single readings at 8 / 16 / 24 lines (2.16 /
    /// 1.76 / 1.87 s) differ by less than that spread, as did hinting
    /// the rank's `RankState` and mailbox as well (16 more lines).
    const PREFETCH_LINES: usize = 16;

    /// Write the initial save area onto `stack` so that switching to
    /// the returned stack pointer enters `body`. The closure is boxed
    /// twice so a single (thin) pointer smuggles it through the
    /// register file.
    ///
    /// # Safety
    /// The caller must keep `stack` alive while the fiber can still be
    /// switched to, and `body`'s borrows alive until it has returned or
    /// the fiber is abandoned.
    unsafe fn init_fiber(stack: &FiberStack, body: Box<dyn FnOnce() + '_>) -> *mut u8 {
        // SAFETY: lifetime erasure only — the fiber is not resumed
        // after the borrowed data dies (see # Safety above), and the
        // box layout is lifetime-free.
        let body: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(body) };
        let closure = Box::into_raw(Box::new(body)) as u64;

        // SAFETY: one-past-the-end of the owned allocation, which is
        // explicitly allowed for pointer arithmetic (stacks grow down).
        let top = unsafe { stack.mem.base().add(stack.mem.size()) };
        // SAFETY: all writes land inside `stack`'s allocation (72 bytes
        // below its top, far above the canary), and the save-area
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
        let body = unsafe { Box::from_raw(closure as *mut Box<dyn FnOnce()>) };
        body();
        // The body's last action was its final switch to the host;
        // getting here means the host resumed a finished fiber, and
        // there is no frame below this one to return into.
        std::process::abort();
    }
}

/// The portable backend: each fiber is an OS thread, and a switch is a
/// baton hand-off between that thread and the host.
#[cfg(any(test, not(target_arch = "x86_64")))]
mod threads {
    use super::FiberStack;
    use beff_sync::{Condvar, Mutex, Rank};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// Lock-hierarchy position (DESIGN.md §8): a baton is taken with at
    /// most the scheduler state (40) already released, never under it.
    static FIBER_BATON_RANK: Rank = Rank::new(50, "fiber.baton");

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Turn {
        Host,
        Fiber,
        /// The body returned; the thread is exiting and joinable.
        Done,
    }

    struct Baton {
        turn: Mutex<Turn>,
        cv: Condvar,
    }

    impl Baton {
        /// Hand the baton to `to` and sleep until it comes back (or,
        /// for the host, until the fiber is done).
        fn pass(&self, to: Turn) {
            let mut turn = self.turn.lock();
            assert_ne!(*turn, Turn::Done, "switch to or from a finished fiber");
            *turn = to;
            self.cv.notify_one();
            while *turn == to {
                self.cv.wait(&mut turn);
            }
        }

        fn finish(&self) {
            *self.turn.lock() = Turn::Done;
            self.cv.notify_one();
        }
    }

    struct Fiber {
        baton: Arc<Baton>,
        thread: Mutex<Option<JoinHandle<()>>>,
    }

    pub struct FiberSet {
        fibers: Vec<Fiber>,
    }

    impl FiberSet {
        pub fn new(n: usize) -> Self {
            let fiber = |_| Fiber {
                baton: Arc::new(Baton {
                    turn: Mutex::ranked(&FIBER_BATON_RANK, Turn::Host),
                    cv: Condvar::new(),
                }),
                thread: Mutex::new(None),
            };
            Self { fibers: (0..n).map(fiber).collect() }
        }

        /// Spawn `rank`'s thread, parked until the first
        /// [`resume`](Self::resume); when `body` returns the baton goes
        /// back to the host for good. The thread takes `stack`'s size,
        /// not its memory.
        ///
        /// # Safety
        /// The caller must not resume the fiber once anything `body`
        /// borrows is gone (a fiber that is never resumed again stays
        /// parked and touches nothing).
        pub unsafe fn start<'a>(
            &'a self,
            rank: usize,
            stack: &'a FiberStack,
            body: impl FnOnce() + Send + 'a,
        ) {
            let body: Box<dyn FnOnce() + Send + 'a> = Box::new(body);
            // SAFETY: lifetime erasure only — the thread runs `body`
            // only while the host is inside `resume`, which the caller
            // stops calling before the borrowed data dies.
            let body: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(body) };
            let baton = Arc::clone(&self.fibers[rank].baton);
            let thread = std::thread::Builder::new()
                .name(format!("beff-fiber-{rank}"))
                .stack_size(stack.mem.size())
                .spawn(move || {
                    {
                        let mut turn = baton.turn.lock();
                        while *turn != Turn::Fiber {
                            baton.cv.wait(&mut turn);
                        }
                    }
                    // The host is asleep in `resume` and cannot catch
                    // this thread's unwind; match the asm backend,
                    // where unwinding into the entry frame aborts.
                    if catch_unwind(AssertUnwindSafe(body)).is_err() {
                        std::process::abort();
                    }
                    baton.finish();
                })
                .expect("spawn fiber thread");
            *self.fibers[rank].thread.lock() = Some(thread);
        }

        /// Host → fiber. Returns when the fiber hands the baton back.
        ///
        /// # Safety
        /// None beyond `start`'s; `unsafe` to share one interface with
        /// the asm backend.
        pub unsafe fn resume(&self, rank: usize) {
            self.fibers[rank].baton.pass(Turn::Fiber);
        }

        /// Fiber → host. Returns when the host resumes this fiber.
        ///
        /// # Safety
        /// As [`resume`](Self::resume).
        pub unsafe fn to_host(&self, rank: usize) {
            self.fibers[rank].baton.pass(Turn::Host);
        }

        /// Nothing to do: a switch here is a futex wake and a kernel
        /// context switch, and the stack is another thread's.
        #[inline]
        pub fn prefetch(&self, _rank: usize) {}
    }

    impl Drop for FiberSet {
        fn drop(&mut self) {
            for f in &self.fibers {
                // A fiber abandoned mid-body stays parked forever;
                // only finished ones can be joined.
                if *f.baton.turn.lock() == Turn::Done {
                    if let Some(t) = f.thread.lock().take() {
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

    /// The fiber contract, instantiated once per backend.
    macro_rules! contract_tests {
        ($backend:ident) => {
            mod $backend {
                use super::*;
                use crate::fiber::$backend::FiberSet;

                /// Minimal two-way handoff: host → fiber → host → fiber
                /// → done.
                #[test]
                fn fiber_switches_roundtrip() {
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
                    assert!(stack.canary_intact());
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

                /// A scripted drive loop: FIFO ready queue, fibers 0
                /// and 1 block, 2 unblocks them (1 first) and yields,
                /// 3 runs straight through, 1 panics under its own
                /// `catch_unwind` after resuming.
                pub fn replay() -> Log {
                    let n = 4;
                    let stacks = FiberStack::set(n);
                    let set = FiberSet::new(n);
                    let ready = Mutex::new((0..n).collect::<VecDeque<usize>>());
                    let log = Mutex::new(Log::new());
                    for (r, stack) in stacks.iter().enumerate() {
                        let (set, ready, log) = (&set, &ready, &log);
                        let say = move |what| log.lock().push((what, r));
                        let body = move || {
                            say("start");
                            match r {
                                0 | 1 => unsafe { set.to_host(r) },
                                2 => {
                                    ready.lock().extend([1, 0, 2]);
                                    unsafe { set.to_host(r) };
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
                    assert!(stacks.iter().all(|s| s.canary_intact()));
                    log.into_inner()
                }

                #[test]
                fn scripted_drive_loop_logs_the_fixed_sequence() {
                    let want: Log = vec![
                        ("run", 0),
                        ("start", 0),
                        ("run", 1),
                        ("start", 1),
                        ("run", 2),
                        ("start", 2),
                        ("run", 3),
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
            }
        };
    }

    #[cfg(target_arch = "x86_64")]
    contract_tests!(asm);
    contract_tests!(threads);

    /// Both backends replay the same token order.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn both_backends_log_the_identical_sequence() {
        assert_eq!(asm::replay(), threads::replay());
    }

    /// The high-water mark follows the deepest frame and ignores the
    /// canary; prefetching a suspended fiber — even one 72 bytes below
    /// the top of its stack — is a pure hint.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn high_water_tracks_the_deepest_frame() {
        #[inline(never)]
        fn dig(depth: usize) -> u64 {
            let frame = std::hint::black_box([depth as u64 | 1; 64]);
            if depth == 0 { frame[0] } else { frame[1] + dig(depth - 1) }
        }
        let stack = FiberStack::new(STACK_SIZE);
        assert_eq!(stack.high_water(), 0, "the canary is not depth");
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
        assert!(stack.canary_intact());
    }

    /// Float state survives a switch (the benchmarks are f64-heavy).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn float_state_survives_switches() {
        let stack = FiberStack::new(STACK_SIZE);
        let set = crate::fiber::asm::FiberSet::new(1);
        let out = Mutex::new(0.0f64);
        let body = || {
            let mut acc = 1.0f64;
            for i in 1..=10 {
                acc = acc * 1.5 + i as f64;
                unsafe { set.to_host(0) };
            }
            *out.lock() = acc;
        };
        unsafe { set.start(0, &stack, body) };
        let mut host_acc = 1.0f64;
        for i in 1..=10 {
            unsafe { set.resume(0) };
            host_acc = host_acc * 1.5 + i as f64;
        }
        unsafe { set.resume(0) };
        assert_eq!(out.lock().to_bits(), host_acc.to_bits());
        assert!(stack.canary_intact());
    }
}
