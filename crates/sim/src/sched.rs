//! Deterministic round-robin token scheduler for simulated worlds.
//!
//! Sim mode prices time with virtual clocks, so nothing is gained by
//! letting rank threads run concurrently — and plenty is lost: link
//! reservations ([`LinkLedger`](crate::link::LinkLedger)) would follow
//! host thread scheduling, making runs causally consistent but not
//! bit-identical, and every blocked receiver would have to sleep on its
//! port's condvar and be woken through the kernel.
//!
//! Instead, exactly one rank runs at a time. The token moves only at
//! explicit points:
//!
//! * a rank blocks in `recv` or a collective rendezvous with nothing
//!   to do ([`SimScheduler::yield_blocked`]),
//! * a rank's closure finishes ([`SimScheduler::finish`]),
//! * a sender's push completes a blocked receiver's posted match, which
//!   re-queues (not immediately runs) the receiver
//!   ([`SimScheduler::unblock`]).
//!
//! Execution order is therefore a pure function of the program, so two
//! runs with the same seeds produce bit-identical results, and the
//! only wakeups ever issued are targeted grants to the single next
//! runner — no thundering herd.
//!
//! Two interchangeable switch mechanisms drive that token order:
//!
//! * **fibers** (x86_64): every rank is a user-space fiber and the
//!   world runs on the caller's thread; a handoff is a ~20-instruction
//!   stack switch (see [`crate::fiber`]). This is the fast path — OS
//!   thread handoffs measure ~4–5 µs each on one core at 512 ranks,
//!   and a large run makes millions of them.
//! * **parked threads** (any platform): one OS thread per rank, each
//!   parked on a private condvar until granted. Real-mode worlds and
//!   non-x86_64 builds use this.
//!
//! Both replay the same FIFO ready-queue order, so they produce
//! bit-identical results; tests assert that equivalence.
//!
//! Deadlock (every live rank blocked) is detected at token-handoff
//! time and turns into a panic on every live rank rather than a hang.

#[cfg(target_arch = "x86_64")]
use crate::fiber::FiberSet;
use crate::error::BeffError;
use beff_sync::{Condvar, Mutex, Rank};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Lock-hierarchy positions (DESIGN.md §8): the scheduler state is
/// taken before any per-rank parker flag (`grant_next` holds `inner`
/// while granting), never the other way around.
static SCHED_STATE_RANK: Rank = Rank::new(40, "sched.state");
static SCHED_PARKER_RANK: Rank = Rank::new(50, "sched.parker");

struct Parker {
    granted: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    fn new() -> Self {
        Self { granted: Mutex::ranked(&SCHED_PARKER_RANK, false), cv: Condvar::new() }
    }

    /// Returns `true` when this call actually set the flag (a newly
    /// issued token grant) — `false` when a grant was already pending,
    /// so the accounting counts each outstanding token exactly once.
    fn grant(&self) -> bool {
        let mut g = self.granted.lock();
        let newly = !*g;
        *g = true;
        self.cv.notify_one();
        newly
    }

    fn park(&self) {
        let mut g = self.granted.lock();
        while !*g {
            self.cv.wait(&mut g);
        }
        *g = false;
    }

    /// Consume a pending, never-to-be-parked-for grant (a rank that is
    /// unwinding will not park again). Returns `true` if a grant was
    /// pending.
    fn drain(&self) -> bool {
        let mut g = self.granted.lock();
        std::mem::take(&mut *g)
    }
}

struct SchedState {
    /// Ranks runnable but not holding the token, in handoff order.
    ready: VecDeque<usize>,
    blocked: Vec<bool>,
    finished: Vec<bool>,
    /// Ranks whose closure has not finished.
    live: usize,
    /// A rank panicked: determinism is moot, wake everyone so they
    /// observe mailbox poison.
    aborted: bool,
    /// Coordinated mode (the sharded engine): an empty ready queue with
    /// live ranks is *quiescence*, reported to an external coordinator
    /// via [`SimScheduler::wait_idle`], not a deadlock — only the
    /// coordinator sees every shard and can tell the two apart.
    coordinated: bool,
    /// Coordinated mode: set when the token ran out of ready ranks;
    /// cleared by [`SimScheduler::kick`] after a cross-shard flush.
    idle: bool,
}

/// How suspended ranks are represented and resumed.
enum Mech {
    /// One parked OS thread per rank.
    Park(Vec<Parker>),
    /// One fiber per rank, driven by [`SimScheduler::drive_fibers`] on
    /// the host thread.
    #[cfg(target_arch = "x86_64")]
    Fiber(FiberSet),
}

/// One token scheduler per simulated world run.
pub struct SimScheduler {
    inner: Mutex<SchedState>,
    mech: Mech,
    /// Every live rank is blocked: wake them all into a panic. Written
    /// only under `inner`; an atomic so that a rank resuming from a
    /// yield can check it without taking `inner` again. The `Release`
    /// store pairs with the `Acquire` load of the resumed rank (which
    /// the token handoff already orders after the store).
    deadlocked: AtomicBool,
    /// Coordinated mode: signaled when the shard quiesces (idle set,
    /// last rank finished, abort or deadlock) so the coordinator's
    /// [`wait_idle`](Self::wait_idle) can wake.
    idle_cv: Condvar,
    /// Token accounting: every grant issued must eventually be consumed
    /// (by a park that wakes, or drained from a rank that will never
    /// park again). `granted == consumed` after the world joins is the
    /// no-token-leak invariant the property tests pin on every exit
    /// path — normal completion, injected crash, abort.
    granted: AtomicU64,
    consumed: AtomicU64,
}

/// Snapshot of the scheduler's terminal accounting state (tests,
/// diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedAudit {
    pub granted: u64,
    pub consumed: u64,
    pub live: usize,
    pub ready: usize,
    pub blocked: usize,
    pub finished: usize,
    pub deadlocked: bool,
    pub aborted: bool,
}

impl SchedAudit {
    /// No outstanding token and no runnable leftovers.
    pub fn balanced(&self) -> bool {
        self.granted == self.consumed
    }
}

fn new_state(n: usize) -> SchedState {
    SchedState {
        ready: (1..n).collect(),
        blocked: vec![false; n],
        finished: vec![false; n],
        live: n,
        aborted: false,
        coordinated: false,
        idle: false,
    }
}

impl SimScheduler {
    /// Thread-parking scheduler: `n` ranks, rank 0 holds the token
    /// first, then strict FIFO order among runnable ranks.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        let sched = Self {
            inner: Mutex::ranked(&SCHED_STATE_RANK, new_state(n)),
            mech: Mech::Park((0..n).map(|_| Parker::new()).collect()),
            deadlocked: AtomicBool::new(false),
            idle_cv: Condvar::new(),
            granted: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
        };
        let Mech::Park(parkers) = &sched.mech else { unreachable!() };
        sched.count_grant(parkers[0].grant());
        sched
    }

    /// Thread-parking scheduler in *coordinated* mode: quiescence (all
    /// live ranks blocked) parks the shard and signals
    /// [`wait_idle`](Self::wait_idle) instead of declaring deadlock —
    /// the sharded engine's coordinator flushes cross-shard messages
    /// and either [`kick`](Self::kick)s the shard or, when every shard
    /// is quiet with nothing in flight, calls
    /// [`declare_deadlock`](Self::declare_deadlock).
    pub fn new_coordinated(n: usize) -> Self {
        let sched = Self::new(n);
        sched.inner.lock().coordinated = true;
        sched
    }

    /// Fiber scheduler: same token order, driven by
    /// [`drive_fibers`](Self::drive_fibers) after the runtime installs
    /// one initialized fiber per rank.
    #[cfg(target_arch = "x86_64")]
    pub fn new_fibers(n: usize) -> Self {
        assert!(n > 0);
        let mut st = new_state(n);
        // No out-of-band grant here: rank 0 starts from the ready
        // queue like everyone else, resumed by the drive loop.
        st.ready.push_front(0);
        Self {
            inner: Mutex::ranked(&SCHED_STATE_RANK, st),
            mech: Mech::Fiber(FiberSet::new(n)),
            deadlocked: AtomicBool::new(false),
            idle_cv: Condvar::new(),
            granted: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
        }
    }

    /// Fiber scheduler in coordinated mode: the shard's worker drives
    /// it with [`drive_idle`](Self::drive_idle), which returns at
    /// quiescence instead of flipping to the deadlock protocol.
    #[cfg(target_arch = "x86_64")]
    pub fn new_coordinated_fibers(n: usize) -> Self {
        let sched = Self::new_fibers(n);
        sched.inner.lock().coordinated = true;
        sched
    }

    /// The fiber set to install stacks into (fiber mode only).
    #[cfg(target_arch = "x86_64")]
    pub fn fibers(&self) -> &FiberSet {
        let Mech::Fiber(fs) = &self.mech else {
            panic!("fibers() on a thread-parking scheduler")
        };
        fs
    }

    /// Hand the token to the next ready rank; if none exists but live
    /// ranks remain, the world is deadlocked — wake everyone into the
    /// panic path. (Thread mode only; the fiber drive loop plays this
    /// role in fiber mode.)
    fn grant_next(&self, st: &mut SchedState, parkers: &[Parker]) {
        if st.aborted || self.is_deadlocked() {
            return; // everyone has already been woken
        }
        if let Some(next) = st.ready.pop_front() {
            self.count_grant(parkers[next].grant());
        } else if st.live > 0 {
            if st.coordinated {
                // Quiescence, not deadlock: every live rank is blocked
                // on something only another shard can deliver. Park the
                // shard and hand the verdict to the coordinator.
                st.idle = true;
                self.idle_cv.notify_all();
                return;
            }
            self.set_deadlocked();
            for (r, p) in parkers.iter().enumerate() {
                if !st.finished[r] {
                    self.count_grant(p.grant());
                }
            }
        }
    }

    #[inline]
    fn is_deadlocked(&self) -> bool {
        self.deadlocked.load(Ordering::Acquire)
    }

    /// Flip to the deadlock protocol (caller holds `inner`).
    fn set_deadlocked(&self) {
        self.deadlocked.store(true, Ordering::Release);
    }

    /// Raise the typed deadlock fault if the world deadlocked while
    /// this rank was suspended.
    #[inline]
    fn check_deadlock(&self) {
        if self.is_deadlocked() {
            BeffError::Deadlock.raise();
        }
    }

    #[inline]
    fn count_grant(&self, newly: bool) {
        if newly {
            self.granted.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    fn count_consume(&self) {
        self.consumed.fetch_add(1, Ordering::Relaxed);
    }

    /// Block until this rank holds the token (no-op in fiber mode: a
    /// fiber only runs while it holds the token). Panics if the world
    /// deadlocked while this rank was parked.
    pub fn wait_turn(&self, rank: usize) {
        match &self.mech {
            Mech::Park(parkers) => {
                parkers[rank].park();
                self.count_consume();
            }
            #[cfg(target_arch = "x86_64")]
            Mech::Fiber(_) => {}
        }
        self.check_deadlock();
    }

    /// The token holder blocks (recv miss or collective wait): release
    /// the token and suspend until a peer re-queues us (or the world
    /// dies).
    pub fn yield_blocked(&self, rank: usize) {
        match &self.mech {
            Mech::Park(parkers) => {
                {
                    let mut st = self.inner.lock();
                    st.blocked[rank] = true;
                    self.grant_next(&mut st, parkers);
                }
                self.wait_turn(rank);
            }
            #[cfg(target_arch = "x86_64")]
            Mech::Fiber(fs) => {
                self.inner.lock().blocked[rank] = true;
                // SAFETY: called from rank's own fiber (scheduler
                // contract); the drive loop resumes us later.
                unsafe { fs.to_host(rank) };
                self.check_deadlock();
            }
        }
    }

    /// A push just completed `rank`'s posted receive: make it runnable
    /// again. Called by the token holder; the receiver runs when the
    /// token reaches it, preserving deterministic order.
    pub fn unblock(&self, rank: usize) {
        let mut st = self.inner.lock();
        if st.blocked[rank] {
            st.blocked[rank] = false;
            st.ready.push_back(rank);
        }
    }

    /// Cooperative rotation for actor workloads: the token holder
    /// re-queues itself behind every currently ready rank and hands
    /// the token on. No-op when nobody else is ready — the holder
    /// keeps the token rather than parking for a grant no peer will
    /// ever issue. Unlike [`yield_blocked`](Self::yield_blocked) the
    /// rank stays runnable, so this can never deadlock the world.
    pub fn yield_turn(&self, rank: usize) {
        match &self.mech {
            Mech::Park(parkers) => {
                {
                    let mut st = self.inner.lock();
                    if st.ready.is_empty() || st.aborted || self.is_deadlocked() {
                        return;
                    }
                    st.ready.push_back(rank);
                    self.grant_next(&mut st, parkers);
                }
                self.wait_turn(rank);
            }
            #[cfg(target_arch = "x86_64")]
            Mech::Fiber(fs) => {
                {
                    let mut st = self.inner.lock();
                    if st.ready.is_empty() || st.aborted || self.is_deadlocked() {
                        return;
                    }
                    st.ready.push_back(rank);
                }
                // SAFETY: called from rank's own fiber (scheduler
                // contract); the drive loop resumes us from the ready
                // queue we just joined.
                unsafe { fs.to_host(rank) };
                self.check_deadlock();
            }
        }
    }

    /// The token holder's closure returned: record it and (thread mode)
    /// hand the token on. Fiber mode suspends later, via
    /// [`fiber_exit`](Self::fiber_exit), after the rank's result is
    /// stored.
    pub fn finish(&self, rank: usize) {
        let mut st = self.inner.lock();
        debug_assert!(!st.finished[rank]);
        st.finished[rank] = true;
        st.live -= 1;
        match &self.mech {
            Mech::Park(parkers) => {
                if st.live > 0 {
                    self.grant_next(&mut st, parkers);
                } else if st.coordinated {
                    // The shard is done; a coordinator parked in
                    // wait_idle must observe live == 0.
                    self.idle_cv.notify_all();
                }
            }
            #[cfg(target_arch = "x86_64")]
            Mech::Fiber(_) => {}
        }
    }

    /// A rank panicked: wake every unfinished rank so it can observe
    /// mailbox poison and unwind (determinism no longer matters). In
    /// fiber mode the drive loop performs the waking.
    pub fn abort(&self) {
        let mut st = self.inner.lock();
        if st.aborted {
            return;
        }
        st.aborted = true;
        // A coordinator parked in wait_idle must wake and shut the
        // world down (coordinated mode; harmless otherwise).
        self.idle_cv.notify_all();
        if self.is_deadlocked() {
            // The deadlock detector already granted every unfinished
            // rank exactly once; granting again would hand unwinding
            // ranks tokens nobody will ever consume.
            return;
        }
        if let Mech::Park(parkers) = &self.mech {
            for (r, p) in parkers.iter().enumerate() {
                if !st.finished[r] {
                    self.count_grant(p.grant());
                }
            }
        }
    }

    /// Consume any grant still pending for a rank that is unwinding and
    /// will never park again (the `run_rank` panic path calls this
    /// after [`abort`](Self::abort), which granted the panicking rank
    /// its own wakeup token).
    pub fn drain_grant(&self, rank: usize) {
        if let Mech::Park(parkers) = &self.mech {
            if parkers[rank].drain() {
                self.count_consume();
            }
        }
    }

    // ----- coordinated mode (the sharded engine's shard-side API) -------

    /// Block the coordinator until this shard has quiesced: the token
    /// ran out of ready ranks (`idle`), every rank finished, or the
    /// world aborted/deadlocked. Thread-parking coordinated mode only —
    /// fiber shards quiesce by returning from
    /// [`drive_idle`](Self::drive_idle).
    pub fn wait_idle(&self) {
        let mut st = self.inner.lock();
        debug_assert!(st.coordinated, "wait_idle needs a coordinated scheduler");
        while !(st.idle || st.live == 0 || st.aborted || self.is_deadlocked()) {
            self.idle_cv.wait(&mut st);
        }
    }

    /// Restart an idle shard after a cross-shard flush re-queued some
    /// of its ranks. If the flush delivered nothing here, the shard
    /// goes straight back to idle (the grant path re-parks it).
    pub fn kick(&self) {
        let mut st = self.inner.lock();
        if !st.idle || st.aborted || self.is_deadlocked() {
            return;
        }
        st.idle = false;
        match &self.mech {
            Mech::Park(parkers) => self.grant_next(&mut st, parkers),
            // Fiber shards are restarted by the worker re-entering
            // drive_idle; clearing the flag is all there is to do.
            #[cfg(target_arch = "x86_64")]
            Mech::Fiber(_) => {}
        }
    }

    /// The coordinator observed *global* quiescence with live ranks and
    /// nothing left to flush: the world is deadlocked. Wake every
    /// unfinished rank into the panic path (thread mode; fiber shards
    /// resume them on the next [`drive_idle`](Self::drive_idle) pass).
    pub fn declare_deadlock(&self) {
        let st = self.inner.lock();
        if st.aborted || self.is_deadlocked() || st.live == 0 {
            return;
        }
        self.set_deadlocked();
        if let Mech::Park(parkers) = &self.mech {
            for (r, p) in parkers.iter().enumerate() {
                if !st.finished[r] {
                    self.count_grant(p.grant());
                }
            }
        }
    }

    /// Did a flush make any of this shard's ranks runnable again?
    pub fn has_ready(&self) -> bool {
        !self.inner.lock().ready.is_empty()
    }

    /// Ranks whose closure has not finished.
    pub fn live_count(&self) -> usize {
        self.inner.lock().live
    }

    /// Coordinated fiber drive loop: run ready fibers until the shard
    /// quiesces (ready empty with live ranks — return and let the
    /// coordinator flush), every rank finishes, or abort/deadlock
    /// unwinds every unfinished fiber. The caller loops
    /// `drive_idle → barrier → flush → barrier` until the world ends.
    #[cfg(target_arch = "x86_64")]
    pub fn drive_idle(&self) {
        let Mech::Fiber(fs) = &self.mech else {
            panic!("drive_idle on a thread-parking scheduler")
        };
        loop {
            let next = {
                let mut st = self.inner.lock();
                debug_assert!(st.coordinated, "drive_idle needs a coordinated scheduler");
                if st.live == 0 {
                    return;
                }
                if st.aborted || self.is_deadlocked() {
                    st.finished.iter().position(|&f| !f)
                } else if let Some(r) = st.ready.pop_front() {
                    Some(r)
                } else {
                    // Quiescent: every live rank blocked on another
                    // shard. The coordinator decides what happens next.
                    st.idle = true;
                    return;
                }
            };
            let Some(r) = next else { return };
            // A fiber resume is a grant consumed synchronously (same
            // accounting as drive_fibers).
            self.count_grant(true);
            self.count_consume();
            // SAFETY: r is unfinished and was initialized by the
            // runtime before driving started.
            unsafe { fs.resume(r) };
        }
    }

    /// Terminal accounting snapshot. Meaningful after the world has
    /// joined; mid-run it is merely a consistent-at-some-instant view.
    pub fn audit(&self) -> SchedAudit {
        let st = self.inner.lock();
        SchedAudit {
            granted: self.granted.load(Ordering::Relaxed),
            consumed: self.consumed.load(Ordering::Relaxed),
            live: st.live,
            ready: st.ready.len(),
            blocked: st.blocked.iter().filter(|&&b| b).count(),
            finished: st.finished.iter().filter(|&&f| f).count(),
            deadlocked: self.is_deadlocked(),
            aborted: st.aborted,
        }
    }

    /// Final switch out of a rank's fiber, after its result (Ok or
    /// panic payload) is stored. Marks the rank finished if the panic
    /// path skipped [`finish`](Self::finish). Never returns control to
    /// the fiber: the drive loop drops finished ranks.
    #[cfg(target_arch = "x86_64")]
    pub fn fiber_exit(&self, rank: usize) {
        let Mech::Fiber(fs) = &self.mech else {
            panic!("fiber_exit on a thread-parking scheduler")
        };
        {
            let mut st = self.inner.lock();
            if !st.finished[rank] {
                st.finished[rank] = true;
                st.live -= 1;
            }
        }
        // SAFETY: called from rank's own fiber as its last action.
        unsafe { fs.to_host(rank) };
        // The drive loop never resumes a finished fiber; if it did, the
        // fiber's dead stack must not be re-entered.
        std::process::abort();
    }

    /// Run every fiber to completion on the calling thread, replaying
    /// the same FIFO token order as the thread-parking mechanism:
    /// rank 0 first, then the ready queue; on deadlock or abort, every
    /// unfinished fiber is resumed (in rank order) so it can unwind.
    #[cfg(target_arch = "x86_64")]
    pub fn drive_fibers(&self) {
        let Mech::Fiber(fs) = &self.mech else {
            panic!("drive_fibers on a thread-parking scheduler")
        };
        loop {
            let next = {
                let mut st = self.inner.lock();
                if st.live == 0 {
                    return;
                }
                if st.aborted || self.is_deadlocked() {
                    st.finished.iter().position(|&f| !f)
                } else if let Some(r) = st.ready.pop_front() {
                    Some(r)
                } else {
                    // Every live rank is blocked: flip to the deadlock
                    // protocol and resume them into the panic path.
                    self.set_deadlocked();
                    st.finished.iter().position(|&f| !f)
                }
            };
            let Some(r) = next else { return };
            // A fiber resume is a grant consumed synchronously: the
            // fiber runs now, on this thread, or never.
            self.count_grant(true);
            self.count_consume();
            // SAFETY: r is unfinished and was initialized by the
            // runtime before driving started.
            unsafe { fs.resume(r) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_rank_runs_immediately() {
        let s = SimScheduler::new(1);
        s.wait_turn(0);
        s.finish(0);
    }

    #[test]
    fn token_order_is_round_robin() {
        // Each rank appends its id on its turn, yields nothing (no
        // blocking), so finish() order must be 0, 1, 2, 3.
        let s = Arc::new(SimScheduler::new(4));
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for rank in 0..4 {
                let s = Arc::clone(&s);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    s.wait_turn(rank);
                    order.lock().push(rank);
                    s.finish(rank);
                });
            }
        });
        assert_eq!(&*order.lock(), &[0, 1, 2, 3]);
    }

    #[test]
    fn unblock_requeues_in_fifo_order() {
        // Rank 0 blocks; rank 1 unblocks it then finishes; rank 0 must
        // run again afterwards.
        let s = Arc::new(SimScheduler::new(2));
        let hits = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            {
                let s = Arc::clone(&s);
                let hits = Arc::clone(&hits);
                scope.spawn(move || {
                    s.wait_turn(0);
                    s.yield_blocked(0); // parks until rank 1 unblocks us
                    hits.fetch_add(1, Ordering::Relaxed);
                    s.finish(0);
                });
            }
            {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    s.wait_turn(1);
                    s.unblock(0);
                    s.finish(1);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn all_blocked_is_detected_as_deadlock() {
        let s = Arc::new(SimScheduler::new(2));
        let panics = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for rank in 0..2 {
                let s = Arc::clone(&s);
                let panics = Arc::clone(&panics);
                scope.spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        s.wait_turn(rank);
                        s.yield_blocked(rank); // nobody will ever unblock us
                    }));
                    if r.is_err() {
                        panics.fetch_add(1, Ordering::Relaxed);
                    }
                    s.finish(rank);
                });
            }
        });
        assert_eq!(panics.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn abort_wakes_parked_ranks() {
        let s = Arc::new(SimScheduler::new(2));
        std::thread::scope(|scope| {
            {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    s.wait_turn(0);
                    s.yield_blocked(0); // returns (not via deadlock panic) on abort
                    s.finish(0);
                });
            }
            {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    s.wait_turn(1);
                    s.abort();
                    s.finish(1);
                });
            }
        });
    }

    /// The fiber mechanism replays the identical token order: ranks
    /// 0..n-1 block, the last rank unblocks them all, and they resume
    /// in FIFO order.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fiber_drive_replays_fifo_token_order() {
        use crate::fiber::{init_fiber, FiberStack, STACK_SIZE};
        let n = 3;
        let s = SimScheduler::new_fibers(n);
        let log = std::cell::RefCell::new(Vec::new());
        let stacks: Vec<FiberStack> = (0..n).map(|_| FiberStack::new(STACK_SIZE)).collect();
        for (rank, stack) in stacks.iter().enumerate() {
            let s = &s;
            let log = &log;
            let sp = unsafe {
                init_fiber(
                    stack,
                    Box::new(move || {
                        s.wait_turn(rank);
                        log.borrow_mut().push(("start", rank));
                        if rank == n - 1 {
                            for peer in 0..n - 1 {
                                s.unblock(peer); // all already blocked
                            }
                        } else {
                            s.yield_blocked(rank);
                            log.borrow_mut().push(("resume", rank));
                        }
                        s.finish(rank);
                        s.fiber_exit(rank);
                    }),
                )
            };
            s.fibers().install(rank, sp);
        }
        s.drive_fibers();
        assert_eq!(
            log.borrow().as_slice(),
            &[
                ("start", 0),
                ("start", 1),
                ("start", 2),
                ("resume", 0),
                ("resume", 1),
            ]
        );
        for st in &stacks {
            assert!(st.canary_intact());
        }
    }
}
