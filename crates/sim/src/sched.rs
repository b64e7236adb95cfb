//! Deterministic round-robin token scheduler for simulated worlds.
//!
//! Sim mode prices time with virtual clocks, so nothing is gained by
//! letting ranks run concurrently — and plenty is lost: link
//! reservations ([`LinkLedger`](crate::link::LinkLedger)) would follow
//! host thread scheduling, making runs causally consistent but not
//! bit-identical, and every blocked receiver would have to sleep on its
//! port's condvar and be woken through the kernel.
//!
//! Instead, exactly one rank runs at a time, under one protocol: every
//! rank is a fiber ([`crate::fiber`]), the token goes to the rank at the
//! head of a FIFO ready queue, and a rank gives it up by switching
//! straight into that rank. The token moves only at explicit points:
//!
//! * a rank blocks in `recv` or a collective rendezvous with nothing
//!   to do ([`SimScheduler::yield_blocked`]),
//! * a rank rotates cooperatively ([`SimScheduler::yield_turn`]),
//! * a rank's body returns (its fiber's final switch),
//! * a sender's push completes a blocked receiver's posted match, which
//!   re-queues (not immediately runs) the receiver
//!   ([`SimScheduler::unblock`]; the last arriver of a rendezvous
//!   re-queues all its peers at once, [`SimScheduler::unblock_all`]),
//! * a rank re-queues a given order, itself among it, and hands the
//!   token to a named blocked rank ([`SimScheduler::hand_off`]).
//!
//! Execution order is therefore a pure function of the program, so two
//! runs with the same seeds produce bit-identical results — on either
//! fiber backend, because the backends differ only in what a switch
//! costs, never in who runs next.
//!
//! Who pops the successor: the rank that gives the token up. It holds
//! `sched.state` anyway (to mark itself blocked or re-queue itself), so
//! it pops the head of the ready queue under that lock and switches
//! into it, fiber to fiber — one `sched.state` round trip and one
//! context switch per handoff. Whoever pops also starts pulling in the
//! stack of the *new* head, the rank after next
//! ([`FiberSet::prefetch`]), so its first touches after the switch land
//! on lines already on their way. The host's drive loop runs only when
//! no rank can take the token directly: at the start, after a body
//! returned, and on abort, deadlock or an empty ready queue.
//!
//! [`SimScheduler::launch`] is the one way to run a world: start
//! `body(rank)` for every rank, drive to completion, check that every
//! fiber reached its final switch and that the deepest page of every
//! stack still holds only zeros.
//!
//! State the ranks share is carried between them by locks, and on the
//! asm backend every rank runs on the driving thread: there a world
//! *claims* those locks ([`beff_sync::Mutex::claim`]) in the host frame
//! for the whole run — `launch` claims the scheduler state, a
//! personality claims its own ([`SimScheduler::claim_for_run`]) — so a
//! rank's `lock()` is a thread-tag compare and a borrow flag instead of
//! an atomic read-modify-write pair. The thread backend claims nothing
//! and keeps the real locks.
//!
//! Deadlock (every live rank blocked) is detected by the drive loop
//! when the ready queue runs dry, and turns into a typed
//! [`BeffError::Deadlock`] raised on every live rank rather than a hang.

use crate::error::BeffError;
use crate::fiber::{FiberSet, FiberStack};
use beff_sync::{Mutex, Rank};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

/// Lock-hierarchy position (DESIGN.md §8).
static SCHED_STATE_RANK: Rank = Rank::new(40, "sched.state");

struct SchedState {
    /// Ranks runnable but not holding the token, in handoff order.
    ready: VecDeque<usize>,
    blocked: Vec<bool>,
    finished: Vec<bool>,
    /// Ranks whose body has not returned.
    live: usize,
    /// A rank panicked: determinism is moot, resume everyone so they
    /// observe mailbox poison.
    aborted: bool,
    /// Fibers the drive loop resumed ([`SchedAudit::host_resumes`]).
    host_resumes: usize,
}

/// One token scheduler per simulated world run.
pub struct SimScheduler {
    inner: Mutex<SchedState>,
    fibers: FiberSet,
    /// Every live rank is blocked: resume them all into the typed
    /// fault. Written only under `inner`; an atomic so that a rank
    /// resuming from a yield can check it without taking `inner` again.
    /// The `Release` store pairs with the `Acquire` load of the resumed
    /// rank (which the switch already orders after the store).
    deadlocked: AtomicBool,
}

/// Snapshot of the scheduler's terminal state (tests, diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedAudit {
    pub live: usize,
    pub ready: usize,
    pub blocked: usize,
    pub finished: usize,
    pub deadlocked: bool,
    pub aborted: bool,
    /// Times the drive loop resumed a fiber: at the start, after a body
    /// returned, and when a rank gave the token up with no successor to
    /// switch into — not once per handoff.
    pub host_resumes: usize,
}

impl SimScheduler {
    /// `n` ranks, all ready: rank 0 runs first, then strict FIFO order
    /// among runnable ranks.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        Self {
            inner: Mutex::ranked(
                &SCHED_STATE_RANK,
                SchedState {
                    ready: (0..n).collect(),
                    blocked: vec![false; n],
                    finished: vec![false; n],
                    live: n,
                    aborted: false,
                    host_resumes: 0,
                },
            ),
            fibers: FiberSet::new(n),
            deadlocked: AtomicBool::new(false),
        }
    }

    /// Run `body(rank)` for every rank as a fiber over `stacks`, drive
    /// the world to completion on the calling thread, and return the
    /// bodies' results in rank order. `body` must not unwind (a fiber
    /// that does aborts the process): callers run their workload under
    /// `catch_unwind` and return the outcome as a value.
    pub fn launch<R: Send>(&self, stacks: &[FiberStack], body: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let slots: Vec<Mutex<Option<R>>> = stacks.iter().map(|_| Mutex::new(None)).collect();
        assert_eq!(slots.len(), self.inner.lock().finished.len(), "one stack per rank");
        for (rank, stack) in stacks.iter().enumerate() {
            let (slots, body) = (&slots, &body);
            let fiber = move || {
                let out = body(rank);
                *slots[rank].lock() = Some(out);
                self.retire(rank);
            };
            // SAFETY: we are the driving host thread; `stacks`, `slots`
            // and `body` outlive `drive()` below, and nothing resumes a
            // fiber after that (`drive` returns only with no live rank,
            // and is not called again).
            unsafe { self.fibers.start(rank, stack, fiber) };
        }
        let _state = Self::claim_for_run(|| self.inner.claim());
        self.drive();
        let audit = self.audit();
        assert_eq!(audit.live, 0, "fibers left suspended after the drive loop: {audit:?}");
        for (rank, stack) in stacks.iter().enumerate() {
            assert!(stack.deep_page_is_zero(), "fiber stack overflow on rank {rank} (deepest page written)");
        }
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("every finished fiber stored its result"))
            .collect()
    }

    /// Take `claim()` — claims on state a world's ranks share — and hold
    /// it for a run, if every fiber runs on the calling thread (the asm
    /// backend). On the thread backend the fibers are threads of their
    /// own that must take the real locks, so nothing is claimed. Call
    /// it on the thread that will `launch`, before launching.
    pub fn claim_for_run<C>(claim: impl FnOnce() -> C) -> Option<C> {
        FiberSet::ON_HOST_THREAD.then(claim)
    }

    /// `rank`'s body returned; its fiber's final switch follows.
    fn retire(&self, rank: usize) {
        let mut st = self.inner.lock();
        debug_assert!(!st.finished[rank]);
        st.finished[rank] = true;
        st.live -= 1;
    }

    /// The next rank to run, with the stack of the one after it already
    /// requested. `st` is this scheduler's locked state.
    #[inline]
    fn pop_ready(&self, st: &mut SchedState) -> Option<usize> {
        let next = st.ready.pop_front()?;
        if let Some(&after) = st.ready.front() {
            self.fibers.prefetch(after);
        }
        Some(next)
    }

    /// Resume fibers until every rank has finished. A fiber comes back
    /// here only when no rank could take the token from it directly.
    fn drive(&self) {
        while let Some(r) = self.pick() {
            // SAFETY: r is unfinished and was started by `launch`,
            // whose host thread is the only caller of this loop.
            unsafe { self.fibers.resume(r) };
        }
    }

    /// The head of the ready queue, or `None` once every rank has
    /// finished. The queue dry with ranks still live is deadlock; on
    /// deadlock or abort every unfinished fiber is resumed, in rank
    /// order, so it can unwind.
    fn pick(&self) -> Option<usize> {
        let mut st = self.inner.lock();
        let next = if st.live == 0 {
            None
        } else if st.aborted || self.is_deadlocked() {
            st.finished.iter().position(|&f| !f)
        } else if let Some(r) = self.pop_ready(&mut st) {
            Some(r)
        } else {
            self.deadlocked.store(true, Ordering::Release);
            st.finished.iter().position(|&f| !f)
        };
        st.host_resumes += usize::from(next.is_some());
        next
    }

    #[inline]
    fn is_deadlocked(&self) -> bool {
        self.deadlocked.load(Ordering::Acquire)
    }

    /// Give the token to `next`, or back to the drive loop if there is
    /// none; raise the typed deadlock fault if the world deadlocked
    /// while this rank was suspended.
    #[inline]
    fn suspend(&self, rank: usize, next: Option<usize>) {
        // SAFETY: called from rank's own fiber (scheduler contract), with
        // no guard held; `next` came off the ready queue, so it is a
        // started, suspended, unfinished fiber other than `rank`.
        unsafe {
            match next {
                Some(next) => self.fibers.switch(rank, next),
                None => self.fibers.to_host(rank),
            }
        }
        if self.is_deadlocked() {
            BeffError::Deadlock.raise();
        }
    }

    /// The token holder blocks (recv miss or collective wait): release
    /// the token and suspend until a peer re-queues us (or the world
    /// dies).
    pub fn yield_blocked(&self, rank: usize) {
        let next = {
            let mut st = self.inner.lock();
            st.blocked[rank] = true;
            // On abort or deadlock the drive loop's locked path decides.
            if st.aborted || self.is_deadlocked() { None } else { self.pop_ready(&mut st) }
        };
        self.suspend(rank, next);
    }

    /// A push just completed `rank`'s posted receive: make it runnable
    /// again. Called by the token holder; the receiver runs when the
    /// token reaches it, preserving deterministic order.
    pub fn unblock(&self, rank: usize) {
        self.unblock_all([rank]);
    }

    /// [`unblock`](Self::unblock) each of `ranks`, in that order, under
    /// one acquisition of the scheduler state: what the last arriver of
    /// a collective rendezvous does for its waiting peers.
    pub fn unblock_all(&self, ranks: impl IntoIterator<Item = usize>) {
        let mut st = self.inner.lock();
        for rank in ranks {
            if st.blocked[rank] {
                st.blocked[rank] = false;
                st.ready.push_back(rank);
            }
        }
    }

    /// Directed handoff: the token holder `rank` re-queues `order` — itself
    /// among them, as runnable, and each blocked peer unblocked — behind
    /// the ready ranks, then switches straight into `to`, a blocked rank
    /// outside `order`, which runs next. `rank` resumes when the token
    /// reaches its queued position. What the last arriver of a rendezvous
    /// that ran its peers' steps does to leave the token where their own
    /// calls would have.
    pub fn hand_off(&self, rank: usize, order: impl IntoIterator<Item = usize>, to: usize) {
        let next = {
            let mut st = self.inner.lock();
            for r in order {
                if r == rank || st.blocked[r] {
                    st.blocked[r] = false;
                    st.ready.push_back(r);
                }
            }
            if st.aborted || self.is_deadlocked() {
                None
            } else {
                debug_assert!(st.blocked[to], "hand_off into rank {to}, which is not blocked");
                st.blocked[to] = false;
                if let Some(&after) = st.ready.front() {
                    self.fibers.prefetch(after);
                }
                Some(to)
            }
        };
        self.suspend(rank, next);
    }

    /// Cooperative rotation for actor workloads: the token holder
    /// re-queues itself behind every currently ready rank and hands
    /// the token on. No-op when nobody else is ready. Unlike
    /// [`yield_blocked`](Self::yield_blocked) the rank stays runnable,
    /// so this can never deadlock the world.
    pub fn yield_turn(&self, rank: usize) {
        let next = {
            let mut st = self.inner.lock();
            if st.ready.is_empty() || st.aborted || self.is_deadlocked() {
                return;
            }
            st.ready.push_back(rank);
            self.pop_ready(&mut st)
        };
        self.suspend(rank, next);
    }

    /// A rank panicked: the drive loop resumes every unfinished rank so
    /// it can observe mailbox poison and unwind (determinism no longer
    /// matters).
    pub fn abort(&self) {
        self.inner.lock().aborted = true;
    }

    /// Terminal state snapshot. Meaningful after the world has joined;
    /// mid-run it is merely a consistent-at-some-instant view.
    pub fn audit(&self) -> SchedAudit {
        let st = self.inner.lock();
        SchedAudit {
            live: st.live,
            ready: st.ready.len(),
            blocked: st.blocked.iter().filter(|&&b| b).count(),
            finished: st.finished.iter().filter(|&&f| f).count(),
            deadlocked: self.is_deadlocked(),
            aborted: st.aborted,
            host_resumes: st.host_resumes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn single_rank_runs_immediately() {
        assert_eq!(SimScheduler::new(1).launch(&FiberStack::set(1), |rank| rank + 41), vec![41]);
    }

    #[test]
    fn token_order_is_round_robin() {
        // No rank blocks or yields, so each runs to completion on its
        // first turn: 0, 1, 2, 3.
        let order = Mutex::new(Vec::new());
        SimScheduler::new(4).launch(&FiberStack::set(4), |rank| order.lock().push(rank));
        assert_eq!(&*order.lock(), &[0, 1, 2, 3]);
    }

    /// Ranks 0..n-1 block, the last rank unblocks them all — one call
    /// each, or one call for all — and they resume in the order they
    /// were re-queued.
    #[test]
    fn unblock_requeues_in_fifo_order() {
        let n = 4;
        for batched in [false, true] {
            let s = SimScheduler::new(n);
            let log = Mutex::new(Vec::new());
            s.launch(&FiberStack::set(n), |rank| {
                log.lock().push(("start", rank));
                if rank < n - 1 {
                    s.yield_blocked(rank);
                    log.lock().push(("resume", rank));
                } else if batched {
                    s.unblock_all([2, 0, 1]); // all already blocked
                } else {
                    for peer in [2, 0, 1] {
                        s.unblock(peer);
                    }
                }
            });
            assert_eq!(
                log.lock().as_slice(),
                &[
                    ("start", 0),
                    ("start", 1),
                    ("start", 2),
                    ("start", 3),
                    ("resume", 2),
                    ("resume", 0),
                    ("resume", 1)
                ],
                "batched: {batched}"
            );
        }
    }

    /// A directed handoff re-queues its order behind the ranks already
    /// ready, runs the named rank next, and the caller resumes from its
    /// own queued position.
    #[test]
    fn hand_off_runs_the_named_rank_then_the_queue() {
        let n = 5;
        let s = SimScheduler::new(n);
        let log = Mutex::new(Vec::new());
        s.launch(&FiberStack::set(n), |rank| {
            log.lock().push(("start", rank));
            match rank {
                0..=2 => {
                    s.yield_blocked(rank);
                    log.lock().push(("resume", rank));
                }
                3 => {
                    // rank 4 has not started: it is ahead of the order
                    s.hand_off(3, [0, 3, 1], 2);
                    log.lock().push(("resume", 3));
                }
                _ => {}
            }
        });
        assert_eq!(
            log.lock().as_slice(),
            &[
                ("start", 0),
                ("start", 1),
                ("start", 2),
                ("start", 3),
                ("resume", 2),
                ("start", 4),
                ("resume", 0),
                ("resume", 3),
                ("resume", 1)
            ]
        );
        let a = s.audit();
        assert_eq!((a.live, a.blocked, a.ready), (0, 0, 0));
    }

    /// A handoff switches fiber to fiber: 64 000 rotations bring the
    /// drive loop in only to start each rank and to take the token
    /// back after each body returns.
    #[test]
    fn handoffs_bypass_the_drive_loop() {
        let n = 64;
        let s = SimScheduler::new(n);
        s.launch(&FiberStack::set(n), |rank| {
            for _ in 0..1000 {
                s.yield_turn(rank);
            }
        });
        let a = s.audit();
        assert_eq!((a.live, a.finished), (0, n));
        assert!(a.host_resumes <= 2 * n, "{a:?}");
    }

    #[test]
    fn all_blocked_is_detected_as_deadlock() {
        crate::error::silence_fault_panics();
        let s = SimScheduler::new(2);
        let faults = s.launch(&FiberStack::set(2), |rank| {
            // nobody will ever unblock us
            let payload = catch_unwind(AssertUnwindSafe(|| s.yield_blocked(rank)))
                .expect_err("deadlock must raise");
            payload.downcast_ref::<BeffError>().cloned()
        });
        assert_eq!(faults, vec![Some(BeffError::Deadlock); 2]);
        let a = s.audit();
        assert!(a.deadlocked && !a.aborted);
        assert_eq!((a.live, a.finished), (0, 2));
    }

    #[test]
    fn abort_wakes_blocked_ranks() {
        let s = SimScheduler::new(2);
        s.launch(&FiberStack::set(2), |rank| {
            if rank == 0 {
                s.yield_blocked(0); // returns (not via the deadlock fault) on abort
            } else {
                s.abort();
            }
        });
        let a = s.audit();
        assert!(a.aborted && !a.deadlocked);
        assert_eq!(a.live, 0);
    }
}
