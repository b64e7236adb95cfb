//! Typed two-queue matching ports over generic actor ids.
//!
//! A [`Port`] is the workload-agnostic generalization of an MPI-style
//! mailbox: each actor owns one, holding two structures:
//!
//! * an *unexpected-message* queue: messages that arrived before any
//!   matching receive was posted, in arrival order;
//! * a *posted-receive* list: pending receives, each with a ticket and
//!   a slot the matching message is delivered into.
//!
//! What counts as "matching" is the personality's business: a message
//! type implements [`Message`] and names its [`Message::Filter`] — MPI
//! instantiates `Port<Envelope>` with a (context, source, tag) pattern;
//! a storage workload might match on request ids. The queue discipline
//! below is identical for every instantiation.
//!
//! A push first tries to complete the oldest open posted receive it
//! matches ([`PushOutcome::Matched`] — the only case in which a
//! receiver can be waiting on the message); otherwise it appends to the
//! unexpected queue *silently* ([`PushOutcome::Queued`]). Receivers
//! scan the unexpected queue once, then post and wait — no rescanning
//! of the whole queue per wakeup.
//!
//! How a receiver waits is the caller's choice. Token-scheduled worlds
//! post ([`Port::recv_or_post`]) and hand the scheduler token on; the
//! sender re-queues them on `Matched`, and the port's condvar is never
//! involved. Real-mode receivers park on the condvar inside
//! [`Port::recv`]; the port counts them, and a push or poison notifies
//! only when that count is non-zero — so a world that never parks here
//! never pays the futex wake.
//!
//! *Non-overtaking* holds by construction: a receive only posts after
//! finding no match in the unexpected queue, so every message that
//! could match an open slot is a later arrival than anything queued —
//! per-sender program order is preserved across both paths.

use crate::error::BeffError;
use beff_sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::time::Duration;

/// A message deliverable through a [`Port`], together with the filter
/// its receivers match on.
pub trait Message: Send + std::fmt::Debug {
    /// The matching pattern a receive is posted with.
    type Filter: Copy + Send + std::fmt::Debug;

    /// Does `filter` accept `msg`? Must be a pure function: the
    /// two-queue optimization is behaviorally equivalent to a linear
    /// scan only if admission does not depend on queue state.
    fn admits(filter: &Self::Filter, msg: &Self) -> bool;
}

/// What a push did — drives the targeted-wakeup protocol: only
/// `Matched` means a receiver is waiting on this message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Delivered straight into a posted receive's slot.
    Matched,
    /// Nobody was waiting; appended to the unexpected queue (no wakeup).
    Queued,
}

#[derive(Debug)]
struct Posted<M: Message> {
    ticket: u64,
    m: M::Filter,
    delivered: Option<M>,
}

#[derive(Debug)]
struct Inner<M: Message> {
    unexpected: VecDeque<M>,
    posted: Vec<Posted<M>>,
    next_ticket: u64,
    /// Set when the world aborts (an actor panicked); wakes blocked
    /// receivers so they do not deadlock on a dead peer.
    poisoned: bool,
    /// Receivers parked on the condvar right now, counted under the
    /// lock on both sides of every wait. `wait` gives the lock up
    /// atomically, so a notifier that reads zero under the lock knows
    /// nobody is asleep — a receiver about to wait still holds the lock
    /// the notifier needs.
    parked: usize,
}

// Manual: `derive(Default)` would demand `M: Default`, which messages
// need not be.
impl<M: Message> Default for Inner<M> {
    fn default() -> Self {
        Self {
            unexpected: VecDeque::new(),
            posted: Vec::new(),
            next_ticket: 0,
            poisoned: false,
            parked: 0,
        }
    }
}

impl<M: Message> Inner<M> {
    fn take_unexpected(&mut self, m: M::Filter) -> Option<M> {
        let pos = self.unexpected.iter().position(|e| M::admits(&m, e))?;
        Some(self.unexpected.remove(pos).expect("position just found"))
    }

    fn post(&mut self, m: M::Filter) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.posted.push(Posted { ticket, m, delivered: None });
        ticket
    }

    /// Remove the slot for `ticket`, returning its delivery if any.
    fn remove_slot(&mut self, ticket: u64) -> Option<M> {
        let pos = self.posted.iter().position(|p| p.ticket == ticket)?;
        self.posted.swap_remove(pos).delivered
    }
}

/// Lock-hierarchy position of an actor's port (DESIGN.md §8): below
/// the scheduler locks — senders finish their port transaction before
/// touching the token scheduler.
static PORT_RANK: beff_sync::Rank = beff_sync::Rank::new(30, "sim.port");

/// Two-queue matching port + wakeup for one actor.
#[derive(Debug)]
pub struct Port<M: Message> {
    inner: Mutex<Inner<M>>,
    cond: Condvar,
}

impl<M: Message> Default for Port<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Message> Port<M> {
    pub fn new() -> Self {
        Self {
            inner: Mutex::ranked(&PORT_RANK, Inner::default()),
            cond: Condvar::new(),
        }
    }

    /// Release the lock, then wake the parked receivers — if there are
    /// any: with none parked there is no one to lose the wakeup, and the
    /// notify (a futex syscall) is skipped.
    fn wake_parked(&self, g: MutexGuard<'_, Inner<M>>) {
        let parked = g.parked > 0;
        drop(g);
        if parked {
            self.cond.notify_all();
        }
    }

    /// Deliver a message (called from the sender's thread). Wakes
    /// parked receivers only on [`PushOutcome::Matched`].
    pub fn push(&self, msg: M) -> PushOutcome {
        let mut g = self.inner.lock();
        if let Some(slot) = g
            .posted
            .iter_mut()
            .filter(|p| p.delivered.is_none() && M::admits(&p.m, &msg))
            .min_by_key(|p| p.ticket)
        {
            slot.delivered = Some(msg);
            self.wake_parked(g);
            return PushOutcome::Matched;
        }
        g.unexpected.push_back(msg);
        PushOutcome::Queued
    }

    /// Abort: wake every blocked receiver with a panic.
    pub fn poison(&self) {
        let mut g = self.inner.lock();
        g.poisoned = true;
        self.wake_parked(g);
    }

    /// Has the world been poisoned?
    pub fn is_poisoned(&self) -> bool {
        self.inner.lock().poisoned
    }

    fn panic_poisoned() -> ! {
        // Typed so world drivers can report "a peer died" as a value
        // instead of tearing the caller down.
        BeffError::PeerFailed.raise()
    }

    /// Blocking receive of the first message matching `m` (unexpected
    /// arrivals first, in arrival order, which preserves per-sender
    /// ordering). Used in real mode; token-scheduled worlds use
    /// [`recv_or_post`](Self::recv_or_post) and never park here.
    ///
    /// Panics if the world is poisoned (another actor died), so a
    /// failed run aborts instead of deadlocking.
    pub fn recv(&self, m: M::Filter) -> M {
        let mut g = self.inner.lock();
        if let Some(env) = g.take_unexpected(m) {
            return env;
        }
        if g.poisoned {
            Self::panic_poisoned();
        }
        let ticket = g.post(m);
        loop {
            g.parked += 1;
            self.cond.wait(&mut g);
            g.parked -= 1;
            if g.posted.iter().any(|p| p.ticket == ticket && p.delivered.is_some()) {
                return g.remove_slot(ticket).expect("delivery just observed");
            }
            if g.poisoned {
                g.remove_slot(ticket);
                Self::panic_poisoned();
            }
        }
    }

    /// Like [`recv`](Self::recv) but gives up after `timeout` (used by
    /// deadlock-detecting tests; real mode only). Returns `None` on
    /// timeout or poison.
    pub fn recv_timeout(&self, m: M::Filter, timeout: Duration) -> Option<M> {
        // beff-analyze: allow(wall-clock): real-mode-only API; sim worlds never call this
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.inner.lock();
        if let Some(env) = g.take_unexpected(m) {
            return Some(env);
        }
        if g.poisoned {
            return None;
        }
        let ticket = g.post(m);
        loop {
            g.parked += 1;
            // beff-analyze: allow(taint): real-mode-only API (see the wall-clock waiver above); sim worlds never block on a deadline
            let timed_out = self.cond.wait_until(&mut g, deadline).timed_out();
            g.parked -= 1;
            // Check the slot even on timeout: a push may have completed
            // the match as the deadline expired, and that message must
            // not be lost.
            if g.posted.iter().any(|p| p.ticket == ticket && p.delivered.is_some()) {
                return g.remove_slot(ticket);
            }
            if g.poisoned || timed_out {
                g.remove_slot(ticket);
                return None;
            }
        }
    }

    // ----- nonblocking pieces for token-scheduled worlds -----------------

    /// The blocked-receive prologue in one critical section: take a
    /// matching unexpected message (`Ok`), or — raising
    /// [`BeffError::PeerFailed`] if the world is poisoned — post the
    /// receive and return its ticket (`Err`) for the caller to yield on
    /// and redeem with [`take_delivered`](Self::take_delivered).
    pub fn recv_or_post(&self, m: M::Filter) -> Result<M, u64> {
        let mut g = self.inner.lock();
        if let Some(msg) = g.take_unexpected(m) {
            return Ok(msg);
        }
        if g.poisoned {
            drop(g);
            Self::panic_poisoned();
        }
        Err(g.post(m))
    }

    /// Take a matching message from the unexpected queue, if any.
    pub fn try_recv(&self, m: M::Filter) -> Option<M> {
        self.inner.lock().take_unexpected(m)
    }

    /// Post a receive and return its ticket. The caller must have just
    /// tried [`try_recv`](Self::try_recv) (the non-overtaking argument
    /// relies on the unexpected queue holding no match at post time).
    pub fn post(&self, m: M::Filter) -> u64 {
        self.inner.lock().post(m)
    }

    /// Remove the posted slot for `ticket`, returning the delivered
    /// message if a push completed it.
    pub fn take_delivered(&self, ticket: u64) -> Option<M> {
        self.inner.lock().remove_slot(ticket)
    }

    // ----- probes / diagnostics -----------------------------------------

    /// Nonblocking probe: does an *unclaimed* matching message exist?
    /// (Messages already delivered to a posted receive are spoken for.)
    pub fn probe(&self, m: M::Filter) -> bool {
        self.inner.lock().unexpected.iter().any(|e| M::admits(&m, e))
    }

    /// Number of messages held (unexpected + delivered-but-untaken).
    pub fn len(&self) -> usize {
        let g = self.inner.lock();
        g.unexpected.len() + g.posted.iter().filter(|p| p.delivered.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal non-MPI message: matched on an exact channel id and
    /// an optional kind wildcard.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Note {
        chan: u32,
        kind: u32,
        body: u64,
    }

    #[derive(Debug, Clone, Copy)]
    struct NoteFilter {
        chan: u32,
        kind: Option<u32>,
    }

    impl Message for Note {
        type Filter = NoteFilter;
        fn admits(f: &NoteFilter, n: &Note) -> bool {
            n.chan == f.chan && f.kind.is_none_or(|k| k == n.kind)
        }
    }

    fn note(chan: u32, kind: u32, body: u64) -> Note {
        Note { chan, kind, body }
    }

    #[test]
    fn matches_by_filter_fields() {
        let p: Port<Note> = Port::new();
        assert_eq!(p.push(note(0, 1, 10)), PushOutcome::Queued);
        assert_eq!(p.push(note(0, 2, 20)), PushOutcome::Queued);
        let n = p.recv(NoteFilter { chan: 0, kind: Some(2) });
        assert_eq!(n.body, 20);
        let n = p.recv(NoteFilter { chan: 0, kind: Some(1) });
        assert_eq!(n.body, 10);
        assert!(p.is_empty());
    }

    #[test]
    fn wildcard_takes_first_arrival() {
        let p: Port<Note> = Port::new();
        p.push(note(0, 3, 7));
        p.push(note(0, 1, 8));
        let n = p.recv(NoteFilter { chan: 0, kind: None });
        assert_eq!(n.kind, 3);
    }

    #[test]
    fn channel_isolation() {
        let p: Port<Note> = Port::new();
        p.push(note(1, 0, 5));
        assert!(!p.probe(NoteFilter { chan: 0, kind: None }));
        assert!(p.probe(NoteFilter { chan: 1, kind: None }));
    }

    #[test]
    fn oldest_posted_slot_wins() {
        let p: Port<Note> = Port::new();
        let t1 = p.post(NoteFilter { chan: 0, kind: None });
        let t2 = p.post(NoteFilter { chan: 0, kind: None });
        p.push(note(0, 4, 1));
        assert!(p.take_delivered(t1).is_some(), "first posted receive matches first");
        assert!(p.take_delivered(t2).is_none());
    }

    #[test]
    fn push_into_posted_slot_reports_matched_once() {
        let p: Port<Note> = Port::new();
        let ticket = p.post(NoteFilter { chan: 0, kind: Some(9) });
        assert_eq!(p.push(note(0, 9, 1)), PushOutcome::Matched);
        // a second matching push must NOT land in the filled slot
        assert_eq!(p.push(note(0, 9, 2)), PushOutcome::Queued);
        assert_eq!(p.take_delivered(ticket).map(|n| n.body), Some(1));
    }

    #[test]
    fn cancelled_post_leaves_no_slot() {
        let p: Port<Note> = Port::new();
        let ticket = p.post(NoteFilter { chan: 0, kind: None });
        assert!(p.take_delivered(ticket).is_none()); // removes the slot
        assert_eq!(p.push(note(0, 0, 1)), PushOutcome::Queued);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn poison_wakes_blocked_receiver_with_panic() {
        use std::sync::Arc;
        let p: Arc<Port<Note>> = Arc::new(Port::new());
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p2.recv(NoteFilter { chan: 0, kind: None });
            }));
            r.is_err()
        });
        std::thread::sleep(Duration::from_millis(20));
        p.poison();
        assert!(h.join().unwrap(), "receiver must panic on poison");
    }

    /// The two-queue structure must be observationally equivalent to
    /// the naive model: one linear list scanned per receive. Random
    /// push/recv interleavings drive both; every receive must return
    /// the same message. (The MPI-typed twin of this property lives in
    /// beff-mpi's property suite; this one pins the generic core.)
    #[test]
    fn two_queue_equals_linear_scan_model() {
        use crate::rng::Rng64;

        for case in 0..64u64 {
            let mut rng = Rng64::new(0x9A17_BEEF ^ case);
            let p: Port<Note> = Port::new();
            let mut model: Vec<Note> = Vec::new();
            let mut seq = 0u64;
            for _ in 0..200 {
                if rng.below(3) < 2 || model.is_empty() {
                    let n = note(rng.below(2) as u32, rng.below(3) as u32, seq);
                    seq += 1;
                    p.push(n);
                    model.push(n);
                } else {
                    let f = NoteFilter {
                        chan: rng.below(2) as u32,
                        kind: if rng.below(2) == 0 { None } else { Some(rng.below(3) as u32) },
                    };
                    let got = p.try_recv(f);
                    let want = model
                        .iter()
                        .position(|n| Note::admits(&f, n))
                        .map(|i| model.remove(i));
                    assert_eq!(got, want, "case {case}: port diverged from linear model");
                }
            }
            assert_eq!(p.len(), model.len(), "case {case}: residue count diverged");
        }
    }
}
