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
//! A receiver never waits inside the port: it posts
//! ([`Port::recv_or_post`]) and hands the scheduler token on; the
//! sender re-queues it on `Matched`, and it redeems its ticket with
//! [`Port::take_delivered`].
//!
//! *Non-overtaking* holds by construction: a receive only posts after
//! finding no match in the unexpected queue, so every message that
//! could match an open slot is a later arrival than anything queued —
//! per-sender program order is preserved across both paths.

use crate::error::BeffError;
use beff_sync::{Claim, Mutex};
use std::collections::VecDeque;

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
    /// In ticket order: posted at the back, removed in place.
    posted: VecDeque<Posted<M>>,
    next_ticket: u64,
    /// Set when the world aborts (an actor panicked), so a receiver
    /// fails instead of deadlocking on a dead peer.
    poisoned: bool,
}

// Manual: `derive(Default)` would demand `M: Default`, which messages
// need not be.
impl<M: Message> Default for Inner<M> {
    fn default() -> Self {
        Self {
            unexpected: VecDeque::new(),
            posted: VecDeque::new(),
            next_ticket: 0,
            poisoned: false,
        }
    }
}

impl<M: Message> Inner<M> {
    fn take_unexpected(&mut self, m: M::Filter) -> Option<M> {
        let pos = self.unexpected.iter().position(|e| M::admits(&m, e))?;
        self.unexpected.remove(pos)
    }

    fn post(&mut self, m: M::Filter) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.posted.push_back(Posted { ticket, m, delivered: None });
        ticket
    }

    /// Remove the slot for `ticket`, returning its delivery if any.
    fn remove_slot(&mut self, ticket: u64) -> Option<M> {
        let pos = self.posted.iter().position(|p| p.ticket == ticket)?;
        self.posted.remove(pos)?.delivered
    }
}

/// Lock-hierarchy position of an actor's port (DESIGN.md §8): below
/// the scheduler locks — senders finish their port transaction before
/// touching the token scheduler.
static PORT_RANK: beff_sync::Rank = beff_sync::Rank::new(30, "sim.port");

/// Two-queue matching port for one actor.
#[derive(Debug)]
pub struct Port<M: Message> {
    inner: Mutex<Inner<M>>,
}

impl<M: Message> Default for Port<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Message> Port<M> {
    pub fn new() -> Self {
        Self { inner: Mutex::ranked(&PORT_RANK, Inner::default()) }
    }

    /// Deliver a message. [`PushOutcome::Matched`] tells the caller a
    /// receiver is waiting on it.
    pub fn push(&self, msg: M) -> PushOutcome {
        let mut g = self.inner.lock();
        // `posted` is in ticket order: the first open match is the oldest.
        let slot = g.posted.iter_mut().find(|p| p.delivered.is_none() && M::admits(&p.m, &msg));
        if let Some(slot) = slot {
            slot.delivered = Some(msg);
            return PushOutcome::Matched;
        }
        g.unexpected.push_back(msg);
        PushOutcome::Queued
    }

    /// Abort: every later receive that finds nothing raises
    /// [`BeffError::PeerFailed`].
    pub fn poison(&self) {
        self.inner.lock().poisoned = true;
    }

    /// Has the world been poisoned?
    pub fn is_poisoned(&self) -> bool {
        self.inner.lock().poisoned
    }

    /// Hold this port on the calling thread for a run (see
    /// [`SimScheduler::claim_for_run`](crate::SimScheduler::claim_for_run)).
    pub fn claim(&self) -> Claim<'_> {
        self.inner.claim()
    }

    // ----- receiving -------------------------------------------------------

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
            // Typed so world drivers can report "a peer died" as a value
            // instead of tearing the caller down.
            BeffError::PeerFailed.raise();
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

    // ----- diagnostics ---------------------------------------------------

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
        let n = p.try_recv(NoteFilter { chan: 0, kind: Some(2) });
        assert_eq!(n.map(|n| n.body), Some(20));
        let n = p.try_recv(NoteFilter { chan: 0, kind: Some(1) });
        assert_eq!(n.map(|n| n.body), Some(10));
        assert!(p.is_empty());
    }

    #[test]
    fn wildcard_takes_first_arrival() {
        let p: Port<Note> = Port::new();
        p.push(note(0, 3, 7));
        p.push(note(0, 1, 8));
        let n = p.try_recv(NoteFilter { chan: 0, kind: None });
        assert_eq!(n.map(|n| n.kind), Some(3));
    }

    #[test]
    fn channel_isolation() {
        let p: Port<Note> = Port::new();
        p.push(note(1, 0, 5));
        assert!(p.try_recv(NoteFilter { chan: 0, kind: None }).is_none());
        assert!(p.try_recv(NoteFilter { chan: 1, kind: None }).is_some());
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

    /// A poisoned port still hands out what already arrived; a receive
    /// that would have to wait fails with the typed peer fault instead.
    #[test]
    fn poisoned_port_refuses_to_post() {
        let p: Port<Note> = Port::new();
        p.push(note(0, 1, 1));
        p.poison();
        let f = NoteFilter { chan: 0, kind: None };
        assert_eq!(p.recv_or_post(f).map(|n| n.body), Ok(1));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.recv_or_post(f)));
        let payload = r.err().map(|e| e.downcast_ref::<BeffError>().cloned());
        assert_eq!(payload, Some(Some(BeffError::PeerFailed)));
    }

    /// FIFO order and oldest-ticket matching hold wherever an entry is
    /// removed: the front, the middle and the back of either queue, and
    /// a cancelled post between open ones.
    #[test]
    fn inline_entries_spill_past_two_in_order() {
        let any = NoteFilter { chan: 0, kind: None };
        let kind = |k| NoteFilter { chan: 0, kind: Some(k) };
        let body = |n: Option<Note>| n.map(|n| n.body);
        let p: Port<Note> = Port::new();
        for k in 0..5 {
            p.push(note(0, k, 10 + u64::from(k)));
        }
        assert_eq!(body(p.try_recv(kind(1))), Some(11), "the middle");
        assert_eq!(body(p.try_recv(kind(4))), Some(14), "the back");
        let drained: Vec<_> = std::iter::from_fn(|| body(p.try_recv(any))).collect();
        assert_eq!(drained, [10, 12, 13], "arrival order");

        let t = [kind(1), any, kind(1), any, any].map(|f| p.post(f));
        assert_eq!(body(p.take_delivered(t[1])), None, "cancel near the front");
        assert_eq!(body(p.take_delivered(t[3])), None, "cancel in the middle");
        for (k, b) in [(1, 20), (2, 21), (1, 22)] {
            assert_eq!(p.push(note(0, k, b)), PushOutcome::Matched);
        }
        assert_eq!(p.push(note(0, 3, 23)), PushOutcome::Queued);
        let got = [t[0], t[2], t[4]].map(|t| body(p.take_delivered(t)));
        assert_eq!(got, [Some(20), Some(22), Some(21)], "oldest open ticket wins");
        assert_eq!(body(p.try_recv(any)), Some(23));
        assert!(p.is_empty());
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
