//! Admission queue: bounded buffering between query arrival and batch
//! execution, with a typed load-shedding policy.
//!
//! The server's efficient unit of work is a *batch* — distinct misses
//! fan out over the worker pool together ([`Server::submit_batch`]).
//! [`Admission`] sits in front of it: queries accumulate in a bounded
//! queue and are flushed as one batch when the queue fills (or on
//! demand), which converts a stream of single queries into pool-sized
//! batches with a hard cap on buffered work.
//!
//! Two admission disciplines share the buffer (DESIGN.md §12):
//!
//! * [`enqueue`](Admission::enqueue) — **backpressure**: an enqueue
//!   into a full queue executes the buffered batch first, so a
//!   producer can never buffer unboundedly ahead of the simulator;
//! * [`offer`](Admission::offer) — **shedding**: an offer into a full
//!   queue is refused with typed [`SpecError::Overloaded`] (never a
//!   silent drop), for producers that prefer losing a query over
//!   stalling.
//!
//! Orthogonally, a queue built with
//! [`with_deadline`](Admission::with_deadline) gives every buffered
//! job a virtual-deadline budget: time is a **virtual tick** that
//! advances once per admission attempt (accepted or shed — no wall
//! clock anywhere, so the policy is deterministic and replayable), and
//! a flush sheds any job that waited longer than the budget as typed
//! [`SpecError::DeadlineExpired`] instead of executing stale work.
//! Under a flood the freshest jobs survive. Every shed — either kind —
//! is counted into the server's `shed_jobs` stat.

use crate::server::{Outcome, Server};
use crate::spec::{JobSpec, SpecError};
use std::collections::VecDeque;

/// A bounded spec queue in front of a [`Server`].
pub struct Admission<'s> {
    server: &'s Server,
    /// Buffered specs with the tick each was admitted at, oldest first.
    queue: VecDeque<(JobSpec, u64)>,
    capacity: usize,
    /// Virtual clock: one tick per admission attempt.
    tick: u64,
    /// Maximum ticks a buffered job may wait before a flush sheds it
    /// (`None`: jobs never expire).
    budget: Option<u64>,
}

impl<'s> Admission<'s> {
    /// Queue up to `capacity` specs (≥ 1) before forcing a flush; no
    /// deadline — buffered jobs never expire.
    pub fn new(server: &'s Server, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { server, queue: VecDeque::new(), capacity, tick: 0, budget: None }
    }

    /// Like [`new`](Self::new), but a flush sheds (typed
    /// [`SpecError::DeadlineExpired`]) any job that waited more than
    /// `budget` virtual ticks since admission.
    pub fn with_deadline(server: &'s Server, capacity: usize, budget: u64) -> Self {
        let mut q = Self::new(server, capacity);
        q.budget = Some(budget);
        q
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Specs currently buffered.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The virtual clock: admission attempts observed so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Admit one spec under the backpressure discipline. If the queue
    /// is full, the buffered batch is executed first and its outcomes
    /// returned (empty vector otherwise — the spec is just buffered).
    pub fn enqueue(&mut self, spec: JobSpec) -> Vec<Result<Outcome, SpecError>> {
        self.tick += 1;
        let flushed = if self.queue.len() == self.capacity { self.flush() } else { Vec::new() };
        self.queue.push_back((spec, self.tick));
        flushed
    }

    /// Admit one spec under the shedding discipline: a full queue
    /// refuses it with typed [`SpecError::Overloaded`] (counted into
    /// the server's `shed_jobs`) rather than executing anything.
    pub fn offer(&mut self, spec: JobSpec) -> Result<(), SpecError> {
        self.tick += 1;
        if self.queue.len() == self.capacity {
            self.server.note_shed(1);
            return Err(SpecError::Overloaded {
                queued: self.queue.len(),
                capacity: self.capacity,
            });
        }
        self.queue.push_back((spec, self.tick));
        Ok(())
    }

    /// Execute everything buffered as one batch, in admission order.
    /// Under a deadline, expired jobs come back as typed
    /// [`SpecError::DeadlineExpired`] in their admission slots; only
    /// the still-fresh jobs execute.
    pub fn flush(&mut self) -> Vec<Result<Outcome, SpecError>> {
        if self.queue.is_empty() {
            return Vec::new();
        }

        // Age check against the virtual clock at flush time.
        enum Slot {
            Fresh(JobSpec),
            Expired { waited: u64, budget: u64 },
        }
        let mut shed = 0u64;
        let slots: Vec<Slot> = self
            .queue
            .drain(..)
            .map(|(spec, admitted)| {
                let waited = self.tick - admitted;
                match self.budget {
                    Some(budget) if waited > budget => {
                        shed += 1;
                        Slot::Expired { waited, budget }
                    }
                    _ => Slot::Fresh(spec),
                }
            })
            .collect();
        if shed > 0 {
            self.server.note_shed(shed);
        }

        let fresh: Vec<JobSpec> = slots
            .iter()
            .filter_map(|s| match s {
                Slot::Fresh(spec) => Some(spec.clone()),
                Slot::Expired { .. } => None,
            })
            .collect();
        let mut executed = self.server.submit_batch(&fresh).into_iter();
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Fresh(_) => executed.next().expect("one outcome per fresh job"),
                Slot::Expired { waited, budget } => {
                    Err(SpecError::DeadlineExpired { waited, budget })
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_sim::Workers;

    #[test]
    fn enqueue_buffers_until_capacity_then_flushes() {
        let srv = Server::new(Workers::new(2));
        let mut q = Admission::new(&srv, 3);
        for i in 0..3 {
            assert!(q.enqueue(JobSpec::new("t3e", 4).with_seed(i)).is_empty());
        }
        assert_eq!(q.queued(), 3);
        // Fourth admission overflows: the three buffered specs run.
        let flushed = q.enqueue(JobSpec::new("t3e", 4).with_seed(3));
        assert_eq!(flushed.len(), 3);
        assert_eq!(q.queued(), 1);
        let rest = q.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(q.queued(), 0);
        assert!(q.flush().is_empty(), "empty queue flushes to nothing");
        assert_eq!(srv.cache_stats().entries, 4);
    }

    #[test]
    fn flush_preserves_admission_order() {
        let srv = Server::new(Workers::new(1));
        let mut q = Admission::new(&srv, 8);
        let specs: Vec<JobSpec> = (0..4).map(|i| JobSpec::new("t3e", 4).with_seed(i)).collect();
        for s in &specs {
            q.enqueue(s.clone());
        }
        let outcomes = q.flush();
        for (o, s) in outcomes.iter().zip(&specs) {
            assert_eq!(o.as_ref().expect("valid").key, s.canonical_key());
        }
    }

    #[test]
    fn offer_sheds_typed_when_full() {
        let srv = Server::new(Workers::new(1));
        let mut q = Admission::new(&srv, 2);
        assert!(q.offer(JobSpec::new("t3e", 4).with_seed(0)).is_ok());
        assert!(q.offer(JobSpec::new("t3e", 4).with_seed(1)).is_ok());
        let err = q.offer(JobSpec::new("t3e", 4).with_seed(2)).expect_err("full");
        assert!(matches!(err, SpecError::Overloaded { queued: 2, capacity: 2 }), "{err:?}");
        assert_eq!(srv.shed_jobs(), 1, "the shed is counted, never silent");
        assert_eq!(q.queued(), 2, "buffered jobs are untouched by a shed");
        assert_eq!(q.flush().len(), 2);
    }

    #[test]
    fn deadline_flood_serves_freshest_sheds_rest_typed() {
        // The DESIGN.md §12 worked example: 20 offers into capacity 8
        // with budget 16 → 12 refused at the door (Overloaded), and at
        // flush time the 3 stalest buffered jobs have out-waited their
        // budget (DeadlineExpired) while the freshest 5 execute.
        let srv = Server::new(Workers::new(2));
        let mut q = Admission::with_deadline(&srv, 8, 16);
        let mut overloaded = 0;
        for i in 0..20 {
            match q.offer(JobSpec::new("t3e", 4).with_seed(i)) {
                Ok(()) => {}
                Err(SpecError::Overloaded { .. }) => overloaded += 1,
                Err(e) => panic!("unexpected admission error: {e:?}"),
            }
        }
        assert_eq!(overloaded, 12);
        assert_eq!(q.tick(), 20);
        let outcomes = q.flush();
        assert_eq!(outcomes.len(), 8, "every buffered job gets an outcome slot");
        let expired: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| matches!(o, Err(SpecError::DeadlineExpired { .. })).then_some(i))
            .collect();
        assert_eq!(expired, vec![0, 1, 2], "the stalest slots expire, in place");
        let served = outcomes.iter().filter(|o| o.is_ok()).count();
        assert_eq!(served, 5, "the freshest jobs survive the flood");
        assert_eq!(srv.shed_jobs(), 15, "12 overloaded + 3 expired, all counted");
    }

    #[test]
    fn without_deadline_stale_jobs_never_expire() {
        let srv = Server::new(Workers::new(1));
        let mut q = Admission::new(&srv, 2);
        assert!(q.offer(JobSpec::new("t3e", 4).with_seed(0)).is_ok());
        // Advance the virtual clock far past any plausible budget.
        for i in 0..100 {
            let _ = q.offer(JobSpec::new("t3e", 4).with_seed(100 + i));
        }
        let outcomes = q.flush();
        assert!(outcomes.iter().all(|o| o.is_ok()), "no deadline, no expiry");
    }
}
