//! Conservative parallel discrete-event execution: shard the actor
//! world across a fixed worker pool, keep the results bit-identical.
//!
//! The serial token scheduler ([`crate::sched`]) runs one actor at a
//! time; this module runs one actor *per shard* at a time, with shards
//! on separate host threads. Determinism survives because everything an
//! actor can observe is either shard-local (its scheduler's FIFO token
//! order, unchanged) or crosses shards through a protocol whose order
//! is a pure function of the program:
//!
//! * **Shard mapping** — contiguous blocks: with `n` actors on `W`
//!   workers, actor `i` lives on shard `i / ceil(n/W)`. The mapping
//!   depends only on `(n, W)`, never on host scheduling.
//! * **Epoch barriers** — each shard runs until *quiescent* (every
//!   live local actor blocked on a cross-shard receive), then all
//!   workers meet at a [`Barrier`]. The leader flushes every shard's
//!   outbox in canonical order — shard index, then send order within
//!   the shard (itself deterministic: one token per shard) — delivering
//!   into the receivers' [`Port`]s and re-queuing matched receivers.
//!   A second barrier publishes the verdict: continue, done, or (all
//!   quiet, nothing delivered, live actors remain) deadlock.
//! * **Lookahead** — the conservative bound `L` (for network worlds:
//!   the minimum cross-shard link latency, `MachineNet::lookahead()`).
//!   A workload prices every cross-shard interaction at ≥ `L` of
//!   virtual time; the flusher *validates* the bound: a delivery that
//!   matches a posted receive asserts the receiver's frozen clock has
//!   not advanced past `sent_at + L`. Quiescence already guarantees no
//!   receiver computes ahead of a message it is waiting for — the
//!   assertion proves the model's latency claim, it is not load-bearing
//!   for safety.
//!
//! Bit-identity contract: per-sender order is preserved end to end
//! (shard-local FIFO → outbox append order → canonical flush), so any
//! workload whose receives use *sender-specific filters* observes the
//! same message sequence per channel as the serial schedule, and its
//! results are byte-identical for every worker count — `W = 1` *is*
//! the serial path (one shard, no cross-shard traffic, plain token
//! rotation). Workloads that race wildcard receives across senders
//! trade that guarantee away exactly as they would under MPI's
//! `ANY_SOURCE`.
//!
//! Faults follow [`crate::actors`]: a typed [`BeffError`] is an
//! isolated early exit keyed to the actor (never to a worker), any
//! other panic aborts the world and propagates.

use crate::actors::{run_actor, settle, ActorId, Outcome};
use crate::error::BeffError;
use crate::fiber::FiberStack;
use crate::pool::Workers;
use crate::port::{Message, Port, PushOutcome};
use crate::sched::{SchedAudit, SimScheduler};
use beff_sync::{Barrier, Mutex, Rank};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

/// Lock-hierarchy position (DESIGN.md §8): per-shard outbox state sits
/// *below* the port and scheduler locks — a sender appends while
/// holding nothing else, and the flusher goes outbox → port → scheduler
/// in strictly increasing level order.
static SHARD_STATE_RANK: Rank = Rank::new(25, "shard.state");

/// A message in flight with its send stamp. The engine wraps the
/// workload's message type so cross-shard deliveries carry the virtual
/// time they left the sender, for clock merging and the lookahead
/// check; the filter is the workload's own.
#[derive(Debug)]
pub struct Timed<M: Message> {
    /// Sender's virtual time at the send call.
    pub at: f64,
    /// Delivered through the epoch flush (vs. shard-local direct push).
    pub cross: bool,
    pub msg: M,
}

impl<M: Message> Message for Timed<M> {
    type Filter = M::Filter;
    fn admits(filter: &Self::Filter, msg: &Self) -> bool {
        M::admits(filter, &msg.msg)
    }
}

/// A cross-shard send parked in its shard's outbox until the epoch
/// boundary. Append order within one outbox is the shard's token order.
#[derive(Debug)]
struct OutMsg<M: Message> {
    to: ActorId,
    at: f64,
    msg: M,
}

/// The deterministic contiguous-block actor→shard mapping.
#[derive(Debug, Clone, Copy)]
pub struct ShardMap {
    n: usize,
    /// Actors per shard (last shard may be smaller).
    block: usize,
    shards: usize,
}

impl ShardMap {
    /// `n` actors over at most `workers` shards. A worker count above
    /// `n` collapses to one actor per shard.
    pub fn new(n: usize, workers: Workers) -> Self {
        assert!(n > 0, "sharded world needs at least one actor");
        let block = n.div_ceil(workers.get().min(n));
        Self { n, block, shards: n.div_ceil(block) }
    }

    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    #[inline]
    pub fn shard_of(&self, id: ActorId) -> usize {
        id / self.block
    }

    /// First actor of shard `s`.
    #[inline]
    pub fn base(&self, s: usize) -> ActorId {
        s * self.block
    }

    /// Actor count of shard `s`.
    #[inline]
    pub fn len(&self, s: usize) -> usize {
        self.block.min(self.n - self.base(s))
    }

    #[inline]
    pub fn is_empty(&self, s: usize) -> bool {
        self.len(s) == 0
    }

    /// Shard-local index of `id`.
    #[inline]
    fn local(&self, id: ActorId) -> usize {
        id - self.base(self.shard_of(id))
    }
}

/// Per-shard terminal scheduler state plus epoch statistics — the
/// sharded extension of [`SchedAudit`].
#[derive(Debug, Clone)]
pub struct ShardAudit {
    /// One terminal scheduler audit per shard, in shard order.
    pub shards: Vec<SchedAudit>,
    /// Epoch barriers crossed (flush rounds).
    pub epochs: u64,
    /// Cross-shard messages flushed over the whole run.
    pub flushed: u64,
}

/// Epoch verdicts, published by the flush leader between the two
/// barriers of each epoch.
const EPOCH_CONTINUE: u8 = 0;
const EPOCH_DONE: u8 = 1;
const EPOCH_DEADLOCK: u8 = 2;
const EPOCH_ABORT: u8 = 3;

struct Engine<M: Message> {
    map: ShardMap,
    scheds: Vec<SimScheduler>,
    ports: Vec<Port<Timed<M>>>,
    /// Per-actor virtual clock as f64 bits; written only by the owning
    /// actor, read by the flusher at quiescence (the barrier orders the
    /// accesses).
    clocks: Vec<AtomicU64>,
    outboxes: Vec<Mutex<Vec<OutMsg<M>>>>,
    barrier: Barrier,
    lookahead: f64,
    aborted: AtomicBool,
    decision: AtomicU8,
    epochs: AtomicU64,
    flushed: AtomicU64,
    /// A lookahead-bound violation found by the flusher. Recorded, not
    /// panicked: the leader must still publish a verdict or the other
    /// coordinators would wait at the barrier forever; the runner
    /// re-raises it after the world joins.
    violation: Mutex<Option<String>>,
}

impl<M: Message> Engine<M> {
    fn new(map: ShardMap, lookahead: f64, scheds: Vec<SimScheduler>) -> Self {
        assert!(lookahead >= 0.0 && lookahead.is_finite(), "lookahead must be finite and >= 0");
        Self {
            ports: (0..map.n).map(|_| Port::new()).collect(),
            clocks: (0..map.n).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
            outboxes: (0..map.shards()).map(|_| Mutex::ranked(&SHARD_STATE_RANK, Vec::new())).collect(),
            barrier: Barrier::new(map.shards()),
            map,
            scheds,
            lookahead,
            aborted: AtomicBool::new(false),
            decision: AtomicU8::new(EPOCH_CONTINUE),
            epochs: AtomicU64::new(0),
            flushed: AtomicU64::new(0),
            violation: Mutex::new(None),
        }
    }

    #[inline]
    fn clock(&self, id: ActorId) -> f64 {
        f64::from_bits(self.clocks[id].load(Ordering::Relaxed))
    }

    fn sched_of(&self, id: ActorId) -> &SimScheduler {
        &self.scheds[self.map.shard_of(id)]
    }

    /// Leader-only: drain every outbox in canonical (shard, send-order)
    /// order, deliver, validate the lookahead bound on matched
    /// receives, re-queue matched receivers, and publish the verdict.
    fn flush_and_decide(&self) {
        self.epochs.fetch_add(1, Ordering::Relaxed);
        for s in 0..self.map.shards() {
            let outbox = &self.outboxes[s];
            let drained: Vec<OutMsg<M>> = std::mem::take(&mut *outbox.lock());
            self.flushed.fetch_add(drained.len() as u64, Ordering::Relaxed);
            for m in drained {
                let receiver_now = self.clock(m.to);
                let at = m.at;
                if self.ports[m.to].push(Timed { at, cross: true, msg: m.msg })
                    == PushOutcome::Matched
                {
                    // The receiver is frozen in a posted receive for
                    // exactly this message: its clock must sit within
                    // the conservative horizon the lookahead promises.
                    if receiver_now > at + self.lookahead + 1e-9 * at.abs().max(1.0) {
                        let mut v = self.violation.lock();
                        if v.is_none() {
                            *v = Some(format!(
                                "conservative lookahead violated: actor {} waits at \
                                 t={receiver_now} for a message sent at t={at} (lookahead \
                                 {}); the workload must charge at least the lookahead per \
                                 cross-shard interaction",
                                m.to, self.lookahead,
                            ));
                        }
                        self.aborted.store(true, Ordering::SeqCst);
                    }
                    self.sched_of(m.to).unblock(self.map.local(m.to));
                }
            }
        }
        let live: usize = self.scheds.iter().map(|s| s.live_count()).sum();
        let verdict = if self.aborted.load(Ordering::SeqCst) {
            EPOCH_ABORT
        } else if live == 0 {
            EPOCH_DONE
        } else if self.scheds.iter().any(|s| s.has_ready()) {
            EPOCH_CONTINUE
        } else {
            // Global quiescence, nothing deliverable: the classic
            // distributed termination verdict, visible only here.
            EPOCH_DEADLOCK
        };
        self.decision.store(verdict, Ordering::SeqCst);
    }

    /// One shard's coordinator, on the shard's host thread: drive the
    /// shard's fibers until it quiesces, rendezvous, flush (leader),
    /// act on the verdict.
    fn coordinate(&self, shard: usize) {
        let sched = &self.scheds[shard];
        loop {
            sched.drive();
            if self.barrier.wait().is_leader() {
                self.flush_and_decide();
            }
            self.barrier.wait();
            match self.decision.load(Ordering::SeqCst) {
                EPOCH_CONTINUE => {}
                EPOCH_DONE => return,
                EPOCH_DEADLOCK => {
                    sched.declare_deadlock();
                    sched.drive();
                    return;
                }
                _ => {
                    sched.abort();
                    sched.drive();
                    return;
                }
            }
        }
    }

    fn audit(&self) -> ShardAudit {
        ShardAudit {
            shards: self.scheds.iter().map(|s| s.audit()).collect(),
            epochs: self.epochs.load(Ordering::Relaxed),
            flushed: self.flushed.load(Ordering::Relaxed),
        }
    }
}

/// Per-actor handle passed to the workload closure — the sharded twin
/// of [`crate::actors::ActorCtx`], with virtual time and messaging.
pub struct ShardCtx<'a, M: Message> {
    id: ActorId,
    shard: usize,
    eng: &'a Engine<M>,
}

impl<M: Message> ShardCtx<'_, M> {
    /// This actor's id (`0..n`).
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// The shard this actor runs on (a pure function of `(n, W)`).
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// This actor's virtual time.
    pub fn now(&self) -> f64 {
        self.eng.clock(self.id)
    }

    /// Advance this actor's virtual time by `dt` (the workload's own
    /// pricing; the engine never charges time on its own).
    pub fn advance(&self, dt: f64) {
        let t = self.now() + dt;
        self.eng.clocks[self.id].store(t.to_bits(), Ordering::Relaxed);
    }

    /// Send `msg` to actor `to`, stamped with the current virtual
    /// time. Shard-local sends deliver immediately (serial semantics);
    /// cross-shard sends park in the outbox until the epoch flush.
    pub fn send(&self, to: ActorId, msg: M) {
        let at = self.now();
        let eng = self.eng;
        if eng.map.shard_of(to) == self.shard {
            if eng.ports[to].push(Timed { at, cross: false, msg }) == PushOutcome::Matched {
                eng.scheds[self.shard].unblock(eng.map.local(to));
            }
        } else {
            let outbox = &eng.outboxes[self.shard];
            outbox.lock().push(OutMsg { to, at, msg });
        }
    }

    /// Blocking receive of the first message matching `m`, merging the
    /// sender's send stamp into this actor's clock. Raises a typed
    /// [`BeffError`] if the world deadlocks or a peer dies.
    pub fn recv(&self, m: M::Filter) -> M {
        let eng = self.eng;
        let port = &eng.ports[self.id];
        let sched = &eng.scheds[self.shard];
        let local = eng.map.local(self.id);
        let t = loop {
            if let Some(t) = port.try_recv(m) {
                break t;
            }
            if eng.aborted.load(Ordering::SeqCst) {
                BeffError::PeerFailed.raise();
            }
            let ticket = port.post(m);
            sched.yield_blocked(local); // raises Deadlock when declared
            if let Some(t) = port.take_delivered(ticket) {
                break t;
            }
            if eng.aborted.load(Ordering::SeqCst) {
                BeffError::PeerFailed.raise();
            }
        };
        let now = self.now();
        if t.at > now {
            self.eng.clocks[self.id].store(t.at.to_bits(), Ordering::Relaxed);
        }
        t.msg
    }

    /// Cooperatively rotate the token among this shard's ready actors
    /// (see [`crate::sched::SimScheduler::yield_turn`]).
    pub fn yield_turn(&self) {
        self.eng.scheds[self.shard].yield_turn(self.eng.map.local(self.id));
    }
}

/// Run `n` actors under the conservative sharded engine: each of the
/// `min(W, n)` workers is the host thread of its shard's fibers, so a
/// 10k-actor world costs `W` OS threads on x86_64, not 10k. Returns
/// id-ordered results and the per-shard audit, bit-identical at every
/// worker count (for workloads honoring the module's
/// sender-specific-filter contract). `workers` usually comes from
/// [`Workers::from_env`] (`BEFF_WORKERS`).
///
/// Faults mirror [`crate::actors::try_run_actors`] exactly — keyed to
/// the actor id, never to the worker that happened to host its shard.
pub fn try_run_sharded<M, R, F>(
    n: usize,
    workers: Workers,
    lookahead: f64,
    f: F,
) -> (Vec<Result<R, BeffError>>, ShardAudit)
where
    M: Message,
    R: Send,
    F: Fn(ShardCtx<'_, M>) -> R + Sync,
{
    crate::error::silence_fault_panics();
    let map = ShardMap::new(n, workers);
    let scheds: Vec<SimScheduler> =
        (0..map.shards()).map(|s| SimScheduler::new_coordinated(map.len(s))).collect();
    let eng = &Engine::new(map, lookahead, scheds);
    let f = &f;
    let run_shard = |shard: usize| -> Vec<Outcome<R>> {
        let sched = &eng.scheds[shard];
        let base = map.base(shard);
        let stacks = FiberStack::set(map.len(shard));
        let actor = |local: usize| {
            let ctx = ShardCtx { id: base + local, shard, eng };
            run_actor(
                || f(ctx),
                || {
                    eng.aborted.store(true, Ordering::SeqCst);
                    sched.abort();
                },
            )
        };
        sched.launch_with(&stacks, actor, || eng.coordinate(shard))
    };
    // Contiguous blocks: shard order is id order.
    let outcomes: Vec<Outcome<R>> = std::thread::scope(|scope| {
        let run_shard = &run_shard;
        let workers: Vec<_> =
            (0..map.shards()).map(|shard| scope.spawn(move || run_shard(shard))).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|bug| std::panic::resume_unwind(bug)))
            .collect()
    });
    let audit = eng.audit();
    if let Some(msg) = eng.violation.lock().take() {
        panic!("{msg}");
    }
    (settle(outcomes), audit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Ring workload message: matched on the sender id (the
    /// sender-specific-filter contract the determinism argument needs).
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Hop {
        from: usize,
        round: u32,
        acc: f64,
    }

    #[derive(Debug, Clone, Copy)]
    struct From(usize);

    impl Message for Hop {
        type Filter = From;
        fn admits(f: &From, m: &Hop) -> bool {
            m.from == f.0
        }
    }

    const LOOKAHEAD: f64 = 1e-6;

    /// The reference workload: a ring of `n` actors, each round every
    /// actor advances one lookahead, sends its accumulator to its right
    /// neighbor and folds in the value from its left neighbor. Returns
    /// per-actor f64 bits — any schedule divergence shows up bitwise.
    fn ring(n: usize, rounds: u32) -> impl Fn(ShardCtx<'_, Hop>) -> (u64, u64) + Sync {
        move |ctx| {
            let id = ctx.id();
            let right = (id + 1) % n;
            let left = (id + n - 1) % n;
            let mut acc = id as f64 + 1.0;
            for round in 0..rounds {
                ctx.advance(LOOKAHEAD);
                ctx.send(right, Hop { from: id, round, acc });
                let got = ctx.recv(From(left));
                assert_eq!(got.round, round);
                acc = acc * 0.5 + got.acc * 0.5 + 1.0 / (1.0 + round as f64);
            }
            (acc.to_bits(), ctx.now().to_bits())
        }
    }

    fn run_ring(n: usize, w: usize) -> Vec<Result<(u64, u64), BeffError>> {
        try_run_sharded(n, Workers::new(w), LOOKAHEAD, ring(n, 16)).0
    }

    #[test]
    fn shard_map_is_contiguous_and_total() {
        let map = ShardMap::new(10, Workers::new(4));
        assert_eq!(map.shards(), 4);
        let shards: Vec<usize> = (0..10).map(|i| map.shard_of(i)).collect();
        assert_eq!(shards, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        let total: usize = (0..map.shards()).map(|s| map.len(s)).sum();
        assert_eq!(total, 10);
        assert_eq!(ShardMap::new(4, Workers::new(8)).shards(), 4);
        assert_eq!(ShardMap::new(7, Workers::new(1)).shards(), 1);
    }

    #[test]
    fn ring_results_are_worker_count_invariant() {
        let serial = run_ring(12, 1);
        assert!(serial.iter().all(|r| r.is_ok()));
        for w in [2, 3, 4, 8] {
            assert_eq!(serial, run_ring(12, w), "ring diverged at {w} workers");
        }
    }

    #[test]
    fn audit_accounts_per_shard_and_balances() {
        let (results, audit) =
            try_run_sharded(8, Workers::new(4), LOOKAHEAD, ring(8, 4));
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(audit.shards.len(), 4);
        assert!(audit.epochs > 0, "a 4-shard ring must cross epoch barriers");
        assert!(audit.flushed > 0, "a 4-shard ring must flush cross-shard messages");
        for a in &audit.shards {
            assert_eq!((a.live, a.finished), (0, 2));
            assert!(!a.deadlocked && !a.aborted);
        }
    }

    #[test]
    fn global_deadlock_is_detected_across_shards() {
        // Everyone receives from a peer on another shard; nobody sends.
        let (results, audit) = try_run_sharded::<Hop, _, _>(
            4,
            Workers::new(2),
            LOOKAHEAD,
            |ctx: ShardCtx<'_, Hop>| {
                let peer = (ctx.id() + 2) % 4; // always the other shard
                ctx.recv(From(peer));
            },
        );
        assert_eq!(results.len(), 4);
        for r in results {
            assert!(matches!(r, Err(BeffError::Deadlock)), "got {r:?}");
        }
        assert!(audit.shards.iter().all(|a| a.deadlocked && a.live == 0), "{audit:?}");
    }

    #[test]
    fn typed_fault_is_isolated_per_actor_not_per_worker() {
        let run = |w: usize| {
            try_run_sharded::<Hop, _, _>(
                6,
                Workers::new(w),
                LOOKAHEAD,
                |ctx: ShardCtx<'_, Hop>| {
                    if ctx.id() == 2 {
                        BeffError::RankCrashed { rank: 2, at: 0.25 }.raise();
                    }
                    ctx.advance(LOOKAHEAD);
                    ctx.id() * 10
                },
            )
            .0
        };
        let serial = run(1);
        assert!(matches!(serial[2], Err(BeffError::RankCrashed { rank: 2, .. })));
        assert_eq!(serial[5], Ok(50));
        for w in [2, 3] {
            assert_eq!(serial, run(w), "fault outcomes diverged at {w} workers");
        }
    }

    #[test]
    fn untyped_panic_aborts_the_world_and_propagates() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            try_run_sharded::<Hop, _, _>(
                4,
                Workers::new(2),
                LOOKAHEAD,
                |ctx: ShardCtx<'_, Hop>| {
                    if ctx.id() == 1 {
                        panic!("workload bug");
                    }
                    // Survivors block cross-shard so the abort must
                    // reach them through the epoch machinery.
                    let peer = (ctx.id() + 2) % 4;
                    ctx.recv(From(peer));
                },
            )
        }));
        let payload = r.expect_err("bug panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "workload bug");
    }

    #[test]
    fn lookahead_violation_is_caught() {
        // Actor 1 races its clock far past the bound, then posts a
        // receive for a cross-shard message stamped near t=0: the
        // flusher must refuse the model's broken latency claim.
        let r = catch_unwind(AssertUnwindSafe(|| {
            try_run_sharded::<Hop, _, _>(
                2,
                Workers::new(2),
                LOOKAHEAD,
                |ctx: ShardCtx<'_, Hop>| {
                    if ctx.id() == 0 {
                        ctx.send(1, Hop { from: 0, round: 0, acc: 0.0 });
                    } else {
                        ctx.advance(1000.0 * LOOKAHEAD);
                        ctx.recv(From(0));
                    }
                },
            )
        }));
        assert!(r.is_err(), "a violated lookahead bound must not pass silently");
    }

    /// The scale target: a 10k-actor world must fit tier-1 timeouts.
    /// Fibers make this cheap — `W` OS threads and 10k lazily-committed
    /// stacks — and the epoch count stays equal to the round count
    /// regardless of scale.
    #[test]
    fn ten_thousand_ranks_fit_tier1_timeouts() {
        let n = 10_000;
        let (results, audit) =
            try_run_sharded(n, Workers::new(4), LOOKAHEAD, ring(n, 3));
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(audit.shards.len(), 4);
        // The rightward ring crosses each of the 4 shard boundaries
        // once per round.
        assert_eq!(audit.flushed, 3 * 4);
    }

    #[test]
    fn virtual_clocks_merge_on_receive() {
        let (results, _) = try_run_sharded::<Hop, _, _>(
            2,
            Workers::new(2),
            1.0,
            |ctx: ShardCtx<'_, Hop>| {
                if ctx.id() == 0 {
                    ctx.advance(5.0);
                    ctx.send(1, Hop { from: 0, round: 0, acc: 0.0 });
                    ctx.now()
                } else {
                    ctx.recv(From(0));
                    ctx.now() // merged to the sender's send stamp
                }
            },
        );
        let times: Vec<f64> = results.into_iter().map(|r| r.expect("no faults")).collect();
        assert_eq!(times, vec![5.0, 5.0]);
    }
}
