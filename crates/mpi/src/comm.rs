//! The communicator: the MPI-like API the benchmarks are written
//! against.
//!
//! A [`Comm`] is one rank's handle on a communication context. It
//! bundles the world-shared mailboxes, the rank's clock, and a context
//! id that isolates message matching between communicators (so
//! `split`/`dup` behave like MPI communicators). Routes come from the
//! rank's own cache of peer routes (`RankState`), which falls back to
//! the machine-wide shared table (`MachineNet::split_route`) on a miss.
//!
//! Two send flavors exist:
//!
//! * [`Comm::send`] / [`Comm::isend`] — *semantic* messages whose bytes
//!   matter (reductions, control records); bytes always travel.
//! * [`Comm::payload_send`] / [`Comm::payload_isend`] — *benchmark
//!   traffic*: with `copy_data = false`, only the length travels, so
//!   simulating a 512-proc machine does not shovel real gigabytes
//!   through host memory.
//!
//! Barriers and allreduces send nothing: the ranks meet on the
//! communicator's persistent rendezvous board (`CollBoard`), the slot of
//! its context id in the world's one board table, made when the first
//! handle on the communicator is, in one of two generations picked by
//! the parity of the handle's rendezvous counter.
//!
//! Virtual-time accounting:
//!
//! * send: `clock += o_send`, then the network price is computed; the
//!   clock waits until the sender-side port is free (`injected`) —
//!   buffered-eager semantics;
//! * recv: `clock = max(clock, arrival) + o_recv`.

use crate::collectives::ReduceOp;
use crate::engine::{EngineCfg, RankState};
use crate::mailbox::{Mailbox, Match, PushOutcome};
use crate::message::{Envelope, Payload, RecvInfo, Tag, COLLECTIVE_BASE};
use crate::wire;
use beff_faults::{BeffError, FaultSession};
use beff_netsim::MachineNet;
use beff_sim::{Secs, SimScheduler};
use beff_sync::{Claim, Mutex, Rank};
use std::cell::RefCell;

/// Lock-hierarchy position (DESIGN.md §8). The board table is acquired
/// first, before any mailbox or scheduler lock.
static BOARDS_RANK: Rank = Rank::new(20, "mpi.boards");
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Wire-level fault prologue for a simulated send: dead routes and
/// transient drops, with bounded exponential-backoff retransmission.
///
/// A dropped copy is not free — it occupies the sender's egress wires
/// (the lost bytes really flowed) and then the sender waits out the
/// retransmission timeout (`rto * 2^attempt`) before trying again. A
/// permanently dead link on the route can never succeed: after the
/// retransmit budget the sender raises [`BeffError::LinkDead`];
/// transient-drop exhaustion raises [`BeffError::RetransmitExhausted`].
/// Drop decisions hash (seed, src, dst, seq, attempt) — no shared RNG,
/// so the schedule is independent of rank interleaving and replays
/// bit-identically.
fn wire_fault_delay(
    st: &mut RankState,
    net: &Arc<MachineNet>,
    fs: &Arc<FaultSession>,
    wsrc: usize,
    wdst: usize,
    bytes: u64,
) {
    let plan = fs.plan();
    let sr = st.routes.get(wdst, || net.split_route(wsrc, wdst));
    let links = net.links();
    let route_dead = sr
        .egress
        .iter()
        .chain(sr.ingress.iter())
        .any(|&l| links[l].is_dead());
    let max = plan.max_retransmits();
    let rto = plan.rto();
    let seq = fs.next_seq(wsrc);
    let mut attempt: u32 = 0;
    loop {
        if route_dead {
            fs.note_drop();
            if attempt >= max {
                BeffError::LinkDead { src: wsrc, dst: wdst, attempts: attempt + 1 }.raise();
            }
        } else if plan.should_drop(wsrc, wdst, seq, attempt) {
            fs.note_drop();
            if attempt >= max {
                BeffError::RetransmitExhausted { src: wsrc, dst: wdst, attempts: attempt + 1 }
                    .raise();
            }
            // The lost copy still crossed the sender's egress wires.
            let eg = net.price_egress(&sr.egress, bytes, st.clock.now());
            st.clock.advance_to(eg.injected);
        } else {
            return;
        }
        st.clock.advance(rto * (1u64 << attempt.min(16)) as f64);
        fs.note_retransmit();
        attempt += 1;
    }
}

/// What the last arriver of a rendezvous makes of the contributions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fold {
    /// A barrier: nothing posted, nothing returned; one sweep.
    Barrier,
    /// Every rank leaves with the contributions reduced by the operator
    /// (reduce + bcast: two sweeps).
    Reduce(ReduceOp),
    /// One value a rank; each leaves with `[the sum of the values of the
    /// ranks before it, the sum of all]`, running sums in rank order from
    /// 0.0. Priced like the allreduce it stands in for (two sweeps).
    ExScanSum,
    /// The agreement of a run of rounds ([`Comm::allreduce_rounds`]):
    /// reduced with `Max` like an allreduce, and each rank leaves with the
    /// result followed by its own contribution as the rounds left it.
    Rounds,
}

/// One generation of a communicator's rendezvous board: the state of
/// one simulated collective from its first arrival to its last exit.
/// Under the token scheduler exactly one rank runs at a time, so it
/// sees a deterministic arrival order; the reduction is nevertheless
/// applied in *rank* order so the result would not change even if the
/// arrival order did.
#[derive(Default)]
struct Generation {
    /// Contribution length of the collective in flight (0: a barrier),
    /// set by its first arriver.
    width: usize,
    /// Per ctx-rank contributions, `width` values each, flat.
    vals: Vec<f64>,
    /// Per ctx-rank virtual arrival time.
    t_arrive: Vec<Secs>,
    arrived: usize,
    /// Set by the last arriver: the common exit time; the reduced
    /// vector is then in `result`.
    t_exit: Option<Secs>,
    result: Vec<f64>,
    /// Ranks that have picked up the result; the last one re-arms the
    /// generation.
    exited: usize,
}

impl Generation {
    /// Record ctx-rank `rank`'s arrival at `now` with `contrib`; true
    /// for the last of the `n` ranks. The buffers grow on a
    /// communicator's first collectives and are reused from then on.
    fn post(&mut self, n: usize, rank: usize, now: Secs, contrib: &[f64]) -> bool {
        if self.arrived == 0 {
            self.width = contrib.len();
            self.vals.resize(n * self.width, 0.0);
            self.result.resize(self.width, 0.0);
            self.t_arrive.resize(n, 0.0);
        }
        assert_eq!(contrib.len(), self.width, "reduction length mismatch");
        self.vals[rank * self.width..][..self.width].copy_from_slice(contrib);
        self.t_arrive[rank] = now;
        self.arrived += 1;
        self.arrived == n
    }

    /// The last arriver's step: fold the contributions in rank order
    /// and return the latest arrival.
    fn fold(&mut self, fold: Fold) -> Secs {
        match fold {
            Fold::Reduce(op) if self.width > 0 => self.reduce(op),
            Fold::Rounds => self.reduce(ReduceOp::Max),
            Fold::ExScanSum => {
                // each rank's value becomes the sum of those before it
                let mut sum = 0.0;
                for v in &mut self.vals {
                    (*v, sum) = (sum, sum + *v);
                }
                self.result[0] = sum;
            }
            _ => debug_assert_eq!(self.width, 0, "barrier carries no data"),
        }
        self.t_arrive.iter().fold(0.0_f64, |a, &t| a.max(t))
    }

    fn reduce(&mut self, op: ReduceOp) {
        let (first, rest) = self.vals.split_at(self.width);
        self.result.copy_from_slice(first);
        rest.chunks_exact(self.width).for_each(|v| op.apply(&mut self.result, v))
    }

    /// Publish the folded collective for the waiters: the common exit
    /// `t_exit`, with ctx-rank `rank`'s share copied into `out` and the
    /// caller's own exit counted.
    fn publish(&mut self, t_exit: Secs, fold: Fold, rank: usize, out: &mut [f64]) -> Secs {
        self.share(fold, rank, out);
        (self.t_exit, self.exited) = (Some(t_exit), 1);
        t_exit
    }

    /// What ctx-rank `rank` leaves a published collective with.
    fn share(&self, fold: Fold, rank: usize, out: &mut [f64]) {
        match fold {
            Fold::ExScanSum => out.copy_from_slice(&[self.vals[rank], self.result[0]]),
            Fold::Rounds => {
                let (agreed, own) = out.split_at_mut(self.width);
                agreed.copy_from_slice(&self.result);
                own.copy_from_slice(&self.vals[rank * self.width..][..self.width]);
            }
            _ => out.copy_from_slice(&self.result),
        }
    }

    /// The published exit time, if the collective is complete, with
    /// ctx-rank `rank`'s share copied into `out` and its exit counted —
    /// the last of the `n` ranks out re-arms the generation.
    fn pick_up(&mut self, n: usize, fold: Fold, rank: usize, out: &mut [f64]) -> Option<Secs> {
        let t_exit = self.t_exit?;
        self.share(fold, rank, out);
        self.exited += 1;
        if self.exited == n {
            (self.arrived, self.exited, self.t_exit) = (0, 0, None);
        }
        Some(t_exit)
    }
}

/// A communicator's rendezvous board: persistent, the slot of its
/// context id in [`WorldShared`]'s board table, so an arrival looks
/// nothing up and — once the buffers have grown to the widest
/// collective — allocates nothing.
///
/// Two generations, picked by the parity of the handle's rendezvous
/// counter. One is not enough: the last arriver of collective *k* keeps
/// the token and may arrive at *k*+1 before any waiter has run again to
/// read *k*. Two are: *k*+2 cannot see its first arrival until some
/// rank has left *k*+1, which was published only after every rank had
/// arrived there — that is, had left *k* and re-armed its generation.
type CollBoard = [Generation; 2];

/// Every round of a batched run of rounds, in closed form: round `k`'s
/// agreement exit (`t_agreed` for the first; for later ones what
/// `Generation::fold` gives when every rank arrives at the last
/// barrier's exit, plus two sweeps), each rank's `step` on its `width`
/// values of `slots`, in the token order the per-round schedule runs them,
/// and the closing barrier (the latest completion plus one sweep).
/// Returns the last barrier's exit and the ctx rank that published it.
///
/// The token order: the agreement's publisher keeps the token and steps
/// first, then its peers in ctx order, as [`SimScheduler::unblock_all`]
/// queued them; the last of them publishes the barrier, keeps the token
/// and posts first at the next agreement, whose publisher is therefore
/// the last rank in ctx order other than it. Steps booked at one virtual
/// time land on shared resources in this order, so the order shows in
/// the results.
#[allow(clippy::too_many_arguments)]
fn book_rounds(
    slots: &mut [f64],
    width: usize,
    ranks: &[usize],
    first: usize,
    mut t_agreed: Secs,
    sweep: Secs,
    rounds: u64,
    mut step: impl FnMut(usize, &mut [f64], Secs) -> Secs,
) -> (Secs, usize) {
    let n = ranks.len();
    // the last rank in ctx order other than `r`
    let last_but = |r: usize| if r == n - 1 { n - 2 } else { n - 1 };
    let (mut publisher, mut holder, mut t_exit) = (first, first, t_agreed);
    for round in 0..rounds {
        if round > 0 {
            t_agreed = t_exit + sweep * 2.0;
        }
        let order = std::iter::once(publisher).chain((0..n).filter(|&r| r != publisher));
        let latest = order.fold(0.0_f64, |latest, r| {
            let done = step(ranks[r], &mut slots[r * width..][..width], t_agreed);
            latest.max(t_agreed.max(done))
        });
        t_exit = latest + sweep;
        holder = last_but(publisher);
        publisher = last_but(holder);
    }
    (t_exit, holder)
}

/// State shared by every rank of a world (created by the runtime).
pub struct WorldShared {
    pub(crate) mailboxes: Vec<Mailbox>,
    /// The world communicator's rank map (the identity), built once
    /// and shared by every rank's [`Comm::world`] handle.
    world_ranks: Arc<Vec<usize>>,
    /// Shared engine config: one allocation per `World`, reference-
    /// counted into every rebuilt `WorldShared` instead of recloned
    /// (session checkout must not pay a config deep-clone per run).
    pub(crate) engine: Arc<EngineCfg>,
    pub(crate) next_ctx: AtomicU32,
    /// Deterministic token scheduler: one rank runs at a time.
    pub(crate) sched: SimScheduler,
    /// The rendezvous board of every communicator made so far, by
    /// context id (ids are handed out densely, from 0).
    boards: Mutex<Vec<CollBoard>>,
}

impl WorldShared {
    pub fn new(n: usize, engine: Arc<EngineCfg>) -> Self {
        Self {
            mailboxes: (0..n).map(|_| Mailbox::new()).collect(),
            world_ranks: Arc::new((0..n).collect()),
            // ctx 0 is the world communicator
            next_ctx: AtomicU32::new(1),
            sched: SimScheduler::new(n),
            engine,
            boards: Mutex::ranked(&BOARDS_RANK, Vec::new()),
        }
    }

    /// Hold what every message and every collective arrival touches
    /// for a run: each rank's mailbox, the board table and the
    /// machine's link ledger (the runtime takes these through
    /// [`SimScheduler::claim_for_run`]).
    pub(crate) fn claim(&self) -> Vec<Claim<'_>> {
        let shared = [self.boards.claim(), self.engine.net.ledger().claim()];
        self.mailboxes.iter().map(Mailbox::claim).chain(shared).collect()
    }

    /// Make the board of communicator `ctx` if none of its ranks has
    /// yet: its slot in the table is its context id.
    fn make_board(&self, ctx: u32) {
        let mut boards = self.boards.lock();
        let len = boards.len().max(ctx as usize + 1);
        boards.resize_with(len, Default::default);
    }
}

/// A nonblocking send in flight.
#[must_use = "a send request must be waited on"]
#[derive(Debug)]
pub struct SendReq {
    injected: Secs,
}

/// A nonblocking receive in flight.
#[must_use = "a recv request must be waited on"]
#[derive(Debug)]
pub struct RecvReq {
    m: Match,
}

/// One rank's handle on one communicator.
pub struct Comm {
    shared: Arc<WorldShared>,
    state: Rc<RefCell<RankState>>,
    ctx: u32,
    rank: usize,
    /// ctx rank -> world rank
    ranks: Arc<Vec<usize>>,
    coll_seq: u32,
    /// How many rendezvous this handle has been through: the parity
    /// picks the generation of the communicator's board.
    rendezvous: u32,
    /// Virtual-time cost of one synchronization sweep over this
    /// communicator ([`sim_sweep_cost`](Self::sim_sweep_cost)): a pure function
    /// of `ranks`, worked out by the first rendezvous this handle is
    /// the last arriver of.
    sweep_cost: Option<Secs>,
}

impl Comm {
    /// Build the world communicator handle for `rank` (runtime use).
    pub(crate) fn world(shared: Arc<WorldShared>, rank: usize) -> Self {
        let state = Rc::new(RefCell::new(RankState::new()));
        let ranks = Arc::clone(&shared.world_ranks);
        Self::on_ctx(shared, state, 0, rank, ranks)
    }

    fn on_ctx(
        shared: Arc<WorldShared>,
        state: Rc<RefCell<RankState>>,
        ctx: u32,
        rank: usize,
        ranks: Arc<Vec<usize>>,
    ) -> Self {
        shared.make_board(ctx);
        Self { shared, state, ctx, rank, ranks, coll_seq: 0, rendezvous: 0, sweep_cost: None }
    }

    // ----- introspection ------------------------------------------------

    /// This rank's number within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// This rank's number in the world communicator.
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.ranks[self.rank]
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> Secs {
        self.state.borrow().clock.now()
    }

    /// Model local computation taking `dt` seconds. A straggler rank's
    /// computation is stretched by its fault-plan multiplier.
    pub fn compute(&mut self, dt: Secs) {
        let dt = match &self.shared.engine.faults {
            Some(fs) => dt * fs.plan().compute_mult(self.world_rank()),
            None => dt,
        };
        self.state.borrow_mut().clock.advance(dt);
    }

    /// Move the virtual clock to `t` if `t` is in the future. Used by
    /// sibling layers (e.g. MPI-IO) that price their own operations
    /// against shared resources.
    pub fn advance_to(&mut self, t: Secs) {
        self.state.borrow_mut().clock.advance_to(t);
    }

    // ----- point to point -----------------------------------------------

    fn deliver(&self, dst: usize, tag: Tag, head: Secs, arrival: Secs, payload: Payload) {
        let wdst = self.ranks[dst];
        let outcome = self.shared.mailboxes[wdst].push(Envelope {
            ctx: self.ctx,
            src: self.rank,
            tag,
            head,
            arrival,
            payload,
        });
        // Targeted wakeup: only a push that completed a posted receive
        // makes the receiver runnable again. Queued pushes wake no one.
        if outcome == PushOutcome::Matched {
            self.shared.sched.unblock(wdst);
        }
    }

    /// Blocking receive from this rank's mailbox: releases the
    /// scheduler token while blocked so another rank can make progress
    /// deterministically.
    fn blocking_recv(&self, m: Match) -> Envelope {
        let wr = self.world_rank();
        if let Some(fs) = &self.shared.engine.faults {
            let now = self.state.borrow().clock.now();
            if let Some(err) = fs.crash_check(wr, now) {
                err.raise();
            }
        }
        let (mb, sched) = (&self.shared.mailboxes[wr], &self.shared.sched);
        loop {
            // Raises PeerFailed if the world died.
            let ticket = match mb.recv_or_post(m) {
                Ok(env) => return env,
                Err(ticket) => ticket,
            };
            sched.yield_blocked(wr);
            // Woken: either our slot was filled, or the world died.
            if let Some(env) = mb.take_delivered(ticket) {
                return env;
            }
        }
    }

    /// Price and deliver; returns sender-free time.
    fn do_send(&mut self, dst: usize, tag: Tag, payload: Payload) -> Secs {
        assert!(dst < self.size(), "send to rank {dst} of {}", self.size());
        let EngineCfg { net, faults, .. } = self.shared.engine.as_ref();
        let (injected, head, finish) = {
            let mut st = self.state.borrow_mut();
            let wsrc = self.ranks[self.rank];
            let wdst = self.ranks[dst];
            match faults {
                None => st.clock.advance(net.params().o_send),
                Some(fs) => {
                    if let Some(err) = fs.crash_check(wsrc, st.clock.now()) {
                        drop(st);
                        err.raise();
                    }
                    st.clock.advance(net.params().o_send * fs.plan().overhead_mult(wsrc));
                    if fs.plan().has_wire_faults() {
                        wire_fault_delay(&mut st, net, fs, wsrc, wdst, payload.len());
                    }
                }
            }
            let t0 = st.clock.now();
            let sr = st.routes.get(wdst, || net.split_route(wsrc, wdst));
            let eg = net.price_egress(&sr.egress, payload.len(), t0);
            (eg.injected, eg.head, eg.finish)
        };
        self.deliver(dst, tag, head, finish, payload);
        injected
    }

    /// Blocking semantic send: bytes always travel.
    pub fn send(&mut self, dst: usize, tag: Tag, data: &[u8]) {
        self.send_vec(dst, tag, data.to_vec());
    }

    /// [`send`](Self::send) of a buffer the caller gives up: it becomes
    /// the message, uncopied.
    pub fn send_vec(&mut self, dst: usize, tag: Tag, data: Vec<u8>) {
        let injected = self.do_send(dst, tag, Payload::Data(data));
        self.state.borrow_mut().clock.advance_to(injected);
    }

    /// Blocking benchmark send: bytes travel only if the engine copies
    /// payload data.
    pub fn payload_send(&mut self, dst: usize, tag: Tag, data: &[u8]) {
        let p = self.make_payload(data);
        let injected = self.do_send(dst, tag, p);
        self.state.borrow_mut().clock.advance_to(injected);
    }

    /// Nonblocking semantic send.
    pub fn isend(&mut self, dst: usize, tag: Tag, data: &[u8]) -> SendReq {
        SendReq { injected: self.do_send(dst, tag, Payload::Data(data.to_vec())) }
    }

    /// Nonblocking benchmark send.
    pub fn payload_isend(&mut self, dst: usize, tag: Tag, data: &[u8]) -> SendReq {
        let p = self.make_payload(data);
        SendReq { injected: self.do_send(dst, tag, p) }
    }

    fn make_payload(&self, data: &[u8]) -> Payload {
        if self.copies_payload() {
            Payload::Data(data.to_vec())
        } else {
            Payload::Len(data.len() as u64)
        }
    }

    /// Does benchmark traffic carry real bytes? When `false`, kernels
    /// may use the `*_len` fast paths and zero-length receive buffers.
    pub fn copies_payload(&self) -> bool {
        self.shared.engine.copy_data
    }

    /// Blocking benchmark send of `len` synthetic bytes. Only valid in
    /// no-copy mode.
    pub fn payload_send_len(&mut self, dst: usize, tag: Tag, len: u64) {
        assert!(!self.copies_payload(), "payload_send_len requires no-copy sim mode");
        let injected = self.do_send(dst, tag, Payload::Len(len));
        self.state.borrow_mut().clock.advance_to(injected);
    }

    /// Nonblocking variant of [`payload_send_len`](Self::payload_send_len).
    pub fn payload_isend_len(&mut self, dst: usize, tag: Tag, len: u64) -> SendReq {
        assert!(!self.copies_payload(), "payload_isend_len requires no-copy sim mode");
        SendReq { injected: self.do_send(dst, tag, Payload::Len(len)) }
    }

    /// Complete a nonblocking send.
    pub fn wait_send(&mut self, req: SendReq) {
        self.state.borrow_mut().clock.advance_to(req.injected);
    }

    /// Apply receive timing: drain the message through the receiver's
    /// ingress resources (its node memory + port-in), then pay o_recv.
    fn apply_recv_time(&mut self, env: &Envelope) {
        let EngineCfg { net, faults, .. } = self.shared.engine.as_ref();
        let mut st = self.state.borrow_mut();
        let wsrc = self.ranks[env.src];
        let wdst = self.ranks[self.rank];
        let ingress = net.topology().ingress(wsrc, wdst);
        let done = net.price_ingress(&ingress, env.payload.len(), env.head, env.arrival);
        st.clock.advance_to(done);
        match faults {
            None => st.clock.advance(net.params().o_recv),
            Some(fs) => st.clock.advance(net.params().o_recv * fs.plan().overhead_mult(wdst)),
        }
    }

    /// Blocking receive into `buf`. `src`/`tag` of `None` are wildcards.
    /// Panics if the message is longer than `buf`.
    pub fn recv(&mut self, src: Option<usize>, tag: Option<Tag>, buf: &mut [u8]) -> RecvInfo {
        let env = self.blocking_recv(Match { ctx: self.ctx, src, tag });
        self.apply_recv_time(&env);
        let len = env.payload.len();
        if let Payload::Data(d) = &env.payload {
            assert!(d.len() <= buf.len(), "recv buffer too small: {} < {}", buf.len(), d.len());
            buf[..d.len()].copy_from_slice(d);
        }
        RecvInfo { src: env.src, tag: env.tag, len }
    }

    /// Blocking receive returning an owned payload (semantic paths).
    pub fn recv_vec(&mut self, src: Option<usize>, tag: Option<Tag>) -> (Vec<u8>, RecvInfo) {
        let env = self.blocking_recv(Match { ctx: self.ctx, src, tag });
        self.apply_recv_time(&env);
        let info = RecvInfo { src: env.src, tag: env.tag, len: env.payload.len() };
        let data = match env.payload {
            Payload::Data(d) => d,
            Payload::Len(_) => Vec::new(),
        };
        (data, info)
    }

    /// Post a nonblocking receive.
    pub fn irecv(&mut self, src: Option<usize>, tag: Option<Tag>) -> RecvReq {
        RecvReq { m: Match { ctx: self.ctx, src, tag } }
    }

    /// Complete a nonblocking receive.
    pub fn wait_recv(&mut self, req: RecvReq) -> (Vec<u8>, RecvInfo) {
        let env = self.blocking_recv(req.m);
        self.apply_recv_time(&env);
        let info = RecvInfo { src: env.src, tag: env.tag, len: env.payload.len() };
        let data = match env.payload {
            Payload::Data(d) => d,
            Payload::Len(_) => Vec::new(),
        };
        (data, info)
    }

    /// Combined send+receive (both transfers may overlap), the
    /// `MPI_Sendrecv` the b_eff ring kernels use. Benchmark-payload
    /// semantics on both sides.
    pub fn payload_sendrecv(
        &mut self,
        dst: usize,
        stag: Tag,
        sdata: &[u8],
        src: Option<usize>,
        rtag: Option<Tag>,
        rbuf: &mut [u8],
    ) -> RecvInfo {
        let sreq = self.payload_isend(dst, stag, sdata);
        let info = self.recv(src, rtag, rbuf);
        self.wait_send(sreq);
        info
    }

    /// Semantic sendrecv (bytes travel).
    pub fn sendrecv(
        &mut self,
        dst: usize,
        stag: Tag,
        sdata: &[u8],
        src: Option<usize>,
        rtag: Option<Tag>,
    ) -> (Vec<u8>, RecvInfo) {
        let sreq = self.isend(dst, stag, sdata);
        let out = self.recv_vec(src, rtag);
        self.wait_send(sreq);
        out
    }

    // ----- collective support --------------------------------------------

    /// Allocate the tag for the next collective operation. All ranks
    /// call collectives in the same order per communicator, so the
    /// sequence numbers agree.
    pub(crate) fn next_coll_tag(&mut self) -> Tag {
        self.coll_seq = self.coll_seq.wrapping_add(1);
        COLLECTIVE_BASE + (self.coll_seq & 0x3FFF_FFFF)
    }

    /// Allocate a fresh collective-protocol tag for a sibling layer
    /// (e.g. the MPI-IO two-phase exchange). Same agreement contract as
    /// collectives: all ranks must allocate in the same order.
    pub fn alloc_tag(&mut self) -> Tag {
        self.next_coll_tag()
    }

    /// Closed-form virtual-time cost of one synchronization sweep over
    /// `ranks`: ⌈log₂ n⌉ dissemination/tree rounds of a small message,
    /// each paying both CPU overheads plus the link latencies of the
    /// round's doubling-distance route. Read-only on the network — the
    /// synchronization traffic does not occupy links, so the measured
    /// region that follows starts from the idle network the benchmark's
    /// barrier is there to provide.
    fn sim_sweep_cost(net: &MachineNet, ranks: &[usize]) -> Secs {
        let p = net.params();
        let mut per_sweep = 0.0;
        let mut k = 1usize;
        while k < ranks.len() {
            let lat = net.route_latency(ranks[0], ranks[k]);
            per_sweep += p.o_send + lat + p.o_recv;
            k <<= 1;
        }
        per_sweep
    }

    /// The collective rendezvous: instead of ⌈log₂ n⌉ rounds of
    /// point-to-point traffic (each round a token handoff per rank),
    /// every rank posts `contrib` on the communicator's board and parks
    /// once; the last arriver folds the contributions in rank order
    /// ([`Fold`]), prices the collective in closed form
    /// ([`sim_sweep_cost`](Self::sim_sweep_cost)) and re-queues the
    /// waiters; every rank leaves with its share of the fold in `out`
    /// (a barrier: both slices empty). One
    /// scheduler yield per rank, zero mailbox traffic, no allocation,
    /// bit-deterministic. The last arriver takes `mpi.boards` once
    /// (post, reduce, publish and count its own exit in one go) and
    /// `sched.state` once for all its peers; a waiter takes
    /// `mpi.boards` twice (post; pick up the result and count its exit)
    /// and `sched.state` once — on the asm backend all of them claimed
    /// by the world for its run.
    pub(crate) fn sim_rendezvous(&mut self, contrib: &[f64], out: &mut [f64], fold: Fold) {
        let n = self.size();
        debug_assert!(n > 1, "rendezvous on a singleton communicator");
        let now = self.now();
        let gen = self.next_generation();
        let (board, me) = (self.ctx as usize, self.rank);
        let Self { shared, ranks, sweep_cost, .. } = self;
        let published = {
            let mut boards = shared.boards.lock();
            let g = &mut boards[board][gen];
            g.post(n, me, now, contrib).then(|| {
                let sweep =
                    *sweep_cost.get_or_insert_with(|| Self::sim_sweep_cost(&shared.engine.net, ranks));
                // Barrier costs one dissemination sweep; allreduce is
                // modeled as reduce + bcast (two tree sweeps), and so is
                // the scan.
                let sweeps = if fold == Fold::Barrier { 1.0 } else { 2.0 };
                let latest = g.fold(fold);
                g.publish(latest + sweep * sweeps, fold, me, out)
            })
        };
        let t_exit = match published {
            Some(t_exit) => {
                self.release_peers();
                t_exit
            }
            None => self.await_exit(gen, fold, out),
        };
        self.advance_to(t_exit);
    }

    /// A run of `rounds` rounds as one rendezvous
    /// ([`allreduce_rounds`](Self::allreduce_rounds)): the first
    /// agreement is a real one on the board; if `batch` accepts its fold,
    /// its last arriver books every rank's `step` of every round in
    /// closed form ([`book_rounds`]), off the board lock, publishes the
    /// last barrier's exit and each rank's slot, and leaves the token
    /// with the rank the per-round schedule would have left it with.
    /// Otherwise the agreement is published like an allreduce.
    pub(crate) fn sim_rounds(
        &mut self,
        contrib: &[f64],
        out: &mut [f64],
        rounds: u64,
        batch: impl Fn(&[f64]) -> bool,
        step: impl FnMut(usize, &mut [f64], Secs) -> Secs,
    ) -> bool {
        let n = self.size();
        let now = self.now();
        let gen = self.next_generation();
        let (board, me, width) = (self.ctx as usize, self.rank, contrib.len());
        let Self { shared, ranks, sweep_cost, .. } = self;
        let last = {
            let mut boards = shared.boards.lock();
            let g = &mut boards[board][gen];
            g.post(n, me, now, contrib).then(|| {
                let sweep =
                    *sweep_cost.get_or_insert_with(|| Self::sim_sweep_cost(&shared.engine.net, ranks));
                let t_agreed = g.fold(Fold::Rounds) + sweep * 2.0;
                if batch(&g.result) {
                    // the steps need no board: take the slots along
                    Ok((std::mem::take(&mut g.vals), t_agreed, sweep))
                } else {
                    Err(g.publish(t_agreed, Fold::Rounds, me, out))
                }
            })
        };
        let (mut slots, t_agreed, sweep) = match last {
            None => {
                let t_exit = self.await_exit(gen, Fold::Rounds, out);
                self.advance_to(t_exit);
                return batch(&out[..width]);
            }
            Some(Err(t_agreed)) => {
                self.release_peers();
                self.advance_to(t_agreed);
                return false;
            }
            Some(Ok(batched)) => batched,
        };
        let (t_exit, holder) =
            book_rounds(&mut slots, width, &self.ranks, me, t_agreed, sweep, rounds, step);
        {
            let mut boards = self.shared.boards.lock();
            let g = &mut boards[board][gen];
            g.vals = slots;
            g.publish(t_exit, Fold::Rounds, me, out);
        }
        if holder == me {
            self.release_peers();
        } else {
            let queued = self.ranks.iter().enumerate().filter(|&(r, _)| r != holder);
            let (wr, to) = (self.world_rank(), self.ranks[holder]);
            self.shared.sched.hand_off(wr, queued.map(|(_, &w)| w), to);
        }
        self.advance_to(t_exit);
        true
    }

    /// The generation of the board the next rendezvous meets in, by the
    /// parity of this handle's rendezvous counter.
    fn next_generation(&mut self) -> usize {
        let gen = (self.rendezvous & 1) as usize;
        self.rendezvous = self.rendezvous.wrapping_add(1);
        gen
    }

    /// How many rendezvous this handle has been through: one per
    /// barrier, allreduce, scan or run of rounds.
    pub fn rendezvous_count(&self) -> u32 {
        self.rendezvous
    }

    /// Does this communicator hold every rank of the world?
    pub fn spans_world(&self) -> bool {
        self.size() == self.shared.mailboxes.len()
    }

    /// The last arriver's exit: re-queue every peer, in ctx order.
    fn release_peers(&self) {
        let peers = self.ranks.iter().enumerate().filter(|&(r, _)| r != self.rank);
        self.shared.sched.unblock_all(peers.map(|(_, &w)| w));
    }

    /// A waiter's exit: park until the last arriver has published
    /// generation `gen`, then pick up this rank's share into `out` and
    /// the common exit time.
    fn await_exit(&self, gen: usize, fold: Fold, out: &mut [f64]) -> Secs {
        let (n, wr, board) = (self.size(), self.world_rank(), self.ctx as usize);
        loop {
            self.shared.sched.yield_blocked(wr);
            // Woken: either the last arriver published the result, or the
            // world died while we were parked.
            let picked = self.shared.boards.lock()[board][gen].pick_up(n, fold, self.rank, out);
            if let Some(t_exit) = picked {
                return t_exit;
            }
            if self.shared.mailboxes[wr].is_poisoned() {
                BeffError::PeerFailed.raise();
            }
        }
    }

    // ----- communicator management ----------------------------------------

    /// Duplicate the communicator (fresh matching context, same group).
    pub fn dup(&mut self) -> Comm {
        self.split(Some(0), self.rank as i64).expect("dup keeps every rank")
    }

    /// Partition the communicator: ranks passing the same `color` end up
    /// in the same new communicator, ordered by `(key, rank)`.
    /// `None` color opts out (returns `None`, like MPI_UNDEFINED); every
    /// `Some` color, `u32::MAX` included, is a real one.
    pub fn split(&mut self, color: Option<u32>, key: i64) -> Option<Comm> {
        let tag = self.next_coll_tag();
        let n = self.size();
        // 1. everyone sends (color, key) to rank 0; a rank that opts out
        // sends an empty record, so opting in needs no reserved color
        let mut rec = Vec::with_capacity(12);
        if let Some(c) = color {
            wire::put_u32(&mut rec, c);
            wire::put_i64(&mut rec, key);
        }
        if self.rank == 0 {
            let opted_in = |rec: &[u8], src: usize| {
                let mut r = wire::Reader::new(rec);
                (!rec.is_empty()).then(|| (r.u32(), r.i64(), src))
            };
            let mut entries: Vec<(u32, i64, usize)> = Vec::with_capacity(n);
            entries.extend(opted_in(&rec, 0));
            for _ in 1..n {
                let (data, info) = self.recv_vec(None, Some(tag));
                entries.extend(opted_in(&data, info.src));
            }
            // 2. group by color, order by (key, rank)
            let mut colors: Vec<u32> = entries.iter().map(|e| e.0).collect();
            colors.sort_unstable();
            colors.dedup();
            let mut replies: Vec<Option<Vec<u8>>> = vec![None; n];
            for &c in &colors {
                let new_ctx = self.shared.next_ctx.fetch_add(1, Ordering::Relaxed);
                let mut members: Vec<(i64, usize)> = entries
                    .iter()
                    .filter(|e| e.0 == c)
                    .map(|e| (e.1, e.2))
                    .collect();
                members.sort_unstable();
                let world_ranks: Vec<usize> =
                    members.iter().map(|&(_, r)| self.ranks[r]).collect();
                for (new_rank, &(_, old_rank)) in members.iter().enumerate() {
                    let mut buf = Vec::with_capacity(12 + 4 * world_ranks.len());
                    wire::put_u32(&mut buf, new_ctx);
                    wire::put_u32(&mut buf, new_rank as u32);
                    wire::put_u32(&mut buf, world_ranks.len() as u32);
                    for &w in &world_ranks {
                        wire::put_u32(&mut buf, w as u32);
                    }
                    replies[old_rank] = Some(buf);
                }
            }
            // 3. scatter the results (empty reply = opted out)
            let my_reply = replies[0].take();
            for (r, reply) in replies.into_iter().enumerate().skip(1) {
                self.send(r, tag, &reply.unwrap_or_default());
            }
            my_reply.map(|buf| self.comm_from_reply(&buf))
        } else {
            self.send(0, tag, &rec);
            let (reply, _) = self.recv_vec(Some(0), Some(tag));
            if reply.is_empty() {
                None
            } else {
                Some(self.comm_from_reply(&reply))
            }
        }
    }

    fn comm_from_reply(&self, buf: &[u8]) -> Comm {
        let mut r = wire::Reader::new(buf);
        let ctx = r.u32();
        let rank = r.u32() as usize;
        let n = r.u32() as usize;
        let ranks: Vec<usize> = (0..n).map(|_| r.u32() as usize).collect();
        Self::on_ctx(Arc::clone(&self.shared), Rc::clone(&self.state), ctx, rank, Arc::new(ranks))
    }
}
