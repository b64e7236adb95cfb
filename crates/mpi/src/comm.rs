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
//!   traffic*: in sim mode with `copy_data = false`, only the length
//!   travels, so simulating a 512-proc machine does not shovel real
//!   gigabytes through host memory.
//!
//! Simulated barriers and allreduces send nothing: the ranks meet on
//! the communicator's persistent rendezvous board (`CollBoard`), one per
//! context id, resolved when the handle is made, in one of two
//! generations picked by the parity of the handle's rendezvous counter.
//!
//! Virtual-time accounting (sim mode):
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
use beff_sync::{Mutex, Rank};
use std::cell::RefCell;

/// Lock-hierarchy positions (DESIGN.md §8). A communicator's board is
/// acquired first, before any mailbox or scheduler lock; the registry
/// that hands boards out is taken once per [`Comm`] handle, alone.
static BOARD_RANK: Rank = Rank::new(20, "mpi.boards");
static REGISTRY_RANK: Rank = Rank::new(22, "mpi.registry");
use std::collections::BTreeMap;
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
    let sr = st.routes_out.get(wdst, || net.split_route(wsrc, wdst));
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

    /// The last arriver's step: reduce the contributions in rank order
    /// into `out`, put the common exit `cost` after the latest arrival,
    /// publish both for the waiters and count the caller's own exit.
    fn publish(&mut self, cost: Secs, op: Option<ReduceOp>, out: &mut [f64]) -> Secs {
        let (first, rest) = self.vals.split_at(self.width);
        self.result.copy_from_slice(first);
        match op {
            Some(op) if self.width > 0 => {
                rest.chunks_exact(self.width).for_each(|v| op.apply(&mut self.result, v))
            }
            _ => debug_assert_eq!(self.width, 0, "barrier carries no data"),
        }
        out.copy_from_slice(&self.result);
        let t_exit = self.t_arrive.iter().fold(0.0_f64, |a, &t| a.max(t)) + cost;
        (self.t_exit, self.exited) = (Some(t_exit), 1);
        t_exit
    }

    /// The published exit time, if the collective is complete, with the
    /// result copied into `out` and the caller's exit counted — the
    /// last of the `n` ranks out re-arms the generation.
    fn pick_up(&mut self, n: usize, out: &mut [f64]) -> Option<Secs> {
        let t_exit = self.t_exit?;
        out.copy_from_slice(&self.result);
        self.exited += 1;
        if self.exited == n {
            (self.arrived, self.exited, self.t_exit) = (0, 0, None);
        }
        Some(t_exit)
    }
}

/// A communicator's rendezvous board: persistent, resolved once when a
/// [`Comm`] handle is made, so an arrival looks nothing up and — once
/// the buffers have grown to the widest collective — allocates
/// nothing.
///
/// Two generations, picked by the parity of the handle's rendezvous
/// counter. One is not enough: the last arriver of collective *k* keeps
/// the token and may arrive at *k*+1 before any waiter has run again to
/// read *k*. Two are: *k*+2 cannot see its first arrival until some
/// rank has left *k*+1, which was published only after every rank had
/// arrived there — that is, had left *k* and re-armed its generation.
type CollBoard = Mutex<[Generation; 2]>;

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
    /// Deterministic token scheduler (sim mode only; real mode lets
    /// the host scheduler run ranks concurrently).
    pub(crate) sched: Option<SimScheduler>,
    /// The rendezvous board of every communicator made so far, by
    /// context id.
    registry: Mutex<BTreeMap<u32, Arc<CollBoard>>>,
}

impl WorldShared {
    pub fn new(n: usize, engine: Arc<EngineCfg>) -> Self {
        Self {
            mailboxes: (0..n).map(|_| Mailbox::new()).collect(),
            world_ranks: Arc::new((0..n).collect()),
            // ctx 0 is the world communicator
            next_ctx: AtomicU32::new(1),
            sched: engine.is_sim().then(|| SimScheduler::new(n)),
            engine,
            registry: Mutex::ranked(&REGISTRY_RANK, BTreeMap::new()),
        }
    }

    /// The board of communicator `ctx`, made by whichever of its ranks
    /// asks first.
    fn board(&self, ctx: u32) -> Arc<CollBoard> {
        let mut registry = self.registry.lock();
        let board = registry
            .entry(ctx)
            .or_insert_with(|| Arc::new(Mutex::ranked(&BOARD_RANK, Default::default())));
        Arc::clone(board)
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
    /// This communicator's rendezvous board and how many rendezvous
    /// this handle has been through: the parity picks the generation.
    board: Arc<CollBoard>,
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
        let state = Rc::new(RefCell::new(RankState::new(&shared.engine)));
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
        let board = shared.board(ctx);
        Self { shared, state, ctx, rank, ranks, coll_seq: 0, board, rendezvous: 0, sweep_cost: None }
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

    /// Current (virtual or real) time in seconds.
    #[inline]
    pub fn now(&self) -> Secs {
        self.state.borrow().clock.now()
    }

    /// True when running under the virtual-time engine.
    pub fn is_sim(&self) -> bool {
        self.shared.engine.is_sim()
    }

    /// Model local computation taking `dt` seconds (no-op in real mode,
    /// where computation takes its own time). A straggler rank's
    /// computation is stretched by its fault-plan multiplier.
    pub fn compute(&mut self, dt: Secs) {
        let dt = match self.shared.engine.as_ref() {
            EngineCfg::Sim { faults: Some(fs), .. } => {
                dt * fs.plan().compute_mult(self.world_rank())
            }
            _ => dt,
        };
        self.state.borrow_mut().clock.advance(dt);
    }

    /// Move the virtual clock to `t` if `t` is in the future (no-op in
    /// real mode). Used by sibling layers (e.g. MPI-IO) that price
    /// their own operations against shared resources.
    pub fn advance_to(&mut self, t: Secs) {
        self.state.borrow_mut().clock.advance_to(t);
    }

    /// Engine configuration (for layers that price their own costs,
    /// like MPI-IO).
    pub fn engine(&self) -> &EngineCfg {
        self.shared.engine.as_ref()
    }

    /// Shared per-rank state (the clock) for sibling layers.
    pub fn rank_state(&self) -> Rc<RefCell<RankState>> {
        Rc::clone(&self.state)
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
            if let Some(sched) = &self.shared.sched {
                sched.unblock(wdst);
            }
        }
    }

    /// Blocking receive from this rank's mailbox. Real mode parks on
    /// the mailbox condvar; sim mode releases the scheduler token while
    /// blocked so another rank can make progress deterministically.
    fn blocking_recv(&self, m: Match) -> Envelope {
        let wr = self.world_rank();
        if let EngineCfg::Sim { faults: Some(fs), .. } = self.shared.engine.as_ref() {
            let now = self.state.borrow().clock.now();
            if let Some(err) = fs.crash_check(wr, now) {
                err.raise();
            }
        }
        let mb = &self.shared.mailboxes[wr];
        let Some(sched) = &self.shared.sched else {
            return mb.recv(m);
        };
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

    /// Price and deliver; returns sender-free time (0.0 in real mode).
    fn do_send(&mut self, dst: usize, tag: Tag, payload: Payload) -> Secs {
        assert!(dst < self.size(), "send to rank {dst} of {}", self.size());
        match self.shared.engine.as_ref() {
            EngineCfg::Real => {
                self.deliver(dst, tag, 0.0, 0.0, payload);
                0.0
            }
            EngineCfg::Sim { net, faults, .. } => {
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
                            st.clock
                                .advance(net.params().o_send * fs.plan().overhead_mult(wsrc));
                            if fs.plan().has_wire_faults() {
                                wire_fault_delay(
                                    &mut st,
                                    net,
                                    fs,
                                    wsrc,
                                    wdst,
                                    payload.len(),
                                );
                            }
                        }
                    }
                    let t0 = st.clock.now();
                    let sr = st.routes_out.get(wdst, || net.split_route(wsrc, wdst));
                    let eg = net.price_egress(&sr.egress, payload.len(), t0);
                    (eg.injected, eg.head, eg.finish)
                };
                self.deliver(dst, tag, head, finish, payload);
                injected
            }
        }
    }

    /// Blocking semantic send: bytes always travel.
    pub fn send(&mut self, dst: usize, tag: Tag, data: &[u8]) {
        let injected = self.do_send(dst, tag, Payload::Data(data.to_vec()));
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
        match self.shared.engine.as_ref() {
            EngineCfg::Sim { copy_data: false, .. } => Payload::Len(data.len() as u64),
            _ => Payload::Data(data.to_vec()),
        }
    }

    /// Does benchmark traffic carry real bytes? When `false`, kernels
    /// may use the `*_len` fast paths and zero-length receive buffers.
    pub fn copies_payload(&self) -> bool {
        !matches!(self.shared.engine.as_ref(), EngineCfg::Sim { copy_data: false, .. })
    }

    /// Blocking benchmark send of `len` synthetic bytes. Only valid in
    /// no-copy simulation mode (real mode needs real bytes to measure).
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
        if let EngineCfg::Sim { net, faults, .. } = self.shared.engine.as_ref() {
            let mut st = self.state.borrow_mut();
            let wsrc = self.ranks[env.src];
            let wdst = self.ranks[self.rank];
            let sr = st.routes_in.get(wsrc, || net.split_route(wsrc, wdst));
            let done =
                net.price_ingress(&sr.ingress, env.payload.len(), env.head, env.arrival);
            st.clock.advance_to(done);
            match faults {
                None => st.clock.advance(net.params().o_recv),
                Some(fs) => st
                    .clock
                    .advance(net.params().o_recv * fs.plan().overhead_mult(wdst)),
            }
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

    /// Nonblocking probe for a matching message.
    pub fn iprobe(&self, src: Option<usize>, tag: Option<Tag>) -> bool {
        self.shared.mailboxes[self.world_rank()].probe(Match { ctx: self.ctx, src, tag })
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

    /// Simulated collective fast path: instead of ⌈log₂ n⌉ rounds of
    /// point-to-point traffic (each round a token handoff per rank),
    /// every rank posts `contrib` on the communicator's board and parks
    /// once; the last arriver reduces in rank order, prices the
    /// collective in closed form ([`sim_sweep_cost`](Self::sim_sweep_cost)) and
    /// re-queues the waiters; every rank leaves with the reduced vector
    /// in `out` (`op` of `None`: a barrier, both slices empty). One
    /// scheduler yield per rank, zero mailbox traffic, no allocation,
    /// bit-deterministic. The last arriver takes `mpi.boards` once
    /// (post, reduce, publish and count its own exit in one go) and
    /// `sched.state` once for all its peers; a waiter takes
    /// `mpi.boards` twice (post; pick up the result and count its exit)
    /// and `sched.state` once.
    pub(crate) fn sim_rendezvous(&mut self, contrib: &[f64], out: &mut [f64], op: Option<ReduceOp>) {
        let n = self.size();
        debug_assert!(n > 1, "rendezvous on a singleton communicator");
        let wr = self.world_rank();
        let now = self.now();
        let Self { shared, board, ranks, sweep_cost, .. } = self;
        let sched = shared.sched.as_ref().expect("sim collectives need the token scheduler");
        let gen = (self.rendezvous & 1) as usize;
        self.rendezvous = self.rendezvous.wrapping_add(1);
        let published = {
            let g = &mut board.lock()[gen];
            g.post(n, self.rank, now, contrib).then(|| {
                let sweep = *sweep_cost.get_or_insert_with(|| match shared.engine.as_ref() {
                    EngineCfg::Sim { net, .. } => Self::sim_sweep_cost(net, ranks),
                    EngineCfg::Real => 0.0,
                });
                // Barrier costs one dissemination sweep; allreduce is
                // modeled as reduce + bcast (two tree sweeps).
                g.publish(sweep * if op.is_some() { 2.0 } else { 1.0 }, op, out)
            })
        };
        let t_exit = match published {
            Some(t_exit) => {
                let me = self.rank;
                let peers = ranks.iter().enumerate().filter(|&(i, _)| i != me);
                sched.unblock_all(peers.map(|(_, &w)| w));
                t_exit
            }
            None => loop {
                sched.yield_blocked(wr);
                // Woken: either the last arriver published the result,
                // or the world died while we were parked.
                let picked = board.lock()[gen].pick_up(n, out);
                if let Some(t_exit) = picked {
                    break t_exit;
                }
                if shared.mailboxes[wr].is_poisoned() {
                    BeffError::PeerFailed.raise();
                }
            },
        };
        self.advance_to(t_exit);
    }

    // ----- communicator management ----------------------------------------

    /// Duplicate the communicator (fresh matching context, same group).
    pub fn dup(&mut self) -> Comm {
        self.split(Some(0), self.rank as i64).expect("dup keeps every rank")
    }

    /// Partition the communicator: ranks passing the same `color` end up
    /// in the same new communicator, ordered by `(key, rank)`.
    /// `None` color opts out (returns `None`, like MPI_UNDEFINED).
    pub fn split(&mut self, color: Option<u32>, key: i64) -> Option<Comm> {
        let tag = self.next_coll_tag();
        let n = self.size();
        // 1. everyone sends (color, key) to rank 0
        let mut rec = Vec::with_capacity(16);
        wire::put_u32(&mut rec, color.map_or(u32::MAX, |c| c));
        wire::put_i64(&mut rec, key);
        if self.rank == 0 {
            let mut entries: Vec<(u32, i64, usize)> = Vec::with_capacity(n);
            {
                let mut r = wire::Reader::new(&rec);
                entries.push((r.u32(), r.i64(), 0));
            }
            for _ in 1..n {
                let (data, info) = self.recv_vec(None, Some(tag));
                let mut r = wire::Reader::new(&data);
                entries.push((r.u32(), r.i64(), info.src));
            }
            // 2. group by color, order by (key, rank)
            let mut colors: Vec<u32> = entries
                .iter()
                .map(|e| e.0)
                .filter(|&c| c != u32::MAX)
                .collect();
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
