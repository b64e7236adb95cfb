//! The world runtime: run one closure per rank, each with its own
//! [`Comm`], and return the per-rank results in rank order.
//!
//! The ranks are fibers driven on the calling thread through the
//! substrate's one launcher
//! ([`SimScheduler::launch`](beff_sim::SimScheduler::launch)) under the
//! world's token scheduler — no thread per rank, no platform switch in
//! this crate.
//!
//! Two launch shapes exist:
//!
//! * [`World::run`] — set up, run, tear down. Right for one-shot runs.
//! * [`WorldSession`] — keep the fiber stacks resident and dispatch any
//!   number of runs at them. Each run still gets a fresh world-shared
//!   state (mailboxes, contexts, scheduler), so results are identical
//!   to `World::run`; only the setup cost is amortized. Benchmark
//!   drivers sweeping many configurations over one partition use this.
//!
//! If any rank panics, every mailbox is poisoned and the scheduler
//! aborted so that ranks blocked on the dead peer abort instead of
//! deadlocking (the moral equivalent of `MPI_Abort`), and the first
//! panic is re-thrown to the caller.

use crate::comm::{Comm, WorldShared};
use crate::engine::EngineCfg;
use beff_sim::fiber::FiberStack;
use beff_faults::{BeffError, FaultSession};
use beff_netsim::MachineNet;
use beff_sim::{map_ordered, SimScheduler, Workers};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Run one rank's closure under the world's panic protocol: on panic
/// poison every mailbox and abort the scheduler so blocked peers unwind
/// too.
fn run_rank<R>(
    shared: &Arc<WorldShared>,
    rank: usize,
    f: impl FnOnce(&mut Comm) -> R,
) -> Result<R, Box<dyn Any + Send>> {
    let mut comm = Comm::world(Arc::clone(shared), rank);
    let out = catch_unwind(AssertUnwindSafe(|| f(&mut comm)));
    if out.is_err() {
        for mb in &shared.mailboxes {
            mb.poison();
        }
        shared.sched.abort();
    }
    out
}

/// Collapse per-rank outcomes (in rank order) into all results or the
/// run's *root cause*. When one rank raises a typed fault, the peers
/// that were blocked on it unwind with the secondary
/// [`BeffError::PeerFailed`]; reporting that cascade instead of the
/// fault would hide what actually happened, so a typed non-`PeerFailed`
/// payload wins over a `PeerFailed` one. String panics (true invariant
/// violations) always keep their first-in-rank-order payload.
fn settle<R>(
    slots: impl IntoIterator<Item = Result<R, Box<dyn Any + Send>>>,
) -> Result<Vec<R>, Box<dyn Any + Send>> {
    let mut out = Vec::new();
    let mut cause: Option<Box<dyn Any + Send>> = None;
    for slot in slots {
        match slot {
            Ok(r) => out.push(r),
            Err(p) => {
                let upgrade = match &cause {
                    None => true,
                    Some(prev) => {
                        matches!(
                            prev.downcast_ref::<BeffError>(),
                            Some(BeffError::PeerFailed)
                        ) && matches!(
                            p.downcast_ref::<BeffError>(),
                            Some(e) if *e != BeffError::PeerFailed
                        )
                    }
                };
                if upgrade {
                    cause = Some(p);
                }
            }
        }
    }
    match cause {
        Some(p) => Err(p),
        None => Ok(out),
    }
}

/// Downcast a settled panic payload into a typed error, or re-raise it
/// (invariant violations stay fatal).
fn into_typed<R>(settled: Result<Vec<R>, Box<dyn Any + Send>>) -> Result<Vec<R>, BeffError> {
    match settled {
        Ok(v) => Ok(v),
        Err(p) => match p.downcast::<BeffError>() {
            Ok(e) => Err(*e),
            Err(p) => resume_unwind(p),
        },
    }
}

/// Run a world on the calling thread, one fiber per rank over
/// `stacks`, against a fresh [`WorldShared`] whose mailboxes and link
/// ledger the world claims for the run where its fibers share this
/// thread.
fn run_world_fibers<R, F>(
    engine: &Arc<EngineCfg>,
    stacks: &[FiberStack],
    f: &F,
) -> Result<Vec<R>, Box<dyn Any + Send>>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    let shared = Arc::new(WorldShared::new(stacks.len(), Arc::clone(engine)));
    let _claims = SimScheduler::claim_for_run(|| shared.claim());
    settle(shared.sched.launch(stacks, |rank| run_rank(&shared, rank, f)))
}

/// Builder/launcher for a world of `n` ranks.
///
/// The engine config lives behind one `Arc`: every run/rebuild shares
/// it by reference count, and the builder methods copy-on-write via
/// [`Arc::make_mut`] (free while the handle is unshared, which it is
/// during building). Rebuild paths therefore never deep-clone the
/// config — the property the `beff-serve` session pool's checkout
/// relies on.
#[derive(Clone)]
pub struct World {
    n: usize,
    engine: Arc<EngineCfg>,
}

impl World {
    /// A world on the full machine (one rank per modeled proc).
    pub fn sim(net: Arc<MachineNet>) -> Self {
        let n = net.procs();
        Self::sim_partition(net, n)
    }

    /// A world on the first `n` procs of the machine (a *partition*, as
    /// b_eff_io runs use).
    pub fn sim_partition(net: Arc<MachineNet>, n: usize) -> Self {
        assert!(n > 0, "world needs at least one rank");
        assert!(
            n <= net.procs(),
            "partition of {n} ranks exceeds machine size {}",
            net.procs()
        );
        Self { n, engine: Arc::new(EngineCfg { net, copy_data: false, faults: None }) }
    }

    /// Materialize benchmark payload bytes (tests use this to verify
    /// data integrity; big benchmark runs leave it off).
    pub fn copy_data(mut self, yes: bool) -> Self {
        Arc::make_mut(&mut self.engine).copy_data = yes;
        self
    }

    /// Attach a fault session to this world: every run injects the
    /// session's plan.
    pub fn with_faults(mut self, session: Arc<FaultSession>) -> Self {
        Arc::make_mut(&mut self.engine).faults = Some(session);
        // Typed fault raises are routine under injection; keep the
        // default hook's backtrace spam out of chaos sweeps.
        beff_faults::silence_fault_panics();
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Run `jobs` independent whole-world simulations on up to
    /// `workers` threads, one machine *replica* per job, returning
    /// per-job rank-ordered results in job order.
    ///
    /// This is the parallel twin of the serial sweep idiom
    /// `for job { net.reset(); world.run(..) }`: a replica
    /// ([`MachineNet::replica`]) is indistinguishable from the shared
    /// machine after a reset, and each job's world keeps its own
    /// token-serial schedule, so the batch is **byte-identical at every
    /// worker count** — including one worker, which spawns no threads
    /// at all. Panics if a fault session is attached: a
    /// [`FaultSession`] is stateful across runs and cannot be shared
    /// between replicas; build per-job worlds with per-job sessions
    /// instead (the chaos driver does).
    pub fn run_batch<R, F>(&self, workers: Workers, jobs: usize, f: F) -> Vec<Vec<R>>
    where
        R: Send,
        F: Fn(usize, &mut Comm) -> R + Sync,
    {
        let EngineCfg { net, copy_data, faults } = self.engine.as_ref();
        assert!(
            faults.is_none(),
            "run_batch cannot share a stateful fault session across machine replicas"
        );
        let (n, copy_data) = (self.n, *copy_data);
        map_ordered(workers, (0..jobs).collect(), |_, job| {
            let net = Arc::new(net.replica());
            let world = World { n, engine: Arc::new(EngineCfg { net, copy_data, faults: None }) };
            world.run(|c| f(job, c))
        })
    }

    /// Launch: run `f` on every rank, return results in rank order —
    /// a one-run [`session`](Self::session).
    ///
    /// Panics (re-raising the rank's payload) if any rank panics.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        self.session().run(f)
    }

    /// Launch like [`run`](Self::run), but return a failed run's typed
    /// root cause ([`BeffError`]) as a value instead of panicking.
    /// String panics — true invariant violations — still propagate.
    pub fn try_run<R, F>(&self, f: F) -> Result<Vec<R>, BeffError>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        self.session().try_run(f)
    }

    /// Set the world up once and keep it resident for repeated runs
    /// (see [`WorldSession`]).
    pub fn session(&self) -> WorldSession {
        WorldSession::new(self)
    }
}

/// A resident world, set up once and reused for any number of runs.
/// Every [`run`](WorldSession::run) executes against a *fresh*
/// [`WorldShared`] (mailboxes, contexts, token scheduler) over the
/// session's cached fiber stacks, so a session run is observationally
/// identical to a fresh [`World::run`] — bit for bit — without paying
/// per-run stack setup.
///
/// Shared machine state that outlives a run ([`MachineNet`] link
/// occupancy) is the *caller's* to reset between runs (`net.reset()`);
/// the memoized route table is topology-derived and correct to keep.
pub struct WorldSession {
    engine: Arc<EngineCfg>,
    stacks: Vec<FiberStack>,
}

impl WorldSession {
    pub fn new(world: &World) -> Self {
        Self { engine: Arc::clone(&world.engine), stacks: FiberStack::set(world.n) }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.stacks.len()
    }

    /// Rebuild a [`World`] launcher sharing this session's engine (an
    /// `Arc` bump, not a config clone). The `beff-serve` pool uses this
    /// for checked-out sessions that need a *variant* world — e.g. a
    /// per-job fault session attached via [`World::with_faults`] — while
    /// the resident session itself stays untouched and reusable.
    pub fn world(&self) -> World {
        World { n: self.size(), engine: Arc::clone(&self.engine) }
    }

    /// The session's fiber stacks, one a rank: how deep its runs have
    /// dug ([`FiberStack::high_water`]) and whether any overflowed
    /// ([`FiberStack::deep_page_is_zero`]).
    pub fn stacks(&self) -> &[FiberStack] {
        &self.stacks
    }

    /// Run `f` on every rank, returning results in rank order. Panics
    /// (re-raising the first rank's payload) if any rank panics; the
    /// session stays usable afterwards.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        match run_world_fibers(&self.engine, &self.stacks, &f) {
            Ok(v) => v,
            Err(p) => resume_unwind(p),
        }
    }

    /// Run like [`run`](Self::run), but return a failed run's typed
    /// root cause ([`BeffError`]) as a value; the session stays usable
    /// afterwards. String panics still propagate.
    pub fn try_run<R, F>(&self, f: F) -> Result<Vec<R>, BeffError>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        into_typed(run_world_fibers(&self.engine, &self.stacks, &f))
    }

    /// Batch-parallel runs on machine replicas (see
    /// [`World::run_batch`]): a replica cannot share the session's
    /// stacks, so this delegates to a per-job world; the session stays
    /// usable afterwards.
    pub fn run_batch<R, F>(&self, workers: Workers, jobs: usize, f: F) -> Vec<Vec<R>>
    where
        R: Send,
        F: Fn(usize, &mut Comm) -> R + Sync,
    {
        self.world().run_batch(workers, jobs, f)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "a test prices on the network of a failed world from a second thread"
)]
mod tests {
    use super::*;
    use crate::collectives::ReduceOp;
    use beff_netsim::{NetParams, Topology};

    /// `n` ranks on a crossbar, moving payload bytes.
    fn world(n: usize) -> World {
        let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: n }, NetParams::default()));
        World::sim(net).copy_data(true)
    }

    #[test]
    fn world_runs_and_orders_results() {
        let out = world(4).run(|c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn p2p_roundtrip() {
        let out = world(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 5, b"hello");
                let (d, info) = c.recv_vec(Some(1), Some(6));
                assert_eq!(info.src, 1);
                d
            } else {
                let (d, _) = c.recv_vec(Some(0), Some(5));
                c.send(0, 6, &d);
                d
            }
        });
        assert_eq!(out[0], b"hello");
    }

    fn tiny_sim() -> World {
        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 4 },
            NetParams::default(),
        ));
        World::sim(net)
    }

    #[test]
    fn sim_world_virtual_time_advances_on_traffic() {
        let times = tiny_sim().run(|c| {
            let peer = c.rank() ^ 1;
            let sbuf = vec![0u8; 1024];
            let mut rbuf = vec![0u8; 1024];
            for _ in 0..10 {
                c.payload_sendrecv(peer, 1, &sbuf, Some(peer), Some(1), &mut rbuf);
            }
            c.now()
        });
        for &t in &times {
            assert!(t > 0.0, "virtual clock must advance: {times:?}");
            assert!(t < 1.0, "10 x 1kB cannot take a virtual second: {times:?}");
        }
    }

    #[test]
    fn sim_copy_data_transfers_real_bytes() {
        let out = tiny_sim().copy_data(true).run(|c| {
            if c.rank() == 0 {
                c.payload_send(1, 9, &[1, 2, 3, 4]);
                Vec::new()
            } else if c.rank() == 1 {
                let mut buf = [0u8; 4];
                c.recv(Some(0), Some(9), &mut buf);
                buf.to_vec()
            } else {
                Vec::new()
            }
        });
        assert_eq!(out[1], vec![1, 2, 3, 4]);
    }

    #[test]
    fn sim_without_copy_transfers_length_only() {
        let out = tiny_sim().run(|c| {
            if c.rank() == 0 {
                c.payload_send(1, 9, &[7; 4096]);
                0
            } else if c.rank() == 1 {
                let mut buf = [0u8; 4096];
                let info = c.recv(Some(0), Some(9), &mut buf);
                assert_eq!(buf[0], 0, "no bytes must be copied");
                info.len
            } else {
                0
            }
        });
        assert_eq!(out[1], 4096);
    }

    #[test]
    fn barrier_synchronizes_virtual_clocks() {
        let times = tiny_sim().run(|c| {
            // rank 0 does heavy local compute; the barrier must drag
            // everyone to at least that time.
            if c.rank() == 0 {
                c.compute(1.0);
            }
            c.barrier();
            c.now()
        });
        for &t in &times {
            assert!(t >= 1.0, "barrier must propagate the latest clock: {times:?}");
        }
    }

    #[test]
    fn allreduce_max_agrees_everywhere() {
        let out = world(5).run(|c| {
            c.allreduce_scalar(c.rank() as f64, ReduceOp::Max)
        });
        assert!(out.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn allreduce_sum_sim() {
        let out = tiny_sim().run(|c| c.allreduce_scalar(1.0, ReduceOp::Sum));
        assert!(out.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = world(7).run(|c| {
            let mut data = if c.rank() == 3 { b"payload".to_vec() } else { Vec::new() };
            c.bcast(3, &mut data);
            data
        });
        assert!(out.iter().all(|d| d == b"payload"));
    }

    #[test]
    fn reduce_to_root_only() {
        let out = world(6).run(|c| c.reduce_f64(2, &[1.0, 2.0], ReduceOp::Sum));
        for (r, v) in out.iter().enumerate() {
            if r == 2 {
                assert_eq!(v.as_deref(), Some(&[6.0, 12.0][..]));
            } else {
                assert!(v.is_none());
            }
        }
    }

    #[test]
    fn split_by_parity() {
        let out = world(6).run(|c| {
            let color = (c.rank() % 2) as u32;
            let sub = c.split(Some(color), c.rank() as i64).unwrap();
            (sub.rank(), sub.size(), sub.world_rank())
        });
        assert_eq!(out[0], (0, 3, 0));
        assert_eq!(out[2], (1, 3, 2));
        assert_eq!(out[4], (2, 3, 4));
        assert_eq!(out[1], (0, 3, 1));
        assert_eq!(out[5], (2, 3, 5));
    }

    #[test]
    fn split_undefined_returns_none() {
        let out = world(4).run(|c| {
            if c.rank() == 3 {
                c.split(None, 0).is_none()
            } else {
                let sub = c.split(Some(1), 0).unwrap();
                sub.size() == 3
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn split_color_u32_max_is_a_real_color() {
        let out = world(4).run(|c| {
            let color = (c.rank() != 1).then_some(u32::MAX);
            c.split(color, c.rank() as i64).map(|sub| (sub.rank(), sub.size()))
        });
        assert_eq!(out, vec![Some((0, 3)), None, Some((1, 3)), Some((2, 3))]);
    }

    #[test]
    fn split_key_reverses_order() {
        let out = world(4).run(|c| {
            let sub = c.split(Some(0), -(c.rank() as i64)).unwrap();
            sub.rank()
        });
        assert_eq!(out, vec![3, 2, 1, 0]);
    }

    #[test]
    fn dup_isolates_contexts() {
        let out = world(2).run(|c| {
            let mut d = c.dup();
            if c.rank() == 0 {
                // same tag on both comms; matching must separate them
                c.send(1, 77, b"base");
                d.send(1, 77, b"dup");
                0
            } else {
                let (on_dup, _) = d.recv_vec(Some(0), Some(77));
                let (on_base, _) = c.recv_vec(Some(0), Some(77));
                assert_eq!(on_dup, b"dup");
                assert_eq!(on_base, b"base");
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn rank_panic_aborts_world() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            world(3).run(|c| {
                if c.rank() == 1 {
                    panic!("injected failure");
                }
                // ranks 0 and 2 would deadlock without poisoning
                let (_d, _i) = c.recv_vec(Some(1), Some(1));
            })
        }));
        assert!(r.is_err());
    }

    #[test]
    fn partition_smaller_than_machine() {
        let net = Arc::new(MachineNet::new(
            Topology::Torus3D { dims: [2, 2, 2] },
            NetParams::default(),
        ));
        let out = World::sim_partition(net, 3).run(|c| c.size());
        assert_eq!(out, vec![3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "exceeds machine size")]
    fn oversized_partition_panics() {
        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 2 },
            NetParams::default(),
        ));
        let _ = World::sim_partition(net, 3);
    }

    #[test]
    fn send_to_self_works() {
        let out = world(1).run(|c| {
            c.send(0, 1, b"self");
            let (d, _) = c.recv_vec(Some(0), Some(1));
            d
        });
        assert_eq!(out[0], b"self");
    }

    #[test]
    fn sim_runs_are_bit_deterministic() {
        let f = |c: &mut Comm| {
            let peer = c.rank() ^ 1;
            let sbuf = vec![0u8; 4096];
            let mut rbuf = vec![0u8; 4096];
            for _ in 0..20 {
                c.payload_sendrecv(peer, 1, &sbuf, Some(peer), Some(1), &mut rbuf);
            }
            c.barrier();
            c.now()
        };
        let a = tiny_sim().run(f);
        let b = tiny_sim().run(f);
        // Bitwise, not approximately: the token scheduler makes link
        // reservation order a pure function of the program.
        assert_eq!(
            a.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
    }

    /// A pattern-sweep-shaped job: per-rank neighbor traffic whose
    /// virtual finish times are contention-sensitive, so any schedule
    /// or occupancy divergence shows up bitwise.
    fn batch_job(job: usize, c: &mut Comm) -> u64 {
        let peer = c.rank() ^ 1;
        let bytes = 512 * (job + 1);
        let sbuf = vec![0u8; bytes];
        let mut rbuf = vec![0u8; bytes];
        for _ in 0..4 {
            c.payload_sendrecv(peer, 1, &sbuf, Some(peer), Some(1), &mut rbuf);
        }
        c.allreduce_scalar(c.now(), ReduceOp::Max).to_bits()
    }

    #[test]
    fn run_batch_matches_serial_sweep_at_every_worker_count() {
        let net = Arc::new(MachineNet::new(
            Topology::Ring { procs: 4 },
            NetParams::default(),
        ));
        // The reference: the pre-existing serial idiom — one shared
        // machine, reset between runs.
        let world = World::sim(Arc::clone(&net));
        let serial: Vec<Vec<u64>> = (0..6)
            .map(|job| {
                net.reset();
                world.run(|c| batch_job(job, c))
            })
            .collect();
        for w in [1, 2, 4, 8] {
            let batch = world.run_batch(Workers::new(w), 6, batch_job);
            assert_eq!(serial, batch, "batch diverged from the serial sweep at {w} workers");
        }
    }

    #[test]
    fn session_run_batch_delegates_and_stays_usable() {
        let net = Arc::new(MachineNet::new(
            Topology::Ring { procs: 4 },
            NetParams::default(),
        ));
        let world = World::sim(Arc::clone(&net));
        let session = world.session();
        let a = session.run_batch(Workers::new(2), 3, batch_job);
        let b = world.run_batch(Workers::new(2), 3, batch_job);
        assert_eq!(a, b);
        net.reset();
        assert_eq!(session.run(|c| c.size()), vec![4; 4]);
    }

    #[test]
    #[should_panic(expected = "stateful fault session")]
    fn run_batch_refuses_a_shared_fault_session() {
        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 2 },
            NetParams::default(),
        ));
        let session = FaultSession::new(beff_faults::FaultPlan::empty(), 2);
        let _ = World::sim(net).with_faults(session).run_batch(Workers::new(1), 2, |_, c| c.rank());
    }

    #[test]
    fn session_matches_world_run_and_is_reusable() {
        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 4 },
            NetParams::default(),
        ));
        let world = World::sim(Arc::clone(&net));
        let f = |c: &mut Comm| {
            let peer = c.rank() ^ 1;
            let sbuf = vec![0u8; 1024];
            let mut rbuf = vec![0u8; 1024];
            for _ in 0..5 {
                c.payload_sendrecv(peer, 2, &sbuf, Some(peer), Some(2), &mut rbuf);
            }
            c.allreduce_scalar(c.now(), ReduceOp::Max)
        };
        let direct = world.run(f);
        let session = world.session();
        // Shared machine state (link occupancy) is the caller's to
        // clear between runs; the route table is correct to keep.
        net.reset();
        let first = session.run(f);
        net.reset();
        let second = session.run(f);
        assert_eq!(
            direct.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            first.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            first.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            second.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn session_survives_a_panicking_run() {
        let session = world(3).session();
        let r = catch_unwind(AssertUnwindSafe(|| {
            session.run(|c| {
                if c.rank() == 1 {
                    panic!("injected failure");
                }
                let (_d, _i) = c.recv_vec(Some(1), Some(1));
            })
        }));
        assert!(r.is_err());
        let out = session.run(|c| c.rank());
        assert_eq!(out, vec![0, 1, 2]);
    }

    /// A world holds the machine's link ledger for its run; a run that
    /// ends in a rank panic must still let it go, so another thread can
    /// price on the same machine at once.
    #[test]
    fn claims_are_released_when_a_rank_panics() {
        let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: 3 }, NetParams::default()));
        let r = catch_unwind(AssertUnwindSafe(|| {
            World::sim(Arc::clone(&net)).run(|c| {
                if c.rank() == 1 {
                    panic!("injected failure");
                }
                c.payload_send((c.rank() + 1) % 3, 1, &[0; 64]);
            })
        }));
        assert!(r.is_err());
        let (tx, rx) = std::sync::mpsc::channel();
        let pricer = std::thread::spawn({
            let net = Arc::clone(&net);
            move || tx.send(net.transfer(0, 2, 1024, 0.0))
        });
        let priced = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert!(priced.is_ok(), "pricing on another thread still waits for the finished world");
        assert!(pricer.join().is_ok_and(|sent| sent.is_ok()));
    }

    #[test]
    fn sim_deadlock_panics_instead_of_hanging() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            tiny_sim().run(|c| {
                // every rank receives, nobody sends
                let (_d, _i) = c.recv_vec(None, Some(9));
            })
        }));
        assert!(r.is_err());
    }

    #[test]
    fn sim_recv_time_is_at_least_arrival() {
        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 2 },
            NetParams::default(),
        ));
        let times = World::sim(net).run(|c| {
            if c.rank() == 0 {
                c.payload_send(1, 1, &vec![0u8; 1 << 20]);
                c.now()
            } else {
                let mut buf = vec![0u8; 1 << 20];
                c.recv(Some(0), Some(1), &mut buf);
                c.now()
            }
        });
        // the receiver finishes after the sender injected
        assert!(times[1] >= times[0] * 0.5, "times={times:?}");
        assert!(times[1] > 0.0);
    }
}
