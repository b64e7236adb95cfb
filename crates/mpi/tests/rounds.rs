//! A run of rounds (`Comm::allreduce_rounds`) is its definition: an
//! agreement, one step a rank and a barrier per round, as plain
//! collectives. The steps book a shared resource whose bookings depend
//! on the order they arrive in, so a wrong token order, a wrong price
//! or a skipped agreement shows in the bits — and so does the rank the
//! token is left with, through a probe every rank books after the run.

use beff_check::{check_n, ensure_eq};
use beff_mpi::{Comm, ReduceOp, World};
use beff_netsim::{MachineNet, NetParams, Topology};
use beff_sim::Secs;
use beff_sync::Mutex;
use std::sync::Arc;

/// One server, first come first served in host order: a booking at `t`
/// of `cost` starts when both `t` and the server are free.
#[derive(Default)]
struct Server {
    free: Secs,
    log: Vec<(usize, u64)>,
}

impl Server {
    fn book(&mut self, rank: usize, t: Secs, cost: Secs) -> Secs {
        self.free = self.free.max(t) + cost;
        self.log.push((rank, self.free.to_bits()));
        self.free
    }
}

struct Case {
    n: usize,
    rounds: u64,
    stagger: Vec<Secs>,
    costs: Vec<Secs>,
    /// Each rank's agreement value; the run is batched when their
    /// maximum is below 1.
    flags: Vec<f64>,
}

/// What a rank leaves the run with: clock bits after the run and after
/// its probe, the agreement, its own slot, whether the run was batched,
/// and how many rendezvous its handle met.
type Exit = (u64, u64, Vec<u64>, bool, u32);

fn run(case: &Case, batched: bool) -> (Vec<Exit>, Vec<(usize, u64)>) {
    let net = Arc::new(MachineNet::new(Topology::Ring { procs: case.n }, NetParams::default()));
    let server = Mutex::new(Server::default());
    let exits = World::sim(net).run(|c: &mut Comm| {
        let me = c.rank();
        c.compute(case.stagger[me]);
        // the slot: [flag, bookings made so far]
        let contrib = [case.flags[me], 0.0];
        let mut out = [0.0; 4];
        let before = c.rendezvous_count();
        let step = |wr: usize, own: &mut [f64], t: Secs| {
            own[1] += 1.0;
            server.lock().book(wr, t, case.costs[wr])
        };
        let ran = if batched {
            c.allreduce_rounds(&contrib, &mut out, case.rounds, |a| a[0] < 1.0, step)
        } else {
            definition(c, &contrib, &mut out, case.rounds, step)
        };
        let after = c.now().to_bits();
        let probe = server.lock().book(me, c.now(), 1e-6);
        c.advance_to(probe);
        let out = out.iter().map(|v| v.to_bits()).collect();
        (after, c.now().to_bits(), out, ran, c.rendezvous_count() - before)
    });
    let log = std::mem::take(&mut server.lock().log);
    (exits, log)
}

/// `allreduce_rounds` as its documentation writes it.
fn definition(
    c: &mut Comm,
    contrib: &[f64],
    out: &mut [f64],
    rounds: u64,
    mut step: impl FnMut(usize, &mut [f64], Secs) -> Secs,
) -> bool {
    let w = contrib.len();
    let agreed = c.allreduce_f64(contrib, ReduceOp::Max);
    out[..w].copy_from_slice(&agreed);
    out[w..].copy_from_slice(contrib);
    if agreed[0] >= 1.0 {
        return false;
    }
    for round in 0..rounds {
        if round > 0 {
            c.allreduce_f64(contrib, ReduceOp::Max);
        }
        let done = step(c.world_rank(), &mut out[w..], c.now());
        c.advance_to(done);
        c.barrier();
    }
    true
}

#[test]
fn a_run_of_rounds_is_its_definition() {
    check_n("a run of rounds is its definition", 160, |g| {
        let n = g.usize(2..=12);
        let case = Case {
            n,
            rounds: g.u64(1..=30),
            stagger: (0..n).map(|_| if g.bool() { g.f64(0.0, 1e-4) } else { 0.0 }).collect(),
            costs: (0..n).map(|_| g.f64(1e-7, 1e-4)).collect(),
            flags: (0..n).map(|_| if g.weighted(0.1) { 1.0 } else { 0.0 }).collect(),
        };
        let (runs, run_log) = run(&case, true);
        let (defs, def_log) = run(&case, false);
        for (r, (run, def)) in runs.iter().zip(&defs).enumerate() {
            ensure_eq!((r, &run.0, &run.1, &run.2, run.3), (r, &def.0, &def.1, &def.2, def.3));
            // the mechanism: a batched run is one rendezvous a rank
            let batched = case.flags.iter().all(|&f| f < 1.0);
            ensure_eq!(run.4, 1);
            ensure_eq!(def.4, if batched { 2 * case.rounds as u32 } else { 1 });
        }
        ensure_eq!(run_log, def_log);
    });
}
