//! The persistent rendezvous board: two generations per communicator
//! are enough under lapping, a world that cannot complete a collective
//! ends in a typed fault rather than a hang or a stale result, and the
//! board's values are the point-to-point tree's.

use beff_faults::silence_fault_panics;
use beff_mpi::{wire, BeffError, Comm, ReduceOp, World};
use beff_netsim::{MachineNet, NetParams, Topology};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use beff_sync::Mutex;
use std::sync::Arc;

fn world(n: usize) -> World {
    World::sim_partition(Arc::new(MachineNet::new(Topology::Ring { procs: n }, NetParams::default())), n)
}

const OPS: [ReduceOp; 3] = [ReduceOp::Max, ReduceOp::Min, ReduceOp::Sum];

/// What world rank `r` contributes to collective `k`: a small integer,
/// so every reduction of it is exact in any order.
fn contribution(r: usize, k: usize) -> f64 {
    ((r + 1) * (k % 7 + 1)) as f64
}

/// The reduction of [`contribution`] over world ranks `lo..hi`.
fn closed_form(op: ReduceOp, lo: usize, hi: usize, k: usize) -> f64 {
    match op {
        ReduceOp::Max => contribution(hi - 1, k),
        ReduceOp::Min => contribution(lo, k),
        ReduceOp::Sum => (lo..hi).map(|r| contribution(r, k)).sum(),
    }
}

/// 1 000 back-to-back collectives, barrier / scalar / width-3 allreduce
/// in turn over the three operators, interleaved across the world
/// communicator and the two halves of a split. Every rank checks every
/// value against the closed form; all ranks of a collective must leave
/// it on the same clock bits; and the lapping that makes the second
/// generation necessary — the last arriver of one collective entering
/// the communicator's next before a waiter has left — must occur.
#[test]
fn a_thousand_back_to_back_collectives_over_three_communicators() {
    for n in [8, 33] {
        const COLLECTIVES: usize = 1000;
        let mid = n / 2;
        // (communicator, collective, world rank, leaving?) in host order
        let log = Mutex::new(Vec::new());
        let exits: Vec<Vec<u64>> = world(n).run(|c| {
            let wr = c.rank();
            let upper = wr >= mid;
            let (lo, hi) = if upper { (mid, n) } else { (0, mid) };
            let Some(mut half) = c.split(Some(upper as u32), wr as i64) else {
                panic!("every rank passed a colour")
            };
            assert_eq!((half.size(), half.rank()), (hi - lo, wr - lo));
            let mut exits = Vec::with_capacity(COLLECTIVES);
            for k in 0..COLLECTIVES {
                // uneven arrivals, so the exit clock is a real maximum
                c.compute(1e-6 * ((wr * 5 + k) % 11) as f64);
                let on_world = k % 5 < 3;
                let (comm, id, lo, hi): (&mut Comm, _, _, _) =
                    if on_world { (&mut *c, 0, 0, n) } else { (&mut half, 1 + upper as usize, lo, hi) };
                let op = OPS[k / 3 % 3];
                let x = contribution(wr, k);
                log.lock().push((id, k, wr, false));
                match k % 3 {
                    0 => comm.barrier(),
                    1 => assert_eq!(comm.allreduce_scalar(x, op), closed_form(op, lo, hi, k), "k = {k}"),
                    _ => {
                        let got = comm.allreduce_f64(&[x, -x, 0.5 * x], op);
                        let flipped = match op {
                            ReduceOp::Max => ReduceOp::Min,
                            ReduceOp::Min => ReduceOp::Max,
                            ReduceOp::Sum => ReduceOp::Sum,
                        };
                        let (v, w) = (closed_form(op, lo, hi, k), closed_form(flipped, lo, hi, k));
                        assert_eq!(got, [v, -w, 0.5 * v], "k = {k}");
                    }
                }
                log.lock().push((id, k, wr, true));
                exits.push(comm.now().to_bits());
            }
            exits
        });
        for k in 0..COLLECTIVES {
            let groups: &[(usize, usize)] = if k % 5 < 3 { &[(0, n)] } else { &[(0, mid), (mid, n)] };
            for &(lo, hi) in groups {
                assert!(exits[lo..hi].iter().all(|e| e[k] == exits[lo][k]), "n = {n}, k = {k}");
            }
        }
        // A lap: a rank enters a communicator's next collective while
        // some rank has yet to leave the previous one on it.
        let log = log.into_inner();
        let mut laps = 0;
        for id in 0..3 {
            let size = [n, mid, n - mid][id];
            let (mut current, mut left) = (usize::MAX, size);
            for &(_, k, _, leaving) in log.iter().filter(|e| e.0 == id) {
                if leaving {
                    left += (k == current) as usize;
                } else if k != current {
                    laps += (left < size) as usize;
                    (current, left) = (k, 0);
                }
            }
        }
        assert!(laps > COLLECTIVES / 2, "n = {n}: only {laps} collectives were lapped");
    }
}

/// Every rank runs `body` under its own `catch_unwind`, files the typed
/// fault it died of (if any) under its rank, and dies on; returns what
/// was filed.
fn faults_by_rank(n: usize, body: impl Fn(&mut Comm) + Sync) -> Vec<Option<BeffError>> {
    silence_fault_panics();
    let filed = Mutex::new(vec![None; n]);
    let _ = catch_unwind(AssertUnwindSafe(|| {
        world(n).run(|c| {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(c))) {
                filed.lock()[c.rank()] = payload.downcast_ref::<BeffError>().cloned();
                resume_unwind(payload);
            }
        })
    }));
    filed.into_inner()
}

#[test]
fn a_skipped_collective_is_a_typed_deadlock_on_every_live_rank() {
    let n = 8;
    let checked = |c: &mut Comm, k: usize| {
        let got = c.allreduce_scalar(contribution(c.rank(), k), ReduceOp::Sum);
        assert_eq!(got, closed_form(ReduceOp::Sum, 0, c.size(), k), "a stale result at k = {k}");
    };
    // rank 3 leaves before the last collective: the seven others wait
    // for it on the board until the ready queue runs dry
    let faults = faults_by_rank(n, |c| {
        for k in 0..6 {
            if (c.rank(), k) == (3, 5) {
                return;
            }
            checked(c, k);
        }
    });
    for (rank, fault) in faults.iter().enumerate() {
        assert_eq!(*fault, (rank != 3).then_some(BeffError::Deadlock), "rank {rank}");
    }
    // rank 3 goes to another communicator's board instead: nobody
    // completes anything, and all eight are live
    let faults = faults_by_rank(n, |c| {
        let mut other = c.dup();
        for k in 0..6 {
            if (c.rank(), k) == (3, 5) {
                other.barrier();
            }
            checked(c, k);
        }
    });
    assert_eq!(faults, vec![Some(BeffError::Deadlock); n]);
}

#[test]
fn a_panicking_rank_fails_the_waiters_of_its_collective() {
    let n = 8;
    let faults = faults_by_rank(n, |c| {
        for k in 0..6 {
            if (c.rank(), k) == (n - 1, 5) {
                panic!("rank {} gives up", n - 1);
            }
            let got = c.allreduce_scalar(1.0, ReduceOp::Sum);
            assert_eq!(got, n as f64, "a stale result at k = {k}");
        }
    });
    // parked on the board or still on its way there, every other rank
    // ends on the poisoned world, none on a result
    for (rank, fault) in faults.iter().enumerate() {
        assert_eq!(*fault, (rank != n - 1).then_some(BeffError::PeerFailed), "rank {rank}");
    }
}

/// The board reduces in rank order; the reference goes down a binomial
/// tree to rank 0 (`reduce_f64`) and back out by broadcast (`bcast`)
/// over point-to-point messages in the same world. On values exact
/// under any association the two must agree to the bit.
#[test]
fn board_values_equal_the_point_to_point_tree() {
    for n in [2, 5, 8] {
        let pairs = world(n).run(|c| {
            let r = c.rank() as f64;
            let vals = [r + 1.0, -0.25 * r, 3.0 - r, (c.rank() % 3) as f64];
            let tree = |c: &mut Comm, vals: &[f64], op| {
                let reduced = c.reduce_f64(0, vals, op);
                let mut buf = reduced.map(|v| wire::encode_f64s(&v)).unwrap_or_default();
                c.bcast(0, &mut buf);
                wire::decode_f64s(&buf)
            };
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (mut board, mut reference) = (Vec::new(), Vec::new());
            for op in OPS {
                board.extend(bits(&c.allreduce_f64(&vals, op)));
                reference.extend(bits(&tree(c, &vals, op)));
                board.push(c.allreduce_scalar(vals[2], op).to_bits());
                reference.extend(bits(&tree(c, &vals[2..3], op)));
            }
            (board, reference)
        });
        for (rank, (board, reference)) in pairs.iter().enumerate() {
            assert_eq!(board, reference, "n = {n}, rank {rank}");
        }
    }
}

/// The exclusive prefix sum on the board against what it replaces in
/// MPI-IO's ordered access: an allreduced one-hot vector of lengths,
/// summed up to the rank and in full. For random lengths (zeros and
/// values past 2^53 among them), random arrival times and a world of
/// one rank up, three scans in a row, every rank's offset and total
/// and its clock after each scan are equal to the bit.
#[test]
fn the_scan_is_the_one_hot_allreduce_it_replaces() {
    beff_check::check_n("exscan equals the one-hot allreduce", 24, |g| {
        let n = g.usize(1..=40);
        let rounds: Vec<Vec<(f64, f64)>> = (0..3)
            .map(|_| {
                let len = |g: &mut beff_check::Gen| match g.usize(0..=3) {
                    0 => 0,
                    1 => g.u64(0..=u64::MAX >> 4),
                    _ => g.u64(0..=1 << 30),
                };
                (0..n).map(|_| (len(g) as f64, g.f64(0.0, 1e-5))).collect()
            })
            .collect();
        let run = |scan: bool| {
            world(n).run(|c| {
                let (me, n) = (c.rank(), c.size());
                let mut seen = Vec::new();
                for round in &rounds {
                    let (len, delay) = round[me];
                    c.compute(delay);
                    let (off, total) = if scan {
                        c.exscan_sum(len)
                    } else {
                        let mut onehot = vec![0.0; n];
                        onehot[me] = len;
                        let lens = c.allreduce_f64(&onehot, ReduceOp::Sum);
                        (lens[..me].iter().sum::<f64>(), lens.iter().sum::<f64>())
                    };
                    seen.push((off as u64, total.to_bits(), c.now().to_bits()));
                }
                seen
            })
        };
        beff_check::ensure_eq!(run(true), run(false), "n = {n}");
    });
}
