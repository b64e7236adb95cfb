//! The additional diagnostic patterns of §4 that are measured but not
//! averaged into b_eff: worst-case cycle, best and worst bisection,
//! 2-D/3-D Cartesian exchanges, and the plain ping-pong.

use super::methods::{Method, Transfers};
use super::result::ExtraResult;
use beff_mpi::{CartGrid, Comm, ReduceOp};
use beff_netsim::MB;

/// Measure everything at message size `len` with `iters` iterations.
/// Returns identical results on every rank (times are reduced).
pub fn run_extras(comm: &mut Comm, tr: &mut Transfers, len: u64, iters: u32) -> Vec<ExtraResult> {
    let mut out = Vec::new();
    let n = comm.size();

    // --- worst-case cycle: one ring ordered for maximal distance ---
    {
        let me = interleaved_position(comm.rank(), n);
        let left = interleaved_rank((me + n - 1) % n, n);
        let right = interleaved_rank((me + 1) % n, n);
        let dt = timed(comm, iters, |c, tr| {
            tr.ring_iteration(c, Method::NonBlocking, left, right, len)
        }, tr);
        let bytes = 2.0 * n as f64 * len as f64 * iters as f64;
        out.push(ExtraResult { name: "worst-case cycle".into(), mbps: bytes / MB as f64 / dt });
    }

    // --- best bisection: adjacent pairs (2i <-> 2i+1) ---
    if n >= 2 {
        let peer = best_bisection_peer(comm.rank(), n);
        let dt = timed(comm, iters, |c, tr| {
            if let Some(p) = peer {
                tr.pair_iteration(c, p, len);
            }
        }, tr);
        let pairs = (n / 2) as f64;
        let bytes = 2.0 * pairs * len as f64 * iters as f64;
        out.push(ExtraResult { name: "best bisection".into(), mbps: bytes / MB as f64 / dt });
    }

    // --- worst bisection: i <-> i + n/2 ---
    if n >= 2 {
        let peer = worst_bisection_peer(comm.rank(), n);
        let dt = timed(comm, iters, |c, tr| {
            if let Some(p) = peer {
                tr.pair_iteration(c, p, len);
            }
        }, tr);
        let pairs = (n / 2) as f64;
        let bytes = 2.0 * pairs * len as f64 * iters as f64;
        out.push(ExtraResult { name: "worst bisection".into(), mbps: bytes / MB as f64 / dt });
    }

    // --- Cartesian exchanges ---
    for ndims in [2usize, 3] {
        if n < 2 {
            break;
        }
        let grid = CartGrid::balanced(n, ndims);
        // per dimension separately
        for dim in 0..ndims {
            let (src, dst) = grid.shift(comm.rank(), dim, 1);
            let dt = timed(comm, iters, |c, tr| {
                tr.ring_iteration(c, Method::NonBlocking, src, dst, len)
            }, tr);
            let bytes = 2.0 * n as f64 * len as f64 * iters as f64;
            out.push(ExtraResult {
                name: format!("cartesian {ndims}D dim {dim} (dims {:?})", grid.dims()),
                mbps: bytes / MB as f64 / dt,
            });
        }
        // all dimensions together
        let shifts: Vec<(usize, usize)> =
            (0..ndims).map(|d| grid.shift(comm.rank(), d, 1)).collect();
        let dt = timed(comm, iters, |c, tr| {
            for &(src, dst) in &shifts {
                tr.ring_iteration(c, Method::NonBlocking, src, dst, len);
            }
        }, tr);
        let bytes = 2.0 * ndims as f64 * n as f64 * len as f64 * iters as f64;
        out.push(ExtraResult {
            name: format!("cartesian {ndims}D all dims (dims {:?})", grid.dims()),
            mbps: bytes / MB as f64 / dt,
        });
    }

    out
}

/// Ping-pong between ranks 0 and 1 at size `len`; returns the one-way
/// bandwidth in MByte/s (0.0 for single-rank worlds). Collective: every
/// rank must call it.
pub fn pingpong(comm: &mut Comm, tr: &mut Transfers, len: u64, iters: u32) -> f64 {
    if comm.size() < 2 {
        return 0.0;
    }
    comm.barrier();
    let t0 = comm.now();
    if comm.rank() < 2 {
        let peer = 1 - comm.rank();
        for _ in 0..iters {
            tr.pingpong_iteration(comm, peer, len, comm.rank() == 0);
        }
    }
    let dt_local = if comm.rank() < 2 { comm.now() - t0 } else { 0.0 };
    let dt = comm.allreduce_scalar(dt_local, ReduceOp::Max);
    // each iteration moves len twice (there and back): one-way bw
    2.0 * len as f64 * iters as f64 / MB as f64 / dt.max(1e-12)
}

fn timed(
    comm: &mut Comm,
    iters: u32,
    mut body: impl FnMut(&mut Comm, &mut Transfers),
    tr: &mut Transfers,
) -> f64 {
    comm.barrier();
    let t0 = comm.now();
    for _ in 0..iters {
        body(comm, tr);
    }
    let dt_local = comm.now() - t0;
    comm.allreduce_scalar(dt_local, ReduceOp::Max).max(1e-12)
}

/// The rank at position `pos` of the worst-case cycle's order, which
/// visits ranks with ~n/2 distance between neighbors: 0, h, 1, h+1, …
/// with h = ⌈n/2⌉.
fn interleaved_rank(pos: usize, n: usize) -> usize {
    if pos.is_multiple_of(2) {
        pos / 2
    } else {
        n.div_ceil(2) + pos / 2
    }
}

/// The position of `rank` in the order of [`interleaved_rank`].
fn interleaved_position(rank: usize, n: usize) -> usize {
    let h = n.div_ceil(2);
    if rank < h {
        2 * rank
    } else {
        2 * (rank - h) + 1
    }
}

/// Pair 2i ↔ 2i+1 (odd tail idles).
pub fn best_bisection_peer(rank: usize, n: usize) -> Option<usize> {
    let peer = rank ^ 1;
    (peer < n && n >= 2 && rank / 2 < n / 2).then_some(peer)
}

/// Pair i ↔ i + n/2 (middle/odd tail idles).
pub fn worst_bisection_peer(rank: usize, n: usize) -> Option<usize> {
    let h = n / 2;
    if h == 0 {
        return None;
    }
    if rank < h {
        Some(rank + h)
    } else if rank < 2 * h {
        Some(rank - h)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_mpi::World;
    use beff_netsim::{MachineNet, NetParams, Topology};
    use std::sync::Arc;

    fn world(topo: Topology) -> World {
        World::sim(Arc::new(MachineNet::new(topo, NetParams::default())))
    }

    #[test]
    fn interleaved_order_is_permutation_with_long_hops() {
        for n in [2usize, 5, 8, 17, 64] {
            let v: Vec<usize> = (0..n).map(|pos| interleaved_rank(pos, n)).collect();
            let opening = (0..n.div_ceil(2)).flat_map(|i| [i, i + n.div_ceil(2)]);
            assert!(v.iter().copied().eq(opening.filter(|&r| r < n)), "n={n}: {v:?}");
            for (pos, &r) in v.iter().enumerate() {
                assert_eq!(interleaved_position(r, n), pos, "n={n} rank={r}");
            }
            let mut s = v.clone();
            s.sort_unstable();
            assert_eq!(s, (0..n).collect::<Vec<_>>(), "n={n}");
            if n >= 8 {
                // most consecutive hops are ~n/2 apart
                let far = v
                    .windows(2)
                    .filter(|w| {
                        let d = w[0].abs_diff(w[1]);
                        d.min(n - d) >= n / 2 - 1
                    })
                    .count();
                assert!(far >= n - 3, "n={n}: only {far} far hops in {v:?}");
            }
        }
    }

    #[test]
    fn bisection_pairings_are_involutions() {
        for n in [2usize, 7, 8, 15, 16] {
            for r in 0..n {
                if let Some(p) = best_bisection_peer(r, n) {
                    assert_eq!(best_bisection_peer(p, n), Some(r), "best n={n} r={r}");
                }
                if let Some(p) = worst_bisection_peer(r, n) {
                    assert_eq!(worst_bisection_peer(p, n), Some(r), "worst n={n} r={r}");
                }
            }
        }
    }

    #[test]
    fn odd_rank_counts_leave_someone_idle() {
        assert_eq!(best_bisection_peer(6, 7), None);
        assert_eq!(worst_bisection_peer(6, 7), None);
        assert_eq!(worst_bisection_peer(0, 7), Some(3));
    }

    #[test]
    fn extras_run_on_a_small_sim() {
        let results = world(Topology::Ring { procs: 8 }).run(|c| {
            let mut tr = Transfers::new(c, 1 << 16);
            run_extras(c, &mut tr, 1 << 16, 3)
        });
        let r0 = &results[0];
        assert!(r0.len() >= 8, "names: {:?}", r0.iter().map(|e| &e.name).collect::<Vec<_>>());
        for e in r0 {
            assert!(e.mbps > 0.0, "{} has zero bandwidth", e.name);
        }
        // on a ring topology, the worst bisection cannot beat the best
        let best = r0.iter().find(|e| e.name == "best bisection").unwrap().mbps;
        let worst = r0.iter().find(|e| e.name == "worst bisection").unwrap().mbps;
        assert!(worst <= best * 1.05, "worst={worst} best={best}");
    }

    #[test]
    fn pingpong_positive_and_agreed() {
        let bws = world(Topology::Crossbar { procs: 4 }).run(|c| {
            let mut tr = Transfers::new(c, 1 << 20);
            pingpong(c, &mut tr, 1 << 20, 4)
        });
        assert!(bws[0] > 0.0);
        for w in bws.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "all ranks agree: {bws:?}");
        }
    }

    #[test]
    fn extras_and_pingpong_move_payload_bytes() {
        let results = world(Topology::Crossbar { procs: 4 }).copy_data(true).run(|c| {
            let mut tr = Transfers::new(c, 1 << 14);
            let pp = pingpong(c, &mut tr, 1 << 14, 2);
            let extras = run_extras(c, &mut tr, 1 << 14, 2);
            (pp, extras.len())
        });
        assert!(results[0].0 > 0.0, "ping-pong must move bytes");
        assert!(results[0].1 >= 8);
    }

    #[test]
    fn single_rank_pingpong_is_zero() {
        let results = world(Topology::Crossbar { procs: 1 }).copy_data(true).run(|c| {
            let mut tr = Transfers::new(c, 64);
            pingpong(c, &mut tr, 64, 2)
        });
        assert_eq!(results[0], 0.0);
    }
}
