//! Stress and property tests for the MPI runtime: message storms with
//! random sizes, collectives under random inputs, communicator algebra.

use beff_check::{check_n, ensure, ensure_eq};
use beff_mpi::mailbox::{Mailbox, Match, PushOutcome};
use beff_mpi::message::{Envelope, Payload};
use beff_mpi::{ReduceOp, World};
use beff_netsim::{MachineNet, NetParams, Topology};
use std::sync::Arc;

/// `n` ranks on a crossbar, moving payload bytes.
fn world(n: usize) -> World {
    let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: n }, NetParams::default()));
    World::sim(net).copy_data(true)
}

#[test]
fn message_storm_all_to_one_preserves_everything() {
    let n = 8;
    let out = world(n).run(|c| {
        if c.rank() == 0 {
            let mut seen = vec![0u32; c.size()];
            for _ in 0..(c.size() - 1) * 50 {
                let (data, info) = c.recv_vec(None, Some(9));
                assert_eq!(data.len(), 4);
                let v = u32::from_le_bytes(data.try_into().unwrap());
                assert_eq!(v as usize % c.size(), info.src);
                seen[info.src] += 1;
            }
            seen.iter().skip(1).all(|&k| k == 50)
        } else {
            for i in 0..50u32 {
                let v = i * c.size() as u32 + c.rank() as u32;
                c.send(0, 9, &v.to_le_bytes());
            }
            true
        }
    });
    assert!(out.iter().all(|&b| b));
}

#[test]
fn interleaved_tags_match_independently() {
    let out = world(2).run(|c| {
        if c.rank() == 0 {
            // send tag 2 first, then tag 1: receiver asks in reverse
            c.send(1, 2, b"two");
            c.send(1, 1, b"one");
            true
        } else {
            let (a, _) = c.recv_vec(Some(0), Some(1));
            let (b, _) = c.recv_vec(Some(0), Some(2));
            a == b"one" && b == b"two"
        }
    });
    assert!(out.iter().all(|&b| b));
}

#[test]
fn virtual_time_never_decreases_per_rank() {
    let net = Arc::new(MachineNet::new(
        Topology::Torus2D { dims: [3, 3] },
        NetParams::default(),
    ));
    let ok = World::sim(net).run(|c| {
        let n = c.size();
        let mut last = c.now();
        let mut mono = true;
        for round in 0..20 {
            let shift = round % n;
            let dst = (c.rank() + shift + 1) % n;
            let src = (c.rank() + n - shift - 1) % n;
            let sr = c.payload_isend(dst, 5, &[0; 128]);
            let mut buf = [0u8; 128];
            c.recv(Some(src), Some(5), &mut buf);
            c.wait_send(sr);
            mono &= c.now() >= last;
            last = c.now();
            c.barrier();
            mono &= c.now() >= last;
            last = c.now();
        }
        mono
    });
    assert!(ok.iter().all(|&b| b));
}

/// The pre-optimization mailbox was one linear queue: every envelope
/// landed in arrival order and every receive scanned it front-to-back.
/// This reference model reimplements those semantics (with posted
/// receives as standing front-of-queue scans) so the two-queue mailbox
/// can be checked against it over random operation sequences.
mod linear_scan_reference {
    use super::*;

    struct Slot {
        id: usize,
        m: Match,
        delivered: Option<Envelope>,
    }

    #[derive(Default)]
    pub struct Reference {
        arrivals: Vec<Envelope>,
        pending: Vec<Slot>,
        next_id: usize,
    }

    impl Reference {
        /// Arrival-order append; a standing receive claims it first
        /// (oldest open slot wins, as a woken scanner would).
        pub fn push(&mut self, env: Envelope) -> PushOutcome {
            if let Some(slot) = self
                .pending
                .iter_mut()
                .find(|s| s.delivered.is_none() && s.m.matches(&env))
            {
                slot.delivered = Some(env);
                return PushOutcome::Matched;
            }
            self.arrivals.push(env);
            PushOutcome::Queued
        }

        /// Front-to-back scan of everything that has arrived.
        pub fn try_recv(&mut self, m: Match) -> Option<Envelope> {
            let pos = self.arrivals.iter().position(|e| m.matches(e))?;
            Some(self.arrivals.remove(pos))
        }

        pub fn post(&mut self, m: Match) -> usize {
            let id = self.next_id;
            self.next_id += 1;
            self.pending.push(Slot { id, m, delivered: None });
            id
        }

        pub fn take_delivered(&mut self, id: usize) -> Option<Envelope> {
            let pos = self.pending.iter().position(|s| s.id == id)?;
            self.pending.remove(pos).delivered
        }
    }
}

#[test]
fn two_queue_mailbox_matches_linear_scan_reference() {
    use linear_scan_reference::Reference;
    check_n("two-queue mailbox == linear scan", 64, |g| {
        let mb = Mailbox::new();
        let mut reference = Reference::default();
        // Tickets of receives that had to be posted, paired model/real.
        let mut open: Vec<(u64, usize)> = Vec::new();
        let mut serial = 0u64;
        let env_at = |ctx: u32, src: usize, tag: u32, serial: u64| Envelope {
            ctx,
            src,
            tag,
            head: 0.0,
            arrival: 0.0,
            payload: Payload::Len(serial),
        };
        for _ in 0..g.usize(1..=120) {
            let ctx = g.u32(0..=1);
            match g.usize(0..=3) {
                // push a fresh envelope (serial number identifies it)
                0 | 1 => {
                    let (src, tag) = (g.usize(0..=3), g.u32(1..=3));
                    ensure_eq!(
                        mb.push(env_at(ctx, src, tag, serial)),
                        reference.push(env_at(ctx, src, tag, serial))
                    );
                    serial += 1;
                }
                // receive: immediate take or post, like blocking_recv
                2 => {
                    let src = g.usize(0..=3);
                    let tag = g.u32(1..=3);
                    let m = Match {
                        ctx,
                        src: (g.u64(0..=1) == 1).then_some(src),
                        tag: (g.u64(0..=1) == 1).then_some(tag),
                    };
                    let a = mb.try_recv(m);
                    let b = reference.try_recv(m);
                    ensure_eq!(
                        a.as_ref().map(|e| e.payload.len()),
                        b.as_ref().map(|e| e.payload.len())
                    );
                    if a.is_none() {
                        open.push((mb.post(m), reference.post(m)));
                    }
                }
                // complete (or cancel) a random outstanding receive
                _ => {
                    if !open.is_empty() {
                        let i = g.usize(0..=open.len() - 1);
                        let (ticket, id) = open.remove(i);
                        ensure_eq!(
                            mb.take_delivered(ticket).map(|e| e.payload.len()),
                            reference.take_delivered(id).map(|e| e.payload.len())
                        );
                    }
                }
            }
        }
        // Drain every outstanding receive, then the queues themselves:
        // both models must hold identical envelopes in identical order.
        for (ticket, id) in open {
            ensure_eq!(
                mb.take_delivered(ticket).map(|e| e.payload.len()),
                reference.take_delivered(id).map(|e| e.payload.len())
            );
        }
        for ctx in 0..=1 {
            let m = Match { ctx, src: None, tag: None };
            loop {
                let a = mb.try_recv(m);
                let b = reference.try_recv(m);
                ensure_eq!(
                    a.as_ref().map(|e| e.payload.len()),
                    b.as_ref().map(|e| e.payload.len())
                );
                if a.is_none() {
                    break;
                }
            }
        }
        ensure!(mb.is_empty());
    });
}

/// Rank 0 ping-pongs with three peers that fall into the same two-way
/// set of its route cache (`p`, `p + 8`, `p + 16`), in a rotation that
/// is LRU's worst case: every one of its sends evicts the route it will
/// need two sends later (receives need no route). Every clock any rank
/// reads must equal, bit for bit, the same exchange priced straight off
/// the machine-wide route table.
#[test]
fn colliding_route_cache_peers_price_like_the_shared_table() {
    let slots = beff_mpi::engine::ROUTE_CACHE_SLOTS;
    let n = 2 * slots + 2;
    let peers = [1, 1 + slots / 2, 1 + slots];
    let rounds = 5usize;
    let len = |i: usize| 1000 * (i + 1);
    let machine = || {
        let params = NetParams { contention: 1.5, ..NetParams::default() };
        MachineNet::new(Topology::Ring { procs: n }, params)
    };

    let got = World::sim(Arc::new(machine())).run(|c| {
        let mut clocks = Vec::new();
        let mut buf = vec![0u8; len(rounds)];
        let me = c.rank();
        for i in 0..rounds {
            if me == 0 {
                for p in peers {
                    c.payload_send(p, 1, &buf[..len(i)]);
                    clocks.push(c.now().to_bits());
                    c.recv(Some(p), Some(2), &mut buf);
                    clocks.push(c.now().to_bits());
                }
            } else if peers.contains(&me) {
                c.recv(Some(0), Some(1), &mut buf);
                clocks.push(c.now().to_bits());
                c.payload_send(0, 2, &buf[..len(i) / 2]);
                clocks.push(c.now().to_bits());
            }
        }
        clocks
    });

    let net = machine();
    let (o_send, o_recv) = (net.params().o_send, net.params().o_recv);
    let mut now = vec![0.0f64; n];
    let mut want = vec![Vec::new(); n];
    let mut message = |src: usize, dst: usize, bytes: usize| {
        let sr = net.split_route(src, dst);
        let eg = net.price_egress(&sr.egress, bytes as u64, now[src] + o_send);
        now[src] = (now[src] + o_send).max(eg.injected);
        want[src].push(now[src].to_bits());
        let done = net.price_ingress(&sr.ingress, bytes as u64, eg.head, eg.finish);
        now[dst] = now[dst].max(done) + o_recv;
        want[dst].push(now[dst].to_bits());
    };
    for i in 0..rounds {
        for p in peers {
            message(0, p, len(i));
            message(p, 0, len(i) / 2);
        }
    }
    assert_eq!(got, want);
}

#[test]
fn allreduce_agrees_with_local_reduction() {
    check_n("allreduce agrees with local reduction", 12, |g| {
        let vals: Vec<f64> = (0..4).map(|_| g.f64(-1e6, 1e6)).collect();
        let op = *g.choose(&[ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min]);
        let vals = Arc::new(vals);
        let expected = match op {
            ReduceOp::Sum => vals.iter().sum::<f64>(),
            ReduceOp::Max => vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            ReduceOp::Min => vals.iter().cloned().fold(f64::INFINITY, f64::min),
        };
        let out = world(4).run(|c| c.allreduce_scalar(vals[c.rank()], op));
        for v in out {
            ensure!((v - expected).abs() < 1e-6 * expected.abs().max(1.0));
        }
    });
}

#[test]
fn bcast_any_root_any_payload() {
    check_n("bcast any root any payload", 12, |g| {
        let root = g.usize(0..=4);
        let payload = Arc::new(g.vec(0..=4095, |g| g.u64(0..=255) as u8));
        let out = world(5).run(|c| {
            let mut data = if c.rank() == root { (*payload).clone() } else { Vec::new() };
            c.bcast(root, &mut data);
            data
        });
        for d in out {
            ensure_eq!(&d, &*payload);
        }
    });
}

#[test]
fn split_partitions_are_exact() {
    check_n("split partitions are exact", 12, |g| {
        let colors = Arc::new((0..6).map(|_| g.u32(0..=2)).collect::<Vec<u32>>());
        let out = world(6).run(|c| {
            let color = colors[c.rank()];
            let sub = c.split(Some(color), c.rank() as i64).unwrap();
            (color, sub.size(), sub.rank())
        });
        for want in 0u32..3 {
            let members: Vec<_> = out.iter().filter(|(c, _, _)| *c == want).collect();
            for (i, (_, size, rank)) in members.iter().enumerate() {
                ensure_eq!(*size, members.len());
                ensure_eq!(*rank, i, "ranks ordered by key=world rank");
            }
        }
    });
}

#[test]
fn isend_recv_random_counts_roundtrip() {
    // every rank posts a send of a drawn length (zero included) to every
    // peer, then receives from each peer in shifted order
    check_n("isend/recv random counts roundtrip", 12, |g| {
        let seed = g.u64(0..=999);
        let n = 4usize;
        let out = world(n).run(move |c| {
            // deterministic pseudo-random counts known to all ranks
            let count = |from: usize, to: usize| -> usize {
                ((seed as usize).wrapping_mul(31) + from * 7 + to * 13) % 50
            };
            let r = c.rank();
            let sends: Vec<_> = (1..n)
                .map(|shift| {
                    let to = (r + shift) % n;
                    c.payload_isend(to, 3, &vec![(r * 16 + to) as u8; count(r, to)])
                })
                .collect();
            let mut ok = true;
            for shift in 1..n {
                let from = (r + n - shift) % n;
                let mut buf = vec![0u8; count(from, r)];
                let info = c.recv(Some(from), Some(3), &mut buf);
                ok &= info.len as usize == buf.len();
                ok &= buf.iter().all(|&b| b == (from * 16 + r) as u8);
            }
            for s in sends {
                c.wait_send(s);
            }
            ok
        });
        ensure!(out.iter().all(|&b| b));
    });
}
