//! Property tests for the network simulator substrate.

use beff_check::{check, ensure, ensure_eq, Gen};
use beff_netsim::{
    traffic_report, Clock, Degrade, MachineNet, NetParams, Placement, Resource, Rng64, Tier,
    Topology, VClock,
};

fn gen_topology(g: &mut Gen) -> Topology {
    match g.usize(0..=4) {
        0 => Topology::Crossbar { procs: g.usize(1..=31) },
        1 => Topology::Ring { procs: g.usize(2..=31) },
        2 => Topology::Torus2D { dims: [g.usize(1..=5), g.usize(1..=5)] },
        3 => Topology::Torus3D {
            dims: [g.usize(1..=3), g.usize(1..=3), g.usize(1..=3)],
        },
        _ => Topology::SmpCluster {
            nodes: g.usize(1..=4),
            ppn: g.usize(1..=4),
            placement: *g.choose(&[Placement::Sequential, Placement::RoundRobin]),
        },
    }
}

#[test]
fn routes_stay_in_link_space_and_split_consistently() {
    check("routes stay in link space", |g| {
        let topo = gen_topology(g);
        let n = topo.procs();
        let (src, dst) = (g.usize(0..=999) % n, g.usize(0..=999) % n);
        for l in topo.route(src, dst) {
            ensure!(l < topo.num_links());
        }
        let (mut e, mut i) = (Vec::new(), Vec::new());
        topo.route_split_into(src, dst, &mut e, &mut i);
        for l in e.iter().chain(i.iter()) {
            ensure!(*l < topo.num_links());
        }
        if src == dst {
            ensure!(e.is_empty() && i.is_empty());
        } else {
            ensure!(!e.is_empty() && !i.is_empty());
        }
    });
}

#[test]
fn resource_reservations_never_overlap() {
    check("resource reservations never overlap", |g| {
        let requests = g.vec(1..=49, |g| (g.f64(0.0, 100.0), g.f64(0.001, 5.0)));
        let r = Resource::new();
        let mut spans: Vec<(f64, f64)> = requests
            .iter()
            .map(|&(earliest, dur)| {
                let s = r.reserve(earliest, dur);
                (s, s + dur)
            })
            .collect();
        spans.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        for w in spans.windows(2) {
            ensure!(w[0].1 <= w[1].0 + 1e-9);
        }
    });
}

#[test]
fn fair_share_is_work_conserving_and_order_independent() {
    check("fair share is work conserving and order independent", |g| {
        // K reservations contending for the same window: booked in an
        // arbitrary order, they must (a) keep the resource busy with no
        // idle gap (work conservation) and (b) produce the same booked
        // finish times regardless of booking order.
        let k = g.usize(2..=12);
        let factor = g.f64(1.0, 4.0);
        let earliest = g.f64(0.0, 50.0);
        let dur = g.f64(0.001, 5.0);
        let finishes = |order: &[usize]| -> Vec<f64> {
            let r = Resource::with_contention(factor);
            let mut f = vec![0.0; order.len()];
            for &i in order {
                f[i] = r.reserve_finish(earliest, dur);
            }
            f.sort_by(|a, b| a.partial_cmp(b).unwrap());
            f
        };
        let forward: Vec<usize> = (0..k).collect();
        let mut shuffled = forward.clone();
        // deterministic Fisher-Yates from generated indices
        for i in (1..k).rev() {
            shuffled.swap(i, g.usize(0..=i));
        }
        let a = finishes(&forward);
        let b = finishes(&shuffled);
        for (x, y) in a.iter().zip(b.iter()) {
            ensure_eq!(x.to_bits(), y.to_bits(), "finish times differ across orders");
        }
        // Work conservation: the first finishes after one serial
        // duration, every later one exactly one fair-share slot after
        // its predecessor — no idle gap anywhere in the busy span.
        ensure!((a[0] - (earliest + dur)).abs() <= 1e-9 * a[0].max(1.0));
        for w in a.windows(2) {
            ensure!((w[1] - w[0] - dur * factor).abs() <= 1e-9 * w[1].max(1.0));
        }
        // Total booked time equals total billed work: serial first
        // stream + (k-1) fair-share streams.
        let span = a[k - 1] - earliest;
        let billed = dur + (k - 1) as f64 * dur * factor;
        ensure!((span - billed).abs() <= 1e-9 * billed.max(1.0));
    });
}

#[test]
fn fair_share_factor_one_matches_plain_fifo_bitwise() {
    check("fair share factor one matches plain fifo bitwise", |g| {
        // contention factor 1.0 must be indistinguishable from the
        // pre-fair-share resource on ANY reservation sequence — this is
        // the invariant that keeps the golden results byte-identical.
        let requests = g.vec(1..=49, |g| (g.f64(0.0, 100.0), g.f64(0.0, 5.0)));
        let plain = Resource::new();
        let faired = Resource::with_contention(1.0);
        let mut reference_nf: f64 = 0.0;
        for &(earliest, dur) in &requests {
            let ref_start = earliest.max(reference_nf);
            reference_nf = ref_start + dur;
            let (ps, pf) = plain.reserve_span(earliest, dur);
            let (fs, ff) = faired.reserve_span(earliest, dur);
            ensure_eq!(ps.to_bits(), ref_start.to_bits());
            ensure_eq!(fs.to_bits(), ref_start.to_bits());
            ensure_eq!(pf.to_bits(), reference_nf.to_bits());
            ensure_eq!(ff.to_bits(), reference_nf.to_bits());
        }
    });
}

/// The reference a link ledger slot is held against: one link's
/// occupancy on a [`Resource`] of its own, its fault windows and its
/// counters — the per-link design the ledger replaced.
struct OracleLink {
    latency: f64,
    byte_time: f64,
    res: Resource,
    windows: Vec<Degrade>,
    dead: bool,
    bytes: u64,
    messages: u64,
}

impl OracleLink {
    fn new(latency: f64, byte_time: f64, contention: f64) -> Self {
        let res = Resource::with_contention(contention);
        Self { latency, byte_time, res, windows: Vec::new(), dead: false, bytes: 0, messages: 0 }
    }

    /// What a reset leaves: the pricing terms and the installed faults.
    fn reset(&mut self) {
        self.res.reset();
        (self.bytes, self.messages) = (0, 0);
    }

    fn traverse(&mut self, head: f64, bytes: u64) -> (f64, f64) {
        let at = head + self.latency;
        let mut occ = bytes as f64 * self.byte_time;
        if !self.windows.is_empty() {
            let hit = self.windows.iter().filter(|w| w.from <= at && at < w.until);
            occ *= hit.map(|w| w.slowdown).product::<f64>().max(1.0);
        }
        self.bytes += bytes;
        self.messages += 1;
        self.res.reserve_span(at, occ)
    }
}

#[test]
fn ledger_books_bit_identically_to_per_link_resources() {
    check("ledger equals the per-link Resource oracle", |g| {
        let topo = gen_topology(g);
        let contention = if g.bool() { 1.0 } else { g.f64(1.0, 4.0) };
        let params = NetParams {
            contention,
            backplane: g.bool().then(|| Tier::new(1e-6, 500.0)),
            ..NetParams::default()
        };
        let net = MachineNet::new(topo.clone(), params.clone());
        let n_links = topo.num_links();
        let shared = |l| if topo.link_kind(l).is_shared() { contention } else { 1.0 };
        let mut oracle: Vec<OracleLink> = (net.links().iter().enumerate())
            .map(|(l, link)| OracleLink::new(link.latency, link.byte_time, shared(l)))
            .collect();
        let mut backplane =
            params.backplane.map(|t| OracleLink::new(t.latency, t.byte_time(), contention));
        // A degrade window on some link (overlapping ones multiply).
        let degrade = |g: &mut Gen, oracle: &mut Vec<OracleLink>| {
            let l = g.usize(0..=n_links - 1);
            let from = g.f64(0.0, 50.0);
            let w = Degrade { from, until: from + g.f64(0.0, 50.0), slowdown: g.f64(1.0, 8.0) };
            oracle[l].windows.push(w);
            net.ledger().set_fault_windows(l, oracle[l].windows.clone());
        };
        for _ in 0..g.usize(0..=3) {
            degrade(g, &mut oracle);
        }
        let n = topo.procs();
        for _ in 0..g.usize(1..=60) {
            let bytes = g.u64(0..=4_000_000);
            let head = g.f64(0.0, 100.0);
            // Between bookings: faults come and go, one link or the
            // whole ledger is reset — which must idle the counters and
            // leave the pricing terms and the installed faults alone.
            match g.usize(0..=13) {
                0 => degrade(g, &mut oracle),
                1 => {
                    let l = g.usize(0..=n_links - 1);
                    oracle[l].dead = g.bool();
                    net.links()[l].set_dead(oracle[l].dead);
                }
                2 => {
                    let l = g.usize(0..=n_links - 1);
                    net.ledger().reset_link(l);
                    oracle[l].reset();
                }
                3 => {
                    net.reset();
                    oracle.iter_mut().chain(&mut backplane).for_each(OracleLink::reset);
                }
                4 => {
                    let l = g.usize(0..=n_links - 1);
                    net.ledger().set_fault_windows(l, Vec::new());
                    oracle[l].windows.clear();
                }
                5 => {
                    net.ledger().clear_faults();
                    for o in &mut oracle {
                        o.windows.clear();
                        o.dead = false;
                    }
                }
                _ => {}
            }
            if g.bool() {
                // one booking on one link
                let l = g.usize(0..=n_links - 1);
                let got = net.ledger().traverse(l, head, bytes);
                let want = oracle[l].traverse(head, bytes);
                ensure_eq!((got.0.to_bits(), got.1.to_bits()), (want.0.to_bits(), want.1.to_bits()));
            } else {
                // one message over a whole route, both halves
                let sr = net.split_route(g.usize(0..=999) % n, g.usize(0..=999) % n);
                if sr.egress.is_empty() {
                    continue; // self-message: books nothing
                }
                let eg = net.price_egress(&sr.egress, bytes, head);
                let (mut h, mut finish, mut injected) = (head, head, head);
                for (i, &l) in sr.egress.iter().enumerate() {
                    let (start, fin) = oracle[l].traverse(h, bytes);
                    h = start;
                    finish = finish.max(fin);
                    if i == 0 {
                        injected = fin;
                    }
                }
                if let Some(bp) = &mut backplane {
                    finish = finish.max(bp.traverse(head, bytes).1);
                }
                ensure_eq!(eg.injected.to_bits(), injected.to_bits());
                ensure_eq!(eg.head.to_bits(), h.to_bits());
                ensure_eq!(eg.finish.to_bits(), finish.to_bits());
                let done = net.price_ingress(&sr.ingress, bytes, eg.head, eg.finish);
                for &l in sr.ingress.iter() {
                    let (start, fin) = oracle[l].traverse(h, bytes);
                    h = start;
                    finish = finish.max(fin);
                }
                ensure_eq!(done.to_bits(), finish.to_bits());
            }
        }
        for (l, (link, want)) in net.links().iter().zip(&oracle).enumerate() {
            ensure_eq!(net.ledger().bytes_carried(l), want.bytes, "bytes on link {l}");
            ensure_eq!(net.ledger().messages_carried(l), want.messages, "messages on link {l}");
            ensure_eq!(net.ledger().horizon(l).to_bits(), want.res.horizon().to_bits());
            ensure_eq!(link.is_dead(), want.dead, "dead flag of link {l}");
        }
        let report = traffic_report(&net);
        ensure_eq!(report.total_bytes(), oracle.iter().map(|o| o.bytes).sum::<u64>());
        net.reset();
        ensure_eq!(traffic_report(&net).total_bytes(), 0);
        let ledger = net.ledger();
        ensure!((0..n_links).all(|l| ledger.horizon(l) == 0.0 && ledger.messages_carried(l) == 0));
    });
}

#[test]
fn vclock_is_monotone() {
    check("vclock is monotone", |g| {
        let ops = g.vec(1..=99, |g| (g.bool(), g.f64(0.0, 10.0)));
        let mut c = VClock::new();
        let mut last = 0.0;
        for (advance_by, v) in ops {
            if advance_by {
                c.advance(v)
            } else {
                c.advance_to(v)
            }
            ensure!(c.now() >= last);
            last = c.now();
        }
    });
}

#[test]
fn pricing_is_causally_sane() {
    check("pricing is causally sane", |g| {
        let topo = gen_topology(g);
        let n = topo.procs();
        let bytes = g.u64(0..=9_999_999);
        let inject = g.f64(0.0, 1000.0);
        let (a, b) = (g.usize(0..=999) % n, g.usize(0..=999) % n);
        let net = MachineNet::new(topo, NetParams::default());
        let tr = net.transfer(a, b, bytes, inject);
        ensure!(tr.injected >= inject);
        ensure!(tr.arrival >= tr.injected - 1e-12);
        ensure!(tr.arrival.is_finite());
    });
}

#[test]
fn rng_permutations_are_valid() {
    check("rng permutations are valid", |g| {
        let n = g.usize(1..=499);
        let mut rng = Rng64::new(g.u64(0..=9999));
        let p = rng.permutation(n);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        ensure_eq!(sorted, (0..n).collect::<Vec<_>>());
    });
}
