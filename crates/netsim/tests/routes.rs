//! Pins every route the topologies produce: one FNV-1a digest over the
//! link-id space, each link's kind and each pair's route and ingress.
//! A refactor of the routing code must leave the digest unchanged.

use beff_netsim::{Placement, Topology};

/// Fold `bytes` into the 64-bit FNV-1a state `h`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Fold a link list, its length first, as little-endian u64 words.
fn fnv_links(h: &mut u64, links: &[usize]) {
    for w in std::iter::once(links.len()).chain(links.iter().copied()) {
        fnv(h, &(w as u64).to_le_bytes());
    }
}

#[test]
fn every_route_ingress_and_link_kind_is_pinned() {
    let smp = |placement| Topology::SmpCluster { nodes: 3, ppn: 4, placement };
    let topos = [
        Topology::Crossbar { procs: 7 },
        Topology::Ring { procs: 9 },
        Topology::Ring { procs: 2 },
        Topology::Torus2D { dims: [3, 5] },
        Topology::Torus2D { dims: [1, 4] },
        Topology::Torus3D { dims: [2, 3, 4] },
        Topology::Torus3D { dims: [8, 8, 8] },
        smp(Placement::Sequential),
        smp(Placement::RoundRobin),
    ];
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut path = Vec::new();
    for t in &topos {
        fnv(&mut h, &(t.num_links() as u64).to_le_bytes());
        for l in 0..t.num_links() {
            // by name: the discriminants renumber when a kind goes
            fnv(&mut h, format!("{:?}", t.link_kind(l)).as_bytes());
        }
        for src in 0..t.procs() {
            for dst in 0..t.procs() {
                t.route_into(src, dst, &mut path);
                fnv_links(&mut h, &path);
                fnv_links(&mut h, &t.ingress(src, dst));
            }
        }
    }
    assert_eq!(h, 0xe9af_fa37_531b_3827, "route digest {h:#018x}");
}
