//! Interconnect topologies and rank placement.
//!
//! A topology maps a pair of ranks to the ordered list of *links* a
//! message traverses. Links are identified by dense indices so the
//! [`crate::model::MachineNet`] can keep them in a flat `Vec<Link>`.
//!
//! Every proc (or SMP node) has a **port** link that all its traffic —
//! inbound *and* outbound — crosses. This is the memory/router
//! interface of the node, and sharing it between directions is what
//! makes a parallel bidirectional ring run at roughly *half* the
//! ping-pong bandwidth per process, as the paper's Table 1 shows
//! (T3E: 330 MB/s ping-pong vs ~193 MB/s per-proc ring at `L_max`).
//!
//! Supported shapes (covering the paper's evaluation systems):
//!
//! * [`Topology::Crossbar`] — contention-free switch, per-proc ports
//!   (NEC SX, HP-V, SV1 style shared-memory machines: the "port" is the
//!   processor's memory access path),
//! * [`Topology::Ring`] / [`Topology::Torus2D`] / [`Topology::Torus3D`]
//!   — direct networks with dimension-order routing over per-hop links
//!   plus the per-node ports (Cray T3E is an 8×8×8 torus),
//! * [`Topology::SmpCluster`] — nodes with `ppn` processes each, one
//!   memory lane per process inside the node and NIC in/out ports
//!   between nodes over a contention-free switch (Hitachi SR 8000,
//!   IBM SP).

use beff_json::{Json, ToJson};

/// How consecutive MPI ranks are laid out on an SMP cluster.
///
/// The paper shows this matters enormously on the Hitachi SR 8000:
/// *round-robin* placement makes ring neighbors land on different nodes
/// (all traffic crosses NICs), *sequential* keeps most neighbors inside
/// a node (fast shared memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// rank r lives on node `r / ppn` (fills one node before the next).
    Sequential,
    /// rank r lives on node `r % nodes`.
    RoundRobin,
}

/// What role a link plays; the cost model assigns per-kind parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Per-proc transmit port (full-duplex send side).
    PortOut,
    /// Per-proc receive port (full-duplex receive side).
    PortIn,
    /// Per-proc memory system: every byte in or out crosses it. This is
    /// what makes a bidirectional ring run at roughly half the
    /// ping-pong rate per process (Table 1: T3E 330 vs ~193 MB/s).
    NodeMem,
    /// One directed hop of a ring/torus.
    Hop,
    /// NIC transmit port of one node.
    NicOut,
    /// NIC receive port of one node.
    NicIn,
}

impl LinkKind {
    /// Whether the link is shared by *independent* agents (distinct
    /// ranks or nodes) rather than owned by a single rank. Fair-share
    /// contention billing ([`crate::model::NetParams::contention`])
    /// applies only to shared kinds: a lone rank streaming back-to-back
    /// through its own port pays no arbitration overhead, but torus
    /// hops and SMP NICs carry traffic from many agents and do.
    pub fn is_shared(self) -> bool {
        match self {
            LinkKind::Hop | LinkKind::NicOut | LinkKind::NicIn => true,
            LinkKind::PortOut | LinkKind::PortIn | LinkKind::NodeMem => false,
        }
    }
}

/// Network shape. See module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    Crossbar { procs: usize },
    Ring { procs: usize },
    Torus2D { dims: [usize; 2] },
    Torus3D { dims: [usize; 3] },
    SmpCluster { nodes: usize, ppn: usize, placement: Placement },
}

impl ToJson for Placement {
    fn to_json(&self) -> Json {
        // Externally-tagged unit variants serialize as bare strings.
        Json::Str(
            match self {
                Placement::Sequential => "Sequential",
                Placement::RoundRobin => "RoundRobin",
            }
            .to_owned(),
        )
    }
}

impl ToJson for Topology {
    fn to_json(&self) -> Json {
        // Externally-tagged struct variants: {"Name": {fields…}}.
        match self {
            Topology::Crossbar { procs } => Json::variant(
                "Crossbar",
                Json::object().field("procs", procs).build(),
            ),
            Topology::Ring { procs } => {
                Json::variant("Ring", Json::object().field("procs", procs).build())
            }
            Topology::Torus2D { dims } => Json::variant(
                "Torus2D",
                Json::object().field("dims", dims).build(),
            ),
            Topology::Torus3D { dims } => Json::variant(
                "Torus3D",
                Json::object().field("dims", dims).build(),
            ),
            Topology::SmpCluster { nodes, ppn, placement } => Json::variant(
                "SmpCluster",
                Json::object()
                    .field("nodes", nodes)
                    .field("ppn", ppn)
                    .field("placement", placement)
                    .build(),
            ),
        }
    }
}

impl Topology {
    /// Number of MPI processes the topology hosts.
    pub fn procs(&self) -> usize {
        match *self {
            Topology::Crossbar { procs } | Topology::Ring { procs } => procs,
            Topology::Torus2D { dims } => dims[0] * dims[1],
            Topology::Torus3D { dims } => dims[0] * dims[1] * dims[2],
            Topology::SmpCluster { nodes, ppn, .. } => nodes * ppn,
        }
    }

    /// Number of distinct links (dense link-id space `0..num_links()`):
    /// per proc a port-out, a port-in and a node memory, then per proc
    /// and torus dimension a `+` and a `-` hop, or per SMP node a NIC-out
    /// and a NIC-in.
    pub fn num_links(&self) -> usize {
        let n = self.procs();
        match *self {
            Topology::SmpCluster { nodes, .. } => 3 * n + 2 * nodes,
            _ => (3 + 2 * self.dims().len()) * n,
        }
    }

    /// Role of a link id (for per-kind cost parameters).
    pub fn link_kind(&self, link: usize) -> LinkKind {
        debug_assert!(link < self.num_links(), "{self:?} has no link {link}");
        let n = self.procs();
        match (link / n, self) {
            (0, _) => LinkKind::PortOut,
            (1, _) => LinkKind::PortIn,
            (2, _) => LinkKind::NodeMem,
            (_, Topology::SmpCluster { nodes, .. }) if link < 3 * n + nodes => LinkKind::NicOut,
            (_, Topology::SmpCluster { .. }) => LinkKind::NicIn,
            _ => LinkKind::Hop,
        }
    }

    /// Torus side lengths, X first: a ring is a 1-D torus; a crossbar
    /// or an SMP cluster has no hop links.
    fn dims(&self) -> &[usize] {
        match self {
            Topology::Ring { procs } => std::slice::from_ref(procs),
            Topology::Torus2D { dims } => dims,
            Topology::Torus3D { dims } => dims,
            Topology::Crossbar { .. } | Topology::SmpCluster { .. } => &[],
        }
    }

    /// SMP node hosting `rank` (identity for non-clustered shapes).
    pub fn node_of(&self, rank: usize) -> usize {
        match *self {
            Topology::SmpCluster { nodes, ppn, placement } => match placement {
                Placement::Sequential => rank / ppn,
                Placement::RoundRobin => rank % nodes,
            },
            _ => rank,
        }
    }

    /// Append the links a message from `src` to `dst` traverses, in
    /// order, to `path`: the sender's port-out and node memory, the
    /// torus hops in dimension order (X first, shortest direction per
    /// dimension), the sender node's NIC-out when the message leaves an
    /// SMP node, then its [`ingress`](Self::ingress). `src == dst`
    /// yields an empty path (local copy, priced separately by the
    /// model).
    pub fn route_into(&self, src: usize, dst: usize, path: &mut Vec<usize>) {
        path.clear();
        if src == dst {
            return;
        }
        let n = self.procs();
        path.push(src);
        path.push(2 * n + src);
        // dimension d's `+` and `-` hops are link blocks 3 + 2d and
        // 4 + 2d, indexed by the node the hop leaves
        let (mut node, mut stride) = (src, 1);
        for (d, &len) in self.dims().iter().enumerate() {
            let (mut cur, to) = ((src / stride) % len, (dst / stride) % len);
            while cur != to {
                let (next, dir) = step(cur, to, len);
                path.push((3 + 2 * d + dir) * n + node);
                node = node - cur * stride + next * stride;
                cur = next;
            }
            stride *= len;
        }
        if matches!(self, Topology::SmpCluster { .. }) && self.node_of(src) != self.node_of(dst) {
            path.push(3 * n + self.node_of(src));
        }
        path.extend_from_slice(&self.ingress(src, dst));
    }

    /// The tail of [`route_into`](Self::route_into)'s route that the
    /// *receiver* books when it drains the message: the destination's
    /// node memory and port-in, after its node's NIC-in when the message
    /// crosses SMP nodes; none for a self-message. The sender books the
    /// rest (its port-out and node memory, the network). Booking ingress
    /// on the receiver's thread keeps each rank's endpoint resources
    /// scheduled by a single thread, which packs them tightly — the
    /// behaviour of real DMA/memory systems. By arithmetic alone: no
    /// route is walked, so a receive needs no route cache.
    ///
    /// An intra-node SMP message thus books node memory twice (the
    /// sender's lane before the split, the receiver's after it): message
    /// passing over shared memory costs two memory transits, which is
    /// why the paper observes "half of the memory-to-memory copy
    /// bandwidth" on SMPs.
    pub fn ingress(&self, src: usize, dst: usize) -> Ingress {
        let n = self.procs();
        let (mem, port) = (2 * n + dst, n + dst);
        match *self {
            _ if src == dst => Ingress { links: [0; 3], len: 0 },
            Topology::SmpCluster { nodes, .. } if self.node_of(src) != self.node_of(dst) => {
                Ingress { links: [3 * n + nodes + self.node_of(dst), mem, port], len: 3 }
            }
            _ => Ingress { links: [mem, port, 0], len: 2 },
        }
    }

    /// Convenience allocation form of [`route_into`](Self::route_into).
    pub fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        let mut p = Vec::new();
        self.route_into(src, dst, &mut p);
        p
    }
}

/// The links a receiver books for one message ([`Topology::ingress`]),
/// in order; it derefs to them.
#[derive(Debug, Clone, Copy)]
pub struct Ingress {
    links: [usize; 3],
    len: usize,
}

impl std::ops::Deref for Ingress {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.links[..self.len]
    }
}

/// One dimension-order step from `cur` towards `dst` on a cycle of
/// length `len`; returns (next coordinate, direction 0=+ / 1=-).
fn step(cur: usize, dst: usize, len: usize) -> (usize, usize) {
    let fwd = (dst + len - cur) % len;
    let bwd = (cur + len - dst) % len;
    if fwd <= bwd {
        ((cur + 1) % len, 0)
    } else {
        ((cur + len - 1) % len, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of network hops (Hop-kind links) between two ranks.
    fn hops(t: &Topology, src: usize, dst: usize) -> usize {
        t.route(src, dst).into_iter().filter(|&l| t.link_kind(l) == LinkKind::Hop).count()
    }

    #[test]
    fn crossbar_route_is_ports_and_memories() {
        let t = Topology::Crossbar { procs: 8 };
        // port_out(2), mem(2), mem(5), port_in(5)
        assert_eq!(t.route(2, 5), vec![2, 18, 21, 13]);
        assert_eq!(t.route(3, 3), Vec::<usize>::new());
        assert_eq!(t.num_links(), 24);
        assert_eq!(t.link_kind(0), LinkKind::PortOut);
        assert_eq!(t.link_kind(8), LinkKind::PortIn);
        assert_eq!(t.link_kind(16), LinkKind::NodeMem);
    }

    #[test]
    fn ring_route_takes_shortest_direction() {
        let t = Topology::Ring { procs: 8 };
        // out(0), mem(0), one +dir hop from node 0, mem(1), in(1)
        assert_eq!(t.route(0, 1), vec![0, 16, 24, 17, 9]);
        // -dir hop block starts at 4*8 = 32
        assert_eq!(t.route(0, 7), vec![0, 16, 32, 23, 15]);
        assert_eq!(hops(&t, 0, 4), 4);
        assert_eq!(hops(&t, 0, 3), 3);
        assert_eq!(hops(&t, 0, 5), 3); // wraps backwards
    }

    #[test]
    fn ring_path_is_connected() {
        let t = Topology::Ring { procs: 16 };
        let p = t.route(14, 3);
        assert_eq!(p.len(), 4 + 5); // endpoints + 14->15->0->1->2->3
        assert_eq!(p[0], 14);
        assert_eq!(*p.last().unwrap(), 16 + 3);
        for (i, l) in p[2..p.len() - 2].iter().enumerate() {
            assert_eq!(*l, 48 + (14 + i) % 16); // consecutive +dir hop links
        }
    }

    #[test]
    fn torus2d_dimension_order() {
        let t = Topology::Torus2D { dims: [4, 4] };
        assert_eq!(t.procs(), 16);
        assert_eq!(t.num_links(), 112);
        // (0,0) -> (2,1): endpoints + two X hops + one Y hop
        let p = t.route(0, 4 + 2);
        assert_eq!(p.len(), 7);
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), 16 + 6);
        // X+ hop links live in block [48,64), Y+ in [80,96)
        assert!((48..64).contains(&p[2]) && (48..64).contains(&p[3]));
        assert!((80..96).contains(&p[4]));
    }

    #[test]
    fn torus3d_distance_is_manhattan_with_wrap() {
        let t = Topology::Torus3D { dims: [8, 8, 8] };
        assert_eq!(t.procs(), 512);
        assert_eq!(hops(&t, 0, 7), 1); // x: 0->7 wraps backwards
        assert_eq!(hops(&t, 0, 4), 4); // x: halfway, 4 hops
        let far = 4 + 4 * 8 + 4 * 64; // coords (4,4,4)
        assert_eq!(hops(&t, 0, far), 12);
    }

    #[test]
    fn torus3d_paths_never_exceed_half_per_dim() {
        let t = Topology::Torus3D { dims: [4, 4, 4] };
        for src in 0..64 {
            for dst in 0..64 {
                assert!(hops(&t, src, dst) <= 6, "{src}->{dst}");
            }
        }
    }

    #[test]
    fn consecutive_torus3d_ranks_are_mostly_adjacent() {
        // Ring pattern on MPI_COMM_WORLD maps well onto a row-major torus:
        // this is why ring patterns beat random patterns on the T3E.
        let t = Topology::Torus3D { dims: [8, 8, 8] };
        let close = (0..511).filter(|&r| hops(&t, r, r + 1) == 1).count();
        assert!(close >= 448, "only {close} adjacent consecutive pairs");
    }

    #[test]
    fn smp_placement_round_robin_vs_sequential() {
        let seq = Topology::SmpCluster { nodes: 4, ppn: 8, placement: Placement::Sequential };
        let rr = Topology::SmpCluster { nodes: 4, ppn: 8, placement: Placement::RoundRobin };
        assert_eq!(seq.node_of(0), 0);
        assert_eq!(seq.node_of(7), 0);
        assert_eq!(seq.node_of(8), 1);
        assert_eq!(rr.node_of(0), 0);
        assert_eq!(rr.node_of(1), 1);
        assert_eq!(rr.node_of(4), 0);
        // sequential: ring neighbors mostly share a node:
        // out(0), lane(0)=64, lane(1)=65, in(1)=33
        assert_eq!(seq.route(0, 1), vec![0, 64, 65, 33]);
        // round-robin: ring neighbors always cross the network
        assert_eq!(rr.route(0, 1), vec![0, 64, 96, 100 + 1, 64 + 1, 33]);
    }

    #[test]
    fn smp_link_kinds() {
        let t = Topology::SmpCluster { nodes: 3, ppn: 2, placement: Placement::Sequential };
        assert_eq!(t.num_links(), 18 + 6);
        assert_eq!(t.link_kind(0), LinkKind::PortOut);
        assert_eq!(t.link_kind(6), LinkKind::PortIn);
        assert_eq!(t.link_kind(12), LinkKind::NodeMem);
        assert_eq!(t.link_kind(18), LinkKind::NicOut);
        assert_eq!(t.link_kind(21), LinkKind::NicIn);
    }

    #[test]
    fn route_into_reuses_buffer() {
        let t = Topology::Ring { procs: 8 };
        let mut buf = vec![99; 9];
        t.route_into(0, 1, &mut buf);
        assert_eq!(buf, vec![0, 16, 24, 17, 9]);
    }

    #[test]
    fn every_route_ends_with_its_ingress() {
        // what RouteTable::split cuts at: the receiver books the tail
        let smp = |placement| Topology::SmpCluster { nodes: 2, ppn: 4, placement };
        let topos = [
            Topology::Crossbar { procs: 6 },
            Topology::Ring { procs: 6 },
            Topology::Torus2D { dims: [3, 2] },
            Topology::Torus3D { dims: [2, 2, 2] },
            smp(Placement::Sequential),
            smp(Placement::RoundRobin),
        ];
        for t in &topos {
            let n = t.procs();
            for s in 0..n {
                for d in 0..n {
                    let ingress = t.ingress(s, d);
                    assert!(t.route(s, d).ends_with(&ingress), "{t:?} {s}->{d}");
                    assert_eq!(ingress.is_empty(), s == d, "{t:?} {s}->{d}");
                }
            }
        }
        // intra-node SMP: the sender's lane(0)=16 before the split, the
        // receiver's lane(1)=17 and in(1)=9 after it
        let t = smp(Placement::Sequential);
        assert_eq!(t.route(0, 1), vec![0, 16, 17, 9]);
        assert_eq!(t.ingress(0, 1)[..], [17, 9]);
        // inter-node: NIC-out(0)=24 before the split, NIC-in(1)=27 after
        assert_eq!(t.route(0, 4), vec![0, 16, 24, 27, 20, 12]);
        assert_eq!(t.ingress(0, 4)[..], [27, 20, 12]);
    }

    #[test]
    fn every_route_starts_and_ends_at_endpoint_resources() {
        // Each message must consume capacity at both endpoints: that is
        // the mechanism behind the ping-pong vs parallel-ring gap.
        let topos = [
            Topology::Crossbar { procs: 6 },
            Topology::Ring { procs: 6 },
            Topology::Torus2D { dims: [3, 2] },
            Topology::SmpCluster { nodes: 3, ppn: 2, placement: Placement::Sequential },
        ];
        for t in &topos {
            let n = t.procs();
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let p = t.route(s, d);
                    let first = t.link_kind(p[0]);
                    let last = t.link_kind(*p.last().unwrap());
                    assert_eq!(first, LinkKind::PortOut, "{t:?} {s}->{d} first {first:?}");
                    assert_eq!(last, LinkKind::PortIn, "{t:?} {s}->{d} last {last:?}");
                }
            }
        }
    }
}
