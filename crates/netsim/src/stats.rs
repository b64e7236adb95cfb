//! Traffic statistics: per-link-kind aggregation of the bytes and
//! messages a benchmark run pushed through the machine. Useful for
//! validating where a pattern's traffic actually went (e.g. the b_eff
//! random patterns load torus hop links far more than ring patterns).

use crate::model::MachineNet;
use crate::topology::LinkKind;
use beff_json::{Json, ToJson};

/// Aggregated traffic of one link kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindStats {
    pub links: usize,
    pub bytes: u64,
    pub messages: u64,
    /// Bytes on the busiest single link of the kind.
    pub max_link_bytes: u64,
}

impl ToJson for KindStats {
    fn to_json(&self) -> Json {
        Json::object()
            .field("links", &self.links)
            .field("bytes", &self.bytes)
            .field("messages", &self.messages)
            .field("max_link_bytes", &self.max_link_bytes)
            .build()
    }
}

/// A traffic report over all link kinds.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    pub port_out: KindStats,
    pub port_in: KindStats,
    pub node_mem: KindStats,
    pub hop: KindStats,
    pub membus: KindStats,
    pub nic_out: KindStats,
    pub nic_in: KindStats,
}

impl ToJson for TrafficReport {
    fn to_json(&self) -> Json {
        Json::object()
            .field("port_out", &self.port_out)
            .field("port_in", &self.port_in)
            .field("node_mem", &self.node_mem)
            .field("hop", &self.hop)
            .field("membus", &self.membus)
            .field("nic_out", &self.nic_out)
            .field("nic_in", &self.nic_in)
            .build()
    }
}

impl TrafficReport {
    /// Total bytes over every link (each traversal counted once).
    pub fn total_bytes(&self) -> u64 {
        self.port_out.bytes
            + self.port_in.bytes
            + self.node_mem.bytes
            + self.hop.bytes
            + self.membus.bytes
            + self.nic_out.bytes
            + self.nic_in.bytes
    }

    /// Hop-to-port byte ratio: > 1 means multi-hop traffic dominates
    /// (e.g. random patterns on a torus).
    pub fn hops_per_message(&self) -> f64 {
        if self.port_out.messages == 0 {
            return 0.0;
        }
        self.hop.messages as f64 / self.port_out.messages as f64
    }
}

/// Collect a traffic report from a machine's links.
pub fn traffic_report(net: &MachineNet) -> TrafficReport {
    let topo = net.topology();
    // BTreeMap: aggregation walks in kind-index order, so the report is
    // structurally ordered rather than hasher-ordered.
    let mut kinds = std::collections::BTreeMap::new();
    let ledger = net.ledger();
    for i in 0..net.links().len() {
        let k = topo.link_kind(i);
        let e = kinds.entry(kind_index(k)).or_insert(KindStats::default());
        e.links += 1;
        let bytes = ledger.bytes_carried(i);
        e.bytes += bytes;
        e.messages += ledger.messages_carried(i);
        e.max_link_bytes = e.max_link_bytes.max(bytes);
    }
    let get = |k: LinkKind| kinds.get(&kind_index(k)).copied().unwrap_or_default();
    TrafficReport {
        port_out: get(LinkKind::PortOut),
        port_in: get(LinkKind::PortIn),
        node_mem: get(LinkKind::NodeMem),
        hop: get(LinkKind::Hop),
        membus: get(LinkKind::MemBus),
        nic_out: get(LinkKind::NicOut),
        nic_in: get(LinkKind::NicIn),
    }
}

fn kind_index(k: LinkKind) -> u8 {
    match k {
        LinkKind::PortOut => 0,
        LinkKind::PortIn => 1,
        LinkKind::NodeMem => 2,
        LinkKind::Hop => 3,
        LinkKind::MemBus => 4,
        LinkKind::NicOut => 5,
        LinkKind::NicIn => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetParams;
    use crate::topology::Topology;
    use crate::units::MB;

    #[test]
    fn report_attributes_traffic_to_kinds() {
        let net = MachineNet::new(Topology::Ring { procs: 4 }, NetParams::default());
        net.transfer(0, 1, MB, 0.0);
        net.transfer(0, 2, MB, 0.0); // two hops
        let r = traffic_report(&net);
        assert_eq!(r.port_out.messages, 2);
        assert_eq!(r.port_in.messages, 2);
        assert_eq!(r.node_mem.messages, 4); // both endpoints each transfer
        assert_eq!(r.hop.messages, 3); // 1 + 2 hops
        assert_eq!(r.port_out.bytes, 2 * MB);
        assert!(r.total_bytes() > 0);
        assert!((r.hops_per_message() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_machine_reports_zero() {
        let net = MachineNet::new(Topology::Crossbar { procs: 2 }, NetParams::default());
        let r = traffic_report(&net);
        assert_eq!(r.total_bytes(), 0);
        assert_eq!(r.hops_per_message(), 0.0);
    }

    #[test]
    fn max_link_bytes_tracks_hotspot() {
        let net = MachineNet::new(Topology::Crossbar { procs: 4 }, NetParams::default());
        net.transfer(0, 1, 10 * MB, 0.0);
        net.transfer(2, 1, MB, 0.0);
        let r = traffic_report(&net);
        // rank 1's node memory saw 11 MB (two incoming drains… via full
        // path pricing both mem links are booked by transfer())
        assert!(r.node_mem.max_link_bytes >= 10 * MB);
    }
}
