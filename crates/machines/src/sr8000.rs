//! Hitachi SR 8000 — a cluster of 8-way SMP nodes.
//!
//! The paper's headline observation: the rank-to-node **placement**
//! dominates. Round-robin numbering puts ring neighbors on different
//! nodes (everything crosses the NICs, which 8 ranks share); sequential
//! numbering keeps most ring neighbors inside a node (banked shared
//! memory).
//!
//! Calibration targets (Table 1):
//!
//! * sequential ping-pong ≈ 954 MB/s → per-rank memory port ≈ 1 GB/s,
//! * sequential ring per-proc at L_max ≈ 400 MB/s → node memory bus
//!   (aggregate) ≈ 6.4 GB/s shared by 8 ranks moving 4·L each,
//! * round-robin ping-pong ≈ 776 MB/s and ring per-proc ≈ 105 MB/s →
//!   NIC ≈ 850 MB/s shared by the node's 8 ranks,
//! * L_max = 8 MB ⇒ 1 GB per processor.

use crate::machine::Machine;
use beff_netsim::{NetParams, Placement, Tier, Topology, GB};
use beff_pfs::PfsConfig;

fn base(nodes: usize, placement: Placement, key: &'static str, name: &'static str) -> Machine {
    Machine {
        key,
        name,
        procs: nodes * 8,
        mem_per_proc: GB,
        mem_per_node: 8 * GB,
        // ~8 GFlop/s peak per node, Linpack efficiency ~75 %
        rmax_mflops: nodes as f64 * 6_000.0,
        topology: Topology::SmpCluster { nodes, ppn: 8, placement },
        net: NetParams {
            o_send: 47.0e-6,
            o_recv: 47.0e-6,
            self_mbps: 2_000.0,
            port: Tier::new(1.0e-6, 820.0),
            node_mem: Tier::new(0.3e-6, 810.0), // per-rank bank lane
            hop: Tier::new(0.0, 1e9), // unused
            // Split NIC cost: a 20 us per-message setup (head delay,
            // overlapped once streams pipeline) over a ~1.1 GB/s link.
            // The earlier single constant (1 950 MB/s) compensated FIFO
            // tight-packing of 8 ranks per NIC and overshot round-robin
            // ping-pong by ~21 %; with the split, ping-pong and the
            // ring aggregate hold together (Table 1: 776 vs 105/proc).
            nic: Tier::new(20.0e-6, 1_100.0),
            backplane: None,
            contention: 1.0,
        },
        io: Some(PfsConfig {
            clients: nodes * 8,
            servers: 8,
            stripe_unit: 128 * 1024,
            disk_block: 64 * 1024,
            server_request_overhead: 1.0e-3,
            server_mbps: 30.0,
            client_request_overhead: 120e-6,
            client_mbps: 150.0,
            aggregate_mbps: 400.0,
            cache_bytes: GB,
            cache_mbps: 2_000.0,
            open_cost: 4e-3,
            close_cost: 2e-3,
            store_data: false,
        }),
    }
}

/// 128-processor (16-node) system with round-robin placement.
pub fn sr8000_rr() -> Machine {
    base(16, Placement::RoundRobin, "sr8000-rr", "Hitachi SR 8000 round-robin")
}

/// 128-processor (16-node) system with sequential placement.
pub fn sr8000_seq() -> Machine {
    base(16, Placement::Sequential, "sr8000-seq", "Hitachi SR 8000 sequential")
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_netsim::MB;

    #[test]
    fn lmax_is_eight_mb() {
        assert_eq!(sr8000_rr().mem_per_proc / 128, 8 * MB);
    }

    #[test]
    fn placements_differ_only_in_placement() {
        let rr = sr8000_rr();
        let seq = sr8000_seq();
        assert_eq!(rr.procs, seq.procs);
        assert_ne!(rr.topology, seq.topology);
    }

    #[test]
    fn cluster_is_16x8() {
        assert_eq!(sr8000_rr().network().procs(), 128);
    }
}
