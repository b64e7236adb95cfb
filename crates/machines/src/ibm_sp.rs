//! IBM RS 6000/SP "blue Pacific" at LLNL: 336 four-way 332 MHz SMP
//! nodes with GPFS (20 VSD I/O servers).
//!
//! b_eff_io on this system is measured with one I/O process per node
//! (the paper: "a 64 processor run means 64 nodes assigned to I/O"), so
//! the model uses ppn = 1. Calibration targets (§5.2 / Fig. 3):
//!
//! * GPFS peak read ≈ 950 MB/s (128 nodes), peak write ≈ 690 MB/s
//!   (64 nodes) — 20 servers × ≈ 40 MB/s,
//! * b_eff_io tracks the number of nodes until it saturates — the
//!   per-node injection into GPFS is the scaling bottleneck
//!   (≈ 14 MB/s/node ⇒ saturation around 50-64 nodes),
//! * GPFS 256 kB blocks: modest non-wellformed penalty compared to the
//!   T3E's.

use crate::machine::Machine;
use beff_netsim::{NetParams, Placement, Tier, Topology, GB, MB};
use beff_pfs::PfsConfig;

pub fn ibm_sp() -> Machine {
    Machine {
        key: "ibm-sp",
        name: "IBM RS 6000/SP blue Pacific",
        procs: 336,
        mem_per_proc: 512 * MB,
        mem_per_node: 512 * MB,
        rmax_mflops: 336.0 * 4.0 * 430.0,
        topology: Topology::SmpCluster { nodes: 336, ppn: 1, placement: Placement::Sequential },
        net: NetParams {
            o_send: 8.0e-6,
            o_recv: 8.0e-6,
            self_mbps: 800.0,
            port: Tier::new(2.0e-6, 500.0),
            node_mem: Tier::new(0.2e-6, 450.0),
            hop: Tier::new(0.0, 1e9),
            nic: Tier::new(10.0e-6, 133.0),
            backplane: None,
            contention: 1.0,
        },
        io: Some(PfsConfig {
            clients: 336,
            servers: 20,
            stripe_unit: 256 * 1024,
            disk_block: 256 * 1024,
            server_request_overhead: 1.0e-3,
            server_mbps: 40.0,
            client_request_overhead: 150e-6,
            client_mbps: 14.0,
            aggregate_mbps: 950.0,
            cache_bytes: GB,
            cache_mbps: 700.0,
            open_cost: 10e-3,
            close_cost: 4e-3,
            store_data: false,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpfs_aggregate_is_800_mbps() {
        let io = ibm_sp().io.unwrap();
        assert_eq!(io.servers as f64 * io.server_mbps, 800.0);
    }

    #[test]
    fn injection_saturates_near_57_nodes() {
        let io = ibm_sp().io.unwrap();
        let aggregate = io.servers as f64 * io.server_mbps;
        let knee = aggregate / io.client_mbps;
        assert!((40.0..70.0).contains(&knee), "knee at {knee} nodes");
    }

    #[test]
    fn one_io_proc_per_node() {
        match ibm_sp().topology {
            Topology::SmpCluster { ppn, .. } => assert_eq!(ppn, 1),
            _ => panic!("expected cluster"),
        }
    }
}
