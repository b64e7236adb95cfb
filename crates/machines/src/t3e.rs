//! Cray T3E-900/512 at HLRS Stuttgart.
//!
//! Calibration targets (paper Table 1 and §5.2):
//!
//! * ping-pong ≈ 330 MB/s — the per-node port streams at ~340 MB/s,
//! * per-proc ring bandwidth at L_max ≈ 193 MB/s — both ring
//!   directions share the node port, halving the stream rate,
//! * b_eff/proc 39 (512 procs) … 91 (2 procs) — per-message overheads
//!   ≈ 10 µs push the half-bandwidth point to a few kB,
//! * L_max = 1 MB ⇒ 128 MB per PE,
//! * I/O: tmp-filesystem on 10 striped RAIDs over a GigaRing,
//!   aggregate ≈ 300 MB/s; the I/O bandwidth is a *global* resource
//!   (per-client injection is fast, so 8 clients already saturate),
//!   with a large wellformed vs non-wellformed gap.

use crate::machine::Machine;
use beff_netsim::{NetParams, Tier, Topology, MB};
use beff_pfs::PfsConfig;

pub fn t3e() -> Machine {
    Machine {
        key: "t3e",
        name: "Cray T3E/900-512",
        procs: 512,
        mem_per_proc: 128 * MB,
        mem_per_node: 128 * MB,
        // Jun-2000 TOP500-era Linpack for a 512-PE T3E-900
        rmax_mflops: 264_600.0,
        topology: Topology::Torus3D { dims: [8, 8, 8] },
        net: NetParams {
            o_send: 5.9e-6,
            o_recv: 5.9e-6,
            self_mbps: 600.0,
            port: Tier::new(1.0e-6, 332.0),
            node_mem: Tier::new(0.2e-6, 428.0),
            hop: Tier::new(0.15e-6, 600.0),
            nic: Tier::new(0.0, 1e9),
            backplane: None,
            // Adaptive-routed torus under all-to-all random traffic
            // loses well over half its link rate to arbitration; ring
            // neighbors keep a hop to themselves, so rings are
            // untouched (calibrated: beff 24..512-proc rows).
            contention: 3.3,
        },
        io: Some(PfsConfig {
            clients: 512,
            servers: 10,
            stripe_unit: 64 * 1024,
            disk_block: 32 * 1024,
            server_request_overhead: 1.5e-3,
            server_mbps: 30.0,
            client_request_overhead: 250e-6,
            client_mbps: 250.0,
            aggregate_mbps: 350.0,
            cache_bytes: 512 * MB,
            cache_mbps: 500.0,
            open_cost: 5e-3,
            close_cost: 2e-3,
            store_data: false,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lmax_is_one_mb() {
        // L_max = mem/128 (paper Table 1 column)
        assert_eq!(t3e().mem_per_proc / 128, MB);
    }

    #[test]
    fn io_aggregate_is_300_mbps() {
        let io = t3e().io.unwrap();
        assert_eq!(io.servers as f64 * io.server_mbps, 300.0);
    }

    #[test]
    fn torus_hosts_512() {
        assert_eq!(t3e().network().procs(), 512);
    }
}
