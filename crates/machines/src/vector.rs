//! The shared-memory / vector machines of Table 1: NEC SX-5/8B,
//! NEC SX-4/32, Hitachi SR 2201, HP-V 9000 and SGI Cray SV1.
//!
//! All are modeled as crossbars of per-processor memory ports; the
//! paper notes their b_eff reflects roughly *half* the memory-copy
//! bandwidth because MPI buffers messages through shared memory — in
//! the model this is the bidirectional sharing of the two endpoint
//! ports. HP-V and SV1 additionally saturate an aggregate memory
//! backplane.
//!
//! Calibration targets (Table 1, per-proc ring at L_max / ping-pong):
//! SX-5: 8 758 · SX-4: 3 552 · SR 2201: 96 · HP-V: 162 · SV1: 375/994.

use crate::machine::Machine;
use beff_netsim::{NetParams, Tier, Topology, GB, MB};
use beff_pfs::PfsConfig;

pub fn sx5() -> Machine {
    Machine {
        key: "sx5",
        name: "NEC SX-5/8B",
        procs: 4,
        mem_per_proc: 256 * MB, // L_max = 2 MB as used in Table 1
        mem_per_node: 4 * GB,
        rmax_mflops: 4.0 * 7_600.0,
        topology: Topology::Crossbar { procs: 4 },
        net: NetParams {
            o_send: 15.0e-6,
            o_recv: 15.0e-6,
            self_mbps: 35_000.0,
            port: Tier::new(3.0e-6, 21_000.0),
            node_mem: Tier::new(0.3e-6, 19_400.0),
            hop: Tier::new(0.0, 1e9),
            nic: Tier::new(0.0, 1e9),
            backplane: None,
            contention: 1.0,
        },
        // NEC SFS: 4 striped RAID-3 arrays over fibre channel, 4 MB
        // cluster size and a famously large filesystem cache (§5.4:
        // cached benchmarks exceeded the disks' hardware peak)
        io: Some(PfsConfig {
            clients: 4,
            servers: 4,
            stripe_unit: 4 * MB,
            disk_block: 4 * MB,
            server_request_overhead: 2e-3,
            server_mbps: 45.0,
            client_request_overhead: 60e-6,
            client_mbps: 2_000.0,
            aggregate_mbps: 3_000.0,
            cache_bytes: 2 * GB,
            cache_mbps: 8_000.0,
            open_cost: 3e-3,
            close_cost: 1e-3,
            store_data: false,
        }),
    }
}

pub fn sx4() -> Machine {
    Machine {
        key: "sx4",
        name: "NEC SX-4/32",
        procs: 16,
        mem_per_proc: 256 * MB,
        mem_per_node: 4 * GB,
        rmax_mflops: 16.0 * 1_800.0,
        topology: Topology::Crossbar { procs: 16 },
        net: NetParams {
            o_send: 15.0e-6,
            o_recv: 15.0e-6,
            self_mbps: 14_000.0,
            port: Tier::new(2.0e-6, 9_000.0),
            node_mem: Tier::new(0.4e-6, 6_600.0),
            hop: Tier::new(0.0, 1e9),
            nic: Tier::new(0.0, 1e9),
            // shared memory ports: the crossbar's aggregate saturates
            // only near the full 16-proc partition (ring demand at
            // L_max ~51 GB/s), which is what bends the paper's
            // b_eff/proc column (656 -> 641 -> 604) down as the
            // partition grows; 4- and 8-proc runs never reach it.
            backplane: Some(Tier::new(0.0, 50_000.0)),
            contention: 1.0,
        },
        io: None,
    }
}

pub fn sr2201() -> Machine {
    Machine {
        key: "sr2201",
        name: "Hitachi SR 2201",
        procs: 16,
        mem_per_proc: 256 * MB, // L_max = 2 MB
        mem_per_node: 256 * MB,
        rmax_mflops: 16.0 * 220.0,
        topology: Topology::Crossbar { procs: 16 },
        net: NetParams {
            // MPI on the SR 2201 pays a long per-message software path;
            // the large overhead (not the 250 MB/s port) is what holds
            // b_eff/proc at the paper's 33 MB/s while the ring at L_max
            // still streams at the memory-lane rate.
            o_send: 85.0e-6,
            o_recv: 85.0e-6,
            self_mbps: 500.0,
            port: Tier::new(4.0e-6, 250.0),
            node_mem: Tier::new(1.0e-6, 190.0),
            hop: Tier::new(0.0, 1e9),
            nic: Tier::new(0.0, 1e9),
            backplane: None,
            contention: 1.0,
        },
        io: None,
    }
}

pub fn hpv() -> Machine {
    Machine {
        key: "hpv",
        name: "HP-V 9000",
        procs: 7,
        mem_per_proc: GB, // L_max = 8 MB
        mem_per_node: 7 * GB,
        rmax_mflops: 7.0 * 480.0,
        topology: Topology::Crossbar { procs: 7 },
        net: NetParams {
            o_send: 18.0e-6,
            o_recv: 18.0e-6,
            self_mbps: 900.0,
            port: Tier::new(3.0e-6, 600.0),
            node_mem: Tier::new(0.5e-6, 500.0),
            hop: Tier::new(0.0, 1e9),
            nic: Tier::new(0.0, 1e9),
            // the shared memory system tops out before 7 ports do, and
            // bus arbitration under 7 contending processors costs a
            // further ~20 % of the raw rate (fair-share factor)
            backplane: Some(Tier::new(0.0, 1_300.0)),
            contention: 1.24,
        },
        io: None,
    }
}

pub fn sv1() -> Machine {
    Machine {
        key: "sv1",
        name: "SGI Cray SV1-B/16-8",
        procs: 15,
        mem_per_proc: 512 * MB, // L_max = 4 MB
        mem_per_node: 8 * GB,
        rmax_mflops: 15.0 * 700.0,
        topology: Topology::Crossbar { procs: 15 },
        net: NetParams {
            o_send: 39.0e-6,
            o_recv: 39.0e-6,
            self_mbps: 2_400.0,
            port: Tier::new(2.0e-6, 1_000.0),
            node_mem: Tier::new(0.3e-6, 1_150.0),
            hop: Tier::new(0.0, 1e9),
            nic: Tier::new(0.0, 1e9),
            // ping-pong streams at ~1 GB/s, but 15 concurrent pairs
            // saturate the shared memory subsystem at ~4.8 GB/s — a
            // lone stream never queues on it, so ping-pong is untouched
            backplane: Some(Tier::new(0.0, 4_850.0)),
            contention: 1.0,
        },
        io: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lmax_values_match_table1() {
        assert_eq!(sx5().mem_per_proc / 128, 2 * MB);
        assert_eq!(sx4().mem_per_proc / 128, 2 * MB);
        assert_eq!(sr2201().mem_per_proc / 128, 2 * MB);
        assert_eq!(hpv().mem_per_proc / 128, 8 * MB);
        assert_eq!(sv1().mem_per_proc / 128, 4 * MB);
    }

    #[test]
    fn proc_counts_match_table1() {
        assert_eq!(sx5().procs, 4);
        assert_eq!(sx4().procs, 16);
        assert_eq!(sr2201().procs, 16);
        assert_eq!(hpv().procs, 7);
        assert_eq!(sv1().procs, 15);
    }

    #[test]
    fn sx5_has_the_big_cache() {
        let io = sx5().io.unwrap();
        assert_eq!(io.cache_bytes, 2 * GB);
        assert_eq!(io.stripe_unit, 4 * MB);
    }
}
