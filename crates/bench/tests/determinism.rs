//! Golden determinism tests: the same schedule on the same machine
//! model must produce *byte-identical* results — across fresh worlds,
//! across runs of one resident [`PartitionRunner`], between the two,
//! and between a serial sweep and a batch at any worker count. The
//! token scheduler promises bit-determinism; these tests pin it at the
//! level the result files are generated from, so `results/`
//! regeneration is reproducible by construction.
//!
//! Serialized JSON is the comparison medium: it covers every f64 in
//! the result tree (formatting is deterministic), so two equal strings
//! mean bitwise-equal numbers.

use beff_bench::{run_beff_on, run_beffio_on, PartitionRunner};
use beff_core::beff::{run_beff, BeffConfig};
use beff_core::beffio::BeffIoConfig;
use beff_faults::{FaultPlan, FaultSession};
use beff_machines::by_key;
use beff_mpi::{Workers, World};
use std::sync::Arc;

/// The table1 kernel at reduced scale: full pattern schedule, small
/// partition.
#[test]
fn table1_rows_are_byte_identical_across_runs_and_world_reuse() {
    let machine = by_key("t3e").expect("machine").sized_for(8);
    let cfg = BeffConfig::quick(machine.mem_per_proc);

    let fresh_a = beff_json::to_string(&run_beff_on(&machine, 8, &cfg));
    let fresh_b = beff_json::to_string(&run_beff_on(&machine, 8, &cfg));
    assert_eq!(fresh_a, fresh_b, "fresh worlds must agree bitwise");

    let runner = PartitionRunner::new(&machine, 8);
    let reused_a = beff_json::to_string(&runner.beff(&cfg));
    let reused_b = beff_json::to_string(&runner.beff(&cfg));
    assert_eq!(reused_a, reused_b, "world reuse must agree bitwise");
    assert_eq!(fresh_a, reused_a, "reuse must match a fresh world bitwise");
}

/// Real b_eff jobs through `beff_batch` (one machine replica per job)
/// against the serial sweep on the shared, reset machine: worker count
/// must be unobservable in the result bytes.
#[test]
fn beff_batch_matches_the_serial_sweep_at_1_and_8_workers() {
    let machine = by_key("t3e").expect("machine").sized_for(16);
    let runner = PartitionRunner::new(&machine, 16);
    let cfgs: Vec<BeffConfig> = (0..4)
        .map(|j| BeffConfig { seed: 0xBEFF ^ j, ..BeffConfig::quick(machine.mem_per_proc) })
        .collect();
    let bytes = |rs: Vec<beff_core::BeffResult>| -> Vec<String> {
        rs.iter().map(beff_json::to_string).collect()
    };
    let serial = bytes(cfgs.iter().map(|cfg| runner.beff(cfg)).collect());
    assert_ne!(serial[0], serial[1], "distinct seeds must give distinct jobs");
    for w in [1, 8] {
        let batch = bytes(runner.beff_batch(Workers::new(w), &cfgs));
        assert_eq!(serial, batch, "batch diverged from the serial sweep at {w} workers");
    }
}

/// The fault layer's no-fault guarantee, pinned bitwise: a world with
/// an *empty* fault session attached must produce byte-identical
/// results to one with no session at all. Every fault hook guards
/// behind the session option before touching timing arithmetic, and
/// the empty plan's multipliers are exactly 1.0 (IEEE: `x * 1.0 == x`),
/// so the instrumented paths cannot perturb a single bit.
#[test]
fn empty_fault_session_is_bitwise_inert() {
    let machine = by_key("t3e").expect("machine").sized_for(8);
    let cfg = BeffConfig::quick(machine.mem_per_proc);

    let plain = {
        let cfg = cfg.clone();
        let mut rs =
            World::sim_partition(machine.network(), 8).run(move |c| run_beff(c, &cfg));
        beff_json::to_string(&rs.swap_remove(0))
    };
    let with_empty_session = {
        let session = FaultSession::new(FaultPlan::empty(), 8);
        let net = machine.network();
        let world = World::sim_partition(Arc::clone(&net), 8).with_faults(session);
        let mut rs = world.run(move |c| run_beff(c, &cfg));
        beff_json::to_string(&rs.swap_remove(0))
    };
    assert_eq!(plain, with_empty_session, "fault layer must be inert without a plan");
}

/// The table2/fig5 kernel (b_eff_io patterns) under world reuse: the
/// filesystem is rebuilt per run, the world is not.
#[test]
fn beffio_patterns_are_byte_identical_across_runs_and_world_reuse() {
    let machine = by_key("t3e").expect("machine").sized_for(4);
    let cfg = BeffIoConfig::quick(machine.mem_per_node).with_t(2.0);

    let fresh = beff_json::to_string(&run_beffio_on(&machine, 4, &cfg));
    let runner = PartitionRunner::new(&machine, 4);
    let reused_a = beff_json::to_string(&runner.beffio(&cfg));
    let reused_b = beff_json::to_string(&runner.beffio(&cfg));
    assert_eq!(reused_a, reused_b, "world reuse must agree bitwise");
    assert_eq!(fresh, reused_a, "reuse must match a fresh world bitwise");
}
