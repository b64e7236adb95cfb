//! Cross-crate integration tests: whole benchmarks on whole machine
//! models, with shape assertions from the paper.

use beff::core::beff::{run_beff, BeffConfig, MeasureSchedule};
use beff::core::beffio::{run_beff_io, AccessMethod, BeffIoConfig};
use beff::machines::{by_key, catalog};
use beff::mpi::World;
use beff::mpiio::IoWorld;
use beff::netsim::traffic_report;

fn quick_beff(mem: u64) -> BeffConfig {
    BeffConfig {
        schedule: MeasureSchedule { loop_start: 4, reps: 1, ..MeasureSchedule::quick() },
        ..BeffConfig::quick(mem).without_extras()
    }
}

#[test]
fn beff_on_t3e_partition_matches_paper_scale() {
    let machine = by_key("t3e").unwrap();
    let cfg = BeffConfig::quick(machine.mem_per_proc).without_extras();
    let results =
        World::sim_partition(machine.network(), 8).run(|c| run_beff(c, &cfg));
    let r = &results[0];
    assert_eq!(r.patterns.len(), 12);
    // paper scale: ~50-70 MB/s per proc at small partitions
    assert!(
        (20.0..150.0).contains(&r.beff_per_proc),
        "b_eff/proc = {}",
        r.beff_per_proc
    );
    // ping-pong ~330 MB/s
    assert!((250.0..420.0).contains(&r.pingpong_mbps), "pp = {}", r.pingpong_mbps);
}

/// How deep the benchmarks dig into their 1 MiB fiber stacks is a
/// measured number with a wide margin (2.7 kB and 4.4 kB with the
/// release profile's fat LTO, 8.7 kB and 13.4 kB in a debug build):
/// nobody has to guess whether `STACK_SIZE` is tight.
#[test]
fn benchmark_worlds_use_a_sliver_of_their_fiber_stacks() {
    let Some(machine) = by_key("t3e") else { panic!("t3e is in the catalog") };
    let limit = beff::sim::fiber::STACK_SIZE / 16;

    let session = World::sim_partition(machine.network(), 64).session();
    let cfg = quick_beff(machine.mem_per_proc);
    session.run(move |c| run_beff(c, &cfg));
    let depth = session.stack_high_water();
    assert!(depth > 0 && depth < limit, "b_eff on t3e x64 went {depth} B deep");

    let session = World::sim_partition(machine.network(), 8).session();
    let Some(pfs) = machine.sized_for(8).filesystem() else { panic!("the t3e models its I/O") };
    let io = IoWorld::sim(pfs);
    let cfg = BeffIoConfig::quick(machine.mem_per_node).with_t(1.0);
    session.run(move |c| run_beff_io(c, &io, &cfg));
    let depth = session.stack_high_water();
    assert!(depth > 0 && depth < limit, "b_eff_io on t3e x8 went {depth} B deep");
}

/// What one small job puts on the wires, counted by the link ledger:
/// exact, and pinned from the per-link counters it replaced (PR 11
/// commit) — a cached route or a fused booking that skipped or doubled
/// a link would move a count.
#[test]
fn traffic_counts_of_a_small_job_are_pinned() {
    let Some(machine) = by_key("t3e") else { panic!("t3e is in the catalog") };
    let net = machine.network();
    let cfg = quick_beff(machine.mem_per_proc);
    World::sim_partition(std::sync::Arc::clone(&net), 8).run(|c| run_beff(c, &cfg));
    let t = traffic_report(&net);
    assert_eq!(t.port_out.messages, 40_456, "messages");
    assert_eq!(t.port_in.messages, 40_456, "every message is drained");
    assert_eq!(t.node_mem.messages, 80_912, "both endpoints' memory");
    assert_eq!(t.hop.messages, 69_788, "hop traversals");
    assert_eq!(t.port_out.bytes, 1_506_277_120, "payload bytes");
    assert_eq!(t.total_bytes(), 8_575_372_352, "bytes over every link");
    assert_eq!(t.hop.max_link_bytes, 240_090_752, "busiest hop");
    net.reset();
    assert_eq!(traffic_report(&net).total_bytes(), 0);
}

#[test]
fn every_catalog_machine_runs_beff() {
    for m in catalog() {
        let n = m.procs.min(8);
        let cfg = quick_beff(m.mem_per_proc);
        let results = World::sim_partition(m.network(), n).run(|c| run_beff(c, &cfg));
        assert!(results[0].beff > 0.0, "{} produced zero b_eff", m.key);
        assert!(results[0].beff.is_finite(), "{}", m.key);
    }
}

#[test]
fn placement_effect_on_sr8000() {
    // the paper's headline SMP result: sequential placement beats
    // round-robin placement on ring-heavy b_eff
    let run = |key: &str| {
        let m = by_key(key).unwrap().sized_for(16);
        let cfg = quick_beff(m.mem_per_proc);
        let r = World::sim_partition(m.network(), 16).run(|c| run_beff(c, &cfg));
        r[0].ring_per_proc_at_lmax
    };
    let rr = run("sr8000-rr");
    let seq = run("sr8000-seq");
    assert!(seq > 1.8 * rr, "seq {seq} must clearly beat rr {rr}");
}

#[test]
fn rings_beat_randoms_on_the_torus() {
    let machine = by_key("t3e").unwrap();
    let cfg = quick_beff(machine.mem_per_proc);
    let results =
        World::sim_partition(machine.network(), 16).run(|c| run_beff(c, &cfg));
    let r = &results[0];
    let ring: f64 =
        r.patterns.iter().filter(|p| !p.random).map(|p| p.at_lmax()).sum::<f64>() / 6.0;
    let rand: f64 =
        r.patterns.iter().filter(|p| p.random).map(|p| p.at_lmax()).sum::<f64>() / 6.0;
    assert!(ring > rand, "ring {ring} vs random {rand}");
}

#[test]
fn beff_io_on_t3e_with_data_verification() {
    let machine = by_key("t3e").unwrap();
    let mut iocfg = machine.io.clone().unwrap();
    iocfg.store_data = true;
    iocfg.clients = 4;
    let pfs = std::sync::Arc::new(beff::pfs::Pfs::new(iocfg));
    let io = IoWorld::sim(pfs);
    let cfg = BeffIoConfig::quick(machine.mem_per_node).with_t(1.0).with_verify();
    let results = World::sim_partition(machine.network(), 4)
        .copy_data(true)
        .run(|c| run_beff_io(c, &io, &cfg));
    let r = &results[0];
    assert!(r.beff_io > 0.0);
    // every (method, type) moved data and the verify closures did not panic
    for m in &r.methods {
        for t in &m.types {
            assert!(t.bytes > 0, "{:?}/{:?}", m.method, t.ptype);
        }
    }
}

#[test]
fn io_scaling_shapes_t3e_flat_sp_tracks() {
    let run = |key: &str, n: usize| {
        let m = by_key(key).unwrap().sized_for(n);
        let pfs = m.filesystem().unwrap();
        let io = IoWorld::sim(pfs);
        let cfg = BeffIoConfig::quick(m.mem_per_node).with_t(4.0);
        let r = World::sim_partition(m.network(), n).run(|c| run_beff_io(c, &io, &cfg));
        r[0].beff_io
    };
    // T3E: global resource — tripling clients gains little
    let t3e_small = run("t3e", 8);
    let t3e_big = run("t3e", 32);
    assert!(
        t3e_big < 2.0 * t3e_small,
        "T3E I/O should be nearly flat: {t3e_small} -> {t3e_big}"
    );
    // SP: injection-bound — clients scale it up
    let sp_small = run("ibm-sp", 8);
    let sp_big = run("ibm-sp", 32);
    assert!(
        sp_big > 1.6 * sp_small,
        "SP I/O should track clients: {sp_small} -> {sp_big}"
    );
}

#[test]
fn read_method_benefits_from_cache() {
    // reads of just-written data hit the filesystem cache: read value
    // should not collapse below the write value on a cached system
    let m = by_key("sx5").unwrap();
    let pfs = m.filesystem().unwrap();
    let io = IoWorld::sim(pfs);
    let cfg = BeffIoConfig::quick(m.mem_per_node).with_t(2.0);
    let r = World::sim_partition(m.network(), 4).run(|c| run_beff_io(c, &io, &cfg));
    let w = r[0].method_value(AccessMethod::InitialWrite).unwrap();
    let rd = r[0].method_value(AccessMethod::Read).unwrap();
    assert!(rd > 0.3 * w, "read {rd} vs write {w}");
}

#[test]
fn degraded_io_server_slows_the_benchmark() {
    let m = by_key("t3e").unwrap();
    let cfg = BeffIoConfig::quick(m.mem_per_node).with_t(2.0);
    let healthy = {
        let pfs = m.filesystem().unwrap();
        let io = IoWorld::sim(pfs);
        World::sim_partition(m.network(), 8).run(|c| run_beff_io(c, &io, &cfg))[0].beff_io
    };
    let degraded = {
        let pfs = m.filesystem().unwrap();
        for s in 0..5 {
            pfs.set_server_speed_factor(s, 0.05);
        }
        let io = IoWorld::sim(pfs);
        World::sim_partition(m.network(), 8).run(|c| run_beff_io(c, &io, &cfg))[0].beff_io
    };
    assert!(
        degraded < 0.9 * healthy,
        "half the servers at 5% speed must hurt: {healthy} -> {degraded}"
    );
}

#[test]
fn balance_factors_are_in_paper_range() {
    // Fig. 1: balance factors of these systems live between ~0.001 and
    // ~1 byte/flop
    for key in ["t3e", "sx5", "hpv"] {
        let m = by_key(key).unwrap();
        let n = m.procs.min(8);
        let cfg = quick_beff(m.mem_per_proc);
        let r = World::sim_partition(m.network(), n).run(|c| run_beff(c, &cfg));
        let b = beff::core::Balance::new(r[0].beff, m.rmax_for(n));
        assert!(
            (0.0005..2.0).contains(&b.factor()),
            "{key}: balance {}",
            b.factor()
        );
    }
}
