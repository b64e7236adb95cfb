//! A resident world gives back everything a run allocates: k b_eff
//! runs of one session leave the live heap exactly where the first run
//! left it. (A fiber whose final switch was made from inside its boxed
//! body never freed the box: 64 B a rank, every run.) One test per
//! binary: the allocator's counts are process-wide.

use beff_check::CountingAlloc;
use beff_core::beff::{run_beff, BeffConfig, MeasureSchedule};
use beff_mpi::World;
use beff_netsim::{MachineNet, NetParams, Topology, MB};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn repeated_runs_of_a_session_hold_the_heap_flat() {
    let net = Arc::new(MachineNet::new(Topology::Torus3D { dims: [2, 2, 4] }, NetParams::default()));
    let mut cfg = BeffConfig::quick(MB);
    cfg.schedule = MeasureSchedule { loop_start: 1, reps: 1, ..cfg.schedule };
    cfg.extra_iters = 1;
    let session = World::sim(net.clone()).session();
    const RUNS: usize = 4;
    // sized up front, so that recording a reading allocates nothing
    let mut live = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        net.reset();
        let results = session.run(|c| run_beff(c, &cfg));
        assert!(results.iter().all(|r| r.nprocs == 16 && r.beff > 0.0));
        drop(results);
        live.push(CountingAlloc::live());
    }
    assert!(live.iter().all(|&b| b == live[0]), "live heap after each run: {live:?}");
}
