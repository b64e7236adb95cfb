//! A simulated world's heap grows linearly in its ranks: no rank builds
//! or keeps a table the size of the world. Held by the per-rank peak of
//! live heap over a whole b_eff run at two world sizes. One test per
//! binary: the allocator's counts are process-wide.

use beff_check::CountingAlloc;
use beff_core::beff::{run_beff, BeffConfig, MeasureSchedule};
use beff_mpi::World;
use beff_netsim::{MachineNet, NetParams, Topology, MB};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Peak live heap of one b_eff run on a crossbar of `n` ranks, per rank.
fn per_rank_peak(n: usize) -> u64 {
    let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: n }, NetParams::default()));
    let mut cfg = BeffConfig::quick(MB); // L_max = 8 kB
    cfg.schedule = MeasureSchedule { loop_start: 1, reps: 1, ..cfg.schedule };
    cfg.extra_iters = 1;
    let base = CountingAlloc::live();
    CountingAlloc::reset_peak();
    let results = World::sim(net).run(|c| run_beff(c, &cfg));
    let peak = CountingAlloc::peak() - base;
    assert!(results.iter().all(|r| r.nprocs == n && r.beff > 0.0));
    peak / n as u64
}

/// With a neighbour table per pattern on every rank, 12 × n pairs a
/// rank, the per-rank peak of ×128 was 3.1 times that of ×16 (12.2 →
/// 38.1 kB). With only its own pairs but every ring size of its twelve
/// layouts, ×512 read 2.07 times ×16 (7.46 → 15.4 kB); with each layout
/// at most three runs, 1.13 (7.38 → 8.33 kB), the rest being the rank's
/// share of the world (mailbox, board slots, its result).
#[test]
fn a_worlds_heap_grows_linearly_in_its_ranks() {
    let small = per_rank_peak(16);
    let large = per_rank_peak(512);
    assert!(
        4 * large < 5 * small,
        "per-rank peak heap: {small} B at ×16, {large} B at ×512 ({:.2}×)",
        large as f64 / small as f64
    );
}
