//! A scalar allreduce or a barrier on a warm rendezvous board does not
//! touch the allocator: contributions land in the board's flat
//! buffer, the result in the caller's slice, the waiters in a ready
//! queue sized at launch. Held here by counting what the whole run asks
//! the allocator for. One test per binary: the count is process-wide.

use beff_check::CountingAlloc;
use beff_mpi::{ReduceOp, World};
use beff_netsim::{MachineNet, NetParams, Topology};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn warm_scalar_collectives_stay_off_the_heap() {
    const RANKS: usize = 8;
    const EACH: u64 = 1000;
    let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: RANKS }, NetParams::default()));
    let requested: Vec<u64> = World::sim(net).run(|c| {
        // grow both generations of the board to a scalar's width
        let mut acc = c.allreduce_scalar(1.0, ReduceOp::Sum);
        acc += c.allreduce_scalar(1.0, ReduceOp::Sum);
        // every rank brackets its own 2 000 collectives; the brackets
        // overlap on all but the first and last few arrivals
        let before = CountingAlloc::requested();
        for i in 0..EACH {
            acc += c.allreduce_scalar(i as f64, ReduceOp::Max);
            c.barrier();
        }
        let requested = CountingAlloc::requested() - before;
        assert_eq!(acc, 2.0 * RANKS as f64 + (0..EACH).sum::<u64>() as f64);
        requested
    });
    // The parent allocated two vectors an arrival, and a map node and
    // two more vectors a collective: some 50 B an arrival. The board
    // asks for nothing; what is left to count is the test harness's own
    // thread (0 or 900 B, run to run), so hold it under a byte an arrival.
    let arrivals = 2 * EACH * RANKS as u64;
    let most = requested.iter().copied().max().unwrap_or(u64::MAX);
    assert!(most < arrivals, "{arrivals} arrivals on a warm board asked the allocator for {most} B");
}
