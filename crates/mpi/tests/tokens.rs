//! Exit-path property tests: every way a simulated world can end —
//! normal completion, injected typed fault, invariant (string) panic,
//! detected deadlock — settles to the right typed outcome, and a world
//! session survives a faulted run without residue.
//!
//! The launcher itself asserts after every drive loop that no fiber is
//! left suspended and every stack canary is intact, so the tests here
//! double as end-to-end proofs of that on each exit path.

use beff_faults::silence_fault_panics;
use beff_mpi::{BeffError, ReduceOp, Workers, World};
use beff_netsim::{MachineNet, NetParams, Topology};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn net(procs: usize) -> Arc<MachineNet> {
    Arc::new(MachineNet::new(Topology::Ring { procs }, NetParams::default()))
}

// ---- world level ------------------------------------------------------

#[test]
fn typed_fault_on_one_rank_settles_to_its_root_cause() {
    silence_fault_panics();
    let w = World::sim_partition(net(4), 4);
    let err = w
        .try_run(|c| {
            if c.rank() == 2 {
                BeffError::Io("injected".into()).raise();
            }
            c.barrier();
        })
        .expect_err("rank 2 raised");
    // Peers die with the secondary PeerFailed; the settle rule must
    // surface the injected fault, not the cascade.
    assert_eq!(err, BeffError::Io("injected".into()));
}

#[test]
fn recv_cycle_is_reported_as_typed_deadlock() {
    silence_fault_panics();
    let w = World::sim_partition(net(2), 2);
    let err = w
        .try_run(|c| {
            // 0 waits for 1, 1 waits for 0, nobody sends: a genuine
            // deadlock the scheduler must detect, not hang on.
            let from = 1 - c.rank();
            let _ = c.recv_vec(Some(from), None);
        })
        .expect_err("deadlock");
    assert_eq!(err, BeffError::Deadlock);
}

#[test]
fn session_reuse_after_faulted_run_is_bitwise_clean() {
    silence_fault_panics();
    let network = net(4);
    let workload = |c: &mut beff_mpi::Comm| {
        let msg = vec![0u8; 4096];
        let (left, right) = ((c.rank() + 3) % 4, (c.rank() + 1) % 4);
        let _ = c.sendrecv(right, 7, &msg, Some(left), Some(7));
        let t = c.allreduce_scalar(c.now(), ReduceOp::Max);
        (t, c.now())
    };

    // Reference: a clean run on a fresh world over a fresh network.
    let clean = World::sim_partition(net(4), 4).run(workload);

    // Same workload on a session that just survived a faulted run.
    let session = World::sim_partition(Arc::clone(&network), 4).session();
    let err = session
        .try_run(|c| {
            if c.rank() == 1 {
                BeffError::RankCrashed { rank: 1, at: 0.0 }.raise();
            }
            c.barrier();
        })
        .expect_err("rank 1 raised");
    assert!(err.is_permanent());

    network.reset();
    let after_fault = session.run(workload);
    assert_eq!(
        format!("{clean:?}"),
        format!("{after_fault:?}"),
        "post-fault session run must be bit-identical to a fresh world"
    );
}

// ---- worker-count parity (batch worlds) -------------------------------

#[test]
fn run_batch_token_audits_balance_at_every_worker_count() {
    // Each job runs a full 4-rank world on its own machine replica;
    // every launch asserts internally that no fiber is left suspended,
    // and the batched results must match the serial (1-worker)
    // reference byte for byte.
    let workload = |job: usize, c: &mut beff_mpi::Comm| {
        let msg = vec![job as u8; 1024 * (job + 1)];
        let (left, right) = ((c.rank() + 3) % 4, (c.rank() + 1) % 4);
        let _ = c.sendrecv(right, 9, &msg, Some(left), Some(9));
        let t = c.allreduce_scalar(c.now(), ReduceOp::Max);
        (t.to_bits(), c.now().to_bits())
    };
    let reference = World::sim_partition(net(4), 4).run_batch(Workers::new(1), 6, workload);
    for w in [2, 4, 8] {
        let batched = World::sim_partition(net(4), 4).run_batch(Workers::new(w), 6, workload);
        assert_eq!(
            format!("{reference:?}"),
            format!("{batched:?}"),
            "batch results at {w} workers must match the serial sweep"
        );
    }
}

#[test]
fn string_panics_still_propagate_as_panics() {
    silence_fault_panics();
    let w = World::sim_partition(net(2), 2);
    let out = catch_unwind(AssertUnwindSafe(|| {
        w.try_run(|c| {
            if c.rank() == 0 {
                panic!("invariant violation stays fatal");
            }
            c.barrier();
        })
    }));
    let payload = out.expect_err("string panic must not become a typed error");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
    assert!(msg.contains("invariant violation"), "got: {msg}");
}
