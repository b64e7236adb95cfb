//! Collective operations.
//!
//! Barrier, allreduce, the exclusive prefix sum and a run of
//! agreement/step/barrier rounds meet on the communicator's rendezvous
//! board (`Comm::sim_rendezvous`, `Comm::sim_rounds`): no message
//! moves, the contributions are folded in rank order, and the cost is
//! the closed form of the dissemination sweep (barrier) or of reduce +
//! bcast sweeps (allreduce, scan). Every other collective is built on
//! point-to-point, so its virtual-time cost *emerges* from the network
//! model, following the classic MPICH choices:
//!
//! * bcast — binomial tree,
//! * reduce — binomial tree (commutative ops),
//! * gather — linear to the root (control-path only).

use crate::comm::{Comm, Fold};
use crate::wire;
use beff_sim::Secs;

/// Reduction operators over f64 vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl ReduceOp {
    pub(crate) fn apply(self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduction length mismatch");
        for (a, &b) in acc.iter_mut().zip(other) {
            *a = match self {
                ReduceOp::Sum => *a + b,
                ReduceOp::Max => a.max(b),
                ReduceOp::Min => a.min(b),
            };
        }
    }
}

impl Comm {
    /// Barrier: a rendezvous on the communicator's board (one
    /// scheduler yield per rank, closed-form dissemination cost).
    pub fn barrier(&mut self) {
        if self.size() > 1 {
            self.sim_rendezvous(&[], &mut [], Fold::Barrier);
        }
    }

    /// Binomial-tree broadcast of a byte buffer from `root`.
    pub fn bcast(&mut self, root: usize, data: &mut Vec<u8>) {
        let tag = self.next_coll_tag();
        let n = self.size();
        if n == 1 {
            return;
        }
        let vrank = (self.rank() + n - root) % n;
        // receive phase
        let mut mask = 1usize;
        while mask < n {
            if vrank & mask != 0 {
                let vsrc = vrank - mask;
                let src = (vsrc + root) % n;
                let (d, _) = self.recv_vec(Some(src), Some(tag));
                *data = d;
                break;
            }
            mask <<= 1;
        }
        // send phase
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < n {
                let dst = (vrank + mask + root) % n;
                self.send(dst, tag, data);
            }
            mask >>= 1;
        }
    }

    /// Binomial-tree reduction of an f64 vector to `root`. Returns
    /// `Some(result)` on the root, `None` elsewhere.
    pub fn reduce_f64(&mut self, root: usize, vals: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        let tag = self.next_coll_tag();
        let n = self.size();
        let mut acc = vals.to_vec();
        if n == 1 {
            return Some(acc);
        }
        let vrank = (self.rank() + n - root) % n;
        let mut mask = 1usize;
        while mask < n {
            if vrank & mask == 0 {
                let vpeer = vrank | mask;
                if vpeer < n {
                    let peer = (vpeer + root) % n;
                    let (d, _) = self.recv_vec(Some(peer), Some(tag));
                    op.apply(&mut acc, &wire::decode_f64s(&d));
                }
            } else {
                let vpeer = vrank & !mask;
                let peer = (vpeer + root) % n;
                self.send(peer, tag, &wire::encode_f64s(&acc));
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Allreduce of an f64 vector on the rendezvous board (reduced in
    /// rank order, priced as reduce + bcast sweeps).
    pub fn allreduce_f64(&mut self, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        let mut out = vec![0.0; vals.len()];
        self.allreduce_into(vals, &mut out, op);
        out
    }

    /// Scalar allreduce; on the rendezvous board it stays off the heap.
    pub fn allreduce_scalar(&mut self, v: f64, op: ReduceOp) -> f64 {
        let mut out = [0.0];
        self.allreduce_into(&[v], &mut out, op);
        out[0]
    }

    fn allreduce_into(&mut self, vals: &[f64], out: &mut [f64], op: ReduceOp) {
        if self.size() > 1 {
            self.sim_rendezvous(vals, out, Fold::Reduce(op));
        } else {
            out.copy_from_slice(vals);
        }
    }

    /// Exclusive prefix sum (`MPI_Exscan` with a sum, plus the total):
    /// returns the sum of the values of the ranks before this one (0.0
    /// on rank 0) and the sum over all ranks. Each rank posts one value
    /// on the board and the last arriver forms the running sums in rank
    /// order — bit for bit what summing an allreduced one-hot vector in
    /// rank order gives, at the allreduce's price, with no n-vector.
    pub fn exscan_sum(&mut self, v: f64) -> (f64, f64) {
        if self.size() == 1 {
            return (0.0, v);
        }
        let mut out = [0.0; 2];
        self.sim_rendezvous(&[v], &mut out, Fold::ExScanSum);
        (out[0], out[1])
    }

    /// `rounds` rounds of an agreement, a per-rank step and a barrier,
    /// met as one rendezvous. Bit for bit, every rank runs
    ///
    /// ```text
    /// agreed = allreduce(contrib, Max)      // the first agreement
    /// if !batch(agreed) { return false }    // nothing else happened
    /// own = contrib
    /// for round in 0..rounds {
    ///     if round > 0 { allreduce(contrib, Max) }
    ///     advance_to(step(world_rank, own, now))
    ///     barrier()
    /// }
    /// return true
    /// ```
    ///
    /// and leaves with `out = agreed ++ own`. Only the first agreement
    /// parks the ranks: its last arriver, if `batch` accepts the fold,
    /// runs every rank's `step` of every round itself, in the order the
    /// token would have run them, and hands the token on where the last
    /// barrier would have left it — one scheduler yield a rank for the
    /// whole run instead of two a round. `batch` must be a pure function
    /// of the fold; `step` books the rank's round on state the token
    /// orders, and neither communicates nor blocks.
    ///
    /// Panics unless the communicator spans the world with at least two
    /// ranks (no rank outside it may run between the steps), `rounds` is
    /// at least one and `out` holds twice `contrib`.
    pub fn allreduce_rounds(
        &mut self,
        contrib: &[f64],
        out: &mut [f64],
        rounds: u64,
        batch: impl Fn(&[f64]) -> bool,
        step: impl FnMut(usize, &mut [f64], Secs) -> Secs,
    ) -> bool {
        assert!(self.size() > 1 && self.spans_world(), "rounds need a world-wide communicator");
        assert!(rounds > 0 && out.len() == 2 * contrib.len(), "rounds: bad shape");
        self.sim_rounds(contrib, out, rounds, batch, step)
    }

    /// Broadcast a u64 from `root` (control path convenience).
    pub fn bcast_u64(&mut self, root: usize, v: u64) -> u64 {
        let mut buf = Vec::new();
        if self.rank() == root {
            wire::put_u64(&mut buf, v);
        }
        self.bcast(root, &mut buf);
        wire::Reader::new(&buf).u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Collective behaviour is tested through the runtime in
    // runtime.rs and the crate-level tests; here only op algebra.
    #[test]
    fn reduce_op_apply() {
        let mut a = vec![1.0, 5.0, -2.0];
        ReduceOp::Sum.apply(&mut a, &[1.0, 1.0, 1.0]);
        assert_eq!(a, vec![2.0, 6.0, -1.0]);
        ReduceOp::Max.apply(&mut a, &[0.0, 10.0, 0.0]);
        assert_eq!(a, vec![2.0, 10.0, 0.0]);
        ReduceOp::Min.apply(&mut a, &[-1.0, 20.0, 0.5]);
        assert_eq!(a, vec![-1.0, 10.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_op_length_mismatch_panics() {
        let mut a = vec![1.0];
        ReduceOp::Sum.apply(&mut a, &[1.0, 2.0]);
    }
}
