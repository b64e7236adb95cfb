//! Collective operations, built strictly on top of point-to-point so
//! that their virtual-time cost *emerges* from the network model
//! instead of being postulated.
//!
//! Algorithms follow the classic MPICH choices:
//!
//! * barrier — dissemination (⌈log₂ n⌉ rounds),
//! * bcast — binomial tree,
//! * reduce — binomial tree (commutative ops),
//! * allreduce — reduce to 0 + bcast (robust, good enough for the
//!   control-path uses the benchmarks make of it),
//! * gather — linear to the root (control-path only),
//! * alltoallv — pairwise shifted exchange, skipping zero counts (this
//!   is one of the three b_eff communication *methods*).

use crate::comm::Comm;
use crate::message::RecvInfo;
use crate::wire;

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
    /// Barrier. Simulated worlds rendezvous on a shared board (one
    /// scheduler yield per rank, closed-form dissemination cost); real
    /// worlds run the dissemination rounds as actual point-to-point
    /// traffic.
    pub fn barrier(&mut self) {
        let tag = self.next_coll_tag();
        let n = self.size();
        if n == 1 {
            return;
        }
        if self.is_sim() {
            self.sim_rendezvous(&[], &mut [], None);
            return;
        }
        let r = self.rank();
        let mut k = 1;
        while k < n {
            let dst = (r + k) % n;
            let src = (r + n - k) % n;
            let sreq = self.isend(dst, tag, &[]);
            let _ = self.recv_vec(Some(src), Some(tag));
            self.wait_send(sreq);
            k <<= 1;
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

    /// Allreduce of an f64 vector. Simulated worlds use the rendezvous
    /// board (reduced in rank order, priced as reduce + bcast sweeps);
    /// real worlds reduce to 0 and broadcast.
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
        if self.size() > 1 && self.is_sim() {
            return self.sim_rendezvous(vals, out, Some(op));
        }
        let reduced = self.reduce_f64(0, vals, op);
        let mut buf = reduced.map(|v| wire::encode_f64s(&v)).unwrap_or_default();
        self.bcast(0, &mut buf);
        out.copy_from_slice(&wire::decode_f64s(&buf));
    }

    /// Linear gather of byte buffers to `root` (control path). Returns
    /// `Some(per-rank data)` on the root.
    pub fn gather_bytes(&mut self, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        let tag = self.next_coll_tag();
        let n = self.size();
        if self.rank() == root {
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
            out[root] = data.to_vec();
            for _ in 0..n - 1 {
                let (d, info) = self.recv_vec(None, Some(tag));
                out[info.src] = d;
            }
            Some(out)
        } else {
            self.send(root, tag, data);
            None
        }
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

    /// `MPI_Alltoallv` with benchmark-payload semantics: rank `i`'s
    /// slice `sendbuf[sdispls[i]..sdispls[i]+scounts[i]]` goes to rank
    /// `i`; received data lands at `rdispls[i]` in `recvbuf`. Zero-count
    /// pairs exchange nothing (as real MPI implementations do). Uses the
    /// pairwise shifted-exchange schedule.
    #[allow(clippy::too_many_arguments)]
    pub fn payload_alltoallv(
        &mut self,
        sendbuf: &[u8],
        scounts: &[usize],
        sdispls: &[usize],
        recvbuf: &mut [u8],
        rcounts: &[usize],
        rdispls: &[usize],
    ) {
        let tag = self.next_coll_tag();
        let n = self.size();
        assert!(scounts.len() == n && sdispls.len() == n);
        assert!(rcounts.len() == n && rdispls.len() == n);
        let r = self.rank();
        // self-exchange first (local copy)
        if scounts[r] > 0 {
            assert_eq!(scounts[r], rcounts[r], "self count mismatch");
            let src = &sendbuf[sdispls[r]..sdispls[r] + scounts[r]];
            recvbuf[rdispls[r]..rdispls[r] + rcounts[r]].copy_from_slice(src);
        }
        for shift in 1..n {
            let dst = (r + shift) % n;
            let src = (r + n - shift) % n;
            let sreq = if scounts[dst] > 0 {
                let chunk = &sendbuf[sdispls[dst]..sdispls[dst] + scounts[dst]];
                Some(self.payload_isend(dst, tag, chunk))
            } else {
                None
            };
            if rcounts[src] > 0 {
                let rb = &mut recvbuf[rdispls[src]..rdispls[src] + rcounts[src]];
                let info: RecvInfo = self.recv(Some(src), Some(tag), rb);
                debug_assert_eq!(info.len as usize, rcounts[src]);
            }
            if let Some(req) = sreq {
                self.wait_send(req);
            }
        }
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
