//! The three communication *methods* of b_eff (§4): `MPI_Sendrecv`,
//! `MPI_Alltoallv`, and nonblocking `Isend/Irecv + Waitall`. The
//! benchmark takes, per pattern and message size, the **maximum**
//! bandwidth over the three, so a system is measured by whichever MPI
//! path its vendor optimized.

use beff_json::{Json, ToJson};
use beff_mpi::{Comm, Tag};

/// Tag used by all benchmark payload traffic.
pub const BENCH_TAG: Tag = 0x0BEF;

/// Modeled per-rank scan cost of an `MPI_Alltoallv` call (the count
/// arrays are O(n) even when only two entries are nonzero).
const ALLTOALLV_SCAN_PER_RANK: f64 = 5e-9;

/// The communication method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Sendrecv,
    Alltoallv,
    NonBlocking,
}

impl ToJson for Method {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Method::Sendrecv => "Sendrecv",
                Method::Alltoallv => "Alltoallv",
                Method::NonBlocking => "NonBlocking",
            }
            .to_owned(),
        )
    }
}

pub const METHODS: [Method; 3] = [Method::Sendrecv, Method::Alltoallv, Method::NonBlocking];

impl Method {
    pub fn name(&self) -> &'static str {
        match self {
            Method::Sendrecv => "MPI_Sendrecv",
            Method::Alltoallv => "MPI_Alltoallv",
            Method::NonBlocking => "Irecv/Isend/Waitall",
        }
    }
}

/// Per-rank transfer helper hiding the copy/no-copy payload modes.
/// In copy mode, real buffers of size `max_len` are allocated once; in
/// no-copy mode, only lengths travel.
pub struct Transfers {
    real: bool,
    sbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

impl Transfers {
    pub fn new(comm: &Comm, max_len: u64) -> Self {
        let real = comm.copies_payload();
        // 2x: the Alltoallv method merges both ring messages to the
        // same peer into one transfer of 2 * max_len
        let cap = if real { 2 * max_len as usize } else { 0 };
        Self { real, sbuf: vec![0xA5; cap], rbuf: vec![0; cap] }
    }

    #[inline]
    fn isend(&mut self, comm: &mut Comm, dst: usize, len: u64) -> beff_mpi::SendReq {
        if self.real {
            comm.payload_isend(dst, BENCH_TAG, &self.sbuf[..len as usize])
        } else {
            comm.payload_isend_len(dst, BENCH_TAG, len)
        }
    }

    #[inline]
    fn recv(&mut self, comm: &mut Comm, src: usize, len: u64) {
        let buf = if self.real { &mut self.rbuf[..len as usize] } else { &mut [][..] };
        comm.recv(Some(src), Some(BENCH_TAG), buf);
    }

    /// One ring iteration with the given method: exchange `len` bytes
    /// with both neighbors.
    pub fn ring_iteration(
        &mut self,
        comm: &mut Comm,
        method: Method,
        left: usize,
        right: usize,
        len: u64,
    ) {
        match method {
            Method::Sendrecv => {
                // the two messages go one after the other, as the paper
                // specifies for MPI_Sendrecv on rings with >2 members
                let s1 = self.isend(comm, left, len);
                self.recv(comm, right, len);
                comm.wait_send(s1);
                let s2 = self.isend(comm, right, len);
                self.recv(comm, left, len);
                comm.wait_send(s2);
            }
            Method::Alltoallv => {
                // one call moves both messages; counts to the same peer
                // merge into a single transfer, and the call scans the
                // O(n) count arrays
                comm.compute(comm.size() as f64 * ALLTOALLV_SCAN_PER_RANK);
                if left == right {
                    let s = self.isend(comm, left, 2 * len);
                    self.recv(comm, right, 2 * len);
                    comm.wait_send(s);
                } else {
                    let s1 = self.isend(comm, left, len);
                    let s2 = self.isend(comm, right, len);
                    self.recv(comm, right, len);
                    self.recv(comm, left, len);
                    comm.wait_send(s1);
                    comm.wait_send(s2);
                }
            }
            Method::NonBlocking => {
                let s1 = self.isend(comm, left, len);
                let s2 = self.isend(comm, right, len);
                self.recv(comm, right, len);
                if left == right {
                    self.recv(comm, right, len);
                } else {
                    self.recv(comm, left, len);
                }
                comm.wait_send(s1);
                comm.wait_send(s2);
            }
        }
    }

    /// One iteration of a *pair* exchange (bisection / ping patterns):
    /// both sides send `len` to each other simultaneously.
    pub fn pair_iteration(&mut self, comm: &mut Comm, peer: usize, len: u64) {
        let s = self.isend(comm, peer, len);
        self.recv(comm, peer, len);
        comm.wait_send(s);
    }

    /// One ping-pong round trip; `first` serves, the peer returns.
    pub fn pingpong_iteration(&mut self, comm: &mut Comm, peer: usize, len: u64, first: bool) {
        if first {
            let s = self.isend(comm, peer, len);
            comm.wait_send(s);
            self.recv(comm, peer, len);
        } else {
            self.recv(comm, peer, len);
            let s = self.isend(comm, peer, len);
            comm.wait_send(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_mpi::World;
    use beff_netsim::{MachineNet, NetParams, Topology};
    use std::sync::Arc;

    fn sim(n: usize) -> World {
        let net =
            Arc::new(MachineNet::new(Topology::Crossbar { procs: n }, NetParams::default()));
        World::sim(net)
    }

    #[test]
    fn all_methods_complete_a_ring() {
        for method in METHODS {
            let times = sim(4).run(move |c| {
                let n = c.size();
                let left = (c.rank() + n - 1) % n;
                let right = (c.rank() + 1) % n;
                let mut tr = Transfers::new(c, 4096);
                for _ in 0..5 {
                    tr.ring_iteration(c, method, left, right, 4096);
                }
                c.now()
            });
            assert!(times.iter().all(|&t| t > 0.0), "{method:?}: {times:?}");
        }
    }

    #[test]
    fn ring_of_two_all_methods() {
        for method in METHODS {
            let times = sim(2).run(move |c| {
                let peer = 1 - c.rank();
                let mut tr = Transfers::new(c, 1024);
                for _ in 0..3 {
                    tr.ring_iteration(c, method, peer, peer, 1024);
                }
                c.now()
            });
            assert!(times.iter().all(|&t| t > 0.0), "{method:?}");
        }
    }

    #[test]
    fn methods_work_with_payload_bytes() {
        for method in METHODS {
            let out = sim(4).copy_data(true).run(move |c| {
                let n = c.size();
                let left = (c.rank() + n - 1) % n;
                let right = (c.rank() + 1) % n;
                let mut tr = Transfers::new(c, 512);
                for _ in 0..3 {
                    tr.ring_iteration(c, method, left, right, 512);
                }
                true
            });
            assert!(out.iter().all(|&b| b));
        }
    }

    #[test]
    fn pingpong_measures_round_trips() {
        let times = sim(2).run(|c| {
            if c.rank() > 1 {
                return 0.0;
            }
            let peer = 1 - c.rank();
            let mut tr = Transfers::new(c, 1 << 20);
            let t0 = c.now();
            for _ in 0..4 {
                tr.pingpong_iteration(c, peer, 1 << 20, c.rank() == 0);
            }
            c.now() - t0
        });
        assert!(times[0] > 0.0 && times[1] > 0.0);
        // both sides observe (nearly) the same elapsed round-trip time
        assert!((times[0] - times[1]).abs() / times[0] < 0.5);
    }
}
