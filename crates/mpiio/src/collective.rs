//! Collective data access with **two-phase I/O** (collective
//! buffering), the ROMIO-style optimization the paper's pattern type 0
//! depends on: many small interleaved per-rank chunks are exchanged
//! over the (fast) message network so that the (slow) filesystem sees
//! few large contiguous requests.
//!
//! Protocol per collective call:
//!
//! 1. agree on the path (direct vs exchange) with an allreduce, so no
//!    rank can deadlock waiting for headers that never come;
//! 2. compute the global byte span of the call and divide it into one
//!    contiguous *file domain* per aggregator rank;
//! 3. every rank packs, per aggregator, the pieces of its request that
//!    fall into that aggregator's domain and ships them as one header
//!    message plus one payload message;
//! 4. each aggregator coalesces everything it received into maximal
//!    contiguous runs and issues large reads/writes in
//!    `cb_buffer_size` chunks.
//!
//! In no-copy simulation mode the payload messages and filesystem
//! writes carry only lengths — no scratch is built, zeroed or copied
//! (`MpiFile::materialize` is the one place that decides); the
//! exchange *timing* is still fully modeled.

use crate::file::MpiFile;
use beff_mpi::{Comm, ReduceOp};
use beff_mpi::wire;

/// A piece of one rank's request: physical file range + where it lives
/// in the rank's user buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Piece {
    phys: u64,
    len: u64,
    data_off: u64,
}

/// Domain decomposition of one collective call.
struct Plan {
    /// Global [lo, hi) span of the call (empty if hi <= lo).
    lo: u64,
    /// Domain width per aggregator.
    width: u64,
    /// Aggregator comm ranks.
    aggregators: Vec<usize>,
}

fn make_plan(comm: &mut Comm, file: &MpiFile, my_lo: u64, my_hi: u64) -> Plan {
    let n = comm.size();
    let lo_hi = comm.allreduce_f64(&[my_lo as f64, -(my_hi as f64)], ReduceOp::Min);
    let lo = lo_hi[0] as u64;
    let hi = (-lo_hi[1]) as u64;
    let naggr = file.hints().aggregators(n);
    let span = hi.saturating_sub(lo);
    let cb = file.hints().cb_buffer_size.max(1);
    let width = (span.div_ceil(naggr as u64)).div_ceil(cb) * cb;
    let aggregators = (0..naggr).map(|i| i * n / naggr).collect();
    Plan { lo, width: width.max(cb), aggregators }
}

impl Plan {
    /// Split `pieces` (sorted by phys) by aggregator domain.
    fn assign(&self, pieces: &[Piece]) -> Vec<Vec<Piece>> {
        let mut out = vec![Vec::new(); self.aggregators.len()];
        for p in pieces {
            let mut phys = p.phys;
            let mut len = p.len;
            let mut data_off = p.data_off;
            while len > 0 {
                let d = ((phys - self.lo) / self.width) as usize;
                let d = d.min(self.aggregators.len() - 1);
                let dom_end = self.lo + (d as u64 + 1) * self.width;
                let take = len.min(dom_end.saturating_sub(phys).max(1));
                out[d].push(Piece { phys, len: take, data_off });
                phys += take;
                data_off += take;
                len -= take;
            }
        }
        out
    }
}

fn encode_pieces(pieces: &[Piece]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + pieces.len() * 16);
    wire::put_u64(&mut buf, pieces.len() as u64);
    for p in pieces {
        wire::put_u64(&mut buf, p.phys);
        wire::put_u64(&mut buf, p.len);
    }
    buf
}

fn decode_pieces(buf: &[u8]) -> Vec<Piece> {
    let mut r = wire::Reader::new(buf);
    let n = r.u64() as usize;
    (0..n)
        .map(|_| Piece { phys: r.u64(), len: r.u64(), data_off: 0 })
        .collect()
}

/// Coalesce sorted pieces into maximal contiguous (phys, len) runs.
fn coalesce(mut pieces: Vec<Piece>) -> Vec<(u64, u64)> {
    pieces.sort_by_key(|p| p.phys);
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for p in pieces {
        match runs.last_mut() {
            Some(r) if r.0 + r.1 >= p.phys => {
                let end = (p.phys + p.len).max(r.0 + r.1);
                r.1 = end - r.0;
            }
            _ => runs.push((p.phys, p.len)),
        }
    }
    runs
}

impl MpiFile {
    /// Does every rank's request need the exchange? (collective
    /// agreement so no rank takes the wrong path)
    fn needs_exchange(&self, comm: &mut Comm, my_segments: usize) -> bool {
        if !self.hints().cb_enable {
            return false;
        }
        if self.hints().force_two_phase {
            return true;
        }
        let worst = comm.allreduce_scalar(my_segments as f64, ReduceOp::Max);
        worst > 1.0
    }

    /// `MPI_File_write_all`: collective write at the individual pointer.
    pub fn write_all(&mut self, comm: &mut Comm, data: &[u8]) -> u64 {
        let segs = self.view().map_range(self.tell(), data.len() as u64);
        if !self.needs_exchange(comm, segs.len()) {
            let n = self.write(comm, data);
            comm.barrier();
            return n;
        }
        let pieces = to_pieces(&segs);
        let (my_lo, my_hi) = span_of(&pieces);
        let plan = make_plan(comm, self, my_lo, my_hi);
        let tag_h = comm_tag(comm);
        let tag_p = comm_tag(comm);

        // ---- phase 1: ship my pieces to their aggregators ----
        let per_aggr = plan.assign(&pieces);
        let copy = self.materialize(comm);
        let mut scratch: Vec<u8> = Vec::new();
        for (i, mine) in per_aggr.iter().enumerate() {
            let a = plan.aggregators[i];
            let header = encode_pieces(mine);
            comm.send(a, tag_h, &header);
            let total: u64 = mine.iter().map(|p| p.len).sum();
            if total == 0 {
                continue;
            }
            if copy {
                scratch.clear();
                for p in mine {
                    let s = p.data_off as usize;
                    scratch.extend_from_slice(&data[s..s + p.len as usize]);
                }
                comm.payload_send(a, tag_p, &scratch);
            } else {
                comm.payload_send_len(a, tag_p, total);
            }
        }

        // ---- phase 2: aggregate and write ----
        if let Some(_my_index) = plan.aggregators.iter().position(|&a| a == comm.rank()) {
            let mut all: Vec<Piece> = Vec::new();
            let mut buffers: Vec<(Vec<Piece>, Vec<u8>)> = Vec::new();
            for _ in 0..comm.size() {
                let (hdr, info) = comm.recv_vec(None, Some(tag_h));
                let ps = decode_pieces(&hdr);
                let total: u64 = ps.iter().map(|p| p.len).sum();
                all.extend(ps.iter().copied());
                if total > 0 {
                    let (payload, _) = {
                        let req = comm.irecv(Some(info.src), Some(tag_p));
                        comm.wait_recv(req)
                    };
                    buffers.push((ps, payload));
                }
            }
            let runs = coalesce(all);
            let cb = self.hints().cb_buffer_size.max(1);
            for (start, len) in runs {
                if copy {
                    // assemble the run from the received payloads
                    let mut buf = vec![0u8; len as usize];
                    for (ps, payload) in &buffers {
                        let mut poff = 0usize;
                        for p in ps {
                            if p.phys >= start && p.phys + p.len <= start + len {
                                let dst = (p.phys - start) as usize;
                                if payload.len() >= poff + p.len as usize {
                                    buf[dst..dst + p.len as usize]
                                        .copy_from_slice(&payload[poff..poff + p.len as usize]);
                                }
                            }
                            poff += p.len as usize;
                        }
                    }
                    let mut off = 0u64;
                    while off < len {
                        let chunk = cb.min(len - off);
                        self.raw_write(
                            comm,
                            start + off,
                            &buf[off as usize..(off + chunk) as usize],
                        );
                        off += chunk;
                    }
                } else {
                    let mut off = 0u64;
                    while off < len {
                        let chunk = cb.min(len - off);
                        self.raw_write_len(comm, start + off, chunk);
                        off += chunk;
                    }
                }
            }
        }
        comm.barrier();
        self.seek(self.tell() + data.len() as u64);
        data.len() as u64
    }

    /// `MPI_File_read_all`: collective read at the individual pointer.
    pub fn read_all(&mut self, comm: &mut Comm, buf: &mut [u8]) -> u64 {
        let segs = self.view().map_range(self.tell(), buf.len() as u64);
        if !self.needs_exchange(comm, segs.len()) {
            let n = self.read(comm, buf);
            comm.barrier();
            return n;
        }
        let pieces = to_pieces(&segs);
        let (my_lo, my_hi) = span_of(&pieces);
        let plan = make_plan(comm, self, my_lo, my_hi);
        let tag_h = comm_tag(comm);
        let tag_p = comm_tag(comm);

        // ---- phase 1: send requests ----
        let per_aggr = plan.assign(&pieces);
        let copy = self.materialize(comm);
        for (i, mine) in per_aggr.iter().enumerate() {
            comm.send(plan.aggregators[i], tag_h, &encode_pieces(mine));
        }

        // ---- phase 2: aggregators read and distribute ----
        if plan.aggregators.contains(&comm.rank()) {
            let mut requests: Vec<(usize, Vec<Piece>)> = Vec::new();
            for _ in 0..comm.size() {
                let (hdr, info) = comm.recv_vec(None, Some(tag_h));
                requests.push((info.src, decode_pieces(&hdr)));
            }
            let all: Vec<Piece> = requests.iter().flat_map(|(_, ps)| ps.iter().copied()).collect();
            let runs = coalesce(all);
            // read each run once
            let mut run_data: Vec<(u64, Vec<u8>)> = Vec::new();
            let cb = self.hints().cb_buffer_size.max(1);
            for (start, len) in &runs {
                if copy {
                    let mut b = vec![0u8; *len as usize];
                    let mut off = 0u64;
                    while off < *len {
                        let chunk = cb.min(len - off);
                        self.raw_read(
                            comm,
                            start + off,
                            &mut b[off as usize..(off + chunk) as usize],
                        );
                        off += chunk;
                    }
                    run_data.push((*start, b));
                } else {
                    let mut off = 0u64;
                    while off < *len {
                        let chunk = cb.min(len - off);
                        self.raw_read_len(comm, start + off, chunk);
                        off += chunk;
                    }
                    run_data.push((*start, Vec::new()));
                }
            }
            // distribute
            let mut scratch: Vec<u8> = Vec::new();
            for (src, ps) in requests {
                let total: u64 = ps.iter().map(|p| p.len).sum();
                if total == 0 {
                    continue;
                }
                if copy {
                    scratch.clear();
                    scratch.resize(total as usize, 0);
                    let mut off = 0usize;
                    for p in &ps {
                        for (rs, rb) in &run_data {
                            if p.phys >= *rs && p.phys + p.len <= *rs + rb.len() as u64 {
                                let s = (p.phys - rs) as usize;
                                scratch[off..off + p.len as usize]
                                    .copy_from_slice(&rb[s..s + p.len as usize]);
                                break;
                            }
                        }
                        off += p.len as usize;
                    }
                    comm.payload_send(src, tag_p, &scratch);
                } else {
                    comm.payload_send_len(src, tag_p, total);
                }
            }
        }

        // ---- phase 3: receive my pieces ----
        for (i, mine) in per_aggr.iter().enumerate() {
            let total: u64 = mine.iter().map(|p| p.len).sum();
            if total == 0 {
                continue;
            }
            let a = plan.aggregators[i];
            let req = comm.irecv(Some(a), Some(tag_p));
            let (payload, _) = comm.wait_recv(req);
            if copy && payload.len() as u64 >= total {
                let mut poff = 0usize;
                for p in mine {
                    let d = p.data_off as usize;
                    buf[d..d + p.len as usize]
                        .copy_from_slice(&payload[poff..poff + p.len as usize]);
                    poff += p.len as usize;
                }
            }
        }
        comm.barrier();
        self.seek(self.tell() + buf.len() as u64);
        buf.len() as u64
    }
}

fn to_pieces(segs: &[(u64, u64)]) -> Vec<Piece> {
    let mut out = Vec::with_capacity(segs.len());
    let mut data_off = 0u64;
    for &(phys, len) in segs {
        out.push(Piece { phys, len, data_off });
        data_off += len;
    }
    out
}

fn span_of(pieces: &[Piece]) -> (u64, u64) {
    pieces.iter().fold((u64::MAX, 0), |(lo, hi), p| (lo.min(p.phys), hi.max(p.phys + p.len)))
}

fn comm_tag(comm: &mut Comm) -> beff_mpi::Tag {
    // piggyback on the collective tag allocator via a zero-cost barrier-free call
    comm.alloc_tag()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_merges_adjacent_and_overlapping() {
        let ps = vec![
            Piece { phys: 10, len: 10, data_off: 0 },
            Piece { phys: 0, len: 10, data_off: 0 },
            Piece { phys: 25, len: 5, data_off: 0 },
            Piece { phys: 22, len: 4, data_off: 0 },
        ];
        assert_eq!(coalesce(ps), vec![(0, 20), (22, 8)]);
    }

    #[test]
    fn pieces_encode_roundtrip() {
        let ps = vec![
            Piece { phys: 7, len: 100, data_off: 0 },
            Piece { phys: 1 << 40, len: 1, data_off: 0 },
        ];
        let back = decode_pieces(&encode_pieces(&ps));
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].phys, 7);
        assert_eq!(back[1].phys, 1 << 40);
    }

    #[test]
    fn span_of_empty_is_inverted() {
        let (lo, hi) = span_of(&[]);
        assert!(lo > hi);
    }

    #[test]
    fn to_pieces_tracks_data_offsets() {
        let ps = to_pieces(&[(100, 10), (300, 20)]);
        assert_eq!(ps[0].data_off, 0);
        assert_eq!(ps[1].data_off, 10);
    }
}
