//! Collective data access with **two-phase I/O** (collective
//! buffering), the ROMIO-style optimization the paper's pattern type 0
//! depends on: many small interleaved per-rank chunks are exchanged
//! over the (fast) message network so that the (slow) filesystem sees
//! few large contiguous requests.
//!
//! Protocol per collective call:
//!
//! 1. agree on the path (direct vs exchange) with an allreduce, so no
//!    rank can deadlock waiting for headers that never come; a request
//!    of at most one segment on every rank takes the direct path — its
//!    `Pfs` call and a closing barrier — and the steps below are skipped;
//! 2. compute the global byte span of the call and divide it into one
//!    contiguous *file domain* per aggregator rank;
//! 3. every rank splits its request at the domain boundaries in one
//!    pass and ships each aggregator the pieces in its domain as one
//!    header message plus one payload message;
//! 4. each aggregator decodes every header into one buffer, merges the
//!    senders' lists — each sorted, as its view is — into maximal
//!    contiguous runs by chasing contiguity ([`merge_runs`]), and issues
//!    large reads/writes in `cb_buffer_size` chunks.
//!
//! A run of `reps` calls of one buffer ([`MpiFile::write_all_n`],
//! [`MpiFile::read_all_n`]) is defined as the calls one by one, and is
//! made so wherever the ranks cannot batch it. They can in a no-copy
//! world with `cb_enable` and without `force_two_phase`, on a
//! communicator of two or more ranks that spans the world — conditions
//! every rank sees alike — when every rank's view turns out contiguous,
//! which the first call's agreement settles (a flag posted beside the
//! segment count, folded with `Max`). A contiguous view maps every call
//! of the run to one segment, so none needs the exchange, and the run is
//! one rendezvous ([`Comm::allreduce_rounds`]): the agreement's last
//! arriver books every rank's `Pfs` call of every repetition, in the
//! token order the calls would have had, and the bits are the calls'.
//! Otherwise the first call goes on past that agreement, and the rest
//! are made one by one.
//!
//! In no-copy simulation mode the payload messages and filesystem
//! writes carry only lengths — no scratch is built, zeroed or copied
//! (`Comm::copies_payload` is the one place that decides); the
//! exchange *timing* is still fully modeled.

use crate::file::MpiFile;
use crate::hints::Hints;
use crate::view::{FileView, Segment};
use beff_mpi::{Comm, ReduceOp, Tag};
use beff_mpi::wire;
use beff_pfs::DataRef;
use std::borrow::Cow;
use std::ops::Range;

/// Domain decomposition of one collective call.
struct Plan {
    /// Global [lo, hi) span of the call (empty if hi <= lo).
    lo: u64,
    /// Domain width per aggregator.
    width: u64,
    /// Aggregators, one per domain.
    naggr: usize,
    /// Ranks of the communicator.
    n: usize,
}

impl Plan {
    /// The domains of the span `[lo, hi)` for `n` ranks under `hints`.
    fn new(lo: u64, hi: u64, n: usize, hints: &Hints) -> Plan {
        let naggr = hints.aggregators(n);
        let span = hi.saturating_sub(lo);
        let cb = hints.cb_buffer_size.max(1);
        let width = (span.div_ceil(naggr as u64)).div_ceil(cb) * cb;
        Plan { lo, width: width.max(cb), naggr, n }
    }

    /// Agree on the plan of a call whose segments on this rank are
    /// `segs` (in file order, so the first and last bound them).
    fn agree(comm: &mut Comm, hints: &Hints, segs: &[Segment]) -> Plan {
        let my_lo = segs.first().map_or(u64::MAX, |s| s.0);
        let my_hi = segs.last().map_or(0, |s| s.0 + s.1);
        let lo_hi = comm.allreduce_f64(&[my_lo as f64, -(my_hi as f64)], ReduceOp::Min);
        Plan::new(lo_hi[0] as u64, (-lo_hi[1]) as u64, comm.size(), hints)
    }

    /// The comm rank of domain `d`'s aggregator.
    fn aggregator(&self, d: usize) -> usize {
        d * self.n / self.naggr
    }

    fn is_aggregator(&self, rank: usize) -> bool {
        (0..self.naggr).any(|d| self.aggregator(d) == rank)
    }

    /// Split `segs` (sorted by phys, disjoint) at the domain boundaries
    /// in one pass, and hand `each` every domain in order: its index,
    /// its header — a count, then a (phys, len) pair per piece — written
    /// straight into the buffer that becomes its message, and the bytes
    /// its pieces cover. A domain's pieces are consecutive in the view,
    /// so they are one slice of the rank's buffer.
    fn split(&self, segs: &[Segment], mut each: impl FnMut(usize, Vec<u8>, u64)) {
        // the segment being split, and its bytes earlier domains took
        let (mut next, mut done) = (0, 0);
        for d in 0..self.naggr {
            // the last domain takes everything past the others
            let end = if d + 1 == self.naggr {
                u64::MAX
            } else {
                self.lo.saturating_add((d as u64 + 1).saturating_mul(self.width))
            };
            // one piece per segment the domain overlaps
            let count = segs[next..].partition_point(|s| s.0 < end);
            let mut header = Vec::with_capacity(8 + 16 * count);
            wire::put_u64(&mut header, count as u64);
            let mut total = 0;
            for &(start, len) in &segs[next..next + count] {
                let phys = start + done;
                let take = (len - done).min(end - phys);
                wire::put_u64(&mut header, phys);
                wire::put_u64(&mut header, take);
                total += take;
                if take == len - done {
                    (next, done) = (next + 1, 0);
                } else {
                    done += take;
                }
            }
            each(d, header, total);
        }
    }
}

/// Append the pieces of one header to `pieces`; returns the bytes they
/// cover.
fn decode_into(header: &[u8], pieces: &mut Vec<Segment>) -> u64 {
    let from = pieces.len();
    let pairs = header.get(8..).unwrap_or_default().chunks_exact(16);
    pieces.extend(pairs.map(|pair| {
        let mut r = wire::Reader::new(pair);
        (r.u64(), r.u64())
    }));
    pieces[from..].iter().map(|p| p.1).sum()
}

/// Receive the next header from any rank into `pieces`; returns its
/// sender and the bytes its pieces cover.
fn recv_header(comm: &mut Comm, tag: Tag, pieces: &mut Vec<Segment>) -> (usize, u64) {
    let (header, info) = comm.recv_vec(None, Some(tag));
    (info.src, decode_into(&header, pieces))
}

/// Where a source's pieces end in the aggregator's buffer: its rank,
/// the end, and the bytes its pieces cover.
type Source = (usize, usize, u64);

/// The runs of every source's pieces (`pieces`, in arrival order, cut
/// by `sources`), merged with the lists in rank order.
fn runs_of_sources(pieces: &[Segment], sources: &[Source]) -> Vec<Segment> {
    let mut lists = vec![&pieces[..0]; sources.len()];
    let mut from = 0;
    for &(src, end, _) in sources {
        lists[src] = &pieces[from..end];
        from = end;
    }
    merge_runs(&lists, |a, b| a <= b)
}

/// The union of the pieces of `lists` as maximal contiguous (phys, len)
/// runs in ascending order, a piece that starts at or before a run's
/// end joining it — what sorting all the pieces and merging them would
/// give, made without sorting. A run starts at the lowest head and
/// grows by any head that reaches its end: first the list that grew it
/// last, then the next list, and only then the lowest head of all, off
/// a heap; it closes when none reaches. A strided exchange deals its
/// pieces round-robin across the lists, so the next list almost always
/// reaches. `le` is every comparison of positions the merge makes.
fn merge_runs(lists: &[&[Segment]], le: impl FnMut(u64, u64) -> bool) -> Vec<Segment> {
    let mut m = Merge::new(lists, le);
    let mut runs = Vec::new();
    while let Some(first) = m.lowest() {
        let (start, mut end) = (m.lists[first].head().0, 0);
        m.take(first, &mut end);
        let mut last = first;
        loop {
            if m.reaches(last, end) {
                m.take(last, &mut end);
                continue;
            }
            let next = if last + 1 < lists.len() { last + 1 } else { 0 };
            let grows = if next != last && m.reaches(next, end) {
                next
            } else {
                // the lowest head reaches if any does
                match m.lowest() {
                    Some(low) if m.reaches(low, end) => low,
                    _ => break,
                }
            };
            m.take(grows, &mut end);
            last = grows;
        }
        runs.push((start, end - start));
    }
    runs
}

/// One list of [`merge_runs`], sorted by position.
struct List<'a> {
    pieces: Cow<'a, [Segment]>,
    /// How many pieces runs have taken.
    taken: usize,
    /// Taken from since its heap key was set.
    stale: bool,
}

impl List<'_> {
    fn head(&self) -> Segment {
        self.pieces[self.taken]
    }

    fn is_done(&self) -> bool {
        self.taken == self.pieces.len()
    }
}

/// The state of [`merge_runs`].
struct Merge<'a, F> {
    lists: Vec<List<'a>>,
    /// A min-heap of (key, list) holding every list not yet seen done.
    /// A key is its list's head position when set and heads only grow,
    /// so a key never exceeds its head, and a top that is not stale has
    /// the lowest head of all.
    heap: Vec<(u64, usize)>,
    /// Lists with pieces left.
    live: usize,
    le: F,
}

impl<'a, F: FnMut(u64, u64) -> bool> Merge<'a, F> {
    fn new(lists: &[&'a [Segment]], le: F) -> Self {
        let lists: Vec<List<'a>> = lists
            .iter()
            .map(|&l| {
                // a list in view order is sorted; any other is sorted here
                let pieces = if l.is_sorted_by_key(|p| p.0) {
                    Cow::Borrowed(l)
                } else {
                    let mut l = l.to_vec();
                    l.sort_unstable();
                    Cow::Owned(l)
                };
                List { pieces, taken: 0, stale: false }
            })
            .collect();
        let heap: Vec<(u64, usize)> = lists
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_done())
            .map(|(i, l)| (l.head().0, i))
            .collect();
        let mut m = Merge { lists, live: heap.len(), heap, le };
        for i in (0..m.heap.len() / 2).rev() {
            m.sift_down(i);
        }
        m
    }

    /// `a <= b`, through the caller's comparator.
    fn le(&mut self, a: u64, b: u64) -> bool {
        // beff-analyze: dynamic-call: the comparator merge_runs was given
        (self.le)(a, b)
    }

    /// Does list `l`'s head start at or before `end`?
    fn reaches(&mut self, l: usize, end: u64) -> bool {
        let list = &self.lists[l];
        if list.is_done() {
            return false;
        }
        let phys = list.head().0;
        self.le(phys, end)
    }

    /// Take list `l`'s head into the run ending at `end`.
    fn take(&mut self, l: usize, end: &mut u64) {
        let list = &mut self.lists[l];
        let (phys, len) = list.head();
        *end = (*end).max(phys + len);
        list.taken += 1;
        list.stale = true;
        if list.is_done() {
            self.live -= 1;
        }
    }

    /// The list with the lowest head, if any has pieces left: the heap's
    /// top once every stale key above it is refreshed.
    fn lowest(&mut self) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        while let Some(&(_, l)) = self.heap.first() {
            let list = &mut self.lists[l];
            if !list.stale {
                return Some(l);
            }
            list.stale = false;
            if list.is_done() {
                self.heap.swap_remove(0);
            } else {
                self.heap[0].0 = list.head().0;
            }
            self.sift_down(0);
        }
        None
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let mut c = 2 * i + 1;
            if c >= n {
                return;
            }
            if c + 1 < n && !self.le(self.heap[c].0, self.heap[c + 1].0) {
                c += 1;
            }
            if self.le(self.heap[i].0, self.heap[c].0) {
                return;
            }
            self.heap.swap(i, c);
            i = c;
        }
    }
}

/// Copy mode only: the bytes of an aggregator's runs, back to back.
struct RunBytes<'a> {
    runs: &'a [Segment],
    /// Where each run starts in `bytes`.
    offs: Vec<usize>,
    bytes: Vec<u8>,
}

impl<'a> RunBytes<'a> {
    fn new(runs: &'a [Segment]) -> Self {
        let mut total = 0;
        let offs = runs
            .iter()
            .map(|r| {
                total += r.1 as usize;
                total - r.1 as usize
            })
            .collect();
        RunBytes { runs, offs, bytes: vec![0; total] }
    }

    /// Where piece `(phys, len)` lies in `bytes`: in the last run that
    /// starts at or before it, found by binary search.
    fn range(&self, (phys, len): Segment) -> Range<usize> {
        let r = self.runs.partition_point(|run| run.0 <= phys) - 1;
        let s = self.offs[r] + (phys - self.runs[r].0) as usize;
        s..s + len as usize
    }
}

/// The `cb_buffer_size` chunks of a run of `len` bytes: (offset in the
/// run, length).
fn chunks(len: u64, cb: u64) -> impl Iterator<Item = (u64, u64)> {
    (0..len).step_by(cb as usize).map(move |off| (off, cb.min(len - off)))
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
        self.all(comm, &mut Access::Write(data))
    }

    /// `MPI_File_read_all`: collective read at the individual pointer.
    pub fn read_all(&mut self, comm: &mut Comm, buf: &mut [u8]) -> u64 {
        self.all(comm, &mut Access::Read(buf))
    }

    /// `reps` consecutive [`write_all`](Self::write_all) calls of `data`,
    /// bit for bit; returns the bytes written. Where the ranks can
    /// (module docs), the run is one rendezvous.
    pub fn write_all_n(&mut self, comm: &mut Comm, data: &[u8], reps: u64) -> u64 {
        self.all_n(comm, Access::Write(data), reps)
    }

    /// `reps` consecutive [`read_all`](Self::read_all) calls into `buf`,
    /// bit for bit; returns the bytes read (short at EOF). Where the
    /// ranks can (module docs), the run is one rendezvous.
    pub fn read_all_n(&mut self, comm: &mut Comm, buf: &mut [u8], reps: u64) -> u64 {
        self.all_n(comm, Access::Read(buf), reps)
    }

    /// `reps` collective calls of one access: one rendezvous for the
    /// whole run where the local conditions hold and every rank's view
    /// turns out contiguous, the calls one by one otherwise.
    fn all_n(&mut self, comm: &mut Comm, mut access: Access<'_>, reps: u64) -> u64 {
        let hints = self.hints();
        let local = !comm.copies_payload()
            && hints.cb_enable
            && !hints.force_two_phase
            && comm.size() > 1
            && comm.spans_world();
        if reps == 0 || !local {
            return (0..reps).map(|_| self.all(comm, &mut access)).sum();
        }
        let len = access.len();
        let segs = self.view().map_range(self.tell(), len);
        let phys = self.view().map_offset(self.tell());
        // A contiguous view maps every call of the run to one segment,
        // so none needs the exchange; its offsets ride the board as f64s.
        let end = len.checked_mul(reps).and_then(|b| b.checked_add(phys));
        let exact = end.is_some_and(|end| end < 1 << 53);
        let per_call = !matches!(self.view(), FileView::Contiguous { .. }) || !exact;
        let contrib = [segs.len() as f64, f64::from(u8::from(per_call)), phys as f64, len as f64];
        let mut out = [0.0; 8];
        let (pfs, file, write) = (self.world.pfs(), self.file, access.is_write());
        let batched = comm.allreduce_rounds(
            &contrib,
            &mut out,
            reps,
            |agreed| agreed[1] == 0.0,
            // one call of one rank; `own` is its contribution, the
            // offset advanced by what each call moved
            |client, own, t| {
                let (phys, len) = (own[2] as u64, own[3] as u64);
                if len == 0 {
                    return t;
                }
                let (n, done) = if write {
                    (len, pfs.write(client, &file, phys, DataRef::Len(len), t))
                } else {
                    pfs.read(client, &file, phys, len, None, t)
                };
                own[2] = (phys + n) as f64;
                done
            },
        );
        if batched {
            let moved = out[6] as u64 - phys;
            self.seek(self.tell() + moved);
            return moved;
        }
        // the first call goes on past its agreement, the rest one by one
        let first = self.all_agreed(comm, &mut access, &segs, out[0] > 1.0);
        first + (1..reps).map(|_| self.all(comm, &mut access)).sum::<u64>()
    }

    /// One [`write_all`](Self::write_all) or [`read_all`](Self::read_all).
    fn all(&mut self, comm: &mut Comm, access: &mut Access<'_>) -> u64 {
        let segs = self.view().map_range(self.tell(), access.len());
        let exchange = self.needs_exchange(comm, segs.len());
        self.all_agreed(comm, access, &segs, exchange)
    }

    /// The rest of one call once the ranks agreed on its path.
    fn all_agreed(
        &mut self,
        comm: &mut Comm,
        access: &mut Access<'_>,
        segs: &[Segment],
        exchange: bool,
    ) -> u64 {
        match access {
            Access::Write(data) => self.write_all_agreed(comm, data, segs, exchange),
            Access::Read(buf) => self.read_all_agreed(comm, buf, segs, exchange),
        }
    }

    /// `write_all` past its agreement: the direct path, or the exchange.
    fn write_all_agreed(
        &mut self,
        comm: &mut Comm,
        data: &[u8],
        segs: &[Segment],
        exchange: bool,
    ) -> u64 {
        if !exchange {
            let n = self.write_segs(comm, segs, data);
            self.seek(self.tell() + n);
            comm.barrier();
            return n;
        }
        let plan = Plan::agree(comm, self.hints(), segs);
        let tag_h = comm.alloc_tag();
        let tag_p = comm.alloc_tag();
        let copy = comm.copies_payload();

        // ---- phase 1: ship my pieces to their aggregators ----
        let mut off = 0;
        plan.split(segs, |d, header, total| {
            let a = plan.aggregator(d);
            comm.send_vec(a, tag_h, header);
            if total == 0 {
                return;
            }
            if copy {
                comm.payload_send(a, tag_p, &data[off..off + total as usize]);
            } else {
                comm.payload_send_len(a, tag_p, total);
            }
            off += total as usize;
        });

        // ---- phase 2: aggregate and write ----
        if plan.is_aggregator(comm.rank()) {
            // every source's pieces, in arrival order, and where each
            // source's pieces end; copy mode also keeps its payload
            let mut pieces = Vec::new();
            let mut sources = Vec::with_capacity(comm.size());
            let mut payloads: Vec<(usize, Vec<u8>)> = Vec::new();
            for _ in 0..comm.size() {
                let (src, total) = recv_header(comm, tag_h, &mut pieces);
                sources.push((src, pieces.len(), total));
                if total > 0 {
                    let req = comm.irecv(Some(src), Some(tag_p));
                    let (payload, _) = comm.wait_recv(req);
                    if copy {
                        payloads.push((pieces.len(), payload));
                    }
                }
            }
            let cb = self.hints().cb_buffer_size.max(1);
            let runs = runs_of_sources(&pieces, &sources);
            if copy {
                let mut staged = RunBytes::new(&runs);
                let mut from = 0;
                for (end, payload) in &payloads {
                    let mut poff = 0;
                    for &p in &pieces[from..*end] {
                        let dst = staged.range(p);
                        let len = dst.len();
                        staged.bytes[dst].copy_from_slice(&payload[poff..poff + len]);
                        poff += len;
                    }
                    from = *end;
                }
                for (&(start, len), &at) in runs.iter().zip(&staged.offs) {
                    for (off, chunk) in chunks(len, cb) {
                        let s = at + off as usize;
                        self.raw_write(comm, start + off, &staged.bytes[s..s + chunk as usize]);
                    }
                }
            } else {
                for (start, len) in runs {
                    for (off, chunk) in chunks(len, cb) {
                        self.raw_write_len(comm, start + off, chunk);
                    }
                }
            }
        }
        comm.barrier();
        self.seek(self.tell() + data.len() as u64);
        data.len() as u64
    }

    /// `read_all` past its agreement: the direct path, or the exchange.
    fn read_all_agreed(
        &mut self,
        comm: &mut Comm,
        buf: &mut [u8],
        segs: &[Segment],
        exchange: bool,
    ) -> u64 {
        if !exchange {
            let n = self.read_segs(comm, segs, buf);
            self.seek(self.tell() + n);
            comm.barrier();
            return n;
        }
        let plan = Plan::agree(comm, self.hints(), segs);
        let tag_h = comm.alloc_tag();
        let tag_p = comm.alloc_tag();
        let copy = comm.copies_payload();

        // ---- phase 1: send requests ----
        let mut totals = Vec::with_capacity(plan.naggr);
        plan.split(segs, |d, header, total| {
            comm.send_vec(plan.aggregator(d), tag_h, header);
            totals.push(total);
        });

        // ---- phase 2: aggregators read and distribute ----
        if plan.is_aggregator(comm.rank()) {
            // every source's pieces, in arrival order, and per source
            // its rank, where its pieces end and the bytes they cover
            let mut pieces = Vec::new();
            let sources: Vec<Source> = (0..comm.size())
                .map(|_| {
                    let (src, total) = recv_header(comm, tag_h, &mut pieces);
                    (src, pieces.len(), total)
                })
                .collect();
            let cb = self.hints().cb_buffer_size.max(1);
            let runs = runs_of_sources(&pieces, &sources);
            if copy {
                // read each run once
                let mut staged = RunBytes::new(&runs);
                for (&(start, len), &at) in runs.iter().zip(&staged.offs) {
                    for (off, chunk) in chunks(len, cb) {
                        let s = at + off as usize;
                        self.raw_read(comm, start + off, &mut staged.bytes[s..s + chunk as usize]);
                    }
                }
                // distribute
                let mut from = 0;
                for &(src, end, total) in &sources {
                    if total == 0 {
                        continue;
                    }
                    let mut scratch = Vec::with_capacity(total as usize);
                    for &p in &pieces[from..end] {
                        scratch.extend_from_slice(&staged.bytes[staged.range(p)]);
                    }
                    comm.payload_send(src, tag_p, &scratch);
                    from = end;
                }
            } else {
                for (start, len) in runs {
                    for (off, chunk) in chunks(len, cb) {
                        self.raw_read_len(comm, start + off, chunk);
                    }
                }
                for &(src, _, total) in &sources {
                    if total > 0 {
                        comm.payload_send_len(src, tag_p, total);
                    }
                }
            }
        }

        // ---- phase 3: receive my pieces, one slice of `buf` a domain ----
        let mut off = 0;
        for (d, &total) in totals.iter().enumerate() {
            if total == 0 {
                continue;
            }
            let req = comm.irecv(Some(plan.aggregator(d)), Some(tag_p));
            let (payload, _) = comm.wait_recv(req);
            let total = total as usize;
            if copy && payload.len() >= total {
                buf[off..off + total].copy_from_slice(&payload[..total]);
            }
            off += total;
        }
        comm.barrier();
        self.seek(self.tell() + buf.len() as u64);
        buf.len() as u64
    }
}

/// The buffer of one collective access.
enum Access<'a> {
    Write(&'a [u8]),
    Read(&'a mut [u8]),
}

impl Access<'_> {
    fn len(&self) -> u64 {
        match self {
            Access::Write(data) => data.len() as u64,
            Access::Read(buf) => buf.len() as u64,
        }
    }

    fn is_write(&self) -> bool {
        matches!(self, Access::Write(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_check::{check_n, ensure, ensure_eq, Gen};

    /// The reference coalescing: every piece sorted, then merged in
    /// place into maximal contiguous runs.
    fn runs_of(mut pieces: Vec<Segment>) -> Vec<Segment> {
        pieces.sort_unstable();
        pieces.dedup_by(|next, run| {
            let continues = run.0 + run.1 >= next.0;
            if continues {
                run.1 = (next.0 + next.1).max(run.0 + run.1) - run.0;
            }
            continues
        });
        pieces
    }

    /// [`merge_runs`] of `lists` and the comparisons it made.
    fn merged(lists: &[Vec<Segment>]) -> (Vec<Segment>, u64) {
        let lists: Vec<&[Segment]> = lists.iter().map(Vec::as_slice).collect();
        let mut compares = 0;
        let runs = merge_runs(&lists, |a, b| {
            compares += 1;
            a <= b
        });
        (runs, compares)
    }

    /// Pieces in ascending order with gaps, touching and overlapping
    /// neighbours and zero lengths.
    fn sorted_pieces(g: &mut Gen, count: usize) -> Vec<Segment> {
        let mut phys = g.u64(0..=50);
        (0..count)
            .map(|_| {
                phys += *g.choose(&[0, 1, 5, 40]);
                (phys, *g.choose(&[0, 1, 3, 8, 40]))
            })
            .collect()
    }

    /// The split as it was: a piece list with buffer offsets, one `Vec`
    /// of pieces per domain, each encoded on its own.
    mod before {
        use super::*;

        #[derive(Clone, Copy)]
        pub struct Piece {
            pub phys: u64,
            pub len: u64,
            pub data_off: u64,
        }

        pub fn to_pieces(segs: &[Segment]) -> Vec<Piece> {
            let mut data_off = 0;
            segs.iter()
                .map(|&(phys, len)| {
                    data_off += len;
                    Piece { phys, len, data_off: data_off - len }
                })
                .collect()
        }

        pub fn assign(plan: &Plan, pieces: &[Piece]) -> Vec<Vec<Piece>> {
            let mut out = vec![Vec::new(); plan.naggr];
            for p in pieces {
                let (mut phys, mut len, mut data_off) = (p.phys, p.len, p.data_off);
                while len > 0 {
                    let d = (((phys - plan.lo) / plan.width) as usize).min(plan.naggr - 1);
                    let dom_end = plan.lo + (d as u64 + 1) * plan.width;
                    let take = len.min(dom_end.saturating_sub(phys).max(1));
                    out[d].push(Piece { phys, len: take, data_off });
                    phys += take;
                    data_off += take;
                    len -= take;
                }
            }
            out
        }

        pub fn encode_pieces(pieces: &[Piece]) -> Vec<u8> {
            let mut buf = Vec::with_capacity(8 + pieces.len() * 16);
            wire::put_u64(&mut buf, pieces.len() as u64);
            for p in pieces {
                wire::put_u64(&mut buf, p.phys);
                wire::put_u64(&mut buf, p.len);
            }
            buf
        }

        pub fn coalesce(mut pieces: Vec<Piece>) -> Vec<Segment> {
            pieces.sort_by_key(|p| p.phys);
            let mut runs: Vec<Segment> = Vec::new();
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
    }

    #[test]
    fn one_pass_split_sends_the_headers_and_runs_of_the_piece_lists() {
        check_n("one pass split sends the headers and runs of the piece lists", 400, |g| {
            let n = g.usize(1..=9);
            let block = g.u64(1..=300);
            // stride == block merges a rank's blocks into one segment
            let stride = if g.weighted(0.2) { block } else { block * g.u64(1..=n as u64 + 2) };
            let hints = Hints {
                cb_nodes: g.usize(0..=n + 1),
                cb_buffer_size: *g.choose(&[1, 7, block, 4096, 1 << 20]),
                ..Hints::default()
            };
            let segs: Vec<Vec<Segment>> = (0..n as u64)
                .map(|p| {
                    let disp = p * block + g.u64(0..=1);
                    // empty ranges, partial first and last blocks
                    let start = g.u64(0..=3 * block);
                    let len = if g.weighted(0.1) { 0 } else { g.u64(1..=25 * block) };
                    FileView::Strided { disp, block, stride }.map_range(start, len).to_vec()
                })
                .collect();
            let lo = segs.iter().filter_map(|s| s.first()).map(|s| s.0).min().unwrap_or(u64::MAX);
            let hi = segs.iter().filter_map(|s| s.last()).map(|s| s.0 + s.1).max().unwrap_or(0);
            let plan = Plan::new(lo, hi, n, &hints);

            // per domain, each sender's decoded list and all old pieces
            let mut received = vec![(Vec::new(), Vec::new()); plan.naggr];
            for mine in &segs {
                let old = before::assign(&plan, &before::to_pieces(mine));
                let mut new = Vec::new();
                plan.split(mine, |_, header, total| new.push((header, total)));
                ensure_eq!(new.len(), plan.naggr);
                for (d, ((header, total), old)) in new.iter().zip(&old).enumerate() {
                    ensure_eq!(*header, before::encode_pieces(old), "domain {d}");
                    ensure_eq!(*total, old.iter().map(|p| p.len).sum::<u64>(), "domain {d}");
                    let (lists, all_old) = &mut received[d];
                    let mut list = Vec::new();
                    decode_into(header, &mut list);
                    lists.push(list);
                    all_old.extend_from_slice(old);
                }
            }
            for (lists, all_old) in received {
                ensure_eq!(merged(&lists).0, before::coalesce(all_old));
            }
        });
    }

    #[test]
    fn runs_merge_adjacent_and_overlapping_pieces() {
        let lists = [vec![(0, 10), (22, 1), (25, 5)], vec![(10, 10), (22, 4), (40, 1)]];
        assert_eq!(merged(&lists).0, vec![(0, 20), (22, 8), (40, 1)]);
        // a list out of view order is sorted first
        let lists = [vec![(25, 5), (0, 10)], vec![], vec![(22, 4), (10, 10), (40, 1), (22, 1)]];
        assert_eq!(merged(&lists).0, vec![(0, 20), (22, 8), (40, 1)]);
    }

    /// The merge equals the reference on random per-sender lists, and
    /// makes at most 3 comparisons a piece on the two regular shapes
    /// of an exchange — round-robin strided (type 0's) and one block
    /// a sender — and at most 3 + 2⌈log₂ k⌉ when k senders are dealt
    /// pieces at random.
    #[test]
    fn merging_sender_lists_equals_sorting_and_coalescing_them() {
        check_n("merging sender lists equals sorting and coalescing them", 400, |g| {
            let k = g.usize(1..=64);
            let shape = g.usize(0..=3);
            let lists: Vec<Vec<Segment>> = match shape {
                // overlapping, touching, zero-length, empty and single
                // senders; now and then one out of view order
                0 => (0..k.min(9))
                    .map(|_| {
                        let many = g.usize(2..=12);
                        let count = *g.choose(&[0, 1, many]);
                        let mut list = sorted_pieces(g, count);
                        if g.weighted(0.1) {
                            list.reverse();
                        }
                        list
                    })
                    .collect(),
                // round-robin strided: rounds of one block per sender
                1 => {
                    let (block, rounds, base) = (g.u64(1..=100), g.u64(1..=20), g.u64(0..=99));
                    let k = k as u64;
                    (0..k)
                        .map(|i| (0..rounds).map(|j| (base + (j * k + i) * block, block)).collect())
                        .collect()
                }
                // one contiguous block a sender, cut into pieces
                2 => {
                    let mut phys = g.u64(0..=99);
                    (0..k)
                        .map(|_| {
                            (0..g.usize(1..=10))
                                .map(|_| {
                                    let len = g.u64(1..=50);
                                    phys += len;
                                    (phys - len, len)
                                })
                                .collect()
                        })
                        .collect()
                }
                // pieces dealt to random senders
                _ => {
                    let mut lists = vec![Vec::new(); k];
                    let count = g.usize(1..=400);
                    for p in sorted_pieces(g, count) {
                        lists[g.usize(0..=k - 1)].push(p);
                    }
                    lists
                }
            };
            let pieces: Vec<Segment> = lists.concat();
            let (runs, compares) = merged(&lists);
            ensure_eq!(runs, runs_of(pieces.clone()), "shape {shape}, {k} senders");
            let per_piece = match shape {
                0 => return,
                1 | 2 => 3,
                _ => 3 + 2 * u64::from(k.next_power_of_two().trailing_zeros()),
            };
            let n = pieces.len() as u64;
            ensure!(compares <= per_piece * n, "shape {shape}: {compares} compares, {n} pieces");
        });
    }

    #[test]
    fn a_piece_is_found_in_its_run() {
        let runs = [(0, 20), (22, 8), (40, 1)];
        let buf = RunBytes::new(&runs);
        assert_eq!(buf.offs, [0, 20, 28]);
        assert_eq!(buf.bytes.len(), 29);
        assert_eq!(buf.range((5, 3)), 5..8);
        assert_eq!(buf.range((22, 8)), 20..28);
        assert_eq!(buf.range((40, 1)), 28..29);
    }
}
