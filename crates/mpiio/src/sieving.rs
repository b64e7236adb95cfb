//! Data sieving (ROMIO's optimization for *noncollective* noncontiguous
//! reads): instead of one filesystem request per tiny hole-separated
//! segment, read a whole contiguous window and scatter from it. On by
//! default, as in ROMIO. Writes are not sieved.

use crate::file::MpiFile;
use crate::view::Segment;
use beff_mpi::Comm;

/// Plan the sieving windows for a segment list: consecutive segments
/// are grouped while the window (first offset → last end) fits
/// `buffer`. Returns ranges of segment indices with their windows.
pub(crate) fn plan_windows(segs: &[Segment], buffer: u64) -> Vec<(std::ops::Range<usize>, u64, u64)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < segs.len() {
        let start = segs[i].0;
        let mut j = i + 1;
        let mut end = segs[i].0 + segs[i].1;
        while j < segs.len() {
            let cand = segs[j].0 + segs[j].1;
            if cand - start > buffer {
                break;
            }
            end = cand;
            j += 1;
        }
        out.push((i..j, start, end - start));
        i = j;
    }
    out
}

impl MpiFile {
    /// Sieved noncollective read: read whole windows, scatter the
    /// segments out of them into `buf` in segment order. Returns bytes
    /// read (caller guarantees the view range is within EOF or
    /// tolerates zero-fill).
    pub(crate) fn sieved_read(
        &mut self,
        comm: &mut Comm,
        segs: &[Segment],
        buf: &mut [u8],
        buffer: u64,
    ) -> u64 {
        let copy = comm.copies_payload();
        // windows cover the segments in order, so the bytes done so far
        // are the next segment's position in `buf`
        let mut done = 0u64;
        for (range, start, len) in plan_windows(segs, buffer) {
            if copy {
                let mut window = vec![0u8; len as usize];
                self.raw_read(comm, start, &mut window);
                for i in range {
                    let (phys, slen) = segs[i];
                    let w = (phys - start) as usize;
                    let d = done as usize;
                    buf[d..d + slen as usize].copy_from_slice(&window[w..w + slen as usize]);
                    done += slen;
                }
            } else {
                self.raw_read_len(comm, start, len);
                done += range.map(|i| segs[i].1).sum::<u64>();
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_group_until_buffer_full() {
        // segments at 0, 100, 1000, each 50 bytes; buffer 200
        let segs = vec![(0u64, 50u64), (100, 50), (1000, 50)];
        let w = plan_windows(&segs, 200);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0], (0..2, 0, 150));
        assert_eq!(w[1], (2..3, 1000, 50));
    }

    #[test]
    fn single_segment_is_single_window() {
        let segs = vec![(42u64, 10u64)];
        let w = plan_windows(&segs, 1);
        assert_eq!(w, vec![(0..1, 42, 10)]);
    }

    #[test]
    fn giant_buffer_makes_one_window() {
        let segs: Vec<(u64, u64)> = (0..10).map(|i| (i * 1000, 10)).collect();
        let w = plan_windows(&segs, u64::MAX);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].1, 0);
        assert_eq!(w[0].2, 9 * 1000 + 10);
    }

    #[test]
    fn windows_cover_all_segments_once() {
        let segs: Vec<(u64, u64)> = (0..25).map(|i| (i * 777, 33)).collect();
        let w = plan_windows(&segs, 2000);
        let mut seen = vec![false; segs.len()];
        for (range, start, len) in w {
            for i in range {
                assert!(!seen[i]);
                seen[i] = true;
                assert!(segs[i].0 >= start);
                assert!(segs[i].0 + segs[i].1 <= start + len);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
