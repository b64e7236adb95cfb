//! File views: the mapping from a rank's *view-linear* byte stream to
//! physical file offsets (`MPI_File_set_view` with contiguous or
//! strided filetypes).
//!
//! The b_eff_io pattern types use exactly two shapes:
//!
//! * [`FileView::Contiguous`] — identity plus displacement (types 1-4;
//!   the segmented types use a per-rank displacement),
//! * [`FileView::Strided`] — blocks of `block` bytes every `stride`
//!   bytes (type 0: rank p sees chunks of size l at stride n·l,
//!   displaced p·l).

use std::ops::Deref;

/// A segment of a physical file: (physical offset, length).
pub type Segment = (u64, u64);

/// The physical segments of one view-linear range, in file order
/// ([`FileView::map_range`]): one segment — any range of a contiguous
/// view — is held inline, so mapping it allocates nothing; several
/// spill to the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segments {
    /// No segment, or one.
    Inline(Option<Segment>),
    /// Two or more.
    Spilled(Vec<Segment>),
}

impl Deref for Segments {
    type Target = [Segment];
    fn deref(&self) -> &[Segment] {
        match self {
            Self::Inline(one) => one.as_slice(),
            Self::Spilled(v) => v,
        }
    }
}

/// How a rank's linear stream maps onto the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileView {
    /// view offset v ↦ disp + v
    Contiguous { disp: u64 },
    /// view offset v ↦ disp + (v / block)·stride + (v mod block)
    Strided { disp: u64, block: u64, stride: u64 },
}

impl Default for FileView {
    fn default() -> Self {
        FileView::Contiguous { disp: 0 }
    }
}

impl FileView {
    /// The physical offset of view-linear position `v`.
    pub fn map_offset(&self, v: u64) -> u64 {
        match *self {
            FileView::Contiguous { disp } => disp + v,
            FileView::Strided { disp, block, stride } => {
                assert!(block > 0 && stride >= block, "degenerate strided view");
                disp + (v / block) * stride + (v % block)
            }
        }
    }

    /// Map the view-linear range `[v, v+len)` to physical segments, in
    /// file order, merging adjacent pieces: a contiguous view, or a
    /// stride equal to the block, maps it to one segment; otherwise no
    /// two blocks merge, so the list is sized once from the number of
    /// blocks the range touches.
    pub fn map_range(&self, v: u64, len: u64) -> Segments {
        if len == 0 {
            return Segments::Inline(None);
        }
        match *self {
            FileView::Contiguous { disp } => Segments::Inline(Some((disp + v, len))),
            FileView::Strided { disp, block, stride } => {
                assert!(block > 0 && stride >= block, "degenerate strided view");
                if stride == block {
                    return Segments::Inline(Some((disp + v, len)));
                }
                let (first, last) = (v / block, (v + len - 1) / block);
                let seg = |b: u64| {
                    let lo = (b * block).max(v);
                    let hi = ((b + 1) * block).min(v + len);
                    (disp + b * stride + lo % block, hi - lo)
                };
                if first == last {
                    Segments::Inline(Some(seg(first)))
                } else {
                    Segments::Spilled((first..=last).map(seg).collect())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_maps_identity_plus_disp() {
        let view = FileView::Contiguous { disp: 100 };
        assert_eq!(view.map_offset(5), 105);
        assert_eq!(*view.map_range(10, 20), [(110, 20)]);
        assert_eq!(view.map_range(0, 1 << 40).len(), 1);
    }

    #[test]
    fn strided_type0_shape() {
        // pattern type 0: n = 4 ranks, chunk l = 100, rank p = 1
        let (l, n, p) = (100u64, 4u64, 1u64);
        let view = FileView::Strided { disp: p * l, block: l, stride: n * l };
        // first chunk of rank 1 lives at [100, 200)
        assert_eq!(view.map_offset(0), 100);
        assert_eq!(view.map_offset(99), 199);
        // second chunk starts at 100 + 400
        assert_eq!(view.map_offset(100), 500);
        let segs = view.map_range(0, 250);
        assert_eq!(*segs, [(100, 100), (500, 100), (900, 50)]);
        assert_eq!(view.map_range(0, 101).len(), 2);
        assert_eq!(view.map_range(0, 100).len(), 1);
    }

    #[test]
    fn strided_partial_start() {
        let view = FileView::Strided { disp: 0, block: 10, stride: 40 };
        let segs = view.map_range(5, 10);
        assert_eq!(*segs, [(5, 5), (40, 5)]);
    }

    #[test]
    fn stride_equal_block_merges_to_contiguous() {
        let view = FileView::Strided { disp: 7, block: 10, stride: 10 };
        assert_eq!(*view.map_range(0, 100), [(7, 100)]);
    }

    #[test]
    fn map_range_total_length_is_preserved() {
        let view = FileView::Strided { disp: 3, block: 17, stride: 64 };
        for (v, len) in [(0u64, 1u64), (5, 100), (16, 18), (1000, 12345)] {
            let segs = view.map_range(v, len);
            assert_eq!(segs.iter().map(|s| s.1).sum::<u64>(), len);
            // in file order, non-overlapping
            for w in segs.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0);
            }
        }
    }

    /// The generic loop: block by block, each merged into the last
    /// segment if it continues it.
    fn map_range_generic(disp: u64, block: u64, stride: u64, v: u64, len: u64) -> Vec<Segment> {
        let mut out: Vec<Segment> = Vec::new();
        let (mut pos, end) = (v, v + len);
        while pos < end {
            let in_block = pos % block;
            let piece = (block - in_block).min(end - pos);
            let seg = (disp + (pos / block) * stride + in_block, piece);
            match out.last_mut() {
                Some(last) if last.0 + last.1 == seg.0 => last.1 += seg.1,
                _ => out.push(seg),
            }
            pos += piece;
        }
        out
    }

    #[test]
    fn strided_map_equals_the_generic_loop() {
        beff_check::check("strided map equals the generic loop", |g| {
            let block = g.u64(1..=4_096);
            // a stride equal to the block merges every block
            let stride = if g.weighted(0.2) { block } else { block + g.u64(1..=3 * block) };
            let disp = g.u64(0..=100_000);
            // ranges inside one block, across a few, and from mid-block
            let v = g.u64(0..=8 * block);
            let blocks = g.u64(1..=40);
            let len = g.u64(0..=blocks * block);
            let view = FileView::Strided { disp, block, stride };
            let segs = view.map_range(v, len);
            beff_check::ensure_eq!(*segs, *map_range_generic(disp, block, stride, v, len));
            beff_check::ensure_eq!(matches!(segs, Segments::Spilled(_)), segs.len() > 1);
        });
    }

    #[test]
    fn empty_range() {
        let view = FileView::Strided { disp: 0, block: 8, stride: 32 };
        assert!(view.map_range(5, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn stride_smaller_than_block_rejected() {
        FileView::Strided { disp: 0, block: 10, stride: 5 }.map_offset(0);
    }
}
