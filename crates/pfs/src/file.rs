//! File objects of the simulated filesystem: metadata, optional sparse
//! content store, and per-block cache residency stamps — plain state
//! (`FileState`) kept in the filesystem's ledger, and the handle
//! ([`FsFile`]) that names it there.
//!
//! ## Residency pages
//!
//! A file's residency is an LRU stamp per [`CACHE_BLOCK`], kept in
//! pages of [`PAGE_BLOCKS`] stamps (4 kB of stamps for 32 MB of file)
//! behind an index of 8 bytes a page. A page is allocated on the first
//! stamp in its range; a missing page reads as "never cached"; a
//! lookup is one page index, then one slot. A page remembers its
//! newest stamp, and [`FileState::drop_aged_pages`] drops every page
//! whose newest stamp the cache no longer holds.
//!
//! Dropping is exact. The cache's LRU clock never runs backwards, so a
//! stamp that is not resident stays so until its block is stamped
//! again ([`crate::cache`]); and an older stamp has aged at least as
//! far as a newer one. A page whose newest stamp is not resident
//! therefore holds no resident block, and reading it as "never cached"
//! changes no answer. What residency costs is thus bounded twice: by
//! the cache (pages stamped within the last `cache_bytes` of cache
//! traffic, plus whatever arrived since the last sweep) and by the file
//! span (8 bytes per block, as a dense table would cost).

use crate::cache::CACHE_BLOCK;
#[expect(clippy::disallowed_types, reason = "the block map below is keyed-lookup-only, never iterated")]
use std::collections::HashMap;

/// Residency stamp of a block that was never cached.
const NEVER: u64 = u64::MAX;

/// Blocks one residency page covers.
const PAGE_BLOCKS: usize = 512;

/// What a file is: one slot of its filesystem's ledger.
#[derive(Debug, Default)]
pub(crate) struct FileState {
    size: u64,
    /// Sparse content, CACHE_BLOCK-sized blocks (store-data mode only).
    /// A hash map is kept here (hot per-block path) because access is
    /// strictly by key: nothing ever iterates it, so hasher order
    /// cannot leak into results.
    #[expect(clippy::disallowed_types, reason = "keyed by block index, cleared wholesale, never iterated")]
    blocks: HashMap<u64, Box<[u8]>>,
    /// Cache residency by page index (module doc), 8 bytes a page
    /// from page 0 to the last page ever stamped; `None` where no block
    /// of the page is resident.
    pages: Vec<Option<Box<Page>>>,
    /// Indices of the pages that are `Some`, in no order: all a sweep
    /// visits.
    live: Vec<usize>,
}

/// One page of residency stamps.
#[derive(Debug)]
struct Page {
    /// The newest stamp written into the page: the last one, since
    /// stamps follow the cache's clock.
    newest: u64,
    /// LRU stamp per block, [`NEVER`] where nothing was.
    stamps: [u64; PAGE_BLOCKS],
}

/// A handle on one simulated file: its slot in the ledger of the
/// filesystem that opened it ([`crate::Pfs::open`]), which is the only
/// filesystem it means anything to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsFile {
    pub(crate) slot: usize,
}

/// The blocks overlapping `[offset, offset+len)`, `len > 0`.
fn block_span(offset: u64, len: u64) -> std::ops::Range<usize> {
    (offset / CACHE_BLOCK) as usize..((offset + len - 1) / CACHE_BLOCK) as usize + 1
}

impl FileState {
    pub(crate) fn size(&self) -> u64 {
        self.size
    }

    /// Grow the file to at least `end` bytes.
    pub(crate) fn extend_to(&mut self, end: u64) {
        self.size = self.size.max(end);
    }

    /// Drop size, content and residency (rewrite-from-scratch opens).
    pub(crate) fn truncate(&mut self) {
        *self = Self::default();
    }

    /// Store `data` at `offset` (store-data mode).
    pub(crate) fn store(&mut self, offset: u64, data: &[u8]) {
        self.extend_to(offset + data.len() as u64);
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let block = abs / CACHE_BLOCK;
            let in_block = (abs % CACHE_BLOCK) as usize;
            let n = ((CACHE_BLOCK as usize) - in_block).min(data.len() - pos);
            let buf = self
                .blocks
                .entry(block)
                .or_insert_with(|| vec![0u8; CACHE_BLOCK as usize].into_boxed_slice());
            buf[in_block..in_block + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }

    /// Load stored bytes at `offset` into `out`; unwritten regions read
    /// as zero.
    pub(crate) fn load(&self, offset: u64, out: &mut [u8]) {
        let mut pos = 0usize;
        while pos < out.len() {
            let abs = offset + pos as u64;
            let block = abs / CACHE_BLOCK;
            let in_block = (abs % CACHE_BLOCK) as usize;
            let n = ((CACHE_BLOCK as usize) - in_block).min(out.len() - pos);
            match self.blocks.get(&block) {
                Some(buf) => out[pos..pos + n].copy_from_slice(&buf[in_block..in_block + n]),
                None => out[pos..pos + n].fill(0),
            }
            pos += n;
        }
    }

    /// Stamp the blocks overlapping `[offset, offset+len)` as cached.
    /// `stamp` is a reading of the cache's LRU clock, so it is never
    /// older than a stamp already in the file.
    pub(crate) fn mark_cached(&mut self, offset: u64, len: u64, stamp: u64) {
        if len == 0 {
            return;
        }
        let span = block_span(offset, len);
        let mut b = span.start;
        while b < span.end {
            let p = b / PAGE_BLOCKS;
            let stop = span.end.min((p + 1) * PAGE_BLOCKS);
            let page = match self.pages.get_mut(p) {
                Some(Some(page)) => page,
                _ => self.new_page(p),
            };
            page.stamps[b % PAGE_BLOCKS..stop - p * PAGE_BLOCKS].fill(stamp);
            debug_assert!(stamp >= page.newest, "stamps follow the cache clock");
            page.newest = stamp;
            b = stop;
        }
    }

    /// Allocate page `p`, which holds no stamps, and list it live. Off
    /// the stamping path: building a page's 4 kB inline would cost every
    /// call the stack frame.
    #[cold]
    #[inline(never)]
    fn new_page(&mut self, p: usize) -> &mut Page {
        if self.pages.len() <= p {
            self.pages.resize_with(p + 1, || None);
        }
        self.live.push(p);
        self.pages[p].insert(Box::new(Page { newest: 0, stamps: [NEVER; PAGE_BLOCKS] }))
    }

    /// Drop every page whose newest stamp `resident` rejects (module
    /// doc: such a page holds no resident block). Visits only the pages
    /// that hold stamps.
    pub(crate) fn drop_aged_pages(&mut self, resident: impl Fn(u64) -> bool) {
        let pages = &mut self.pages;
        self.live.retain(|&p| {
            let keep = pages[p].as_ref().is_some_and(|page| resident(page.newest));
            if !keep {
                pages[p] = None;
            }
            keep
        });
    }

    /// Fill `runs` (a buffer the caller reuses) with the maximal
    /// contiguous sub-ranges of `[offset, offset+len)` that are *not*
    /// cache-resident (these must come from the servers): a block
    /// counts as resident when it was stamped and `resident` accepts
    /// the stamp.
    pub(crate) fn miss_runs(
        &self,
        offset: u64,
        len: u64,
        resident: impl Fn(u64) -> bool,
        runs: &mut Vec<(u64, u64)>,
    ) {
        runs.clear();
        if len == 0 {
            return;
        }
        let end = offset + len;
        for b in block_span(offset, len) {
            let page = self.pages.get(b / PAGE_BLOCKS).and_then(Option::as_deref);
            let stamp = page.map_or(NEVER, |page| page.stamps[b % PAGE_BLOCKS]);
            if stamp != NEVER && resident(stamp) {
                continue;
            }
            let s = (b as u64 * CACHE_BLOCK).max(offset);
            let e = ((b as u64 + 1) * CACHE_BLOCK).min(end);
            match runs.last_mut() {
                Some(r) if r.0 + r.1 == s => r.1 += e - s,
                _ => runs.push((s, e - s)),
            }
        }
    }

    /// Bytes of residency stamps this file holds (tests).
    #[cfg(test)]
    fn stamp_bytes(&self) -> usize {
        self.live.len() * PAGE_BLOCKS * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss_runs(
        f: &FileState,
        offset: u64,
        len: u64,
        resident: impl Fn(u64) -> bool,
    ) -> Vec<(u64, u64)> {
        let mut runs = vec![(7, 7)]; // stale content of a reused buffer
        f.miss_runs(offset, len, resident, &mut runs);
        runs
    }

    /// Bytes of `[offset, offset+len)` in resident blocks.
    fn hit_bytes(f: &FileState, offset: u64, len: u64, resident: impl Fn(u64) -> bool) -> u64 {
        len - miss_runs(f, offset, len, resident).iter().map(|r| r.1).sum::<u64>()
    }

    #[test]
    fn store_load_roundtrip_across_blocks() {
        let mut f = FileState::default();
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        f.store(CACHE_BLOCK - 100, &data);
        let mut out = vec![0u8; data.len()];
        f.load(CACHE_BLOCK - 100, &mut out);
        assert_eq!(out, data);
        assert_eq!(f.size(), CACHE_BLOCK - 100 + 200_000);
    }

    #[test]
    fn unwritten_reads_zero() {
        let mut f = FileState::default();
        f.store(0, b"abc");
        let mut out = [9u8; 6];
        f.load(1_000_000, &mut out);
        assert_eq!(out, [0u8; 6]);
    }

    #[test]
    fn hits_count_overlap_with_stamped_blocks() {
        let mut f = FileState::default();
        f.mark_cached(0, CACHE_BLOCK, 5);
        // second block not cached
        assert_eq!(hit_bytes(&f, CACHE_BLOCK / 2, CACHE_BLOCK, |s| s == 5), CACHE_BLOCK / 2);
    }

    #[test]
    fn eviction_via_resident_predicate() {
        let mut f = FileState::default();
        f.mark_cached(0, 10, 1);
        assert_eq!(hit_bytes(&f, 0, 10, |_| false), 0);
        assert_eq!(hit_bytes(&f, 0, 10, |_| true), 10);
    }

    #[test]
    fn truncate_clears_everything() {
        let mut f = FileState::default();
        f.store(0, b"data");
        f.mark_cached(0, 4, 1);
        f.truncate();
        assert_eq!(f.size(), 0);
        assert_eq!(hit_bytes(&f, 0, 4, |_| true), 0);
        let mut out = [9u8; 4];
        f.load(0, &mut out);
        assert_eq!(out, [0u8; 4]);
    }

    #[test]
    fn aged_pages_are_dropped_and_read_as_never_cached() {
        let page = PAGE_BLOCKS as u64 * CACHE_BLOCK;
        let mut f = FileState::default();
        f.mark_cached(0, 2 * CACHE_BLOCK, 1); // page 0, old
        f.mark_cached(3 * page, CACHE_BLOCK, 1); // page 3, old ...
        f.mark_cached(3 * page + CACHE_BLOCK, CACHE_BLOCK, 5); // ... and new
        assert_eq!(f.stamp_bytes(), 2 * PAGE_BLOCKS * 8);
        f.drop_aged_pages(|s| s >= 5);
        // page 3 stays whole: its old block still reads by its stamp
        assert_eq!(f.stamp_bytes(), PAGE_BLOCKS * 8);
        assert_eq!(hit_bytes(&f, 3 * page, 2 * CACHE_BLOCK, |_| true), 2 * CACHE_BLOCK);
        assert_eq!(hit_bytes(&f, 0, 2 * CACHE_BLOCK, |_| true), 0);
        // a dropped page comes back on its next stamp, empty but for it
        f.mark_cached(CACHE_BLOCK, 1, 9);
        assert_eq!(miss_runs(&f, 0, 2 * CACHE_BLOCK, |_| true), vec![(0, CACHE_BLOCK)]);
        f.truncate();
        assert_eq!(f.stamp_bytes(), 0);
    }

    #[test]
    fn a_range_across_pages_stamps_and_misses_every_block() {
        let page = PAGE_BLOCKS as u64 * CACHE_BLOCK;
        let mut f = FileState::default();
        f.mark_cached(page - 10, page + 20, 1); // pages 0, 1 and 2
        assert_eq!(f.stamp_bytes(), 3 * PAGE_BLOCKS * 8);
        assert_eq!(
            miss_runs(&f, page - CACHE_BLOCK - 1, 2 * page, |_| true),
            vec![(page - CACHE_BLOCK - 1, 1), (2 * page + CACHE_BLOCK, page - 2 * CACHE_BLOCK - 1)]
        );
    }

    #[test]
    fn extend_to_grows_monotonically() {
        let mut f = FileState::default();
        f.extend_to(100);
        f.extend_to(50);
        assert_eq!(f.size(), 100);
    }

    #[test]
    fn all_miss_is_one_run() {
        let f = FileState::default();
        assert_eq!(miss_runs(&f, 10, 100, |_| true), vec![(10, 100)]);
    }

    #[test]
    fn cached_middle_splits_runs() {
        let mut f = FileState::default();
        f.mark_cached(CACHE_BLOCK, CACHE_BLOCK, 1); // block 1 cached
        let runs = miss_runs(&f, 0, 3 * CACHE_BLOCK, |s| s == 1);
        assert_eq!(runs, vec![(0, CACHE_BLOCK), (2 * CACHE_BLOCK, CACHE_BLOCK)]);
    }

    #[test]
    fn fully_cached_has_no_runs() {
        let mut f = FileState::default();
        f.mark_cached(0, 4 * CACHE_BLOCK, 1);
        assert!(miss_runs(&f, 100, CACHE_BLOCK, |_| true).is_empty());
    }

    #[test]
    fn never_cached_gaps_between_stamped_blocks_miss() {
        // stamping block 3 puts blocks 0..=3 in one page; the blocks
        // nobody cached must not read as resident
        let mut f = FileState::default();
        f.mark_cached(0, CACHE_BLOCK, 1);
        f.mark_cached(3 * CACHE_BLOCK, CACHE_BLOCK, 1);
        let runs = miss_runs(&f, 0, 5 * CACHE_BLOCK, |_| true);
        assert_eq!(runs, vec![(CACHE_BLOCK, 2 * CACHE_BLOCK), (4 * CACHE_BLOCK, CACHE_BLOCK)]);
    }
}
