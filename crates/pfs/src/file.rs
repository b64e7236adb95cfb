//! File objects of the simulated filesystem: metadata, optional sparse
//! content store, and per-block cache residency stamps — plain state
//! (`FileState`) behind the file's own lock, `pfs.file`, which
//! [`crate::Pfs`] takes once per priced call under its ledger lock.

use crate::cache::CACHE_BLOCK;
use beff_sync::{Mutex, MutexGuard, Rank};
// beff-analyze: allow(hash-order): the block map below is keyed-lookup-only, never iterated
use std::collections::HashMap;

/// Lock-hierarchy position of one file's state (DESIGN.md §8).
static FILE_RANK: Rank = Rank::new(66, "pfs.file");

/// Residency stamp of a block that was never cached.
const NEVER: u64 = u64::MAX;

/// What a file is, behind its lock.
#[derive(Debug, Default)]
pub(crate) struct FileState {
    size: u64,
    /// Sparse content, CACHE_BLOCK-sized blocks (store-data mode only).
    /// A hash map is kept here (hot per-block path) because access is
    /// strictly by key: nothing ever iterates it, so hasher order
    /// cannot leak into results.
    // beff-analyze: allow(hash-order): keyed by block index, cleared wholesale, never iterated
    blocks: HashMap<u64, Box<[u8]>>,
    /// Cache residency: LRU stamp by block index, dense from block 0 to
    /// the last block ever cached (8 bytes per 64 kB of file), [`NEVER`]
    /// where nothing was.
    stamps: Vec<u64>,
}

/// One simulated file.
#[derive(Debug)]
pub struct FsFile {
    pub(crate) name: String,
    inner: Mutex<FileState>,
}

impl FsFile {
    pub fn new(name: String) -> Self {
        Self { name, inner: Mutex::ranked(&FILE_RANK, FileState::default()) }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn size(&self) -> u64 {
        self.lock().size
    }

    /// Truncate to zero and drop content (rewrite-from-scratch tests).
    pub fn truncate(&self) {
        self.lock().truncate();
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, FileState> {
        self.inner.lock()
    }
}

/// The blocks overlapping `[offset, offset+len)`, `len > 0`.
fn block_span(offset: u64, len: u64) -> std::ops::RangeInclusive<usize> {
    (offset / CACHE_BLOCK) as usize..=((offset + len - 1) / CACHE_BLOCK) as usize
}

impl FileState {
    pub(crate) fn size(&self) -> u64 {
        self.size
    }

    /// Grow the file to at least `end` bytes.
    pub(crate) fn extend_to(&mut self, end: u64) {
        self.size = self.size.max(end);
    }

    fn truncate(&mut self) {
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
    pub(crate) fn mark_cached(&mut self, offset: u64, len: u64, stamp: u64) {
        if len == 0 {
            return;
        }
        let span = block_span(offset, len);
        if self.stamps.len() <= *span.end() {
            self.stamps.resize(*span.end() + 1, NEVER);
        }
        self.stamps[span].fill(stamp);
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
            if self.stamps.get(b).is_some_and(|&s| s != NEVER && resident(s)) {
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
        let f = FsFile::new("x".into());
        f.lock().store(0, b"data");
        f.lock().mark_cached(0, 4, 1);
        f.truncate();
        assert_eq!(f.size(), 0);
        assert_eq!(hit_bytes(&f.lock(), 0, 4, |_| true), 0);
        let mut out = [9u8; 4];
        f.lock().load(0, &mut out);
        assert_eq!(out, [0u8; 4]);
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
        // stamping block 3 makes the stamp table dense over 0..=3; the
        // blocks nobody cached must not read as resident
        let mut f = FileState::default();
        f.mark_cached(0, CACHE_BLOCK, 1);
        f.mark_cached(3 * CACHE_BLOCK, CACHE_BLOCK, 1);
        let runs = miss_runs(&f, 0, 5 * CACHE_BLOCK, |_| true);
        assert_eq!(runs, vec![(CACHE_BLOCK, 2 * CACHE_BLOCK), (4 * CACHE_BLOCK, CACHE_BLOCK)]);
    }
}
