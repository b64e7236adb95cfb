//! A file's cache residency costs what the cache can hold, not what the
//! run wrote: a cached filesystem that writes a file many times its
//! cache and reads it back keeps a live heap bounded by `cache_bytes`.
//! Held here by the peak of live heap over the whole run. One test per
//! binary: the allocator's counts are process-wide.

use beff_check::CountingAlloc;
use beff_netsim::MB;
use beff_pfs::{DataRef, Pfs, PfsConfig, CACHE_BLOCK};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const CACHE: u64 = 64 * MB;
const FILE: u64 = 16 * 1024 * MB;
const CALL: u64 = MB;

/// A stamp table dense over the file would hold 8 B per block, 2 MB
/// for these 16 GB; over one cache it holds 8 kB. Pages that age out
/// keep the residency within about one and a half caches' worth of
/// blocks (a sweep comes every half cache), rounded out to whole pages,
/// plus 8 B a page of index: under four caches' worth at 8 B a block.
#[test]
fn residency_heap_is_bounded_by_the_cache_not_the_file() {
    let pfs = Pfs::new(PfsConfig { clients: 1, cache_bytes: CACHE, ..PfsConfig::default() });
    let (f, mut t) = pfs.open("big", 0.0);
    let base = CountingAlloc::live();
    CountingAlloc::reset_peak();
    for offset in (0..FILE).step_by(CALL as usize) {
        t = pfs.write(0, &f, offset, DataRef::Len(CALL), t);
    }
    t = pfs.sync(t);
    for offset in (0..FILE).step_by(CALL as usize) {
        let (got, done) = pfs.read(0, &f, offset, CALL, None, t);
        assert_eq!(got, CALL);
        t = done;
    }
    let peak = CountingAlloc::peak() - base;
    let one_cache = CACHE / CACHE_BLOCK * 8;
    assert_eq!(pfs.size(&f), FILE);
    assert!(
        peak <= 4 * one_cache,
        "{} GB written and read through a {} MB cache held {peak} B of heap at peak \
         (8 B a block of one cache: {one_cache} B; of the file: {} B)",
        FILE / (1024 * MB),
        CACHE / MB,
        FILE / CACHE_BLOCK * 8
    );
}
