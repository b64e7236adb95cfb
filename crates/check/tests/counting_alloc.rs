//! `CountingAlloc` counts live bytes and their high-water mark. One test
//! per binary: the counts are process-wide.

use beff_check::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The test harness's own thread allocates now and then while this runs;
/// hold each reading to the block it is about to within this much.
const SLACK: i64 = 64 << 10;
const MB: i64 = 1 << 20;

/// Assert `reading` is `want` bytes, give or take the harness's own.
fn about(what: &str, reading: i64, want: i64) {
    assert!((reading - want).abs() < SLACK, "{what}: {reading} B, want {want} B");
}

#[test]
fn live_bytes_and_their_peak_follow_alloc_realloc_and_free() {
    let base = CountingAlloc::live() as i64;
    let held = || CountingAlloc::live() as i64 - base;
    CountingAlloc::reset_peak();
    about("peak after a reset", CountingAlloc::peak() as i64 - base, 0);

    let mut v: Vec<u8> = Vec::with_capacity(MB as usize);
    about("a 1 MiB vector", held(), MB);

    // growing by realloc adds the difference, not the whole new block
    // (the vector is empty: a reserve is the capacity it asks for)
    let requested = CountingAlloc::requested() as i64;
    v.reserve_exact(4 * MB as usize);
    about("requested growing to 4 MiB", CountingAlloc::requested() as i64 - requested, 3 * MB);
    about("a 4 MiB vector", held(), 4 * MB);

    // shrinking frees the difference; the peak stays where it was
    v.shrink_to(MB as usize);
    about("shrunk to 1 MiB", held(), MB);
    drop(v);
    about("after the drop", held(), 0);
    about("peak over a 4 MiB high point", CountingAlloc::peak() as i64 - base, 4 * MB);

    // a reset starts the mark again at what is live
    CountingAlloc::reset_peak();
    about("peak right after a reset", CountingAlloc::peak() as i64 - base, 0);
}
