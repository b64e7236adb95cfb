//! # beff-check
//!
//! A deterministic property-test harness — the in-tree replacement for
//! `proptest`. Each property runs `N` cases; every case gets its own
//! seed derived from the property name and case index, so failures
//! reproduce exactly with no shrinking machinery: the harness prints
//! the failing seed, and re-running with `BEFF_CHECK_SEED=<seed>`
//! replays that single case. Generation is driven by the workspace's
//! own xoshiro256** generator ([`beff_sim::rng::Rng64`]), the same
//! one the benchmark uses for pattern permutations, so "random" test
//! data and "random" benchmark data share one engine.
//!
//! ```
//! beff_check::check("sorted vec is idempotent under sort", |g| {
//!     let mut v = g.vec(0..=32, |g| g.u64(0..=1000));
//!     v.sort_unstable();
//!     let once = v.clone();
//!     v.sort_unstable();
//!     beff_check::ensure_eq!(v, once);
//! });
//! ```
//!
//! Environment knobs:
//! * `BEFF_CHECK_CASES=n` — override the case count for every property.
//! * `BEFF_CHECK_SEED=0x…` — replay a single case with that exact seed.

use beff_sim::rng::Rng64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes requested from the allocator so far (growth only for `realloc`).
static REQUESTED: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE` has been since the last [`CountingAlloc::reset_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator with byte counters in front, for tests that
/// hold a code path to "asks the allocator for (next to) nothing"
/// ([`CountingAlloc::requested`]) or to "holds no more than this at
/// once" ([`CountingAlloc::live`], [`CountingAlloc::peak`]): install it
/// with `#[global_allocator]` and bracket the path. The counts are
/// process-wide, so such a test gets a test binary of its own.
pub struct CountingAlloc;

impl CountingAlloc {
    pub fn requested() -> u64 {
        REQUESTED.load(Ordering::Relaxed)
    }

    /// Heap bytes live right now.
    pub fn live() -> u64 {
        LIVE.load(Ordering::Relaxed)
    }

    /// The high-water mark of [`live`](Self::live) since the last
    /// [`reset_peak`](Self::reset_peak) (or since the process started).
    pub fn peak() -> u64 {
        PEAK.load(Ordering::Relaxed)
    }

    /// Start a new high-water mark at what is live now.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn grow(bytes: u64) {
        REQUESTED.fetch_add(bytes, Ordering::Relaxed);
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(bytes: u64) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size() as u64);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size() as u64);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // only the difference counts: growth is requested and live,
        // shrinkage is freed
        Self::grow(new_size.saturating_sub(layout.size()) as u64);
        Self::shrink(layout.size().saturating_sub(new_size) as u64);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::shrink(layout.size() as u64);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Default cases per property when neither the call site nor
/// `BEFF_CHECK_CASES` says otherwise.
pub const DEFAULT_CASES: u64 = 64;

/// Random-input generator handed to each property case.
///
/// All ranges are inclusive on both ends — `g.usize(0..=7)` can return
/// 7 — which keeps boundary values reachable without off-by-one
/// gymnastics at call sites.
pub struct Gen {
    rng: Rng64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Self { rng: Rng64::new(seed) }
    }

    /// Escape hatch to the raw generator (for `shuffle`, `below`, …).
    pub fn rng(&mut self) -> &mut Rng64 {
        &mut self.rng
    }

    pub fn u64(&mut self, range: RangeInclusive<u64>) -> u64 {
        let (lo, hi) = (*range.start(), *range.end());
        debug_assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.rng.next_u64();
        }
        lo + self.rng.below(span + 1)
    }

    pub fn usize(&mut self, range: RangeInclusive<usize>) -> usize {
        self.u64(*range.start() as u64..=*range.end() as u64) as usize
    }

    pub fn u32(&mut self, range: RangeInclusive<u32>) -> u32 {
        self.u64(u64::from(*range.start())..=u64::from(*range.end())) as u32
    }

    pub fn i64(&mut self, range: RangeInclusive<i64>) -> i64 {
        let (lo, hi) = (*range.start(), *range.end());
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add(self.u64(0..=span) as i64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.f64() * (hi - lo)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.rng.f64()
    }

    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// `true` with probability `p`.
    pub fn weighted(&mut self, p: f64) -> bool {
        self.rng.f64() < p
    }

    /// A reference to a uniformly-chosen element.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.rng.below(items.len() as u64) as usize]
    }

    /// A `Vec` whose length is drawn from `len`, with each element
    /// produced by `f`.
    pub fn vec<T>(
        &mut self,
        len: RangeInclusive<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// A uniformly-random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        self.rng.permutation(n)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        self.rng.shuffle(items);
    }
}

/// Run `property` for [`DEFAULT_CASES`] cases (or `BEFF_CHECK_CASES`).
pub fn check<F: Fn(&mut Gen)>(name: &str, property: F) {
    check_n(name, DEFAULT_CASES, property);
}

/// Run `property` for `cases` cases (still overridable by
/// `BEFF_CHECK_CASES`; `BEFF_CHECK_SEED` replays exactly one case).
pub fn check_n<F: Fn(&mut Gen)>(name: &str, cases: u64, property: F) {
    if let Some(seed) = env_u64("BEFF_CHECK_SEED") {
        eprintln!("beff-check: replaying '{name}' with seed {seed:#018x}");
        property(&mut Gen::new(seed));
        return;
    }
    let cases = env_u64("BEFF_CHECK_CASES").unwrap_or(cases).max(1);
    let base = fnv1a(name.as_bytes());
    for case in 0..cases {
        let seed = splitmix64(base ^ splitmix64(case));
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut Gen::new(seed))));
        if let Err(payload) = outcome {
            eprintln!(
                "beff-check: property '{name}' failed at case {case}/{cases} \
                 (seed {seed:#018x}); replay with BEFF_CHECK_SEED={seed:#x}"
            );
            resume_unwind(payload);
        }
    }
}

fn env_u64(var: &str) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{var} must be a u64 (decimal or 0x-hex), got {raw:?}"),
    }
}

/// FNV-1a: stable name → base-seed hash (no `DefaultHasher`, whose
/// output is allowed to change between rustc releases).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer — the same mixer `Rng64::new` uses for seeding.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `assert!` with a `beff-check:`-prefixed message, so property
/// failures read uniformly in test output.
#[macro_export]
macro_rules! ensure {
    ($cond:expr) => {
        if !$cond {
            panic!("beff-check: ensure failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            panic!("beff-check: ensure failed: {}: {}", stringify!($cond), format!($($arg)+));
        }
    };
}

/// `assert_eq!` counterpart of [`ensure!`].
#[macro_export]
macro_rules! ensure_eq {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (l, r) => {
                if l != r {
                    panic!(
                        "beff-check: ensure_eq failed: {} != {}\n  left: {:?}\n right: {:?}",
                        stringify!($left), stringify!($right), l, r
                    );
                }
            }
        }
    };
    ($left:expr, $right:expr, $($arg:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if l != r {
                    panic!(
                        "beff-check: ensure_eq failed: {} != {} ({})\n  left: {:?}\n right: {:?}",
                        stringify!($left), stringify!($right), format!($($arg)+), l, r
                    );
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_inclusive_and_in_bounds() {
        check("u64 range bounds", |g| {
            let v = g.u64(10..=20);
            ensure!((10..=20).contains(&v));
            let w = g.usize(5..=5);
            ensure_eq!(w, 5);
        });
    }

    #[test]
    fn full_u64_range_does_not_overflow() {
        let mut g = Gen::new(1);
        for _ in 0..100 {
            let _ = g.u64(0..=u64::MAX);
            let _ = g.i64(i64::MIN..=i64::MAX);
        }
    }

    #[test]
    fn i64_range_spans_negative() {
        check("i64 range bounds", |g| {
            let v = g.i64(-50..=-10);
            ensure!((-50..=-10).contains(&v));
        });
    }

    #[test]
    fn f64_stays_in_half_open_interval() {
        check("f64 interval", |g| {
            let v = g.f64(2.0, 3.0);
            ensure!((2.0..3.0).contains(&v), "got {v}");
        });
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Gen::new(42);
        let mut b = Gen::new(42);
        for _ in 0..32 {
            assert_eq!(a.u64(0..=1000), b.u64(0..=1000));
        }
    }

    #[test]
    fn different_properties_get_different_streams() {
        // The base seed is the FNV-1a of the property name, so two
        // properties never replay each other's cases.
        assert_ne!(fnv1a(b"prop a"), fnv1a(b"prop b"));
    }

    #[test]
    fn vec_respects_length_range() {
        check("vec length", |g| {
            let v = g.vec(3..=7, |g| g.bool());
            ensure!((3..=7).contains(&v.len()));
        });
    }

    #[test]
    fn choose_covers_all_elements_eventually() {
        let mut g = Gen::new(7);
        let items = [0usize, 1, 2, 3];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*g.choose(&items)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn failing_case_reports_and_propagates() {
        let caught = std::panic::catch_unwind(|| {
            check_n("always fails", 5, |_g| panic!("boom"));
        });
        assert!(caught.is_err(), "failure must propagate to the test harness");
    }

    #[test]
    fn permutation_is_a_permutation() {
        check("permutation valid", |g| {
            let n = g.usize(0..=32);
            let mut p = g.permutation(n);
            p.sort_unstable();
            let want: Vec<usize> = (0..n).collect();
            ensure_eq!(p, want);
        });
    }
}
