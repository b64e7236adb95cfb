//! The workspace's one worker pool: deterministic fan-out over a fixed
//! thread count.
//!
//! Parallelism in a bit-deterministic stack is only safe at boundaries
//! where jobs share *nothing* mutable — a batch of independent world
//! runs, calibration rows each on their own machine model, chaos
//! scenarios each owning their fault session. This module provides that
//! one idiom and nothing else: [`map_ordered`] runs `f` over every item
//! on up to [`Workers`] OS threads and returns the results **in
//! submission order**, so the output is byte-identical to the serial
//! map regardless of how the host scheduler interleaved the jobs.
//!
//! `Workers::try_from_env()` reads `BEFF_WORKERS` (default: host
//! cores); `BEFF_WORKERS=1` takes the inline path — no threads are
//! spawned at all, which *is* the pre-existing serial behavior, not an
//! emulation of it. A set-but-invalid value (`0`, garbage) is a typed
//! [`WorkersError`], never a silent fallback. `clippy.toml` bans thread
//! creation elsewhere (two `#[expect]`s make this module its home), so
//! every parallel call site in the workspace funnels through here.

use beff_sync::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A `BEFF_WORKERS` value that cannot configure a pool. Surfaced as a
/// typed error so drivers can print one clear line and exit instead of
/// panicking mid-run — and so a typo never silently falls back to some
/// other worker count (a silent fallback would *change the machine
/// load* behind the user's back, even though results are byte-identical
/// at every worker count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkersError {
    /// `BEFF_WORKERS=0`: there is no zero-thread pool. `1` is the
    /// serial path; `0` is always a mistake, not a request.
    Zero,
    /// Not a base-10 unsigned integer (the offending text is carried).
    Invalid(String),
}

impl fmt::Display for WorkersError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkersError::Zero => {
                write!(f, "BEFF_WORKERS=0 is invalid: use 1 for the serial path, or unset it for host cores")
            }
            WorkersError::Invalid(raw) => {
                write!(f, "BEFF_WORKERS={raw:?} is not a worker count: expected a positive integer (e.g. BEFF_WORKERS=4), or unset for host cores")
            }
        }
    }
}

impl std::error::Error for WorkersError {}

/// A validated worker count (≥ 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workers(usize);

impl Workers {
    /// An explicit worker count; `0` is clamped to `1` (serial). This
    /// is the *programmatic* constructor — env input goes through
    /// [`Workers::try_from_env`], where `0` is a typed error instead.
    pub fn new(n: usize) -> Self {
        Self(n.max(1))
    }

    /// Parse a worker count the way the `BEFF_WORKERS` knob is read:
    /// a positive base-10 integer. `0`, empty, and garbage are typed
    /// [`WorkersError`]s — never a panic, never a silent fallback.
    pub fn parse(raw: &str) -> Result<Self, WorkersError> {
        let t = raw.trim();
        match t.parse::<usize>() {
            Ok(0) => Err(WorkersError::Zero),
            Ok(n) => Ok(Self(n)),
            Err(_) => Err(WorkersError::Invalid(t.to_string())),
        }
    }

    /// The `BEFF_WORKERS` environment knob as a typed result: unset
    /// defaults to the host's available parallelism (`1` if the host
    /// won't say); set-but-invalid is a [`WorkersError`]. Front-end
    /// binaries should call this once at startup and report the error
    /// cleanly (`beff` does), then pass the value in.
    #[expect(clippy::disallowed_methods, reason = "the pool's default width is the host's core count")]
    pub fn try_from_env() -> Result<Self, WorkersError> {
        match std::env::var("BEFF_WORKERS") {
            Ok(v) => Self::parse(&v),
            Err(_) => {
                let host =
                    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
                Ok(Self::new(host))
            }
        }
    }

    #[inline]
    pub fn get(self) -> usize {
        self.0
    }

    /// Is this the serial (no threads spawned) configuration?
    #[inline]
    pub fn is_serial(self) -> bool {
        self.0 == 1
    }
}

/// Apply `f` to every item on up to `workers` threads, returning the
/// results in submission order. `f` receives `(index, item)`.
///
/// With one worker (or one item) the map runs inline on the caller's
/// thread — the serial path spawns nothing. A panicking job aborts the
/// batch: the first panic (in completion order) propagates to the
/// caller after all workers have stopped picking up new items.
#[expect(clippy::disallowed_methods, reason = "the workspace's one worker pool spawns its threads here")]
pub fn map_ordered<T, R, F>(workers: Workers, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if workers.is_serial() || items.len() <= 1 {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let n = items.len();
    let width = workers.get().min(n);
    // Scatter: each job's input and result slot is touched by exactly
    // one worker (the one that won the index), so plain mutexes carry
    // no contention — they are ownership transfer, not sharing.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..width)
            .map(|_| {
                let (inputs, slots, next, f) = (&inputs, &slots, &next, &f);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    let item = inputs[i].lock().take().expect("job input taken once");
                    let r = f(i, item);
                    *slots[i].lock() = Some(r);
                })
            })
            .collect();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            if let Err(p) = h.join() {
                // Stop the remaining workers from claiming new jobs.
                next.store(n, Ordering::Relaxed);
                panic.get_or_insert(p);
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every job completed or the panic propagated"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_clamp_and_parse() {
        assert_eq!(Workers::new(0).get(), 1);
        assert!(Workers::new(1).is_serial());
        assert_eq!(Workers::new(8).get(), 8);
    }

    #[test]
    fn env_shaped_parsing_is_typed() {
        assert_eq!(Workers::parse("4"), Ok(Workers::new(4)));
        assert_eq!(Workers::parse(" 2 "), Ok(Workers::new(2)));
        assert_eq!(Workers::parse("0"), Err(WorkersError::Zero));
        assert_eq!(Workers::parse(""), Err(WorkersError::Invalid(String::new())));
        assert_eq!(Workers::parse("eight"), Err(WorkersError::Invalid("eight".into())));
        assert_eq!(Workers::parse("-3"), Err(WorkersError::Invalid("-3".into())));
        assert_eq!(Workers::parse("4.5"), Err(WorkersError::Invalid("4.5".into())));
    }

    #[test]
    fn workers_errors_explain_themselves() {
        let zero = WorkersError::Zero.to_string();
        assert!(zero.contains("BEFF_WORKERS=0") && zero.contains("serial"), "{zero}");
        let bad = Workers::parse("lots").expect_err("garbage must not parse").to_string();
        assert!(bad.contains("lots") && bad.contains("positive integer"), "{bad}");
    }

    /// The one env-mutating test: `try_from_env` must surface the typed
    /// error on garbage and honor valid values. Kept as a single test
    /// so the env var is never raced by a parallel test thread.
    #[test]
    fn from_env_honors_and_rejects() {
        // SAFETY-adjacent note: no other test in this binary touches
        // BEFF_WORKERS; set/remove pairs stay within this test.
        std::env::set_var("BEFF_WORKERS", "3");
        assert_eq!(Workers::try_from_env(), Ok(Workers::new(3)));
        std::env::set_var("BEFF_WORKERS", "zero");
        assert_eq!(
            Workers::try_from_env(),
            Err(WorkersError::Invalid("zero".into()))
        );
        std::env::remove_var("BEFF_WORKERS");
        assert!(Workers::try_from_env().expect("unset env is the host default").get() >= 1);
    }

    #[test]
    fn serial_and_parallel_results_are_identical() {
        let job = |i: usize, x: u64| {
            let mut acc = x as f64;
            for k in 0..200 {
                acc += (k as f64) / (1.0 + i as f64);
            }
            acc.to_bits()
        };
        let items: Vec<u64> = (0..37).collect();
        let serial = map_ordered(Workers::new(1), items.clone(), job);
        for w in [2, 4, 8] {
            let parallel = map_ordered(Workers::new(w), items.clone(), job);
            assert_eq!(serial, parallel, "order/content must not depend on {w} workers");
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let none: Vec<u32> = map_ordered(Workers::new(4), Vec::<u32>::new(), |_, x| x);
        assert!(none.is_empty());
        let one = map_ordered(Workers::new(4), vec![7u32], |i, x| x + i as u32);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = map_ordered(Workers::new(16), vec![1u32, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn job_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            map_ordered(Workers::new(4), (0..8u32).collect(), |_, x| {
                if x == 3 {
                    panic!("job bug");
                }
                x
            })
        });
        assert!(r.is_err(), "a job panic must reach the caller");
    }
}
