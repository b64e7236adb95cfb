//! Property tests for the runtime lock-order checker (`lock-order`
//! feature): ranked acquisitions that respect the hierarchy are silent,
//! inversions panic deterministically, and condvar waits hand the rank
//! back correctly.
#![cfg(feature = "lock-order")]
#![expect(clippy::disallowed_methods, reason = "each thread has its own lockset, seen from a second thread")]

use beff_sync::{Condvar, Mutex, Rank};
use std::panic::{catch_unwind, AssertUnwindSafe};

static L20: Rank = Rank::new(20, "test.l20");
static L40: Rank = Rank::new(40, "test.l40");
static L40B: Rank = Rank::new(40, "test.l40b");
static L60: Rank = Rank::new(60, "test.l60");
static L60B: Rank = Rank::new(60, "test.l60b");

/// Run `f`, reporting whether it panicked — with the default panic hook
/// muted so expected violations don't spam the test output.
fn panics<F: FnOnce()>(f: F) -> bool {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = catch_unwind(AssertUnwindSafe(f)).is_err();
    std::panic::set_hook(hook);
    r
}

#[test]
fn increasing_acquisition_is_always_clean() {
    beff_check::check("any increasing subset of ranked locks nests cleanly", |g| {
        let m20 = Mutex::ranked(&L20, 0u32);
        let m40 = Mutex::ranked(&L40, 0u32);
        let m60 = Mutex::ranked(&L60, 0u32);
        // Each level independently present or absent; acquisition in
        // level order must never trip the checker.
        let _g20 = g.bool().then(|| m20.lock());
        let _g40 = g.bool().then(|| m40.lock());
        let _g60 = g.bool().then(|| m60.lock());
        // Guards drop in reverse declaration order; next case starts
        // from an empty lockset.
    });
}

#[test]
fn inverted_acquisition_panics() {
    beff_check::check("acquiring a lower or equal level while one is held panics", |g| {
        let m20 = Mutex::ranked(&L20, ());
        let m40 = Mutex::ranked(&L40, ());
        let m40b = Mutex::ranked(&L40B, ());
        let m60 = Mutex::ranked(&L60, ());
        let m60b = Mutex::ranked(&L60B, ());
        match g.usize(0..=3) {
            0 => {
                let _held = m40.lock();
                beff_check::ensure!(panics(|| drop(m20.lock())), "40 then 20 must panic");
            }
            1 => {
                let _held = m60.lock();
                beff_check::ensure!(panics(|| drop(m40.lock())), "60 then 40 must panic");
            }
            2 => {
                // Equal levels are also rejected: "strictly increasing".
                let _held = m40.lock();
                beff_check::ensure!(panics(|| drop(m40b.lock())), "40 then 40 must panic");
            }
            _ => {
                let _held = m60.lock();
                beff_check::ensure!(panics(|| drop(m60b.lock())), "60 then 60 must panic");
            }
        }
    });
}

#[test]
fn violation_message_names_both_locks() {
    let m20 = Mutex::ranked(&L20, ());
    let m40 = Mutex::ranked(&L40, ());
    let _held = m40.lock();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = catch_unwind(AssertUnwindSafe(|| drop(m20.lock())))
        .expect_err("inversion must panic");
    std::panic::set_hook(hook);
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic payload".into());
    assert!(msg.contains("test.l20") && msg.contains("test.l40"), "got: {msg}");
}

#[test]
fn release_resets_the_ceiling() {
    beff_check::check("dropping a guard frees its level for later cases", |g| {
        let m20 = Mutex::ranked(&L20, ());
        let m40 = Mutex::ranked(&L40, ());
        for _ in 0..g.usize(1..=4) {
            drop(m40.lock());
            // 40 released: acquiring 20 afterwards is clean.
            drop(m20.lock());
        }
    });
}

#[test]
fn try_lock_failure_does_not_poison_the_lockset() {
    let m40 = std::sync::Arc::new(Mutex::ranked(&L40, ()));
    let m40_2 = std::sync::Arc::clone(&m40);
    let held = m40.lock();
    std::thread::spawn(move || {
        // Fails (other thread holds it) — must record nothing.
        assert!(m40_2.try_lock().is_none());
        // This thread's lockset is still empty, so 20 locks fine.
        drop(Mutex::ranked(&L20, ()).lock());
    })
    .join()
    .expect("worker clean");
    drop(held);
}

#[test]
fn condvar_wait_returns_rank_to_lockset() {
    let pair = std::sync::Arc::new((Mutex::ranked(&L40, false), Condvar::new()));
    let (m, c) = &*pair;
    let mut g = m.lock();
    // The waker can only take the lock once this thread waits on it.
    let waker = {
        let pair = std::sync::Arc::clone(&pair);
        std::thread::spawn(move || {
            *pair.0.lock() = true;
            pair.1.notify_all();
        })
    };
    while !*g {
        c.wait(&mut g);
    }
    // The rank was re-acquired on wakeup: a lower level still panics…
    assert!(panics(|| drop(Mutex::ranked(&L20, ()).lock())));
    drop(g);
    // …and is clean once the guard drops.
    drop(Mutex::ranked(&L20, ()).lock());
    waker.join().expect("waker clean");
}

#[test]
fn unranked_locks_stay_invisible() {
    beff_check::check("plain Mutex::new never participates in ordering", |g| {
        let ranked = Mutex::ranked(&L40, ());
        let plain = Mutex::new(0u32);
        let _held = ranked.lock();
        for _ in 0..g.usize(0..=3) {
            *plain.lock() += 1; // no level, no check, no panic
        }
    });
}
