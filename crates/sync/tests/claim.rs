//! `Mutex::claim`: one thread holds a mutex for a scope. Its own
//! `lock()` takes a borrow flag instead of the lock; every other thread
//! waits for the real lock until the claim drops.

use beff_sync::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;

/// Run `f`, reporting whether it panicked — with the default panic hook
/// muted so expected panics don't spam the test output.
fn panics<F: FnOnce()>(f: F) -> bool {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = catch_unwind(AssertUnwindSafe(f)).is_err();
    std::panic::set_hook(hook);
    r
}

/// Is `m` free for a thread other than the caller right now? (`None`:
/// that thread panicked.)
fn free_elsewhere<T: Send>(m: &Mutex<T>) -> Option<bool> {
    std::thread::scope(|s| s.spawn(|| m.try_lock().is_some()).join().ok())
}

#[test]
fn another_thread_waits_until_the_claim_drops() {
    let m = Mutex::new(0u32);
    let (tried_tx, tried_rx) = mpsc::channel();
    let (seen_tx, seen_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let claim = m.claim();
        *m.lock() = 1;
        s.spawn(|| {
            let _ = tried_tx.send(m.try_lock().is_none());
            let _ = seen_tx.send(*m.lock());
        });
        assert_eq!(
            tried_rx.recv(),
            Ok(true),
            "try_lock from another thread must fail under a claim"
        );
        // The other thread is at (or on its way to) a blocking lock():
        // it must not get in before this write and the claim's drop.
        *m.lock() = 2;
        drop(claim);
        assert_eq!(seen_rx.recv(), Ok(2));
    });
    assert_eq!(free_elsewhere(&m), Some(true));
}

#[test]
fn a_nested_claim_by_the_holder_does_nothing() {
    let m = Mutex::new(0u32);
    let outer = m.claim();
    {
        let _inner = m.claim();
        *m.lock() += 1;
    }
    assert_eq!(
        free_elsewhere(&m),
        Some(false),
        "dropping the nested claim released the outer one"
    );
    *m.lock() += 1;
    drop(outer);
    assert_eq!(free_elsewhere(&m), Some(true));
    assert_eq!(*m.lock(), 2);
}

#[test]
fn re_entering_a_claimed_lock_panics_instead_of_aliasing() {
    let m = Mutex::new(0u32);
    let _claim = m.claim();
    let g = m.lock();
    assert!(m.try_lock().is_none());
    assert!(
        panics(|| drop(m.lock())),
        "a second guard under one claim must panic"
    );
    drop(g);
    *m.lock() += 1;
    assert_eq!(m.try_lock().map(|g| *g), Some(1));
}

#[test]
fn condvar_wait_under_a_claim_panics() {
    let (m, cv) = (Mutex::new(false), Condvar::new());
    let _claim = m.claim();
    let mut g = m.lock();
    assert!(
        panics(|| cv.wait(&mut g)),
        "the claim's thread would wait for itself"
    );
    drop(g);
    assert!(!*m.lock(), "the lock is usable after the refused wait");
}

#[test]
fn a_claim_dropped_under_a_live_guard_is_kept() {
    let m = Mutex::new(0u32);
    let claim = m.claim();
    let g = m.lock();
    drop(claim);
    assert_eq!(
        free_elsewhere(&m),
        Some(false),
        "the lock must stay claimed, not open beside the guard"
    );
    drop(g);
    *m.lock() += 1; // the claiming thread keeps its access
    assert_eq!(free_elsewhere(&m), Some(false));
}

#[cfg(feature = "lock-order")]
#[test]
fn an_inverted_acquisition_inside_a_claim_still_panics() {
    use beff_sync::Rank;
    static L20: Rank = Rank::new(20, "test.claim.l20");
    static L40: Rank = Rank::new(40, "test.claim.l40");
    let (m20, m40) = (Mutex::ranked(&L20, ()), Mutex::ranked(&L40, ()));
    let _claims = (m20.claim(), m40.claim());
    {
        let _g20 = m20.lock();
        let _g40 = m40.lock(); // increasing: clean
    }
    let _g40 = m40.lock();
    assert!(
        panics(|| drop(m20.lock())),
        "40 then 20 must panic under a claim too"
    );
}
