//! A `parking_lot`-shaped condition variable over `std::sync::Condvar`.
//!
//! `wait` borrows the [`MutexGuard`] mutably instead of consuming it,
//! which keeps wait loops (`loop { if ready { .. } cond.wait(&mut g) }`)
//! free of rebinding noise. Internally the `std` guard is taken out of
//! the wrapper for the duration of the wait and put back before
//! returning.

use crate::mutex::{unpoison, MutexGuard};

/// Condition variable; pairs with [`crate::Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Self { inner: std::sync::Condvar::new() }
    }

    /// Block until notified. Spurious wakeups are possible, as with any
    /// condition variable: callers re-check their predicate in a loop.
    ///
    /// Panics on a guard obtained under a claim ([`crate::Mutex::claim`]):
    /// the claim's thread keeps the lock, so it would wait for itself.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // beff-analyze: allow(unwrap, panicflow): a guard lacks the std guard only under a claim, and no claimed lock has a condvar
        let g = guard.held.take().expect("Condvar::wait on a guard obtained under a claim");
        // The mutex is released for the duration of the wait, so its
        // rank leaves the thread's lockset and re-enters on wakeup.
        #[cfg(feature = "lock-order")]
        if let Some(r) = guard.rank() {
            crate::order::release(r);
        }
        let g = unpoison(self.inner.wait(g));
        #[cfg(feature = "lock-order")]
        if let Some(r) = guard.rank() {
            crate::order::acquire(r);
        }
        guard.held = Some(g);
    }

    /// Wake one waiter.
    ///
    /// Each call (like [`notify_all`](Self::notify_all)) is a `futex`
    /// system call on Linux even when nothing is waiting, a few hundred
    /// nanoseconds: on a hot path, notify only when a waiter can exist.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter; a system call even with none (see
    /// [`notify_one`](Self::notify_one)).
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests wake waiters on real threads after a host-time pause"
)]
mod tests {
    use super::*;
    use crate::Mutex;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn wait_wakes_on_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, c) = &*p2;
            let mut g = m.lock();
            while !*g {
                c.wait(&mut g);
            }
            true
        });
        std::thread::sleep(Duration::from_millis(20));
        let (m, c) = &*pair;
        *m.lock() = true;
        c.notify_all();
        assert!(h.join().unwrap());
    }

    #[test]
    fn notify_one_wakes_exactly_enough() {
        // 4 waiters, 4 notifies with the flag set once each: all drain.
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = Arc::clone(&pair);
                s.spawn(move || {
                    let (m, c) = &*p;
                    let mut g = m.lock();
                    while *g == 0 {
                        c.wait(&mut g);
                    }
                    *g -= 1;
                });
            }
            std::thread::sleep(Duration::from_millis(20));
            let (m, c) = &*pair;
            *m.lock() = 4;
            c.notify_all();
        });
        assert_eq!(*pair.0.lock(), 0);
    }
}
