//! A `parking_lot`-shaped mutex over `std::sync::Mutex`.
//!
//! `lock()` returns the guard directly; a poisoned lock is unwrapped
//! rather than surfaced as a `Result`. The simulation already has a
//! first-class abort protocol (mailbox poisoning re-raises the first
//! rank panic), so the standard library's poisoning adds only noise:
//! any state a panicking rank left behind is either torn down with the
//! world or repriced on the next run.

use crate::order::Rank;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Mutual exclusion with guard-returning `lock()`.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    /// Position in the lock hierarchy, if declared (see [`Rank`]).
    /// Tracked only under the `lock-order` feature.
    #[cfg(feature = "lock-order")]
    rank: Option<&'static Rank>,
    inner: std::sync::Mutex<T>,
}

/// RAII guard; the lock is released on drop.
///
/// The guard holds the `std` guard in an `Option` so [`Condvar`]
/// (crate::Condvar) can temporarily take ownership during a wait and
/// put it back afterwards — that is what lets `wait` borrow the guard
/// mutably (`parking_lot` shape) instead of consuming it (`std` shape).
pub struct MutexGuard<'a, T: ?Sized> {
    pub(crate) inner: Option<std::sync::MutexGuard<'a, T>>,
    /// Rank to release when the guard drops (or a condvar wait hands
    /// the lock back). Mirrors the owning mutex's rank.
    #[cfg(feature = "lock-order")]
    pub(crate) rank: Option<&'static Rank>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(feature = "lock-order")]
            rank: None,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// A mutex participating in the lock hierarchy at `rank`. Identical
    /// to [`Mutex::new`] unless the `lock-order` feature is on, in
    /// which case every acquisition is order-checked (see
    /// [`crate::order`]).
    pub const fn ranked(rank: &'static Rank, value: T) -> Self {
        #[cfg(not(feature = "lock-order"))]
        let _ = rank;
        Self {
            #[cfg(feature = "lock-order")]
            rank: Some(rank),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // Order-check *before* blocking: an inverted acquisition panics
        // deterministically instead of deadlocking intermittently.
        #[cfg(feature = "lock-order")]
        if let Some(r) = self.rank {
            crate::order::acquire(r);
        }
        MutexGuard {
            inner: Some(unpoison(self.inner.lock())),
            #[cfg(feature = "lock-order")]
            rank: self.rank,
        }
    }

    /// Acquire the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let g = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        // A failed try can't deadlock, so the order check applies only
        // to successful acquisitions.
        #[cfg(feature = "lock-order")]
        if let Some(r) = self.rank {
            crate::order::acquire(r);
        }
        Some(MutexGuard {
            inner: Some(g),
            #[cfg(feature = "lock-order")]
            rank: self.rank,
        })
    }

    /// Mutable access without locking (requires `&mut self`, so the
    /// borrow checker already guarantees exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

/// Strip the poison wrapper: the panic that poisoned the lock is
/// already propagating through the world-abort protocol.
pub(crate) fn unpoison<G>(r: Result<G, std::sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<T: ?Sized> MutexGuard<'_, T> {
    #[inline]
    pub(crate) fn std_guard(&self) -> &std::sync::MutexGuard<'_, T> {
        // `inner` is only `None` transiently inside `Condvar::wait`,
        // which holds the only `&mut` borrow.
        // beff-analyze: allow(unwrap): inner is Some outside an active condvar wait by construction
        self.inner.as_ref().expect("guard present outside a condvar wait")
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.std_guard()
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // beff-analyze: allow(unwrap): inner is Some outside an active condvar wait by construction
        self.inner.as_mut().expect("guard present outside a condvar wait")
    }
}

#[cfg(feature = "lock-order")]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(r) = self.rank {
            crate::order::release(r);
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_guards_mutation() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn contended_increments_all_land() {
        let m = Arc::new(Mutex::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn poisoned_lock_still_opens() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7, "poison is unwrapped, data intact");
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut m = Mutex::new(5);
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 6);
    }
}
