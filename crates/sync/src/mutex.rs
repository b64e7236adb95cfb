//! A `parking_lot`-shaped mutex over `std::sync::Mutex`, with claims.
//!
//! `lock()` returns the guard directly; a poisoned lock is unwrapped
//! rather than surfaced as a `Result`. The simulation already has a
//! first-class abort protocol (mailbox poisoning re-raises the first
//! rank panic), so the standard library's poisoning adds only noise:
//! any state a panicking rank left behind is either torn down with the
//! world or repriced on the next run.
//!
//! A *claim* ([`Mutex::claim`]) lets one thread hold the lock for a
//! scope. While it does, that thread's `lock()` is a relaxed load, a
//! compare against a per-thread tag and a borrow flag — no atomic
//! read-modify-write — and every other thread blocks on the real lock
//! until the claim drops. It exists for state that many fibers share
//! while all of them run on the one thread that drives them: the claim
//! is taken once, in the host frame, for the whole run.
//!
//! A claim is not an acquisition. It is held by its thread across
//! every fiber switch and re-entered by whatever fiber runs next; the
//! lock-order checker ([`crate::order`]) checks each `lock()` made under
//! it exactly as it checks a real acquisition. What a claim rules out
//! is what a real lock rules out on one thread: a second guard while
//! the first is alive (a real lock would deadlock; a claimed one
//! panics), and a condvar wait (the waiter would wait for itself).

use crate::order::Rank;
use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Mutual exclusion with guard-returning `lock()`.
pub struct Mutex<T: ?Sized> {
    /// Position in the lock hierarchy, if declared (see [`Rank`]).
    /// Tracked only under the `lock-order` feature.
    #[cfg(feature = "lock-order")]
    rank: Option<&'static Rank>,
    raw: Raw,
    data: UnsafeCell<T>,
}

/// The lock proper: held by every guard taken outside a claim, and by a
/// claim for its whole scope.
struct Raw {
    lock: std::sync::Mutex<()>,
    /// Tag of the thread holding a claim ([`thread_tag`]), or
    /// [`UNCLAIMED`]. Stored only by the claiming thread while it holds
    /// `lock`, so another thread never reads its own tag here.
    /// `Relaxed` throughout: a thread acts only on reading its own tag,
    /// which it stored itself; the data itself is published by `lock`
    /// (acquired by the claim, released when the claim drops).
    owner: AtomicU64,
    /// A guard handed out under the claim is alive. Read and written
    /// only by the claiming thread.
    borrowed: AtomicBool,
}

const UNCLAIMED: u64 = 0;
/// A thread's tag before its first claim: equal to no owner.
const UNASSIGNED: u64 = u64::MAX;

thread_local! {
    static TAG: Cell<u64> = const { Cell::new(UNASSIGNED) };
}

/// Tags are never reused, so a tag names one thread for the life of
/// the process.
static NEXT_TAG: AtomicU64 = AtomicU64::new(1);

#[inline]
fn thread_tag() -> u64 {
    TAG.with(Cell::get)
}

fn assigned_thread_tag() -> u64 {
    TAG.with(|t| {
        if t.get() == UNASSIGNED {
            t.set(NEXT_TAG.fetch_add(1, Relaxed));
        }
        t.get()
    })
}

// SAFETY: `data` is reached only through a `MutexGuard`, and a guard is
// exclusive access: either its thread holds `raw.lock`, or its thread
// holds the claim (which holds `raw.lock`) and set `raw.borrowed`,
// which admits one guard at a time. That is `std::sync::Mutex`'s
// contract, so the same bound applies.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// RAII guard; the lock is released (or, under a claim, the borrow
/// flag cleared) on drop.
///
/// A real acquisition keeps the `std` guard in an `Option` so
/// [`Condvar`](crate::Condvar) can temporarily take ownership during a
/// wait and put it back afterwards — that is what lets `wait` borrow
/// the guard mutably (`parking_lot` shape) instead of consuming it
/// (`std` shape).
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    /// The real lock's guard; `None` under a claim (the claim holds the
    /// real lock) and transiently inside a condvar wait.
    pub(crate) held: Option<std::sync::MutexGuard<'a, ()>>,
    /// Handed out under a claim: drop clears the borrow flag.
    claimed: bool,
    /// `&mut T` is what the guard lends, so it is `Sync` only where
    /// `T` is.
    _data: PhantomData<&'a mut T>,
}

/// A thread's hold on a [`Mutex`] for a scope; see [`Mutex::claim`].
/// Not `Send`: the claim belongs to the thread that took it.
#[must_use = "a claim lasts only as long as the value is held"]
pub struct Claim<'a> {
    raw: &'a Raw,
    /// The real lock's guard; `None` for a nested claim, which releases
    /// nothing.
    held: Option<std::sync::MutexGuard<'a, ()>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(feature = "lock-order")]
            rank: None,
            raw: Raw::new(),
            data: UnsafeCell::new(value),
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
            raw: Raw::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl Raw {
    const fn new() -> Self {
        Self {
            lock: std::sync::Mutex::new(()),
            owner: AtomicU64::new(UNCLAIMED),
            borrowed: AtomicBool::new(false),
        }
    }

    /// Does the calling thread hold the claim?
    #[inline]
    fn claimed_here(&self) -> bool {
        let owner = self.owner.load(Relaxed);
        owner != UNCLAIMED && owner == thread_tag()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Under this thread's
    /// claim: take the borrow flag instead, panicking if a guard handed
    /// out under the claim is still alive (where a real lock would
    /// deadlock).
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let claimed = self.raw.claimed_here();
        if claimed {
            // beff-analyze: allow(panicflow): a second guard on one thread is the self-deadlock of a real lock; lockflow proves no declared lock is held across a yield, so no other fiber can hold this one
            assert!(
                !self.raw.borrowed.load(Relaxed),
                "re-entered a claimed Mutex while a guard obtained under the claim is alive"
            );
        }
        // Order-check *before* blocking: an inverted acquisition panics
        // deterministically instead of deadlocking intermittently.
        #[cfg(feature = "lock-order")]
        if let Some(r) = self.rank {
            crate::order::acquire(r);
        }
        if claimed {
            return self.guard(None);
        }
        self.guard(Some(unpoison(self.raw.lock.lock())))
    }

    /// Acquire the lock only if it is free right now (under this
    /// thread's claim: if no guard handed out under it is alive).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let held = if self.raw.claimed_here() {
            if self.raw.borrowed.load(Relaxed) {
                return None;
            }
            None
        } else {
            match self.raw.lock.try_lock() {
                Ok(g) => Some(g),
                Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
                Err(std::sync::TryLockError::WouldBlock) => return None,
            }
        };
        // A failed try can't deadlock, so the order check applies only
        // to successful acquisitions.
        #[cfg(feature = "lock-order")]
        if let Some(r) = self.rank {
            crate::order::acquire(r);
        }
        Some(self.guard(held))
    }

    /// A guard over the real lock's `held` guard, or — `held` of `None`
    /// — over this thread's claim, taking its borrow flag.
    #[inline]
    fn guard<'a>(&'a self, held: Option<std::sync::MutexGuard<'a, ()>>) -> MutexGuard<'a, T> {
        let claimed = held.is_none();
        if claimed {
            self.raw.borrowed.store(true, Relaxed);
        }
        MutexGuard { lock: self, held, claimed, _data: PhantomData }
    }

    /// Hold the lock on the calling thread until the returned [`Claim`]
    /// drops: block until the real lock is free, then keep it. Until
    /// then this thread's `lock()` costs no atomic read-modify-write,
    /// and every other thread's `lock()` waits. A claim taken while the
    /// thread already holds one on this lock is a no-op.
    ///
    /// Not an acquisition: it is not order-checked, and a guard taken
    /// under it is checked as usual. A claim dropped while such a guard
    /// is alive is kept for good, as if leaked: other threads would
    /// otherwise get in beside the guard.
    pub fn claim(&self) -> Claim<'_> {
        let me = assigned_thread_tag();
        if self.raw.owner.load(Relaxed) == me {
            return Claim { raw: &self.raw, held: None };
        }
        let held = unpoison(self.raw.lock.lock());
        self.raw.owner.store(me, Relaxed);
        Claim { raw: &self.raw, held: Some(held) }
    }

    /// Mutable access without locking (requires `&mut self`, so the
    /// borrow checker already guarantees exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let Some(held) = self.held.take() else { return };
        if self.raw.borrowed.load(Relaxed) {
            // A guard handed out under this claim outlives it: letting
            // another thread in now would put two guards on the data at
            // once. Keep the real lock held and the owner set, as if
            // the claim had been leaked.
            std::mem::forget(held);
            return;
        }
        self.raw.owner.store(UNCLAIMED, Relaxed);
        drop(held);
    }
}

/// Strip the poison wrapper: the panic that poisoned the lock is
/// already propagating through the world-abort protocol.
pub(crate) fn unpoison<G>(r: Result<G, std::sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<T: ?Sized> MutexGuard<'_, T> {
    /// The rank the guard's mutex is checked at (`lock-order` feature).
    #[cfg(feature = "lock-order")]
    pub(crate) fn rank(&self) -> Option<&'static Rank> {
        self.lock.rank
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: a live guard is its thread's exclusive access to the
        // data (see the `Sync` impl of `Mutex`) for as long as it lives.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "lock-order")]
        if let Some(r) = self.lock.rank {
            crate::order::release(r);
        }
        if self.claimed {
            self.lock.raw.borrowed.store(false, Relaxed);
        }
        // A real guard's lock is released as `held` drops, after this.
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
