//! Runtime lock-ordering: the dynamic half of the workspace lock
//! hierarchy (DESIGN.md §8, `beff-analyze` pass `lockflow`).
//!
//! Each lock that participates in the hierarchy is constructed with
//! [`Mutex::ranked`](crate::Mutex::ranked), naming a static [`Rank`].
//! With the `lock-order` cargo feature enabled, every acquisition is
//! checked against a thread-local set of currently held ranks: taking a
//! lock whose level is not strictly greater than every held level
//! panics with both lock names, turning a would-be deadlock into a
//! deterministic test failure. Without the feature the rank collapses
//! to an ignored `&'static` and the checks compile out entirely.
//!
//! The static pass in `beff-analyze` sees nesting that is textually
//! visible inside one function; this checker sees the nesting that
//! actually happens across calls at test time. Together they cover the
//! hierarchy from both ends.

/// A position in the workspace lock hierarchy. Declared `static` at the
/// crate that owns the lock; levels are acquired in strictly increasing
/// order.
#[derive(Debug)]
pub struct Rank {
    pub level: u16,
    pub name: &'static str,
}

impl Rank {
    pub const fn new(level: u16, name: &'static str) -> Self {
        Self { level, name }
    }
}

#[cfg(feature = "lock-order")]
pub(crate) use tracking::{acquire, release};

#[cfg(feature = "lock-order")]
mod tracking {
    use super::Rank;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<(u16, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// Check `rank` against the held set, then record it. Panics if any
    /// held level is ≥ `rank.level` — the hierarchy requires strictly
    /// increasing acquisition.
    pub(crate) fn acquire(rank: &Rank) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(&(lvl, name)) = h.iter().find(|&&(lvl, _)| lvl >= rank.level) {
                // beff-analyze: allow(panicflow): this panic IS the lock-order gate — a detected inversion must abort the test run, never be converted to a value
                panic!(
                    "lock-order violation: acquiring '{}' (level {}) while '{}' (level {}) \
                     is held; the hierarchy requires strictly increasing levels",
                    rank.name, rank.level, name, lvl
                );
            }
            h.push((rank.level, rank.name));
        });
    }

    /// Forget the innermost record of `rank` (guard drop, or a condvar
    /// wait handing the lock back).
    pub(crate) fn release(rank: &Rank) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) =
                h.iter().rposition(|&(lvl, name)| lvl == rank.level && name == rank.name)
            {
                h.remove(pos);
            }
        });
    }

    #[cfg(test)]
    #[expect(
        clippy::disallowed_methods,
        reason = "each inversion panics on its own thread, leaving this thread's lockset clean"
    )]
    mod tests {
        use super::*;

        static LOW: Rank = Rank::new(10, "test.low");
        static HIGH: Rank = Rank::new(20, "test.high");

        #[test]
        fn increasing_order_is_clean() {
            acquire(&LOW);
            acquire(&HIGH);
            release(&HIGH);
            release(&LOW);
        }

        #[test]
        fn inverted_order_panics() {
            // Separate thread: panics must not corrupt this thread's set.
            let r = std::thread::spawn(|| {
                acquire(&HIGH);
                acquire(&LOW); // level 10 while 20 held
            })
            .join();
            assert!(r.is_err());
        }

        #[test]
        fn same_level_reacquisition_panics() {
            let r = std::thread::spawn(|| {
                acquire(&LOW);
                acquire(&LOW);
            })
            .join();
            assert!(r.is_err());
        }

        #[test]
        fn release_unblocks_the_level() {
            acquire(&HIGH);
            release(&HIGH);
            acquire(&LOW); // fine: nothing held any more
            release(&LOW);
        }
    }
}
