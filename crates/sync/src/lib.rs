//! # beff-sync
//!
//! The in-tree synchronization substrate of the benchmark stack. Every
//! crate in the workspace locks through this facade instead of a
//! registry crate, so the whole b_eff / b_eff_io reproduction builds
//! with zero network access (the portability lesson of the paper: a
//! characterization benchmark is only useful where it *builds*).
//!
//! [`Mutex`] / [`Condvar`] are thin wrappers over `std::sync` with the
//! `parking_lot` API shape: `lock()` returns the guard directly (a
//! poisoned lock is unwrapped — a rank that panicked already poisons
//! its world through the mailbox protocol, so lock poisoning carries no
//! extra information here), and `Condvar::wait` takes `&mut MutexGuard`
//! instead of consuming it. [`Mutex::claim`] lets one thread hold a
//! mutex for a scope, so that thread's `lock()` costs no atomic
//! read-modify-write — how a simulated world keeps the state its fibers
//! share for a whole run. [`order`] is the runtime half of the lock
//! hierarchy.

mod condvar;
mod mutex;
pub mod order;

pub use condvar::Condvar;
pub use mutex::{Claim, Mutex, MutexGuard};
pub use order::Rank;
