//! # beff-sync
//!
//! The in-tree synchronization substrate of the benchmark stack. Every
//! crate in the workspace locks through this facade instead of a
//! registry crate, so the whole b_eff / b_eff_io reproduction builds
//! with zero network access (the portability lesson of the paper: a
//! characterization benchmark is only useful where it *builds*).
//!
//! Two layers:
//!
//! * [`Mutex`] / [`Condvar`] / [`RwLock`] — thin wrappers over
//!   `std::sync` with the `parking_lot` API shape: `lock()` returns the
//!   guard directly (a poisoned lock is unwrapped — a rank that
//!   panicked already poisons its world through the mailbox protocol,
//!   so lock poisoning carries no extra information here), and
//!   `Condvar::wait` takes `&mut MutexGuard` instead of consuming it.
//! * [`channel::bounded`] — a multi-producer/multi-consumer bounded
//!   channel built on [`Mutex`] + [`Condvar`], the in-tree replacement
//!   for `crossbeam-channel` in server/worker fan-out paths.

pub mod channel;
mod condvar;
mod mutex;
pub mod order;
mod rwlock;

pub use channel::{bounded, unbounded, Receiver, RecvError, SendError, Sender, TryRecvError};
pub use condvar::{Condvar, WaitTimeoutResult};
pub use mutex::{Mutex, MutexGuard};
pub use order::Rank;
pub use rwlock::{RwLock, RwLockReadGuard, RwLockWriteGuard};
