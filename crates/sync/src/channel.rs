//! Multi-producer/multi-consumer bounded channels on [`Mutex`] +
//! [`Condvar`].
//!
//! The in-tree replacement for `crossbeam-channel`: both ends are
//! cloneable, [`bounded`] applies backpressure at `cap` queued
//! messages (`bounded(0)` degrades to capacity 1 rather than
//! implementing rendezvous), and a side disconnects when its last
//! handle drops. Throughput is a lock per operation — plenty for the
//! server's admission queue.

use crate::order::Rank;
use crate::{Condvar, Mutex};
use std::collections::VecDeque;

/// Lock-hierarchy position of a channel's queue (DESIGN.md §8): the
/// leaf level — nothing else is acquired while a channel operation
/// holds its state.
static CHANNEL_RANK: Rank = Rank::new(80, "sync.channel");
use std::fmt;
use std::sync::Arc;

/// The message could not be delivered: every receiver is gone.
/// The unsent message is handed back.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// The channel is empty and every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Outcome of a non-blocking receive attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing queued right now; senders still exist.
    Empty,
    /// Nothing queued and every sender is gone.
    Disconnected,
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a channel with no receivers")
    }
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on a channel with no senders")
    }
}

impl<T> std::error::Error for SendError<T> {}
impl std::error::Error for RecvError {}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// The backpressure limit.
    cap: usize,
    /// Signalled when the queue gains a message or the last sender drops.
    not_empty: Condvar,
    /// Signalled when the queue loses a message or the last receiver drops.
    not_full: Condvar,
}

/// Sending half; clone for more producers.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half; clone for more consumers.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Channel with backpressure: `send` blocks once `cap` messages queue.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::ranked(&CHANNEL_RANK, State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
        cap: cap.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

impl<T> Sender<T> {
    /// Deliver `value`, blocking while the channel is full.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let sh = &*self.shared;
        let mut st = sh.state.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            if st.queue.len() < sh.cap {
                st.queue.push_back(value);
                sh.not_empty.notify_one();
                return Ok(());
            }
            sh.not_full.wait(&mut st);
        }
    }
}

impl<T> Receiver<T> {
    /// Take the next message, blocking while the channel is empty.
    pub fn recv(&self) -> Result<T, RecvError> {
        let sh = &*self.shared;
        let mut st = sh.state.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                sh.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            sh.not_empty.wait(&mut st);
        }
    }

    /// Take the next message only if one is already queued.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let sh = &*self.shared;
        let mut st = sh.state.lock();
        match st.queue.pop_front() {
            Some(v) => {
                sh.not_full.notify_one();
                Ok(v)
            }
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Drain everything currently queued without blocking.
    pub fn drain(&self) -> Vec<T> {
        let sh = &*self.shared;
        let mut st = sh.state.lock();
        let out: Vec<T> = st.queue.drain(..).collect();
        if !out.is_empty() {
            sh.not_full.notify_all();
        }
        out
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().senders += 1;
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().receivers += 1;
        Receiver { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let sh = &*self.shared;
        let mut st = sh.state.lock();
        st.senders -= 1;
        if st.senders == 0 {
            // Wake receivers so they observe the disconnect.
            sh.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let sh = &*self.shared;
        let mut st = sh.state.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            // Wake blocked senders so they observe the disconnect.
            sh.not_full.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_within_single_producer() {
        let (tx, rx) = bounded(8);
        for i in 0..8 {
            assert_eq!(tx.send(i), Ok(()));
        }
        for i in 0..8 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn bounded_send_blocks_until_recv() {
        let (tx, rx) = bounded(2);
        assert_eq!(tx.send(1), Ok(()));
        assert_eq!(tx.send(2), Ok(()));
        let h = std::thread::spawn(move || {
            assert_eq!(tx.send(3), Ok(())); // blocks until a slot frees
            3
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        // beff-analyze: allow(unwrap): join error is panic propagation, not a typed error
        assert_eq!(h.join().unwrap(), 3);
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn mpmc_every_message_delivered_exactly_once() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER: u64 = 500;
        let (tx, rx) = bounded(16);
        let mut handles = Vec::new();
        for p in 0..PRODUCERS as u64 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    assert_eq!(tx.send(p * PER + i), Ok(()));
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..CONSUMERS {
            let rx = rx.clone();
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            }));
        }
        drop(rx);
        for h in handles {
            // beff-analyze: allow(unwrap): join error is panic propagation, not a typed error
            h.join().unwrap();
        }
        // beff-analyze: allow(unwrap): join error is panic propagation, not a typed error
        let mut all: Vec<u64> = consumers.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        let want: Vec<u64> = (0..PRODUCERS as u64 * PER).collect();
        assert_eq!(all, want);
    }

    #[test]
    fn recv_errors_after_senders_gone() {
        let (tx, rx) = bounded(1);
        assert_eq!(tx.send(9), Ok(()));
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_after_receivers_gone() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    #[test]
    fn blocked_sender_unblocks_on_receiver_drop() {
        let (tx, rx) = bounded(1);
        assert_eq!(tx.send(0), Ok(()));
        let h = std::thread::spawn(move || tx.send(1));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        // beff-analyze: allow(unwrap): join error is panic propagation, not a typed error
        assert_eq!(h.join().unwrap(), Err(SendError(1)));
    }

    #[test]
    fn try_recv_reports_state() {
        let (tx, rx) = bounded(1);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(tx.send(1), Ok(()));
        assert_eq!(rx.try_recv(), Ok(1));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn zero_capacity_degrades_to_one() {
        let (tx, rx) = bounded(0);
        assert_eq!(tx.send(1), Ok(())); // does not deadlock
        assert_eq!(rx.recv(), Ok(1));
    }

    #[test]
    fn drain_empties_queue() {
        let (tx, rx) = bounded(8);
        for i in 0..5 {
            assert_eq!(tx.send(i), Ok(()));
        }
        assert_eq!(rx.drain(), vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }
}
