//! Network links: latency + per-byte occupancy, booked on a shared
//! [`LinkLedger`].
//!
//! Everything a booking reads or writes of one link sits in one
//! 64-byte record of the machine's [`LinkLedger`]: the pricing fields
//! (latency, byte time, fair-share factor, a `degraded` flag) beside
//! the dynamic ones (next-free time, traffic counters) — one cache line
//! a hop. The record *owns* the pricing fields: they are written when
//! the link is made and never again, [`LinkLedger::reset`] idles the
//! dynamic fields only, and `degraded` follows the installed fault
//! windows. A [`Link`] is the handle on a record plus what a booking
//! does not normally touch — the fault windows themselves, the dead
//! flag — and a public copy of `latency` / `byte_time` for read-only
//! cost queries; nothing mutates either copy, so they cannot drift.
//!
//! Pricing a message takes the ledger lock once and books every link of
//! the path under it ([`LedgerGuard::traverse`]), with the same
//! arithmetic a [`Resource`](crate::resource::Resource) applies to a
//! single next-free time. One lock is sound because simulated worlds
//! are token-serial (one rank prices at a time) and batch workers price
//! on machine replicas, so the ledger lock is never contended; it
//! exists to carry the bookings from one rank thread to the next.

use crate::resource::{book, check_contention};
use crate::units::Secs;
use beff_sync::{Mutex, MutexGuard, Rank};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A fault-injected bandwidth degradation window: while the occupancy
/// start time falls in `[from, until)`, the link's per-byte cost is
/// multiplied by `slowdown`. Installed by the fault layer
/// (`beff-faults`); overlapping windows multiply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degrade {
    pub from: Secs,
    pub until: Secs,
    pub slowdown: f64,
}

/// Lock-hierarchy position of a link ledger (DESIGN.md §8). A leaf of
/// the simulation stack: pricing takes it with no other lock held and
/// acquires no ranked lock under it, so it sits above every lock a
/// future caller could hold while pricing (boards, ports, scheduler,
/// pfs tables, route shards) and below only the sync primitives' own
/// leaves.
static LEDGER_RANK: Rank = Rank::new(72, "sim.ledger");

/// One link's record: what a booking reads (fixed when the link is
/// made, but for `degraded`) beside what it writes, in one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Slot {
    latency: Secs,
    byte_time: Secs,
    /// Occupancy multiplier for bookings that had to queue (see
    /// [`Resource::with_contention`](crate::resource::Resource::with_contention)).
    contention: f64,
    next_free: Secs,
    /// Traffic counters (diagnostics): total bytes and messages.
    bytes: u64,
    messages: u64,
    /// "The link's window list is non-empty": the one reason a booking
    /// looks past the record.
    degraded: bool,
}

impl Slot {
    fn new(latency: Secs, byte_time: Secs, contention: f64) -> Self {
        check_contention(contention);
        Self { latency, byte_time, contention, next_free: 0.0, bytes: 0, messages: 0, degraded: false }
    }

    fn idle(&mut self) {
        (self.next_free, self.bytes, self.messages) = (0.0, 0, 0);
    }
}

/// The records of a set of links, behind one lock.
#[derive(Debug)]
pub struct LinkLedger {
    slots: Mutex<Vec<Slot>>,
}

impl LinkLedger {
    fn of(slots: Vec<Slot>) -> Arc<Self> {
        Arc::new(Self { slots: Mutex::ranked(&LEDGER_RANK, slots) })
    }

    /// One ledger and its links from `(latency, byte_time, contention)`
    /// triples, link `i` on slot `i` (how a machine instantiates its
    /// links: one ledger, every record filled in one pass under one
    /// acquisition of its lock).
    pub fn with_links(
        specs: impl IntoIterator<Item = (Secs, Secs, f64)>,
    ) -> (Arc<Self>, Vec<Link>) {
        let specs = specs.into_iter();
        let ledger = Self::of(Vec::with_capacity(specs.size_hint().0));
        let mut slots = ledger.slots.lock();
        let link = |(slot, (latency, byte_time, contention))| {
            slots.push(Slot::new(latency, byte_time, contention));
            Link::on(&ledger, slot, latency, byte_time)
        };
        let links = specs.enumerate().map(link).collect();
        drop(slots);
        (ledger, links)
    }

    /// Take the ledger lock for one pricing call.
    #[inline]
    pub fn lock(&self) -> LedgerGuard<'_> {
        LedgerGuard { slots: self.slots.lock() }
    }

    /// Idle every record: occupancy and counters to zero. The pricing
    /// fields and the `degraded` flags stay.
    pub fn reset(&self) {
        self.slots.lock().iter_mut().for_each(Slot::idle);
    }
}

/// The held ledger lock: books links until dropped.
pub struct LedgerGuard<'a> {
    slots: MutexGuard<'a, Vec<Slot>>,
}

impl LedgerGuard<'_> {
    /// Push `bytes` through the link on `slot`, with the head arriving
    /// at the link entrance at `head`. Returns `(start, finish)` of the
    /// occupancy — `start` is when the stream begins flowing on this
    /// link (so a downstream link may begin then), `finish` is when the
    /// last byte has crossed (queued messages on a contended link finish
    /// at the fair-share-degraded rate). `degraded` is asked for the
    /// slowdown at the occupancy's earliest start only when the record
    /// says a fault window is installed.
    #[inline]
    pub fn traverse(
        &mut self,
        slot: usize,
        head: Secs,
        bytes: u64,
        degraded: impl FnOnce(Secs) -> f64,
    ) -> (Secs, Secs) {
        let s = &mut self.slots[slot];
        let at = head + s.latency;
        let mut occ = bytes as f64 * s.byte_time;
        // Guarded so that, with no fault installed, the float arithmetic
        // is *bitwise-identical* to the fault-free code (no multiply by
        // 1.0 sneaks in).
        if s.degraded {
            occ *= degraded(at);
        }
        let span = book(&mut s.next_free, s.contention, at, occ);
        s.bytes += bytes;
        s.messages += 1;
        span
    }
}

/// One serially-shared wire/port/bus of the interconnect.
#[derive(Debug)]
pub struct Link {
    /// Time for the message head to appear at the far side.
    pub latency: Secs,
    /// Seconds per byte of occupancy (1 / bandwidth).
    pub byte_time: Secs,
    /// Where this link's record lives.
    ledger: Arc<LinkLedger>,
    slot: usize,
    /// Fault state. The record's `degraded` flag mirrors "the window
    /// list is non-empty", so a booking on a healthy link never comes
    /// here.
    faults: Mutex<Vec<Degrade>>,
    dead: AtomicBool,
}

impl Link {
    /// A standalone link on a one-slot ledger of its own.
    pub fn new(latency: Secs, byte_time: Secs) -> Self {
        Self::with_contention(latency, byte_time, 1.0)
    }

    /// A standalone link in fair-share contention mode: a message that
    /// has to queue behind pending traffic occupies `factor` times its
    /// serial byte time. `1.0` is plain FIFO packing.
    pub fn with_contention(latency: Secs, byte_time: Secs, factor: f64) -> Self {
        Self::on(&LinkLedger::of(vec![Slot::new(latency, byte_time, factor)]), 0, latency, byte_time)
    }

    fn on(ledger: &Arc<LinkLedger>, slot: usize, latency: Secs, byte_time: Secs) -> Self {
        let (ledger, faults) = (Arc::clone(ledger), Mutex::new(Vec::new()));
        Self { latency, byte_time, ledger, slot, faults, dead: AtomicBool::new(false) }
    }

    /// Book one message on this link alone (see
    /// [`LedgerGuard::traverse`]; paths take the lock once for all
    /// their links instead).
    pub fn traverse(&self, head: Secs, bytes: u64) -> (Secs, Secs) {
        self.ledger.lock().traverse(self.slot, head, bytes, |at| self.slowdown_at(at))
    }

    /// Product of the slowdowns of every installed window covering
    /// time `t` (1.0 when none does).
    pub fn slowdown_at(&self, t: Secs) -> f64 {
        let ws = self.faults.lock();
        ws.iter()
            .filter(|w| w.from <= t && t < w.until)
            .map(|w| w.slowdown)
            .product::<f64>()
            .max(1.0)
    }

    /// Install degradation windows (replacing any previous set). The
    /// windows are in this run's local virtual time; the fault layer
    /// handles epoch shifting.
    pub fn set_fault_windows(&self, windows: Vec<Degrade>) {
        let degraded = !windows.is_empty();
        *self.faults.lock() = windows;
        self.ledger.lock().slots[self.slot].degraded = degraded;
    }

    /// Mark the link permanently failed. The link still *prices*
    /// traffic (`traverse` works) — deciding what a dead route means is
    /// the wire layer's job (retransmit, then raise `LinkDead`).
    pub fn set_dead(&self, dead: bool) {
        self.dead.store(dead, Ordering::Relaxed);
    }

    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Remove every installed fault (degradation windows and the dead
    /// flag).
    pub fn clear_faults(&self) {
        self.set_fault_windows(Vec::new());
        self.dead.store(false, Ordering::Relaxed);
    }

    fn state(&self) -> Slot {
        self.ledger.lock().slots[self.slot]
    }

    /// The `(latency, byte_time)` this link's record books with
    /// (diagnostics / tests: the public fields, bit for bit).
    pub fn booked_terms(&self) -> (Secs, Secs) {
        let s = self.state();
        (s.latency, s.byte_time)
    }

    /// Next-free time (diagnostics / tests).
    pub fn horizon(&self) -> Secs {
        self.state().next_free
    }

    /// Total bytes that have crossed this link (diagnostics).
    pub fn bytes_carried(&self) -> u64 {
        self.state().bytes
    }

    /// Total messages that have crossed this link (diagnostics).
    pub fn messages_carried(&self) -> u64 {
        self.state().messages
    }

    /// Reset occupancy and counters to idle. Installed faults are
    /// *kept*: they belong to the fault layer, which re-installs or
    /// clears them around each run (`FaultSession::install` /
    /// `clear_faults`), while `reset` belongs to the world-reuse path
    /// that recycles a net between runs.
    pub fn reset(&self) {
        self.ledger.lock().slots[self.slot].idle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_traverse_costs_latency_plus_bytes() {
        let l = Link::new(1e-6, 1e-9); // 1 us, 1 GB/s
        let (start, finish) = l.traverse(0.0, 1000);
        assert!((start - 1e-6).abs() < 1e-15);
        assert!((finish - (1e-6 + 1e-6)).abs() < 1e-15);
    }

    #[test]
    fn contended_messages_serialize() {
        let l = Link::new(0.0, 1e-6); // 1 MB/s, zero latency
        let (_, f1) = l.traverse(0.0, 100);
        let (s2, f2) = l.traverse(0.0, 100);
        assert!((f1 - 1e-4).abs() < 1e-12);
        assert!((s2 - 1e-4).abs() < 1e-12);
        assert!((f2 - 2e-4).abs() < 1e-12);
    }

    #[test]
    fn zero_byte_message_costs_latency_only() {
        let l = Link::new(5e-6, 1e-9);
        let (s, f) = l.traverse(1.0, 0);
        assert_eq!(s, 1.0 + 5e-6);
        assert_eq!(s, f);
    }

    #[test]
    fn contended_link_messages_pay_the_fair_share_factor() {
        let l = Link::with_contention(0.0, 1e-6, 2.0); // 1 MB/s, factor 2
        let (_, f1) = l.traverse(0.0, 100);
        let (s2, f2) = l.traverse(0.0, 100);
        assert!((f1 - 1e-4).abs() < 1e-12);
        assert!((s2 - 1e-4).abs() < 1e-12);
        // queued message pays 2x its serial occupancy
        assert!((f2 - 3e-4).abs() < 1e-12);
    }

    #[test]
    fn degrade_window_scales_occupancy_only_inside_the_window() {
        let l = Link::new(0.0, 1e-6); // 1 MB/s
        l.set_fault_windows(vec![Degrade { from: 1.0, until: 2.0, slowdown: 4.0 }]);
        let (_, f) = l.traverse(0.0, 100); // outside the window
        assert!((f - 1e-4).abs() < 1e-12);
        l.reset();
        let (_, f) = l.traverse(1.5, 100); // inside: 4x occupancy
        assert!((f - (1.5 + 4e-4)).abs() < 1e-12);
        l.clear_faults();
        l.reset();
        let (_, f) = l.traverse(1.5, 100);
        assert!((f - (1.5 + 1e-4)).abs() < 1e-12);
    }

    #[test]
    fn overlapping_windows_multiply() {
        let l = Link::new(0.0, 1e-6);
        l.set_fault_windows(vec![
            Degrade { from: 0.0, until: 10.0, slowdown: 2.0 },
            Degrade { from: 0.0, until: 10.0, slowdown: 3.0 },
        ]);
        let (_, f) = l.traverse(0.0, 100);
        assert!((f - 6e-4).abs() < 1e-12);
    }

    #[test]
    fn dead_flag_round_trips_and_clears() {
        let l = Link::new(0.0, 1e-9);
        assert!(!l.is_dead());
        l.set_dead(true);
        assert!(l.is_dead());
        l.clear_faults();
        assert!(!l.is_dead());
    }

    #[test]
    fn reset_keeps_installed_faults() {
        let l = Link::new(0.0, 1e-6);
        l.set_fault_windows(vec![Degrade { from: 0.0, until: 10.0, slowdown: 2.0 }]);
        l.set_dead(true);
        l.reset();
        assert!(l.is_dead());
        let (_, f) = l.traverse(0.0, 100);
        assert!((f - 2e-4).abs() < 1e-12);
    }

    #[test]
    fn links_of_one_ledger_book_their_own_slots_under_one_lock() {
        // 0.25 s/byte: four bytes occupy exactly one second
        let (ledger, links) = LinkLedger::with_links([(0.0, 0.25, 1.0), (0.0, 0.25, 2.0)]);
        let [a, b] = &links[..] else { panic!("two specs, two links") };
        {
            let healthy = |_| unreachable!("no window installed");
            let mut g = ledger.lock();
            assert_eq!(g.traverse(0, 0.0, 4, healthy), (0.0, 1.0));
            assert_eq!(g.traverse(1, 0.0, 4, healthy), (0.0, 1.0));
            // queued on b: fair-share factor 2; a's bookings do not touch it
            assert_eq!(g.traverse(1, 0.0, 4, healthy), (1.0, 3.0));
        }
        assert_eq!((a.messages_carried(), b.messages_carried()), (1, 2));
        assert_eq!((a.horizon(), b.horizon()), (1.0, 3.0));
        a.reset();
        assert_eq!((a.horizon(), a.bytes_carried()), (0.0, 0));
        assert_eq!(b.bytes_carried(), 8, "resetting one link leaves its neighbours");
        ledger.reset();
        assert_eq!((b.horizon(), b.bytes_carried(), b.messages_carried()), (0.0, 0, 0));
    }

    /// One record is one cache line, and a reset idles it without
    /// touching what was fixed at construction or installed since.
    #[test]
    fn a_record_is_one_cache_line_and_reset_keeps_its_pricing_fields() {
        assert_eq!((std::mem::size_of::<Slot>(), std::mem::align_of::<Slot>()), (64, 64));
        let l = Link::with_contention(1e-6, 1e-9, 2.0);
        l.set_fault_windows(vec![Degrade { from: 0.0, until: 1.0, slowdown: 3.0 }]);
        l.traverse(0.0, 100);
        l.ledger.reset();
        let s = l.state();
        assert_eq!((s.latency, s.byte_time, s.contention, s.degraded), (1e-6, 1e-9, 2.0, true));
        assert_eq!((s.next_free, s.bytes, s.messages), (0.0, 0, 0));
    }

    #[test]
    fn traffic_counters_accumulate_and_reset() {
        let l = Link::new(0.0, 1e-9);
        l.traverse(0.0, 100);
        l.traverse(0.0, 200);
        assert_eq!(l.bytes_carried(), 300);
        assert_eq!(l.messages_carried(), 2);
        l.reset();
        assert_eq!(l.bytes_carried(), 0);
        assert_eq!(l.messages_carried(), 0);
    }
}
