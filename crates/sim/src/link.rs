//! Network links: latency + per-byte occupancy, booked on a
//! [`LinkLedger`].
//!
//! A ledger holds every link of one machine. Everything a booking reads
//! or writes of a link is one 64-byte record behind the ledger's lock:
//! the pricing fields (latency, byte time, fair-share factor, a
//! `degraded` flag) beside the dynamic ones (next-free time, traffic
//! counters) — one cache line a hop. The record owns the pricing
//! fields: written when the ledger is made and never again;
//! [`LinkLedger::reset`] idles the dynamic fields only. Installed
//! degradation windows sit under the same lock, looked up only when a
//! record says `degraded`. A [`Link`] is what is read *without* the
//! lock: a construction-time copy of latency and byte time for cost
//! queries, and the dead flag.
//!
//! Pricing a message takes the lock once and books every link of the
//! path under it ([`LedgerGuard::traverse`]), with the same arithmetic
//! a [`Resource`](crate::resource::Resource) applies to a single
//! next-free time. One lock is sound because simulated worlds are
//! token-serial (one rank prices at a time) and batch workers price on
//! machine replicas, so the ledger lock is never contended; it exists
//! to carry the bookings from one rank thread to the next.

use crate::resource::{book, check_contention};
use crate::units::Secs;
use beff_sync::{Mutex, MutexGuard, Rank};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

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

/// One link's record: what a booking reads (fixed when the ledger is
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
    /// "This slot has installed windows": the one reason a booking
    /// looks past the record.
    degraded: bool,
}

impl Slot {
    fn idle(&mut self) {
        (self.next_free, self.bytes, self.messages) = (0.0, 0, 0);
    }
}

/// What the ledger lock guards.
#[derive(Debug)]
struct Books {
    slots: Vec<Slot>,
    /// Installed degradation windows by slot: an entry exactly where
    /// the record says `degraded`.
    windows: BTreeMap<usize, Vec<Degrade>>,
}

/// One serially-shared wire/port/bus of the interconnect: what is read
/// of it without the ledger lock.
#[derive(Debug)]
pub struct Link {
    /// Time for the message head to appear at the far side.
    pub latency: Secs,
    /// Seconds per byte of occupancy (1 / bandwidth).
    pub byte_time: Secs,
    dead: AtomicBool,
}

impl Link {
    /// Mark the link permanently failed. The link still *prices*
    /// traffic (`traverse` works) — deciding what a dead route means is
    /// the wire layer's job (retransmit, then raise `LinkDead`).
    pub fn set_dead(&self, dead: bool) {
        self.dead.store(dead, Ordering::Relaxed);
    }

    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }
}

/// The links of one machine — link `i` books slot `i` — behind one
/// lock.
#[derive(Debug)]
pub struct LinkLedger {
    links: Vec<Link>,
    books: Mutex<Books>,
}

impl LinkLedger {
    /// An idle, healthy ledger of one link per `(latency, byte_time,
    /// contention)` triple — `contention` the fair-share factor: a
    /// message that has to queue behind pending traffic occupies that
    /// many times its serial byte time, `1.0` is plain FIFO packing.
    pub fn new(specs: impl IntoIterator<Item = (Secs, Secs, f64)>) -> Self {
        let (links, slots) = specs
            .into_iter()
            .map(|(latency, byte_time, contention)| {
                check_contention(contention);
                let (next_free, bytes, messages, degraded) = (0.0, 0, 0, false);
                (
                    Link { latency, byte_time, dead: AtomicBool::new(false) },
                    Slot { latency, byte_time, contention, next_free, bytes, messages, degraded },
                )
            })
            .unzip();
        let books = Books { slots, windows: BTreeMap::new() };
        Self { links, books: Mutex::ranked(&LEDGER_RANK, books) }
    }

    /// The lock-free side of every link, by slot.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Take the ledger lock for one pricing call.
    #[inline]
    pub fn lock(&self) -> LedgerGuard<'_> {
        LedgerGuard { books: self.books.lock() }
    }

    /// Book one message on one link alone (see
    /// [`LedgerGuard::traverse`]; paths take the lock once for all
    /// their links instead).
    pub fn traverse(&self, slot: usize, head: Secs, bytes: u64) -> (Secs, Secs) {
        self.lock().traverse(slot, head, bytes)
    }

    /// Install degradation windows on one link (replacing any previous
    /// set; none = healthy). The windows are in this run's local
    /// virtual time; the fault layer handles epoch shifting.
    pub fn set_fault_windows(&self, slot: usize, windows: Vec<Degrade>) {
        let books = &mut *self.books.lock();
        books.slots[slot].degraded = !windows.is_empty();
        if windows.is_empty() {
            books.windows.remove(&slot);
        } else {
            books.windows.insert(slot, windows);
        }
    }

    /// Remove every installed fault of every link (degradation windows
    /// and dead flags).
    pub fn clear_faults(&self) {
        let books = &mut *self.books.lock();
        for (slot, _) in std::mem::take(&mut books.windows) {
            books.slots[slot].degraded = false;
        }
        self.links.iter().for_each(|l| l.set_dead(false));
    }

    fn state(&self, slot: usize) -> Slot {
        self.books.lock().slots[slot]
    }

    /// The `(latency, byte_time)` a slot books with: the link's public
    /// fields, bit for bit.
    #[doc(hidden)]
    pub fn booked_terms(&self, slot: usize) -> (Secs, Secs) {
        let s = self.state(slot);
        (s.latency, s.byte_time)
    }

    /// Next-free time of one link (diagnostics / tests).
    pub fn horizon(&self, slot: usize) -> Secs {
        self.state(slot).next_free
    }

    /// Total bytes that have crossed one link (diagnostics).
    pub fn bytes_carried(&self, slot: usize) -> u64 {
        self.state(slot).bytes
    }

    /// Total messages that have crossed one link (diagnostics).
    pub fn messages_carried(&self, slot: usize) -> u64 {
        self.state(slot).messages
    }

    /// Idle one record: occupancy and counters to zero.
    pub fn reset_link(&self, slot: usize) {
        self.books.lock().slots[slot].idle();
    }

    /// Idle every record. The pricing fields stay, and so do installed
    /// faults: they belong to the fault layer, which re-installs or
    /// clears them around each run (`FaultSession::install` /
    /// `clear`), while `reset` belongs to the world-reuse path that
    /// recycles a net between runs.
    pub fn reset(&self) {
        self.books.lock().slots.iter_mut().for_each(Slot::idle);
    }
}

/// The held ledger lock: books links until dropped.
pub struct LedgerGuard<'a> {
    books: MutexGuard<'a, Books>,
}

impl LedgerGuard<'_> {
    /// Push `bytes` through the link on `slot`, with the head arriving
    /// at the link entrance at `head`. Returns `(start, finish)` of the
    /// occupancy — `start` is when the stream begins flowing on this
    /// link (so a downstream link may begin then), `finish` is when the
    /// last byte has crossed (queued messages on a contended link finish
    /// at the fair-share-degraded rate).
    #[inline]
    pub fn traverse(&mut self, slot: usize, head: Secs, bytes: u64) -> (Secs, Secs) {
        let Books { slots, windows } = &mut *self.books;
        let s = &mut slots[slot];
        let at = head + s.latency;
        let mut occ = bytes as f64 * s.byte_time;
        // Guarded so that, with no fault installed, the float arithmetic
        // is *bitwise-identical* to the fault-free code (no multiply by
        // 1.0 sneaks in).
        if s.degraded {
            occ *= slowdown_at(windows, slot, at);
        }
        let span = book(&mut s.next_free, s.contention, at, occ);
        s.bytes += bytes;
        s.messages += 1;
        span
    }
}

/// Product of the slowdowns of every window of `slot` covering time
/// `t` (1.0 when none does). Out of line: a healthy link never calls it.
#[cold]
#[inline(never)]
fn slowdown_at(windows: &BTreeMap<usize, Vec<Degrade>>, slot: usize, t: Secs) -> f64 {
    windows[&slot]
        .iter()
        .filter(|w| w.from <= t && t < w.until)
        .map(|w| w.slowdown)
        .product::<f64>()
        .max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ledger of one FIFO link, slot 0.
    fn wire(latency: Secs, byte_time: Secs) -> LinkLedger {
        LinkLedger::new([(latency, byte_time, 1.0)])
    }

    #[test]
    fn uncontended_traverse_costs_latency_plus_bytes() {
        let l = wire(1e-6, 1e-9); // 1 us, 1 GB/s
        let (start, finish) = l.traverse(0, 0.0, 1000);
        assert!((start - 1e-6).abs() < 1e-15);
        assert!((finish - (1e-6 + 1e-6)).abs() < 1e-15);
    }

    #[test]
    fn contended_messages_serialize() {
        let l = wire(0.0, 1e-6); // 1 MB/s, zero latency
        let (_, f1) = l.traverse(0, 0.0, 100);
        let (s2, f2) = l.traverse(0, 0.0, 100);
        assert!((f1 - 1e-4).abs() < 1e-12);
        assert!((s2 - 1e-4).abs() < 1e-12);
        assert!((f2 - 2e-4).abs() < 1e-12);
    }

    #[test]
    fn zero_byte_message_costs_latency_only() {
        let l = wire(5e-6, 1e-9);
        let (s, f) = l.traverse(0, 1.0, 0);
        assert_eq!(s, 1.0 + 5e-6);
        assert_eq!(s, f);
    }

    #[test]
    fn contended_link_messages_pay_the_fair_share_factor() {
        let l = LinkLedger::new([(0.0, 1e-6, 2.0)]); // 1 MB/s, factor 2
        let (_, f1) = l.traverse(0, 0.0, 100);
        let (s2, f2) = l.traverse(0, 0.0, 100);
        assert!((f1 - 1e-4).abs() < 1e-12);
        assert!((s2 - 1e-4).abs() < 1e-12);
        // queued message pays 2x its serial occupancy
        assert!((f2 - 3e-4).abs() < 1e-12);
    }

    #[test]
    fn degrade_window_scales_occupancy_only_inside_the_window() {
        let l = wire(0.0, 1e-6); // 1 MB/s
        l.set_fault_windows(0, vec![Degrade { from: 1.0, until: 2.0, slowdown: 4.0 }]);
        let (_, f) = l.traverse(0, 0.0, 100); // outside the window
        assert!((f - 1e-4).abs() < 1e-12);
        l.reset();
        let (_, f) = l.traverse(0, 1.5, 100); // inside: 4x occupancy
        assert!((f - (1.5 + 4e-4)).abs() < 1e-12);
        l.clear_faults();
        l.reset();
        let (_, f) = l.traverse(0, 1.5, 100);
        assert!((f - (1.5 + 1e-4)).abs() < 1e-12);
    }

    #[test]
    fn overlapping_windows_multiply() {
        let l = wire(0.0, 1e-6);
        let both = |slowdown| Degrade { from: 0.0, until: 10.0, slowdown };
        l.set_fault_windows(0, vec![both(2.0), both(3.0)]);
        let (_, f) = l.traverse(0, 0.0, 100);
        assert!((f - 6e-4).abs() < 1e-12);
    }

    #[test]
    fn dead_flag_round_trips_and_clears() {
        let l = wire(0.0, 1e-9);
        let link = &l.links()[0];
        assert!(!link.is_dead());
        link.set_dead(true);
        assert!(link.is_dead());
        l.clear_faults();
        assert!(!link.is_dead());
    }

    #[test]
    fn reset_keeps_installed_faults() {
        let l = wire(0.0, 1e-6);
        l.set_fault_windows(0, vec![Degrade { from: 0.0, until: 10.0, slowdown: 2.0 }]);
        l.links()[0].set_dead(true);
        l.reset();
        assert!(l.links()[0].is_dead());
        let (_, f) = l.traverse(0, 0.0, 100);
        assert!((f - 2e-4).abs() < 1e-12);
    }

    #[test]
    fn links_of_one_ledger_book_their_own_slots_under_one_lock() {
        // 0.25 s/byte: four bytes occupy exactly one second
        let l = LinkLedger::new([(0.0, 0.25, 1.0), (0.0, 0.25, 2.0)]);
        {
            let mut g = l.lock();
            assert_eq!(g.traverse(0, 0.0, 4), (0.0, 1.0));
            assert_eq!(g.traverse(1, 0.0, 4), (0.0, 1.0));
            // queued on 1: fair-share factor 2; 0's bookings do not touch it
            assert_eq!(g.traverse(1, 0.0, 4), (1.0, 3.0));
        }
        assert_eq!((l.messages_carried(0), l.messages_carried(1)), (1, 2));
        assert_eq!((l.horizon(0), l.horizon(1)), (1.0, 3.0));
        l.reset_link(0);
        assert_eq!((l.horizon(0), l.bytes_carried(0)), (0.0, 0));
        assert_eq!(l.bytes_carried(1), 8, "resetting one link leaves its neighbours");
        l.reset();
        assert_eq!((l.horizon(1), l.bytes_carried(1), l.messages_carried(1)), (0.0, 0, 0));
    }

    /// One record is one cache line, and a reset idles it without
    /// touching what was fixed at construction or installed since.
    #[test]
    fn a_record_is_one_cache_line_and_reset_keeps_its_pricing_fields() {
        assert_eq!((std::mem::size_of::<Slot>(), std::mem::align_of::<Slot>()), (64, 64));
        let l = LinkLedger::new([(1e-6, 1e-9, 2.0)]);
        l.set_fault_windows(0, vec![Degrade { from: 0.0, until: 1.0, slowdown: 3.0 }]);
        l.traverse(0, 0.0, 100);
        l.reset();
        let s = l.state(0);
        assert_eq!((s.latency, s.byte_time, s.contention, s.degraded), (1e-6, 1e-9, 2.0, true));
        assert_eq!((s.next_free, s.bytes, s.messages), (0.0, 0, 0));
    }

    #[test]
    fn traffic_counters_accumulate_and_reset() {
        let l = wire(0.0, 1e-9);
        l.traverse(0, 0.0, 100);
        l.traverse(0, 0.0, 200);
        assert_eq!(l.bytes_carried(0), 300);
        assert_eq!(l.messages_carried(0), 2);
        l.reset();
        assert_eq!(l.bytes_carried(0), 0);
        assert_eq!(l.messages_carried(0), 0);
    }
}
