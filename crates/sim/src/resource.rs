//! Generic next-free-time reservation — the single contention primitive
//! of the whole simulation.
//!
//! A [`Resource`] is anything that serializes work in time: a network
//! link, a disk, an I/O server CPU, a memory bus. Callers ask to occupy
//! it for `duration` seconds starting no earlier than `earliest`; the
//! resource answers with the actual start time (max of `earliest` and
//! its previous next-free time) and remembers the new next-free time.
//!
//! Reservation order follows the deterministic token scheduler's rank
//! interleaving, which is a pure function of the program's own
//! communication structure — so contended results are bit-identical
//! across runs (DESIGN.md §3, *Simulator execution model*).
//!
//! ## Fair-share contention mode
//!
//! Plain next-free-time booking packs queued reservations back-to-back:
//! K overlapping streams deliver the resource's full aggregate rate.
//! Real shared wires do not — arbitration, packet framing and
//! fair-share scheduling cost throughput once independent agents
//! contend. [`Resource::with_contention`] models that: a reservation
//! that arrives while the resource is still busy (it had to queue) is
//! billed `duration * factor` instead of `duration`, so K simultaneous
//! streams serialize at `rate / factor` while a lone stream still sees
//! the full rate. The factor is a per-machine calibration constant
//! (`NetParams::contention` in beff-netsim); `1.0` reproduces plain
//! FIFO packing bit-for-bit.
//!
//! The scheme is work-conserving (the resource never idles while work
//! is queued) and, for a batch of equal-length requests wanting the
//! same start time, order-independent: the booked finish times are the
//! same multiset regardless of the order the scheduler books them in.

use crate::units::Secs;
use beff_sync::Mutex;

/// A serially-reusable resource with a next-free-time.
#[derive(Debug)]
pub struct Resource {
    next_free: Mutex<Secs>,
    /// Occupancy multiplier applied to reservations that had to queue
    /// (fair-share contention mode); 1.0 = ideal FIFO packing.
    contention: f64,
}

/// The booking arithmetic itself, on a caller-held next-free time:
/// [`Resource::reserve_span`] applies it under the resource's own lock,
/// the link ledger ([`crate::link::LinkLedger`]) and the filesystem
/// ledger (`beff_pfs::Pfs`) to one slot under their ledger lock. One
/// definition, so they can never drift apart by a rounding.
#[inline]
pub fn book(
    next_free: &mut Secs,
    contention: f64,
    earliest: Secs,
    duration: Secs,
) -> (Secs, Secs) {
    debug_assert!(duration >= 0.0, "negative duration {duration}");
    let start = earliest.max(*next_free);
    // Queued behind pending work ⇒ contended ⇒ fair-share billing.
    let occupancy = if *next_free > earliest { duration * contention } else { duration };
    let finish = start + occupancy;
    *next_free = finish;
    (start, finish)
}

/// A fair-share factor must be finite and ≥ 1.0.
pub(crate) fn check_contention(factor: f64) {
    assert!(
        factor.is_finite() && factor >= 1.0,
        "contention factor must be finite and >= 1.0, got {factor}"
    );
}

impl Default for Resource {
    fn default() -> Self {
        Self::new()
    }
}

impl Resource {
    pub fn new() -> Self {
        Self::with_contention(1.0)
    }

    /// A resource in fair-share contention mode: reservations that
    /// arrive while the resource is busy occupy `duration * factor`.
    /// `factor` must be finite and ≥ 1.0; `1.0` is byte-identical to
    /// [`Resource::new`].
    pub fn with_contention(factor: f64) -> Self {
        check_contention(factor);
        Self { next_free: Mutex::new(0.0), contention: factor }
    }

    /// The configured contention factor.
    pub fn contention(&self) -> f64 {
        self.contention
    }

    /// Reserve the resource for `duration` seconds, starting no earlier
    /// than `earliest`. Returns the actual start time.
    pub fn reserve(&self, earliest: Secs, duration: Secs) -> Secs {
        self.reserve_span(earliest, duration).0
    }

    /// Like [`reserve`](Self::reserve) but returns `(start, finish)` of
    /// the booked occupancy. In fair-share mode a queued reservation's
    /// finish is `start + duration * factor`, so callers that need the
    /// real finish time must use this (or
    /// [`reserve_finish`](Self::reserve_finish)) rather than adding
    /// `duration` themselves.
    pub fn reserve_span(&self, earliest: Secs, duration: Secs) -> (Secs, Secs) {
        book(&mut self.next_free.lock(), self.contention, earliest, duration)
    }

    /// Like [`reserve`](Self::reserve) but returns the *finish* time,
    /// which is what most cost computations want.
    #[inline]
    pub fn reserve_finish(&self, earliest: Secs, duration: Secs) -> Secs {
        self.reserve_span(earliest, duration).1
    }

    /// Current next-free time (for drain/sync style queries).
    pub fn horizon(&self) -> Secs {
        *self.next_free.lock()
    }

    /// Reset to idle at t=0 (used between benchmark repetitions in
    /// tests; production runs never rewind time).
    pub fn reset(&self) {
        *self.next_free.lock() = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_reservations_serialize() {
        let r = Resource::new();
        assert_eq!(r.reserve(0.0, 1.0), 0.0);
        // Asked for t=0 again, but the resource is busy until t=1.
        assert_eq!(r.reserve(0.0, 1.0), 1.0);
        assert_eq!(r.horizon(), 2.0);
    }

    #[test]
    fn idle_gap_is_respected() {
        let r = Resource::new();
        r.reserve(0.0, 1.0);
        // Arriving later than the horizon starts immediately.
        assert_eq!(r.reserve(5.0, 2.0), 5.0);
        assert_eq!(r.horizon(), 7.0);
    }

    #[test]
    fn reserve_finish_is_start_plus_duration() {
        let r = Resource::new();
        assert_eq!(r.reserve_finish(3.0, 2.0), 5.0);
        assert_eq!(r.reserve_finish(0.0, 1.0), 6.0);
    }

    #[test]
    fn zero_duration_reservation_is_ok() {
        let r = Resource::new();
        assert_eq!(r.reserve(1.0, 0.0), 1.0);
        assert_eq!(r.horizon(), 1.0);
    }

    #[test]
    fn reset_rewinds() {
        let r = Resource::new();
        r.reserve(0.0, 10.0);
        r.reset();
        assert_eq!(r.horizon(), 0.0);
    }

    #[test]
    fn contended_reservations_inflate_by_the_factor() {
        let r = Resource::with_contention(2.0);
        // First stream: uncontended, full rate.
        assert_eq!(r.reserve_span(0.0, 1.0), (0.0, 1.0));
        // Second stream wanted t=0 but had to queue: pays 2x.
        assert_eq!(r.reserve_span(0.0, 1.0), (1.0, 3.0));
        assert_eq!(r.reserve_span(0.0, 1.0), (3.0, 5.0));
        // A later arrival on an idle resource is uncontended again.
        assert_eq!(r.reserve_span(10.0, 1.0), (10.0, 11.0));
    }

    #[test]
    fn arrival_exactly_at_horizon_is_uncontended() {
        // No queueing happened: the stream arrived as the wire went
        // idle, so fair-share billing does not apply.
        let r = Resource::with_contention(3.0);
        r.reserve(0.0, 1.0);
        assert_eq!(r.reserve_span(1.0, 1.0), (1.0, 2.0));
    }

    #[test]
    fn factor_one_is_bitwise_identical_to_plain_fifo() {
        // The contention-factor=1.0 path must reproduce the plain
        // next-free-time arithmetic bit-for-bit: this is what keeps the
        // golden results byte-identical after the fair-share change.
        let plain = Resource::new();
        let faired = Resource::with_contention(1.0);
        let mut reference_nf: f64 = 0.0;
        let reqs: [(f64, f64); 6] = [
            (0.0, 1.5),
            (0.3, 0.7),
            (10.0, 1e-6),
            (9.999999, 3.25),
            (11.0, 0.0),
            (0.1, 123.456),
        ];
        for &(earliest, dur) in &reqs {
            // Reference: the pre-fair-share implementation.
            let ref_start = earliest.max(reference_nf);
            reference_nf = ref_start + dur;
            let (ps, pf) = plain.reserve_span(earliest, dur);
            let (fs, ff) = faired.reserve_span(earliest, dur);
            assert_eq!(ps.to_bits(), ref_start.to_bits());
            assert_eq!(pf.to_bits(), reference_nf.to_bits());
            assert_eq!(fs.to_bits(), ref_start.to_bits());
            assert_eq!(ff.to_bits(), reference_nf.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "contention factor")]
    fn sub_unity_factor_rejected() {
        Resource::with_contention(0.5);
    }

    #[test]
    fn concurrent_reservations_never_overlap() {
        use std::sync::Arc;
        let r = Arc::new(Resource::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let mut spans = Vec::new();
                for _ in 0..100 {
                    let s = r.reserve(0.0, 0.5);
                    spans.push((s, s + 0.5));
                }
                spans
            }));
        }
        let mut all: Vec<(f64, f64)> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in all.windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-9, "overlapping spans {w:?}");
        }
        assert_eq!(r.horizon(), 8.0 * 100.0 * 0.5);
    }
}
