//! Per-rank virtual clocks.
//!
//! Every rank owns a [`VClock`]: a plain counter of simulated seconds.
//! Virtual time only moves via explicit [`VClock::advance`] /
//! [`VClock::advance_to`] calls made by the MPI / I/O layers when they
//! apply modeled costs. Causality across ranks is carried by message
//! arrival timestamps (see `beff-mpi::engine`).

use crate::units::Secs;

/// Virtual clock: a monotone counter of simulated seconds.
#[derive(Debug, Clone, Default)]
pub struct VClock {
    t: Secs,
}

impl VClock {
    pub fn new() -> Self {
        Self { t: 0.0 }
    }

    /// Start the clock at a given virtual time (used when a rank joins a
    /// computation late, e.g. sub-communicators).
    pub fn starting_at(t: Secs) -> Self {
        Self { t }
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> Secs {
        self.t
    }

    /// Move the clock forward by `dt` seconds.
    #[inline]
    pub fn advance(&mut self, dt: Secs) {
        debug_assert!(dt >= 0.0, "negative advance: {dt}");
        self.t += dt;
    }

    /// Move the clock forward to `t` if `t` is in the future.
    #[inline]
    pub fn advance_to(&mut self, t: Secs) {
        if t > self.t {
            self.t = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vclock_advances() {
        let mut c = VClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        assert_eq!(c.now(), 1.5);
        c.advance_to(1.0); // never moves backwards
        assert_eq!(c.now(), 1.5);
        c.advance_to(2.0);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn vclock_starting_at() {
        let c = VClock::starting_at(7.0);
        assert_eq!(c.now(), 7.0);
    }
}
