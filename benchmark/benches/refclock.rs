//! The reference clock: how fast the host is running *right now*.
//!
//! On a shared host the CPU shifts between speed regimes that last from
//! a fraction of a second to minutes; a 20-second run lands in whichever
//! regime it meets, and run-to-run medians of any host timing spread by
//! 15–20 % (README, "Steadiness"). A fixed kernel — integer arithmetic
//! over a 512 kB array, touched once before the clock starts so that
//! what the workload left in the caches does not count — is therefore
//! timed between the operations of every workload, and an end-to-end
//! timing is reported as
//!
//! ```text
//! reported = measured × NOMINAL_S / reference time measured beside it
//! ```
//!
//! i.e. in seconds at the speed at which the kernel takes [`NOMINAL_S`]
//! (its usual time on the sizing host). The kernel never changes with
//! the code under test, so the ratio moves only when the measured code
//! does. The raw timing and the factor are kept in the result file.

use crate::stats::{self, Summary};
use std::time::Instant;

/// The kernel's time at the reference speed, seconds.
pub const NOMINAL_S: f64 = 0.0048;

const WORDS: usize = 1 << 16;
const PASSES: u64 = 128;

pub struct RefClock {
    words: Vec<u64>,
    samples: Vec<f64>,
}

impl RefClock {
    pub fn new() -> Self {
        Self {
            words: (0..WORDS as u64).collect(),
            samples: Vec::new(),
        }
    }

    fn pass(&mut self, salt: u64) -> u64 {
        let mut acc = 0u64;
        for x in self.words.iter_mut() {
            *x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(salt | 1);
            acc ^= *x >> 7;
        }
        acc
    }

    /// Time the kernel once; the sample is kept.
    pub fn sample(&mut self) -> f64 {
        let mut acc = self.pass(0);
        let t = Instant::now();
        for salt in 1..=PASSES {
            acc ^= self.pass(salt);
        }
        std::hint::black_box(acc);
        let s = t.elapsed().as_secs_f64();
        self.samples.push(s);
        s
    }

    /// Three samples in a row, for the edges of a long operation.
    pub fn sample3(&mut self) {
        for _ in 0..3 {
            self.sample();
        }
    }

    /// Position in the sample log, to scope a later factor.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// NOMINAL / median of the samples taken since `mark` (1 if none).
    pub fn factor_since(&self, mark: usize) -> f64 {
        factor_of(self.samples.get(mark..).unwrap_or(&[]))
    }

    /// The factor for work done between sample `at - 1` and sample
    /// `at`: from the `reach` samples before it and the `reach` after.
    pub fn factor_around(&self, at: usize, reach: usize) -> f64 {
        let lo = at.saturating_sub(reach).min(self.samples.len());
        let hi = (at + reach).min(self.samples.len());
        factor_of(&self.samples[lo..hi])
    }

    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }

    /// What the clock saw during the run, for a result file's notes.
    pub fn note(&self) -> String {
        let s = self.summary();
        format!(
            "reference clock: {} samples, median {:.3} ms (q1 {:.3}, q3 {:.3}) against a nominal {:.3} ms: factor {:.3}",
            s.n,
            s.median * 1e3,
            s.q1 * 1e3,
            s.q3 * 1e3,
            NOMINAL_S * 1e3,
            self.factor_since(0)
        )
    }
}

fn factor_of(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        1.0
    } else {
        NOMINAL_S / stats::median(samples).max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_scale_measured_time_to_the_nominal_speed() {
        let mut c = RefClock::new();
        assert_eq!(c.factor_since(0), 1.0, "no samples, no correction");
        c.samples = vec![NOMINAL_S * 2.0, NOMINAL_S * 2.0, NOMINAL_S, NOMINAL_S / 2.0];
        // a host running at half speed: measured time counts half
        assert!((c.factor_since(0) - 1.0 / 1.5).abs() < 1e-12);
        let near = |got: f64, want: f64| (got - want).abs() < 1e-12;
        assert!(near(c.factor_around(1, 2), 0.5), "samples 0..=2");
        assert!(near(c.factor_around(2, 2), 1.0 / 1.5), "samples 0..=3");
        assert!(near(c.factor_around(4, 2), 1.0 / 0.75), "samples 2..=3");
        assert!(near(c.factor_around(3, 1), 1.0 / 0.75), "samples 2..=3");
        assert!((c.factor_since(3) - 2.0).abs() < 1e-12);
        assert_eq!(c.factor_since(9), 1.0);
        assert_eq!(c.mark(), 4);
    }

    #[test]
    fn the_kernel_runs_and_keeps_its_samples() {
        let mut c = RefClock::new();
        assert!(c.sample() > 0.0);
        c.sample3();
        assert_eq!(c.summary().n, 4);
        assert!(c.factor_since(0) > 0.0);
    }
}
