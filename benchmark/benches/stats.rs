//! Pure statistics and load-generation helpers: order statistics, the
//! Zipf sampler, the Poisson arrival schedule and the open-loop queue
//! rule. Everything here is a function of its arguments only, so the
//! tests can pin it.

use beff_sim::Rng64;

/// Ascending copy of `values` (NaN-safe total order).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
/// Empty input reads 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let h = q.clamp(0.0, 1.0) * last as f64;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them — the rule the noise acceptance
/// check is stated in. `None` below two samples.
pub fn quartiles_exclusive(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Inter-quartile distance as a share of the median (the "spread" of
/// the acceptance rule); 0 when undefined.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles_exclusive(values) {
        Some([q1, _, q3]) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1) / m.abs()
            }
        }
        None => 0.0,
    }
}

/// Median with quartiles and sample count: how every timing is
/// reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let v = sorted(values);
        Self {
            n: v.len(),
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
        }
    }

    pub fn scaled(self, k: f64) -> Self {
        Self {
            n: self.n,
            q1: self.q1 * k,
            median: self.median * k,
            q3: self.q3 * k,
        }
    }
}

/// FNV-1a 64 (`beff_serve::fnv1a64`) of the parts laid end to end, as
/// 16 hex digits: how a `virtual` block names a set of result bytes.
pub fn digest_hex<'a>(parts: impl IntoIterator<Item = &'a str>) -> String {
    let joined: String = parts.into_iter().collect();
    format!("{:016x}", beff_serve::fnv1a64(joined.as_bytes()))
}

/// (max, mean) of non-negative values; (0, 0) for none.
pub fn max_and_mean(values: &[f64]) -> (f64, f64) {
    let max = values.iter().copied().fold(0.0, f64::max);
    (max, values.iter().sum::<f64>() / values.len().max(1) as f64)
}

/// Run `f`; what it returns and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Zipf(s = 1) over ranks `0..n`: rank k has weight 1/(k+1).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64 / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    /// The rank a uniform draw `u` in [0,1) selects.
    pub fn rank_of(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len().saturating_sub(1))
    }

    pub fn sample(&self, rng: &mut Rng64) -> usize {
        self.rank_of(rng.f64())
    }
}

/// Due times (seconds from 0) of `n` Poisson arrivals at `rate` per
/// second: cumulative exponential gaps from the seeded generator.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = Rng64::new(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.f64()).ln() / rate;
            t
        })
        .collect()
}

/// The open-loop rule on a single server: request *i* is due at
/// `due[i]`, starts at max(due, previous completion) and takes
/// `service[i]`. Returns per request `(lateness, latency)` where
/// lateness = start − due (queue wait) and latency = completion − due.
pub fn open_loop(due: &[f64], service: &[f64]) -> Vec<(f64, f64)> {
    let mut done = 0.0f64;
    due.iter()
        .zip(service)
        .map(|(&d, &s)| {
            let start = d.max(done);
            done = start + s;
            (start - d, done - d)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles_exclusive(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles_exclusive(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn digest_is_fnv_of_the_concatenation() {
        let want = format!("{:016x}", beff_serve::fnv1a64(b"hello world"));
        assert_eq!(digest_hex(["hello ", "world"]), want);
        assert_eq!(max_and_mean(&[1.0, 3.0]), (3.0, 2.0));
        assert_eq!(max_and_mean(&[]), (0.0, 0.0));
        assert_eq!(timed(|| 7).0, 7);
    }

    #[test]
    fn zipf_is_a_pure_function_of_the_seed_and_favours_low_ranks() {
        let z = Zipf::new(96);
        let draw = |seed| {
            let mut rng = Rng64::new(seed);
            (0..10_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let d = draw(7);
        let count = |k| d.iter().filter(|&&r| r == k).count() as f64;
        // weight(0) / weight(1) = 2
        assert!((count(0) / count(1) - 2.0).abs() < 0.25);
        assert!(d.iter().all(|&r| r < 96));
        assert_eq!(z.rank_of(0.0), 0);
        assert_eq!(z.rank_of(0.999_999_999), 95);
    }

    #[test]
    fn poisson_schedule_is_seeded_monotone_and_has_the_rate() {
        let a = poisson_schedule(1, 400.0, 20_000);
        assert_eq!(a, poisson_schedule(1, 400.0, 20_000));
        assert_ne!(a, poisson_schedule(2, 400.0, 20_000));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate / 400.0 - 1.0).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn open_loop_starts_at_max_of_due_and_previous_completion() {
        // due:      0    1    2    10
        // service:  3    1    1    1
        // start:    0    3    4    10      done: 3 4 5 11
        let out = open_loop(&[0.0, 1.0, 2.0, 10.0], &[3.0, 1.0, 1.0, 1.0]);
        assert_eq!(out, vec![(0.0, 3.0), (2.0, 3.0), (2.0, 3.0), (0.0, 1.0)]);
    }
}
