//! b_eff result assembly: the averaging rule of §4 and the detailed
//! protocol report.

use super::rings::RingLayout;
use crate::logavg::{logavg, logavg2, mean};
use beff_json::{Json, ToJson};

/// Results of one communication pattern.
#[derive(Debug, Clone)]
pub struct PatternResult {
    pub name: String,
    pub random: bool,
    pub ring_sizes: RingLayout,
    /// Best bandwidth (max over methods and repetitions) per message
    /// size, MByte/s aggregate.
    pub curve: Vec<f64>,
}

impl PatternResult {
    /// `sum_L(max_mthd(max_rep(b)))/21` — the per-pattern average.
    pub fn avg_over_sizes(&self) -> f64 {
        mean(&self.curve)
    }

    /// Bandwidth at the maximum message size only.
    pub fn at_lmax(&self) -> f64 {
        *self.curve.last().unwrap_or(&0.0)
    }
}

impl ToJson for PatternResult {
    fn to_json(&self) -> Json {
        Json::object()
            .field("name", &self.name)
            .field("random", &self.random)
            .field("ring_sizes", &self.ring_sizes)
            .field("curve", &self.curve)
            .build()
    }
}

/// An additional (non-averaged) diagnostic pattern.
#[derive(Debug, Clone)]
pub struct ExtraResult {
    pub name: String,
    /// Aggregate bandwidth at L_max, MByte/s.
    pub mbps: f64,
}

impl ToJson for ExtraResult {
    fn to_json(&self) -> Json {
        Json::object().field("name", &self.name).field("mbps", &self.mbps).build()
    }
}

/// The complete b_eff result for one machine/partition.
#[derive(Debug, Clone)]
pub struct BeffResult {
    pub nprocs: usize,
    pub mem_per_proc: u64,
    pub lmax: u64,
    pub sizes: Vec<u64>,
    pub patterns: Vec<PatternResult>,
    /// The single number: logavg(logavg(rings), logavg(randoms)).
    pub beff: f64,
    pub beff_per_proc: f64,
    /// Same combination using only the L_max column.
    pub beff_at_lmax: f64,
    pub beff_per_proc_at_lmax: f64,
    /// Ring patterns only, at L_max, per process (Table 1 last column).
    pub ring_per_proc_at_lmax: f64,
    /// One-way ping-pong bandwidth at L_max (rank 0 ↔ 1).
    pub pingpong_mbps: f64,
    pub extras: Vec<ExtraResult>,
}

impl ToJson for BeffResult {
    fn to_json(&self) -> Json {
        Json::object()
            .field("nprocs", &self.nprocs)
            .field("mem_per_proc", &self.mem_per_proc)
            .field("lmax", &self.lmax)
            .field("sizes", &self.sizes)
            .field("patterns", &self.patterns)
            .field("beff", &self.beff)
            .field("beff_per_proc", &self.beff_per_proc)
            .field("beff_at_lmax", &self.beff_at_lmax)
            .field("beff_per_proc_at_lmax", &self.beff_per_proc_at_lmax)
            .field("ring_per_proc_at_lmax", &self.ring_per_proc_at_lmax)
            .field("pingpong_mbps", &self.pingpong_mbps)
            .field("extras", &self.extras)
            .build()
    }
}

impl BeffResult {
    /// Apply the §4 averaging definition to per-pattern curves.
    pub fn assemble(
        nprocs: usize,
        mem_per_proc: u64,
        lmax: u64,
        sizes: Vec<u64>,
        patterns: Vec<PatternResult>,
        pingpong_mbps: f64,
        extras: Vec<ExtraResult>,
    ) -> Self {
        let ring_avgs: Vec<f64> =
            patterns.iter().filter(|p| !p.random).map(|p| p.avg_over_sizes()).collect();
        let rand_avgs: Vec<f64> =
            patterns.iter().filter(|p| p.random).map(|p| p.avg_over_sizes()).collect();
        let beff = logavg2(logavg(&ring_avgs), logavg(&rand_avgs));

        let ring_lmax: Vec<f64> =
            patterns.iter().filter(|p| !p.random).map(|p| p.at_lmax()).collect();
        let rand_lmax: Vec<f64> =
            patterns.iter().filter(|p| p.random).map(|p| p.at_lmax()).collect();
        let beff_at_lmax = logavg2(logavg(&ring_lmax), logavg(&rand_lmax));
        let ring_only = logavg(&ring_lmax);

        let n = nprocs as f64;
        Self {
            nprocs,
            mem_per_proc,
            lmax,
            sizes,
            patterns,
            beff,
            beff_per_proc: beff / n,
            beff_at_lmax,
            beff_per_proc_at_lmax: beff_at_lmax / n,
            ring_per_proc_at_lmax: ring_only / n,
            pingpong_mbps,
            extras,
        }
    }

    /// Detailed measurement protocol (per-pattern curves + summary),
    /// the "benchmark protocol" the paper requires to be reported.
    pub fn protocol(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "b_eff protocol: {} processes, L_max = {} bytes", self.nprocs, self.lmax);
        let _ = writeln!(s, "message sizes: {:?}", self.sizes);
        for p in &self.patterns {
            let _ = writeln!(
                s,
                "  {:<24} rings {:?}  avg {:8.1} MB/s  at Lmax {:8.1} MB/s",
                p.name,
                p.ring_sizes,
                p.avg_over_sizes(),
                p.at_lmax()
            );
            let _ = writeln!(
                s,
                "    curve: {}",
                p.curve.iter().map(|v| format!("{v:.1}")).collect::<Vec<_>>().join(" ")
            );
        }
        for e in &self.extras {
            let _ = writeln!(s, "  extra {:<28} {:10.1} MB/s", e.name, e.mbps);
        }
        let _ = writeln!(s, "ping-pong (L_max, one-way): {:.1} MB/s", self.pingpong_mbps);
        let _ = writeln!(
            s,
            "b_eff = {:.0} MB/s ({:.1}/proc); at Lmax = {:.0} ({:.1}/proc); rings at Lmax {:.1}/proc",
            self.beff,
            self.beff_per_proc,
            self.beff_at_lmax,
            self.beff_per_proc_at_lmax,
            self.ring_per_proc_at_lmax
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beff::rings::ring_sizes;

    fn pat(name: &str, random: bool, curve: Vec<f64>) -> PatternResult {
        PatternResult { name: name.into(), random, ring_sizes: ring_sizes(2, 2), curve }
    }

    #[test]
    fn assemble_applies_two_level_logavg() {
        // rings average to logavg(4, 16) = 8; randoms to logavg(1, 4) = 2
        // final: logavg(8, 2) = 4
        let patterns = vec![
            pat("r1", false, vec![4.0]),
            pat("r2", false, vec![16.0]),
            pat("x1", true, vec![1.0]),
            pat("x2", true, vec![4.0]),
        ];
        let r = BeffResult::assemble(2, 1 << 30, 1, vec![1], patterns, 0.0, vec![]);
        assert!((r.beff - 4.0).abs() < 1e-9);
        assert!((r.beff_per_proc - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ring_and_random_families_weigh_equally() {
        // 1 ring pattern vs 3 random patterns: families still 50/50
        let patterns = vec![
            pat("r1", false, vec![100.0]),
            pat("x1", true, vec![1.0]),
            pat("x2", true, vec![1.0]),
            pat("x3", true, vec![1.0]),
        ];
        let r = BeffResult::assemble(1, 1 << 30, 1, vec![1], patterns, 0.0, vec![]);
        assert!((r.beff - 10.0).abs() < 1e-9); // logavg(100, 1)
    }

    #[test]
    fn avg_over_sizes_is_arithmetic_mean() {
        let p = pat("r", false, vec![10.0, 20.0, 30.0]);
        assert!((p.avg_over_sizes() - 20.0).abs() < 1e-12);
        assert_eq!(p.at_lmax(), 30.0);
    }

    #[test]
    fn lmax_column_values() {
        let patterns = vec![
            pat("r1", false, vec![1.0, 8.0]),
            pat("x1", true, vec![1.0, 2.0]),
        ];
        let r = BeffResult::assemble(4, 1 << 30, 2, vec![1, 2], patterns, 330.0, vec![]);
        assert!((r.beff_at_lmax - 4.0).abs() < 1e-9); // logavg(8, 2)
        assert!((r.ring_per_proc_at_lmax - 2.0).abs() < 1e-9); // 8/4
        assert_eq!(r.pingpong_mbps, 330.0);
    }

    #[test]
    fn protocol_renders() {
        let patterns = vec![pat("ring-1", false, vec![5.0]), pat("random-1", true, vec![5.0])];
        let r = BeffResult::assemble(2, 1 << 30, 1, vec![1], patterns, 10.0, vec![
            ExtraResult { name: "ping-pong".into(), mbps: 10.0 },
        ]);
        let text = r.protocol();
        assert!(text.contains("b_eff"));
        assert!(text.contains("ring-1"));
        assert!(text.contains("ping-pong"));
    }
}
