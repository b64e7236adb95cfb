//! Time-driven measurement core of b_eff: the looplength control
//! ("looplength = 300 for the shortest message … reduced dynamically to
//! achieve an execution time between 2.5 and 5 msec, minimum 1") and
//! the bandwidth formula
//! `b = L · messages · looplength / max-time-over-ranks`.

use super::methods::{Transfers, METHODS};
use super::run::BeffConfig;
use beff_json::{Json, ToJson};
use beff_mpi::{Comm, ReduceOp};
use beff_netsim::{Secs, MB};

/// Loop/repetition schedule.
#[derive(Debug, Clone, Copy)]
pub struct MeasureSchedule {
    /// Starting looplength for the shortest message (paper: 300).
    pub loop_start: u32,
    /// Lower edge of the per-loop time window (paper: 2.5 ms).
    pub loop_min_time: Secs,
    /// Upper edge (paper: 5 ms).
    pub loop_max_time: Secs,
    /// Repetitions per measurement, best taken (paper: 3).
    pub reps: u32,
}

impl ToJson for MeasureSchedule {
    fn to_json(&self) -> Json {
        Json::object()
            .field("loop_start", &self.loop_start)
            .field("loop_min_time", &self.loop_min_time)
            .field("loop_max_time", &self.loop_max_time)
            .field("reps", &self.reps)
            .build()
    }
}

impl MeasureSchedule {
    /// The paper's schedule (3–5 wall minutes on period hardware).
    pub fn paper() -> Self {
        Self { loop_start: 300, loop_min_time: 2.5e-3, loop_max_time: 5e-3, reps: 3 }
    }

    /// A scaled-down schedule for CI and large simulated machines.
    pub fn quick() -> Self {
        Self { loop_start: 8, loop_min_time: 2.5e-3, loop_max_time: 5e-3, reps: 1 }
    }

    /// Adapt the looplength after observing `dt` seconds for
    /// `looplength` iterations.
    pub fn adapt(&self, looplength: u32, dt: Secs) -> u32 {
        if dt <= 0.0 {
            return looplength;
        }
        let per_iter = dt / looplength as f64;
        let target = 0.5 * (self.loop_min_time + self.loop_max_time);
        let next = (target / per_iter).floor();
        (next as u32).clamp(1, self.loop_start)
    }
}

/// One pattern's measured curve.
#[derive(Debug, Clone)]
pub struct PatternCurve {
    /// Best MByte/s per message size; a trip truncates it.
    pub curve: Vec<f64>,
    /// A point's max-over-ranks loop time exceeded the watchdog budget.
    pub tripped: bool,
    /// Largest `dt_max / dt_min` over the points (1.0 without a watchdog).
    pub max_spread: f64,
}

/// Measure one pattern with this rank's `(left, right)` in it: for each
/// size, the best over methods × reps of the formula, adapting the
/// looplength after every point. `messages` is the total message count
/// per iteration over all ranks (2·n for rings). Collective: every rank
/// calls it.
///
/// With a `watchdog` budget every point also allreduces the minimum
/// loop time (the straggler spread), and a point whose allreduced
/// maximum exceeds the budget ends the curve on every rank alike.
/// Without one, a point costs one barrier and one allreduce.
pub fn pattern_curve(
    comm: &mut Comm,
    tr: &mut Transfers,
    cfg: &BeffConfig,
    sizes: &[u64],
    messages: u64,
    (left, right): (usize, usize),
    watchdog: Option<Secs>,
) -> PatternCurve {
    let schedule = &cfg.schedule;
    let mut looplength = schedule.loop_start;
    let mut out =
        PatternCurve { curve: Vec::with_capacity(sizes.len()), tripped: false, max_spread: 1.0 };
    for &len in sizes {
        let mut best = 0.0f64;
        for method in METHODS {
            for _rep in 0..schedule.reps {
                comm.barrier();
                let t0 = comm.now();
                for _ in 0..looplength {
                    tr.ring_iteration(comm, method, left, right, len);
                }
                let dt_local = comm.now() - t0;
                let dt = comm.allreduce_scalar(dt_local, ReduceOp::Max);
                if let Some(budget) = watchdog {
                    let dt_min = comm.allreduce_scalar(dt_local, ReduceOp::Min);
                    if dt_min > 0.0 {
                        out.max_spread = out.max_spread.max(dt / dt_min);
                    }
                    if dt > budget {
                        out.tripped = true;
                        return out;
                    }
                }
                let bytes = len as f64 * messages as f64 * looplength as f64;
                best = best.max(bytes / MB as f64 / dt.max(1e-12));
                looplength = schedule.adapt(looplength, dt);
            }
        }
        out.curve.push(best);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schedule_values() {
        let s = MeasureSchedule::paper();
        assert_eq!(s.loop_start, 300);
        assert_eq!(s.reps, 3);
        assert_eq!(s.loop_min_time, 2.5e-3);
    }

    #[test]
    fn adapt_shrinks_long_loops() {
        let s = MeasureSchedule::paper();
        // 300 iterations took 3 s: ~10 ms each; target 3.75 ms -> 1
        assert_eq!(s.adapt(300, 3.0), 1);
        // 300 iterations in 1 ms: plenty of headroom, clamped at start
        assert_eq!(s.adapt(300, 1e-3), 300);
    }

    #[test]
    fn adapt_stays_in_window() {
        let s = MeasureSchedule::paper();
        // 100 iters in 2.5 ms -> 25 us/iter -> target 3.75 ms -> 150
        assert_eq!(s.adapt(100, 2.5e-3), 150);
        // degenerate zero time: unchanged
        assert_eq!(s.adapt(42, 0.0), 42);
    }

    #[test]
    fn adapt_never_below_one() {
        let s = MeasureSchedule::quick();
        assert_eq!(s.adapt(1, 100.0), 1);
    }

    #[test]
    fn pattern_curve_agrees_across_ranks_and_trips_on_its_budget() {
        use beff_netsim::{MachineNet, NetParams, Topology};
        let cfg = BeffConfig::quick(64 * MB);
        let run = |watchdog| {
            let net = MachineNet::new(Topology::Crossbar { procs: 2 }, NetParams::default());
            beff_mpi::World::sim(std::sync::Arc::new(net)).run(|c| {
                let peer = 1 - c.rank();
                let mut tr = Transfers::new(c, 1 << 16);
                pattern_curve(c, &mut tr, &cfg, &[1 << 10, 1 << 16], 4, (peer, peer), watchdog)
            })
        };
        let free = run(None);
        assert_eq!(free[0].curve, free[1].curve, "ranks agree on the reduced curve");
        assert!(free[0].curve.len() == 2 && !free[0].tripped && free[0].max_spread == 1.0);
        // cannot exceed 2 ports x 300 MB/s on the default model
        assert!(free[0].curve[1] < 2.0 * 300.0 * 1.1, "curve={:?}", free[0].curve);
        // a generous budget measures the same points, up to the rounding
        // its extra allreduce brings to the clocks
        let guarded = run(Some(1.0));
        assert!(guarded[0].curve.len() == 2 && !guarded[0].tripped);
        for (g, f) in guarded[0].curve.iter().zip(&free[0].curve) {
            assert!((g - f).abs() <= 1e-9 * f, "guarded {g} vs free {f}");
        }
        // a budget no point can meet trips the first one on every rank
        assert!(run(Some(0.0)).iter().all(|a| a.tripped && a.curve.is_empty()));
    }
}
