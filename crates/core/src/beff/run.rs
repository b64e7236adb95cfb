//! Top-level b_eff driver: loops over patterns × sizes × methods ×
//! repetitions with looplength adaptation, then assembles the result.

use super::extra::{pingpong, run_extras};
use super::measure::{pattern_curve, MeasureSchedule};
use super::methods::Transfers;
use super::result::{BeffResult, PatternResult};
use super::rings::{messages_per_iteration, rank_patterns};
use super::sizes::{lmax, message_sizes};
use beff_json::{Json, ToJson};
use beff_mpi::Comm;

/// The paper's default pattern seed: every command, spec and harness
/// that does not name a seed draws the random patterns from this one.
pub const DEFAULT_SEED: u64 = 0xB0EF;

/// Configuration of a b_eff run.
#[derive(Debug, Clone)]
pub struct BeffConfig {
    /// Memory per processor (determines L_max = min(128 MB, mem/128)).
    pub mem_per_proc: u64,
    pub schedule: MeasureSchedule,
    /// Seed for the random patterns.
    pub seed: u64,
    /// Measure the non-averaged diagnostic patterns too.
    pub extras: bool,
    /// Iterations for extras and ping-pong.
    pub extra_iters: u32,
}

impl ToJson for BeffConfig {
    fn to_json(&self) -> Json {
        Json::object()
            .field("mem_per_proc", &self.mem_per_proc)
            .field("schedule", &self.schedule)
            .field("seed", &self.seed)
            .field("extras", &self.extras)
            .field("extra_iters", &self.extra_iters)
            .build()
    }
}

impl BeffConfig {
    /// Paper-fidelity schedule.
    pub fn paper(mem_per_proc: u64) -> Self {
        Self {
            mem_per_proc,
            schedule: MeasureSchedule::paper(),
            seed: DEFAULT_SEED,
            extras: true,
            extra_iters: 16,
        }
    }

    /// Scaled-down schedule for CI and large simulated machines.
    pub fn quick(mem_per_proc: u64) -> Self {
        Self {
            mem_per_proc,
            schedule: MeasureSchedule::quick(),
            seed: DEFAULT_SEED,
            extras: true,
            extra_iters: 4,
        }
    }

    pub fn without_extras(mut self) -> Self {
        self.extras = false;
        self
    }
}

/// Run the effective bandwidth benchmark on `comm`. Collective: every
/// rank calls it; all ranks return the same (reduced) result.
pub fn run_beff(comm: &mut Comm, cfg: &BeffConfig) -> BeffResult {
    let n = comm.size();
    let lmax = lmax(cfg.mem_per_proc);
    let sizes = message_sizes(lmax);
    let msgs = messages_per_iteration(n);
    let mut tr = Transfers::new(comm, lmax);

    // the twelve layouts and this rank's own pairs: O(rings) a rank, not
    // a world-sized table (see `rings`)
    let patterns = rank_patterns(n, comm.rank(), cfg.seed);

    let mut results = Vec::with_capacity(patterns.len());
    for (pattern, pair) in patterns {
        let curve = pattern_curve(comm, &mut tr, cfg, &sizes, msgs, pair, None).curve;
        results.push(PatternResult {
            name: pattern.name,
            random: pattern.random,
            ring_sizes: pattern.ring_sizes,
            curve,
        });
    }

    let pp = pingpong(comm, &mut tr, lmax, cfg.extra_iters.max(1));
    let extras = if cfg.extras {
        run_extras(comm, &mut tr, lmax, cfg.extra_iters.max(1))
    } else {
        Vec::new()
    };

    BeffResult::assemble(n, cfg.mem_per_proc, lmax, sizes, results, pp, extras)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_mpi::World;
    use beff_netsim::{MachineNet, NetParams, Topology, MB};
    use std::sync::Arc;

    fn quick_cfg() -> BeffConfig {
        let mut c = BeffConfig::quick(64 * MB); // L_max = 512 kB
        c.extra_iters = 2;
        c
    }

    #[test]
    fn beff_runs_on_a_small_crossbar() {
        let net =
            Arc::new(MachineNet::new(Topology::Crossbar { procs: 4 }, NetParams::default()));
        let cfg = quick_cfg();
        let rs = World::sim(net).run(move |c| run_beff(c, &cfg));
        let r = &rs[0];
        assert_eq!(r.nprocs, 4);
        assert_eq!(r.patterns.len(), 12);
        assert!(r.beff > 0.0);
        assert!(r.beff_at_lmax >= r.beff, "averaging over sizes cannot exceed Lmax value");
        assert!(r.pingpong_mbps > 0.0);
        // all ranks agree
        for other in &rs[1..] {
            assert!((other.beff - r.beff).abs() < 1e-9);
        }
    }

    #[test]
    fn beff_curve_is_roughly_increasing_in_size() {
        let net =
            Arc::new(MachineNet::new(Topology::Crossbar { procs: 2 }, NetParams::default()));
        let cfg = quick_cfg().without_extras();
        let rs = World::sim(net).run(move |c| run_beff(c, &cfg));
        let curve = &rs[0].patterns[0].curve;
        // large-message bandwidth dwarfs 1-byte bandwidth
        assert!(curve[20] > 50.0 * curve[0], "curve: {curve:?}");
    }

    #[test]
    fn rings_beat_randoms_on_a_torus() {
        // On a direct network, random placement must cost bandwidth
        // (Table 1's "negative effect of random neighbor locations").
        let net = Arc::new(MachineNet::new(
            Topology::Torus3D { dims: [2, 2, 2] },
            NetParams::default(),
        ));
        let cfg = quick_cfg().without_extras();
        let rs = World::sim(net).run(move |c| run_beff(c, &cfg));
        let r = &rs[0];
        let ring_avg: f64 = r
            .patterns
            .iter()
            .filter(|p| !p.random)
            .map(|p| p.avg_over_sizes())
            .sum::<f64>()
            / 6.0;
        let rand_avg: f64 = r
            .patterns
            .iter()
            .filter(|p| p.random)
            .map(|p| p.avg_over_sizes())
            .sum::<f64>()
            / 6.0;
        assert!(
            ring_avg > rand_avg,
            "rings {ring_avg} must beat randoms {rand_avg}"
        );
    }

    #[test]
    fn beff_runs_with_payload_bytes() {
        let net =
            Arc::new(MachineNet::new(Topology::Crossbar { procs: 2 }, NetParams::default()));
        let cfg = quick_cfg().without_extras();
        let rs = World::sim(net).copy_data(true).run(move |c| run_beff(c, &cfg));
        assert!(rs[0].beff > 0.0);
    }

    #[test]
    fn single_process_world_is_degenerate_but_finite() {
        let net =
            Arc::new(MachineNet::new(Topology::Crossbar { procs: 1 }, NetParams::default()));
        let cfg = quick_cfg().without_extras();
        let rs = World::sim(net).run(move |c| run_beff(c, &cfg));
        assert!(rs[0].beff.is_finite());
    }
}
