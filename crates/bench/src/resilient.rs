//! The resilient b_eff driver: one world run **per pattern**, each
//! guarded by a watchdog budget and a bounded retry loop, over an
//! optional deterministic fault session.
//!
//! Division of labor with `beff-core`:
//!
//! * [`beff_core::beff::resilient`] owns the in-world measurement
//!   ([`run_one_pattern`]) and the report schema — it knows nothing
//!   about fault injection;
//! * this module owns the *driver*: it installs the fault plan on the
//!   network before each attempt, advances the fault-session epoch
//!   between runs (every world run restarts virtual clocks at zero,
//!   but crash times and flapping windows live on one accumulated
//!   timeline), converts typed fault panics into per-pattern
//!   `failed` verdicts, and assembles whatever survived into a
//!   [`ResilientBeffResult`].
//!
//! With an **empty plan** the runner attaches no fault session at all:
//! the fault layer being compiled in costs nothing and changes no bits
//! (an empty session is pinned inert by `tests/determinism.rs`). Its
//! curves still differ from the classic
//! [`PartitionRunner`](crate::PartitionRunner) path's: each pattern
//! runs in a world of its own, and the watchdog's extra `Min`
//! allreduce moves the clocks.

use beff_core::beff::resilient::{
    run_one_pattern, PatternHealth, PatternStatus, ResilientBeffResult, StabilityReport,
    WatchdogPolicy,
};
use beff_core::beff::{
    extra::pingpong, lmax, message_sizes, pattern_tables, BeffConfig, BeffResult, Pattern,
    PatternResult, Transfers,
};
use beff_faults::{FaultPlan, FaultSession};
use beff_machines::Machine;
use beff_mpi::{ReduceOp, World, WorldSession};
use beff_netsim::MachineNet;
use beff_pfs::Pfs;
use std::sync::Arc;

/// A resident simulated partition with fault injection and a
/// watchdog/retry policy. The chaos-capable sibling of
/// [`PartitionRunner`](crate::PartitionRunner).
pub struct ResilientRunner {
    net: Arc<MachineNet>,
    procs: usize,
    session: WorldSession,
    faults: Option<Arc<FaultSession>>,
    policy: WatchdogPolicy,
    machine: Option<Machine>,
}

impl ResilientRunner {
    /// Runner over an explicit network. An empty plan attaches **no**
    /// fault session (bitwise-identical to the classic path).
    pub fn on_net(net: Arc<MachineNet>, procs: usize, plan: FaultPlan) -> Self {
        let faults =
            if plan.is_empty() { None } else { Some(FaultSession::new(plan, procs)) };
        let mut world = World::sim_partition(Arc::clone(&net), procs);
        if let Some(fs) = &faults {
            world = world.with_faults(Arc::clone(fs));
        }
        let session = world.session();
        Self { net, procs, session, faults, policy: WatchdogPolicy::default(), machine: None }
    }

    /// Runner over the first `procs` processors of a machine model.
    pub fn new(machine: &Machine, procs: usize, plan: FaultPlan) -> Self {
        let mut r = Self::on_net(machine.network(), procs, plan);
        r.machine = Some(machine.clone());
        r
    }

    /// Partition size (ranks).
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// The attached fault session, if any plan was installed.
    pub fn fault_session(&self) -> Option<&Arc<FaultSession>> {
        self.faults.as_ref()
    }

    /// The machine's filesystem with the plan's I/O slowdown applied
    /// (fresh per call, b_eff_io cold-start semantics).
    pub fn filesystem(&self) -> Option<Arc<Pfs>> {
        let fs = self.machine.as_ref()?.filesystem()?;
        if let Some(s) = &self.faults {
            let slowdown = s.plan().io_slowdown;
            if slowdown > 1.0 {
                fs.degrade_servers(slowdown);
            }
        }
        Some(fs)
    }

    /// Run the b_eff schedule pattern-by-pattern with fault containment.
    /// Always returns a report; `beff` is `Some` whenever at least one
    /// ring and one random pattern measured cleanly enough to average.
    pub fn run(&self, cfg: &BeffConfig) -> ResilientBeffResult {
        let n = self.procs;
        let lmaxv = lmax(cfg.mem_per_proc);
        let sizes = message_sizes(lmaxv);

        // the world's neighbor tables, built once here on the host; each
        // attempt's ranks read their own rows
        let patterns = pattern_tables(n, cfg.seed);

        let mut usable: Vec<PatternResult> = Vec::new();
        let mut health = Vec::with_capacity(patterns.len());
        for (pattern, table) in patterns {
            let (result, h) = self.run_pattern(cfg, &pattern, &table);
            if let Some(pr) = result {
                usable.push(pr);
            }
            health.push(h);
        }

        let (pp, pingpong_ok) = self.run_pingpong(cfg, lmaxv);

        let have_ring = usable.iter().any(|p| !p.random);
        let have_rand = usable.iter().any(|p| p.random);
        let beff = if have_ring && have_rand {
            Some(BeffResult::assemble(
                n,
                cfg.mem_per_proc,
                lmaxv,
                sizes,
                usable,
                pp,
                Vec::new(),
            ))
        } else {
            None
        };

        ResilientBeffResult { beff, stability: self.stability(health, pingpong_ok) }
    }

    /// One pattern: install faults, attempt, and retry with an
    /// exponentially growing budget on watchdog trips and retryable
    /// faults. Permanent faults (crash, dead route, deadlock) fail the
    /// pattern immediately.
    fn run_pattern(
        &self,
        cfg: &BeffConfig,
        pattern: &Pattern,
        table: &[(usize, usize)],
    ) -> (Option<PatternResult>, PatternHealth) {
        let mut budget = self.policy.point_budget;
        let mut retries = 0u32;
        let mut trips = 0u32;
        let mut max_spread = 1.0f64;
        let health = |status, reason: String, retries, trips, max_spread| PatternHealth {
            name: pattern.name.clone(),
            random: pattern.random,
            status,
            reason,
            retries,
            watchdog_trips: trips,
            max_spread,
        };
        loop {
            self.net.reset();
            if let Some(fs) = &self.faults {
                fs.install(&self.net);
            }
            let out =
                self.session.try_run(|c| run_one_pattern(c, cfg, pattern, table[c.rank()], budget));
            match out {
                Ok(mut v) => {
                    let attempt = v.swap_remove(0);
                    if let Some(fs) = &self.faults {
                        fs.advance_epoch(attempt.t_end);
                    }
                    max_spread = max_spread.max(attempt.max_spread);
                    if attempt.tripped {
                        trips += 1;
                        if retries < self.policy.max_retries {
                            retries += 1;
                            budget *= self.policy.backoff;
                            continue;
                        }
                        return (
                            None,
                            health(
                                PatternStatus::Failed,
                                format!("watchdog tripped {trips}x, retries exhausted"),
                                retries,
                                trips,
                                max_spread,
                            ),
                        );
                    }
                    let straggling = max_spread > self.policy.straggler_spread;
                    let (status, reason) = if trips > 0 {
                        (PatternStatus::Degraded, format!("recovered after {trips} watchdog trips"))
                    } else if retries > 0 {
                        (PatternStatus::Degraded, format!("recovered after {retries} retries"))
                    } else if straggling {
                        (
                            PatternStatus::Degraded,
                            format!("straggler spread {max_spread:.1}x"),
                        )
                    } else {
                        (PatternStatus::Valid, String::new())
                    };
                    return (
                        Some(attempt.result),
                        health(status, reason, retries, trips, max_spread),
                    );
                }
                Err(e) => {
                    // The failed run's consumed virtual time is not
                    // observable (the ranks unwound); advance the epoch
                    // by the fixed budget so replays stay deterministic.
                    if let Some(fs) = &self.faults {
                        fs.advance_epoch(budget);
                    }
                    if e.is_permanent() || retries >= self.policy.max_retries {
                        return (
                            None,
                            health(
                                PatternStatus::Failed,
                                e.to_string(),
                                retries,
                                trips,
                                max_spread,
                            ),
                        );
                    }
                    retries += 1;
                    budget *= self.policy.backoff;
                }
            }
        }
    }

    /// Guarded ping-pong (a crash between ranks 0 and 1 must not kill
    /// the run — it just zeroes the diagnostic and flags the report).
    fn run_pingpong(&self, cfg: &BeffConfig, lmaxv: u64) -> (f64, bool) {
        self.net.reset();
        if let Some(fs) = &self.faults {
            fs.install(&self.net);
        }
        let iters = cfg.extra_iters.max(1);
        let out = self.session.try_run(move |c| {
            let mut tr = Transfers::new(c, lmaxv);
            let pp = pingpong(c, &mut tr, lmaxv, iters);
            let t_end = c.allreduce_scalar(c.now(), ReduceOp::Max);
            (pp, t_end)
        });
        match out {
            Ok(mut v) => {
                let (pp, t_end) = v.swap_remove(0);
                if let Some(fs) = &self.faults {
                    fs.advance_epoch(t_end);
                }
                (pp, true)
            }
            Err(_) => {
                if let Some(fs) = &self.faults {
                    fs.advance_epoch(self.policy.point_budget);
                }
                (0.0, false)
            }
        }
    }

    fn stability(&self, patterns: Vec<PatternHealth>, pingpong_ok: bool) -> StabilityReport {
        let count = |s| patterns.iter().filter(|p| p.status == s).count();
        let (valid, degraded, failed) = (
            count(PatternStatus::Valid),
            count(PatternStatus::Degraded),
            count(PatternStatus::Failed),
        );
        match &self.faults {
            Some(fs) => StabilityReport {
                fault_seed: Some(fs.plan().seed),
                severity: fs.plan().severity,
                valid,
                degraded,
                failed,
                crashed_ranks: fs.crashed_ranks(),
                dead_links: fs.plan().dead_links.clone(),
                drops: fs.stats.drops(),
                retransmits: fs.stats.retransmits(),
                pingpong_ok,
                patterns,
            },
            None => StabilityReport {
                fault_seed: None,
                severity: 0.0,
                valid,
                degraded,
                failed,
                crashed_ranks: Vec::new(),
                dead_links: Vec::new(),
                drops: 0,
                retransmits: 0,
                pingpong_ok,
                patterns,
            },
        }
    }
}
