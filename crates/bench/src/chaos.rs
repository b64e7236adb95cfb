//! The chaos sweep: a fixed scenario matrix exercised through the
//! resilient driver, with the harness invariants checked in-process.
//!
//! Three properties must hold for *every* seed (the sweep re-derives
//! them for the seed it is run with, so the tier-1 gate is a real
//! check, not a golden number):
//!
//! 1. **Termination** — every scenario completes and emits a report
//!    (the token scheduler's deadlock detection plus the watchdog
//!    budget make hangs structurally impossible; actually finishing is
//!    the observable proof).
//! 2. **Replay** — running the identical (seed, plan) twice on fresh
//!    networks yields byte-identical serialized reports.
//! 3. **Monotonicity** — within a fault family (degrade, stragglers,
//!    drops), b_eff is non-increasing in severity. The matrix pins
//!    the conditions that make this provable: a contention-free
//!    schedule (`loop_start = 1` freezes looplength adaptation) so
//!    severity only ever *adds* delay.
//!
//! Plus the I/O hook: a degraded filesystem must price writes slower.

use crate::resilient::ResilientRunner;
use beff_core::beff::{BeffConfig, MeasureSchedule, DEFAULT_SEED};
use beff_core::beff::resilient::ResilientBeffResult;
use beff_faults::FaultSpec;
use beff_json::{Json, ToJson};
use beff_netsim::{MachineNet, NetParams, Topology, MB};
use beff_pfs::DataRef;
use std::sync::Arc;

/// Ranks in every chaos world.
pub const CHAOS_PROCS: usize = 8;

/// The chaos machine: an 8-proc ring with default link parameters.
/// Direct topology → multi-hop routes → link faults actually bite.
pub fn chaos_net() -> Arc<MachineNet> {
    Arc::new(MachineNet::new(Topology::Ring { procs: CHAOS_PROCS }, NetParams::default()))
}

/// The chaos schedule: `loop_start = 1` freezes looplength adaptation
/// (the monotonicity proofs need the measured instruction stream to be
/// fault-independent), one repetition, no extras.
pub fn chaos_cfg() -> BeffConfig {
    BeffConfig {
        mem_per_proc: 64 * MB,
        schedule: MeasureSchedule { loop_start: 1, reps: 1, ..MeasureSchedule::quick() },
        seed: DEFAULT_SEED,
        extras: false,
        extra_iters: 2,
    }
}

/// A named fault scenario of the sweep matrix.
pub struct Scenario {
    pub name: String,
    /// Severity family for the monotonicity check ("" = unfamilied).
    pub family: &'static str,
    pub spec: FaultSpec,
}

/// The fixed scenario matrix, parameterized only by the fault seed.
pub fn scenarios(seed: u64) -> Vec<Scenario> {
    let base = || FaultSpec::none(seed);
    let mut v = vec![Scenario {
        name: "baseline".into(),
        family: "",
        spec: base(),
    }];
    for sev in [0.25, 0.5, 1.0] {
        v.push(Scenario {
            name: format!("degrade-{sev}"),
            family: "degrade",
            spec: base().with_severity(sev).degrade(),
        });
    }
    v.push(Scenario {
        name: "flapping-0.6".into(),
        family: "",
        spec: base().with_severity(0.6).flapping(),
    });
    for sev in [0.3, 0.6, 1.0] {
        v.push(Scenario {
            name: format!("straggler-{sev}"),
            family: "straggler",
            spec: base().with_severity(sev).stragglers(2),
        });
    }
    for sev in [0.25, 0.5, 1.0] {
        v.push(Scenario {
            name: format!("drops-{sev}"),
            family: "drops",
            spec: base().with_severity(sev).drops(),
        });
    }
    v.push(Scenario {
        name: "crash-1".into(),
        family: "",
        spec: base().with_severity(1.0).crashes(1),
    });
    v.push(Scenario {
        name: "deadlink-1".into(),
        family: "",
        spec: base().with_severity(1.0).dead_links(1),
    });
    v.push(Scenario {
        name: "combined-0.6".into(),
        family: "",
        spec: base().with_severity(0.6).degrade().drops().stragglers(1),
    });
    v
}

/// One scenario run twice on fresh worlds; the harness verdicts ride
/// along with the second-run report.
pub struct ScenarioOutcome {
    pub name: String,
    pub family: &'static str,
    pub severity: f64,
    pub report: ResilientBeffResult,
    /// Byte-identical serialized reports across the two runs.
    pub replay_identical: bool,
}

impl ScenarioOutcome {
    pub fn beff(&self) -> Option<f64> {
        self.report.beff.as_ref().map(|b| b.beff)
    }
}

impl ToJson for ScenarioOutcome {
    fn to_json(&self) -> Json {
        Json::object()
            .field("name", &self.name)
            .field("family", &self.family.to_string())
            .field("severity", &self.severity)
            .field("replay_identical", &self.replay_identical)
            .field("report", &self.report)
            .build()
    }
}

fn run_once(spec: &FaultSpec) -> (ResilientBeffResult, String) {
    let net = chaos_net();
    let plan = spec.materialize(&net);
    let runner = ResilientRunner::on_net(Arc::clone(&net), CHAOS_PROCS, plan);
    let report = runner.run(&chaos_cfg());
    let json = beff_json::to_string(&report);
    (report, json)
}

/// Run one scenario: twice, fresh nets, byte-compare.
pub fn run_scenario(sc: &Scenario) -> ScenarioOutcome {
    let (_r1, j1) = run_once(&sc.spec);
    let (r2, j2) = run_once(&sc.spec);
    ScenarioOutcome {
        name: sc.name.clone(),
        family: sc.family,
        severity: sc.spec.severity,
        report: r2,
        replay_identical: j1 == j2,
    }
}

/// Monotonicity verdict for one severity family.
pub struct FamilyCheck {
    pub family: String,
    /// b_eff per point, baseline (severity 0) first, rising severity.
    pub beffs: Vec<f64>,
    pub monotone: bool,
}

impl ToJson for FamilyCheck {
    fn to_json(&self) -> Json {
        Json::object()
            .field("family", &self.family)
            .field("beffs", &self.beffs)
            .field("monotone", &self.monotone)
            .build()
    }
}

fn check_family(family: &str, baseline: f64, outcomes: &[ScenarioOutcome]) -> FamilyCheck {
    let mut points: Vec<(f64, f64)> = vec![(0.0, baseline)];
    for o in outcomes.iter().filter(|o| o.family == family) {
        points.push((o.severity, o.beff().unwrap_or(0.0)));
    }
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite severities"));
    let beffs: Vec<f64> = points.iter().map(|p| p.1).collect();
    // tolerate float noise: a rise of one part in 10^9 is not a rise
    let monotone = beffs.windows(2).all(|w| w[1] <= w[0] * (1.0 + 1e-9));
    FamilyCheck { family: family.to_string(), beffs, monotone }
}

/// Degraded filesystem servers must price the same write strictly
/// slower (the `io_slow` fault class, checked directly on the PFS
/// model since b_eff_io sweeps are too heavy for a tier-1 gate).
pub struct IoCheck {
    pub t_healthy: f64,
    pub t_degraded: f64,
    pub ok: bool,
}

impl ToJson for IoCheck {
    fn to_json(&self) -> Json {
        Json::object()
            .field("t_healthy", &self.t_healthy)
            .field("t_degraded", &self.t_degraded)
            .field("ok", &self.ok)
            .build()
    }
}

pub fn io_check() -> IoCheck {
    let time_write = |slowdown: f64| {
        let machine = beff_machines::by_key("t3e").expect("t3e model exists");
        let pfs = machine.filesystem().expect("t3e has an I/O model");
        if slowdown > 1.0 {
            pfs.degrade_servers(slowdown);
        }
        let (f, t) = pfs.open("/chaos/io", 0.0);
        let t = pfs.write(0, &f, 0, DataRef::Len(16 * MB), t);
        // sync so the cache cannot hide the servers (write-behind
        // absorbs small writes at memory speed regardless of health)
        pfs.sync(t)
    };
    let t_healthy = time_write(1.0);
    let t_degraded = time_write(4.0);
    IoCheck { t_healthy, t_degraded, ok: t_degraded > t_healthy }
}

/// The full sweep result.
pub struct ChaosReport {
    pub seed: u64,
    pub scenarios: Vec<ScenarioOutcome>,
    pub families: Vec<FamilyCheck>,
    pub io: IoCheck,
}

impl ChaosReport {
    /// Harness invariants (seed-independent): baseline clean and
    /// bitwise-replayable, every scenario replayable and terminated
    /// with a report, severity families monotone, the crash scenario's
    /// report actually records a dead rank, and degraded I/O is slower.
    pub fn pass(&self) -> bool {
        let baseline_ok = self
            .scenarios
            .iter()
            .find(|s| s.name == "baseline")
            .is_some_and(|s| s.report.stability.stable() && s.report.usable());
        let replay_ok = self.scenarios.iter().all(|s| s.replay_identical);
        let crash_flagged = self
            .scenarios
            .iter()
            .find(|s| s.name == "crash-1")
            .is_some_and(|s| !s.report.stability.crashed_ranks.is_empty());
        baseline_ok
            && replay_ok
            && crash_flagged
            && self.families.iter().all(|f| f.monotone)
            && self.io.ok
    }

    /// Strict verdict: beyond [`pass`](Self::pass), no scenario may
    /// have lost its b_eff number entirely.
    pub fn strict_ok(&self) -> bool {
        self.pass() && self.scenarios.iter().all(|s| s.report.usable())
    }
}

impl ToJson for ChaosReport {
    fn to_json(&self) -> Json {
        Json::object()
            .field("seed", &self.seed)
            .field("pass", &self.pass())
            .field("strict_ok", &self.strict_ok())
            .field("scenarios", &self.scenarios)
            .field("families", &self.families)
            .field("io", &self.io)
            .build()
    }
}

/// Run the whole sweep for one seed.
///
/// Scenarios fan out over `workers`. Scenario
/// granularity is the correctness boundary for fault injection: a
/// [`beff_faults::FaultSession`] is stateful across runs, so each job
/// owns its scenario end-to-end — fresh net, fresh session, both
/// replay runs — and fault plans stay keyed by rank and virtual time,
/// never by which worker hosted the job. The report is therefore
/// byte-identical at every worker count (`beff goldens` pins this
/// against the golden at 1 and 4 workers).
pub fn run_chaos(workers: beff_sim::Workers, seed: u64) -> ChaosReport {
    let matrix = scenarios(seed);
    let outcomes: Vec<ScenarioOutcome> =
        beff_sim::map_ordered(workers, matrix, |_, sc| run_scenario(&sc));
    let baseline = outcomes
        .iter()
        .find(|o| o.name == "baseline")
        .and_then(|o| o.beff())
        .unwrap_or(0.0);
    let families = ["degrade", "straggler", "drops"]
        .iter()
        .map(|f| check_family(f, baseline, &outcomes))
        .collect();
    ChaosReport { seed, scenarios: outcomes, families, io: io_check() }
}
