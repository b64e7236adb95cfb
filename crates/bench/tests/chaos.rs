//! Chaos-suite invariants at test scale: termination, byte-identical
//! replay, monotone degradation, crash containment, and the fault-free
//! inertness of the resilient driver.
//!
//! The full matrix runs in `scripts/verify.sh` via `beff chaos`
//! (release build); these tests pin the same invariants on a smaller
//! scenario set so `cargo test` catches regressions without the
//! command.

use beff_bench::chaos::{io_check, run_scenario, scenarios, Scenario};
use beff_bench::resilient::ResilientRunner;
use beff_bench::chaos::{chaos_cfg, chaos_net, CHAOS_PROCS};
use beff_faults::{FaultPlan, FaultSpec};
use beff_machines::by_key;
use std::sync::Arc;

const SEED: u64 = 0x7E57;

fn scenario(name: &str) -> Scenario {
    scenarios(SEED)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no scenario named {name}"))
}

#[test]
fn baseline_is_stable_usable_and_replayable() {
    let o = run_scenario(&scenario("baseline"));
    assert!(o.replay_identical, "fault-free replay must be byte-identical");
    assert!(o.report.usable(), "fault-free run must produce b_eff");
    assert!(o.report.stability.stable(), "fault-free run must be stable");
    assert_eq!(o.report.stability.valid, 12);
}

#[test]
fn drop_injection_replays_bitwise_and_degrades_monotonically() {
    let low = run_scenario(&scenario("drops-0.25"));
    let high = run_scenario(&scenario("drops-1"));
    assert!(low.replay_identical && high.replay_identical);
    assert!(low.report.stability.drops > 0, "severity 0.25 must drop something");
    assert!(
        high.report.stability.drops > low.report.stability.drops,
        "higher severity must drop more"
    );
    let (bl, bh) = (low.beff().expect("usable"), high.beff().expect("usable"));
    let baseline = run_scenario(&scenario("baseline")).beff().expect("usable");
    assert!(
        baseline >= bl && bl >= bh,
        "b_eff must fall with drop severity: {baseline} >= {bl} >= {bh}"
    );
}

#[test]
fn rank_crash_is_contained_and_flagged() {
    let o = run_scenario(&scenario("crash-1"));
    assert!(o.replay_identical, "crash runs must replay byte-identically");
    let st = &o.report.stability;
    assert!(!st.crashed_ranks.is_empty(), "the dead rank must be reported");
    assert!(st.failed > 0, "patterns after the crash must be marked failed");
    // Containment: the driver kept going and emitted a full report.
    assert_eq!(st.patterns.len(), 12);
}

#[test]
fn degraded_filesystem_prices_writes_slower() {
    let io = io_check();
    assert!(io.ok, "degraded {} must exceed healthy {}", io.t_degraded, io.t_healthy);
}

#[test]
fn resilient_runner_without_plan_attaches_no_fault_session() {
    let machine = by_key("t3e").expect("machine").sized_for(8);
    let runner = ResilientRunner::new(&machine, 8, FaultPlan::empty());
    assert!(runner.fault_session().is_none(), "empty plan must mean no session");
    let r = runner.run(&chaos_cfg());
    assert!(r.usable() && r.stability.stable());
    assert!(r.stability.fault_seed.is_none());
}

#[test]
fn dead_link_fails_routed_patterns_but_run_completes() {
    let net = chaos_net();
    let plan = FaultSpec::none(SEED).with_severity(1.0).dead_links(1).materialize(&net);
    assert_eq!(plan.dead_links.len(), 1);
    let runner = ResilientRunner::on_net(Arc::clone(&net), CHAOS_PROCS, plan);
    let r = runner.run(&chaos_cfg());
    let st = &r.stability;
    assert_eq!(st.dead_links.len(), 1, "report must name the dead link");
    assert!(st.failed > 0, "patterns crossing the dead link must fail");
    assert_eq!(st.patterns.len(), 12, "driver must visit every pattern");
}
