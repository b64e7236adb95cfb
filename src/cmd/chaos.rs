//! The chaos sweep: run the fixed fault-scenario matrix through the
//! resilient driver and write the stability/harness report.
//!
//! * the fault seed is `--seed` when given, else `BEFF_FAULT_SEED`,
//!   else `0xC4A05`;
//! * exit is non-zero when a **harness invariant** breaks (a scenario
//!   hangs — impossible by construction, but this is where it would
//!   surface — replay is not byte-identical, a severity family is not
//!   monotone, the crash report is missing its dead rank, or degraded
//!   I/O isn't slower). Injected faults *degrading the benchmark* is
//!   the expected product, not an error — `--strict` additionally
//!   fails the run when any scenario lost its b_eff number entirely.

use crate::cli::{Args, Fail};
use beff_bench::chaos::run_chaos;
use beff_faults::resolve_seed;
use std::fmt::Write as _;

/// Default chaos seed ("CHAOS"), pre-`BEFF_FAULT_SEED`.
const DEFAULT_SEED: u64 = 0xC4A05;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    let seed = args.get::<usize>("--seed").map_or_else(|| resolve_seed(DEFAULT_SEED), |s| s as u64);
    let report = run_chaos(args.workers()?, seed);

    for s in &report.scenarios {
        let st = &s.report.stability;
        writeln!(
            out,
            "{:<16} beff {:>10} MB/s  {:>2} valid {:>2} degraded {:>2} failed  replay {}",
            s.name,
            s.beff().map_or_else(|| "-".to_string(), |b| format!("{b:.1}")),
            st.valid,
            st.degraded,
            st.failed,
            if s.replay_identical { "ok" } else { "DIVERGED" },
        )?;
    }
    for f in &report.families {
        writeln!(
            out,
            "family {:<10} {} : {:?}",
            f.family,
            if f.monotone { "monotone" } else { "NOT MONOTONE" },
            f.beffs.iter().map(|b| (b * 10.0).round() / 10.0).collect::<Vec<_>>(),
        )?;
    }
    writeln!(
        out,
        "io degrade: healthy {:.3e}s degraded {:.3e}s ({})",
        report.io.t_healthy,
        report.io.t_degraded,
        if report.io.ok { "ok" } else { "NOT SLOWER" },
    )?;

    let text = beff_json::to_string_pretty(&report);
    writeln!(out, "chaos report ({} scenarios, seed {seed:#x})", report.scenarios.len())?;
    args.report.set(Some(text));
    if !report.pass() {
        return Err(Fail::new(1, "HARNESS INVARIANT VIOLATED"));
    }
    if args.has("--strict") && !report.strict_ok() {
        return Err(Fail::new(2, "--strict: some scenario lost its b_eff number"));
    }
    writeln!(out, "chaos: pass")?;
    Ok(())
}
