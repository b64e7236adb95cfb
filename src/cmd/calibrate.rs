//! Calibrates the machine-model constants against the paper's target
//! set (Table 1 rows, ping-pong, L_max; Fig. 1 balance rides on b_eff)
//! and gates the residuals.
//!
//! By default (the CI gate) every Table 1 row is replayed
//! on the catalog constants and the run fails if any gated metric
//! strays beyond the tolerance (default ±25 %) or a shape claim breaks.
//! `--fit` instead runs coordinate descent over the named fit groups
//! (default: all) and prints the fitted constants to paste into
//! `crates/machines`: fitting never edits source, so the diff stays
//! reviewable.

use crate::cli::{Args, Fail};
use beff_bench::calibration::{check, fit_group, fit_groups, DEFAULT_TOLERANCE};
use std::fmt::Write as _;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    if args.has("--fit") {
        run_fit(args, out)
    } else {
        run_check(args, out)
    }
}

fn run_fit(args: &Args, out: &mut String) -> Result<(), Fail> {
    let sweeps = args.get::<usize>("--sweeps").unwrap_or(3);
    for group in fit_groups() {
        if !args.rest.is_empty() && !args.rest.iter().any(|r| r == group.name) {
            continue;
        }
        let (fitted, obj) = fit_group(&group, sweeps);
        writeln!(out, "\n== fitted {} (objective {obj:.4}) ==", group.name)?;
        writeln!(out, "machines: {:?}", group.keys)?;
        writeln!(out, "o_send/o_recv: {:.3e}", fitted.o_send)?;
        writeln!(out, "port:     Tier::new({:.3e}, {:.1})", fitted.port.latency, fitted.port.mbps)?;
        writeln!(
            out,
            "node_mem: Tier::new({:.3e}, {:.1})",
            fitted.node_mem.latency, fitted.node_mem.mbps
        )?;
        writeln!(out, "hop:      Tier::new({:.3e}, {:.1})", fitted.hop.latency, fitted.hop.mbps)?;
        writeln!(out, "nic:      Tier::new({:.3e}, {:.1})", fitted.nic.latency, fitted.nic.mbps)?;
        match fitted.backplane {
            Some(bp) => {
                writeln!(out, "backplane: Some(Tier::new({:.3e}, {:.1}))", bp.latency, bp.mbps)?
            }
            None => writeln!(out, "backplane: None")?,
        }
        writeln!(out, "contention: {:.3}", fitted.contention)?;
    }
    Ok(())
}

fn run_check(args: &Args, out: &mut String) -> Result<(), Fail> {
    if let Some(group) = args.rest.first() {
        return Err(Fail::new(2, format!("fit group {group:?} without --fit")));
    }
    let tolerance = args.get::<f64>("--tolerance").unwrap_or(DEFAULT_TOLERANCE);
    let report = check(args.workers()?, tolerance);

    writeln!(
        out,
        "\nCalibration residuals (gate: averaged metrics within ±{:.0}%)\n",
        tolerance * 100.0
    )?;
    for row in &report.rows {
        let lmax_ok = row.lmax_mb_measured == row.lmax_mb_paper;
        write!(out, "{:<12} x{:<4}", row.machine_key, row.procs)?;
        write!(out, " Lmax {} MB {}", row.lmax_mb_measured, if lmax_ok { "=" } else { "BREACH" })?;
        for m in &row.metrics {
            if !m.gated {
                continue;
            }
            let flag = if m.within(tolerance) { "" } else { " BREACH" };
            write!(out, "  {} {:.2}{}", m.metric, m.ratio(), flag)?;
        }
        writeln!(out)?;
    }
    for s in &report.shapes {
        writeln!(
            out,
            "shape {:<24} {}  ({})",
            s.name,
            if s.pass { "ok" } else { "BREACH" },
            s.detail
        )?;
    }

    let text = beff_json::to_string_pretty(&report);
    beff_json::parse(&text).expect("calibration JSON must be well-formed");
    args.report.set(Some(format!("{text}\n")));
    writeln!(
        out,
        "\ncalibration: {} ({} breaches)",
        if report.pass() { "PASS" } else { "FAIL" },
        report.breaches()
    )?;
    if report.pass() {
        Ok(())
    } else {
        Err(Fail::new(1, "residual gate breached"))
    }
}
