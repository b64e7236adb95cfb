//! The storage sweep ([`beff_sweep`]): a PFS-only workload on bare
//! `beff-sim` actors with fault injection, and no MPI anywhere.
//!
//! Every run replays the sweep and fails on any harness invariant
//! violation; the report is pinned by `results/storage_sweep.json`.

use crate::cli::{Args, Fail};
use beff_faults::resolve_seed;
use beff_sweep::{check_invariants, run_report, DEFAULT_SEED};
use std::fmt::Write as _;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    let clients = args.get::<usize>("--clients").unwrap_or(8);
    let seed = resolve_seed(DEFAULT_SEED);

    let report = run_report(clients, seed);
    for s in &report.scenarios {
        for p in &s.points {
            writeln!(
                out,
                "{:<12} chunk {:>8} B  {:>9} B moved  end {:.4}s  {:>8.2} MB/s  crashed {:?}",
                s.name, p.chunk, p.bytes, p.end, p.mbps, p.crashed
            )?;
        }
    }
    let text = beff_json::to_string_pretty(&report);
    beff_json::parse(&text).expect("storage-sweep JSON must be well-formed");
    writeln!(out, "storage sweep ({} clients, seed {seed:#x})", report.clients)?;
    args.report.set(Some(format!("{text}\n")));

    let bad = check_invariants(&report, &run_report(clients, seed));
    if !bad.is_empty() {
        return Err(Fail::new(1, format!("INVARIANT VIOLATED: {}", bad.join("; "))));
    }
    writeln!(out, "storage-sweep: checks pass")?;
    Ok(())
}
