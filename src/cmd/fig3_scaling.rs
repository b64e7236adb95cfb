//! Regenerates **Figure 3** of the paper: b_eff_io as a function of the
//! partition size on the Cray T3E (flat — the I/O subsystem is a global
//! resource that few clients saturate) and the IBM SP (tracks the
//! number of nodes until the per-node injection saturates GPFS).
//!
//! Also sweeps the scheduled time T, reproducing the §5.4 observation
//! that short runs benefit from the filesystem cache.

use crate::cli::{Args, Fail};
use beff_bench::PartitionRunner;
use beff_core::beffio::BeffIoConfig;
use beff_machines::{by_key, SP_IO_CLAIM, T3E_IO_CLAIM};
use beff_report::{Chart, Table};
use std::fmt::Write as _;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    // scaled T values: the paper used 10 and 15 minutes; the quick mode
    // keeps the ratio but runs seconds of virtual time
    let ts: Vec<(f64, &str)> = if args.full() {
        vec![(600.0, "T=10min"), (900.0, "T=15min")]
    } else {
        vec![(20.0, "T=20s"), (30.0, "T=30s")]
    };
    let partitions = [8usize, 16, 32, 64, 128];

    for key in ["t3e", "ibm-sp"] {
        let machine = by_key(key).expect("machine");
        let mut table_rows: Vec<Vec<String>> = Vec::new();
        let mut series: Vec<(String, Vec<f64>)> =
            ts.iter().map(|(_, tname)| (tname.to_string(), Vec::new())).collect();
        // partition outer, T inner: each partition's world is spawned
        // once and reused for every scheduled-time variant
        for &n in &partitions {
            let m = machine.sized_for(n);
            let runner = PartitionRunner::new(&m, n);
            for (ti, (t, tname)) in ts.iter().enumerate() {
                let cfg = BeffIoConfig::paper(m.mem_per_node).with_t(*t);
                let r = runner.beffio(&cfg);
                series[ti].1.push(r.beff_io);
                eprintln!("done: {key} {tname} n={n}: {:.1} MB/s", r.beff_io);
            }
        }
        for (ti, (_, tname)) in ts.iter().enumerate() {
            for (ni, &n) in partitions.iter().enumerate() {
                table_rows.push(vec![
                    tname.to_string(),
                    n.to_string(),
                    format!("{:.1}", series[ti].1[ni]),
                ]);
            }
        }

        writeln!(out, "\nFigure 3 — b_eff_io vs partition size on {}\n", machine.name)?;
        let mut table = Table::new(&["T", "procs", "b_eff_io MB/s"]);
        for r in &table_rows {
            table.row(r);
        }
        writeln!(out, "{}", table.render())?;
        let labels: Vec<String> = partitions.iter().map(|n| n.to_string()).collect();
        let mut chart =
            Chart::new(&format!("{} b_eff_io (MB/s) over procs", machine.name), &labels);
        for (name, vals) in &series {
            chart.series(name, vals);
        }
        writeln!(out, "{}", chart.render())?;
        writeln!(out, "paper claim: {}", if key == "t3e" { T3E_IO_CLAIM } else { SP_IO_CLAIM })?;
    }
    Ok(())
}
