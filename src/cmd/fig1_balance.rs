//! Regenerates **Figure 1** of the paper: the balance factor
//! (b_eff / R_max) for each platform.

use crate::cli::{Args, Fail};
use beff_bench::{beff_cfg, run_beff_on};
use beff_core::Balance;
use beff_machines::{by_key, table1_paper};
use beff_report::{Align, Chart, Table};
use std::fmt::Write as _;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    // one bar per Table-1 system row, at the row's processor count
    let mut table = Table::new(&[
        "system",
        "procs",
        "b_eff MB/s",
        "R_max MFlop/s",
        "balance B/flop",
        "paper balance",
    ])
    .align(0, Align::Left);

    let mut labels = Vec::new();
    let mut ours = Vec::new();
    let mut paper = Vec::new();
    for row in table1_paper() {
        let machine = by_key(row.machine_key).expect("catalog").sized_for(row.procs);
        let cfg = beff_cfg(&machine, args.full());
        let r = run_beff_on(&machine, row.procs, &cfg);
        let rmax = machine.rmax_for(row.procs);
        let b = Balance::new(r.beff, rmax);
        let paper_b = row.beff / rmax;
        table.row(&[
            machine.name.to_string(),
            row.procs.to_string(),
            format!("{:.0}", r.beff),
            format!("{rmax:.0}"),
            format!("{:.4}", b.factor()),
            format!("{paper_b:.4}"),
        ]);
        labels.push(format!("{}/{}", row.machine_key, row.procs));
        ours.push(b.factor());
        paper.push(paper_b);
        eprintln!("done: {} x{}", machine.key, row.procs);
    }

    writeln!(out, "\nFigure 1 — balance factor b_eff / R_max\n")?;
    writeln!(out, "{}", table.render())?;

    let mut chart = Chart::new("balance factor (bytes per flop, log scale)", &labels);
    chart.series("measured", &ours);
    chart.series("paper b_eff / modeled R_max", &paper);
    writeln!(out, "{}", chart.render())?;
    Ok(())
}
