//! Regenerates **Figure 5** of the paper: the final b_eff_io values of
//! the four platforms at several partition sizes.

use crate::cli::{Args, Fail};
use beff_bench::{beffio_cfg, run_beffio_on};
use beff_core::beffio::AccessMethod;
use beff_machines::by_key;
use beff_report::{Align, Chart, Table};
use std::fmt::Write as _;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    let systems: [(&str, Vec<usize>); 4] = [
        ("t3e", vec![8, 16, 32, 64]),
        ("ibm-sp", vec![8, 16, 32, 64]),
        ("sr8000-rr", vec![8, 16, 32]),
        ("sx5", vec![2, 4]),
    ];

    let mut table = Table::new(&[
        "system",
        "procs",
        "write MB/s",
        "rewrite MB/s",
        "read MB/s",
        "b_eff_io MB/s",
    ])
    .align(0, Align::Left);

    let mut chart_labels: Vec<String> = Vec::new();
    let mut chart_vals: Vec<f64> = Vec::new();
    for (key, partitions) in &systems {
        let machine = by_key(key).expect("machine");
        for &n in partitions {
            let m = machine.sized_for(n);
            let cfg = beffio_cfg(&m, args.full());
            let r = run_beffio_on(&m, n, &cfg);
            table.row(&[
                m.name.to_string(),
                n.to_string(),
                format!("{:.1}", r.method_value(AccessMethod::InitialWrite).unwrap_or(0.0)),
                format!("{:.1}", r.method_value(AccessMethod::Rewrite).unwrap_or(0.0)),
                format!("{:.1}", r.method_value(AccessMethod::Read).unwrap_or(0.0)),
                format!("{:.1}", r.beff_io),
            ]);
            chart_labels.push(format!("{key}/{n}"));
            chart_vals.push(r.beff_io);
            eprintln!("done: {key} n={n}: {:.1} MB/s", r.beff_io);
        }
    }

    writeln!(out, "\nFigure 5 — final b_eff_io comparison\n")?;
    writeln!(out, "{}", table.render())?;
    let mut chart = Chart::new("b_eff_io (MB/s, log scale)", &chart_labels);
    chart.series("b_eff_io", &chart_vals);
    writeln!(out, "{}", chart.render())?;
    Ok(())
}
