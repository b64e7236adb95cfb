//! Regenerates **Table 1** of the paper: b_eff results for every system
//! row, side by side with the published numbers.

use crate::cli::{Args, Fail};
use beff_bench::{beff_cfg, run_beff_on, vs};
use beff_machines::{by_key, table1_paper};
use beff_netsim::MB;
use beff_report::{Align, Table};
use std::fmt::Write as _;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    let mut table = Table::new(&[
        "system",
        "procs",
        "b_eff (paper)",
        "/proc (paper)",
        "Lmax",
        "ping-pong (paper)",
        "at Lmax (paper)",
        "/proc at Lmax (paper)",
        "ring /proc at Lmax (paper)",
    ])
    .align(0, Align::Left);

    for row in table1_paper() {
        let machine = by_key(row.machine_key).expect("catalog covers table 1").sized_for(row.procs);
        let cfg = beff_cfg(&machine, args.full());
        let r = run_beff_on(&machine, row.procs, &cfg);
        let n = row.procs as f64;
        table.row(&[
            machine.name.to_string(),
            row.procs.to_string(),
            vs(r.beff, row.beff),
            vs(r.beff_per_proc, row.beff_per_proc),
            format!("{} MB", r.lmax / MB),
            match row.pingpong {
                Some(p) => vs(r.pingpong_mbps, p),
                None => format!("{:>8.0} (  n/a )", r.pingpong_mbps),
            },
            vs(r.beff_at_lmax, row.beff_at_lmax),
            vs(r.beff_at_lmax / n, row.per_proc_at_lmax),
            vs(r.ring_per_proc_at_lmax, row.ring_per_proc_at_lmax),
        ]);
        eprintln!("done: {} x{}", machine.key, row.procs);

        if args.has("--claims") && row.machine_key == "t3e" && row.procs == 512 {
            // §2.2 claim: the T3E-512 communicates its total memory in
            // ~3.2 s
            let total_mem = 512.0 * machine.mem_per_proc as f64 / MB as f64;
            writeln!(
                out,
                "claim check: total memory {} MB / b_eff {:.0} MB/s = {:.1} s (paper: 3.2 s)",
                total_mem,
                r.beff,
                total_mem / r.beff
            )?;
        }
    }

    writeln!(out, "\nTable 1 — effective bandwidth results, measured (paper)\n")?;
    writeln!(out, "{}", table.render())?;
    Ok(())
}
