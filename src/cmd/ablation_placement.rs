//! Ablation: rank-to-node placement on the Hitachi SR 8000 — the
//! paper's round-robin vs sequential comparison (Table 1: the
//! numbering "has a heavy impact on the communication bandwidth of the
//! ring patterns and therefore of the b_eff result").

use crate::cli::{Args, Fail};
use beff_bench::{beff_cfg, run_beff_on};
use beff_machines::{by_key, sr8000_rr, sr8000_seq};
use beff_report::{Align, Table};
use std::fmt::Write as _;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    let _ = by_key("sr8000-rr"); // catalog sanity
    let mut table = Table::new(&[
        "placement",
        "procs",
        "b_eff MB/s",
        "b_eff/proc",
        "ring/proc at Lmax",
        "random/ring ratio",
    ])
    .align(0, Align::Left);

    for n in [24usize, 64, 128] {
        for machine in [sr8000_rr().sized_for(n), sr8000_seq().sized_for(n)] {
            let cfg = beff_cfg(&machine, args.full());
            let r = run_beff_on(&machine, n, &cfg);
            eprintln!("done: {} x{n}", machine.key);
            let ring_avg: f64 =
                r.patterns.iter().filter(|p| !p.random).map(|p| p.avg_over_sizes()).sum::<f64>()
                    / 6.0;
            let rand_avg: f64 =
                r.patterns.iter().filter(|p| p.random).map(|p| p.avg_over_sizes()).sum::<f64>()
                    / 6.0;
            table.row(&[
                machine.key.to_string(),
                n.to_string(),
                format!("{:.0}", r.beff),
                format!("{:.1}", r.beff_per_proc),
                format!("{:.0}", r.ring_per_proc_at_lmax),
                format!("{:.2}", rand_avg / ring_avg),
            ]);
        }
    }

    writeln!(out, "\nAblation — SMP placement (Hitachi SR 8000)\n")?;
    writeln!(out, "{}", table.render())?;
    writeln!(out, "expected shape: sequential placement beats round-robin on rings; random patterns hurt sequential placement more (they destroy locality).")?;
    Ok(())
}
