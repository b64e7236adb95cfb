//! The paper's §6 plan: "It is planned to use both benchmarks in the
//! *Top Clusters* list." This harness produces such a list from the
//! machine catalog — every system ranked by b_eff, with b_eff_io and
//! the balance factor alongside — and emits a SKaMPI-compatible dump of
//! the b_eff curves (the other §6 item).

use crate::cli::{Args, Fail};
use beff_bench::{beff_cfg, beffio_cfg, PartitionRunner};
use beff_core::Balance;
use beff_machines::catalog;
use beff_report::{skampi::SkampiReport, Align, Table};
use std::fmt::Write as _;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    struct Row {
        name: String,
        procs: usize,
        beff: f64,
        beff_io: Option<f64>,
        balance: f64,
    }
    let mut rows = Vec::new();

    for machine in catalog() {
        // skip the duplicate SR 8000 placement variant in the ranking
        if machine.key == "sr8000-seq" {
            continue;
        }
        let n = machine.procs.min(32);
        let m = machine.sized_for(if n % 8 == 0 { n } else { machine.procs.min(16) });
        let n = m.procs.min(32);
        let cfg = beff_cfg(&m, args.full());
        // one resident world per system serves both benchmarks
        let runner = PartitionRunner::new(&m, n);
        let r = runner.beff(&cfg);
        eprintln!("done: {} b_eff", m.key);
        let beff_io = m.io.as_ref().map(|_| {
            let iocfg = beffio_cfg(&m, args.full()).with_t(10.0);
            let v = runner.beffio(&iocfg).beff_io;
            eprintln!("done: {} b_eff_io", m.key);
            v
        });
        if args.has("--skampi") {
            let mut rep = SkampiReport::new(m.name, "b_eff");
            rep.meta("processes", n).meta("Lmax_bytes", r.lmax);
            for p in &r.patterns {
                let pts: Vec<(f64, f64)> =
                    r.sizes.iter().zip(&p.curve).map(|(&s, &b)| (s as f64, b)).collect();
                rep.block(&p.name, "bytes", "MB/s", &pts);
            }
            let path = format!("skampi_{}.txt", m.key);
            std::fs::write(&path, rep.render())
                .map_err(|e| Fail::new(1, format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        rows.push(Row {
            name: m.name.to_string(),
            procs: n,
            beff: r.beff,
            beff_io,
            balance: Balance::new(r.beff, m.rmax_for(n)).factor(),
        });
    }

    rows.sort_by(|a, b| b.beff.partial_cmp(&a.beff).unwrap());

    let mut table =
        Table::new(&["rank", "system", "procs", "b_eff MB/s", "b_eff_io MB/s", "balance B/flop"])
            .align(1, Align::Left);
    for (i, r) in rows.iter().enumerate() {
        table.row(&[
            (i + 1).to_string(),
            r.name.clone(),
            r.procs.to_string(),
            format!("{:.0}", r.beff),
            r.beff_io.map_or("-".into(), |v| format!("{v:.1}")),
            format!("{:.4}", r.balance),
        ]);
    }
    writeln!(out, "\nTop Clusters — ranked by effective bandwidth (paper §6)\n")?;
    writeln!(out, "{}", table.render())?;
    Ok(())
}
