//! Ablation for the paper's §5.4 discussion: the released b_eff_io
//! terminates collective pattern loops with a barrier + root check +
//! broadcast after *every* iteration; the paper proposes a geometric
//! series of repeating factors instead. This harness measures both on
//! the T3E model, where the paper's own arithmetic (60 µs barrier vs
//! 250 µs for a fast 1 kB access) says the overhead is not negligible.

use crate::cli::{Args, Fail};
use beff_bench::{beffio_cfg, PartitionRunner};
use beff_core::beffio::{PatternType, Termination};
use beff_machines::by_key;
use beff_report::{Align, Table};
use std::fmt::Write as _;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    let machine = by_key("t3e").expect("machine");
    let n = 32;
    let m = machine.sized_for(n);
    let runner = PartitionRunner::new(&m, n);

    let mut results = Vec::new();
    for term in [Termination::RootCheck, Termination::Geometric] {
        let mut cfg = beffio_cfg(&m, args.full());
        cfg.termination = term;
        let r = runner.beffio(&cfg);
        eprintln!("done: {term:?}");
        results.push((term, r));
    }

    writeln!(out, "\nAblation — collective loop termination algorithm (T3E, {n} procs)\n")?;
    let mut table = Table::new(&["pattern type", "RootCheck MB/s", "Geometric MB/s", "speedup"])
        .align(0, Align::Left);
    for ti in 0..5 {
        // compare the initial-write type bandwidths
        let a = results[0].1.methods[0].types[ti].mbps();
        let b = results[1].1.methods[0].types[ti].mbps();
        let ptype = results[0].1.methods[0].types[ti].ptype;
        table.row(&[
            format!("{} ({})", ptype as usize, ptype.name()),
            format!("{a:.1}"),
            format!("{b:.1}"),
            format!("{:.2}x", if a > 0.0 { b / a } else { 0.0 }),
        ]);
        if ptype == PatternType::Shared {
            // the small-chunk shared patterns feel the barrier most
            let pa = &results[0].1.methods[0].types[ti].patterns;
            let pb = &results[1].1.methods[0].types[ti].patterns;
            for (x, y) in pa.iter().zip(pb) {
                if x.chunk_label.starts_with("1 kB") {
                    writeln!(
                        out,
                        "  1 kB shared pattern: RootCheck {:.2} MB/s vs Geometric {:.2} MB/s",
                        x.mbps(),
                        y.mbps()
                    )?;
                }
            }
        }
    }
    table.row(&[
        "b_eff_io".into(),
        format!("{:.1}", results[0].1.beff_io),
        format!("{:.1}", results[1].1.beff_io),
        format!("{:.2}x", results[1].1.beff_io / results[0].1.beff_io),
    ]);
    writeln!(out, "{}", table.render())?;
    Ok(())
}
