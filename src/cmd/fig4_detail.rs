//! Regenerates **Figure 4** of the paper: the detailed per-pattern
//! bandwidth of one b_eff_io run — three access methods × five pattern
//! types over the (pseudo-log) chunk-size axis — on the four systems
//! the paper compares: IBM SP, Cray T3E, Hitachi SR 8000, NEC SX-5.

use crate::cli::{Args, Fail};
use beff_bench::{beffio_cfg, run_beffio_on};
use beff_core::beffio::PatternType;
use beff_machines::by_key;
use beff_report::Chart;
use std::fmt::Write as _;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    let procs = args.get::<usize>("--procs").unwrap_or(16);

    for key in ["ibm-sp", "t3e", "sr8000-rr", "sx5"] {
        let machine = by_key(key).expect("machine");
        let n = procs.min(machine.procs);
        let m = machine.sized_for(n);
        let cfg = beffio_cfg(&m, args.full());
        let r = run_beffio_on(&m, n, &cfg);
        eprintln!("done: {key} n={n}");

        writeln!(out, "\n==== Figure 4 row: {} ({} procs) ====", m.name, n)?;
        for method in &r.methods {
            // x axis: the eight ladder chunk labels of the standard rows
            let reference = &method.types[1]; // shared type has the 8 ladder rows
            let labels: Vec<String> =
                reference.patterns.iter().map(|p| p.chunk_label.clone()).collect();
            let mut chart = Chart::new(
                &format!("{} — bandwidth (MB/s, log) over chunk size", method.method.name()),
                &labels,
            );
            for t in &method.types {
                // align each type's patterns onto the 8 ladder slots
                let mut vals = vec![0.0; labels.len()];
                for p in &t.patterns {
                    if let Some(i) = labels.iter().position(|l| *l == p.chunk_label) {
                        vals[i] = p.mbps();
                    }
                }
                chart.series(&format!("type {} ({})", t.ptype as usize, t.ptype.name()), &vals);
            }
            writeln!(out, "{}", chart.render())?;
        }
        // the paper's key observations, checked on the spot
        let w = &r.methods[0];
        let scatter = w.types.iter().find(|t| t.ptype == PatternType::Scatter).unwrap();
        let sep = w.types.iter().find(|t| t.ptype == PatternType::Separate).unwrap();
        let small = |t: &beff_core::beffio::TypeRun, label: &str| {
            t.patterns.iter().find(|p| p.chunk_label == label).map(|p| p.mbps()).unwrap_or(0.0)
        };
        writeln!(
            out,
            "check: 1 kB chunks, initial write: scatter/collective {:.1} MB/s vs separate-files {:.1} MB/s (paper: scatter wins at small chunks)",
            small(scatter, "1 kB"),
            small(sep, "1 kB"),
        )?;
        writeln!(
            out,
            "check: wellformed 32 kB {:.1} MB/s vs non-wellformed 32 kB+8B {:.1} MB/s on separate files",
            small(sep, "32 kB"),
            small(sep, "32 kB +8B"),
        )?;
    }
    Ok(())
}
