//! Ablation: two-phase collective buffering on/off/forced.
//!
//! * **on** (default hints) — pattern type 0's small scattered chunks
//!   are exchanged over the message network and written as large
//!   contiguous blocks: the mechanism that makes scatter/collective the
//!   best type at small chunk sizes on every platform of Fig. 4;
//! * **off** — each rank writes its own small chunks: per-call
//!   overheads dominate;
//! * **forced** — the exchange also runs when every rank's request is
//!   already contiguous, emulating the naive collective of the paper's
//!   SP prototype (Fig. 4: segmented-collective 10x worse than
//!   segmented-non-collective).

use crate::cli::{Args, Fail};
use beff_bench::{beffio_cfg, PartitionRunner};
use beff_core::beffio::PatternType;
use beff_machines::by_key;
use beff_mpiio::Hints;
use beff_report::{Align, Table};
use std::fmt::Write as _;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    let machine = by_key("t3e").expect("machine");
    let n = 16;
    let m = machine.sized_for(n);
    let runner = PartitionRunner::new(&m, n);

    let variants: [(&str, Hints); 3] = [
        ("two-phase on", Hints::default()),
        ("two-phase off", Hints::no_collective_buffering()),
        ("forced exchange", Hints { force_two_phase: true, ..Hints::default() }),
    ];

    let mut table = Table::new(&[
        "hints",
        "type0 write MB/s",
        "type0 1kB chunks MB/s",
        "type4 write MB/s",
        "b_eff_io MB/s",
    ])
    .align(0, Align::Left);

    for (name, hints) in variants {
        let mut cfg = beffio_cfg(&m, args.full());
        cfg.hints = hints;
        let r = runner.beffio(&cfg);
        eprintln!("done: {name}");
        let w = &r.methods[0];
        let t0 = w.types.iter().find(|t| t.ptype == PatternType::Scatter).unwrap();
        let t4 = w.types.iter().find(|t| t.ptype == PatternType::SegColl).unwrap();
        let small =
            t0.patterns.iter().find(|p| p.chunk_label == "1 kB").map(|p| p.mbps()).unwrap_or(0.0);
        table.row(&[
            name.to_string(),
            format!("{:.1}", t0.mbps()),
            format!("{small:.2}"),
            format!("{:.1}", t4.mbps()),
            format!("{:.1}", r.beff_io),
        ]);
    }

    writeln!(out, "\nAblation — collective buffering (T3E, {n} procs)\n")?;
    writeln!(out, "{}", table.render())?;
    Ok(())
}
