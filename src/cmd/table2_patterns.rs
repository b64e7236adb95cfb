//! Regenerates **Table 2** of the paper: the b_eff_io pattern list,
//! printed from the code (the invariants ΣU = 64 etc. are enforced by
//! the unit tests of `beff-core::beffio::patterns`).

use crate::cli::{Args, Fail};
use beff_core::beffio::{all_patterns, mpart, sum_u};
use beff_netsim::{GB, MB};
use beff_report::{Align, Table};
use std::fmt::Write as _;

pub fn run(_: &Args, out: &mut String) -> Result<(), Fail> {
    let mp = mpart(2 * GB); // a 2 GB node: M_PART = 16 MB
    let mut table =
        Table::new(&["type", "No.", "l (disk chunk)", "L (per call)", "U"]).align(0, Align::Left);
    for p in all_patterns() {
        table.row(&[
            format!("{}: {}", p.ptype as usize, p.ptype.name()),
            p.id.to_string(),
            if p.fillup { "fill up segment".into() } else { p.chunk_label() },
            if p.fillup || p.chunks_per_call == 1 {
                ":=l".into()
            } else {
                format!("{} B ({} chunks)", p.call_bytes(mp), p.chunks_per_call)
            },
            p.u.to_string(),
        ]);
    }
    writeln!(out, "Table 2 — the b_eff_io patterns (M_PART = {} MB here)\n", mp / MB)?;
    writeln!(out, "{}", table.render())?;
    writeln!(out, "sum of U = {} (paper: 64)", sum_u())?;
    Ok(())
}
