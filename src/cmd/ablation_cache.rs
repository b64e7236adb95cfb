//! Ablation: filesystem-cache size sweep — the §5.4 caching
//! discussion. A short benchmark on a machine with a big cache (the
//! NEC SX-5's 2 GB SFS cache) reports bandwidths above the disks'
//! hardware peak; growing T (or shrinking the cache) pushes the value
//! back toward disk speed. Verifies the paper's warning that "one may
//! use any schedule time T" is a real loophole.

use crate::cli::{Args, Fail};
use beff_bench::PartitionRunner;
use beff_core::beffio::BeffIoConfig;
use beff_machines::by_key;
use beff_netsim::MB;
use beff_report::{Align, Table};
use std::fmt::Write as _;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    let base = by_key("sx5").expect("machine");
    let n = 4;
    let disk_peak = base.io.as_ref().map(|io| io.servers as f64 * io.server_mbps).unwrap_or(0.0);

    let (t_short, t_long) = if args.full() { (600.0, 1800.0) } else { (10.0, 60.0) };

    let mut table = Table::new(&[
        "cache",
        "T s",
        "write MB/s",
        "read MB/s",
        "b_eff_io MB/s",
        "best pattern MB/s",
        "best vs disk peak",
    ])
    .align(0, Align::Left);

    for cache_mb in [0u64, 256, 2048] {
        let mut m = base.clone();
        if let Some(io) = &mut m.io {
            io.cache_bytes = cache_mb * MB;
        }
        // one resident world per cache variant, shared by both T runs
        // (the filesystem itself is rebuilt fresh inside each run)
        let runner = PartitionRunner::new(&m, n);
        for t in [t_short, t_long] {
            let cfg = BeffIoConfig::paper(m.mem_per_node).with_t(t);
            let r = runner.beffio(&cfg);
            eprintln!("done: cache={cache_mb}MB T={t}");
            let w = r.method_value(beff_core::beffio::AccessMethod::InitialWrite).unwrap();
            let rd = r.method_value(beff_core::beffio::AccessMethod::Read).unwrap();
            // the §5.4 anecdote concerns the *fastest* cached pattern —
            // "other benchmark programs have reported a bandwidth
            // significantly higher than the hardware peak of the disks"
            let best = r
                .methods
                .iter()
                .flat_map(|m| m.types.iter())
                .flat_map(|ty| ty.patterns.iter())
                .map(|p| p.mbps())
                .fold(0.0f64, f64::max);
            table.row(&[
                format!("{cache_mb} MB"),
                format!("{t:.0}"),
                format!("{w:.1}"),
                format!("{rd:.1}"),
                format!("{:.1}", r.beff_io),
                format!("{best:.0}"),
                format!("{:.2}x", best / disk_peak),
            ]);
        }
    }

    writeln!(out, "\nAblation — filesystem cache vs schedule time (SX-5, {n} procs)")?;
    writeln!(out, "disk hardware peak: {disk_peak:.0} MB/s\n")?;
    writeln!(out, "{}", table.render())?;
    writeln!(out, "expected shape: with a big cache the fastest pattern exceeds the disk")?;
    writeln!(out, "hardware peak (the paper's SX-5 anecdote); without a cache it cannot.")?;
    Ok(())
}
