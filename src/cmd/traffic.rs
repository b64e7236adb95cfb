//! Traffic attribution: where do a pattern's bytes actually go?
//!
//! Runs one ring pattern and one random pattern at L_max on the T3E
//! model and prints the per-link-kind traffic report — the mechanism
//! behind Table 1's "negative effect of random neighbor locations":
//! random placement multiplies the hop traffic while the endpoint
//! traffic stays identical.

use crate::cli::{Args, Fail};
use beff_core::beff::{rank_patterns, Method, Transfers, DEFAULT_SEED};
use beff_machines::t3e;
use beff_mpi::World;
use beff_netsim::{traffic_report, TrafficReport, MB};
use beff_report::{Align, Table};
use std::fmt::Write as _;

fn run_pattern(
    machine: &beff_machines::Machine,
    procs: usize,
    random: bool,
) -> (TrafficReport, f64) {
    let net = machine.network();
    let net2 = std::sync::Arc::clone(&net);
    let times = World::sim_partition(net, procs).run(|c| {
        // the last pattern of each family is its one big ring
        let mut patterns = rank_patterns(c.size(), c.rank(), DEFAULT_SEED);
        let (_, (left, right)) = patterns.swap_remove(if random { 11 } else { 5 });
        let mut tr = Transfers::new(c, MB);
        c.barrier();
        let t0 = c.now();
        for _ in 0..8 {
            tr.ring_iteration(c, Method::NonBlocking, left, right, MB);
        }
        c.allreduce_scalar(c.now() - t0, beff_mpi::ReduceOp::Max)
    });
    let report = traffic_report(&net2);
    let bytes = 2.0 * procs as f64 * 8.0 * MB as f64;
    (report, bytes / MB as f64 / times[0])
}

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    let procs = args.get::<usize>("--procs").unwrap_or(64);
    let machine = t3e();

    let mut table = Table::new(&[
        "pattern",
        "MB/s",
        "port bytes",
        "mem bytes",
        "hop bytes",
        "hops/message",
        "hottest hop link",
    ])
    .align(0, Align::Left);

    for random in [false, true] {
        let (r, mbps) = run_pattern(&machine, procs, random);
        table.row(&[
            if random { "random (one big ring)" } else { "ring (one big ring)" }.to_string(),
            format!("{mbps:.0}"),
            format!("{} MB", r.port_out.bytes / MB),
            format!("{} MB", r.node_mem.bytes / MB),
            format!("{} MB", r.hop.bytes / MB),
            format!("{:.2}", r.hops_per_message()),
            format!("{} MB", r.hop.max_link_bytes / MB),
        ]);
        eprintln!("done: random={random}");
    }

    writeln!(out, "\nTraffic attribution on the T3E torus ({procs} procs, 1 MB messages)\n")?;
    writeln!(out, "{}", table.render())?;
    writeln!(out, "ring neighbors are torus-adjacent (~1 hop/message); random placement")?;
    writeln!(out, "forces dimension-order routes of ~6 hops and concentrates load on")?;
    writeln!(out, "individual links — that is where the random patterns' bandwidth goes.")?;
    Ok(())
}
