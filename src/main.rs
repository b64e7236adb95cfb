//! `beff` — one command for every table, figure, ablation, gate and
//! service of the reproduction.
//!
//! ```text
//! cargo run --release -- <command> [flags]     # e.g. `-- table1 --full`
//! cargo run --release -- help                  # the command table
//! ```
//!
//! [`COMMANDS`] declares each subcommand; the harness in [`cli`] owns
//! flag parsing, stdout, `--out`/`--golden` reports and the golden
//! replay of `beff goldens`. `beff-analyze` stays a binary of its own:
//! it gates the source of this stack and must build without it.

mod cli;
mod cmd;

use beff::sim::map_ordered;
use cli::Kind::{Int, Real, Switch, Text};
use cli::{Args, Command, Fail, Flag, Golden, FULL, GOLDEN, HERO_PROCS, OUT, PROCS};
use cmd::*;
use std::fmt::Write as _;
use Golden::{Report, Stdout, Unpinned};

/// A command without positional arguments.
const fn cmd(
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: cli::Run,
    golden: Golden,
) -> Command {
    Command { name, about, flags, rest: None, run, golden }
}

/// Every subcommand. `beff help` prints this table; `beff goldens`
/// replays every [`Golden::Stdout`] entry.
static COMMANDS: &[Command] = &[
    cmd(
        "table1",
        "Table 1: b_eff per system",
        &[FULL, Flag("--claims", Switch)],
        table1::run,
        Stdout,
    ),
    cmd("fig1_balance", "Fig. 1: balance factor b_eff / R_max", &[FULL], fig1_balance::run, Stdout),
    cmd("table2_patterns", "Table 2: the b_eff_io pattern list", &[], table2_patterns::run, Stdout),
    cmd("fig3_scaling", "Fig. 3: b_eff_io vs partition size", &[FULL], fig3_scaling::run, Stdout),
    cmd("fig4_detail", "Fig. 4: per-pattern detail", &[FULL, PROCS], fig4_detail::run, Stdout),
    cmd("fig5_compare", "Fig. 5: final b_eff_io comparison", &[FULL], fig5_compare::run, Stdout),
    cmd("ablation_termination", "§5.4 termination", &[FULL], ablation_termination::run, Stdout),
    cmd("ablation_twophase", "two-phase I/O on/off", &[FULL], ablation_twophase::run, Stdout),
    cmd("ablation_cache", "fs cache vs schedule T", &[FULL], ablation_cache::run, Stdout),
    cmd("ablation_placement", "SR 8000 rank placement", &[FULL], ablation_placement::run, Stdout),
    cmd("ablation_random", "§6: random access patterns", &[FULL], ablation_random::run, Stdout),
    cmd("traffic", "per-link traffic: ring vs random on the torus", &[PROCS], traffic::run, Stdout),
    cmd(
        "top_clusters",
        "§6: the catalog ranked by b_eff (+ SKaMPI dumps)",
        &[FULL, Flag("--skampi", Switch)],
        top_clusters::run,
        Unpinned,
    ),
    Command {
        rest: Some("[GROUP ...]"),
        ..cmd(
            "calibrate",
            "gate: Table-1 residuals on the committed constants (--fit refits)",
            &[Flag("--tolerance", Real), OUT, GOLDEN, Flag("--fit", Switch), Flag("--sweeps", Int)],
            calibrate::run,
            Report("results/calibration.json"),
        )
    },
    cmd(
        "chaos",
        "gate: the fault-scenario matrix and its invariants",
        &[Flag("--seed", Int), OUT, GOLDEN, Flag("--strict", Switch)],
        chaos::run,
        Report("results/chaos.json"),
    ),
    cmd(
        "storage_sweep",
        "gate: PFS-only workload on beff-sim actors, no MPI",
        &[Flag("--clients", Int), OUT, GOLDEN, Flag("--check", Switch)],
        storage_sweep::run,
        Report("results/storage_sweep.json"),
    ),
    cmd(
        "loadgen",
        "gate: seeded query mix and cache audit on an in-process server",
        &[OUT, GOLDEN, Flag("--queries", Int), Flag("--hit-ratio", Real), HERO_PROCS],
        loadgen::run,
        Report("results/serve_virtual.json"),
    ),
    cmd(
        "serve_torture",
        "gate: the serving layer's failure model",
        &[OUT, GOLDEN, Flag("--report", Text("FILE")), Flag("--scratch", Text("DIR")), HERO_PROCS],
        serve_torture::run,
        Report("results/serve_torture.json"),
    ),
    cmd(
        "serve",
        "the resident daemon (default 127.0.0.1:7433 or $BEFF_SERVE_ADDR)",
        &[Flag("--addr", Text("HOST:PORT")), Flag("--journal", Text("PATH"))],
        serve::run,
        Unpinned,
    ),
    cmd("goldens", "replay every Stdout-pinned command", &[], goldens, Unpinned),
    cmd("help", "print this table", &[], help, Unpinned),
];

fn help(_: &Args, out: &mut String) -> Result<(), Fail> {
    table(out);
    Ok(())
}

fn table(out: &mut String) {
    out.push_str("usage: beff <command> [flags]\n\n");
    for c in COMMANDS {
        let _ = writeln!(out, "  {}\n      {}", c.usage(), c.about);
        match c.golden {
            Stdout => {
                let _ =
                    writeln!(out, "      stdout pinned by {} (beff goldens)", c.stdout_golden());
            }
            Report(path) => {
                let _ = writeln!(out, "      report pinned by {path} (--golden)");
            }
            Unpinned => {}
        }
    }
}

/// Run every text experiment at its defaults in this process and
/// compare its stdout with the committed file byte for byte. The
/// experiments are independent, so they run side by side on the
/// `BEFF_WORKERS` pool; results come back in table order.
fn goldens(_: &Args, out: &mut String) -> Result<(), Fail> {
    let pinned: Vec<&'static Command> =
        COMMANDS.iter().filter(|c| matches!(c.golden, Stdout)).collect();
    let runs = map_ordered(cli::workers()?, pinned, |_, c| {
        let mut text = String::new();
        // beff-analyze: dynamic-call: dispatch through the command table
        let run = (c.run)(&Args::defaults(c), &mut text);
        (c, run.map(|()| text))
    });
    let mut diverged = Vec::new();
    for (c, run) in runs {
        let text = run.map_err(|f| Fail::new(f.code, format!("{}: {}", c.name, f.message)))?;
        let path = c.stdout_golden();
        let same = std::fs::read(&path).is_ok_and(|want| want == text.as_bytes());
        writeln!(out, "{:<8} {path}", if same { "ok" } else { "DIVERGED" })?;
        if !same {
            diverged.push(path);
        }
    }
    if diverged.is_empty() {
        Ok(())
    } else {
        Err(Fail::new(1, format!("stdout differs from {}", diverged.join(", "))))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().and_then(|name| COMMANDS.iter().find(|c| c.name == name))
    else {
        let mut out = String::new();
        table(&mut out);
        eprint!("{out}");
        if let Some(name) = argv.first() {
            eprintln!("\nbeff: unknown command {name:?}");
        }
        std::process::exit(2);
    };
    let args = Args::parse(command, &argv[1..]).unwrap_or_else(|fail| {
        eprintln!("beff {}: {}\nusage: beff {}", command.name, fail.message, command.usage());
        std::process::exit(fail.code);
    });
    let mut out = String::new();
    // beff-analyze: dynamic-call: dispatch through the command table
    let result = (command.run)(&args, &mut out);
    print!("{out}");
    if let Err(fail) = result {
        eprintln!("beff {}: {}", command.name, fail.message);
        std::process::exit(fail.code);
    }
}
