//! `beff` — one command for every table, figure, ablation, gate and
//! service of the reproduction.
//!
//! ```text
//! cargo run --release -- <command> [flags]     # e.g. `-- table1 --full`
//! cargo run --release -- help                  # the command table
//! ```
//!
//! [`COMMANDS`] declares each subcommand; the harness in [`cli`] owns
//! flag parsing, stdout and `--out` reports, and [`goldens`] replays
//! every committed golden. `beff-analyze` stays a binary of its own:
//! it gates the source of this stack and must build without it.

mod cli;
mod cmd;

use beff::sim::{map_ordered, Workers};
use cli::Kind::{Int, Real, Switch, Text};
use cli::{Args, Command, Fail, Flag, Golden, FULL, HERO_PROCS, OUT, PROCS};
use cmd::*;
use std::fmt::Write as _;
use Golden::{Parity, Report, Stdout, Unpinned};

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
/// replays every pinned entry.
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
        Stdout,
    ),
    Command {
        rest: Some("[GROUP ...]"),
        ..cmd(
            "calibrate",
            "gate: Table-1 residuals on the committed constants (--fit refits)",
            &[Flag("--tolerance", Real), OUT, Flag("--fit", Switch), Flag("--sweeps", Int)],
            calibrate::run,
            Parity("results/calibration.json"),
        )
    },
    cmd(
        "chaos",
        "gate: the fault-scenario matrix and its invariants",
        &[Flag("--seed", Int), OUT, Flag("--strict", Switch)],
        chaos::run,
        Parity("results/chaos.json"),
    ),
    cmd(
        "storage_sweep",
        "gate: PFS-only workload on beff-sim actors, no MPI",
        &[Flag("--clients", Int), OUT],
        storage_sweep::run,
        Report("results/storage_sweep.json"),
    ),
    cmd(
        "loadgen",
        "gate: seeded query mix and cache audit on an in-process server",
        &[OUT, Flag("--queries", Int), Flag("--hit-ratio", Real), HERO_PROCS],
        loadgen::run,
        Parity("results/serve_virtual.json"),
    ),
    cmd(
        "serve_torture",
        "gate: the serving layer's failure model",
        &[OUT, Flag("--scratch", Text("DIR")), HERO_PROCS],
        serve_torture::run,
        Parity("results/serve_torture.json"),
    ),
    cmd(
        "serve",
        "the resident daemon (default 127.0.0.1:7433 or $BEFF_SERVE_ADDR)",
        &[Flag("--addr", Text("HOST:PORT")), Flag("--journal", Text("PATH"))],
        serve::run,
        Unpinned,
    ),
    cmd("goldens", "replay every pinned command and compare its golden", &[], goldens, Unpinned),
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
        if let Some(path) = c.golden_path() {
            let at = if matches!(c.golden, Parity(_)) { " at 1 and 4 workers" } else { "" };
            let _ = writeln!(out, "      pinned by {path}{at} (beff goldens)");
        }
    }
}

/// Replay every pinned command at its defaults in this process and
/// compare its stdout or report with its golden byte for byte, a
/// [`Golden::Parity`] one at 1 and at 4 workers. Replays share nothing
/// (own servers, own scratch directory), so they run side by side on
/// the `BEFF_WORKERS` pool, the pool-bound ones first. This is the
/// binary's one home of host time.
#[expect(
    clippy::disallowed_types,
    reason = "prints each replay's wall time; nothing compared reads it"
)]
fn goldens(args: &Args, out: &mut String) -> Result<(), Fail> {
    let pool_bound = COMMANDS.iter().filter(|c| matches!(c.golden, Parity(_)));
    let once = COMMANDS.iter().filter(|c| matches!(c.golden, Stdout | Report(_)));
    let replays: Vec<(&'static Command, Option<Workers>)> = pool_bound
        .flat_map(|c| [1, 4].map(|n| (c, Some(Workers::new(n)))))
        .chain(once.map(|c| (c, None)))
        .collect();
    let runs = map_ordered(args.workers()?, replays, |_, (c, workers)| {
        let t0 = std::time::Instant::now();
        let (replay, mut text) = (Args::replay(c, workers), String::new());
        // beff-analyze: dynamic-call: dispatch through the command table
        let run = (c.run)(&replay, &mut text);
        let got = if matches!(c.golden, Stdout) { Some(text) } else { replay.report.take() };
        (c, workers, run.map(|()| got), t0.elapsed().as_secs_f64())
    });
    let mut diverged = Vec::new();
    for (c, workers, run, secs) in runs {
        let path = c.golden_path().unwrap_or_default();
        let at = workers.map_or(String::new(), |w| format!("workers={}", w.get()));
        let status = match &run {
            Ok(Some(got)) if std::fs::read(&path).is_ok_and(|want| want == got.as_bytes()) => "ok",
            Ok(_) => "DIVERGED",
            Err(_) => "FAILED",
        };
        writeln!(out, "{status:<8} {path:<32} {at:<9} {secs:6.2} s")?;
        if let Err(f) = run {
            writeln!(out, "         {}", f.message)?;
        }
        if status != "ok" {
            diverged.push(format!("{path} {at}").trim_end().to_string());
        }
    }
    if diverged.is_empty() {
        Ok(())
    } else {
        Err(Fail::new(1, format!("golden not reproduced: {}", diverged.join(", "))))
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
    let run = (command.run)(&args, &mut out);
    let result = run.and(args.write_out());
    print!("{out}");
    if let Err(fail) = result {
        eprintln!("beff {}: {}", command.name, fail.message);
        std::process::exit(fail.code);
    }
}

#[cfg(test)]
mod tests {
    /// `beff goldens` leaves no committed golden unreplayed: each file in
    /// `results/` is claimed by exactly one command, and each claim
    /// exists. `analyze.json` is no golden: the analyze gate writes its
    /// own report and only diffs diagnostic counts against this one. A
    /// command stays only if it regenerates a paper table or a gate, so
    /// only the daemon and the harness's own commands go unpinned.
    #[test]
    fn every_committed_golden_is_replayed_once() {
        let unpinned = super::COMMANDS.iter().filter(|c| c.golden_path().is_none());
        assert_eq!(unpinned.map(|c| c.name).collect::<Vec<_>>(), ["serve", "goldens", "help"]);
        let dir = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/results"));
        let mut committed: Vec<String> = (dir.into_iter().flatten().flatten())
            .map(|entry| format!("results/{}", entry.file_name().to_string_lossy()))
            .filter(|path| path != "results/analyze.json")
            .collect();
        let mut claimed: Vec<String> =
            super::COMMANDS.iter().filter_map(super::Command::golden_path).collect();
        committed.sort();
        claimed.sort();
        assert_eq!(claimed, committed);
    }
}
