//! The repo's one benchmark (see `benchmark/README.md`).
//!
//! ```text
//! beff-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! beff-benchmark compare A B
//! ```
//!
//! With `--workload` one workload runs in this process and the last
//! line of standard output is the one-line JSON summary the driver
//! reads. Without it every workload runs, each in a process of its own
//! so that `peak_rss_mb` is per workload. A correctness failure exits
//! non-zero.

mod compare;
mod jobs;
mod ledger;
mod refclock;
mod report;
mod serving;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Workload ids, in running order: the names later issues cite.
pub const WORKLOADS: [&str; 4] = ["table1", "fig3", "serve_hot", "serve_mix"];

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

fn parse_u64(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// `run_seconds` of `BENCHMARK.json`: the default for `--seconds`.
fn default_seconds() -> u64 {
    report::read_json(&report::repo_root().join("BENCHMARK.json"))
        .ok()
        .and_then(|doc| report::field(&doc, "run_seconds").and_then(report::num))
        .map_or(20, |s| s as u64)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0xBEFF,
        seconds: 0,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => {
                let v = value()?;
                args.seed = parse_u64(v).ok_or_else(|| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = parse_u64(v)
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds {v:?} (1..=600)"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 {
        args.seconds = default_seconds();
    }
    Ok(args)
}

fn result_path(args: &Args, workload: &str) -> Result<PathBuf, String> {
    match &args.out {
        Some(p) => Ok(p.clone()),
        None => {
            let kind = if args.trace { "traced" } else { "result" };
            Ok(report::out_dir()?.join(format!("{workload}.{kind}.json")))
        }
    }
}

/// Run one workload in this process; `Ok(true)` when its outputs were
/// correct.
fn run_one(args: &Args, workload: &'static str) -> Result<bool, String> {
    // the simulator's own worker pool stays on the serial path whatever
    // the environment says: end-to-end numbers are single-worker numbers
    std::env::set_var("BEFF_WORKERS", report::WORKERS.to_string());
    let run = if args.trace {
        ledger::run(args, workload)?
    } else {
        match workload {
            "table1" => jobs::table1(args)?,
            "fig3" => jobs::fig3(args)?,
            "serve_hot" => serving::serve_hot(args)?,
            _ => serving::serve_mix(args)?,
        }
    };
    run.print();
    let path = result_path(args, workload)?;
    report::write_file(&path, &report::result_file(&[run.to_json()]))?;
    println!("result file: {}", path.display());
    println!("{}", run.summary_line());
    Ok(run.correct())
}

/// Run every workload, each as a child process of this executable, and
/// gather their result files into one.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let child_out = report::out_dir()?.join(format!("{workload}.part.json"));
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&child_out)
            .status()
            .map_err(|e| format!("run {workload}: {e}"))?;
        all_correct &= status.success();
        if let Ok(doc) = report::read_json(&child_out) {
            entries.extend(
                report::field(&doc, "workloads")
                    .map(report::items)
                    .unwrap_or_default()
                    .to_vec(),
            );
        }
        let _ = std::fs::remove_file(&child_out);
    }
    let kind = if args.trace { "traced" } else { "result" };
    let path = match &args.out {
        Some(p) => p.clone(),
        None => report::out_dir()?.join(format!("all.{kind}.json")),
    };
    report::write_file(&path, &report::result_file(&entries))?;
    println!("result file: {}", path.display());
    Ok(all_correct && entries.len() == WORKLOADS.len())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err("usage: beff-benchmark compare A B".to_string());
        };
        let benchmark_json = report::repo_root().join("BENCHMARK.json");
        return compare::main(Path::new(a), Path::new(b), &benchmark_json).map(|bad| !bad);
    }
    let args = parse_args(&argv)?;
    match args
        .workload
        .as_deref()
        .and_then(|w| WORKLOADS.iter().find(|k| **k == w))
    {
        Some(workload) => run_one(&args, workload),
        None => run_all(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("beff-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv("--workload fig3 --seed 17 --seconds 9 --trace 1"));
        assert_eq!(
            a,
            Ok(Args {
                workload: Some("fig3".into()),
                seed: 17,
                seconds: 9,
                trace: true,
                out: None
            })
        );
        assert_eq!(
            parse_args(&argv("--seed 0xBEFF --seconds 3")).map(|a| a.seed),
            Ok(0xBEFF)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate 1")).is_err());
    }

    #[test]
    fn seconds_default_to_run_seconds_of_benchmark_json() {
        let a = parse_args(&[]);
        assert!(matches!(
            a,
            Ok(Args {
                seconds: 1..=60,
                workload: None,
                trace: false,
                ..
            })
        ));
    }
}
