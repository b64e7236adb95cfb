//! What a run reports: metrics by name with unit, the `virtual` block,
//! provenance, the result file and the one-line summary the driver
//! reads.

use crate::stats::Summary;
use beff_json::{Json, ToJson};
use std::path::{Path, PathBuf};
use std::process::Command;

pub const SCHEMA: &str = "beff-benchmark/1";

/// All load is generated from one process on the serial path; an
/// end-to-end number measured at any other worker count is refused.
pub const WORKERS: usize = 1;

/// One reported number. Timings carry the sample count and quartiles
/// they were condensed from, and — when they were scaled by the
/// reference clock — the raw median as the host clock read it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub detail: Option<Summary>,
    pub raw: Option<f64>,
}

impl Metric {
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value,
            detail: None,
            raw: None,
        }
    }

    pub fn timing(name: &'static str, unit: &'static str, s: Summary) -> Self {
        Self {
            name,
            unit,
            value: s.median,
            detail: Some(s),
            raw: None,
        }
    }

    pub fn with_raw(mut self, raw: f64) -> Self {
        self.raw = Some(raw);
        self
    }
}

impl ToJson for Metric {
    fn to_json(&self) -> Json {
        let mut o = Json::object()
            .field("value", &self.value)
            .field("unit", self.unit);
        if let Some(s) = self.detail {
            o = o.field("n", &s.n).field("q1", &s.q1).field("q3", &s.q3);
        }
        if let Some(raw) = self.raw {
            o = o.field("raw", &raw);
        }
        o.build()
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }
}

/// The outcome of one workload run (traced or not).
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: &'static str,
    pub trace: bool,
    pub seed: u64,
    pub seconds: u64,
    pub ops: u64,
    pub failed_ops: u64,
    pub metrics: Vec<Metric>,
    /// Simulated-side facts that must be identical across a
    /// speed-only change: digests, counts, residuals.
    pub virtual_block: Json,
    /// Why an op failed, sizing remarks, refused measurements.
    pub notes: Vec<String>,
    /// Per-layer self time of the traced run, for the result file.
    pub layers: Option<Json>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed_ops == 0
    }

    pub fn to_json(&self) -> Json {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| (m.name.to_string(), m.to_json()))
                .collect(),
        );
        let mut o = Json::object()
            .field("workload", self.workload)
            .field("trace", &self.trace)
            .field("seed", &self.seed)
            .field("seconds", &self.seconds)
            .field("ops", &self.ops)
            .field("failed_ops", &self.failed_ops)
            .field("correct", &self.correct())
            .raw("metrics", metrics)
            .raw("virtual", self.virtual_block.clone())
            .field("notes", &self.notes);
        if let Some(l) = &self.layers {
            o = o.raw("layers", l.clone());
        }
        o.build()
    }

    /// The last line of standard output: exactly `correct`,
    /// `attempted`, `failed` and `metrics` (name → value + unit).
    pub fn summary_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let v = Json::object()
                        .field("value", &m.value)
                        .field("unit", m.unit)
                        .build();
                    (m.name.to_string(), v)
                })
                .collect(),
        );
        let line = Json::object()
            .field("correct", &self.correct())
            .field("attempted", &self.ops.max(1))
            .field("failed", &self.failed_ops)
            .raw("metrics", metrics)
            .build();
        beff_json::to_string(&line)
    }

    /// Human-readable table: every metric by name with its unit.
    pub fn print(&self) {
        let mode = if self.trace { "traced" } else { "untraced" };
        println!(
            "== {} ({mode}, seed {:#x}, {} s) ==",
            self.workload, self.seed, self.seconds
        );
        for m in &self.metrics {
            let raw = m.raw.map(|r| format!(" raw={r:.6}")).unwrap_or_default();
            match m.detail {
                Some(s) => println!(
                    "  {:<28} {:>14.6} {:<6} n={} q1={:.6} q3={:.6}{raw}",
                    m.name, m.value, m.unit, s.n, s.q1, s.q3
                ),
                None => println!("  {:<28} {:>14.6} {}{raw}", m.name, m.value, m.unit),
            }
        }
        println!("  ops {}  failed_ops {}", self.ops, self.failed_ops);
        println!("  virtual {}", beff_json::to_string(&self.virtual_block));
        for n in &self.notes {
            println!("  note: {n}");
        }
    }
}

/// The ten end-to-end metrics, in reporting order, with their units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("max_abs_err", "ratio"),
    ("mean_abs_err", "ratio"),
    ("req_us", "us"),
    ("req_p99_us", "us"),
    ("hit_p90_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_p90_ms", "ms"),
];

/// Put the end-to-end metrics in reporting order. The driver's contract
/// has every run print all ten names; a timing that has no meaning for
/// this workload (README, "cells marked ≡") repeats the workload's
/// primary timing `primary_s` in its own unit, so it carries no
/// independent information and can neither pass nor fail on its own.
pub fn end_to_end(native: Vec<Metric>, primary_s: f64) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            native
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| {
                    let k = match unit {
                        "ms" => 1e3,
                        "us" => 1e6,
                        _ => 1.0,
                    };
                    Metric::exact(name, unit, primary_s * k)
                })
        })
        .collect()
}

/// Field `name` of a JSON object.
pub fn field<'a>(v: &'a Json, name: &str) -> Option<&'a Json> {
    match v {
        Json::Obj(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number of any flavour as f64.
pub fn num(v: &Json) -> Option<f64> {
    match v {
        Json::Float(x) => Some(*x),
        Json::Int(x) => Some(*x as f64),
        Json::UInt(x) => Some(*x as f64),
        _ => None,
    }
}

pub fn text(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

pub fn items(v: &Json) -> &[Json] {
    match v {
        Json::Arr(a) => a,
        _ => &[],
    }
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    beff_json::parse(&raw).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// `benchmark/` of the checkout this binary was built in.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root (parent of `benchmark/`).
pub fn repo_root() -> PathBuf {
    let dir = bench_dir();
    dir.parent().map(Path::to_path_buf).unwrap_or(dir)
}

/// `benchmark/out/`, created on demand.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Where and how the numbers were produced.
pub fn provenance() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let unknown = || "unknown".to_string();
    Json::object()
        .field("nproc", &nproc())
        .field("cpu_model", &cpu)
        .field("workers", &WORKERS)
        .field(
            "rustc",
            &command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        )
        .field(
            "git_commit",
            &command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        )
        .field(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .build()
}

/// A result file: provenance plus one entry per workload run.
pub fn result_file(runs: &[Json]) -> String {
    let doc = Json::object()
        .field("schema", SCHEMA)
        .raw("provenance", provenance())
        .raw("workloads", Json::Arr(runs.to_vec()))
        .build();
    let mut text = beff_json::to_string_pretty(&doc);
    text.push('\n');
    text
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let r = RunReport {
            workload: "table1",
            trace: false,
            seed: 1,
            seconds: 2,
            ops: 32,
            failed_ops: 0,
            metrics: vec![
                Metric::exact("max_abs_err", "ratio", 0.2),
                Metric::timing("pass_s", "s", Summary::of(&[8.0, 9.0, 10.0])),
            ],
            virtual_block: Json::Null,
            notes: vec![],
            layers: None,
        };
        let parsed = beff_json::parse(&r.summary_line());
        let Ok(Json::Obj(fields)) = parsed else {
            panic!("summary line is a JSON object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(r
            .summary_line()
            .contains("\"pass_s\":{\"value\":9.0,\"unit\":\"s\"}"));
        assert!(!r.summary_line().contains('\n'));
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
