//! `compare A B`: two result files (or two directories of them, one
//! file per run), per workload × end-to-end metric the two medians, the
//! change, the bound from `BENCHMARK.json` and a verdict.
//!
//! * `ok` — B is not worse than A by more than the bound;
//! * `regressed` — it is, and the spread of both sides is within the
//!   bound, so the difference is resolved;
//! * `unresolved` — a side's spread (inter-quartile distance as a share
//!   of the median; across runs when a side has several, else the
//!   quartiles recorded inside the run) is wider than the bound, and the
//!   runs do not all fall on one side.
//!
//! The exit code is non-zero on a regression or when B fails a larger
//! share of its operations than A.

use crate::report::{field, items, num, read_json, text};
use crate::stats;
use beff_json::Json;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The values one side holds for a (workload, metric): one per run, and
/// the within-run spread of the first run for single-run sides.
#[derive(Debug, Clone, Default)]
pub struct Side {
    pub values: Vec<f64>,
    pub inner_spread: f64,
}

impl Side {
    pub fn median(&self) -> f64 {
        stats::median(&self.values)
    }

    pub fn spread(&self) -> f64 {
        if self.values.len() >= 2 {
            stats::spread(&self.values)
        } else {
            self.inner_spread
        }
    }
}

/// How much worse B's median is than A's, as a share of A's (negative =
/// better).
pub fn worse_by(spec: &Spec, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    let change = (b - a) / a.abs();
    if spec.lower_is_better {
        change
    } else {
        -change
    }
}

pub fn judge(spec: &Spec, a: &Side, b: &Side) -> Verdict {
    let worse = worse_by(spec, a.median(), b.median());
    if a.spread().max(b.spread()) <= spec.bound {
        return if worse > spec.bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    // Too noisy for the bound to resolve: only runs that all fall on one
    // side decide, and a single run cannot show a regression.
    let pairs = || {
        a.values
            .iter()
            .flat_map(|&va| b.values.iter().map(move |&vb| worse_by(spec, va, vb)))
    };
    if pairs().all(|w| w <= 0.0) {
        Verdict::Ok
    } else if a.values.len().min(b.values.len()) >= 2 && pairs().all(|w| w > spec.bound) {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

pub fn specs_of(benchmark: &Json) -> Vec<Spec> {
    field(benchmark, "end_to_end")
        .map(items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(Spec {
                name: field(m, "name").and_then(text)?.to_string(),
                lower_is_better: field(m, "better").and_then(text)? != "higher",
                bound: field(m, "bound").and_then(num)?,
            })
        })
        .collect()
}

/// Everything one side of the comparison holds.
#[derive(Debug, Default)]
pub struct Loaded {
    /// (workload, metric) → values
    pub metrics: BTreeMap<(String, String), Side>,
    /// workload → (ops, failed_ops) summed over runs
    pub ops: BTreeMap<String, (f64, f64)>,
    /// workload → the `virtual` block of each run, serialised
    pub virtuals: BTreeMap<String, Vec<String>>,
    pub runs: usize,
}

impl Loaded {
    /// Add the untraced workload entries of one result document.
    pub fn add(&mut self, doc: &Json) {
        for w in field(doc, "workloads").map(items).unwrap_or_default() {
            if matches!(field(w, "trace"), Some(Json::Bool(true))) {
                continue;
            }
            let Some(name) = field(w, "workload").and_then(text) else {
                continue;
            };
            self.runs += 1;
            let ops = self.ops.entry(name.to_string()).or_default();
            ops.0 += field(w, "ops").and_then(num).unwrap_or(0.0);
            ops.1 += field(w, "failed_ops").and_then(num).unwrap_or(0.0);
            if let Some(v) = field(w, "virtual") {
                self.virtuals
                    .entry(name.to_string())
                    .or_default()
                    .push(beff_json::to_string(v));
            }
            let Some(Json::Obj(metrics)) = field(w, "metrics") else {
                continue;
            };
            for (metric, m) in metrics {
                let Some(value) = field(m, "value").and_then(num) else {
                    continue;
                };
                let side = self
                    .metrics
                    .entry((name.to_string(), metric.clone()))
                    .or_default();
                if side.values.is_empty() {
                    let q = |k: &str| field(m, k).and_then(num);
                    if let (Some(q1), Some(q3)) = (q("q1"), q("q3")) {
                        side.inner_spread = if value == 0.0 {
                            0.0
                        } else {
                            (q3 - q1) / value.abs()
                        };
                    }
                }
                side.values.push(value);
            }
        }
    }
}

/// A result file, or every `*.json` result file of a directory.
pub fn load(path: &Path) -> Result<Loaded, String> {
    let mut loaded = Loaded::default();
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        for f in files {
            let doc = read_json(&f)?;
            if field(&doc, "schema").and_then(text) == Some(crate::report::SCHEMA) {
                loaded.add(&doc);
            }
        }
    } else {
        loaded.add(&read_json(path)?);
    }
    if loaded.runs == 0 {
        return Err(format!("{}: no untraced workload results", path.display()));
    }
    Ok(loaded)
}

/// Print the table; `true` when B regressed or fails more.
pub fn report(specs: &[Spec], a: &Loaded, b: &Loaded) -> bool {
    let mut bad = false;
    println!(
        "{:<10} {:<13} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse%", "sprA%", "sprB%", "bound%"
    );
    for ((workload, metric), side_a) in &a.metrics {
        let Some(side_b) = b.metrics.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(spec) = specs.iter().find(|s| s.name == *metric) else {
            continue;
        };
        let verdict = judge(spec, side_a, side_b);
        bad |= verdict == Verdict::Regressed;
        println!(
            "{workload:<10} {metric:<13} {:>14.6} {:>14.6} {:>8.2} {:>7.2} {:>7.2} {:>6.1}  {}",
            side_a.median(),
            side_b.median(),
            worse_by(spec, side_a.median(), side_b.median()) * 100.0,
            side_a.spread() * 100.0,
            side_b.spread() * 100.0,
            spec.bound * 100.0,
            verdict.as_str()
        );
    }
    for (workload, &(ops_a, failed_a)) in &a.ops {
        let Some(&(ops_b, failed_b)) = b.ops.get(workload) else {
            continue;
        };
        let (rate_a, rate_b) = (failed_a / ops_a.max(1.0), failed_b / ops_b.max(1.0));
        let more = rate_b > rate_a;
        bad |= more;
        println!(
            "{workload:<10} failed_ops/ops  A {failed_a}/{ops_a}  B {failed_b}/{ops_b}  {}",
            if more { "B fails more" } else { "ok" }
        );
        let one = |l: &Loaded| {
            let mut v = l.virtuals.get(workload).cloned().unwrap_or_default();
            v.sort();
            v.dedup();
            v
        };
        let (va, vb) = (one(a), one(b));
        // one entry per distinct seed run; both sides must have run the same seeds
        let same = !va.is_empty() && va == vb;
        println!(
            "{workload:<10} virtual  {}",
            if same { "identical" } else { "DIFFERS" }
        );
    }
    bad
}

pub fn main(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let specs = specs_of(&read_json(benchmark_json)?);
    if specs.is_empty() {
        return Err(format!(
            "{}: no end_to_end metrics",
            benchmark_json.display()
        ));
    }
    Ok(report(&specs, &load(a)?, &load(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end":[
        {"name":"pass_s","unit":"s","better":"lower","bound":0.1},
        {"name":"max_abs_err","unit":"ratio","better":"lower","bound":0.000000001},
        {"name":"qps","unit":"1/s","better":"higher","bound":0.1}]}"#;

    fn run(workload: &str, pass_s: f64, q1: f64, q3: f64, failed: u64) -> String {
        format!(
            r#"{{"schema":"beff-benchmark/1","workloads":[{{"workload":"{workload}","trace":false,
            "ops":32,"failed_ops":{failed},"virtual":{{"digest":"ab"}},
            "metrics":{{"pass_s":{{"value":{pass_s},"unit":"s","n":3,"q1":{q1},"q3":{q3}}},
                       "max_abs_err":{{"value":0.2,"unit":"ratio"}}}}}}]}}"#
        )
    }

    fn loaded(docs: &[String]) -> Loaded {
        let mut l = Loaded::default();
        for d in docs {
            match beff_json::parse(d) {
                Ok(doc) => l.add(&doc),
                Err(e) => panic!("fixture: {e}"),
            }
        }
        l
    }

    fn specs() -> Vec<Spec> {
        match beff_json::parse(BENCHMARK) {
            Ok(doc) => specs_of(&doc),
            Err(e) => panic!("fixture: {e}"),
        }
    }

    fn verdict(a: &Loaded, b: &Loaded, metric: &str) -> Verdict {
        let key = ("table1".to_string(), metric.to_string());
        let specs = specs();
        let Some(spec) = specs.iter().find(|s| s.name == metric) else {
            panic!("spec")
        };
        judge(spec, &a.metrics[&key], &b.metrics[&key])
    }

    #[test]
    fn single_runs_use_the_quartiles_recorded_in_the_run() {
        let a = loaded(&[run("table1", 8.0, 7.9, 8.1, 0)]);
        assert_eq!(
            verdict(&a, &loaded(&[run("table1", 8.4, 8.3, 8.5, 0)]), "pass_s"),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &loaded(&[run("table1", 9.0, 8.9, 9.1, 0)]), "pass_s"),
            Verdict::Regressed
        );
        // a wide spread on one side: 12 % worse cannot be resolved …
        let noisy = loaded(&[run("table1", 9.0, 8.0, 10.0, 0)]);
        assert_eq!(verdict(&a, &noisy, "pass_s"), Verdict::Unresolved);
        // … but an improvement is an improvement
        assert_eq!(verdict(&noisy, &a, "pass_s"), Verdict::Ok);
        // exact metrics compare exactly
        assert_eq!(verdict(&a, &noisy, "max_abs_err"), Verdict::Ok);
    }

    #[test]
    fn several_runs_use_their_own_spread_and_median() {
        let set = |vals: &[f64]| {
            loaded(
                &vals
                    .iter()
                    .map(|&v| run("table1", v, v, v, 0))
                    .collect::<Vec<_>>(),
            )
        };
        let a = set(&[8.0, 8.1, 7.9, 8.05, 7.95]);
        assert_eq!(
            verdict(&a, &set(&[8.2, 8.3, 8.1, 8.25, 8.15]), "pass_s"),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &set(&[9.2, 9.3, 9.1, 9.25, 9.15]), "pass_s"),
            Verdict::Regressed
        );
        // overlapping, wide: unresolved; disjoint and all worse: regressed
        assert_eq!(
            verdict(&a, &set(&[7.0, 9.5, 11.0, 8.0, 12.0]), "pass_s"),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&a, &set(&[10.0, 12.0, 14.0, 16.0, 11.0]), "pass_s"),
            Verdict::Regressed
        );
    }

    #[test]
    fn higher_is_better_flips_the_sign() {
        let spec = Spec {
            name: "qps".into(),
            lower_is_better: false,
            bound: 0.1,
        };
        assert!((worse_by(&spec, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worse_by(&spec, 100.0, 120.0) < 0.0);
        let side = |v: f64| Side {
            values: vec![v],
            inner_spread: 0.0,
        };
        assert_eq!(judge(&spec, &side(100.0), &side(80.0)), Verdict::Regressed);
        assert_eq!(judge(&spec, &side(100.0), &side(95.0)), Verdict::Ok);
    }

    #[test]
    fn more_failures_or_a_regression_make_the_comparison_fail() {
        let a = loaded(&[run("table1", 8.0, 7.9, 8.1, 0)]);
        assert!(!report(&specs(), &a, &a));
        assert!(report(
            &specs(),
            &a,
            &loaded(&[run("table1", 8.0, 7.9, 8.1, 1)])
        ));
        assert!(report(
            &specs(),
            &a,
            &loaded(&[run("table1", 9.5, 9.4, 9.6, 0)])
        ));
        // traced entries are never compared
        let traced =
            run("table1", 99.0, 99.0, 99.0, 0).replace("\"trace\":false", "\"trace\":true");
        assert_eq!(loaded(&[traced]).runs, 0);
    }
}
