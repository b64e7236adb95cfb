//! The `analyze` gate binary.
//!
//! Usage: `analyze [--root DIR] [--out results/analyze.json]`
//!
//! Walks the workspace, runs every rule and interprocedural pass (see
//! `beff-analyze` crate docs), writes the JSON report, prints
//! `file:line: [rule] message` diagnostics for each violation, and
//! exits non-zero if any rule fired. `--root` defaults to the nearest
//! enclosing directory with a workspace `Cargo.toml`.
//!
//! On failure the binary also prints the diagnostic-count delta
//! against the committed `results/analyze.json`, so a gate break shows
//! *how much* moved, not just that something did. Every run prints each
//! crate's source-line count with its delta against the same committed
//! report, so a PR's size trajectory is visible in the gate log.

use beff_analyze::analyze_workspace;
use beff_json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn arg_after(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Nearest ancestor of cwd that holds a `Cargo.toml` with a
/// `[workspace]` table (falls back to cwd).
fn find_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => return cwd,
        }
    }
}

/// Diagnostic count in a previously written report: occurrences of the
/// `"rule":` key our own serializer emits one of per violation.
fn committed_violation_count(text: &str) -> usize {
    text.matches("\"rule\":").count()
}

/// Per-crate `lines` of a previously written report (empty when the
/// report predates the field or does not parse).
fn committed_lines(text: &str) -> BTreeMap<String, i64> {
    fn get<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
        let Json::Obj(fields) = obj else { return None };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    let Ok(report) = beff_json::parse(text) else { return BTreeMap::new() };
    let Some(Json::Arr(rows)) = get(&report, "budgets") else { return BTreeMap::new() };
    rows.iter()
        .filter_map(|row| match (get(row, "crate")?, get(row, "lines")?) {
            (Json::Str(k), Json::Int(n)) => Some((k.clone(), *n)),
            (Json::Str(k), Json::UInt(n)) => Some((k.clone(), *n as i64)),
            _ => None,
        })
        .collect()
}

fn main() {
    let root = arg_after("--root").map(PathBuf::from).unwrap_or_else(find_root);
    let out = arg_after("--out").unwrap_or_else(|| "results/analyze.json".to_string());

    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze: cannot scan {}: {e}", root.display());
            std::process::exit(2);
        }
    };

    // Snapshot the committed report before this run overwrites the file.
    let committed = std::fs::read_to_string(root.join("results/analyze.json")).ok();
    let committed_before = committed.as_deref().map(committed_violation_count);
    let lines_before = committed.as_deref().map(committed_lines).unwrap_or_default();

    for v in &report.violations {
        eprintln!("{}", v.render());
    }
    for b in &report.budgets {
        println!(
            "unwrap budget {:<10} {:>4} counted {:>3} waived / {:>4} allowed{}",
            b.krate,
            b.counted,
            b.waived,
            b.budget,
            if b.over() { "  OVER" } else { "" },
        );
    }
    for b in &report.budgets {
        let delta = match lines_before.get(&b.krate) {
            Some(before) => format!("{:+}", i64::from(b.lines) - before),
            None => "new".to_string(),
        };
        println!("lines         {:<10} {:>6}  ({delta} vs committed report)", b.krate, b.lines);
    }
    for p in &report.panicflow {
        println!(
            "panicflow     {:<10} {:>4} findings / {:>4} baseline{}",
            p.krate,
            p.counted,
            p.budget,
            if p.over() { "  OVER" } else { "" },
        );
    }
    println!(
        "call graph: {} fns, {} sites ({} edges, {} external, {} ambiguous, {} dynamic), \
         {} panic-reachable fns from {} entries",
        report.graph.functions,
        report.graph.call_sites,
        report.graph.resolved_edges,
        report.graph.external_calls,
        report.graph.ambiguous_sites,
        report.graph.dynamic_annotated,
        report.graph.panic_reachable_fns,
        report.graph.panic_entry_points,
    );
    println!(
        "analyze: {} files, {} manifests, {} waivers honored, {} violation(s)",
        report.files_scanned,
        report.manifests_scanned,
        report.waivers_used,
        report.violations.len(),
    );

    let out_path = Path::new(&out);
    let out_abs = if out_path.is_absolute() { out_path.to_path_buf() } else { root.join(out_path) };
    if let Some(dir) = out_abs.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("analyze: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let mut body = beff_json::to_string_pretty(&report);
    body.push('\n');
    if let Err(e) = std::fs::write(&out_abs, body) {
        eprintln!("analyze: cannot write {}: {e}", out_abs.display());
        std::process::exit(2);
    }
    println!("analyze report -> {}", out_abs.display());

    if !report.pass() {
        if let Some(before) = committed_before {
            let now = report.violations.len();
            eprintln!(
                "analyze: {} diagnostic(s) vs {} in committed results/analyze.json \
                 (delta {:+})",
                now,
                before,
                now as i64 - before as i64,
            );
        }
        eprintln!("analyze: determinism/safety contract violated");
        std::process::exit(1);
    }
}
