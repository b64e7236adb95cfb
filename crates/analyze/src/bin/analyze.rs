//! The `analyze` gate binary.
//!
//! Usage:
//!   `analyze [--root DIR] [--out results/analyze.json] [--quiet]
//!            [--json] [--only RULE] [--explain RULE] [--self-gate]`
//!
//! Walks the workspace, runs every rule and interprocedural pass (see
//! `beff-analyze` crate docs), writes the JSON report, prints
//! `file:line: [rule] message` diagnostics for each violation, and
//! exits non-zero if any rule fired. `--root` defaults to the nearest
//! enclosing directory with a workspace `Cargo.toml`.
//!
//! Dev-loop flags:
//!
//! * `--explain RULE` — print what a rule checks, why it exists, and
//!   how to waive it, then exit;
//! * `--only RULE` — show (and gate on) just that rule's diagnostics;
//!   skips writing the report file unless `--out` is explicit, so a
//!   focused run never clobbers the committed report;
//! * `--json` — emit the full report as JSON on stdout instead of the
//!   human summary (diagnostics still go to stderr);
//! * `--self-gate` — additionally require that `crates/analyze` itself
//!   is clean under the three interprocedural passes at budget 0: no
//!   findings, and no `analyze` row in any pass baseline table (the
//!   analyzer never gets to baseline its own defects).
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

/// One paragraph per rule for `--explain`.
const EXPLAIN: &[(&str, &str)] = &[
    (
        "wall-clock",
        "Bans Instant/SystemTime/sleep/park_timeout in deterministic library code. The \
         simulated clock (netsim::clock, sim::clock) is the only sanctioned time source; \
         host time observed anywhere else breaks bitwise replay. Waive with \
         `// beff-analyze: allow(wall-clock): <why>` on the offending line.",
    ),
    (
        "hash-order",
        "Bans HashMap/HashSet/DefaultHasher/RandomState in deterministic crates: their \
         iteration order depends on the process-random hasher seed. Use BTreeMap/BTreeSet \
         or an index-keyed Vec. Waive only for keyed lookups that are provably never \
         iterated.",
    ),
    (
        "threading",
        "Quarantines thread creation (spawn/JoinHandle/Builder/available_parallelism) to \
         the substrate's worker pool, beff-sync, and the MPI launcher. Everyone else gets \
         parallelism through beff_sim::map_ordered, which makes worker count unobservable.",
    ),
    (
        "unwrap",
        "Per-crate unwrap()/expect() budget ratchet. Budgets live in beff-analyze's \
         config::UNWRAP_BUDGETS and may only rise in a reviewed diff; convert sites to \
         typed errors or waive true invariants with `allow(unwrap): <invariant>`.",
    ),
    (
        "safety",
        "Every `unsafe` block or impl must carry a `// SAFETY:` comment immediately above \
         it explaining why the invariants hold.",
    ),
    (
        "lock-order",
        "Textually nested acquisition of declared locks (config::LOCK_HIERARCHY) must be \
         in strictly increasing level order within a function. The runtime half is \
         beff-sync's `lock-order` feature; see also `lockflow` for the cross-function \
         version.",
    ),
    (
        "lock-decl",
        "Single-sources the lock hierarchy: every runtime `Rank::new(level, \"name\")` \
         literal must match beff-analyze's config::LOCK_HIERARCHY entry (name, level, and \
         declaring file), and every entry must be backed by a literal. Drift between the \
         two copies is a hard error — no waivers.",
    ),
    (
        "path-deps",
        "Workspace crates may only depend on each other by path; any registry dependency \
         in any Cargo.toml fails the gate (the build must stay offline and self-contained).",
    ),
    (
        "layering",
        "The crate-stack contract: fiber machinery quarantined in crates/sim/, beff-mpi \
         barred from netsim's substrate re-exports, and beff-* dependency allow-lists on \
         layered crates' manifests.",
    ),
    (
        "waiver",
        "Malformed `beff-analyze:` directives are themselves violations: a waiver or \
         dynamic-call annotation with no justification would otherwise silently disable a \
         rule.",
    ),
    (
        "callgraph",
        "An indirect call `(expr)(…)` the static call graph cannot resolve must carry \
         `// beff-analyze: dynamic-call: <why>` on its line. Annotated sites are counted \
         in the report's graph summary instead of becoming silently missing edges under \
         lockflow/panicflow/taint.",
    ),
    (
        "lockflow",
        "Interprocedural lock-order proof: for every call made while a declared lock is \
         held, no (transitive) callee may acquire a lock at a level ≤ the held one, and \
         no callee may reach a scheduler suspension point (yield_turn/yield_blocked/fiber \
         switch). Findings ratchet against config::LOCKFLOW_BUDGETS; waive a proven-safe \
         site with `allow(lockflow): <why>`.",
    ),
    (
        "panicflow",
        "Panic-reachability: unwrap/expect/panic!/assert! sites reachable from the \
         scheduler, worker-pool, shard, and serve entry points \
         (config::PANIC_ENTRY_POINTS). Raise a typed BeffError instead, waive true \
         invariants with `allow(panicflow): <invariant>`, and ratchet \
         config::PANICFLOW_BUDGETS downward.",
    ),
    (
        "taint",
        "Determinism-taint: functions observing wall-clock (where legal), hash iteration \
         order (outside det crates), thread ids, or allocation addresses taint their \
         callers; a deterministic crate calling across the boundary into tainted code is \
         flagged at the call site. Waive flows that feed reporting-only fields with \
         `allow(taint): <why>`; baselines in config::TAINT_BUDGETS.",
    ),
];

fn arg_after(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
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
    if let Some(rule) = arg_after("--explain") {
        match EXPLAIN.iter().find(|(r, _)| *r == rule) {
            Some((r, text)) => {
                println!("[{r}]");
                println!("{text}");
            }
            None => {
                eprintln!("analyze: unknown rule `{rule}`; rules are:");
                for (r, _) in EXPLAIN {
                    eprintln!("  {r}");
                }
                std::process::exit(2);
            }
        }
        return;
    }

    let root = arg_after("--root").map(PathBuf::from).unwrap_or_else(find_root);
    let only = arg_after("--only");
    let out_explicit = arg_after("--out");
    let out = out_explicit.clone().unwrap_or_else(|| "results/analyze.json".to_string());
    let quiet = has_flag("--quiet");
    let json = has_flag("--json");

    if let Some(rule) = &only {
        if !EXPLAIN.iter().any(|(r, _)| r == rule) {
            eprintln!("analyze: unknown rule `{rule}` for --only (try --explain)");
            std::process::exit(2);
        }
    }

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

    let shown: Vec<_> = report
        .violations
        .iter()
        .filter(|v| only.as_deref().map_or(true, |r| v.rule == r))
        .collect();
    for v in &shown {
        eprintln!("{}", v.render());
    }
    if json {
        println!("{}", beff_json::to_string_pretty(&report));
    } else if !quiet {
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
        for p in &report.passes {
            println!(
                "{:<9} pass   {:<10} {:>4} findings / {:>4} baseline{}",
                p.pass,
                p.krate,
                p.counted,
                p.budget,
                if p.over() { "  OVER" } else { "" },
            );
        }
        println!(
            "call graph: {} fns, {} sites ({} edges, {} external, {} ambiguous, {} dynamic), \
             {} panic-reachable fns from {} entries, {} taint sources",
            report.graph.functions,
            report.graph.call_sites,
            report.graph.resolved_edges,
            report.graph.external_calls,
            report.graph.ambiguous_sites,
            report.graph.dynamic_annotated,
            report.graph.panic_reachable_fns,
            report.graph.panic_entry_points,
            report.graph.taint_sources,
        );
        println!(
            "analyze: {} files, {} manifests, {} waivers honored, {} violation(s)",
            report.files_scanned,
            report.manifests_scanned,
            report.waivers_used,
            report.violations.len(),
        );
    }

    let mut self_gate_failed = false;
    if has_flag("--self-gate") {
        use beff_analyze::config;
        let tables: [(&str, &[(&str, u32)]); 3] = [
            ("lockflow", config::LOCKFLOW_BUDGETS),
            ("panicflow", config::PANICFLOW_BUDGETS),
            ("taint", config::TAINT_BUDGETS),
        ];
        for (pass, table) in tables {
            if table.iter().any(|(k, _)| *k == "analyze") {
                eprintln!(
                    "analyze-self: `analyze` has a {pass} baseline entry — the analyzer \
                     must stay at budget 0, not baseline its own defects"
                );
                self_gate_failed = true;
            }
        }
        for p in report.passes.iter().filter(|p| p.krate == "analyze" && p.counted > 0) {
            eprintln!(
                "analyze-self: {} finding(s) under the `{}` pass in crates/analyze",
                p.counted, p.pass
            );
            self_gate_failed = true;
        }
        if !self_gate_failed && !quiet && !json {
            println!("analyze-self: crates/analyze clean under lockflow/panicflow/taint at budget 0");
        }
    }

    // A focused run is a dev loop, not a gate run: don't clobber the
    // committed report unless the caller asked for a file.
    let write_report = only.is_none() || out_explicit.is_some();
    let out_path = Path::new(&out);
    let out_abs = if out_path.is_absolute() { out_path.to_path_buf() } else { root.join(out_path) };
    if write_report {
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
        if !quiet && !json {
            println!("analyze report -> {}", out_abs.display());
        }
    }

    let failed =
        self_gate_failed || if only.is_some() { !shown.is_empty() } else { !report.pass() };
    if failed {
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
