//! Workspace walk + rule orchestration + the machine-readable report.
//!
//! [`analyze_workspace`] scans every tracked `.rs` file and `Cargo.toml`
//! under the workspace root (via [`crate::source::discover`]'s sorted,
//! component-skipping walk), runs the per-line rule set, then builds
//! the item/symbol/call-graph layer and runs the three interprocedural
//! passes (`lockflow`, `panicflow`, `taint`) plus the `lock-decl`
//! rank cross-check. Everything aggregates into an [`AnalyzeReport`]
//! that serializes through beff-json into `results/analyze.json` —
//! schema `beff/analyze/2`, byte-identical across runs because every
//! collection is sorted and every id derives from the sorted walk.

use crate::callgraph;
use crate::config;
use crate::deps;
use crate::items::{self, FileItems};
use crate::layering;
use crate::lockflow;
use crate::panicflow;
use crate::ranks;
use crate::rules::{self, Finding, UnwrapSite, Violation};
use crate::source::{self, SourceFile};
use crate::symbols::SymbolTable;
use crate::taint;
use beff_json::{Json, ToJson};
use std::collections::BTreeMap;
use std::path::Path;

/// Per-crate unwrap/expect budget verdict.
#[derive(Debug, Clone)]
pub struct BudgetLine {
    pub krate: String,
    pub counted: u32,
    pub waived: u32,
    pub budget: u32,
    /// Source lines of every scanned `.rs` file of the crate, tests and
    /// comments included — the tracked size (ROADMAP "One of each").
    pub lines: u32,
}

impl BudgetLine {
    pub fn over(&self) -> bool {
        self.counted > self.budget
    }
}

impl ToJson for BudgetLine {
    fn to_json(&self) -> Json {
        Json::object()
            .field("crate", &self.krate)
            .field("counted", &self.counted)
            .field("waived", &self.waived)
            .field("budget", &self.budget)
            .field("over", &self.over())
            .field("lines", &self.lines)
            .build()
    }
}

impl ToJson for Violation {
    fn to_json(&self) -> Json {
        Json::object()
            .field("rule", self.rule)
            .field("path", &self.path)
            .field("line", &(self.line as u64))
            .field("message", &self.message)
            .build()
    }
}

/// Per-crate verdict for one interprocedural pass.
#[derive(Debug, Clone)]
pub struct PassLine {
    pub pass: &'static str,
    pub krate: String,
    pub counted: u32,
    pub budget: u32,
}

impl PassLine {
    pub fn over(&self) -> bool {
        self.counted > self.budget
    }
}

impl ToJson for PassLine {
    fn to_json(&self) -> Json {
        Json::object()
            .field("pass", self.pass)
            .field("crate", &self.krate)
            .field("counted", &self.counted)
            .field("budget", &self.budget)
            .field("over", &self.over())
            .build()
    }
}

/// Call-graph shape summary, carried in the report so reviewers can
/// see resolution quality drift over time.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphSummary {
    pub functions: usize,
    pub call_sites: usize,
    pub resolved_edges: usize,
    pub external_calls: usize,
    pub ambiguous_sites: usize,
    pub dynamic_annotated: usize,
    pub panic_entry_points: usize,
    pub panic_reachable_fns: usize,
    pub taint_sources: usize,
}

impl ToJson for GraphSummary {
    fn to_json(&self) -> Json {
        Json::object()
            .field("functions", &self.functions)
            .field("call_sites", &self.call_sites)
            .field("resolved_edges", &self.resolved_edges)
            .field("external_calls", &self.external_calls)
            .field("ambiguous_sites", &self.ambiguous_sites)
            .field("dynamic_annotated", &self.dynamic_annotated)
            .field("panic_entry_points", &self.panic_entry_points)
            .field("panic_reachable_fns", &self.panic_reachable_fns)
            .field("taint_sources", &self.taint_sources)
            .build()
    }
}

/// The full analysis outcome.
#[derive(Debug)]
pub struct AnalyzeReport {
    pub schema: &'static str,
    pub files_scanned: usize,
    pub manifests_scanned: usize,
    pub violations: Vec<Violation>,
    pub budgets: Vec<BudgetLine>,
    pub passes: Vec<PassLine>,
    pub graph: GraphSummary,
    pub waivers_used: usize,
}

impl AnalyzeReport {
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }
}

impl ToJson for AnalyzeReport {
    fn to_json(&self) -> Json {
        Json::object()
            .field("schema", self.schema)
            .field("pass", &self.pass())
            .field("files_scanned", &self.files_scanned)
            .field("manifests_scanned", &self.manifests_scanned)
            .field("waivers_used", &self.waivers_used)
            .field("graph", &self.graph)
            .field("budgets", &self.budgets)
            .field("passes", &self.passes)
            .field("violations", &self.violations)
            .build()
    }
}

/// Analyze the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> std::io::Result<AnalyzeReport> {
    let discovered = source::discover(root)?;

    let mut violations = Vec::new();
    let mut sites: Vec<UnwrapSite> = Vec::new();
    let mut waivers_used = 0usize;
    let mut parsed: Vec<(SourceFile, FileItems)> = Vec::new();
    let mut rank_literals = Vec::new();
    let mut lines: BTreeMap<String, u32> = BTreeMap::new();
    for rel in &discovered.rs_files {
        let text = std::fs::read_to_string(root.join(rel))?;
        let f = SourceFile::parse(&rel.to_string_lossy(), &text);
        *lines.entry(config::crate_of(&f.path).to_string()).or_default() +=
            text.lines().count() as u32;
        rules::check_waivers(&f, &mut violations);
        waivers_used += rules::check_wallclock(&f, &mut violations);
        waivers_used += rules::check_hash_order(&f, &mut violations);
        waivers_used += rules::check_threading(&f, &mut violations);
        waivers_used += rules::check_safety(&f, &mut violations);
        waivers_used += rules::check_lock_order(&f, &mut violations);
        waivers_used += layering::check_source(&f, &mut violations);
        rules::collect_unwraps(&f, &mut sites);
        rank_literals.extend(ranks::scan(&f, &mut violations));
        let it = items::parse_items(&f);
        parsed.push((f, it));
    }
    let mut manifest_texts: Vec<(String, String)> = Vec::new();
    for rel in &discovered.manifests {
        let text = std::fs::read_to_string(root.join(rel))?;
        deps::check_manifest(&rel.to_string_lossy(), &text, &mut violations);
        layering::check_manifest(&rel.to_string_lossy(), &text, &mut violations);
        manifest_texts.push((rel.to_string_lossy().replace('\\', "/"), text));
    }

    let scanned_paths: Vec<String> = parsed.iter().map(|(f, _)| f.path.clone()).collect();
    ranks::crosscheck(&rank_literals, &scanned_paths, &mut violations);

    // Interprocedural layer.
    let mut syms = SymbolTable::build(&parsed);
    syms.set_visibility(dependency_closure(&manifest_texts));
    let g = callgraph::build(&parsed, &syms, &mut violations);
    let lf = lockflow::run(&parsed, &syms, &g);
    let pf = panicflow::run(&parsed, &syms, &g);
    let tt = taint::run(&parsed, &syms, &g);

    let graph = GraphSummary {
        functions: g.stats.functions,
        call_sites: g.stats.call_sites,
        resolved_edges: g.stats.resolved_edges,
        external_calls: g.stats.external_calls,
        ambiguous_sites: g.stats.ambiguous_sites,
        dynamic_annotated: g.stats.dynamic_annotated,
        panic_entry_points: pf.entries.len(),
        panic_reachable_fns: pf.reachable,
        taint_sources: tt.sources,
    };

    let mut passes = Vec::new();
    settle_pass("lockflow", &lf.findings, config::LOCKFLOW_BUDGETS, &mut passes, &mut violations);
    settle_pass(
        "panicflow",
        &pf.findings,
        config::PANICFLOW_BUDGETS,
        &mut passes,
        &mut violations,
    );
    settle_pass("taint", &tt.findings, config::TAINT_BUDGETS, &mut passes, &mut violations);
    waivers_used += (lf.waived + pf.waived + tt.waived) as usize;

    let budgets = settle_budgets(&sites, &lines, &mut violations);
    waivers_used += sites.iter().filter(|s| s.waived).count();

    violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });
    Ok(AnalyzeReport {
        schema: "beff/analyze/2",
        files_scanned: discovered.rs_files.len(),
        manifests_scanned: discovered.manifests.len(),
        violations,
        budgets,
        passes,
        graph,
        waivers_used,
    })
}

/// The workspace crate-dependency closure, from the manifests: crate →
/// every crate it transitively depends on. A `beff-<x> = …` line counts
/// unless it sits under a `[dev-dependencies]` table: dev edges link
/// only `#[cfg(test)]` code, which the resolvers already exclude from
/// live callers, so letting them grant visibility would route live
/// code through impossible crates (e.g. `sync → check → sim`). What
/// matters is that the closure *never* invents an edge between
/// unrelated crates. The root manifest's `[workspace.dependencies]`
/// catalog credits the facade with every crate, which is accurate: the
/// root tests drive the whole stack.
fn dependency_closure(
    manifests: &[(String, String)],
) -> BTreeMap<String, std::collections::BTreeSet<String>> {
    use std::collections::BTreeSet;
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (path, text) in manifests {
        let krate = config::crate_of(path).to_string();
        let entry = direct.entry(krate).or_default();
        let mut in_dev = false;
        for line in text.lines() {
            let t = line.trim_start();
            if t.starts_with('[') {
                in_dev = t.contains("dev-dependencies");
                continue;
            }
            if in_dev {
                continue;
            }
            let Some(rest) = t.strip_prefix("beff-") else { continue };
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            let after = rest[name.len()..].trim_start();
            if !name.is_empty() && after.starts_with('=') {
                entry.insert(name);
            }
        }
    }
    // Transitive closure (the graph is tiny; iterate to a fixpoint).
    loop {
        let mut changed = false;
        let keys: Vec<String> = direct.keys().cloned().collect();
        for k in &keys {
            let reach: Vec<String> = direct[k].iter().cloned().collect();
            for dep in reach {
                let add: Vec<String> = direct
                    .get(&dep)
                    .map(|s| {
                        s.iter().filter(|d| !direct[k].contains(*d)).cloned().collect()
                    })
                    .unwrap_or_default();
                if !add.is_empty() {
                    changed = true;
                    direct.get_mut(k).expect("key exists").extend(add);
                }
            }
        }
        if !changed {
            return direct;
        }
    }
}

/// Group one pass's findings per crate, compare against its baseline
/// table, and promote every finding in an over-budget crate to a
/// violation (one per site — the diagnostics must name file:line, not
/// just a count).
fn settle_pass(
    pass: &'static str,
    findings: &[Finding],
    table: &[(&str, u32)],
    lines: &mut Vec<PassLine>,
    violations: &mut Vec<Violation>,
) {
    let mut per_crate: BTreeMap<&str, Vec<&Finding>> = BTreeMap::new();
    for f in findings {
        per_crate.entry(f.krate.as_str()).or_default().push(f);
    }
    // Crates with a declared baseline appear in the report even when
    // currently clean, so a ratchet opportunity is visible.
    for &(krate, _) in table {
        per_crate.entry(krate).or_default();
    }
    for (krate, found) in &per_crate {
        let budget = config::pass_budget(table, krate);
        let counted = found.len() as u32;
        if counted > budget {
            for f in found {
                violations.push(Violation {
                    rule: pass,
                    path: f.path.clone(),
                    line: f.line,
                    message: format!(
                        "{} (crate `{krate}`: {counted} findings, baseline {budget})",
                        f.message
                    ),
                });
            }
        }
        lines.push(PassLine {
            pass,
            krate: krate.to_string(),
            counted,
            budget,
        });
    }
}

/// Aggregate unwrap sites into per-crate verdicts; crates over budget
/// (or absent from the budget table) become violations.
fn settle_budgets(
    sites: &[UnwrapSite],
    lines: &BTreeMap<String, u32>,
    violations: &mut Vec<Violation>,
) -> Vec<BudgetLine> {
    let mut per_crate: BTreeMap<&str, (u32, u32, Vec<&UnwrapSite>)> = BTreeMap::new();
    // Every scanned crate gets a row (its size is tracked even when it
    // has no unwrap site to budget).
    for krate in lines.keys() {
        per_crate.entry(krate).or_default();
    }
    for s in sites {
        let e = per_crate.entry(config::crate_of(&s.path)).or_default();
        if s.waived {
            e.1 += 1;
        } else {
            e.0 += 1;
            e.2.push(s);
        }
    }
    let budget_of = |k: &str| {
        config::UNWRAP_BUDGETS
            .iter()
            .find(|(name, _)| *name == k)
            .map(|&(_, b)| b)
    };
    let mut out = Vec::new();
    for (krate, (counted, waived, examples)) in &per_crate {
        let Some(budget) = budget_of(krate) else {
            violations.push(Violation {
                rule: "unwrap",
                path: format!("crates/{krate}"),
                line: 0,
                message: format!(
                    "crate `{krate}` has {counted} unwrap()/expect() calls but no budget \
                     entry in beff-analyze config::UNWRAP_BUDGETS"
                ),
            });
            continue;
        };
        if *counted > budget {
            let mut examples: Vec<String> = examples
                .iter()
                .rev()
                .take(5)
                .map(|s| format!("{}:{}", s.path, s.line))
                .collect();
            examples.reverse();
            violations.push(Violation {
                rule: "unwrap",
                path: format!("crates/{krate}"),
                line: 0,
                message: format!(
                    "crate `{krate}` has {counted} unbudgeted unwrap()/expect() calls \
                     (budget {budget}); convert to typed errors, waive true invariants with \
                     `// beff-analyze: allow(unwrap): <why>`, or raise the budget in a \
                     reviewed diff (recent sites: {})",
                    examples.join(", ")
                ),
            });
        }
        out.push(BudgetLine {
            krate: krate.to_string(),
            counted: *counted,
            waived: *waived,
            budget,
            lines: lines.get(*krate).copied().unwrap_or(0),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a throwaway mini-workspace and analyze it.
    fn scratch(name: &str, files: &[(&str, &str)]) -> AnalyzeReport {
        let dir = std::env::temp_dir().join(format!("beff-analyze-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (rel, text) in files {
            let p = dir.join(rel);
            std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
            std::fs::write(p, text).expect("write");
        }
        let report = analyze_workspace(&dir).expect("analyze");
        let _ = std::fs::remove_dir_all(&dir);
        report
    }

    #[test]
    fn clean_tree_passes() {
        let r = scratch(
            "clean",
            &[
                ("crates/mpi/src/lib.rs", "pub fn ok() -> u32 { 1 }\n"),
                ("crates/mpi/Cargo.toml", "[package]\nname = \"beff-mpi\"\n"),
            ],
        );
        assert!(r.pass(), "{:?}", r.violations);
        assert_eq!(r.files_scanned, 1);
        assert_eq!(r.manifests_scanned, 1);
        assert_eq!(r.graph.functions, 1);
    }

    #[test]
    fn seeded_violations_are_reported_with_lines() {
        let r = scratch(
            "seeded",
            &[
                (
                    "crates/mpi/src/comm.rs",
                    "fn f() {\n let t = std::time::Instant::now();\n}\n",
                ),
                ("crates/mpi/Cargo.toml", "[dependencies]\nserde = \"1\"\n"),
            ],
        );
        assert!(!r.pass());
        let wall = r.violations.iter().find(|v| v.rule == "wall-clock").expect("wall-clock");
        assert_eq!(wall.line, 2);
        assert!(wall.path.ends_with("comm.rs"));
        assert!(r.violations.iter().any(|v| v.rule == "path-deps"));
    }

    #[test]
    fn budget_overflow_is_a_violation() {
        // `machines` is budgeted tightest; flood it.
        let body: String = (0..config::UNWRAP_BUDGETS
            .iter()
            .find(|(n, _)| *n == "machines")
            .expect("budget")
            .1
            + 1)
            .map(|i| format!(" x{i}.unwrap();\n"))
            .collect();
        let r = scratch(
            "budget",
            &[("crates/machines/src/lib.rs", &format!("fn f() {{\n{body}}}\n"))],
        );
        let v = r.violations.iter().find(|v| v.rule == "unwrap").expect("unwrap violation");
        assert!(v.message.contains("machines"));
    }

    #[test]
    fn pass_findings_over_baseline_are_violations_with_sites() {
        // `sim` has no lockflow baseline → budget 0 → one seeded
        // cross-function inversion must surface as a file:line
        // violation. Rank literals accompany the lock uses so the
        // lock-decl cross-check stays clean.
        let r = scratch(
            "lockflow",
            &[
                (
                    "crates/sim/src/sched.rs",
                    "static STATE_RANK: Rank = Rank::new(40, \"sched.state\");\n\
                     pub fn held_call() {\n let g = inner.lock();\n lower();\n}\n",
                ),
                (
                    "crates/sim/src/port.rs",
                    "static PORT_RANK: Rank = Rank::new(30, \"sim.port\");\n\
                     pub fn lower() {\n let o = inner.lock();\n}\n",
                ),
            ],
        );
        let v = r
            .violations
            .iter()
            .find(|v| v.rule == "lockflow")
            .expect("lockflow violation");
        assert!(v.path.ends_with("sched.rs"));
        assert_eq!(v.line, 4);
        assert!(v.message.contains("baseline"));
        assert!(r.passes.iter().any(|p| p.pass == "lockflow" && p.over()));
    }

    #[test]
    fn dev_dependencies_do_not_grant_visibility() {
        let manifests = vec![
            (
                "crates/sync/Cargo.toml".to_string(),
                "[package]\nname = \"beff-sync\"\n[dev-dependencies]\nbeff-check = { workspace = true }\n"
                    .to_string(),
            ),
            (
                "crates/check/Cargo.toml".to_string(),
                "[dependencies]\nbeff-sim = { workspace = true }\n".to_string(),
            ),
        ];
        let c = dependency_closure(&manifests);
        assert!(!c["sync"].contains("check"), "dev edge must not count: {c:?}");
        assert!(!c["sync"].contains("sim"));
        assert!(c["check"].contains("sim"));
    }

    #[test]
    fn report_serializes_via_beff_json() {
        let r = scratch("json", &[("crates/mpi/src/lib.rs", "pub fn ok() {}\n")]);
        let s = beff_json::to_string_pretty(&r);
        beff_json::validate(&s).expect("valid JSON");
        assert!(s.contains("\"schema\": \"beff/analyze/2\""));
        assert!(s.contains("\"graph\""));
    }
}
