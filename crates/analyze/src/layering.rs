//! Rule `layering`: the crate-stack contract around the `beff-sim`
//! extraction, machine-enforced rather than aspirational.
//!
//! Three sub-rules, all reported as `layering`:
//!
//! 1. **Fiber containment** — the x86_64 context-switch machinery
//!    ([`config::FIBER_IDENTS`]: `naked_asm`, `global_asm`, the
//!    `fiber_switch`/`init_fiber` trampolines) may exist only inside
//!    `crates/sim/`, test code included. No other crate gets to grow
//!    its own stack-switching unsafe code.
//! 2. **Substrate reach-through** — `beff-mpi` must import substrate
//!    names (clocks, resources, links, RNG, units) from `beff_sim`,
//!    never through `beff_netsim`'s compatibility re-exports. The MPI
//!    personality sits on the substrate and the *network model*
//!    surface (`MachineNet`, `NetParams`, `Topology`…), not on netsim's
//!    event internals.
//! 3. **Dependency allow-lists** — the manifests of the layered crates
//!    may only name the `beff-*` dependencies their layer permits: the
//!    substrate depends on `beff-sync` alone, `beff-check` only on the
//!    substrate, and the storage-sweep workload must never acquire a
//!    `beff-mpi` (or `beff-netsim`) edge — it exists to prove the
//!    substrate works without them.
//!
//! Source sub-rules honor `// beff-analyze: allow(layering): <why>`
//! waivers like every other rule; the manifest sub-rule does not (a
//! forbidden dependency edge is a design change, not a site-local
//! exception — edit the allow-list in `config.rs` in a reviewed diff).

use crate::config;
use crate::lexer::{Token, TokenKind};
use crate::rules::Violation;
use crate::source::SourceFile;

/// Source half: fiber containment in every file outside
/// [`config::FIBER_HOME`], test code included, and substrate
/// reach-through in `beff-mpi`. Returns the number of honored waivers.
pub fn check_source(f: &SourceFile, out: &mut Vec<Violation>) -> usize {
    let mut hits = Vec::new();
    if !f.path.starts_with(config::FIBER_HOME) {
        for t in &f.tokens {
            if t.kind == TokenKind::Ident && config::FIBER_IDENTS.contains(&t.text.as_str()) {
                let message = format!(
                    "`{}` is context-switch machinery; only `crates/sim` may contain \
                     fiber/stack-switching code (DESIGN.md §9)",
                    t.text
                );
                hits.push((t.line, message));
            }
        }
    }
    if config::crate_of(&f.path) == "mpi" {
        reach_through(f, &mut hits);
    }
    let mut waived = 0;
    for (line, message) in hits {
        if f.waived("layering", line) {
            waived += 1;
            continue;
        }
        out.push(Violation { rule: "layering", path: f.path.clone(), line, message });
    }
    waived
}

/// `beff_netsim::<substrate name>`, as one path or inside a grouped
/// import, pushed to `hits` as `(line, message)`.
fn reach_through(f: &SourceFile, hits: &mut Vec<(u32, String)>) {
    let toks = &f.tokens;
    let mut flag = |t: &Token| {
        if t.kind == TokenKind::Ident && config::NETSIM_INTERNAL_IDENTS.contains(&t.text.as_str()) {
            let name = &t.text;
            let message = format!(
                "`beff_netsim::{name}` reaches a substrate internal through netsim's \
                 compatibility re-exports; beff-mpi must import `{name}` from \
                 `beff_sim` (DESIGN.md §9)"
            );
            hits.push((t.line, message));
        }
    };
    for i in 0..toks.len() {
        // `beff_netsim :: …` — either a single path segment or a
        // grouped import whose brace block we scan flat.
        if !(toks[i].is_ident("beff_netsim")
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|b| b.is_punct(':')))
        {
            continue;
        }
        match toks.get(i + 3) {
            Some(c) if c.is_punct('{') => {
                let mut depth = 1;
                let mut j = i + 4;
                while depth > 0 && j < toks.len() {
                    let u = &toks[j];
                    if u.is_punct('{') {
                        depth += 1;
                    } else if u.is_punct('}') {
                        depth -= 1;
                    } else {
                        flag(u);
                    }
                    j += 1;
                }
            }
            Some(c) => flag(c),
            None => {}
        }
    }
}

/// Manifest half: `beff-*` dependency allow-lists for the layered
/// crates. Uses the same line-oriented TOML subset as the `path-deps`
/// rule: dep-table headers on their own line, one entry per line.
pub fn check_manifest(path: &str, text: &str, out: &mut Vec<Violation>) {
    let Some(allowed) = config::DEP_ALLOWLISTS.iter().find_map(|(krate, allowed)| {
        (path == format!("crates/{krate}/Cargo.toml")).then_some(*allowed)
    }) else {
        return;
    };
    let mut in_dep_table = false;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            let header = line.trim_start_matches('[').trim_end_matches(']');
            let dep_name = header
                .strip_prefix("dependencies.")
                .or_else(|| header.strip_prefix("dev-dependencies."))
                .or_else(|| header.strip_prefix("build-dependencies."));
            in_dep_table = dep_name.is_none() && header.ends_with("dependencies");
            if let Some(name) = dep_name {
                flag_if_forbidden(path, line_no, name, allowed, out);
            }
            continue;
        }
        if in_dep_table && line.contains('=') {
            let name = line.split('=').next().unwrap_or("").trim();
            flag_if_forbidden(path, line_no, name, allowed, out);
        }
    }
}

fn flag_if_forbidden(
    path: &str,
    line: u32,
    name: &str,
    allowed: &[&str],
    out: &mut Vec<Violation>,
) {
    if !name.starts_with("beff-") || allowed.contains(&name) {
        return;
    }
    out.push(Violation {
        rule: "layering",
        path: path.to_string(),
        line,
        message: format!(
            "`{name}` is not an allowed dependency of this layer (allowed: {}); \
             the crate stack is fixed in beff-analyze config::DEP_ALLOWLISTS \
             (DESIGN.md §9)",
            allowed.join(", "),
        ),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, text: &str) -> Vec<Violation> {
        let f = SourceFile::parse(path, text);
        let mut v = Vec::new();
        check_source(&f, &mut v);
        v
    }

    #[test]
    fn mpi_reaching_netsim_substrate_is_flagged() {
        let v = src("crates/mpi/src/engine.rs", "type C = beff_netsim::VClock;\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("beff_sim"));
    }

    #[test]
    fn grouped_import_form_is_flagged_per_name() {
        let v = src(
            "crates/mpi/src/engine.rs",
            "use beff_netsim::{MachineNet, Secs, VClock};\n",
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.message.contains("beff_sim")));
    }

    #[test]
    fn mpi_using_netsim_model_surface_is_fine() {
        let v = src(
            "crates/mpi/src/engine.rs",
            "use beff_netsim::MachineNet;\nfn f(n: &beff_netsim::NetParams) {}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn non_mpi_crates_may_use_netsim_re_exports() {
        let v = src("crates/pfs/src/fs.rs", "use beff_netsim::{Resource, Secs};\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn fiber_asm_is_fine_inside_sim() {
        let asm = "unsafe extern \"sysv64\" fn s() { naked_asm!(\"ret\") }\n";
        let v = src("crates/sim/src/fiber.rs", asm);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn fiber_asm_outside_sim_is_flagged_in_tests_too() {
        let v = src("crates/mpi/src/runtime.rs", "fn f() { naked_asm!(\"ret\") }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "layering");
        assert!(v[0].message.contains("context-switch"));
        let test_src = "#[cfg(test)]\nmod t {\n fn g() { naked_asm!(\"ret\") }\n}\n";
        assert_eq!(src("crates/mpi/src/runtime.rs", test_src).len(), 1);
    }

    #[test]
    fn waiver_is_honored() {
        let f = SourceFile::parse(
            "crates/mpi/src/engine.rs",
            "// beff-analyze: allow(layering): test fixture\nlet c = beff_netsim::VClock;\n",
        );
        let mut v = Vec::new();
        let waived = check_source(&f, &mut v);
        assert_eq!((waived, v.len()), (1, 0), "{v:?}");
    }

    fn manifest(path: &str, text: &str) -> Vec<Violation> {
        let mut v = Vec::new();
        check_manifest(path, text, &mut v);
        v
    }

    #[test]
    fn sim_may_depend_on_sync_only() {
        let ok = manifest(
            "crates/sim/Cargo.toml",
            "[dependencies]\nbeff-sync = { workspace = true }\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bad = manifest(
            "crates/sim/Cargo.toml",
            "[dependencies]\nbeff-sync = { workspace = true }\nbeff-netsim = { workspace = true }\n",
        );
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("beff-netsim"));
    }

    #[test]
    fn sweep_must_not_acquire_mpi() {
        let bad = manifest(
            "crates/sweep/Cargo.toml",
            "[dependencies]\nbeff-sim = { workspace = true }\nbeff-mpi = { workspace = true }\n",
        );
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("beff-mpi"));
    }

    #[test]
    fn subsection_form_is_covered() {
        let bad = manifest(
            "crates/sweep/Cargo.toml",
            "[dependencies.beff-mpi]\npath = \"../mpi\"\n",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn unlisted_crates_are_unconstrained() {
        let ok = manifest(
            "crates/bench/Cargo.toml",
            "[dependencies]\nbeff-mpi = { workspace = true }\n",
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn non_beff_deps_are_path_deps_problem_not_ours() {
        let ok = manifest("crates/sim/Cargo.toml", "[dependencies]\nserde = \"1\"\n");
        assert!(ok.is_empty(), "registry deps are the path-deps rule's job");
    }
}
