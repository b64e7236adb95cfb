//! Rule `layering`: the crate-stack contract around the `beff-sim`
//! extraction, machine-enforced rather than aspirational.
//!
//! Three sub-rules, all reported as `layering`:
//!
//! 1. **Fiber containment** — the x86_64 context-switch machinery
//!    (`naked_asm`, the `fiber_switch`/`fiber_entry` trampolines) may
//!    exist only inside `crates/sim/`. No other crate gets to grow its
//!    own stack-switching unsafe code. This one is a row of
//!    [`config::BANS`], checked by [`crate::rules::check_bans`].
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
use crate::lexer::TokenKind;
use crate::rules::Violation;
use crate::source::SourceFile;

/// Source half: substrate reach-through. Returns the number of
/// honored waivers.
pub fn check_source(f: &SourceFile, out: &mut Vec<Violation>) -> usize {
    if config::crate_of(&f.path) != "mpi" {
        return 0;
    }
    let mut waived = 0;
    let toks = &f.tokens;
    for i in 0..toks.len() {
        // `beff_netsim :: …` — either a single path segment or a
        // grouped import whose brace block we scan flat.
        if !(toks[i].is_ident("beff_netsim")
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|b| b.is_punct(':')))
        {
            continue;
        }
        let banned = |s: &str| config::NETSIM_INTERNAL_IDENTS.contains(&s);
        let mut hits: Vec<(u32, String)> = Vec::new();
        match toks.get(i + 3) {
            Some(c) if c.kind == TokenKind::Ident => {
                if banned(&c.text) {
                    hits.push((c.line, c.text.clone()));
                }
            }
            Some(c) if c.is_punct('{') => {
                let mut depth = 1;
                let mut j = i + 4;
                while depth > 0 && j < toks.len() {
                    let u = &toks[j];
                    if u.is_punct('{') {
                        depth += 1;
                    } else if u.is_punct('}') {
                        depth -= 1;
                    } else if u.kind == TokenKind::Ident && banned(&u.text) {
                        hits.push((u.line, u.text.clone()));
                    }
                    j += 1;
                }
            }
            _ => {}
        }
        for (line, name) in hits {
            if f.waived("layering", line) {
                waived += 1;
                continue;
            }
            out.push(Violation {
                rule: "layering",
                path: f.path.clone(),
                line,
                message: format!(
                    "`beff_netsim::{name}` reaches a substrate internal through netsim's \
                     compatibility re-exports; beff-mpi must import `{name}` from \
                     `beff_sim` (DESIGN.md §9)"
                ),
            });
        }
    }
    waived
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
