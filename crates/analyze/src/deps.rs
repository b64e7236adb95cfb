//! Rule `path-deps`: every dependency in every workspace manifest must
//! be an in-tree path crate (`path = …` or `workspace = true`). This
//! is the analyzer-resident replacement for the shell `awk` guard that
//! used to live in `scripts/verify.sh` — same contract (DESIGN.md §5),
//! but with file:line diagnostics and a JSON trail.
//!
//! The rule also reads the checkout's one Cargo config file,
//! [`CARGO_CONFIG`], which holds the release profile both workspaces
//! build with. It may hold only `[profile.<name>]` tables: a `[source]`
//! or `[patch]` table could bring a registry dependency back, and
//! `[build]` rustflags would be a second, unreviewed place for codegen
//! settings. It may not set `panic`, because ranks turn panics into
//! typed `BeffError`s with `catch_unwind`.
//!
//! The scan is a line-oriented TOML subset, which the workspace's
//! manifests stay within on purpose: section headers on their own
//! line, one `name = value` entry per line. Both the inline form
//! (`foo = { path = "…" }`) and the subsection form
//! (`[dependencies.foo]` + `path = "…"`) are understood.

use crate::rules::Violation;

/// The Cargo config file the rule checks, relative to the checkout root.
/// `source::discover` skips dot-directories, so the engine reads it by
/// name.
pub const CARGO_CONFIG: &str = ".cargo/config.toml";

/// One meaningful line of the TOML subset.
enum TomlLine<'a> {
    /// `[a.b]`, or `[[a.b]]` when `array`; `name` without brackets.
    Header { name: &'a str, array: bool },
    /// `key = value`, trimmed.
    Entry(&'a str),
}

/// The subset's lines with their 1-based numbers, blank lines and
/// comments skipped.
fn toml_lines(text: &str) -> impl Iterator<Item = (u32, TomlLine<'_>)> {
    text.lines().enumerate().filter_map(|(idx, raw)| {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let item = if line.starts_with('[') {
            let name = line.trim_start_matches('[').trim_end_matches(']');
            TomlLine::Header { name, array: line.starts_with("[[") }
        } else {
            TomlLine::Entry(line)
        };
        Some((idx as u32 + 1, item))
    })
}

/// The key of a `key = value` entry, trimmed.
fn key_of(entry: &str) -> &str {
    entry.split('=').next().unwrap_or("").trim()
}

fn violation(path: &str, line: u32, message: String) -> Violation {
    Violation { rule: "path-deps", path: path.to_string(), line, message }
}

/// Scan one manifest's text. `path` is workspace-relative.
pub fn check_manifest(path: &str, text: &str, out: &mut Vec<Violation>) {
    let mut in_dep_table = false; // [dependencies] / [dev-…] / [workspace.dependencies]
    // A `[dependencies.foo]` subsection: (entry line, name, saw path/workspace key)
    let mut subsection: Option<(u32, String, bool)> = None;

    let flush_subsection =
        |sub: &mut Option<(u32, String, bool)>, out: &mut Vec<Violation>| {
            if let Some((line, name, ok)) = sub.take() {
                if !ok {
                    out.push(violation(
                        path,
                        line,
                        format!(
                            "dependency table for `{name}` has no `path` key — \
                             registry dependencies are banned (DESIGN.md §5)"
                        ),
                    ));
                }
            }
        };

    for (line_no, item) in toml_lines(text) {
        let line = match item {
            TomlLine::Header { name: header, .. } => {
                flush_subsection(&mut subsection, out);
                if let Some(dep_name) = header
                    .strip_prefix("dependencies.")
                    .or_else(|| header.strip_prefix("dev-dependencies."))
                    .or_else(|| header.strip_prefix("build-dependencies."))
                    .or_else(|| header.strip_prefix("workspace.dependencies."))
                {
                    in_dep_table = false;
                    subsection = Some((line_no, dep_name.to_string(), false));
                } else {
                    in_dep_table = header.ends_with("dependencies");
                }
                continue;
            }
            TomlLine::Entry(line) => line,
        };
        if let Some((_, _, ok)) = &mut subsection {
            let key = key_of(line);
            if key == "path" || (key == "workspace" && line.contains("true")) {
                *ok = true;
            }
            continue;
        }
        if in_dep_table && line.contains('=') && !has_path_or_workspace(line) {
            out.push(violation(
                path,
                line_no,
                format!(
                    "`{}` is not a path dependency — \
                     registry dependencies are banned (DESIGN.md §5)",
                    key_of(line)
                ),
            ));
        }
    }
    flush_subsection(&mut subsection, out);
}

/// Where a [`CARGO_CONFIG`] line sits.
#[derive(Clone, Copy)]
enum ConfigScope {
    /// Above the first header.
    TopLevel,
    /// Inside a `[profile.<name>]` table.
    Profile,
    /// Inside a table already flagged; its keys are not flagged again.
    Flagged,
}

/// Scan the text of [`CARGO_CONFIG`]: only `[profile.<name>]` tables,
/// and no `panic` key.
pub fn check_cargo_config(path: &str, text: &str, out: &mut Vec<Violation>) {
    let mut scope = ConfigScope::TopLevel;
    for (line_no, item) in toml_lines(text) {
        let message = match (item, scope) {
            (TomlLine::Header { name, array }, _) => {
                if !array && name.strip_prefix("profile.").is_some_and(|n| !n.is_empty()) {
                    scope = ConfigScope::Profile;
                    continue;
                }
                scope = ConfigScope::Flagged;
                let header = if array { format!("[[{name}]]") } else { format!("[{name}]") };
                format!(
                    "`{header}` in the Cargo config — it may hold only \
                     `[profile.<name>]` tables (DESIGN.md §5)"
                )
            }
            (TomlLine::Entry(line), ConfigScope::TopLevel) => format!(
                "`{}` outside a `[profile.<name>]` table in the Cargo config (DESIGN.md §5)",
                key_of(line)
            ),
            (TomlLine::Entry(line), ConfigScope::Profile)
                if key_of(line).rsplit('.').next().map(|k| k.trim_matches('"')) == Some("panic") =>
            {
                "`panic` is set in the Cargo config — it must stay `unwind`: `run_rank` \
                 turns rank panics into typed `BeffError`s with `catch_unwind` (DESIGN.md §5)"
                    .to_string()
            }
            (TomlLine::Entry(_), _) => continue,
        };
        out.push(violation(path, line_no, message));
    }
}

fn has_path_or_workspace(line: &str) -> bool {
    // `foo = { path = "crates/foo" }` or `foo = { workspace = true }` —
    // a `path` or `workspace = true` key inside the value.
    let Some(value) = line.splitn(2, '=').nth(1) else { return false };
    value.contains("path") || value.replace(' ', "").contains("workspace=true")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(text: &str) -> Vec<Violation> {
        let mut v = Vec::new();
        check_manifest("crates/x/Cargo.toml", text, &mut v);
        v
    }

    #[test]
    fn path_and_workspace_deps_pass() {
        let v = check(
            "[dependencies]\nbeff-json = { workspace = true }\n\
             beff-sync = { path = \"../sync\" }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn registry_dep_is_flagged_with_line() {
        let v = check("[package]\nname = \"x\"\n\n[dependencies]\nserde = \"1.0\"\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
        assert!(v[0].message.contains("serde"));
    }

    #[test]
    fn dev_and_workspace_tables_are_covered() {
        let v = check("[dev-dependencies]\nproptest = \"1\"\n[workspace.dependencies]\nrand = \"0.8\"\n");
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn subsection_form_requires_path() {
        let ok = check("[dependencies.beff-json]\npath = \"../json\"\n");
        assert!(ok.is_empty());
        let bad = check("[dependencies.serde]\nversion = \"1\"\nfeatures = [\"derive\"]\n");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("serde"));
    }

    #[test]
    fn non_dependency_sections_are_ignored() {
        let v = check("[package]\nname = \"x\"\nversion = \"0.1.0\"\n[features]\nfoo = []\n");
        assert!(v.is_empty());
    }

    fn check_config(text: &str) -> Vec<Violation> {
        let mut v = Vec::new();
        check_cargo_config(CARGO_CONFIG, text, &mut v);
        v
    }

    #[test]
    fn the_committed_cargo_config_passes() {
        let v = check_config(include_str!("../../../.cargo/config.toml"));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn profile_tables_pass() {
        let v = check_config(
            "# one profile\n[profile.release]\nlto = \"fat\"\ncodegen-units = 1\n\
             [profile.dev]\nopt-level = 1\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn every_other_cargo_config_table_is_flagged_with_line() {
        for header in [
            "source.crates-io",
            "source",
            "patch.crates-io",
            "registries.mirror",
            "registry",
            "net",
            "build",
            "target.x86_64-unknown-linux-gnu",
            "target",
            "env",
            "unstable",
            "profile.",
            "alias",
        ] {
            let v = check_config(&format!("[profile.release]\nlto = \"fat\"\n\n[{header}]\nx = 1\n"));
            assert_eq!(v.len(), 1, "[{header}]: {v:?}");
            assert_eq!((v[0].rule, v[0].line), ("path-deps", 4), "[{header}]");
            assert_eq!(v[0].path, CARGO_CONFIG);
            assert!(v[0].message.contains(&format!("`[{header}]`")), "{}", v[0].message);
        }
    }

    #[test]
    fn array_tables_and_top_level_keys_are_flagged() {
        let v = check_config("[[profile.release]]\nlto = true\n");
        assert_eq!(v.len(), 1, "{v:?}");
        let v = check_config("build.rustflags = [\"-Ctarget-cpu=native\"]\n[profile.release]\n");
        assert_eq!((v.len(), v[0].line), (1, 1), "{v:?}");
        assert!(v[0].message.contains("`build.rustflags`"), "{}", v[0].message);
    }

    #[test]
    fn a_panic_key_is_flagged() {
        for entry in ["panic = \"abort\"", "panic=\"unwind\"", "\"panic\" = \"abort\""] {
            let v = check_config(&format!("[profile.release]\nlto = \"fat\"\n{entry}\n"));
            assert_eq!((v.len(), v[0].line), (1, 3), "{entry}: {v:?}");
            assert!(v[0].message.contains("catch_unwind"), "{}", v[0].message);
        }
        let v = check_config("[profile.release.package.beff-sim]\npanic = \"abort\"\n");
        assert_eq!(v.len(), 1, "{v:?}");
    }
}
