//! Integration tests: run the full `analyze_workspace` pipeline over
//! the seeded fixture trees in `tests/fixtures/` (which the analyzer's
//! own workspace walk skips — a lint must not lint its fixtures), and
//! prove the report is byte-identical across runs and directory walk
//! orders.

use beff_analyze::analyze_workspace;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

#[test]
fn lock_inversion_fixture_is_caught_by_lockflow() {
    let r = analyze_workspace(&fixture("lock_inversion")).expect("analyze");
    let v = r
        .violations
        .iter()
        .find(|v| v.rule == "lockflow")
        .unwrap_or_else(|| panic!("no lockflow violation: {:?}", r.violations));
    assert!(v.path.ends_with("crates/sim/src/sched.rs"), "{v:?}");
    assert_eq!(v.line, 10, "anchors at the call that acquires downward");
    assert!(v.message.contains("sim.port"), "{v:?}");
    // Nothing else fires: the inversion is the only defect seeded.
    assert!(r.violations.iter().all(|v| v.rule == "lockflow"), "{:?}", r.violations);
}

#[test]
fn panic_hot_path_fixture_is_caught_by_panicflow() {
    let r = analyze_workspace(&fixture("panic_hot_path")).expect("analyze");
    let v = r
        .violations
        .iter()
        .find(|v| v.rule == "panicflow")
        .unwrap_or_else(|| panic!("no panicflow violation: {:?}", r.violations));
    assert!(v.path.ends_with("crates/serve/src/wire.rs"), "{v:?}");
    assert_eq!(v.line, 4, "anchors at the unwrap, not the entry point");
    assert!(v.message.contains("submit"), "names the reaching entry point: {v:?}");
    assert!(r.violations.iter().all(|v| v.rule == "panicflow"), "{:?}", r.violations);
}

#[test]
fn hash_order_fixture_is_caught_at_its_source() {
    let r = analyze_workspace(&fixture("hash_order_at_source")).expect("analyze");
    let found: Vec<_> = r.violations.iter().map(|v| (v.rule, v.path.as_str(), v.line)).collect();
    assert_eq!(found, [("hash-order", "crates/sync/src/tally.rs", 5)], "{:?}", r.violations);
}

/// Copy a fixture tree into a scratch dir, creating files in the given
/// order — readdir order commonly tracks creation order, so copying in
/// reversed order exercises walk-order independence.
fn copy_tree(src_root: &Path, dst_root: &Path, reverse: bool) {
    let mut files = Vec::new();
    collect(src_root, src_root, &mut files);
    files.sort();
    if reverse {
        files.reverse();
    }
    for rel in files {
        let dst = dst_root.join(&rel);
        std::fs::create_dir_all(dst.parent().expect("parent")).expect("mkdir");
        std::fs::copy(src_root.join(&rel), dst).expect("copy");
    }
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let p = entry.expect("entry").path();
        if p.is_dir() {
            collect(root, &p, out);
        } else {
            out.push(p.strip_prefix(root).expect("under root").to_path_buf());
        }
    }
}

#[test]
fn report_is_byte_identical_across_runs_and_walk_orders() {
    let src = fixture("lock_inversion");
    let base = std::env::temp_dir().join(format!("beff-analyze-det-{}", std::process::id()));
    let (fwd, rev) = (base.join("fwd"), base.join("rev"));
    let _ = std::fs::remove_dir_all(&base);
    copy_tree(&src, &fwd, false);
    copy_tree(&src, &rev, true);

    let render = |root: &Path| {
        beff_json::to_string_pretty(&analyze_workspace(root).expect("analyze"))
    };
    let a1 = render(&fwd);
    let a2 = render(&fwd);
    let b = render(&rev);
    let _ = std::fs::remove_dir_all(&base);

    assert_eq!(a1, a2, "same tree, two runs: report must not drift");
    assert_eq!(a1, b, "creation order must not leak into the report");
}

#[test]
fn workspace_report_is_byte_identical_across_runs() {
    // The real workspace, twice. This does not assert pass() — the
    // verify gate owns that — only that the full pipeline (every file,
    // the call graph, both passes) is a pure function of the tree.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let r1 = beff_json::to_string_pretty(&analyze_workspace(&root).expect("analyze"));
    let r2 = beff_json::to_string_pretty(&analyze_workspace(&root).expect("analyze"));
    assert_eq!(r1, r2);
}
