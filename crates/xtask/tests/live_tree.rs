//! Meta-tests against the real workspace: the tree must lint clean, and the
//! safety rule must actually be load-bearing — deleting any `// SAFETY:`
//! comment from `simd.rs` (the prefetch shim's unsafe block) must produce a
//! finding.

use std::path::Path;
use xtask::{lint_single, run_lint, LintConfig};

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn live_tree_is_clean() {
    let cfg = LintConfig::workspace_default(&workspace_root());
    let diags = run_lint(&cfg).expect("lint walk succeeds");
    assert!(
        diags.is_empty(),
        "the workspace must lint clean; fix or justify each finding:\n{}",
        diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_safety_comment_in_simd_kernels_is_load_bearing() {
    let root = workspace_root();
    let rel = "crates/common/src/simd.rs";
    let text = std::fs::read_to_string(root.join(rel)).expect("simd.rs readable");
    let cfg = LintConfig::workspace_default(&root);

    let baseline = lint_single(&cfg, rel, &text);
    assert!(
        baseline.is_empty(),
        "simd.rs must start clean:\n{}",
        baseline
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );

    let lines: Vec<&str> = text.lines().collect();
    let safety_lines: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.trim_start().starts_with("//") && l.contains("SAFETY:"))
        .map(|(i, _)| i)
        .collect();
    assert!(
        !safety_lines.is_empty(),
        "expected the prefetch shim's SAFETY comment in simd.rs"
    );

    for &removed in &safety_lines {
        let mutated: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != removed)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let diags = lint_single(&cfg, rel, &mutated);
        assert!(
            diags.iter().any(|d| d.rule == "unsafe-safety-comment"),
            "deleting the SAFETY comment on line {} produced no finding",
            removed + 1
        );
    }
}
