//! Workspace-level gate: the real source tree must be lint-clean, and
//! every path the lint is configured with must exist.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().expect("workspace root")
}

#[test]
fn workspace_is_lint_clean() {
    let findings = pflint::run(&workspace_root());
    assert!(
        findings.is_empty(),
        "pflint found {} problem(s) in the workspace:\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The scans skip a missing root silently, so a deleted file or directory
/// would leave a lint root that checks nothing. Every configured path must
/// name something in the workspace.
#[test]
fn every_configured_path_exists() {
    let root = workspace_root();
    let mut paths = vec![pflint::INVARIANT_SCAN_ROOT];
    paths.extend_from_slice(pflint::PANIC_FREEDOM_ROOTS);
    let missing: Vec<&str> = paths
        .into_iter()
        .filter(|p| !root.join(p).exists())
        .collect();
    assert!(
        missing.is_empty(),
        "pflint configures paths missing from the workspace: {missing:?}"
    );
}
