//! Workspace-level gate: the real source tree must be lint-clean, every
//! path the lint is configured with must exist, and the PMU registry the
//! lint trusts must itself round-trip coherently.

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
    let mut paths: Vec<&str> = pflint::determinism_config()
        .iter()
        .map(|c| c.rel_path)
        .collect();
    for list in [
        pflint::PMU_SCAN_ROOTS,
        pflint::FAULT_PLAN_SCAN_ROOTS,
        pflint::CONCURRENCY_ALLOWLIST,
        pflint::PANIC_FREEDOM_ROOTS,
    ] {
        paths.extend_from_slice(list);
    }
    paths.extend([
        pflint::INVARIANT_SCAN_ROOT,
        pflint::MODULE_SCAN_ROOT,
        pflint::OBS_SCAN_ROOT,
    ]);
    let missing: Vec<&str> = paths
        .into_iter()
        .filter(|p| !root.join(p).exists())
        .collect();
    assert!(
        missing.is_empty(),
        "pflint configures paths missing from the workspace: {missing:?}"
    );
}

#[test]
fn registry_round_trip_is_coherent() {
    use std::collections::BTreeSet;
    let events = pmu::registry::all_events();
    assert!(!events.is_empty());

    let mut names = BTreeSet::new();
    for e in &events {
        // Unique, non-empty perf-style name.
        assert!(!e.name.is_empty());
        assert!(
            names.insert(e.name.clone()),
            "duplicate registry name {}",
            e.name
        );
        // Non-empty family description and a derivable unit.
        assert!(!e.description.is_empty(), "no description for {}", e.name);
        assert_eq!(
            e.unit,
            pmu::registry::unit_of(&e.name),
            "unit drift for {}",
            e.name
        );
        // The name must resolve back to the same entry.
        let back = pmu::registry::lookup(&e.name).expect("lookup round-trip");
        assert_eq!(back.name, e.name);
        assert_eq!(back.pmu, e.pmu, "bank drift for {}", e.name);
    }
}
