//! Fixture tests: seeded violations for every analysis are detected and
//! reported with file:line, while suppressed/test-only/hooked equivalents
//! in the `allowed` tree produce zero findings. The `bad` tree also seeds
//! the misparse class the old line-regex engine got wrong — braces and
//! rule keywords inside strings, char literals, and block comments, and a
//! suppression marker inside a string — and pins exact anchors for the
//! lexer-based engine.
//!
//! The rules that moved to clippy keep their tests here too, pinning
//! their lints at `file:line` in clippy's report on the fixture crate
//! `fixtures/clippy` (`tests/clippy_rules.rs` pins the whole report).

mod common;

use std::path::{Path, PathBuf};

use common::{assert_reported, quiet, CONCURRENCY, DETERMINISM, METHODS, TYPES};
use pflint::{rules, Finding};

fn fixture_root(which: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(which)
}

/// Assert a finding exists for `rule` at `file` (suffix match) and `line`.
fn assert_found(findings: &[Finding], rule: &str, file: &str, line: usize) {
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rule && f.line == line && ends_with(&f.file, file)),
        "expected [{rule}] at {file}:{line}; got:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn ends_with(path: &Path, suffix: &str) -> bool {
    path.to_string_lossy().ends_with(suffix)
}

#[test]
fn bad_fixtures_trip_invariant_hook_check() {
    let findings = pflint::run_invariant_hooks(&fixture_root("bad"));
    assert_found(&findings, rules::INVARIANT_HOOK_MISSING, "sim_state.rs", 5);
    assert_eq!(
        findings.len(),
        1,
        "exactly one hookless module seeded: {findings:?}"
    );
}

#[test]
fn bad_fixtures_trip_hot_path_alloc() {
    let findings = pflint::run_hot_path_alloc(&fixture_root("bad"));
    // Annotated materializer bodies.
    assert_found(&findings, rules::HOT_PATH_ALLOC, "materializer.rs", 6);
    assert_found(&findings, rules::HOT_PATH_ALLOC, "materializer.rs", 7);
    // The allocation AFTER a close-brace-in-string — the old brace counter
    // ended the body at line 13's `"}"` and never saw it.
    assert_found(&findings, rules::HOT_PATH_ALLOC, "materializer.rs", 14);
    // Annotated tsdb ingest body.
    assert_found(&findings, rules::HOT_PATH_ALLOC, "db.rs", 5);
    assert_found(&findings, rules::HOT_PATH_ALLOC, "db.rs", 6);
    // An annotation with no function underneath is itself a finding.
    assert_found(&findings, rules::HOT_PATH_ALLOC, "dangling_hot.rs", 2);
    // Event-wheel hot paths: format! in schedule, collect in cascade.
    assert_found(&findings, rules::HOT_PATH_ALLOC, "wheel.rs", 6);
    assert_found(&findings, rules::HOT_PATH_ALLOC, "wheel.rs", 12);
    // Batch datapath passes: a Vec born inside the L1 pass body, a
    // collect in the retire pass.
    assert_found(&findings, rules::HOT_PATH_ALLOC, "batch_pass.rs", 6);
    assert_found(&findings, rules::HOT_PATH_ALLOC, "batch_pass.rs", 15);
    // obs calls in a per-op body: a span and a metric update.
    assert_found(&findings, rules::HOT_PATH_ALLOC, "obs_in_hot.rs", 5);
    assert_found(&findings, rules::HOT_PATH_ALLOC, "obs_in_hot.rs", 8);
    // Cold-path formatting (`describe`, `series_key`) stays out of scope.
    assert_eq!(
        findings.len(),
        12,
        "rule leaked beyond hot bodies: {findings:?}"
    );
}

#[test]
fn bad_fixtures_trip_panic_freedom() {
    let findings = pflint::run_panic_freedom(&fixture_root("bad"));
    // Indexing, division, and assert! on consecutive lines, in obs and in
    // the fleetd daemon surface, which is a panic-freedom root as well.
    for (file, first) in [("daemon.rs", 9), ("collector.rs", 3)] {
        for line in first..first + 3 {
            assert_found(&findings, rules::PANIC_FREEDOM, file, line);
        }
    }
    assert_eq!(
        findings.len(),
        6,
        "rule leaked beyond the seeded lines: {findings:?}"
    );
}

#[test]
fn misparse_regressions_braces_and_keywords_in_literals() {
    // daemon.rs seeds needles inside a block comment (line 6), a string
    // with a brace (line 7), and a char literal (line 8) — none may fire.
    // Line 11 pairs a REAL assert! with a suppression marker that lives
    // inside a string literal; the old engine read the raw line and
    // treated it as suppressed.
    let findings = pflint::run(&fixture_root("bad"));
    assert_found(&findings, rules::PANIC_FREEDOM, "daemon.rs", 11);
    for line in [6, 7, 8] {
        assert!(
            !findings
                .iter()
                .any(|f| ends_with(&f.file, "daemon.rs") && f.line == line),
            "masked needle at daemon.rs:{line} must not fire: {findings:?}"
        );
    }
}

#[test]
fn allowed_fixtures_are_clean() {
    let findings = pflint::run(&fixture_root("allowed"));
    assert!(
        findings.is_empty(),
        "suppressions/hooks/test-exemption should silence everything:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn findings_render_as_file_line_rule_message() {
    let findings = pflint::run_invariant_hooks(&fixture_root("bad"));
    let rendered = findings
        .first()
        .expect("invariant-hook finding")
        .to_string();
    assert!(
        rendered.contains("sim_state.rs:5"),
        "bad anchor: {rendered}"
    );
    assert!(
        rendered.contains("[invariant-hook-missing]"),
        "bad rule tag: {rendered}"
    );
}

#[test]
fn bad_fixtures_trip_every_determinism_rule() {
    // Hash-ordered containers and the randomly seeded hasher; clock reads.
    assert_reported(TYPES, DETERMINISM, &[2, 5, 6, 10, 11]);
    assert_reported(METHODS, DETERMINISM, &[15, 20]);
}

/// Each file and how many panic lints, from the front of `family`, its
/// `#![deny]` names: input-facing files (the fault plan's windows and the
/// bench CSV writers among them) deny three, the daemon roots all six.
const PANIC_DENIES: &[(&str, usize)] = &[
    ("crates/tsdb/src/lib.rs", 3),
    ("crates/bench/src/lib.rs", 3),
    ("crates/simarch/src/trace.rs", 3),
    ("crates/simarch/src/config.rs", 3),
    ("crates/simarch/src/faults.rs", 3),
    ("crates/fleetd/src/lib.rs", 6),
    ("crates/fleetd/src/main.rs", 6),
    ("crates/obs/src/lib.rs", 6),
    ("crates/obs/src/bin/obs_validate.rs", 6),
];

#[test]
fn unwrap_rule_covers_fault_windows_and_bench_writers() {
    let family = "unwrap_used expect_used panic unreachable todo unimplemented";
    for &(file, n) in PANIC_DENIES {
        let text = std::fs::read_to_string(common::repo_root().join(file)).expect("read");
        let denied: String = pflint::source::attributes(&text)
            .into_iter()
            .filter(|(_, inner, body)| *inner && body.starts_with("deny("))
            .map(|(_, _, body)| body.replace(')', ","))
            .collect();
        for lint in family.split(' ').take(n) {
            assert!(
                denied.contains(&format!("clippy::{lint},")),
                "{file} must `#![deny(clippy::{lint})]`"
            );
        }
    }
    // What the denies catch: a parse that unwraps, a file opened with
    // `expect`, a window check that panics; tests may do all three.
    assert_reported("clippy::unwrap_used", "src/panics.rs", &[13]);
    assert_reported("clippy::expect_used", "src/panics.rs", &[17]);
    assert_reported("clippy::panic", "src/panics.rs", &[22]);
    assert!(
        quiet("src/panics.rs", 36..),
        "a test-only panic was reported"
    );
}

#[test]
fn bad_fixtures_trip_obs_choke_point() {
    // Every clock read outside `now_ns`, the one item expecting the clock
    // bans, is reported, in a test as well; `now_ns` itself is not, and an
    // expecting item that no longer reads the clock is stale.
    assert_reported(METHODS, DETERMINISM, &[15, 20, 46]);
    assert!(quiet("src/allowed.rs", 11..=21), "the sanctioned read");
    assert_reported("unfulfilled_lint_expectations", "src/stale.rs", &[14]);
}

#[test]
fn bad_fixtures_trip_fault_plan_determinism() {
    // The clock ban has no file scope, so test code is covered, and so is
    // std's one entropy-seeded source, `RandomState`.
    assert_reported(METHODS, DETERMINISM, &[46]);
    assert_reported(TYPES, DETERMINISM, &[10, 11]);
}

#[test]
fn bad_fixtures_trip_concurrency_hygiene() {
    // Threads and channel constructors; locks, atomics and channel ends.
    assert_reported(METHODS, CONCURRENCY, &[5, 6, 7, 8, 25, 26]);
    assert_reported(TYPES, CONCURRENCY, &[14, 15, 16, 17, 18, 19, 20, 21]);
    // The fan-out and the lock under their own `#[expect]` stay silent.
    assert!(quiet("src/allowed.rs", 23..=47), "a sanctioned use");
}
