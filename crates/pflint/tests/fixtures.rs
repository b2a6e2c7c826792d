//! Fixture tests: seeded violations for every analysis are detected and
//! reported with file:line, while suppressed/test-only/hooked equivalents
//! in the `allowed` tree produce zero findings. The `bad` tree also seeds
//! the misparse class the old line-regex engine got wrong — braces and
//! rule keywords inside strings, char literals, and block comments — and
//! pins exact anchors for the lexer-based engine.

use std::path::{Path, PathBuf};

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
fn bad_fixtures_trip_every_determinism_rule() {
    let findings = pflint::run_determinism(&fixture_root("bad"));
    assert_found(&findings, rules::HASH_ITERATION, "sim_state.rs", 2);
    assert_found(&findings, rules::WALL_CLOCK, "sim_state.rs", 3);
    // The fabric switch module is inside the determinism scan too.
    assert_found(&findings, rules::WALL_CLOCK, "rogue_switch.rs", 11);
    assert_found(&findings, rules::HASH_ITERATION, "sim_state.rs", 6);
    assert_found(&findings, rules::WALL_CLOCK, "sim_state.rs", 11);
    assert_found(&findings, rules::OS_ENTROPY, "sim_state.rs", 12);
    assert_found(&findings, rules::UNWRAP_IN_IO, "trace.rs", 3);
    assert_found(&findings, rules::HASH_ITERATION, "db.rs", 2);
    assert_found(&findings, rules::UNWRAP_IN_IO, "db.rs", 5);
}

#[test]
fn unwrap_rule_covers_fault_windows_and_bench_writers() {
    let findings = pflint::run_determinism(&fixture_root("bad"));
    // simarch/faults.rs window validation must return Err, not panic.
    assert_found(&findings, rules::UNWRAP_IN_IO, "faults.rs", 4);
    // bench CSV/JSON writers must propagate I/O errors.
    assert_found(&findings, rules::UNWRAP_IN_IO, "bench/src/lib.rs", 3);
    assert_found(&findings, rules::UNWRAP_IN_IO, "bench/src/lib.rs", 5);
}

#[test]
fn misparse_regressions_braces_and_keywords_in_literals() {
    // sneaky.rs seeds needles inside a block comment (lines 6-7), a string
    // with braces (line 8), and a char literal (line 9) — none may fire.
    // Line 14 pairs a REAL Instant::now with a suppression marker that
    // lives inside a string literal; the old engine read the raw line and
    // treated it as suppressed.
    let findings = pflint::run_determinism(&fixture_root("bad"));
    assert_found(&findings, rules::WALL_CLOCK, "sneaky.rs", 14);
    for line in [6, 7, 8, 9] {
        assert!(
            !findings
                .iter()
                .any(|f| ends_with(&f.file, "sneaky.rs") && f.line == line),
            "masked needle at sneaky.rs:{line} must not fire: {findings:?}"
        );
    }
}

#[test]
fn bad_fixtures_trip_pmu_consistency() {
    let findings = pflint::run_pmu_consistency(&fixture_root("bad"));
    assert_found(&findings, rules::PMU_VARIANT_UNKNOWN, "pmu_refs.rs", 6);
    assert_found(&findings, rules::PMU_EVENT_UNKNOWN, "pmu_refs.rs", 7);
    // The valid CoreEvent::InstRetired reference on line 5 must NOT fire.
    assert!(
        !findings.iter().any(|f| f.line == 5),
        "valid variant flagged: {findings:?}"
    );
}

#[test]
fn bad_fixtures_trip_invariant_hook_check() {
    let findings = pflint::run_invariant_hooks(&fixture_root("bad"));
    assert_found(&findings, rules::INVARIANT_HOOK_MISSING, "sim_state.rs", 7);
    assert_eq!(
        findings.len(),
        1,
        "exactly one hookless module seeded: {findings:?}"
    );
}

#[test]
fn bad_fixtures_trip_obs_choke_point() {
    let findings = pflint::run_obs_choke_point(&fixture_root("bad"));
    // Unmarked Instant::now inside clock.rs.
    assert_found(&findings, rules::OBS_CHOKE_POINT, "clock.rs", 4);
    // Instant named outside clock.rs.
    assert_found(&findings, rules::OBS_CHOKE_POINT, "span.rs", 2);
    // More than one call site in the choke point.
    assert!(
        findings.iter().any(|f| f.message.contains("found 2")),
        "call-site count not enforced: {findings:?}"
    );
}

#[test]
fn bad_fixtures_trip_module_registration() {
    let findings = pflint::run_module_registration(&fixture_root("bad"));
    assert_found(
        &findings,
        rules::MODULE_COUNTER_REGISTRATION,
        "rogue_module.rs",
        5,
    );
    // The fabric switch stage is audited like any other SimModule.
    assert_found(
        &findings,
        rules::MODULE_COUNTER_REGISTRATION,
        "rogue_switch.rs",
        6,
    );
    assert_eq!(
        findings.len(),
        2,
        "exactly two unregistered modules seeded: {findings:?}"
    );
}

#[test]
fn bad_fixtures_trip_fault_plan_determinism() {
    let findings = pflint::run_fault_plan_determinism(&fixture_root("bad"));
    assert_found(
        &findings,
        rules::FAULT_PLAN_DETERMINISM,
        "bad_fault_plan.rs",
        4,
    );
    // Fault-plan-free files in the same tree must stay out of scope —
    // including sneaky.rs, whose thread_rng lives inside a string.
    assert!(
        findings
            .iter()
            .all(|f| ends_with(&f.file, "bad_fault_plan.rs")),
        "rule leaked beyond the fault-plan file: {findings:?}"
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
    assert_found(&findings, rules::HOT_PATH_ALLOC, "db.rs", 11);
    assert_found(&findings, rules::HOT_PATH_ALLOC, "db.rs", 12);
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
fn bad_fixtures_trip_concurrency_hygiene() {
    let findings = pflint::run_concurrency_hygiene(&fixture_root("bad"));
    assert_found(&findings, rules::CONCURRENCY_HYGIENE, "rogue_threads.rs", 2);
    assert_found(&findings, rules::CONCURRENCY_HYGIENE, "rogue_threads.rs", 4);
    assert_found(&findings, rules::CONCURRENCY_HYGIENE, "rogue_threads.rs", 5);
    assert_found(&findings, rules::CONCURRENCY_HYGIENE, "rogue_threads.rs", 6);
    assert_found(&findings, rules::CONCURRENCY_HYGIENE, "rogue_threads.rs", 7);
    // fleetd concurrency anywhere but shard.rs is a finding too.
    assert_found(&findings, rules::CONCURRENCY_HYGIENE, "exporter.rs", 2);
    assert_found(&findings, rules::CONCURRENCY_HYGIENE, "exporter.rs", 5);
    assert_found(&findings, rules::CONCURRENCY_HYGIENE, "exporter.rs", 6);
    assert!(
        findings
            .iter()
            .all(|f| ends_with(&f.file, "rogue_threads.rs") || ends_with(&f.file, "exporter.rs")),
        "rule leaked beyond the seeded files: {findings:?}"
    );
}

#[test]
fn bad_fixtures_trip_panic_freedom() {
    let findings = pflint::run_panic_freedom(&fixture_root("bad"));
    assert_found(&findings, rules::PANIC_FREEDOM, "daemon.rs", 3); // unwrap
    assert_found(&findings, rules::PANIC_FREEDOM, "daemon.rs", 4); // indexing
    assert_found(&findings, rules::PANIC_FREEDOM, "daemon.rs", 5); // division
    assert_found(&findings, rules::PANIC_FREEDOM, "daemon.rs", 6); // assert!
                                                                   // The fleetd daemon surface is a panic-freedom root as well.
    assert_found(&findings, rules::PANIC_FREEDOM, "collector.rs", 3); // unwrap
    assert_found(&findings, rules::PANIC_FREEDOM, "collector.rs", 4); // indexing
    assert_found(&findings, rules::PANIC_FREEDOM, "collector.rs", 5); // division
    assert_found(&findings, rules::PANIC_FREEDOM, "collector.rs", 6); // assert!
    assert!(
        findings
            .iter()
            .all(|f| ends_with(&f.file, "daemon.rs") || ends_with(&f.file, "collector.rs")),
        "rule leaked beyond the seeded files: {findings:?}"
    );
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
fn rule_filter_restricts_findings() {
    let only = vec![rules::PANIC_FREEDOM.to_string()];
    let findings = pflint::run_filtered(&fixture_root("bad"), &only);
    assert!(!findings.is_empty());
    assert!(
        findings.iter().all(|f| f.rule == rules::PANIC_FREEDOM),
        "--rule must drop every other family: {findings:?}"
    );
}

#[test]
fn json_output_round_trips_and_baselines_the_bad_tree() {
    let root = fixture_root("bad");
    let findings = pflint::run(&root);
    assert!(!findings.is_empty());
    let json = pflint::render_json(&root, &findings);
    // Validates against the documented pflint-findings-v1 schema via the
    // obs JSON parser.
    let keys = pflint::parse_baseline(&json).expect("schema-valid JSON");
    assert!(!keys.is_empty());
    // A baseline written from the current findings gates nothing.
    assert!(
        pflint::new_vs_baseline(&root, &findings, &keys).is_empty(),
        "self-baseline must suppress every finding"
    );
    // Paths in the JSON are root-relative with forward slashes.
    assert!(
        json.contains("\"file\": \"crates/obs/src/daemon.rs\""),
        "{json}"
    );
}

#[test]
fn findings_render_as_file_line_rule_message() {
    let findings = pflint::run_determinism(&fixture_root("bad"));
    let f = findings
        .iter()
        .find(|f| f.rule == rules::OS_ENTROPY && ends_with(&f.file, "sim_state.rs"))
        .expect("entropy finding");
    let rendered = f.to_string();
    assert!(
        rendered.contains("sim_state.rs:12"),
        "bad anchor: {rendered}"
    );
    assert!(
        rendered.contains("[os-entropy]"),
        "bad rule tag: {rendered}"
    );
}
