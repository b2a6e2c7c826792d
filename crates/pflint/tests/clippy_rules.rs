//! rustc and clippy own the rules they can check with types
//! (STATIC_ANALYSIS.md). These tests run `cargo clippy`, each run with its
//! own target directory under `target/`: over the workspace, so `cargo
//! test` fails on any violation or stale `#[expect]`, and over the fixture
//! crate `fixtures/clippy` (its own `[workspace]`, the root `clippy.toml`),
//! whose report must hold every bad shape and nothing else. They also
//! check what the lints cannot: every crate inherits them, and every
//! exemption sits on an item of a sanctioned file. `tests/fixtures.rs`
//! checks which files deny the panic lints.

mod common;

use std::collections::BTreeSet;

use common::{assert_reported, clippy, fixture_diagnostics, quiet, repo_root};
use common::{CONCURRENCY, DETERMINISM, METHODS, TYPES};
use pflint::source::attributes;

#[test]
fn workspace_is_clippy_clean() {
    let out = clippy(&repo_root(), "workspace", &["--workspace", "--quiet"]);
    assert!(
        out.status.success(),
        "cargo clippy --workspace --all-targets -- -D warnings failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `[workspace.lints]` reaches only the crates that opt in, so a crate
/// without `[lints] workspace = true` could hold `unsafe` unnoticed.
#[test]
fn every_crate_inherits_the_workspace_lints() {
    let crates = repo_root().join("crates");
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("read crates/").flatten() {
        let manifest = entry.path().join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest).unwrap_or_default();
        if !text.contains("[lints]\nworkspace = true\n") {
            missing.push(manifest.display().to_string());
        }
    }
    assert!(
        missing.is_empty(),
        "no `[lints] workspace = true` in {missing:?}"
    );
}

/// The lints an exemption may name only on an item of a sanctioned file,
/// and the groups that hold them.
const GUARDED: &str = "unsafe_code clippy::disallowed_types clippy::disallowed_methods \
    clippy::unwrap_used clippy::expect_used clippy::panic clippy::unreachable clippy::todo \
    clippy::unimplemented warnings clippy::all clippy::style clippy::restriction";

/// `allow_attributes` leaves `#[expect]`, which fails once stale, as the
/// only outer exemption, but it skips `#![allow]` and says nothing of
/// where an exemption sits. Every `allow` or `expect` naming a guarded
/// lint must sit on an item, and the files holding them must be exactly
/// those listed under "Sanctioned uses" in STATIC_ANALYSIS.md.
#[test]
fn exemptions_are_item_level_and_sanctioned() {
    let root = repo_root();
    let (mut files, mut inner) = (BTreeSet::new(), Vec::new());
    for dir in ["crates", "tests", "examples"] {
        for file in pflint::rust_files_excluding(&root.join(dir), &["target", "fixtures"]) {
            let text = std::fs::read_to_string(&file).expect("read a source file");
            for (line, is_inner, body) in attributes(&text) {
                let mut words = body.split(['(', ')', ',']);
                let guarded = words.any(|w| GUARDED.split(' ').any(|g| g == w));
                if guarded && (body.contains("allow(") || body.contains("expect(")) {
                    let rel = pflint::rel_str(&root, &file);
                    if is_inner {
                        inner.push(format!("{rel}:{line}"));
                    }
                    files.insert(rel);
                }
            }
        }
    }
    assert!(inner.is_empty(), "crate- or module-level: {inner:?}");
    let doc = std::fs::read_to_string(root.join("STATIC_ANALYSIS.md")).expect("read the doc");
    let section = doc.split("## Sanctioned uses").nth(1).unwrap_or_default();
    let sanctioned: BTreeSet<String> = section
        .split("\n## ")
        .next()
        .unwrap_or_default()
        .lines()
        .filter_map(|l| Some(l.strip_prefix("- `")?.split('`').next()?.to_string()))
        .collect();
    assert_eq!(files, sanctioned, "exempting files vs the sanctioned list");
}

/// Every `(lint, file, lines)` the fixture crate must report: one bad shape
/// per line, so a config entry that stops matching loses its line.
const EXPECTED: &[(&str, &str, &[usize])] = &[
    // thread::spawn, Builder::spawn, thread::scope, Scope::spawn,
    // mpsc::channel, mpsc::sync_channel
    (METHODS, CONCURRENCY, &[5, 6, 7, 8, 25, 26]),
    // Mutex, RwLock, Condvar, AtomicU64, AtomicBool, Sender, Receiver,
    // SyncSender
    (TYPES, CONCURRENCY, &[14, 15, 16, 17, 18, 19, 20, 21]),
    ("unsafe_code", CONCURRENCY, &[36]),
    // HashMap ×2, HashSet, RandomState ×2, the two clocks, Instant named,
    // a read whose #[expect] names only the method lint, a read in a test
    (TYPES, DETERMINISM, &[2, 5, 6, 10, 11, 15, 20, 26, 33, 46]),
    // Instant::now, SystemTime::now, Instant::now in a test
    (METHODS, DETERMINISM, &[15, 20, 46]),
    ("clippy::unwrap_used", "src/panics.rs", &[13]),
    ("clippy::expect_used", "src/panics.rs", &[17]),
    ("clippy::panic", "src/panics.rs", &[22]),
    ("clippy::unreachable", "src/panics.rs", &[30]),
    ("clippy::todo", "src/panics.rs", &[31]),
    ("clippy::unimplemented", "src/panics.rs", &[32]),
    ("unfulfilled_lint_expectations", "src/stale.rs", &[3, 8, 14]),
    ("clippy::allow_attributes", "src/stale.rs", &[20]),
];

#[test]
fn fixture_reports_every_bad_shape_and_nothing_else() {
    assert!(quiet("src/allowed.rs", ..), "an allowed shape was reported");
    for &(lint, file, lines) in EXPECTED {
        assert_reported(lint, file, lines);
    }
    let pinned: usize = EXPECTED.iter().map(|(_, _, lines)| lines.len()).sum();
    assert_eq!(
        fixture_diagnostics().len(),
        pinned,
        "clippy reports shapes that are not pinned: {:#?}",
        fixture_diagnostics()
    );
}
