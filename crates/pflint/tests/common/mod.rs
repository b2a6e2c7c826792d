//! Runs `cargo clippy` for pflint's tests, each run building into its own
//! target directory under `target/clippy-rules/`. The integration tests
//! take this file as `mod common`, the unit tests in `src/lib.rs` through
//! `#[path]`.

use std::collections::BTreeSet;
use std::ops::RangeBounds;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

/// The lints and fixture files the tests name most.
pub const TYPES: &str = "clippy::disallowed_types";
pub const METHODS: &str = "clippy::disallowed_methods";
pub const DETERMINISM: &str = "src/determinism.rs";
pub const CONCURRENCY: &str = "src/concurrency.rs";

/// `(lint, file, line)`, the file relative to the linted crate.
pub type Diagnostic = (String, String, usize);

pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("pflint lives two levels below the repo root")
        .to_path_buf()
}

/// `cargo clippy --offline --all-targets --keep-going <args> -- -D
/// warnings` run in `dir`, building into `target/clippy-rules/<target>`.
/// `--keep-going` checks every target even after one fails, whatever the
/// number of build jobs.
pub fn clippy(dir: &Path, target: &str, args: &[&str]) -> Output {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    Command::new(cargo)
        .current_dir(dir)
        .env(
            "CARGO_TARGET_DIR",
            repo_root().join("target/clippy-rules").join(target),
        )
        .args(["clippy", "--offline", "--all-targets", "--keep-going"])
        .args(args)
        .args(["--", "-D", "warnings"])
        .output()
        .expect("run cargo clippy")
}

/// Every diagnostic clippy reports on the fixture crate `fixtures/clippy`,
/// which has its own `[workspace]` and still reads the root `clippy.toml`.
/// Clippy runs once per test binary; the bad shapes make it fail.
pub fn fixture_diagnostics() -> &'static BTreeSet<Diagnostic> {
    static REPORTED: OnceLock<BTreeSet<Diagnostic>> = OnceLock::new();
    REPORTED.get_or_init(|| {
        let dir = repo_root().join("crates/pflint/fixtures/clippy");
        let out = clippy(&dir, "fixture", &["--message-format=json-diagnostic-short"]);
        assert!(!out.status.success(), "the bad shapes must fail clippy");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(diagnostic)
            .collect()
    })
}

/// Assert clippy reports `lint` on each of `lines` of the fixture crate's
/// `file`.
#[track_caller]
pub fn assert_reported(lint: &str, file: &str, lines: &[usize]) {
    for &line in lines {
        let row = (lint.to_string(), file.to_string(), line);
        assert!(
            fixture_diagnostics().contains(&row),
            "expected [{lint}] at {file}:{line}"
        );
    }
}

/// Whether clippy reports nothing on `lines` of `file` in the fixture crate.
pub fn quiet(file: &str, lines: impl RangeBounds<usize>) -> bool {
    !fixture_diagnostics()
        .iter()
        .any(|(_, f, line)| f == file && lines.contains(line))
}

/// `(lint, file, line)` of one cargo JSON message holding a lint. Under
/// `json-diagnostic-short` the diagnostic's `rendered` text, its first
/// field, starts with `file:line:col:`; its `code`, the last field, names
/// the lint. Messages without a lint code ("aborting due to …") yield
/// `None`.
fn diagnostic(json: &str) -> Option<Diagnostic> {
    const CODE: &str = "\"code\":{\"code\":\"";
    const RENDERED: &str = "\"rendered\":\"";
    if !json.contains("\"reason\":\"compiler-message\"") {
        return None;
    }
    let lint = json[json.rfind(CODE)? + CODE.len()..].split('"').next()?;
    let rendered = &json[json.find(RENDERED)? + RENDERED.len()..];
    let mut parts = rendered.splitn(3, ':');
    let file = parts.next()?;
    let line = parts.next()?.parse().ok()?;
    Some((lint.to_string(), file.to_string(), line))
}
