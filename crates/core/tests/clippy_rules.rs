//! rustc and clippy own the static rules (STATIC_ANALYSIS.md). These
//! tests run `cargo clippy`, each run building into its own target
//! directory under `target/clippy-rules/`: over the workspace, so
//! `cargo test` fails on any violation or stale `#[expect]`, and over the
//! fixture crate at the root's `tests/fixtures/clippy` (its own
//! `[workspace]`, the root `clippy.toml`), whose report must hold every
//! bad shape and nothing else. They also check what the lints cannot:
//! every crate inherits them, every exemption sits on an item of a
//! sanctioned file, and the files that deny the panic lints still deny
//! them.

use std::collections::BTreeSet;
use std::ops::RangeBounds;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

/// The lints and fixture files the tests name most.
const TYPES: &str = "clippy::disallowed_types";
const METHODS: &str = "clippy::disallowed_methods";
const DETERMINISM: &str = "src/determinism.rs";
const CONCURRENCY: &str = "src/concurrency.rs";
const PANICS: &str = "src/panics.rs";

/// `(lint, file, line)`, the file relative to the linted crate.
type Diagnostic = (String, String, usize);

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("the pathfinder crate lives two levels below the repo root")
        .to_path_buf()
}

/// `cargo clippy --offline --all-targets --keep-going <args> -- -D
/// warnings` run in `dir`, building into `target/clippy-rules/<target>`.
/// `--keep-going` checks every target even after one fails, whatever the
/// number of build jobs.
fn clippy(dir: &Path, target: &str, args: &[&str]) -> Output {
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

/// Every diagnostic clippy reports on the fixture crate, run once per test
/// binary; the bad shapes make it fail.
fn fixture_diagnostics() -> &'static BTreeSet<Diagnostic> {
    static REPORTED: OnceLock<BTreeSet<Diagnostic>> = OnceLock::new();
    REPORTED.get_or_init(|| {
        let dir = repo_root().join("tests/fixtures/clippy");
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
fn assert_reported(lint: &str, file: &str, lines: &[usize]) {
    for &line in lines {
        let row = (lint.to_string(), file.to_string(), line);
        assert!(
            fixture_diagnostics().contains(&row),
            "expected [{lint}] at {file}:{line}"
        );
    }
}

/// Whether clippy reports nothing on `lines` of `file` in the fixture crate.
fn quiet(file: &str, lines: impl RangeBounds<usize>) -> bool {
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

/// Every `.rs` file under `dir`, skipping `target` and `fixtures`
/// directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with("fixtures") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every attribute that starts a line of `text`, as `(line, inner, body)`:
/// `#[body]`, or `#![body]` when `inner`. An attribute may span lines;
/// `body` drops whitespace, comments and string literals, so
/// `#[expect(unsafe_code, reason = "…")]` has `expect(unsafe_code,reason=)`.
fn attributes(text: &str) -> Vec<(usize, bool, String)> {
    let mut out = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((n, line)) = lines.next() {
        let line = line.trim_start();
        let (inner, mut rest) = match (line.strip_prefix("#!["), line.strip_prefix("#[")) {
            (Some(rest), _) => (true, rest),
            (None, Some(rest)) => (false, rest),
            _ => continue,
        };
        let (mut body, mut depth, mut in_str) = (String::new(), 1, false);
        'attr: loop {
            let mut chars = rest.chars().peekable();
            while let Some(c) = chars.next() {
                match c {
                    '\\' if in_str => {
                        chars.next();
                    }
                    '"' => in_str = !in_str,
                    _ if in_str || c.is_whitespace() => {}
                    '/' if chars.peek() == Some(&'/') => break,
                    '[' => {
                        depth += 1;
                        body.push(c);
                    }
                    ']' => {
                        depth -= 1;
                        if depth == 0 {
                            break 'attr;
                        }
                        body.push(c);
                    }
                    _ => body.push(c),
                }
            }
            match lines.next() {
                Some((_, next)) => rest = next,
                None => break,
            }
        }
        out.push((n + 1, inner, body));
    }
    out
}

#[test]
fn attributes_are_read_across_lines_without_literals_or_comments() {
    let text = "fn f() {}\n  #![deny(clippy::panic)]\n#[expect(\n    unsafe_code, // why\n    \
                reason = \"a ] and a \\\" inside\"\n)]\nfn g() {}\n";
    assert_eq!(
        attributes(text),
        [
            (2, true, "deny(clippy::panic)".to_string()),
            (3, false, "expect(unsafe_code,reason=)".to_string()),
        ]
    );
}

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
    clippy::disallowed_macros clippy::unwrap_used clippy::expect_used clippy::panic \
    clippy::unreachable clippy::todo clippy::unimplemented clippy::indexing_slicing \
    clippy::string_slice clippy::integer_division_remainder_used warnings clippy::all \
    clippy::style clippy::restriction";

/// `allow_attributes` leaves `#[expect]`, which fails once stale, as the
/// only outer exemption, but it skips `#![allow]` and says nothing of
/// where an exemption sits. Every `allow` or `expect` naming a guarded
/// lint must sit on an item, and the files holding them must be exactly
/// those listed under "Sanctioned uses" in STATIC_ANALYSIS.md.
#[test]
fn exemptions_are_item_level_and_sanctioned() {
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_files(&root.join(dir), &mut sources);
    }
    let (mut files, mut inner) = (BTreeSet::new(), Vec::new());
    for file in sources {
        let text = std::fs::read_to_string(&file).expect("read a source file");
        let rel = file
            .strip_prefix(&root)
            .expect("a file under the root")
            .to_string_lossy()
            .into_owned();
        for (line, is_inner, body) in attributes(&text) {
            let mut words = body.split(['(', ')', ',']);
            let guarded = words.any(|w| GUARDED.split_whitespace().any(|g| g == w));
            if guarded && (body.contains("allow(") || body.contains("expect(")) {
                if is_inner {
                    inner.push(format!("{rel}:{line}"));
                }
                files.insert(rel.clone());
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
    ("clippy::unwrap_used", PANICS, &[24]),
    ("clippy::expect_used", PANICS, &[28]),
    ("clippy::panic", PANICS, &[33]),
    ("clippy::unreachable", PANICS, &[41]),
    ("clippy::todo", PANICS, &[42]),
    ("clippy::unimplemented", PANICS, &[43]),
    // `xs[0]`, `&name[1..]`, `total / n`, `total % n`
    ("clippy::indexing_slicing", PANICS, &[48]),
    ("clippy::string_slice", PANICS, &[52]),
    ("clippy::integer_division_remainder_used", PANICS, &[56, 57]),
    // assert!, assert_eq!, assert_ne!, and debug_assert!, which expands
    // to assert!
    ("clippy::disallowed_macros", PANICS, &[61, 62, 63, 64]),
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

/// Each file and how many panic lints, from the front of `PANIC_LINTS`,
/// its `#![deny]` names: input-facing files (the fault plan's windows and
/// the bench CSV writers among them) deny three, the daemon roots all six
/// and, for their non-test code, the `DAEMON_LINTS` too.
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

const PANIC_LINTS: &str = "unwrap_used expect_used panic unreachable todo unimplemented";
const DAEMON_LINTS: &str =
    "indexing_slicing string_slice integer_division_remainder_used disallowed_macros";

/// A deleted `#![deny]` would pass clippy silently, so each file of the
/// two panic rows in STATIC_ANALYSIS.md must still deny its lints.
#[test]
fn unwrap_rule_covers_fault_windows_and_bench_writers() {
    for &(file, n) in PANIC_DENIES {
        let text = std::fs::read_to_string(repo_root().join(file)).expect("read");
        let (mut always, mut release) = (String::new(), String::new());
        for (_, inner, body) in attributes(&text) {
            if let Some(lints) = body.strip_prefix("deny(").filter(|_| inner) {
                always.push_str(&lints.replace(')', ","));
            }
            if let Some(lints) = body
                .strip_prefix("cfg_attr(not(test),deny(")
                .filter(|_| inner)
            {
                release.push_str(&lints.replace(')', ","));
            }
        }
        for lint in PANIC_LINTS.split(' ').take(n) {
            assert!(
                always.contains(&format!("clippy::{lint},")),
                "{file} must `#![deny(clippy::{lint})]`"
            );
        }
        for lint in DAEMON_LINTS.split(' ').filter(|_| n == 6) {
            assert!(
                release.contains(&format!("clippy::{lint},")),
                "{file} must `#![cfg_attr(not(test), deny(clippy::{lint}))]`"
            );
        }
    }
    // What the denies catch: a parse that unwraps, a file opened with
    // `expect`, a window check that panics, indexing, a string slice, a
    // division and a release assert; tests may do all of these.
    assert_reported("clippy::unwrap_used", PANICS, &[24]);
    assert_reported("clippy::expect_used", PANICS, &[28]);
    assert_reported("clippy::panic", PANICS, &[33]);
    assert_reported("clippy::indexing_slicing", PANICS, &[48]);
    assert_reported("clippy::string_slice", PANICS, &[52]);
    assert_reported("clippy::integer_division_remainder_used", PANICS, &[56]);
    assert_reported("clippy::disallowed_macros", PANICS, &[61]);
    assert!(quiet(PANICS, 67..), "a test-only panic path was reported");
}
