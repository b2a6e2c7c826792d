//! pflint — the PathFinder workspace static-analysis pass.
//!
//! rustc and clippy own every rule they can check with types: the root
//! `clippy.toml` bans hash-ordered containers, wall-clock reads and
//! concurrency primitives outside their sanctioned items, the workspace
//! lints deny `unsafe`, and the daemon and input-facing files deny
//! `unwrap`/`expect`/`panic!` (STATIC_ANALYSIS.md). pflint keeps the rules
//! that need the repository's own structure or have no clippy lint.
//!
//! The engine lexes every source file into a lossless token stream
//! ([`lexer`]) and builds a structural index on top ([`source`]): masked
//! code lines (comments and string literals blanked), item-scoped
//! `#[cfg(test)]` ranges, token-accurate function bodies, suppression
//! markers, and token-level panic surfaces. Every rule below matches
//! against that index, so string literals, block comments, and braces
//! inside strings can never produce phantom findings or desynchronized
//! body extraction.
//!
//! Three analyses:
//!
//! 1. **Invariant-hook verification** ([`run_invariant_hooks`]): every
//!    `simarch` module declaring a queue-bearing field (`FifoServer`,
//!    `Coverage`, `BoundedWindow`) must register an `impl Invariants for`
//!    hook, so the epoch-boundary conservation audit covers all flows.
//! 2. **Hot-path allocations** ([`run_hot_path_alloc`]): any function
//!    annotated with a standalone `// pflint::hot` comment must stay free
//!    of string/Vec-growth allocations — the static side of the
//!    allocation-free steady-state guarantee (PERFORMANCE.md) — and of
//!    `obs::span!`/`obs::metrics::` calls, which take a process-wide lock
//!    per call (OBSERVABILITY.md: no obs call below epoch granularity).
//!    A `// pflint::hot` comment that does not precede a function is a
//!    finding too.
//! 3. **Panic freedom** ([`run_panic_freedom`]): service-facing modules
//!    (the fleetd daemon surface and `crates/obs/src`) must not contain
//!    release `assert!`s, unchecked indexing, or division by a
//!    non-literal divisor.
//!
//! Suppression: append `// pflint::allow(<rule>)` to the offending line, or
//! place it alone on the line above. Each suppression silences exactly one
//! rule on exactly one line, and markers are only honored inside real
//! comments (one inside a string literal is inert). Test code (item-scoped
//! `#[cfg(test)]`) is exempt from every rule but `hot-path-alloc`.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod source;

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

use source::{contains_word, SourceFile};

pub mod rules {
    //! Stable rule identifiers, usable in `pflint::allow(...)` comments.
    pub const INVARIANT_HOOK_MISSING: &str = "invariant-hook-missing";
    pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
    pub const PANIC_FREEDOM: &str = "panic-freedom";
}

/// One reported problem, anchored to `file:line`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: PathBuf,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Directory whose modules must register conservation-invariant hooks.
pub const INVARIANT_SCAN_ROOT: &str = "crates/simarch/src";

// ---------------------------------------------------------------------
// Source scanning plumbing
// ---------------------------------------------------------------------

/// Recursively collect `.rs` files under `root`, skipping directories whose
/// name is in `skip` at any depth.
pub fn rust_files_excluding(root: &Path, skip: &[&str]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        if dir.is_file() {
            if dir.extension().is_some_and(|e| e == "rs") {
                out.push(dir);
            }
            continue;
        }
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| skip.iter().any(|s| n == *s)) {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Recursively collect `.rs` files under `root` (skipping `target/`).
fn rust_files(root: &Path) -> Vec<PathBuf> {
    rust_files_excluding(root, &["target"])
}

/// Every workspace source file subject to `hot-path-alloc`: all crates
/// plus the integration tests and examples, excluding vendored code and
/// pflint itself (whose needle tables and fixture trees would self-trip).
fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = rust_files_excluding(&root.join("crates"), &["target", "vendor", "pflint"]);
    out.extend(rust_files(&root.join("tests")));
    out.extend(rust_files(&root.join("examples")));
    out.sort();
    out
}

// ---------------------------------------------------------------------
// Analysis 1: conservation-invariant hook verification
// ---------------------------------------------------------------------

/// Queue-bearing field types whose owners must register invariant hooks.
const QUEUE_TYPES: &[&str] = &["FifoServer", "Coverage", "BoundedWindow"];

/// Does this masked code line declare a struct field of a queue-bearing
/// type? Matches `name: FifoServer`, `name: Vec<Coverage>`, fully
/// qualified paths, etc. — any `: ... Type` with the type used in field
/// position.
fn declares_queue_field(code: &str) -> Option<&'static str> {
    let trimmed = code.trim_start();
    // Field declarations, not uses: `ident: ... QueueType ... ,` — require
    // a colon before the type name and exclude fn signatures/impl lines.
    if trimmed.starts_with("fn ")
        || trimmed.starts_with("pub fn ")
        || trimmed.starts_with("impl")
        || trimmed.starts_with("use ")
    {
        return None;
    }
    let colon = code.find(':')?;
    let after = &code[colon..];
    for ty in QUEUE_TYPES {
        if let Some(pos) = after.find(ty) {
            let bytes = after.as_bytes();
            let end = pos + ty.len();
            let left_ok =
                pos == 0 || !(bytes[pos - 1].is_ascii_alphanumeric() || bytes[pos - 1] == b'_');
            let right_ok =
                end >= after.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
            // `Coverage::new()` etc. is a use, not a declaration.
            let is_path_call = after[end..].starts_with("::");
            if left_ok && right_ok && !is_path_call {
                return Some(ty);
            }
        }
    }
    None
}

/// Verify that every module under [`INVARIANT_SCAN_ROOT`] that declares a
/// queue-bearing field also contains at least one `impl Invariants for`.
pub fn run_invariant_hooks(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in rust_files(&root.join(INVARIANT_SCAN_ROOT)) {
        let Ok(src) = SourceFile::load(&file) else {
            continue;
        };
        let mut first_decl: Option<(usize, &'static str)> = None;
        let mut has_hook = false;
        for (idx, line) in src.lines.iter().enumerate() {
            if src.is_test_line(idx) {
                continue;
            }
            if line.contains("impl Invariants for")
                || line.contains("impl crate::invariants::Invariants for")
            {
                has_hook = true;
            }
            if first_decl.is_none() {
                if let Some(ty) = declares_queue_field(line) {
                    if !src.is_suppressed(idx, rules::INVARIANT_HOOK_MISSING) {
                        first_decl = Some((idx + 1, ty));
                    }
                }
            }
        }
        if let Some((line, ty)) = first_decl {
            if !has_hook {
                findings.push(Finding {
                    rule: rules::INVARIANT_HOOK_MISSING,
                    file: file.clone(),
                    line,
                    message: format!(
                        "module declares a `{ty}` field but registers no `impl Invariants for` hook"
                    ),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Analysis 2: hot-path allocations
// ---------------------------------------------------------------------

/// (needle, advice) — calls forbidden inside a `// pflint::hot` body.
/// Each heap-allocates or takes an obs lock per call, which in the
/// per-op and per-epoch tick/drain grid means thousands of allocations or
/// lock round trips per simulated second.
const HOT_PATH_NEEDLES: &[(&str, &str)] = &[
    (
        "format!",
        "string formatting allocates per call; resolve names/handles in the cold path",
    ),
    (
        ".to_string(",
        "allocates per call; intern or cache the string in the cold path",
    ),
    (
        "String::from(",
        "allocates per call; intern or cache the string in the cold path",
    ),
    (
        ".to_owned(",
        "allocates per call; borrow instead, or move the copy to the cold path",
    ),
    (
        "String::new(",
        "fresh String in a hot body; reuse a preallocated buffer",
    ),
    (
        "String::with_capacity(",
        "fresh String in a hot body; reuse a preallocated buffer",
    ),
    (
        ".to_vec(",
        "copies into a fresh Vec per call; borrow or reuse a buffer",
    ),
    (
        "vec![",
        "fresh Vec in a hot body; reuse a preallocated buffer",
    ),
    (
        "Vec::new(",
        "fresh Vec in a hot body; reuse a preallocated buffer",
    ),
    (
        "Vec::with_capacity(",
        "fresh Vec in a hot body; reuse a preallocated buffer",
    ),
    (
        "Box::new(",
        "heap allocation in a hot body; preallocate in the cold path",
    ),
    (
        ".collect(",
        "collecting allocates; iterate in place or fill a reused buffer",
    ),
    (
        "obs::span!",
        "a span reads the clock twice and takes the recorder lock; open it per epoch in a caller",
    ),
    (
        "obs::metrics::",
        "a metric update takes the registry lock; count in a field and publish once per epoch",
    ),
];

/// Verify every `// pflint::hot`-annotated function body is free of
/// string/Vec-growth allocations. The annotation is a standalone line
/// comment directly above the function (doc comments and single-line
/// attributes may sit between). Dangling annotations — ones that do not
/// precede a function — are reported too, so a typo cannot silently
/// disable the check.
pub fn run_hot_path_alloc(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in workspace_files(root) {
        let Ok(src) = SourceFile::load(&file) else {
            continue;
        };
        for f in src.fns.iter().filter(|f| f.hot && f.body_start > 0) {
            for idx in (f.body_start - 1)..f.body_end.min(src.lines.len()) {
                let line = &src.lines[idx];
                for &(needle, advice) in HOT_PATH_NEEDLES {
                    if !contains_word(line, needle) {
                        continue;
                    }
                    if src.is_suppressed(idx, rules::HOT_PATH_ALLOC) {
                        continue;
                    }
                    findings.push(Finding {
                        rule: rules::HOT_PATH_ALLOC,
                        file: file.clone(),
                        line: idx + 1,
                        message: format!(
                            "`{needle}` in the `// pflint::hot` body of `{}`: {advice}",
                            f.name
                        ),
                    });
                }
            }
        }
        for &line in &src.dangling_hot {
            if src.is_suppressed(line - 1, rules::HOT_PATH_ALLOC) {
                continue;
            }
            findings.push(Finding {
                rule: rules::HOT_PATH_ALLOC,
                file: file.clone(),
                line,
                message: "`// pflint::hot` does not precede a function; the annotation \
                          must sit directly above the fn it marks"
                    .to_string(),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Analysis 3: panic freedom
// ---------------------------------------------------------------------

/// Service-facing roots that must stay panic-free: the observability
/// layer and the fleetd daemon surface (ROADMAP item 2) — both stay
/// resident in long-running collector processes, where a panic path is an
/// outage, not a stack trace.
pub const PANIC_FREEDOM_ROOTS: &[&str] = &["crates/fleetd/src", "crates/obs/src"];

/// (needle, advice) — release-path assertions, which clippy has no lint
/// for. `debug_assert!` is fine (it compiles out of release daemons);
/// word boundaries keep it unmatched. `unwrap`/`expect` and the
/// panic-family macros are clippy's (`#![deny]` in each root's crate).
const PANIC_FREEDOM_NEEDLES: &[(&str, &str)] = &[
    (
        "assert!",
        "release-path assert panics; use debug_assert! or return an error",
    ),
    (
        "assert_eq!",
        "release-path assert panics; use debug_assert_eq! or return an error",
    ),
    (
        "assert_ne!",
        "release-path assert panics; use debug_assert_ne! or return an error",
    ),
];

/// Verify the service-facing roots contain no panic paths on non-test
/// lines that clippy cannot see: no release `assert!` family, no
/// `expr[...]` indexing (use `.get()`; clippy's `indexing_slicing` misses
/// `BTreeMap` and `str` indexing), and no `/`/`%` by a non-literal divisor.
pub fn run_panic_freedom(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rel in PANIC_FREEDOM_ROOTS {
        for file in rust_files(&root.join(rel)) {
            let Ok(src) = SourceFile::load(&file) else {
                continue;
            };
            for (idx, line) in src.lines.iter().enumerate() {
                if src.is_test_line(idx) {
                    continue;
                }
                for &(needle, advice) in PANIC_FREEDOM_NEEDLES {
                    if !contains_word(line, needle) {
                        continue;
                    }
                    if src.is_suppressed(idx, rules::PANIC_FREEDOM) {
                        continue;
                    }
                    findings.push(Finding {
                        rule: rules::PANIC_FREEDOM,
                        file: file.clone(),
                        line: idx + 1,
                        message: format!("`{needle}`: {advice}"),
                    });
                }
            }
            for &idx in src.index_lines() {
                if src.is_test_line(idx) || src.is_suppressed(idx, rules::PANIC_FREEDOM) {
                    continue;
                }
                findings.push(Finding {
                    rule: rules::PANIC_FREEDOM,
                    file: file.clone(),
                    line: idx + 1,
                    message: "indexing can panic out-of-range in a daemon path; use .get()"
                        .to_string(),
                });
            }
            for &idx in src.div_lines() {
                if src.is_test_line(idx) || src.is_suppressed(idx, rules::PANIC_FREEDOM) {
                    continue;
                }
                findings.push(Finding {
                    rule: rules::PANIC_FREEDOM,
                    file: file.clone(),
                    line: idx + 1,
                    message: "division/modulo by a non-literal divisor can panic on zero; \
                              guard it or use checked_div"
                        .to_string(),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Run all analyses, sorted by root-relative path, then line, rule and
/// message.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut findings = run_invariant_hooks(root);
    findings.extend(run_hot_path_alloc(root));
    findings.extend(run_panic_freedom(root));
    findings.sort_by(|a, b| {
        (rel_str(root, &a.file), a.line, a.rule, &a.message).cmp(&(
            rel_str(root, &b.file),
            b.line,
            b.rule,
            &b.message,
        ))
    });
    findings
}

/// Root-relative, forward-slash path for stable output.
pub fn rel_str(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_field_declarations_detected() {
        assert_eq!(
            declares_queue_field("    server: FifoServer,"),
            Some("FifoServer")
        );
        assert_eq!(
            declares_queue_field("    tor_ne: Vec<Coverage>,"),
            Some("Coverage")
        );
        assert_eq!(
            declares_queue_field("    pub sb: BoundedWindow,"),
            Some("BoundedWindow")
        );
        assert_eq!(
            declares_queue_field("        port: FifoServer::new(),"),
            None
        );
        assert_eq!(
            declares_queue_field("use crate::queues::{Coverage, FifoServer};"),
            None
        );
        assert_eq!(
            declares_queue_field("fn serve(&mut self) -> Coverage {"),
            None
        );
    }

    /// Build a throwaway workspace with the given files (paths relative to
    /// the workspace root).
    fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
        let root = std::env::temp_dir().join(format!("pflint-fixture-{name}"));
        let _ = std::fs::remove_dir_all(&root);
        for (rel, text) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }
        root
    }

    #[test]
    fn hot_path_alloc_flags_annotated_bodies_only() {
        let root = fixture(
            "hot-basic",
            &[(
                "crates/x/src/lib.rs",
                "// pflint::hot\n\
                 fn tick() {\n\
                     let s = format!(\"{}\", 1);\n\
                 }\n\
                 fn cold() {\n\
                     let s = format!(\"{}\", 1);\n\
                 }\n",
            )],
        );
        let findings = run_hot_path_alloc(&root);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("tick"));
    }

    #[test]
    fn hot_path_alloc_survives_braces_in_strings() {
        // The old brace counter would have ended the body at the `}` inside
        // the string and missed the allocation below it.
        let root = fixture(
            "hot-brace",
            &[(
                "crates/x/src/lib.rs",
                "// pflint::hot\n\
                 fn tick() {\n\
                     let close = \"}\";\n\
                     let s = String::from(\"x\");\n\
                 }\n",
            )],
        );
        let findings = run_hot_path_alloc(&root);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn dangling_hot_annotation_is_a_finding() {
        let root = fixture(
            "hot-dangling",
            &[("crates/x/src/lib.rs", "// pflint::hot\nstruct NotAFn;\n")],
        );
        let findings = run_hot_path_alloc(&root);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("does not precede a function"));
    }

    #[test]
    fn panic_freedom_flags_all_panic_surfaces() {
        let root = fixture(
            "panic",
            &[(
                "crates/obs/src/daemon.rs",
                "fn f(xs: &[u64], n: u64) -> u64 {\n\
                 assert!(n > 0);\n\
                 let b = xs[0];\n\
                 let c = b / n;\n\
                 debug_assert!(n > 0);\n\
                 b + c\n\
                 }\n",
            )],
        );
        let findings = run_panic_freedom(&root);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert!(lines.contains(&2), "assert!: {findings:?}");
        assert!(lines.contains(&3), "indexing: {findings:?}");
        assert!(lines.contains(&4), "division: {findings:?}");
        assert_eq!(
            findings.len(),
            3,
            "debug_assert must not fire: {findings:?}"
        );
    }

    // The wall-clock, fault-plan and concurrency rules moved to the root
    // `clippy.toml`; these tests pin their shapes in clippy's report on the
    // fixture crate `fixtures/clippy`.
    use crate::common::{assert_reported, quiet, CONCURRENCY, DETERMINISM, METHODS, TYPES};

    /// `now_ns`'s `#[expect]` of both clock lints silences its read and is
    /// fulfilled: nothing in `allowed.rs` is reported.
    #[test]
    fn choke_point_accepts_the_sanctioned_shape() {
        assert!(quiet("src/allowed.rs", ..));
    }

    /// Clippy resolves paths: clock names in comments and a string are not
    /// reads.
    #[test]
    fn choke_point_ignores_instant_in_comments_and_strings() {
        assert!(quiet(DETERMINISM, 36..=40));
    }

    /// A clock read outside the expecting item is reported, and so is
    /// naming `Instant` at all.
    #[test]
    fn choke_point_rejects_instant_outside_clock_rs() {
        assert_reported(METHODS, DETERMINISM, &[15]);
        assert_reported(TYPES, DETERMINISM, &[26]);
    }

    /// No call-site count: the `#[expect]` covers its own item, every other
    /// read is reported, and an expecting item left without a read is stale.
    #[test]
    fn choke_point_requires_exactly_one_clock_read() {
        assert_reported(METHODS, DETERMINISM, &[15, 20]);
        assert_reported("unfulfilled_lint_expectations", "src/stale.rs", &[14]);
    }

    /// An `#[expect]` silences only the lints it names: one naming just
    /// `disallowed_methods` is fulfilled and leaves `Instant` reported.
    #[test]
    fn choke_point_requires_the_allow_marker() {
        assert_reported(TYPES, DETERMINISM, &[33]);
        assert!(quiet(DETERMINISM, 30..=32));
    }

    /// Clippy runs with `--all-targets`: a clock read in a test is reported.
    #[test]
    fn fault_plan_rule_covers_test_lines() {
        assert_reported(METHODS, DETERMINISM, &[46]);
        assert_reported(TYPES, DETERMINISM, &[46]);
    }

    /// An item-level `#[expect]` on a test silences its clock read.
    #[test]
    fn fault_plan_suppression_marker_works() {
        assert!(quiet("src/allowed.rs", 59..));
    }

    /// A thread or lock outside an expecting item is reported; the scoped
    /// fan-out over an atomic and the registry lock under theirs are not.
    #[test]
    fn concurrency_confined_to_allowlist() {
        assert_reported(METHODS, CONCURRENCY, &[5]);
        assert_reported(TYPES, CONCURRENCY, &[14]);
        assert!(quiet("src/allowed.rs", 23..=47));
    }
}
