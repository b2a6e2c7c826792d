//! pflint — the PathFinder workspace static-analysis pass.
//!
//! The engine lexes every source file into a lossless token stream
//! ([`lexer`]) and builds a structural index on top ([`source`]): masked
//! code lines (comments and string literals blanked), item-scoped
//! `#[cfg(test)]` ranges, token-accurate function bodies, suppression
//! markers, and token-level panic surfaces. Every rule below matches
//! against that index, so string literals, block comments, and braces
//! inside strings can never produce phantom findings or desynchronized
//! body extraction — the failure class of the line-regex engine this
//! replaced.
//!
//! Ten analyses keep the simulator honest:
//!
//! 1. **Determinism lint** ([`run_determinism`]): model code (`simarch`,
//!    `core`, `tsdb`) must be bit-reproducible run-to-run, so hash-ordered
//!    containers, wall-clock reads, and OS entropy are findings unless
//!    explicitly suppressed. Input-facing modules additionally ban
//!    `unwrap`/`expect`/`panic!` (`unwrap-in-io-paths`).
//! 2. **PMU-counter consistency** ([`run_pmu_consistency`]): every counter
//!    referenced in `core`, `bench` and `tiering` — as a typed enum variant
//!    or as a perf-style name string — must resolve against the `pmu`
//!    registry (existence, bank, unit, description).
//! 3. **Invariant-hook verification** ([`run_invariant_hooks`]): every
//!    `simarch` module declaring a queue-bearing field (`FifoServer`,
//!    `Coverage`, `BoundedWindow`) must register an `impl Invariants for`
//!    hook, so the epoch-boundary conservation audit covers all flows.
//! 4. **Module counter registration** ([`run_module_registration`]): every
//!    `impl SimModule for` in `simarch` must route its `counters()` list
//!    through `crate::module::registered`, which pins each advertised name
//!    to the `pmu` registry.
//! 5. **Observability choke point** ([`run_obs_choke_point`]): the `obs`
//!    crate is the only sanctioned home for wall-clock reads, and inside it
//!    `Instant` may appear only in `clock.rs`, with exactly one
//!    `Instant::now` call site carrying a `pflint::allow(wall-clock)`
//!    marker. Everything else must go through `obs::clock::now_ns`.
//! 6. **Fault-plan determinism** ([`run_fault_plan_determinism`]): any file
//!    that builds or applies a `FaultPlan` must derive its schedule from an
//!    explicit seed — OS entropy and wall-clock reads are findings even in
//!    test code, so injected anomalies replay bit-identically (FAULTS.md).
//! 7. **Hot-path allocations** ([`run_hot_path_alloc`]): any function
//!    annotated with a standalone `// pflint::hot` comment must stay free
//!    of string/Vec-growth allocations — the static side of the
//!    allocation-free steady-state guarantee (PERFORMANCE.md) — and of
//!    `obs::span!`/`obs::metrics::` calls, which take a process-wide lock
//!    per call (OBSERVABILITY.md: no obs call below epoch granularity).
//!    This generalizes the retired `ingest-hot-path` rule, which hardcoded
//!    two files; the annotation now travels with the function.
//! 8. **Concurrency hygiene** ([`run_concurrency_hygiene`]): threads,
//!    locks, atomics, channels, and `unsafe` are confined to the
//!    sanctioned modules ([`CONCURRENCY_ALLOWLIST`]); fleetd's sharded
//!    runtime lives behind exactly one audited door
//!    (`crates/fleetd/src/shard.rs`).
//! 9. **Panic freedom** ([`run_panic_freedom`]): service-facing modules
//!    (the fleetd daemon surface and `crates/obs/src`) must not contain
//!    panic paths — `unwrap`/`expect`, panic-family macros, unchecked
//!    indexing, or division by a non-literal divisor.
//! 10. **Dangling hot annotations** (folded into `hot-path-alloc`): a
//!     `// pflint::hot` comment that does not precede a function is
//!     reported rather than silently ignored.
//!
//! Suppression: append `// pflint::allow(<rule>)` to the offending line, or
//! place it alone on the line above. Each suppression silences exactly one
//! rule on exactly one line, and markers are only honored inside real
//! comments (one inside a string literal is inert).
//!
//! The lint is still textual by design — it runs in milliseconds with no
//! dependencies beyond `pmu` (the registry ground truth) and `obs` (whose
//! minimal JSON parser reads the committed baseline) and needs no nightly
//! compiler hooks. Test code (item-scoped `#[cfg(test)]`) is exempt from
//! the determinism, unwrap, and panic-freedom rules; fault-plan
//! determinism and concurrency hygiene apply everywhere.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod source;

use source::{contains_word, SourceFile};

pub mod rules {
    //! Stable rule identifiers, usable in `pflint::allow(...)` comments.
    pub const HASH_ITERATION: &str = "hashmap-iteration";
    pub const WALL_CLOCK: &str = "wall-clock";
    pub const OS_ENTROPY: &str = "os-entropy";
    pub const UNWRAP_IN_IO: &str = "unwrap-in-io-paths";
    pub const PMU_EVENT_UNKNOWN: &str = "pmu-event-unknown";
    pub const PMU_VARIANT_UNKNOWN: &str = "pmu-variant-unknown";
    pub const INVARIANT_HOOK_MISSING: &str = "invariant-hook-missing";
    pub const OBS_CHOKE_POINT: &str = "obs-choke-point";
    pub const MODULE_COUNTER_REGISTRATION: &str = "module-counter-registration";
    pub const FAULT_PLAN_DETERMINISM: &str = "fault-plan-determinism";
    pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
    pub const CONCURRENCY_HYGIENE: &str = "concurrency-hygiene";
    pub const PANIC_FREEDOM: &str = "panic-freedom";

    pub const ALL: &[&str] = &[
        HASH_ITERATION,
        WALL_CLOCK,
        OS_ENTROPY,
        UNWRAP_IN_IO,
        PMU_EVENT_UNKNOWN,
        PMU_VARIANT_UNKNOWN,
        INVARIANT_HOOK_MISSING,
        OBS_CHOKE_POINT,
        MODULE_COUNTER_REGISTRATION,
        FAULT_PLAN_DETERMINISM,
        HOT_PATH_ALLOC,
        CONCURRENCY_HYGIENE,
        PANIC_FREEDOM,
    ];
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

/// Which determinism rules apply to one crate (per-crate configuration).
#[derive(Clone, Debug)]
pub struct CrateRules {
    /// Path relative to the workspace root, e.g. `"crates/simarch/src"`.
    pub rel_path: &'static str,
    /// Determinism rules enforced under that path.
    pub rules: &'static [&'static str],
}

/// The default per-crate determinism configuration. Model code gets the
/// full set; the trace/config/tsdb input paths ban fresh unwraps outright;
/// the fault-plan builder and the bench harness/writers (the files whose
/// failures reach users as truncated CSVs or dead worker threads) ban
/// panics on their non-test paths.
pub fn determinism_config() -> Vec<CrateRules> {
    use rules::*;
    vec![
        CrateRules {
            rel_path: "crates/simarch/src",
            rules: &[HASH_ITERATION, WALL_CLOCK, OS_ENTROPY],
        },
        CrateRules {
            rel_path: "crates/core/src",
            rules: &[HASH_ITERATION, WALL_CLOCK, OS_ENTROPY],
        },
        CrateRules {
            rel_path: "crates/tsdb/src",
            rules: &[HASH_ITERATION, WALL_CLOCK, OS_ENTROPY, UNWRAP_IN_IO],
        },
        // The figure binaries share artefacts with the model runs; a clock
        // or entropy read there would silently vary regenerated CSVs.
        CrateRules {
            rel_path: "crates/bench/src",
            rules: &[WALL_CLOCK, OS_ENTROPY],
        },
        // The observability layer itself: every clock read must route
        // through the clock.rs choke point (see `run_obs_choke_point`).
        CrateRules {
            rel_path: "crates/obs/src",
            rules: &[HASH_ITERATION, WALL_CLOCK, OS_ENTROPY],
        },
        // The fleet daemon: fixed seed → identical counter streams for
        // any shard count, so no ambient clocks, entropy, or hash-order
        // iteration anywhere on the daemon surface (FLEET.md).
        CrateRules {
            rel_path: "crates/fleetd/src",
            rules: &[HASH_ITERATION, WALL_CLOCK, OS_ENTROPY],
        },
        // Input-facing modules: malformed traces/configs must surface as
        // Result errors, not panics.
        CrateRules {
            rel_path: "crates/simarch/src/trace.rs",
            rules: &[UNWRAP_IN_IO],
        },
        CrateRules {
            rel_path: "crates/simarch/src/config.rs",
            rules: &[UNWRAP_IN_IO],
        },
        // Fault-plan window validation: an invalid window is caller input
        // and must come back as a Result, not a panic mid-run (FAULTS.md).
        CrateRules {
            rel_path: "crates/simarch/src/faults.rs",
            rules: &[UNWRAP_IN_IO],
        },
        // The bench harness and its CSV/JSON writers: a panic here kills a
        // whole figure regeneration and leaves truncated artefacts.
        CrateRules {
            rel_path: "crates/bench/src/lib.rs",
            rules: &[UNWRAP_IN_IO],
        },
        CrateRules {
            rel_path: "crates/bench/src/scenario.rs",
            rules: &[UNWRAP_IN_IO],
        },
    ]
}

/// Crates whose PMU-event references are cross-checked against the registry.
pub const PMU_SCAN_ROOTS: &[&str] = &["crates/core/src", "crates/bench/src", "crates/tiering/src"];

/// Directory whose modules must register conservation-invariant hooks.
pub const INVARIANT_SCAN_ROOT: &str = "crates/simarch/src";

// ---------------------------------------------------------------------
// Source scanning plumbing
// ---------------------------------------------------------------------

/// Recursively collect `.rs` files under `root`, skipping directories whose
/// name is in `skip` at any depth.
fn rust_files_excluding(root: &Path, skip: &[&str]) -> Vec<PathBuf> {
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

/// Every workspace source file subject to the whole-tree rules
/// (`hot-path-alloc`, `concurrency-hygiene`): all crates plus the
/// integration tests and examples, excluding vendored code and pflint
/// itself (whose needle tables and fixture trees would self-trip).
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = rust_files_excluding(&root.join("crates"), &["target", "vendor", "pflint"]);
    out.extend(rust_files(&root.join("tests")));
    out.extend(rust_files(&root.join("examples")));
    out.sort();
    out
}

// ---------------------------------------------------------------------
// Analysis 1: determinism lint
// ---------------------------------------------------------------------

/// (rule, needle, advice) — a finding fires when `needle` appears
/// (word-bounded) on a masked, non-test line and the rule is enabled for
/// the crate.
const DETERMINISM_PATTERNS: &[(&str, &str, &str)] = &[
    (
        rules::HASH_ITERATION,
        "HashMap",
        "hash iteration order is seed-dependent; use BTreeMap or sort before reporting",
    ),
    (
        rules::HASH_ITERATION,
        "HashSet",
        "hash iteration order is seed-dependent; use BTreeSet or sort before reporting",
    ),
    (
        rules::WALL_CLOCK,
        "Instant::now",
        "wall-clock reads make model output time-dependent",
    ),
    (
        rules::WALL_CLOCK,
        "SystemTime",
        "wall-clock reads make model output time-dependent",
    ),
    (
        rules::WALL_CLOCK,
        "std::time::Instant",
        "wall-clock in model code; gate or suppress",
    ),
    (
        rules::OS_ENTROPY,
        "thread_rng",
        "OS-seeded RNG; use a seeded StdRng instead",
    ),
    (
        rules::OS_ENTROPY,
        "from_entropy",
        "OS-seeded RNG; use seed_from_u64 instead",
    ),
    (
        rules::OS_ENTROPY,
        "OsRng",
        "OS entropy source in model code",
    ),
    (
        rules::UNWRAP_IN_IO,
        ".unwrap()",
        "input-facing module: propagate a Result instead",
    ),
    (
        rules::UNWRAP_IN_IO,
        ".expect(",
        "input-facing module: propagate a Result instead",
    ),
    (
        rules::UNWRAP_IN_IO,
        "panic!",
        "input-facing module: return an error instead of panicking",
    ),
];

/// Run the determinism lint over one workspace with the given per-crate
/// configuration. `root` is the workspace root.
pub fn run_determinism_with(root: &Path, config: &[CrateRules]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for target in config {
        let base = root.join(target.rel_path);
        for file in rust_files(&base) {
            let Ok(src) = SourceFile::load(&file) else {
                continue;
            };
            for (idx, line) in src.lines.iter().enumerate() {
                if src.is_test_line(idx) {
                    continue;
                }
                for &(rule, needle, advice) in DETERMINISM_PATTERNS {
                    if !target.rules.contains(&rule) || !contains_word(line, needle, false) {
                        continue;
                    }
                    if src.is_suppressed(idx, rule) {
                        continue;
                    }
                    findings.push(Finding {
                        rule,
                        file: file.clone(),
                        line: idx + 1,
                        message: format!("`{needle}`: {advice}"),
                    });
                }
            }
        }
    }
    findings
}

/// Determinism lint with the default workspace configuration.
pub fn run_determinism(root: &Path) -> Vec<Finding> {
    run_determinism_with(root, &determinism_config())
}

// ---------------------------------------------------------------------
// Analysis 2: PMU-counter consistency
// ---------------------------------------------------------------------

/// Ground truth: valid variant identifiers per typed event enum, recovered
/// from the live `pmu` crate (Debug names of `all()`), so the lint can
/// never drift from the registry.
fn enum_variants() -> Vec<(&'static str, BTreeSet<String>)> {
    use pmu::{ChaEvent, CoreEvent, CxlEvent, ImcEvent, M2pEvent};
    fn names<E: fmt::Debug>(all: Vec<E>) -> BTreeSet<String> {
        all.iter()
            .map(|e| {
                let dbg = format!("{e:?}");
                dbg.split(['(', ' ']).next().unwrap_or_default().to_string()
            })
            .collect()
    }
    vec![
        ("CoreEvent", names(CoreEvent::all())),
        ("ChaEvent", names(ChaEvent::all())),
        ("ImcEvent", names(ImcEvent::all())),
        ("M2pEvent", names(M2pEvent::all())),
        ("CxlEvent", names(CxlEvent::all())),
    ]
}

/// Extract `SomeEvent::Variant` references from a masked code line.
fn variant_refs(code: &str) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    for enum_name in ["CoreEvent", "ChaEvent", "ImcEvent", "M2pEvent", "CxlEvent"] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(enum_name) {
            let at = from + pos;
            from = at + enum_name.len();
            // Must be a whole identifier followed by `::`.
            if at > 0 {
                let prev = code.as_bytes()[at - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            let rest = &code[from..];
            let Some(tail) = rest.strip_prefix("::") else {
                continue;
            };
            let variant: String = tail
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if variant.is_empty() || !variant.chars().next().unwrap().is_ascii_uppercase() {
                continue; // associated fns like `CoreEvent::all()` are fine
            }
            out.push((enum_name.to_string(), variant, at));
        }
    }
    out
}

/// Could this string literal plausibly be a perf-style counter name? Only
/// candidates whose prefix matches a known counter family are considered,
/// so app names like `"519.lbm_r"` never false-positive.
fn plausible_event_name(lit: &str) -> bool {
    !lit.is_empty()
        && lit
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        && !pmu::registry::describe(lit).is_empty()
}

/// Cross-check every PMU-event reference in the configured crates against
/// the registry. Typed variants must exist in their enum (which pins the
/// bank); string names must resolve to a registry entry carrying a unit
/// and a description. String literals come from the lexer, so a counter
/// name mentioned in a comment is not a reference.
pub fn run_pmu_consistency(root: &Path) -> Vec<Finding> {
    let variants = enum_variants();
    let registry: BTreeSet<String> = pmu::registry::all_events()
        .into_iter()
        .map(|e| e.name)
        .collect();
    let mut findings = Vec::new();
    for rel in PMU_SCAN_ROOTS {
        for file in rust_files(&root.join(rel)) {
            let Ok(src) = SourceFile::load(&file) else {
                continue;
            };
            for (idx, line) in src.lines.iter().enumerate() {
                for (enum_name, variant, _) in variant_refs(line) {
                    let known = variants
                        .iter()
                        .find(|(n, _)| *n == enum_name)
                        .is_some_and(|(_, set)| set.contains(&variant));
                    if known || src.is_suppressed(idx, rules::PMU_VARIANT_UNKNOWN) {
                        continue;
                    }
                    findings.push(Finding {
                        rule: rules::PMU_VARIANT_UNKNOWN,
                        file: file.clone(),
                        line: idx + 1,
                        message: format!(
                            "`{enum_name}::{variant}` is not a registered {enum_name} counter"
                        ),
                    });
                }
            }
            for (idx, lit) in src.string_literals() {
                if !plausible_event_name(lit)
                    || registry.contains(lit)
                    || src.is_suppressed(*idx, rules::PMU_EVENT_UNKNOWN)
                {
                    continue;
                }
                findings.push(Finding {
                    rule: rules::PMU_EVENT_UNKNOWN,
                    file: file.clone(),
                    line: idx + 1,
                    message: format!(
                        "\"{lit}\" looks like a counter name but is not in pmu::registry"
                    ),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Analysis 3: conservation-invariant hook verification
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
// Analysis 4: module counter registration
// ---------------------------------------------------------------------

/// Directory whose `SimModule` implementations are audited.
pub const MODULE_SCAN_ROOT: &str = "crates/simarch/src";

/// Verify that every `impl SimModule for` under [`MODULE_SCAN_ROOT`] routes
/// its counter list through `crate::module::registered`, which debug-asserts
/// each name against `pmu::registry`. A module returning a hand-written
/// slice would silently drift from the registry the moment a counter is
/// renamed; the `registered` choke point turns that into a test failure.
pub fn run_module_registration(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in rust_files(&root.join(MODULE_SCAN_ROOT)) {
        let Ok(src) = SourceFile::load(&file) else {
            continue;
        };
        let mut first_impl: Option<usize> = None;
        let mut has_registration = false;
        for (idx, line) in src.lines.iter().enumerate() {
            if src.is_test_line(idx) {
                continue;
            }
            if line.contains("registered(") {
                has_registration = true;
            }
            if first_impl.is_none()
                && (line.contains("impl SimModule for")
                    || line.contains("impl crate::module::SimModule for"))
                && !src.is_suppressed(idx, rules::MODULE_COUNTER_REGISTRATION)
            {
                first_impl = Some(idx + 1);
            }
        }
        if let Some(line) = first_impl {
            if !has_registration {
                findings.push(Finding {
                    rule: rules::MODULE_COUNTER_REGISTRATION,
                    file: file.clone(),
                    line,
                    message: "`impl SimModule` must route `counters()` through \
                              `crate::module::registered` so the names stay \
                              pinned to pmu::registry"
                        .to_string(),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Analysis 5: observability choke point
// ---------------------------------------------------------------------

/// The one source directory allowed to read the wall clock.
pub const OBS_SCAN_ROOT: &str = "crates/obs/src";

/// The one file inside it allowed to name `Instant`.
pub const OBS_CLOCK_FILE: &str = "clock.rs";

/// Verify the wall-clock choke point: within `crates/obs/src`, the type
/// `Instant` (and `SystemTime`) may be named only in `clock.rs`, and that
/// file must contain exactly one `Instant::now` call site, carrying a
/// `pflint::allow(wall-clock)` marker. Combined with the determinism lint
/// over the model crates (which bans `Instant` outright), this pins every
/// clock read in the workspace to one audited line.
pub fn run_obs_choke_point(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut now_sites = 0usize;
    let base = root.join(OBS_SCAN_ROOT);
    if !base.is_dir() {
        // No obs crate in this tree (fixture workspaces): nothing to police.
        return findings;
    }
    for file in rust_files(&base) {
        let in_clock = file.file_name().is_some_and(|n| n == OBS_CLOCK_FILE);
        let Ok(src) = SourceFile::load(&file) else {
            continue;
        };
        for (idx, line) in src.lines.iter().enumerate() {
            if src.is_test_line(idx) {
                continue;
            }
            if !contains_word(line, "Instant", false) && !contains_word(line, "SystemTime", false) {
                continue;
            }
            if !in_clock {
                if src.is_suppressed(idx, rules::OBS_CHOKE_POINT) {
                    continue;
                }
                findings.push(Finding {
                    rule: rules::OBS_CHOKE_POINT,
                    file: file.clone(),
                    line: idx + 1,
                    message: format!(
                        "wall-clock type outside the `{OBS_CLOCK_FILE}` choke point; \
                         use obs::clock::now_ns instead"
                    ),
                });
                continue;
            }
            if contains_word(line, "Instant::now", false) {
                now_sites += 1;
                if !src.is_suppressed(idx, rules::WALL_CLOCK) {
                    findings.push(Finding {
                        rule: rules::OBS_CHOKE_POINT,
                        file: file.clone(),
                        line: idx + 1,
                        message: "the choke-point clock read must carry \
                                  `pflint::allow(wall-clock)`"
                            .to_string(),
                    });
                }
            }
        }
    }
    if now_sites != 1 {
        findings.push(Finding {
            rule: rules::OBS_CHOKE_POINT,
            file: root.join(OBS_SCAN_ROOT).join(OBS_CLOCK_FILE),
            line: 1,
            message: format!(
                "expected exactly one `Instant::now` call site in the choke point, found {now_sites}"
            ),
        });
    }
    findings
}

// ---------------------------------------------------------------------
// Analysis 6: fault-plan determinism
// ---------------------------------------------------------------------

/// Directories scanned for fault-plan construction sites. Vendored crates
/// and `pflint` itself (whose needle tables would self-trip) are excluded
/// by listing the roots explicitly.
pub const FAULT_PLAN_SCAN_ROOTS: &[&str] = &[
    "crates/simarch/src",
    "crates/core/src",
    "crates/bench/src",
    "crates/tiering/src",
    "tests",
];

/// A file is subject to the rule when its code mentions one of these.
const FAULT_PLAN_MARKERS: &[&str] = &["FaultPlan", "FaultWindow", "fault_plan"];

/// (needle, advice) — non-determinism sources forbidden wherever fault
/// plans are built or applied.
const FAULT_PLAN_NEEDLES: &[(&str, &str)] = &[
    (
        "thread_rng",
        "fault schedules must be a pure function of an explicit seed (FaultPlan::from_seed)",
    ),
    (
        "from_entropy",
        "fault schedules must be a pure function of an explicit seed (use seed_from_u64)",
    ),
    ("OsRng", "OS entropy has no place in a fault schedule"),
    (
        "rand::random",
        "implicitly OS-seeded; derive fault windows from an explicit seed",
    ),
    (
        "Instant::now",
        "fault windows are epoch-indexed; the wall clock must not shape them",
    ),
    (
        "SystemTime",
        "fault windows are epoch-indexed; the wall clock must not shape them",
    ),
];

/// Verify fault-plan determinism: every file under
/// [`FAULT_PLAN_SCAN_ROOTS`] whose code names a `FaultPlan`/`FaultWindow`
/// must be free of OS entropy and wall-clock reads. Unlike the general
/// determinism lint, test lines are **not** exempt — a fault schedule in a
/// test must replay bit-identically too, or the ground truth the anomaly
/// detector is validated against drifts run-to-run.
pub fn run_fault_plan_determinism(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rel in FAULT_PLAN_SCAN_ROOTS {
        for file in rust_files(&root.join(rel)) {
            let Ok(src) = SourceFile::load(&file) else {
                continue;
            };
            let subject = src.lines.iter().any(|l| {
                FAULT_PLAN_MARKERS
                    .iter()
                    .any(|m| contains_word(l, m, false))
            });
            if !subject {
                continue;
            }
            for (idx, line) in src.lines.iter().enumerate() {
                for &(needle, advice) in FAULT_PLAN_NEEDLES {
                    if !contains_word(line, needle, false) {
                        continue;
                    }
                    if src.is_suppressed(idx, rules::FAULT_PLAN_DETERMINISM) {
                        continue;
                    }
                    findings.push(Finding {
                        rule: rules::FAULT_PLAN_DETERMINISM,
                        file: file.clone(),
                        line: idx + 1,
                        message: format!("`{needle}` in a fault-plan file: {advice}"),
                    });
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Analysis 7: hot-path allocations
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
                    if !contains_word(line, needle, false) {
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
// Analysis 8: concurrency hygiene
// ---------------------------------------------------------------------

/// Path prefixes (relative to the workspace root) sanctioned to use
/// concurrency primitives: the scenario fan-out, the observability
/// internals, the counting-allocator test harness, and fleetd's shard
/// module — the one reviewed door behind which all of the collector
/// daemon's threads, channels and the scrape-snapshot mutex live
/// (FLEET.md).
pub const CONCURRENCY_ALLOWLIST: &[&str] = &[
    "crates/bench/src/scenario.rs",
    "crates/fleetd/src/shard.rs",
    "crates/obs/src",
    "crates/tsdb/tests/alloc_free.rs",
];

/// (needle, open_end, advice) — concurrency primitives confined to the
/// allowlist. `open_end` lets `Atomic` match `AtomicU64` etc.
const CONCURRENCY_NEEDLES: &[(&str, bool, &str)] = &[
    (
        "thread::spawn",
        false,
        "thread creation outside the sanctioned fan-out",
    ),
    (
        "thread::scope",
        false,
        "scoped threads outside the sanctioned fan-out",
    ),
    (
        ".spawn(",
        false,
        "thread creation outside the sanctioned fan-out",
    ),
    ("Mutex", true, "locking outside the sanctioned modules"),
    ("RwLock", true, "locking outside the sanctioned modules"),
    (
        "Condvar",
        true,
        "blocking sync outside the sanctioned modules",
    ),
    ("mpsc", true, "channels outside the sanctioned modules"),
    ("Atomic", true, "atomics outside the sanctioned modules"),
    (
        "unsafe",
        false,
        "unsafe code outside the sanctioned modules",
    ),
];

/// Confine threads, locks, atomics, channels, and `unsafe` to
/// [`CONCURRENCY_ALLOWLIST`]. Applies to test code too — shared state in a
/// test hides the same nondeterminism it hides in production. Grow
/// fleet-mode concurrency by extending the allowlist in one reviewed
/// place, not by scattering primitives.
pub fn run_concurrency_hygiene(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in workspace_files(root) {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if CONCURRENCY_ALLOWLIST.iter().any(|p| rel_str.starts_with(p)) {
            continue;
        }
        let Ok(src) = SourceFile::load(&file) else {
            continue;
        };
        for (idx, line) in src.lines.iter().enumerate() {
            for &(needle, open_end, advice) in CONCURRENCY_NEEDLES {
                if !contains_word(line, needle, open_end) {
                    continue;
                }
                if src.is_suppressed(idx, rules::CONCURRENCY_HYGIENE) {
                    continue;
                }
                findings.push(Finding {
                    rule: rules::CONCURRENCY_HYGIENE,
                    file: file.clone(),
                    line: idx + 1,
                    message: format!(
                        "`{needle}`: {advice} (see CONCURRENCY_ALLOWLIST in STATIC_ANALYSIS.md)"
                    ),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Analysis 9: panic freedom
// ---------------------------------------------------------------------

/// Service-facing roots that must stay panic-free: the observability
/// layer and the fleetd daemon surface (ROADMAP item 2) — both stay
/// resident in long-running collector processes, where a panic path is an
/// outage, not a stack trace.
pub const PANIC_FREEDOM_ROOTS: &[&str] = &["crates/fleetd/src", "crates/obs/src"];

/// (needle, advice) — explicit panic paths. `debug_assert!` is fine (it
/// compiles out of release daemons); word boundaries keep it unmatched.
const PANIC_FREEDOM_NEEDLES: &[(&str, &str)] = &[
    (
        ".unwrap()",
        "daemon-path code must not panic; match or propagate the error",
    ),
    (
        ".expect(",
        "daemon-path code must not panic; match or propagate the error",
    ),
    ("panic!", "daemon-path code must not panic; return an error"),
    (
        "unreachable!",
        "daemon-path code must not panic; return an error",
    ),
    ("todo!", "unfinished daemon-path code must not ship"),
    (
        "unimplemented!",
        "unfinished daemon-path code must not ship",
    ),
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
/// lines: no `unwrap`/`expect`, no panic-family macros, no `expr[...]`
/// indexing (use `.get()`), and no `/`/`%` by a non-literal divisor.
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
                    if !contains_word(line, needle, false) {
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
// Entry point, filtering, JSON, and baseline
// ---------------------------------------------------------------------

/// Run all analyses with the default configuration.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut findings = run_determinism(root);
    findings.extend(run_pmu_consistency(root));
    findings.extend(run_invariant_hooks(root));
    findings.extend(run_module_registration(root));
    findings.extend(run_obs_choke_point(root));
    findings.extend(run_fault_plan_determinism(root));
    findings.extend(run_hot_path_alloc(root));
    findings.extend(run_concurrency_hygiene(root));
    findings.extend(run_panic_freedom(root));
    sort_findings(root, &mut findings);
    findings
}

/// Run all analyses, keeping only findings whose rule is in `only` (an
/// empty filter keeps everything).
pub fn run_filtered(root: &Path, only: &[String]) -> Vec<Finding> {
    let mut findings = run(root);
    if !only.is_empty() {
        findings.retain(|f| only.iter().any(|r| r == f.rule));
    }
    findings
}

/// Canonical order: by root-relative path, then line, rule, message.
pub fn sort_findings(root: &Path, findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (rel_str(root, &a.file), a.line, a.rule, &a.message).cmp(&(
            rel_str(root, &b.file),
            b.line,
            b.rule,
            &b.message,
        ))
    });
}

/// Root-relative, forward-slash path for stable machine-readable output.
pub fn rel_str(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Render findings as the documented `pflint-findings-v1` JSON schema:
/// one finding object per line, sorted canonically, so the committed
/// baseline diffs cleanly under `git diff`.
pub fn render_json(root: &Path, findings: &[Finding]) -> String {
    let mut sorted = findings.to_vec();
    sort_findings(root, &mut sorted);
    let mut out = String::from("{\n  \"pflint\": \"v1\",\n  \"findings\": [\n");
    for (i, f) in sorted.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            obs::json::escape(f.rule),
            obs::json::escape(&rel_str(root, &f.file)),
            f.line,
            obs::json::escape(&f.message),
            if i + 1 < sorted.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A finding's identity for baseline matching: `(rule, file, message)` —
/// deliberately excluding the line number, so unrelated edits that shift
/// a suppressed legacy finding up or down do not churn the baseline.
pub type BaselineKey = (String, String, String);

/// Parse a `--write-baseline` artefact back into its match keys.
pub fn parse_baseline(text: &str) -> Result<BTreeSet<BaselineKey>, String> {
    let v = obs::json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e:?}"))?;
    if v.get("pflint").and_then(|x| x.as_str()) != Some("v1") {
        return Err("baseline missing `\"pflint\": \"v1\"` marker".to_string());
    }
    let arr = v
        .get("findings")
        .and_then(|x| x.as_arr())
        .ok_or_else(|| "baseline missing `findings` array".to_string())?;
    let mut keys = BTreeSet::new();
    for item in arr {
        let (Some(rule), Some(file), Some(message)) = (
            item.get("rule").and_then(|x| x.as_str()),
            item.get("file").and_then(|x| x.as_str()),
            item.get("message").and_then(|x| x.as_str()),
        ) else {
            return Err("baseline finding missing rule/file/message".to_string());
        };
        keys.insert((rule.to_string(), file.to_string(), message.to_string()));
    }
    Ok(keys)
}

/// Findings not covered by the baseline — the CI gate fails on these.
pub fn new_vs_baseline(
    root: &Path,
    findings: &[Finding],
    baseline: &BTreeSet<BaselineKey>,
) -> Vec<Finding> {
    findings
        .iter()
        .filter(|f| {
            !baseline.contains(&(
                f.rule.to_string(),
                rel_str(root, &f.file),
                f.message.clone(),
            ))
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_refs_parses_qualified_paths() {
        let refs = variant_refs("bank.inc(ImcEvent::RpqInserts); x(pmu::CoreEvent::InstRetired)");
        assert!(refs
            .iter()
            .any(|(e, v, _)| e == "ImcEvent" && v == "RpqInserts"));
        assert!(refs
            .iter()
            .any(|(e, v, _)| e == "CoreEvent" && v == "InstRetired"));
    }

    #[test]
    fn variant_refs_skips_associated_fns() {
        assert!(variant_refs("for e in CoreEvent::all() {}").is_empty());
    }

    #[test]
    fn event_literals_require_known_family() {
        assert!(plausible_event_name("unc_m_rpq_inserts"));
        assert!(!plausible_event_name("519.lbm_r"));
        assert!(!plausible_event_name("hello world"));
    }

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

    fn obs_fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
        let prefixed: Vec<(String, &str)> = files
            .iter()
            .map(|(f, t)| (format!("crates/obs/src/{f}"), *t))
            .collect();
        let borrowed: Vec<(&str, &str)> = prefixed.iter().map(|(f, t)| (f.as_str(), *t)).collect();
        fixture(name, &borrowed)
    }

    #[test]
    fn choke_point_accepts_the_sanctioned_shape() {
        let root = obs_fixture(
            "ok",
            &[(
                "clock.rs",
                "use std::time::Instant; // pflint::allow(wall-clock)\n\
                 pub fn now() -> u64 { Instant::now().elapsed().as_nanos() as u64 } // pflint::allow(wall-clock)\n",
            )],
        );
        assert!(run_obs_choke_point(&root).is_empty());
    }

    #[test]
    fn choke_point_rejects_instant_outside_clock_rs() {
        let root = obs_fixture(
            "stray",
            &[
                (
                    "clock.rs",
                    "pub fn now() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 } // pflint::allow(wall-clock)\n",
                ),
                ("span.rs", "fn ts() { let _ = std::time::Instant::now(); }\n"),
            ],
        );
        let findings = run_obs_choke_point(&root);
        assert!(findings
            .iter()
            .any(|f| f.rule == rules::OBS_CHOKE_POINT && f.file.ends_with("span.rs")));
    }

    #[test]
    fn choke_point_requires_exactly_one_clock_read() {
        let root = obs_fixture(
            "dup",
            &[(
                "clock.rs",
                "fn a() { let _ = Instant::now(); } // pflint::allow(wall-clock)\n\
                 fn b() { let _ = Instant::now(); } // pflint::allow(wall-clock)\n",
            )],
        );
        let findings = run_obs_choke_point(&root);
        assert!(
            findings.iter().any(|f| f.message.contains("found 2")),
            "{findings:?}"
        );

        let none = obs_fixture("none", &[("clock.rs", "pub fn now() -> u64 { 0 }\n")]);
        let findings = run_obs_choke_point(&none);
        assert!(findings.iter().any(|f| f.message.contains("found 0")));
    }

    #[test]
    fn choke_point_requires_the_allow_marker() {
        let root = obs_fixture(
            "unmarked",
            &[(
                "clock.rs",
                "pub fn now() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            )],
        );
        let findings = run_obs_choke_point(&root);
        assert!(findings
            .iter()
            .any(|f| f.message.contains("pflint::allow(wall-clock)")));
    }

    #[test]
    fn choke_point_ignores_instant_in_comments_and_strings() {
        let root = obs_fixture(
            "masked",
            &[
                (
                    "clock.rs",
                    "pub fn now() -> u64 { Instant::now().elapsed().as_nanos() as u64 } // pflint::allow(wall-clock)\n",
                ),
                (
                    "span.rs",
                    "// Instant::now would be wrong here.\n\
                     /* SystemTime too */\n\
                     fn label() -> &'static str { \"Instant::now\" }\n",
                ),
            ],
        );
        assert!(run_obs_choke_point(&root).is_empty());
    }

    #[test]
    fn fault_plan_entropy_is_flagged() {
        let root = fixture(
            "fault-entropy",
            &[(
                "crates/simarch/src/faults.rs",
                "fn plan() { let p = FaultPlan::new(); let r = rand::thread_rng(); }\n",
            )],
        );
        let findings = run_fault_plan_determinism(&root);
        assert!(
            findings.iter().any(
                |f| f.rule == rules::FAULT_PLAN_DETERMINISM && f.message.contains("thread_rng")
            ),
            "{findings:?}"
        );
    }

    #[test]
    fn fault_plan_rule_covers_test_lines() {
        let root = fixture(
            "fault-testmod",
            &[(
                "tests/fault_prop.rs",
                "#[cfg(test)]\nmod t { fn f() { let _ = FaultPlan::new(); let _ = rand::random::<u64>(); } }\n",
            )],
        );
        assert!(
            !run_fault_plan_determinism(&root).is_empty(),
            "test code gets no exemption from fault-plan determinism"
        );
    }

    #[test]
    fn seeded_fault_plans_are_clean() {
        let root = fixture(
            "fault-seeded",
            &[(
                "crates/simarch/src/faults.rs",
                "fn plan(seed: u64) { let p = FaultPlan::from_seed(seed, 4, &cfg, 100); }\n",
            )],
        );
        assert!(run_fault_plan_determinism(&root).is_empty());
    }

    #[test]
    fn files_without_fault_plans_are_out_of_scope() {
        let root = fixture(
            "fault-unrelated",
            &[(
                "crates/simarch/src/other.rs",
                "fn f() { let r = rand::thread_rng(); } // a different lint's problem\n",
            )],
        );
        assert!(run_fault_plan_determinism(&root).is_empty());
    }

    #[test]
    fn fault_plan_marker_in_comment_is_not_a_subject() {
        // The old engine stripped only `//` comments; a marker in a block
        // comment or string made the file subject to the rule.
        let root = fixture(
            "fault-masked",
            &[(
                "crates/simarch/src/other.rs",
                "/* FaultPlan is documented here */\n\
                 fn f() -> &'static str { let _ = rand::thread_rng(); \"FaultWindow\" }\n",
            )],
        );
        assert!(run_fault_plan_determinism(&root).is_empty());
    }

    #[test]
    fn fault_plan_suppression_marker_works() {
        let root = fixture(
            "fault-allow",
            &[(
                "crates/bench/src/lib.rs",
                "fn f() { let p = FaultPlan::new(); \
                 let t = SystemTime::now(); // pflint::allow(fault-plan-determinism)\n}\n",
            )],
        );
        assert!(run_fault_plan_determinism(&root).is_empty());
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
    fn concurrency_confined_to_allowlist() {
        let root = fixture(
            "conc",
            &[
                (
                    "crates/x/src/lib.rs",
                    "use std::sync::Mutex;\nfn f() { let _ = std::thread::spawn(|| {}); }\n",
                ),
                (
                    "crates/obs/src/span.rs",
                    "use std::sync::atomic::AtomicU64;\n",
                ),
                (
                    "crates/bench/src/scenario.rs",
                    "fn f() { std::thread::scope(|_| {}); }\n",
                ),
            ],
        );
        let findings = run_concurrency_hygiene(&root);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.file.ends_with("lib.rs")));
    }

    #[test]
    fn panic_freedom_flags_all_panic_surfaces() {
        let root = obs_fixture(
            "panic",
            &[
                (
                    "clock.rs",
                    "pub fn now() -> u64 { Instant::now().elapsed().as_nanos() as u64 } // pflint::allow(wall-clock)\n",
                ),
                (
                    "daemon.rs",
                    "fn f(xs: &[u64], n: u64) -> u64 {\n\
                     let a = xs.first().unwrap();\n\
                     let b = xs[0];\n\
                     let c = a / n;\n\
                     debug_assert!(n > 0);\n\
                     *a + b + c\n\
                     }\n",
                ),
            ],
        );
        let findings = run_panic_freedom(&root);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert!(lines.contains(&2), "unwrap: {findings:?}");
        assert!(lines.contains(&3), "indexing: {findings:?}");
        assert!(lines.contains(&4), "division: {findings:?}");
        assert_eq!(
            findings.len(),
            3,
            "debug_assert must not fire: {findings:?}"
        );
    }

    #[test]
    fn json_round_trips_through_baseline() {
        let root = PathBuf::from("/ws");
        let findings = vec![
            Finding {
                rule: rules::WALL_CLOCK,
                file: root.join("crates/x/src/lib.rs"),
                line: 3,
                message: "`Instant::now`: say \"no\"".to_string(),
            },
            Finding {
                rule: rules::PANIC_FREEDOM,
                file: root.join("crates/obs/src/span.rs"),
                line: 9,
                message: "indexing".to_string(),
            },
        ];
        let json = render_json(&root, &findings);
        let keys = parse_baseline(&json).unwrap();
        assert_eq!(keys.len(), 2);
        assert!(new_vs_baseline(&root, &findings, &keys).is_empty());

        let extra = Finding {
            rule: rules::OS_ENTROPY,
            file: root.join("crates/x/src/lib.rs"),
            line: 1,
            message: "`OsRng`: nope".to_string(),
        };
        let mut more = findings.clone();
        more.push(extra.clone());
        let fresh = new_vs_baseline(&root, &more, &keys);
        assert_eq!(fresh, vec![extra]);
    }

    #[test]
    fn empty_baseline_parses() {
        let keys = parse_baseline("{\n  \"pflint\": \"v1\",\n  \"findings\": [\n  ]\n}\n").unwrap();
        assert!(keys.is_empty());
    }
}
