//! pflint CLI: run the workspace static-analysis pass and report findings.
//!
//! ```text
//! cargo run -p pflint [-- ROOT]
//! ```
//!
//! With no ROOT the workspace root is derived from the crate's own manifest
//! directory, so the binary works from any cwd inside the repo. Findings
//! print as `file:line: [rule] message`; the exit status is 0 when clean,
//! 1 on findings, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let root = match (args.next(), args.next()) {
        (None, _) => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
        (Some(root), None) if !root.starts_with('-') => PathBuf::from(root),
        _ => {
            eprintln!("usage: pflint [ROOT]");
            return ExitCode::from(2);
        }
    };
    let root = root.canonicalize().unwrap_or(root);
    if !root.join("Cargo.toml").exists() {
        eprintln!(
            "pflint: {} does not look like a workspace root",
            root.display()
        );
        return ExitCode::from(2);
    }

    let findings = pflint::run(&root);
    for f in &findings {
        println!(
            "{}:{}: [{}] {}",
            pflint::rel_str(&root, &f.file),
            f.line,
            f.rule,
            f.message
        );
    }
    if findings.is_empty() {
        println!(
            "pflint: clean — invariant hooks, hot-path allocations, and panic \
             freedom all pass"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("pflint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
