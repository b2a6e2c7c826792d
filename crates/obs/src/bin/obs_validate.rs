//! Validate observability artefacts. Two modes, both used by
//! `scripts/tier1.sh` to gate the observability contract:
//!
//! * `obs_validate <timings.json> [required-phase ...]` — parse a
//!   `--timings-json` artefact and require the given phases;
//! * `obs_validate --prom <metrics.txt> [required-family ...]` — validate
//!   Prometheus text exposition (TYPE lines present, names in the
//!   `subsystem.phase` → `pathfinder_subsystem_phase` mangled form, no
//!   duplicate samples) and require the given metric families.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::integer_division_remainder_used,
        clippy::disallowed_macros
    )
)]

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: obs_validate <timings.json> [required-phase ...]");
    eprintln!("       obs_validate --prom <metrics.txt> [required-family ...]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let Some(first) = it.next() else {
        return usage();
    };
    let prom = first == "--prom";
    let path = if prom {
        match it.next() {
            Some(p) => p,
            None => return usage(),
        }
    } else {
        first
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_validate: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let required: Vec<&str> = it.map(String::as_str).collect();
    if prom {
        return match obs::prom::validate(&text, &required) {
            Ok(stats) => {
                println!(
                    "obs_validate: {path} ok — {} families, {} samples{}",
                    stats.families,
                    stats.samples,
                    if required.is_empty() {
                        String::new()
                    } else {
                        format!(", required {required:?} present")
                    }
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("obs_validate: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match obs::export::validate_timings(&text, &required) {
        Ok(names) => {
            println!(
                "obs_validate: {path} ok — {} phases{}",
                names.len(),
                if required.is_empty() {
                    String::new()
                } else {
                    format!(", required {required:?} present")
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_validate: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
