//! Bad and allowed shapes for the rules that rustc and clippy own.
//! `crates/core/tests/clippy_rules.rs` pins every bad line as
//! `(lint, file, line)`; nothing in `allowed.rs` may be reported.

pub mod allowed;
pub mod concurrency;
pub mod determinism;
pub mod panics;
pub mod stale;
