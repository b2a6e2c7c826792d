//! The workspace's single wall-clock choke point.
//!
//! The root `clippy.toml` disallows `Instant`, `SystemTime` and their
//! `now` in every crate; [`now_ns`] is the one item that expects those
//! lints, so every other wall-time read goes through it. Span timestamps
//! are nanoseconds since the process-wide origin, which is pinned on the
//! first read (normally by [`crate::enable`]).

use std::sync::OnceLock;

/// Nanoseconds elapsed since the pinned origin. The first call pins the
/// origin and returns 0.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the workspace's one sanctioned wall-clock read"
)]
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<std::time::Instant> = OnceLock::new();
    let origin = ORIGIN.get_or_init(std::time::Instant::now);
    origin.elapsed().as_nanos() as u64
}

/// Pin the origin (idempotent) and return 0ns. Split out so [`crate::enable`]
/// can pin before the first span opens.
pub fn origin_ns() -> u64 {
    now_ns();
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
