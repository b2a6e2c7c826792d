//! Hash order and the wall clock.
use std::collections::HashMap;

pub fn distinct(keys: &[u64]) -> usize {
    let seen: std::collections::HashSet<u64> = keys.iter().copied().collect();
    let counts: HashMap<u64, u64> = HashMap::new();
    seen.len() + counts.len()
}

pub fn hasher() -> std::hash::RandomState {
    std::hash::RandomState::new()
}

pub fn elapsed_ns() -> u128 {
    let t0 = std::time::Instant::now();
    t0.elapsed().as_nanos()
}

pub fn since_epoch_s() -> u64 {
    let now = std::time::SystemTime::now();
    now.duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Naming the type is banned too, read or no read.
pub fn since(t0: std::time::Instant) -> u128 {
    t0.elapsed().as_nanos()
}

/// An `#[expect]` silences only the lints it names.
#[expect(clippy::disallowed_methods, reason = "names the method ban only")]
pub fn half_marked_ns() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}

/// Instant::now in a doc comment is not a read.
pub fn clock_name() -> &'static str {
    /* nor is SystemTime::now() in a block comment */
    "std::time::Instant::now"
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_gets_no_exemption() {
        let t0 = std::time::Instant::now();
        assert!(t0.elapsed().as_secs() < 60);
    }
}
