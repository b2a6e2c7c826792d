//! Exemptions that outlived the code they excused.

#[expect(clippy::disallowed_types, reason = "the HashMap moved to a BTreeMap")]
pub fn sorted(keys: &[u64]) -> std::collections::BTreeMap<u64, u64> {
    keys.iter().map(|k| (*k, 0)).collect()
}

#[expect(unsafe_code, reason = "the raw read became a slice access")]
pub fn first(bytes: &[u8]) -> u8 {
    bytes.first().copied().unwrap_or(0)
}

/// A clock choke point that no longer reads the clock.
#[expect(clippy::disallowed_methods, reason = "the clock read moved to now_ns")]
pub fn stamp() -> u64 {
    0
}

/// An `#[allow]` would outlive its use unreported, so it is denied.
#[allow(clippy::disallowed_types)]
pub type Keyed = std::collections::HashMap<u64, u64>;
