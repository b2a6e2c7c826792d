//! Each sanctioned use sits under its own item-level `#[expect]`, and the
//! deterministic replacements need none.
use std::collections::{BTreeMap, BTreeSet};

pub fn distinct(keys: &[u64]) -> usize {
    let seen: BTreeSet<u64> = keys.iter().copied().collect();
    let counts: BTreeMap<u64, u64> = BTreeMap::new();
    seen.len() + counts.len()
}

/// The one sanctioned clock read, as in `obs::clock::now_ns`.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the one sanctioned wall-clock read"
)]
pub fn now_ns() -> u64 {
    static ORIGIN: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let origin = ORIGIN.get_or_init(std::time::Instant::now);
    origin.elapsed().as_nanos() as u64
}

/// A sanctioned fan-out, as in `bench::scenario::map_scenarios`.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "scoped workers summing into an atomic"
)]
pub fn sum_squares(items: &[u64]) -> u64 {
    let total = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            for x in items {
                total.fetch_add(x * x, std::sync::atomic::Ordering::Relaxed);
            }
        });
    });
    total.into_inner()
}

/// A sanctioned lock, as around obs's recorder.
#[expect(clippy::disallowed_types, reason = "a process-wide registry")]
static REGISTRY: std::sync::Mutex<u64> = std::sync::Mutex::new(0);

pub fn registered() -> u64 {
    REGISTRY.lock().map_or(0, |g| *g)
}

/// A sanctioned `unsafe`, as in fleetd's signal handlers.
#[expect(unsafe_code, reason = "a raw read the slice API cannot express")]
pub fn first(bytes: &[u8]) -> u8 {
    if bytes.is_empty() {
        return 0;
    }
    // SAFETY: `bytes` is non-empty, so its pointer is valid for one read.
    unsafe { *bytes.as_ptr() }
}

#[cfg(test)]
mod tests {
    #[test]
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "a timed test"
    )]
    fn timed() {
        assert!(std::time::Instant::now().elapsed().as_secs() < 60);
    }
}
