//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms with p50/p95/p99.
//!
//! All updates are no-ops while the layer is disabled ([`crate::enable`]).
//! Names follow the dotted scheme of OBSERVABILITY.md (`tsdb.points`,
//! `overhead.memory_bytes`, `epoch.digest_ns`, ...).

use std::collections::BTreeMap;

/// Number of power-of-two histogram buckets. Bucket `i` holds values whose
/// bit length is `i` (`0` → bucket 0, `[2^(i-1), 2^i)` → bucket `i`);
/// values of 2^63 and above saturate into the last bucket, so it holds
/// `[2^62, 2^64)`.
pub const HIST_BUCKETS: usize = 64;

/// A fixed-bucket log2 histogram over `u64` samples. Histograms merge, so
/// partial ones (fleetd's per-shard roll-ups) fold into one.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        if let Some(slot) = self.counts.get_mut(bucket_of(v)) {
            *slot += 1;
        }
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other`'s samples into this histogram, as if each had been
    /// recorded here.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`q` in `0.0..=1.0`): the upper bound of the bucket
    /// holding the ceil(q·count)-th sample, clamped into `[min, max]` so a
    /// single-sample histogram reports that exact sample. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Upper bound of bucket i: 2^i - 1 (bucket 0 holds only
                // 0), and u64::MAX for the saturating top bucket.
                let upper = match i {
                    0 => 0,
                    i if i >= HIST_BUCKETS - 1 => u64::MAX,
                    i => (1u64 << i) - 1,
                };
                return Some(upper.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Immutable summary used by the exporters.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            mean: self.mean().unwrap_or(0.0),
            p50: self.percentile(0.50).unwrap_or(0),
            p95: self.percentile(0.95).unwrap_or(0),
            p99: self.percentile(0.99).unwrap_or(0),
        }
    }
}

/// One exported histogram summary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSnapshot {
    pub count: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    /// Updates taken so far, whatever their kind.
    updates: u64,
}

#[expect(
    clippy::disallowed_types,
    reason = "the process-wide registry; metrics update from any thread"
)]
static REGISTRY: std::sync::Mutex<Option<Registry>> = std::sync::Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Registry::default))
}

/// Add `delta` to a monotone counter. No-op while disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !crate::is_enabled() {
        return;
    }
    with_registry(|r| {
        r.updates += 1;
        if let Some(v) = r.counters.get_mut(name) {
            *v += delta;
        } else {
            r.counters.insert(name.to_string(), delta);
        }
    });
}

/// Set a gauge to its latest value. No-op while disabled.
pub fn gauge_set(name: &str, value: f64) {
    if !crate::is_enabled() {
        return;
    }
    with_registry(|r| {
        r.updates += 1;
        r.gauges.insert(name.to_string(), value);
    });
}

/// Record one histogram sample. No-op while disabled.
pub fn observe(name: &str, value: u64) {
    if !crate::is_enabled() {
        return;
    }
    with_registry(|r| {
        r.updates += 1;
        if let Some(h) = r.hists.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::default();
            h.record(value);
            r.hists.insert(name.to_string(), h);
        }
    });
}

/// Current counter value (0 if never written).
pub fn counter_value(name: &str) -> u64 {
    with_registry(|r| r.counters.get(name).copied().unwrap_or(0))
}

/// Summary of one histogram, if any samples were recorded.
pub fn histogram_snapshot(name: &str) -> Option<HistSnapshot> {
    with_registry(|r| r.hists.get(name).map(Histogram::snapshot))
}

/// Everything in the registry, name-sorted (BTreeMap order), for export.
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub hists: Vec<(String, HistSnapshot)>,
    /// Counter, gauge and histogram updates taken since the last
    /// [`reset`]: each one is a turn on the registry lock.
    pub updates: u64,
}

pub fn snapshot() -> MetricsSnapshot {
    with_registry(|r| MetricsSnapshot {
        counters: r.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        gauges: r.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        hists: r
            .hists
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect(),
        updates: r.updates,
    })
}

/// Drop every metric.
pub fn reset() {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let mut h = Histogram::default();
        h.record(1234);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), Some(1234));
        }
        assert_eq!(h.mean(), Some(1234.0));
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.50).unwrap();
        let p95 = h.percentile(0.95).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        assert!((1..=1000).contains(&p50));
        // log2 buckets: p50 of 1..=1000 sits in the bucket holding 500.
        assert!((500..=1023).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn empty_hist_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.99).unwrap_or(0), 0);
        assert_eq!(h.snapshot(), HistSnapshot::default());
    }

    #[test]
    fn percentiles_clamp_to_observed_range() {
        let mut h = Histogram::default();
        h.record(1000);
        assert_eq!(
            h.percentile(0.5),
            Some(1000),
            "single sample is every quantile"
        );
        h.record(1000);
        h.record(1000);
        h.record(4000);
        let p50 = h.percentile(0.5).unwrap();
        assert!((1000..=1023).contains(&p50), "p50 {p50} in bucket of 1000");
        assert!(h.percentile(0.99).unwrap() <= 4000);
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in [0u64, 1, 7, 63, 900, 1 << 40] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 5000, u64::MAX] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.percentile(q), all.percentile(q));
        }
        assert_eq!(a.snapshot(), all.snapshot());
        assert_eq!(a.snapshot().max, u64::MAX);
    }

    #[test]
    fn top_bucket_quantile_is_not_below_its_samples() {
        // Bucket 63 holds [2^62, 2^64): its edge is u64::MAX, so a quantile
        // that lands there reads the largest sample, never 2^63 - 1.
        let mut h = Histogram::default();
        h.record(5);
        h.record((1 << 63) + 10);
        assert_eq!(h.percentile(0.99), Some((1 << 63) + 10));
    }

    #[test]
    fn saturated_top_bucket_reports_max() {
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.record(u64::MAX);
        }
        assert_eq!(h.percentile(0.5), Some(u64::MAX));
        assert_eq!(h.percentile(0.99), Some(u64::MAX));
    }
}
