//! Order statistics, pooled latency histograms, and the simulation digest.

use pmu::SystemDelta;

/// Quantile `q` (0..=1) of an ascending slice, interpolating linearly
/// between neighbouring samples. `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the quartiles and the sample count, as every timing is
/// reported.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        median: quantile(&s, 0.5),
        p25: quantile(&s, 0.25),
        p75: quantile(&s, 0.75),
        n: s.len(),
    }
}

/// Values below `2^SUB_BITS` get a bucket each; above, every power of two
/// splits into `2^(SUB_BITS - 1)` buckets, none wider than 0.8 %.
const SUB_BITS: u32 = 8;
const HALF: usize = 1 << (SUB_BITS - 1);
const BUCKETS: usize = (1 << SUB_BITS) + (u64::BITS - SUB_BITS) as usize * HALF;

/// Latency samples (ns) pooled over all of a run's repetitions, so that
/// tail percentiles rest on every sample the run took. A log-linear
/// histogram: its memory is fixed however many repetitions a run fits, so
/// `peak_rss_mb` does not grow with the host's speed.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    let bits = u64::BITS - v.leading_zeros();
    if bits <= SUB_BITS {
        return v as usize;
    }
    let shift = bits - SUB_BITS;
    (1 << SUB_BITS) + (shift as usize - 1) * HALF + ((v >> shift) as usize - HALF)
}

/// `[low, high)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < 1 << SUB_BITS {
        return (i as f64, i as f64 + 1.0);
    }
    let j = i - (1 << SUB_BITS);
    let shift = j / HALF + 1;
    let low = ((j % HALF + HALF) as u64) << shift;
    (low as f64, low as f64 + (1u64 << shift) as f64)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.n += 1;
        self.sum += u128::from(ns);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The exact mean of the samples. `NaN` when empty.
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.n as f64
    }

    /// Quantile `q` at the same rank [`quantile`] uses, placed inside its
    /// bucket as if the bucket's samples were spread evenly. `NaN` when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (seen + c) as f64 {
                let (low, high) = bounds(i);
                if high - low <= 1.0 {
                    return low;
                }
                return low + (high - low) * (rank - seen as f64 + 0.5) / c as f64;
            }
            seen += c;
        }
        bounds(BUCKETS - 1).0
    }
}

/// FNV-1a over 64-bit words: the digest of a simulated counter stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0100_0000_01b3);
    }

    /// Fold one epoch's counter deltas, every bank in topology order.
    pub fn delta(&mut self, d: &SystemDelta) {
        self.word(d.start_cycle);
        self.word(d.end_cycle);
        let p = &d.pmu;
        let banks = p.cores.iter().map(|b| b.raw());
        let banks = banks.chain(p.chas.iter().map(|b| b.raw()));
        let banks = banks.chain(p.imcs.iter().map(|b| b.raw()));
        let banks = banks.chain(p.m2ps.iter().map(|b| b.raw()));
        let banks = banks.chain(p.cxls.iter().map(|b| b.raw()));
        let banks = banks.chain(p.switches.iter().map(|b| b.raw()));
        for bank in banks.chain(p.pools.iter().map(|b| b.raw())) {
            for &w in bank {
                self.word(w);
            }
        }
    }

    /// The digest as a JSON-safe number: its top 52 bits, which an `f64`
    /// holds exactly.
    pub fn as_metric(self) -> f64 {
        (self.0 >> 12) as f64
    }
}

/// SplitMix64 step: derives every trace seed from the `--seed` argument.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn buckets_tile_the_range() {
        for v in [
            0,
            1,
            255,
            256,
            257,
            511,
            512,
            7_123,
            1 << 40,
            (1 << 62) + 12_345,
        ] {
            let (low, high) = bounds(bucket(v));
            let v = v as f64;
            assert!(low <= v && v < high, "{v} outside [{low}, {high})");
            assert!(high - low <= 1.0 || (high - low) / low <= 1.0 / HALF as f64);
        }
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn hist_quantiles_track_the_samples() {
        let mut h = Hist::default();
        assert!(h.quantile(0.5).is_nan());
        let samples: Vec<f64> = (1..=10_000u64).map(|i| (i * 997) as f64).collect();
        for &s in &samples {
            h.record(s as u64);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.mean(), 997.0 * 5_000.5);
        for q in [0.25, 0.5, 0.95, 0.99] {
            let exact = quantile(&samples, q);
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q {q}: {got} vs {exact}"
            );
        }
        let mut one = Hist::default();
        assert!(one.mean().is_nan());
        one.record(42);
        assert_eq!(one.quantile(0.99), 42.0);
    }
}
