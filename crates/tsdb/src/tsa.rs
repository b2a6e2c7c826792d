//! Time-series analysis: Holt-Winters forecasting, Pearson correlation,
//! and phase-window clustering.
//!
//! These are the §4.6 techniques: `holtWinters()` searches regular
//! (seasonal) patterns that indicate predictable data access; `pearsonr()`
//! cross-correlates mFlows to find locality-impacting neighbours (and in
//! Case 5 gives the 0.998 request-frequency↔bandwidth correlation); the
//! window clustering partitions snapshots into phases of consistent
//! behaviour (Case 6).

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns `None` for length < 2 or zero variance in either sample.
pub fn pearsonr(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Additive Holt-Winters (triple exponential smoothing) model.
#[derive(Clone, Debug)]
pub struct HoltWinters {
    pub alpha: f64,
    pub beta: f64,
    pub gamma: f64,
    /// Season length in samples.
    pub season: usize,
}

impl HoltWinters {
    pub fn new(season: usize) -> Self {
        assert!(season >= 2, "season length must be ≥ 2");
        HoltWinters {
            alpha: 0.5,
            beta: 0.1,
            gamma: 0.3,
            season,
        }
    }

    /// Fit on `data` (needs ≥ 2 full seasons) and forecast `horizon` steps.
    /// Returns `(fitted_one_step_ahead, forecast)`.
    pub fn fit_forecast(&self, data: &[f64], horizon: usize) -> Option<(Vec<f64>, Vec<f64>)> {
        let mut fitted = Vec::with_capacity(data.len());
        let mut seasonal = Vec::with_capacity(self.season);
        let (level, trend) = self.fit(data, &mut seasonal, |predict| fitted.push(predict))?;
        let (n, m) = (data.len(), self.season);
        let forecast = (0..horizon)
            .map(|h| level + (h + 1) as f64 * trend + seasonal[(n + h) % m])
            .collect();
        Some((fitted, forecast))
    }

    /// Smooth `data` (needs ≥ 2 full seasons), handing each one-step-ahead
    /// prediction to `fitted` in time order. Returns the final level and
    /// trend, and leaves the final seasonal terms in `seasonal`.
    fn fit(
        &self,
        data: &[f64],
        seasonal: &mut Vec<f64>,
        mut fitted: impl FnMut(f64),
    ) -> Option<(f64, f64)> {
        let m = self.season;
        if data.len() < 2 * m {
            return None;
        }
        // Initial level/trend from the first two seasons.
        let s1: f64 = data[..m].iter().sum::<f64>() / m as f64;
        let s2: f64 = data[m..2 * m].iter().sum::<f64>() / m as f64;
        let mut level = s1;
        let mut trend = (s2 - s1) / m as f64;
        seasonal.clear();
        seasonal.extend(data[..m].iter().map(|y| y - s1));
        for (t, &y) in data.iter().enumerate() {
            let si = t % m;
            fitted(level + trend + seasonal[si]);
            let last_level = level;
            level = self.alpha * (y - seasonal[si]) + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (level - last_level) + (1.0 - self.beta) * trend;
            seasonal[si] = self.gamma * (y - level) + (1.0 - self.gamma) * seasonal[si];
        }
        Some((level, trend))
    }

    /// Root-mean-square one-step-ahead error of the fit, skipping the first
    /// two warm-up seasons. A small error relative to the signal's stddev
    /// indicates a predictable (seasonal) access pattern. `seasonal` is
    /// working space for the seasonal terms, so a caller that fits often
    /// can reuse one buffer; what it held is overwritten.
    pub fn fit_error(&self, data: &[f64], seasonal: &mut Vec<f64>) -> Option<f64> {
        let skip = 2 * self.season;
        let (mut t, mut se) = (0, 0.0);
        self.fit(data, seasonal, |predict| {
            if t >= skip {
                se += (data[t] - predict) * (data[t] - predict);
            }
            t += 1;
        })?;
        if data.len() <= skip {
            return None;
        }
        Some((se / (data.len() - skip) as f64).sqrt())
    }
}

/// Classical additive decomposition of a series into trend, seasonal and
/// residual components (§4.6: PathFinder "applies classical time series
/// analysis techniques to explore data trend, seasonality, and residual
/// (or anomaly)").
#[derive(Clone, Debug)]
pub struct Decomposition {
    pub trend: Vec<f64>,
    pub seasonal: Vec<f64>,
    pub residual: Vec<f64>,
}

/// Decompose `data` with season length `m` (centred moving-average trend,
/// per-phase mean seasonal, additive residual). Needs ≥ 2 full seasons.
pub fn decompose(data: &[f64], m: usize) -> Option<Decomposition> {
    if m < 2 || data.len() < 2 * m {
        return None;
    }
    let n = data.len();
    // Centred moving average of window m (edges use what is available).
    let half = m / 2;
    let mut trend = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        trend.push(data[lo..hi].iter().sum::<f64>() / (hi - lo) as f64);
    }
    // Seasonal = per-phase mean of the detrended series, centred to sum 0.
    let mut phase_sum = vec![0.0; m];
    let mut phase_n = vec![0usize; m];
    for i in 0..n {
        phase_sum[i % m] += data[i] - trend[i];
        phase_n[i % m] += 1;
    }
    let mut phase_mean: Vec<f64> = phase_sum
        .iter()
        .zip(&phase_n)
        .map(|(s, &c)| s / c.max(1) as f64)
        .collect();
    let grand = phase_mean.iter().sum::<f64>() / m as f64;
    for v in &mut phase_mean {
        *v -= grand;
    }
    let seasonal: Vec<f64> = (0..n).map(|i| phase_mean[i % m]).collect();
    let residual: Vec<f64> = (0..n).map(|i| data[i] - trend[i] - seasonal[i]).collect();
    Some(Decomposition {
        trend,
        seasonal,
        residual,
    })
}

/// Anomalous sample indices: residuals beyond `k` standard deviations of
/// the residual distribution (the "residual (or anomaly)" half of §4.6).
/// The first and last half-window are excluded — the truncated
/// moving-average trend is biased there and would produce edge artefacts.
pub fn anomalies(data: &[f64], m: usize, k: f64) -> Vec<usize> {
    let Some(d) = decompose(data, m) else {
        return Vec::new();
    };
    let half = m / 2;
    if d.residual.len() <= 2 * half {
        return Vec::new();
    }
    let interior = &d.residual[half..d.residual.len() - half];
    let n = interior.len() as f64;
    let mean = interior.iter().sum::<f64>() / n;
    let var = interior
        .iter()
        .map(|r| (r - mean) * (r - mean))
        .sum::<f64>()
        / n;
    let sd = var.sqrt();
    if sd == 0.0 {
        return Vec::new();
    }
    interior
        .iter()
        .enumerate()
        .filter(|(_, &r)| (r - mean).abs() > k * sd)
        .map(|(i, _)| i + half)
        .collect()
}

/// A phase window found by [`cluster_windows`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    /// First sample index (inclusive).
    pub start: usize,
    /// Last sample index (exclusive).
    pub end: usize,
    /// Mean value inside the window.
    pub mean: f64,
}

impl Window {
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Greedy 1-D time-series clustering: split the series into contiguous
/// windows whose values stay within `rel_tol` (relative, against the running
/// window mean) or `abs_tol` (absolute). This is PFMaterializer's "partition
/// snapshots into multiple windows with similar hits; the window length
/// reflects how long an application stays in the current phase" (§4.6).
pub fn cluster_windows(data: &[f64], rel_tol: f64, abs_tol: f64) -> Vec<Window> {
    let mut out = Vec::new();
    if data.is_empty() {
        return out;
    }
    let mut start = 0;
    let mut sum = data[0];
    for (i, &v) in data.iter().enumerate().skip(1) {
        let mean = sum / (i - start) as f64;
        let tol = (mean.abs() * rel_tol).max(abs_tol);
        if (v - mean).abs() > tol {
            out.push(Window {
                start,
                end: i,
                mean,
            });
            start = i;
            sum = v;
        } else {
            sum += v;
        }
    }
    out.push(Window {
        start,
        end: data.len(),
        mean: sum / (data.len() - start) as f64,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [10.0, 20.0, 30.0, 40.0];
        assert!((pearsonr(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearsonr(&x, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_rejects_degenerate_inputs() {
        assert_eq!(pearsonr(&[1.0], &[2.0]), None);
        assert_eq!(pearsonr(&[1.0, 2.0], &[5.0, 5.0]), None);
        assert_eq!(pearsonr(&[1.0, 2.0, 3.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn pearson_uncorrelated_is_small() {
        // Deterministic pseudo-random-ish sequences with no linear relation.
        let x: Vec<f64> = (0..200).map(|i| ((i * 7919) % 101) as f64).collect();
        let y: Vec<f64> = (0..200).map(|i| ((i * 104729) % 97) as f64).collect();
        let r = pearsonr(&x, &y).unwrap();
        assert!(r.abs() < 0.2, "r = {r}");
    }

    #[test]
    fn holt_winters_tracks_a_clean_seasonal_signal() {
        let season = 8;
        let data: Vec<f64> = (0..80)
            .map(|t| 100.0 + 0.5 * t as f64 + 20.0 * ((t % season) as f64 - 3.5))
            .collect();
        let hw = HoltWinters::new(season);
        let err = hw.fit_error(&data, &mut Vec::new()).unwrap();
        // Signal swings ±70; a good seasonal fit gets within a few units.
        assert!(err < 10.0, "fit error {err}");
        let (_, forecast) = hw.fit_forecast(&data, season).unwrap();
        assert_eq!(forecast.len(), season);
        // Forecast continues the trend: mean above the data mean.
        let dm = data.iter().sum::<f64>() / data.len() as f64;
        let fm = forecast.iter().sum::<f64>() / forecast.len() as f64;
        assert!(fm > dm);
    }

    #[test]
    fn holt_winters_needs_two_seasons() {
        let hw = HoltWinters::new(10);
        assert!(hw.fit_forecast(&[1.0; 19], 5).is_none());
        assert!(hw.fit_forecast(&[1.0; 20], 5).is_some());
    }

    #[test]
    fn decompose_recovers_trend_and_season() {
        let m = 8;
        let data: Vec<f64> = (0..96)
            .map(|t| 2.0 * t as f64 + 15.0 * ((t % m) as f64 - 3.5))
            .collect();
        let d = decompose(&data, m).unwrap();
        // The seasonal component must be m-periodic and zero-mean.
        for i in 0..m {
            assert!((d.seasonal[i] - d.seasonal[i + m]).abs() < 1e-9);
        }
        let mean: f64 = d.seasonal[..m].iter().sum::<f64>() / m as f64;
        assert!(mean.abs() < 1e-9);
        // The trend must rise ≈ 2 per step in the interior.
        let slope = (d.trend[80] - d.trend[16]) / 64.0;
        assert!((slope - 2.0).abs() < 0.3, "slope {slope}");
    }

    #[test]
    fn decompose_needs_two_seasons() {
        assert!(decompose(&[1.0; 15], 8).is_none());
        assert!(decompose(&[1.0; 16], 8).is_some());
        assert!(decompose(&[1.0; 100], 1).is_none());
    }

    #[test]
    fn anomalies_flag_injected_spikes() {
        let m = 8;
        let mut data: Vec<f64> = (0..96).map(|t| 100.0 + 10.0 * ((t % m) as f64)).collect();
        data[40] += 500.0; // inject an anomaly
        data[77] -= 400.0;
        let hits = anomalies(&data, m, 4.0);
        assert!(hits.contains(&40), "missed spike at 40: {hits:?}");
        assert!(hits.contains(&77), "missed dip at 77: {hits:?}");
        assert!(hits.len() <= 6, "too many false positives: {hits:?}");
    }

    #[test]
    fn clean_seasonal_series_has_no_anomalies() {
        let data: Vec<f64> = (0..64).map(|t| 50.0 + 5.0 * ((t % 4) as f64)).collect();
        assert!(anomalies(&data, 4, 4.0).is_empty());
    }

    #[test]
    fn clustering_splits_at_level_shifts() {
        let mut data = vec![10.0; 50];
        data.extend(vec![100.0; 30]);
        data.extend(vec![10.0; 20]);
        let w = cluster_windows(&data, 0.2, 1.0);
        assert_eq!(w.len(), 3);
        assert_eq!(
            w[0],
            Window {
                start: 0,
                end: 50,
                mean: 10.0
            }
        );
        assert_eq!(w[1].start, 50);
        assert_eq!(w[1].end, 80);
        assert_eq!(w[2].end, 100);
    }

    #[test]
    fn clustering_tolerates_noise_within_tol() {
        let data: Vec<f64> = (0..100).map(|i| 50.0 + (i % 3) as f64).collect();
        let w = cluster_windows(&data, 0.1, 0.5);
        assert_eq!(w.len(), 1, "small wiggle must stay one phase: {w:?}");
    }

    #[test]
    fn clustering_empty_and_singleton() {
        assert!(cluster_windows(&[], 0.1, 0.1).is_empty());
        let w = cluster_windows(&[5.0], 0.1, 0.1);
        assert_eq!(
            w,
            vec![Window {
                start: 0,
                end: 1,
                mean: 5.0
            }]
        );
    }
}
