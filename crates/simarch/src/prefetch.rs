//! Hardware prefetchers (paper §2.2, path #4).
//!
//! * L1: next-line prefetch on a demand miss.
//! * L2: a 16-entry stream (stride) detector. Once a stride is confirmed
//!   twice, it runs `distance` strides ahead of the demand stream, issuing
//!   at most `degree` prefetches per triggering access.

use crate::config::PrefetchConfig;
use crate::mem::LINES_PER_PAGE;

#[derive(Clone, Copy, Debug)]
struct StreamEntry {
    page: u64,
    last_line: u64,
    stride: i64,
    confidence: u8,
    /// Furthest line already prefetched for this stream.
    head: i64,
    lru: u64,
}

/// The per-core L2 stream prefetcher.
#[derive(Clone, Debug)]
pub struct StreamPrefetcher {
    table: Vec<StreamEntry>,
    /// Table index of the most recently hit stream. Sequential workloads hit
    /// the same stream on nearly every miss, so checking this slot first
    /// skips the linear table scan on the common path.
    last_idx: usize,
    distance: i64,
    degree: usize,
    enabled: bool,
    clock: u64,
    issued: u64,
}

impl StreamPrefetcher {
    pub fn new(cfg: &PrefetchConfig) -> Self {
        StreamPrefetcher {
            table: Vec::with_capacity(16),
            last_idx: 0,
            distance: cfg.l2_distance as i64,
            degree: cfg.l2_degree,
            enabled: cfg.l2_stream,
            clock: 0,
            issued: 0,
        }
    }

    /// Observe an L2 access to `line` (a global line address); returns the
    /// lines to prefetch. Convenience wrapper over [`Self::observe_into`]
    /// for tests and cold callers.
    pub fn observe(&mut self, line: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.observe_into(line, &mut out);
        out
    }

    /// Observe an L2 access to `line`, appending the lines to prefetch to
    /// `out`. The hot path passes a reused scratch buffer so a confirmed
    /// stream never allocates per demand miss (see PERFORMANCE.md).
    pub fn observe_into(&mut self, line: u64, out: &mut Vec<u64>) {
        if !self.enabled {
            return;
        }
        self.clock += 1;
        let page = line / LINES_PER_PAGE as u64;
        let clock = self.clock;
        // Same stream found either way — the hint only skips the scan.
        let hit = match self.table.get(self.last_idx) {
            Some(e) if e.page == page => Some(self.last_idx),
            _ => self.table.iter().position(|e| e.page == page),
        };
        if let Some(i) = hit {
            self.last_idx = i;
            let e = &mut self.table[i];
            e.lru = clock;
            let delta = line as i64 - e.last_line as i64;
            e.last_line = line;
            if delta == 0 {
                return;
            }
            if delta == e.stride {
                e.confidence = e.confidence.saturating_add(1);
            } else {
                e.stride = delta;
                e.confidence = 1;
                e.head = line as i64;
                return;
            }
            if e.confidence < 2 {
                return;
            }
            // Confirmed stream: run ahead up to `distance` strides.
            let target = line as i64 + e.stride * self.distance;
            let before = out.len();
            let ahead = e.stride > 0;
            // Never issue at or behind the demand stream.
            if (ahead && e.head < line as i64) || (!ahead && e.head > line as i64) {
                e.head = line as i64;
            }
            while out.len() - before < self.degree {
                let next = e.head + e.stride;
                if (ahead && next > target) || (!ahead && next < target) {
                    break;
                }
                e.head = next;
                if next >= 0 {
                    out.push(next as u64);
                }
            }
            self.issued += (out.len() - before) as u64;
            return;
        }
        // New stream: allocate, evicting the LRU entry if full.
        if self.table.len() >= 16 {
            let (idx, _) = self
                .table
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .expect("non-empty");
            self.table.swap_remove(idx);
        }
        self.last_idx = self.table.len();
        self.table.push(StreamEntry {
            page,
            last_line: line,
            stride: 0,
            confidence: 0,
            head: line as i64,
            lru: clock,
        });
    }

    /// Total prefetches issued (diagnostics).
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

/// The L1 next-line prefetcher: trivial, stateless.
pub fn l1_next_line(cfg: &PrefetchConfig, miss_line: u64) -> Option<u64> {
    if cfg.l1_next_line {
        Some(miss_line + 1)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StreamPrefetcher {
        StreamPrefetcher::new(&PrefetchConfig::default())
    }

    #[test]
    fn sequential_stream_is_detected_after_two_strides() {
        let mut p = pf();
        assert!(p.observe(100).is_empty()); // allocate
        assert!(p.observe(101).is_empty()); // stride=1, conf=1
        let out = p.observe(102); // conf=2 → issue
        assert!(!out.is_empty());
        assert!(out.iter().all(|&l| l > 102));
    }

    #[test]
    fn stream_runs_ahead_bounded_by_distance() {
        let cfg = PrefetchConfig {
            l2_distance: 4,
            l2_degree: 8,
            ..Default::default()
        };
        let mut p = StreamPrefetcher::new(&cfg);
        p.observe(10);
        p.observe(11);
        let out = p.observe(12);
        // Head starts at the stream start; at most distance ahead of 12.
        assert!(*out.iter().max().unwrap() <= 16);
    }

    #[test]
    fn negative_strides_are_followed() {
        let mut p = pf();
        p.observe(1000);
        p.observe(998);
        let out = p.observe(996);
        assert!(!out.is_empty());
        assert!(out.iter().all(|&l| l < 996));
    }

    #[test]
    fn random_pattern_issues_nothing() {
        let mut p = pf();
        for &l in &[5u64, 900, 17, 4400, 23, 1, 777] {
            assert!(p.observe(l).is_empty());
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn repeated_same_line_is_ignored() {
        let mut p = pf();
        p.observe(50);
        p.observe(51);
        p.observe(52);
        let before = p.issued();
        assert!(p.observe(52).is_empty());
        assert_eq!(p.issued(), before);
    }

    #[test]
    fn disabled_prefetcher_is_silent() {
        let cfg = PrefetchConfig {
            l2_stream: false,
            ..Default::default()
        };
        let mut p = StreamPrefetcher::new(&cfg);
        p.observe(1);
        p.observe(2);
        assert!(p.observe(3).is_empty());
    }

    #[test]
    fn table_capacity_is_bounded() {
        let mut p = pf();
        for page in 0..100u64 {
            p.observe(page * LINES_PER_PAGE as u64);
        }
        assert!(p.table.len() <= 16);
    }

    #[test]
    fn next_line_respects_config() {
        let on = PrefetchConfig::default();
        let off = PrefetchConfig {
            l1_next_line: false,
            ..Default::default()
        };
        assert_eq!(l1_next_line(&on, 9), Some(10));
        assert_eq!(l1_next_line(&off, 9), None);
    }
}
