//! **PFMaterializer** (§4.6): cross-snapshot synthesis.
//!
//! Each epoch digest is compacted into tagged records in an embedded
//! time-series database (the `tsdb` crate standing in for InfluxDB). On top
//! of the store, the materializer runs PathFinder's analysis workflow:
//! scope (tag-filtered query) → overall statistics → window clustering →
//! trend/seasonality via Holt-Winters → cross-application correlation via
//! Pearson's r. Consecutive steps of one scope read the same series, so
//! the reads share one query per scope until the store changes.

use std::cell::RefCell;

use crate::builder::PathMap;
use crate::model::{Component, HitLevel, PathGroup};
use tsdb::{ops, tsa, Db, Merge, SeriesId, Stamp};

/// Resolved series handles for the per-app record families (`path_set`,
/// `app`). Built once per workload assignment; while the apps stay the
/// same, every epoch's ingest is pure handle-indexed column appends —
/// zero string formatting, zero map insertion (see PERFORMANCE.md).
struct AppHandles {
    /// The per-core labels these handles encode; a mismatch invalidates.
    apps: Vec<Option<String>>,
    /// `path_set` series per (core, level, path).
    path_set: Vec<[[SeriesId; PathGroup::COUNT]; HitLevel::COUNT]>,
    /// `app` progress series per core.
    progress: Vec<SeriesId>,
}

/// What one analysis read returns: the hit series of a (core, level)
/// scope, or a core's ops series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scope {
    Hits(usize, HitLevel),
    Ops(usize),
}

/// Scopes the memo keeps at one store state. A pass over two co-located
/// cores reads four (each core's hit and ops series); the rest is room
/// for a caller that reads more levels.
const MEMO_SCOPES: usize = 8;

/// One memoized read.
#[derive(Debug)]
struct Entry {
    scope: Scope,
    /// `Scratch::tick` at the entry's last use.
    used: u64,
    rows: Vec<(u64, f64)>,
}

/// The series the analysis reads share until the store changes, and the
/// buffers the reads reuse. A steady-state analysis pass then allocates
/// none of them, so it neither returns them to the OS between passes nor
/// faults them back in.
#[derive(Debug, Default)]
struct Scratch {
    /// The store state `memo[..live]` was read at.
    stamp: Stamp,
    /// Reads of the store at `stamp` (the first `live`), then spare
    /// buffers of reads an earlier state invalidated.
    memo: Vec<Entry>,
    live: usize,
    tick: u64,
    merge: Merge,
    /// Values without timestamps: one series, or the paired samples of a
    /// correlation. A single-series read lends `ys` out, as the
    /// Holt-Winters seasonal terms of `predictability`.
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Scratch {
    /// The index in `memo` of `scope`'s series as `db` holds it now. A
    /// miss reads the store into a spare buffer, or into the least
    /// recently used entry once `MEMO_SCOPES` are live.
    fn read(&mut self, db: &Db, scope: Scope) -> usize {
        if !db.is_at(&self.stamp) {
            self.stamp = db.stamp();
            self.live = 0;
        }
        self.tick += 1;
        if let Some(i) = self.memo[..self.live].iter().position(|e| e.scope == scope) {
            self.memo[i].used = self.tick;
            return i;
        }
        let i = if self.live < MEMO_SCOPES {
            if self.live == self.memo.len() {
                self.memo.push(Entry {
                    scope,
                    used: 0,
                    rows: Vec::new(),
                });
            }
            self.live += 1;
            self.live - 1
        } else {
            (0..self.live)
                .min_by_key(|&i| self.memo[i].used)
                .expect("the memo is full")
        };
        let e = &mut self.memo[i];
        e.scope = scope;
        e.used = self.tick;
        match scope {
            Scope::Hits(core, level) => {
                let mut digits = [0; 20];
                let core = decimal(core, &mut digits);
                let per_path = PathGroup::ALL.map(|p| {
                    db.from("path_set")
                        .filter("core", core)
                        .filter("dst", level.label())
                        .filter("path", p.label())
                });
                db.sum_per_ts(per_path, "hits", &mut self.merge, &mut e.rows);
            }
            Scope::Ops(core) => {
                let mut digits = [0; 20];
                db.from("app")
                    .filter("core", decimal(core, &mut digits))
                    .values_into("ops", &mut e.rows);
            }
        }
        i
    }
}

/// `n` in decimal, written at the end of `digits`: a core's tag value
/// without a `String`.
fn decimal(mut n: usize, digits: &mut [u8; 20]) -> &str {
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&digits[start..]).expect("ASCII digits")
}

/// The materializer: a DB plus ingestion and analysis workflows.
#[derive(Default)]
pub struct Materializer {
    pub db: Db,
    app_handles: Option<AppHandles>,
    vertex_handles: Option<[[SeriesId; Component::COUNT]; PathGroup::COUNT]>,
    scratch: RefCell<Scratch>,
}

impl Materializer {
    pub fn new() -> Self {
        Materializer::default()
    }

    /// (Re)build the app-tagged handle cache when the workload assignment
    /// changes. This is the one place the per-app series names are
    /// formatted; the epoch loops below never touch strings again.
    fn ensure_app_handles(&mut self, cores: usize, apps: &[Option<String>]) {
        if self
            .app_handles
            .as_ref()
            .is_some_and(|h| h.path_set.len() == cores && h.apps[..] == *apps)
        {
            return;
        }
        let mut path_set = Vec::with_capacity(cores);
        let mut progress = Vec::with_capacity(cores);
        for core in 0..cores {
            let core_s = core.to_string();
            let app = apps
                .get(core)
                .and_then(|a| a.as_deref())
                .unwrap_or_default();
            path_set.push(HitLevel::ALL.map(|l| {
                PathGroup::ALL.map(|p| {
                    self.db.series_handle(
                        "path_set",
                        &[
                            ("core", &core_s),
                            ("app", app),
                            ("path", p.label()),
                            ("dst", l.label()),
                        ],
                        &["hits"],
                    )
                })
            }));
            progress.push(self.db.series_handle(
                "app",
                &[("core", &core_s), ("app", app)],
                &["ops"],
            ));
        }
        self.app_handles = Some(AppHandles {
            apps: apps.to_vec(),
            path_set,
            progress,
        });
    }

    /// Ingest one epoch's path map as `path_set` records: one record per
    /// (core, path, level) with a non-zero hit count. `apps[core]` labels
    /// the records so cross-application queries can scope by program.
    pub fn ingest_path_map(&mut self, ts: u64, map: &PathMap, apps: &[Option<String>]) {
        self.ensure_app_handles(map.per_core.len(), apps);
        let Materializer {
            db, app_handles, ..
        } = self;
        let handles = app_handles.as_ref().expect("handles just ensured");
        for (core, m) in map.per_core.iter().enumerate() {
            let row = &handles.path_set[core];
            for l in HitLevel::ALL {
                for p in PathGroup::ALL {
                    let v = m.get(l, p);
                    if v == 0 {
                        continue;
                    }
                    db.ingest(row[l.idx()][p.idx()], ts, &[v as f64]);
                }
            }
        }
    }

    /// Ingest per-(path, component) queue lengths as `vertex` records.
    pub fn ingest_queues(&mut self, ts: u64, q: &crate::analyzer::QueueEstimate) {
        if self.vertex_handles.is_none() {
            self.vertex_handles = Some(PathGroup::ALL.map(|p| {
                Component::ALL.map(|c| {
                    self.db.series_handle(
                        "vertex",
                        &[("path", p.label()), ("hw", c.label())],
                        &["queue"],
                    )
                })
            }));
        }
        let Materializer {
            db, vertex_handles, ..
        } = self;
        let grid = vertex_handles.as_ref().expect("handles just ensured");
        for p in PathGroup::ALL {
            for c in Component::ALL {
                let v = q.get(p, c);
                if v > 0.0 {
                    db.ingest(grid[p.idx()][c.idx()], ts, &[v]);
                }
            }
        }
    }

    /// Ingest application progress (`ops` per epoch) as `app` records.
    pub fn ingest_progress(&mut self, ts: u64, ops_per_core: &[u64], apps: &[Option<String>]) {
        self.ensure_app_handles(ops_per_core.len(), apps);
        let Materializer {
            db, app_handles, ..
        } = self;
        let handles = app_handles.as_ref().expect("handles just ensured");
        for (core, &n) in ops_per_core.iter().enumerate() {
            if n == 0 {
                continue;
            }
            db.ingest(handles.progress[core], ts, &[n as f64]);
        }
    }

    /// The hit series of one (core, level) scope across all snapshots —
    /// PathFinder's "query scope" step: the four per-path series summed
    /// per timestamp, in time order.
    pub fn hit_series(&self, core: usize, level: HitLevel) -> Vec<(u64, f64)> {
        self.with_series(Scope::Hits(core, level), |series, _, _| series.to_vec())
    }

    /// Run `f` on a scope's series, its values alone and a spare buffer
    /// of the scratch.
    fn with_series<T>(
        &self,
        scope: Scope,
        f: impl FnOnce(&[(u64, f64)], &[f64], &mut Vec<f64>) -> T,
    ) -> T {
        let s = &mut *self.scratch.borrow_mut();
        let i = s.read(&self.db, scope);
        let series = &s.memo[i].rows;
        values_of(series, &mut s.xs);
        f(series, &s.xs, &mut s.ys)
    }

    /// Pearson's r of two scopes' series on the snapshots they share.
    fn correlate_scopes(&self, a: Scope, b: Scope) -> Option<f64> {
        let s = &mut *self.scratch.borrow_mut();
        // Reading `b` cannot evict `a`: `a` is the most recently used.
        let ia = s.read(&self.db, a);
        let ib = s.read(&self.db, b);
        pearson_on_shared_ts(&s.memo[ia].rows, &s.memo[ib].rows, &mut s.xs, &mut s.ys)
    }

    /// Phase windows of consistent locality for a (core, level) scope —
    /// Case 6's "windows with stable memory access patterns".
    pub fn locality_windows(&self, core: usize, level: HitLevel) -> Vec<tsa::Window> {
        self.with_series(Scope::Hits(core, level), |_, data, _| {
            tsa::cluster_windows(data, 0.25, 1.0)
        })
    }

    /// Summary statistics of a scope (min/max/mean/moving-average tail).
    pub fn scope_stats(&self, core: usize, level: HitLevel) -> Option<(f64, f64, f64)> {
        self.with_series(Scope::Hits(core, level), |series, _, _| {
            Some((ops::min(series)?, ops::max(series)?, ops::mean(series)?))
        })
    }

    /// Pearson correlation between two cores' hit series at a level, on the
    /// overlapping snapshots (Case 6: identify locality-impacting factors
    /// from co-located applications).
    pub fn correlate_cores(&self, a: usize, b: usize, level: HitLevel) -> Option<f64> {
        self.correlate_scopes(Scope::Hits(a, level), Scope::Hits(b, level))
    }

    /// Pearson correlation between two arbitrary aligned samples — Case 5
    /// uses this between per-mFlow CXL request frequency and delivered
    /// bandwidth (the paper reports r = 0.998).
    pub fn correlate(xs: &[f64], ys: &[f64]) -> Option<f64> {
        tsa::pearsonr(xs, ys)
    }

    /// Does the scope's hit series look predictable (seasonal)? Returns the
    /// Holt-Winters relative fit error — small values indicate regular,
    /// forecastable access patterns (§4.6 step 4).
    pub fn predictability(&self, core: usize, level: HitLevel, season: usize) -> Option<f64> {
        self.with_series(Scope::Hits(core, level), |series, data, seasonal| {
            let hw = tsa::HoltWinters::new(season);
            let err = hw.fit_error(data, seasonal)?;
            let sd = ops::stddev(series)?;
            if sd == 0.0 {
                return Some(0.0);
            }
            Some(err / sd)
        })
    }

    /// The per-epoch ops series of one core (`app` measurement).
    pub fn ops_series(&self, core: usize) -> Vec<(u64, f64)> {
        self.with_series(Scope::Ops(core), |series, _, _| series.to_vec())
    }

    /// Compute-burst windows (§4.6: "computing burst"): phases of consistent
    /// execution throughput, found by clustering the per-epoch ops series.
    pub fn burst_windows(&self, core: usize) -> Vec<tsa::Window> {
        self.with_series(Scope::Ops(core), |_, data, _| {
            tsa::cluster_windows(data, 0.25, 1.0)
        })
    }

    /// Execution orthogonality (§4.6): do two co-located applications
    /// progress independently (r ≈ 0), constructively (r > 0), or do they
    /// contend (r < 0)? Pearson correlation of the two cores' per-epoch ops
    /// on the overlapping snapshots.
    pub fn orthogonality(&self, a: usize, b: usize) -> Option<f64> {
        self.correlate_scopes(Scope::Ops(a), Scope::Ops(b))
    }

    /// Spatial-locality digest (§4.6: "spatial data locality"): given one
    /// epoch's page-heat samples for an address space, return
    /// `(touched_pages, gini)` where gini in 0..=1 measures how concentrated
    /// the accesses are (0 = uniform over touched pages, →1 = one hot page).
    pub fn spatial_locality(heat: &[(u16, u64, u32)], asid: u16) -> (usize, f64) {
        let mut counts: Vec<f64> = heat
            .iter()
            .filter(|&&(a, _, _)| a == asid)
            .map(|&(_, _, n)| n as f64)
            .collect();
        let n = counts.len();
        if n == 0 {
            return (0, 0.0);
        }
        counts.sort_by(|x, y| x.total_cmp(y));
        let total: f64 = counts.iter().sum();
        if total == 0.0 {
            return (n, 0.0);
        }
        // Gini via the sorted-rank formula.
        let weighted: f64 = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64 + 1.0) * c)
            .sum();
        let gini = (2.0 * weighted / (n as f64 * total)) - (n as f64 + 1.0) / n as f64;
        (n, gini.clamp(0.0, 1.0))
    }

    /// Resident bytes of the record store (overhead accounting, §5.9).
    pub fn footprint_bytes(&self) -> usize {
        self.db.footprint_bytes()
    }
}

/// `series`' values, in order, into `out`.
fn values_of(series: &[(u64, f64)], out: &mut Vec<f64>) {
    out.clear();
    out.extend(series.iter().map(|&(_, v)| v));
}

/// Pearson's r over the snapshots two time-sorted series share, in one
/// merge-join: each row of `a` pairs with the last row of `b` at its
/// timestamp, if `b` has one (a later row of `b` at a timestamp supersedes
/// an earlier one). `xs` and `ys` hold the paired samples.
fn pearson_on_shared_ts(
    a: &[(u64, f64)],
    b: &[(u64, f64)],
    xs: &mut Vec<f64>,
    ys: &mut Vec<f64>,
) -> Option<f64> {
    xs.clear();
    ys.clear();
    let mut j = 0;
    for &(ts, v) in a {
        while b.get(j).is_some_and(|&(t, _)| t <= ts) {
            j += 1;
        }
        if let Some(&(t, w)) = j.checked_sub(1).and_then(|k| b.get(k)) {
            if t == ts {
                xs.push(v);
                ys.push(w);
            }
        }
    }
    tsa::pearsonr(xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CoreMap;

    fn map_with(core: usize, level: HitLevel, path: PathGroup, v: u64, cores: usize) -> PathMap {
        let mut per_core = vec![CoreMap::default(); cores];
        per_core[core].hits[level.idx()][path.idx()] = v;
        let mut total = CoreMap::default();
        total.hits[level.idx()][path.idx()] = v;
        PathMap { per_core, total }
    }

    #[test]
    fn ingest_and_query_round_trip() {
        let mut m = Materializer::new();
        for t in 0..5u64 {
            let map = map_with(0, HitLevel::LocalLlc, PathGroup::Drd, 100 + t, 2);
            m.ingest_path_map(t * 1000, &map, &[Some("a".into()), None]);
        }
        let s = m.hit_series(0, HitLevel::LocalLlc);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], (0, 100.0));
        assert_eq!(s[4], (4000, 104.0));
        assert!(m.hit_series(1, HitLevel::LocalLlc).is_empty());
    }

    #[test]
    fn hit_series_sums_paths() {
        let mut m = Materializer::new();
        let mut map = map_with(0, HitLevel::CxlMemory, PathGroup::Drd, 10, 1);
        map.per_core[0].hits[HitLevel::CxlMemory.idx()][PathGroup::HwPf.idx()] = 30;
        m.ingest_path_map(0, &map, &[None]);
        assert_eq!(m.hit_series(0, HitLevel::CxlMemory), vec![(0, 40.0)]);
    }

    #[test]
    fn locality_windows_find_phase_change() {
        let mut m = Materializer::new();
        for t in 0..60u64 {
            let hits = if t < 30 { 1000 } else { 100 };
            let map = map_with(0, HitLevel::LocalLlc, PathGroup::Drd, hits, 1);
            m.ingest_path_map(t, &map, &[None]);
        }
        let w = m.locality_windows(0, HitLevel::LocalLlc);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].end, 30);
    }

    #[test]
    fn correlation_between_coupled_cores() {
        let mut m = Materializer::new();
        for t in 0..20u64 {
            let mut map = map_with(0, HitLevel::LocalLlc, PathGroup::Drd, 10 + t, 2);
            map.per_core[1].hits[HitLevel::LocalLlc.idx()][PathGroup::Drd.idx()] = 1000 - 3 * t;
            m.ingest_path_map(t, &map, &[None, None]);
        }
        let r = m.correlate_cores(0, 1, HitLevel::LocalLlc).unwrap();
        assert!(r < -0.99, "anti-correlated series, r = {r}");
    }

    #[test]
    fn scope_stats_and_footprint() {
        let mut m = Materializer::new();
        let map = map_with(0, HitLevel::L2, PathGroup::Rfo, 7, 1);
        m.ingest_path_map(0, &map, &[None]);
        let (mn, mx, mean) = m.scope_stats(0, HitLevel::L2).unwrap();
        assert_eq!((mn, mx, mean), (7.0, 7.0, 7.0));
        assert!(m.footprint_bytes() > 0);
    }

    #[test]
    fn burst_windows_and_orthogonality() {
        let mut m = Materializer::new();
        for t in 0..40u64 {
            // Core 0 bursts (fast first half, slow second); core 1 inverse.
            let o0 = if t < 20 { 1000 } else { 100 };
            let o1 = if t < 20 { 100 } else { 1000 };
            m.ingest_progress(t, &[o0, o1], &[Some("a".into()), Some("b".into())]);
        }
        let w = m.burst_windows(0);
        assert_eq!(w.len(), 2, "two throughput phases: {w:?}");
        let r = m.orthogonality(0, 1).unwrap();
        assert!(r < -0.9, "anti-phased apps must anti-correlate, r = {r}");
    }

    #[test]
    fn spatial_locality_gini() {
        // Uniform heat: gini ≈ 0.
        let uniform: Vec<(u16, u64, u32)> = (0..100).map(|p| (0u16, p as u64, 10u32)).collect();
        let (n, g) = Materializer::spatial_locality(&uniform, 0);
        assert_eq!(n, 100);
        assert!(g < 0.05, "uniform gini {g}");
        // One dominant page: gini → 1.
        let mut skewed = uniform.clone();
        skewed.push((0, 999, 100_000));
        let (_, g2) = Materializer::spatial_locality(&skewed, 0);
        assert!(g2 > 0.9, "skewed gini {g2}");
        // Foreign ASIDs are excluded.
        let (n3, _) = Materializer::spatial_locality(&uniform, 7);
        assert_eq!(n3, 0);
    }

    #[test]
    fn predictability_detects_seasonal_series() {
        let mut m = Materializer::new();
        for t in 0..64u64 {
            let hits = 1000 + 500 * (t % 8);
            let map = map_with(0, HitLevel::LocalLlc, PathGroup::Drd, hits, 1);
            m.ingest_path_map(t, &map, &[None]);
        }
        let err = m.predictability(0, HitLevel::LocalLlc, 8).unwrap();
        assert!(err < 0.5, "seasonal series must be predictable, err {err}");
    }
}
