//! # tiering — TPP and Colloid page placement
//!
//! The paper's Case 7 (§5.8) uses PathFinder to analyse and improve memory
//! tiering: **TPP** (Transparent Page Placement, ASPLOS'23) promotes hot
//! pages from CXL to local DRAM and demotes cold pages under local pressure;
//! **Colloid** (SOSP'24) gates promotion on balancing per-tier access
//! latencies; and the paper's own extension, **dynamic TPP+Colloid**, feeds
//! Colloid the latency of the *dominant request class* (DRd/RFO/HWPF, chosen
//! from PFBuilder's CHA miss ratios) instead of a fixed DRd latency.
//!
//! The engine consumes the per-epoch page-heat stream the simulator
//! produces ([`simarch::EpochResult::page_heat`]) and emits migrations that
//! are applied through [`simarch::Machine::migrate_page`].

use std::collections::{BTreeMap, BTreeSet};

use simarch::MemNode;

/// A single page-migration decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// Address-space / thread id (the simulator uses the core index).
    pub asid: u16,
    pub vpage: u64,
    pub to: MemNode,
}

/// Per-page heat with exponential decay across epochs — the software
/// equivalent of TPP's active/inactive LRU lists.
#[derive(Debug, Default)]
pub struct HeatTracker {
    heat: BTreeMap<(u16, u64), f64>,
    /// Multiplicative decay applied each epoch (TPP's aging).
    pub decay: f64,
}

impl HeatTracker {
    pub fn new() -> Self {
        HeatTracker {
            heat: BTreeMap::new(),
            decay: 0.5,
        }
    }

    /// Fold one epoch's heat samples in (after decaying history).
    pub fn observe(&mut self, samples: &[(u16, u64, u32)]) {
        for h in self.heat.values_mut() {
            *h *= self.decay;
        }
        for &(asid, vpage, n) in samples {
            *self.heat.entry((asid, vpage)).or_insert(0.0) += n as f64;
        }
        // Drop cold entries to bound memory.
        self.heat.retain(|_, h| *h >= 0.25);
    }

    /// Current heat of a page.
    pub fn heat(&self, asid: u16, vpage: u64) -> f64 {
        self.heat.get(&(asid, vpage)).copied().unwrap_or(0.0)
    }

    /// All tracked pages hotter than `threshold`, hottest first
    /// (deterministic: ties broken by key).
    pub fn hot_pages(&self, threshold: f64) -> Vec<(u16, u64, f64)> {
        let mut v: Vec<(u16, u64, f64)> = self
            .heat
            .iter()
            .filter(|(_, &h)| h >= threshold)
            .map(|(&(a, p), &h)| (a, p, h))
            .collect();
        v.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        v
    }

    /// All tracked pages colder than `threshold`, coldest first.
    pub fn cold_pages(&self, threshold: f64) -> Vec<(u16, u64, f64)> {
        let mut v: Vec<(u16, u64, f64)> = self
            .heat
            .iter()
            .filter(|(_, &h)| h < threshold)
            .map(|(&(a, p), &h)| (a, p, h))
            .collect();
        v.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        v
    }

    pub fn tracked(&self) -> usize {
        self.heat.len()
    }
}

/// TPP configuration.
#[derive(Clone, Copy, Debug)]
pub struct TppConfig {
    /// Heat (accesses per epoch, decayed) above which a CXL page is hot.
    pub promote_threshold: f64,
    /// Pages promoted per epoch at most (migration-bandwidth cap).
    pub promote_budget: usize,
    /// Local-DRAM page budget; exceeding it triggers demotion of the
    /// coldest local pages (TPP's watermark-based reclaim).
    pub local_budget_pages: usize,
    /// Heat below which a local page may be demoted.
    pub demote_threshold: f64,
}

impl Default for TppConfig {
    fn default() -> Self {
        TppConfig {
            promote_threshold: 4.0,
            promote_budget: 256,
            local_budget_pages: usize::MAX,
            demote_threshold: 0.5,
        }
    }
}

/// The TPP engine.
#[derive(Debug)]
pub struct Tpp {
    pub cfg: TppConfig,
    pub tracker: HeatTracker,
    local_pages: BTreeSet<(u16, u64)>,
    promoted: u64,
    demoted: u64,
}

impl Tpp {
    pub fn new(cfg: TppConfig) -> Self {
        Tpp {
            cfg,
            tracker: HeatTracker::new(),
            local_pages: BTreeSet::new(),
            promoted: 0,
            demoted: 0,
        }
    }

    /// Total promotions/demotions decided so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.promoted, self.demoted)
    }

    /// Fold in an epoch's heat and decide migrations. `node_of` reports the
    /// current residency of a page (`None` if unmapped).
    pub fn epoch(
        &mut self,
        heat: &[(u16, u64, u32)],
        node_of: &dyn Fn(u16, u64) -> Option<MemNode>,
    ) -> Vec<Migration> {
        self.tracker.observe(heat);
        let mut out = Vec::new();
        // Promotion: hottest CXL pages first, up to the budget.
        for (asid, vpage, _h) in self.tracker.hot_pages(self.cfg.promote_threshold) {
            if out.len() >= self.cfg.promote_budget {
                break;
            }
            if matches!(node_of(asid, vpage), Some(n) if n.is_cxl()) {
                out.push(Migration {
                    asid,
                    vpage,
                    to: MemNode::LocalDram,
                });
                self.local_pages.insert((asid, vpage));
                self.promoted += 1;
            }
        }
        // Track local residency for pages that were always local.
        for &(asid, vpage, _) in heat {
            if matches!(node_of(asid, vpage), Some(MemNode::LocalDram)) {
                self.local_pages.insert((asid, vpage));
            }
        }
        // Demotion under local pressure.
        if self.local_pages.len() > self.cfg.local_budget_pages {
            let mut excess = self.local_pages.len() - self.cfg.local_budget_pages;
            for (asid, vpage, _h) in self.tracker.cold_pages(self.cfg.demote_threshold) {
                if excess == 0 {
                    break;
                }
                if self.local_pages.contains(&(asid, vpage))
                    && matches!(node_of(asid, vpage), Some(MemNode::LocalDram))
                {
                    out.push(Migration {
                        asid,
                        vpage,
                        to: MemNode::CxlDram(0),
                    });
                    self.local_pages.remove(&(asid, vpage));
                    self.demoted += 1;
                    excess -= 1;
                }
            }
        }
        out
    }
}

/// Colloid's latency-balancing gate (SOSP'24): promotion toward the local
/// tier continues only while it reduces the traffic-weighted latency
/// imbalance `p_local·L_local` vs `p_cxl·L_cxl`.
#[derive(Clone, Copy, Debug)]
pub struct Colloid {
    /// Hysteresis band: imbalances within this fraction are left alone.
    pub band: f64,
}

impl Default for Colloid {
    fn default() -> Self {
        Colloid { band: 0.1 }
    }
}

/// Colloid's verdict for the current epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Balance {
    /// Local tier is comparatively unloaded: keep promoting.
    PromoteToLocal,
    /// Within the hysteresis band: hold placement.
    Hold,
    /// Local tier is the bottleneck: demote instead.
    DemoteToCxl,
}

impl Colloid {
    /// Decide from per-tier observed latencies (cycles) and request shares
    /// (fractions summing to ≈1).
    pub fn decide(
        &self,
        local_lat: f64,
        cxl_lat: f64,
        local_share: f64,
        cxl_share: f64,
    ) -> Balance {
        let l = local_lat * local_share;
        let c = cxl_lat * cxl_share;
        if l + c == 0.0 {
            return Balance::Hold;
        }
        let imbalance = (c - l) / (l + c).max(f64::EPSILON);
        if imbalance > self.band {
            Balance::PromoteToLocal
        } else if imbalance < -self.band {
            Balance::DemoteToCxl
        } else {
            Balance::Hold
        }
    }
}

/// Per-request-class latency observations, the input PathFinder supplies
/// (PFEstimator's per-class local/CXL latencies keyed by PFBuilder's
/// dominant-class selection).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassLatencies {
    /// (local, cxl) latency per class, cycles.
    pub drd: (f64, f64),
    pub rfo: (f64, f64),
    pub hwpf: (f64, f64),
    /// Miss-ratio weight of each class (how much CHA traffic it carries).
    pub drd_weight: f64,
    pub rfo_weight: f64,
    pub hwpf_weight: f64,
}

impl ClassLatencies {
    /// The dominant class and its (local, cxl) latencies — the paper's
    /// dynamic TPP+Colloid picks "the most frequently accessed request type
    /// during the current execution phase".
    pub fn dominant(&self) -> (&'static str, (f64, f64)) {
        let mut best = ("DRd", self.drd, self.drd_weight);
        if self.rfo_weight > best.2 {
            best = ("RFO", self.rfo, self.rfo_weight);
        }
        if self.hwpf_weight > best.2 {
            best = ("HWPF", self.hwpf, self.hwpf_weight);
        }
        (best.0, best.1)
    }
}

/// TPP gated by Colloid. `dynamic = false` reproduces plain TPP+Colloid
/// (fixed DRd latency); `dynamic = true` is the paper's PathFinder-assisted
/// variant.
#[derive(Debug)]
pub struct ColloidTpp {
    pub tpp: Tpp,
    pub colloid: Colloid,
    pub dynamic: bool,
}

impl ColloidTpp {
    pub fn new(cfg: TppConfig, dynamic: bool) -> Self {
        ColloidTpp {
            tpp: Tpp::new(cfg),
            colloid: Colloid::default(),
            dynamic,
        }
    }

    /// Decide migrations for one epoch given the class latencies PathFinder
    /// measured and the CXL traffic share.
    pub fn epoch(
        &mut self,
        heat: &[(u16, u64, u32)],
        node_of: &dyn Fn(u16, u64) -> Option<MemNode>,
        lat: &ClassLatencies,
        cxl_share: f64,
    ) -> Vec<Migration> {
        let (local_l, cxl_l) = if self.dynamic {
            lat.dominant().1
        } else {
            lat.drd
        };
        let verdict = self
            .colloid
            .decide(local_l, cxl_l, 1.0 - cxl_share, cxl_share);
        match verdict {
            Balance::PromoteToLocal => self.tpp.epoch(heat, node_of),
            Balance::Hold => {
                self.tpp.tracker.observe(heat);
                Vec::new()
            }
            Balance::DemoteToCxl => {
                self.tpp.tracker.observe(heat);
                // Demote the coldest known-local pages, bounded.
                let mut out = Vec::new();
                for (asid, vpage, _h) in self.tpp.tracker.cold_pages(f64::MAX) {
                    if out.len() >= 32 {
                        break;
                    }
                    if matches!(node_of(asid, vpage), Some(MemNode::LocalDram)) {
                        out.push(Migration {
                            asid,
                            vpage,
                            to: MemNode::CxlDram(0),
                        });
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_cxl(_a: u16, _p: u64) -> Option<MemNode> {
        Some(MemNode::CxlDram(0))
    }

    fn on_local(_a: u16, _p: u64) -> Option<MemNode> {
        Some(MemNode::LocalDram)
    }

    #[test]
    fn heat_decays_and_accumulates() {
        let mut t = HeatTracker::new();
        t.observe(&[(0, 1, 8)]);
        assert_eq!(t.heat(0, 1), 8.0);
        t.observe(&[]);
        assert_eq!(t.heat(0, 1), 4.0);
        t.observe(&[(0, 1, 2)]);
        assert_eq!(t.heat(0, 1), 4.0);
    }

    #[test]
    fn cold_entries_are_garbage_collected() {
        let mut t = HeatTracker::new();
        t.observe(&[(0, 1, 1)]);
        for _ in 0..10 {
            t.observe(&[]);
        }
        assert_eq!(t.tracked(), 0);
    }

    #[test]
    fn tpp_promotes_hot_cxl_pages() {
        let mut tpp = Tpp::new(TppConfig::default());
        let heat: Vec<(u16, u64, u32)> = vec![(0, 10, 100), (0, 11, 1)];
        let migs = tpp.epoch(&heat, &on_cxl);
        assert_eq!(
            migs,
            vec![Migration {
                asid: 0,
                vpage: 10,
                to: MemNode::LocalDram
            }]
        );
        assert_eq!(tpp.stats().0, 1);
    }

    #[test]
    fn tpp_respects_promote_budget() {
        let cfg = TppConfig {
            promote_budget: 3,
            ..Default::default()
        };
        let mut tpp = Tpp::new(cfg);
        let heat: Vec<(u16, u64, u32)> = (0..10).map(|p| (0u16, p as u64, 50u32)).collect();
        let migs = tpp.epoch(&heat, &on_cxl);
        assert_eq!(migs.len(), 3);
    }

    #[test]
    fn tpp_promotes_hottest_first() {
        let cfg = TppConfig {
            promote_budget: 1,
            ..Default::default()
        };
        let mut tpp = Tpp::new(cfg);
        let migs = tpp.epoch(&[(0, 1, 5), (0, 2, 500)], &on_cxl);
        assert_eq!(migs[0].vpage, 2);
    }

    #[test]
    fn tpp_does_not_promote_local_pages() {
        let mut tpp = Tpp::new(TppConfig::default());
        let migs = tpp.epoch(&[(0, 10, 100)], &on_local);
        assert!(migs.is_empty());
    }

    #[test]
    fn tpp_demotes_under_local_pressure() {
        let cfg = TppConfig {
            local_budget_pages: 2,
            ..Default::default()
        };
        let mut tpp = Tpp::new(cfg);
        // Three warm local pages; one must be demoted (the coldest).
        let heat: Vec<(u16, u64, u32)> = vec![(0, 1, 1), (0, 2, 1), (0, 3, 1)];
        tpp.epoch(&heat, &on_local);
        // Let them cool below the demote threshold, keeping pressure
        // (heat 1.0 → 0.5 → 0.25 with the default decay).
        tpp.epoch(&[], &on_local);
        let migs = tpp.epoch(&[], &on_local);
        assert_eq!(migs.len(), 1);
        assert!(migs[0].to.is_cxl());
        assert_eq!(tpp.stats().1, 1);
    }

    #[test]
    fn colloid_direction_follows_latency_imbalance() {
        let c = Colloid::default();
        assert_eq!(c.decide(200.0, 700.0, 0.5, 0.5), Balance::PromoteToLocal);
        assert_eq!(c.decide(700.0, 200.0, 0.5, 0.5), Balance::DemoteToCxl);
        assert_eq!(c.decide(500.0, 500.0, 0.5, 0.5), Balance::Hold);
        assert_eq!(c.decide(0.0, 0.0, 0.5, 0.5), Balance::Hold);
    }

    #[test]
    fn colloid_weighs_traffic_share() {
        let c = Colloid::default();
        // CXL is slow but carries almost no traffic → no point promoting.
        assert_eq!(c.decide(200.0, 700.0, 0.99, 0.01), Balance::DemoteToCxl);
    }

    #[test]
    fn dominant_class_selection() {
        let lat = ClassLatencies {
            drd: (200.0, 700.0),
            rfo: (250.0, 800.0),
            hwpf: (150.0, 650.0),
            drd_weight: 0.2,
            rfo_weight: 0.1,
            hwpf_weight: 0.7,
        };
        let (name, (l, c)) = lat.dominant();
        assert_eq!(name, "HWPF");
        assert_eq!((l, c), (150.0, 650.0));
    }

    #[test]
    fn colloid_tpp_gates_promotion() {
        let mut ct = ColloidTpp::new(TppConfig::default(), false);
        let lat = ClassLatencies {
            drd: (700.0, 200.0),
            drd_weight: 1.0,
            ..Default::default()
        };
        // Local slower than CXL → no promotions even for hot CXL pages.
        let migs = ct.epoch(&[(0, 1, 100)], &on_cxl, &lat, 0.5);
        assert!(migs.is_empty());
        // Flip the latencies → promotion resumes.
        let lat2 = ClassLatencies {
            drd: (200.0, 700.0),
            drd_weight: 1.0,
            ..Default::default()
        };
        let migs2 = ct.epoch(&[(0, 1, 100)], &on_cxl, &lat2, 0.5);
        assert_eq!(migs2.len(), 1);
    }

    #[test]
    fn dynamic_variant_uses_dominant_class() {
        let mut ct = ColloidTpp::new(TppConfig::default(), true);
        // DRd says demote, but the dominant HWPF class says promote.
        let lat = ClassLatencies {
            drd: (700.0, 200.0),
            hwpf: (200.0, 700.0),
            drd_weight: 0.1,
            hwpf_weight: 0.9,
            ..Default::default()
        };
        let migs = ct.epoch(&[(0, 1, 100)], &on_cxl, &lat, 0.5);
        assert_eq!(migs.len(), 1, "dynamic variant must follow HWPF latencies");
    }
}
