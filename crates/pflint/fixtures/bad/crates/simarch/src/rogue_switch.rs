//! Seeded violation for the fabric switch stage: a SimModule whose
//! counter list bypasses `crate::module::registered`, so nothing pins the
//! per-port switch events to pmu::registry.

impl SimModule for RogueSwitch {
    fn counters(&self) -> &'static [&'static str] {
        &["unc_cxlsw_ingress_inserts.port", "unc_cxlsw_arb_grants.port"]
    }
}
