//! One simulated host: a small [`Machine`] plus its cumulative counter
//! totals in `pmu::registry::all_events()` column order.
//!
//! Host identity is the only input to a host's behaviour: its workload is
//! picked by the low two bits of `id` from [`FLEET_APPS`], its placement
//! policy alternates local/CXL by id, and its trace seed is derived from
//! the fleet seed and the id alone. Shard assignment never feeds into any
//! of this — that is what makes fixed-seed fleet streams byte-identical
//! across shard counts.

use std::fmt::Write as _;

use pmu::{ChaEvent, CoreEvent, CxlEvent, ImcEvent, M2pEvent, SystemDelta, SystemSnapshot};
use simarch::{Machine, MachineConfig, MemPolicy, Workload};

/// The workload mix, assigned round-robin by host id.
pub const FLEET_APPS: [&str; 4] = ["505.mcf_r", "503.bwaves_r", "510.parest_r", "502.gcc_r"];

/// Full counter set, one column per PMU event, in registry order.
pub fn counter_names() -> Vec<String> {
    pmu::registry::all_events()
        .into_iter()
        .map(|e| e.name)
        .collect()
}

/// Per-host machine: a cut-down TINY so 10k+ hosts fit on one box.
pub fn host_config() -> MachineConfig {
    let mut c = MachineConfig::tiny();
    c.name = "FLEET";
    c.cores = 1;
    c.llc_slices = 1;
    c.dram_channels = 2;
    c.l2.size_bytes = 8 << 10;
    c.llc.size_bytes = 32 << 10;
    c.epoch_cycles = 10_000;
    c
}

fn mix_seed(fleet_seed: u64, id: u32) -> u64 {
    fleet_seed ^ u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One simulated host and its counter state.
pub struct HostSim {
    pub id: u32,
    machine: Machine,
    prev: SystemSnapshot,
    /// Cumulative counter totals, registry column order.
    pub totals: Vec<u64>,
    /// Epochs simulated so far (the ingest timestamp).
    pub epochs_done: u64,
    /// Optional CSV stream (`id,ts,v0,v1,...` per round) for the
    /// determinism contract.
    pub stream: String,
}

impl HostSim {
    /// Build host `id` from the fleet seed. Fails only if the workload
    /// registry is missing one of [`FLEET_APPS`].
    pub fn new(id: u32, fleet_seed: u64, columns: usize) -> Result<HostSim, String> {
        let [a0, a1, a2, a3] = FLEET_APPS;
        let app = match id & 3 {
            0 => a0,
            1 => a1,
            2 => a2,
            _ => a3,
        };
        let policy = if id.is_multiple_of(2) {
            MemPolicy::Cxl
        } else {
            MemPolicy::Local
        };
        // Effectively-infinite op budget: fleet hosts never drain.
        let trace = workloads::build(app, u64::MAX >> 1, mix_seed(fleet_seed, id))
            .ok_or_else(|| format!("workload registry has no app `{app}`"))?;
        let mut machine = Machine::new(host_config());
        machine.attach(0, Workload::new(app, trace, policy));
        let prev = machine.pmu.snapshot(machine.now());
        Ok(HostSim {
            id,
            machine,
            prev,
            totals: vec![0; columns],
            epochs_done: 0,
            stream: String::new(),
        })
    }

    /// Advance `epochs` epochs; fold the counter delta into `totals` and
    /// optionally append one CSV line to the recorded stream.
    pub fn advance(&mut self, epochs: u64, record_stream: bool) {
        if epochs == 0 {
            return;
        }
        // Every retired snapshot goes back to the machine, which
        // overwrites it in place next epoch instead of cloning the PMU.
        for _ in 1..epochs {
            let snap = self.machine.run_epoch().snapshot;
            self.machine.recycle_snapshot(snap);
        }
        let snap = self.machine.run_epoch().snapshot;
        let delta = snap.delta(&self.prev);
        accumulate(&delta, &mut self.totals);
        self.machine
            .recycle_snapshot(std::mem::replace(&mut self.prev, snap));
        self.epochs_done += epochs;
        if record_stream {
            let _ = write!(self.stream, "{},{}", self.id, self.epochs_done);
            for v in &self.totals {
                let _ = write!(self.stream, ",{v}");
            }
            self.stream.push('\n');
        }
    }

    /// Headline counters for per-host exposition, resolved through
    /// [`headline_indices`]: (instructions retired, unhalted cycles).
    pub fn headline(&self, indices: &[usize; 2]) -> [u64; 2] {
        let mut out = [0u64; 2];
        for (slot, i) in out.iter_mut().zip(indices.iter()) {
            if let Some(v) = self.totals.get(*i) {
                *slot = *v;
            }
        }
        out
    }
}

/// Column indices of the headline counters (`inst_retired.any`,
/// `cpu_clk_unhalted.thread`) in the registry-ordered totals.
pub fn headline_indices() -> [usize; 2] {
    let all = CoreEvent::all();
    let pos = |ev: CoreEvent| all.iter().position(|e| *e == ev).unwrap_or(0);
    [pos(CoreEvent::InstRetired), pos(CoreEvent::CpuClkUnhalted)]
}

/// Fold a system delta into cumulative totals, registry column order
/// (Core → CHA → IMC → M2PCIe → CXL, each in `all()` order — exactly the
/// order `pmu::registry::all_events()` reports).
pub fn accumulate(delta: &SystemDelta, totals: &mut [u64]) {
    let mut it = totals.iter_mut();
    let mut add = |v: u64| {
        if let Some(t) = it.next() {
            *t += v;
        }
    };
    for ev in CoreEvent::all() {
        add(delta.core_sum(ev));
    }
    for ev in ChaEvent::all() {
        add(delta.cha_sum(ev));
    }
    for ev in ImcEvent::all() {
        add(delta.imc_sum(ev));
    }
    for ev in M2pEvent::all() {
        add(delta.m2p_sum(ev));
    }
    for ev in CxlEvent::all() {
        add(delta.cxl_sum(ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simarch::invariants::assert_invariants;

    /// `Machine`'s audit requires every snoop-filter owner bit to be backed
    /// by that core's L2 holding the line; check it after each epoch of
    /// seeded runs on the host geometry.
    #[test]
    fn owner_bits_stay_backed_on_the_host_config() {
        for (app, seed, policy) in [
            ("505.mcf_r", 1, MemPolicy::Cxl),
            ("503.bwaves_r", 2, MemPolicy::Local),
        ] {
            let trace = workloads::build(app, u64::MAX / 2, seed).unwrap();
            let mut m = Machine::new(host_config());
            m.attach(0, Workload::new(app, trace, policy));
            for _ in 0..20 {
                m.run_epoch();
                assert_invariants(&m);
            }
        }
    }
}
