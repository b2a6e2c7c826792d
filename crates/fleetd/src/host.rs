//! One simulated host: a small [`Machine`] plus its cumulative counter
//! totals in `pmu::registry::all_events()` column order, read from the
//! machine's free-running counters by `pmu::SystemPmu::totals_into`.
//!
//! Host identity is the only input to a host's behaviour: its workload is
//! picked by the low two bits of `id` from [`FLEET_APPS`], its placement
//! policy alternates local/CXL by id, and its trace seed is derived from
//! the fleet seed and the id alone. Shard assignment never feeds into any
//! of this — that is what makes fixed-seed fleet streams byte-identical
//! across shard counts.

use std::fmt::Write as _;

use pmu::{CoreEvent, Event};
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
    pub fn new(id: u32, fleet_seed: u64) -> Result<HostSim, String> {
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
        // All zero, one column per registry counter, as every round
        // leaves them.
        let mut totals = Vec::new();
        machine.pmu.totals_into(&mut totals);
        Ok(HostSim {
            id,
            machine,
            totals,
            epochs_done: 0,
            stream: String::new(),
        })
    }

    /// Advance `epochs` epochs; read the machine's cumulative counters
    /// into `totals` and optionally append one CSV line to the recorded
    /// stream.
    pub fn advance(&mut self, epochs: u64, record_stream: bool) {
        if epochs == 0 {
            return;
        }
        // Every snapshot goes straight back to the machine, which
        // overwrites it in place next epoch instead of cloning the PMU.
        for _ in 0..epochs {
            let snap = self.machine.run_epoch().snapshot;
            self.machine.recycle_snapshot(snap);
        }
        self.machine.pmu.totals_into(&mut self.totals);
        self.epochs_done += epochs;
        if record_stream {
            let _ = write!(self.stream, "{},{}", self.id, self.epochs_done);
            for v in &self.totals {
                let _ = write!(self.stream, ",{v}");
            }
            self.stream.push('\n');
        }
    }

    /// Headline counters for per-host exposition: (instructions retired,
    /// unhalted cycles). Core events lead the registry order, so a core
    /// event's column is its index.
    pub fn headline(&self) -> [u64; 2] {
        [CoreEvent::InstRetired, CoreEvent::CpuClkUnhalted]
            .map(|ev| self.totals.get(ev.index()).copied().unwrap_or(0))
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
