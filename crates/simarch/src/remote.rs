//! The remote socket's memory path: one shared UPI-link server.
//!
//! Remote-socket DRAM is modelled as a single FIFO server charging
//! `remote_latency + dram_latency` per access at a `remote_dram_gap` issue
//! rate. Remote-socket counters are not exposed through this socket's PMU
//! — exactly the visibility real per-socket PMUs give you — so the stage's
//! [`SimModule::drain`] is a no-op.

use crate::invariants::{Invariants, Violation};
use crate::module::{SimModule, StageId};
use crate::queues::{FifoServer, Service};
use pmu::SystemPmu;

/// The other socket's memory path behind the UPI link.
#[derive(Debug, Default)]
pub struct RemoteSocket {
    link: FifoServer,
    latency: u64,
    gap: u64,
}

impl RemoteSocket {
    pub fn new(latency: u64, gap: u64) -> RemoteSocket {
        RemoteSocket {
            link: FifoServer::new(),
            latency,
            gap,
        }
    }

    /// Cross the UPI link, pay the remote DRAM latency, come back.
    pub fn serve(&mut self, arrive: u64) -> Service {
        self.link.serve(arrive, self.latency, self.gap)
    }
}

impl SimModule for RemoteSocket {
    fn stage_id(&self) -> StageId {
        StageId::remote()
    }

    fn name(&self) -> &'static str {
        "module.remote"
    }

    fn tick(&mut self, _until: u64) {}

    fn drain(&mut self, _pmu: &mut SystemPmu, _epoch_cycles: u64) {
        // The remote socket's PMU belongs to the other socket; nothing to
        // flush into this one.
    }
}

impl Invariants for RemoteSocket {
    fn component(&self) -> &'static str {
        "remote::RemoteSocket"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        self.link.collect_violations(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_with_latency_and_gap() {
        let mut r = RemoteSocket::new(100, 10);
        let a = r.serve(0);
        let b = r.serve(0);
        assert_eq!(a.finish, 100);
        assert_eq!(b.start, 10);
        assert_eq!(b.finish, 110);
    }

    #[test]
    fn drain_is_a_noop_on_this_sockets_pmu() {
        let mut r = RemoteSocket::new(100, 10);
        r.serve(0);
        let mut pmu = SystemPmu::new(1, 1, 1, 1, 1);
        let before = pmu.snapshot(0);
        r.tick(1_000);
        r.drain(&mut pmu, 1_000);
        let after = pmu.snapshot(0);
        for (a, b) in before.pmu.imcs.iter().zip(after.pmu.imcs.iter()) {
            assert_eq!(a.raw(), b.raw());
        }
    }
}
