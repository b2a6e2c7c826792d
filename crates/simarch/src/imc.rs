//! The integrated memory controller: RPQ/WPQ per pseudo-channel + DRAM.
//!
//! The paper's Table 3 counters are produced here: CAS commands, pending
//! queue inserts, occupancy accumulation, and cycles-non-empty. Under
//! CXL-only traffic the IMC stays idle (paper Figure 4-a) because CXL
//! requests bypass it for the M2PCIe path — that routing decision is made in
//! `machine.rs`.

use crate::config::MachineConfig;
use crate::invariant;
use crate::invariants::{Invariants, Violation};
use crate::mem::channel_of;
use crate::queues::{Coverage, FifoServer};
use pmu::{Bank, ImcEvent};

/// One DRAM pseudo-channel.
#[derive(Debug, Default)]
struct Channel {
    server: FifoServer,
    rpq_ne: Coverage,
    wpq_ne: Coverage,
}

/// The socket's integrated memory controller.
#[derive(Debug)]
pub struct Imc {
    channels: Vec<Channel>,
    latency: u64,
    gap: u64,
    /// Last-synced coverage values, for free-running counter updates.
    synced_rpq: Vec<u64>,
    synced_wpq: Vec<u64>,
}

impl Imc {
    pub fn new(cfg: &MachineConfig) -> Self {
        Imc {
            channels: (0..cfg.dram_channels).map(|_| Channel::default()).collect(),
            latency: cfg.dram_latency,
            gap: cfg.dram_gap,
            synced_rpq: vec![0; cfg.dram_channels],
            synced_wpq: vec![0; cfg.dram_channels],
        }
    }

    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// Service a read CAS for `line` arriving at `arrive`; returns the cycle
    /// data is ready at the controller.
    pub fn read(&mut self, line: u64, arrive: u64, banks: &mut [Bank<ImcEvent>]) -> u64 {
        let ch = channel_of(line, self.channels.len());
        let svc = self.channels[ch]
            .server
            .serve(arrive, self.latency, self.gap);
        self.channels[ch].rpq_ne.add(arrive, svc.finish);
        let bank = &mut banks[ch];
        bank.inc(ImcEvent::RpqInserts);
        bank.inc(ImcEvent::CasCountRd);
        bank.inc(ImcEvent::CasCountAll);
        // Occupancy integral: this request occupied an RPQ slot for its
        // whole residency (queueing + service).
        bank.add(ImcEvent::RpqOccupancy, svc.finish - arrive);
        svc.finish
    }

    /// Service a write CAS (posted: the caller does not wait for it, but the
    /// channel bandwidth is consumed and the WPQ occupancy is charged).
    pub fn write(&mut self, line: u64, arrive: u64, banks: &mut [Bank<ImcEvent>]) -> u64 {
        let ch = channel_of(line, self.channels.len());
        let svc = self.channels[ch]
            .server
            .serve(arrive, self.latency, self.gap);
        self.channels[ch].wpq_ne.add(arrive, svc.finish);
        let bank = &mut banks[ch];
        bank.inc(ImcEvent::WpqInserts);
        bank.inc(ImcEvent::CasCountWr);
        bank.inc(ImcEvent::CasCountAll);
        bank.add(ImcEvent::WpqOccupancy, svc.finish - arrive);
        svc.finish
    }

    /// Stall every channel until `until` (fault injection: a transient
    /// controller pause). Pure timing — see `FifoServer::block_until`.
    pub(crate) fn stall_channels(&mut self, until: u64) {
        for ch in &mut self.channels {
            ch.server.block_until(until);
        }
    }

    /// Flush the cycles-non-empty coverage into the free-running PMU
    /// counters. Called at every epoch boundary before the snapshot.
    pub fn sync_counters(&mut self, banks: &mut [Bank<ImcEvent>], epoch_cycles: u64) {
        for (ch, channel) in self.channels.iter().enumerate() {
            let bank = &mut banks[ch];
            bank.add(ImcEvent::ClockTicks, epoch_cycles);
            let rpq = channel.rpq_ne.total();
            bank.add(ImcEvent::RpqCyclesNe, rpq - self.synced_rpq[ch]);
            self.synced_rpq[ch] = rpq;
            let wpq = channel.wpq_ne.total();
            bank.add(ImcEvent::WpqCyclesNe, wpq - self.synced_wpq[ch]);
            self.synced_wpq[ch] = wpq;
        }
    }
}

impl crate::module::SimModule for Imc {
    fn stage_id(&self) -> crate::module::StageId {
        crate::module::StageId::imc()
    }

    fn name(&self) -> &'static str {
        "module.imc"
    }

    fn tick(&mut self, _until: u64) {}

    fn drain(&mut self, pmu: &mut pmu::SystemPmu, epoch_cycles: u64) {
        self.sync_counters(&mut pmu.imcs, epoch_cycles);
    }
}

impl Invariants for Imc {
    fn component(&self) -> &'static str {
        "imc::Imc"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        for (ch, channel) in self.channels.iter().enumerate() {
            channel.server.collect_violations(out);
            channel.rpq_ne.collect_violations(out);
            channel.wpq_ne.collect_violations(out);
            invariant!(
                out,
                self.component(),
                self.synced_rpq[ch] <= channel.rpq_ne.total(),
                "channel {ch} RPQ synced baseline ahead of coverage"
            );
            invariant!(
                out,
                self.component(),
                self.synced_wpq[ch] <= channel.wpq_ne.total(),
                "channel {ch} WPQ synced baseline ahead of coverage"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn setup() -> (Imc, Vec<Bank<ImcEvent>>) {
        let cfg = MachineConfig::spr();
        let imc = Imc::new(&cfg);
        let banks = (0..cfg.dram_channels).map(|_| Bank::new()).collect();
        (imc, banks)
    }

    #[test]
    fn read_returns_after_dram_latency() {
        let (mut imc, mut banks) = setup();
        let fin = imc.read(0, 1000, &mut banks);
        assert_eq!(fin, 1000 + MachineConfig::spr().dram_latency);
    }

    #[test]
    fn cas_counters_accumulate() {
        let (mut imc, mut banks) = setup();
        for i in 0..100 {
            imc.read(i, 0, &mut banks);
        }
        for i in 0..40 {
            imc.write(i, 0, &mut banks);
        }
        let rd: u64 = banks.iter().map(|b| b.read(ImcEvent::CasCountRd)).sum();
        let wr: u64 = banks.iter().map(|b| b.read(ImcEvent::CasCountWr)).sum();
        let all: u64 = banks.iter().map(|b| b.read(ImcEvent::CasCountAll)).sum();
        assert_eq!(rd, 100);
        assert_eq!(wr, 40);
        assert_eq!(all, 140);
    }

    #[test]
    fn saturation_builds_queue_delay() {
        let (mut imc, mut banks) = setup();
        // Hammer one line's channel back-to-back; later requests queue.
        let mut last = 0;
        for _ in 0..64 {
            last = imc.read(0, 0, &mut banks);
        }
        let gap = MachineConfig::spr().dram_gap;
        let lat = MachineConfig::spr().dram_latency;
        assert_eq!(last, 63 * gap + lat);
        let occ: u64 = banks.iter().map(|b| b.read(ImcEvent::RpqOccupancy)).sum();
        // Occupancy integral must exceed 64 isolated requests' worth.
        assert!(occ > 64 * lat);
    }

    #[test]
    fn sync_flushes_cycles_ne_once() {
        let (mut imc, mut banks) = setup();
        imc.read(0, 0, &mut banks);
        imc.sync_counters(&mut banks, 10_000);
        let ne1: u64 = banks.iter().map(|b| b.read(ImcEvent::RpqCyclesNe)).sum();
        imc.sync_counters(&mut banks, 10_000);
        let ne2: u64 = banks.iter().map(|b| b.read(ImcEvent::RpqCyclesNe)).sum();
        assert_eq!(ne1, MachineConfig::spr().dram_latency);
        assert_eq!(ne2, ne1, "second sync with no traffic must add nothing");
        let ticks: u64 = banks.iter().map(|b| b.read(ImcEvent::ClockTicks)).sum();
        // Two syncs of a 10k-cycle epoch across every channel bank.
        assert_eq!(ticks, 2 * 10_000 * banks.len() as u64);
    }
}
