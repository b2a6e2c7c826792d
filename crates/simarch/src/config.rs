//! Machine descriptions and the SPR / EMR presets used in the paper (§5.1).
//!
//! All latencies are in core cycles at the configured frequency. The presets
//! are calibrated against the paper's §2.3 Intel-MLC numbers on the SPR
//! testbed (2.0 GHz Xeon Gold 6438Y+):
//!
//! | medium          | idle latency | peak bandwidth |
//! |-----------------|--------------|----------------|
//! | local DDR5      | 103.2 ns     | 131.1 GB/s     |
//! | cross-socket    | 163.6 ns     |  94.4 GB/s     |
//! | CXL Type-3 DIMM | 355.3 ns     |  17.6 GB/s     |

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// Memory placement policy for a workload thread's address space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MemPolicy {
    /// All pages on the local DRAM node.
    Local,
    /// All pages on the other socket's DRAM (the classic NUMA tier).
    RemoteNuma,
    /// All pages on the CXL device node.
    Cxl,
    /// Pages interleaved local:CXL with the given fraction on CXL
    /// (`0.0` = all local, `1.0` = all CXL). Interleaving is page-granular
    /// and deterministic in the page number.
    Interleave { cxl_fraction: f64 },
}

impl MemPolicy {
    /// Fraction of pages placed on CXL under this policy.
    pub fn cxl_fraction(self) -> f64 {
        match self {
            MemPolicy::Local | MemPolicy::RemoteNuma => 0.0,
            MemPolicy::Cxl => 1.0,
            MemPolicy::Interleave { cxl_fraction } => cxl_fraction.clamp(0.0, 1.0),
        }
    }
}

/// Geometry of one set-associative cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheGeometry {
    pub size_bytes: usize,
    pub ways: usize,
    /// Lookup (tag + data) latency in cycles.
    pub hit_latency: u64,
    /// Tag-only lookup latency — the `W_tag` constant PFAnalyzer uses for
    /// L1D/L2 miss cost (§4.5).
    pub tag_latency: u64,
}

impl CacheGeometry {
    pub fn sets(&self, line: usize) -> usize {
        (self.size_bytes / line / self.ways).max(1)
    }
}

/// Hardware-prefetcher configuration (paper §2.2 path #4).
#[derive(Clone, Copy, Debug)]
pub struct PrefetchConfig {
    /// L1 next-line prefetcher enabled.
    pub l1_next_line: bool,
    /// L2 stream prefetcher enabled.
    pub l2_stream: bool,
    /// Number of strides the L2 streamer runs ahead of the demand stream.
    pub l2_distance: usize,
    /// Prefetches issued per triggering access.
    pub l2_degree: usize,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            l1_next_line: true,
            l2_stream: true,
            l2_distance: 24,
            l2_degree: 8,
        }
    }
}

/// A complete machine description.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Human-readable platform name ("SPR", "EMR").
    pub name: &'static str,
    /// Core frequency in GHz (used only to convert cycles ↔ ns in reports).
    pub freq_ghz: f64,
    /// Number of simulated cores (single socket modelled; the remote socket
    /// appears as a latency class, as the paper's SNC/remote rows do).
    pub cores: usize,
    /// Number of CHA/LLC slices.
    pub llc_slices: usize,
    /// Number of local-DRAM pseudo-channels.
    pub dram_channels: usize,
    /// Number of CXL devices (each with its own FlexBus root port).
    pub cxl_devices: usize,

    pub l1d: CacheGeometry,
    pub l2: CacheGeometry,
    /// Whole-socket LLC geometry (split across `llc_slices`).
    pub llc: CacheGeometry,
    pub prefetch: PrefetchConfig,

    /// Store-buffer entries per core.
    pub sb_entries: usize,
    /// Line-fill-buffer (MSHR) entries per core.
    pub lfb_entries: usize,
    /// Maximum in-flight offcore requests per core (super-queue depth);
    /// bounds memory-level parallelism together with the LFB.
    pub superq_entries: usize,
    /// In-flight hardware-prefetch window per core (the L2 external queue
    /// slots reserved for prefetches; prefetches never compete with demand
    /// for super-queue entries and are dropped when this window is full).
    pub pfq_entries: usize,

    /// Mesh hop latency core↔CHA and CHA↔MC (cycles).
    pub mesh_latency: u64,
    /// Extra latency for an SNC-distant LLC slice.
    pub snc_latency: u64,
    /// Extra latency for a cross-socket (remote cache / remote DRAM) hop.
    pub remote_latency: u64,

    /// Local DRAM: fixed access latency at the channel (cycles).
    pub dram_latency: u64,
    /// Local DRAM: issue gap per 64B line per channel (cycles) — sets the
    /// per-channel bandwidth cap.
    pub dram_gap: u64,
    /// IMC read/write pending queue capacity per channel.
    pub imc_queue: usize,
    /// Remote-socket DRAM: issue gap per 64B line (cycles) — the UPI-link
    /// bandwidth cap (94.4 GB/s on the SPR testbed).
    pub remote_dram_gap: u64,

    /// FlexBus link: one-way transfer latency (cycles).
    pub flexbus_latency: u64,
    /// FlexBus link: issue gap per 64B flit payload (cycles) — link bandwidth.
    pub flexbus_gap: u64,
    /// M2PCIe ingress queue capacity.
    pub m2p_queue: usize,

    /// CXL device memory: media access latency (cycles).
    pub cxl_media_latency: u64,
    /// CXL device memory controller: issue gap per 64B command (cycles) —
    /// device bandwidth cap (the 17.6 GB/s of the Agilex card).
    pub cxl_dev_gap: u64,
    /// CXL device-side command queue capacity (Req + RwD packing buffers).
    pub cxl_dev_queue: usize,

    /// Scheduling-epoch length in cycles: PathFinder snapshots all PMUs at
    /// every epoch boundary (§4.2).
    pub epoch_cycles: u64,
}

impl MachineConfig {
    /// The paper's SPR testbed: Xeon Gold 6438Y+ @2.0 GHz, 48 KiB L1D,
    /// 2 MiB L2, 60 MiB LLC, Intel Agilex CXL Type-3 device (16 GB DDR4).
    ///
    /// Latency calibration (2 GHz ⇒ 1 cycle = 0.5 ns):
    /// local DRAM 103 ns ≈ 206 cy end-to-end; CXL 355 ns ≈ 710 cy.
    pub fn spr() -> Self {
        MachineConfig {
            name: "SPR",
            freq_ghz: 2.0,
            cores: 4,
            llc_slices: 4,
            dram_channels: 2,
            cxl_devices: 1,
            l1d: CacheGeometry {
                size_bytes: 48 << 10,
                ways: 12,
                hit_latency: 5,
                tag_latency: 2,
            },
            l2: CacheGeometry {
                size_bytes: 2 << 20,
                ways: 16,
                hit_latency: 15,
                tag_latency: 4,
            },
            llc: CacheGeometry {
                size_bytes: 7 << 20, // 60 MiB / 32 cores ≈ 1.9 MiB per core; 4 cores modelled
                ways: 15,
                hit_latency: 33,
                tag_latency: 8,
            },
            prefetch: PrefetchConfig::default(),
            sb_entries: 56,
            lfb_entries: 16,
            superq_entries: 32,
            pfq_entries: 96,
            mesh_latency: 12,
            snc_latency: 30,
            remote_latency: 120,
            // L1(5) + L2(15) + mesh(12) + LLC tag(8) + mesh(12) + DRAM(148)
            // + return ≈ 206 cy ≈ 103 ns.
            dram_latency: 148,
            // 131 GB/s across 2 modelled channels ⇒ 64B / 65.5 GB/s ≈ 0.98 ns
            // ≈ 2 cy per line per channel.
            dram_gap: 2,
            imc_queue: 48,
            // 94.4 GB/s cross-socket ⇒ 64B / 94.4 GB/s ≈ 0.68 ns; the UPI
            // link serialises both sockets' traffic: ~3 cy per line.
            remote_dram_gap: 3,
            // CXL: 5(L1)+15(L2)+12+8+12(mesh/LLC) + m2p/flexbus + media ≈ 710.
            flexbus_latency: 110,
            flexbus_gap: 7, // 64B flit slots on the x8 link
            m2p_queue: 64,
            cxl_media_latency: 540,
            // 64B / 16 GB/s ≈ 4 ns ≈ 8 cy — the device MC is the choke
            // point (the Agilex card sustains only 17.6 GB/s).
            cxl_dev_gap: 8,
            cxl_dev_queue: 48,
            epoch_cycles: 2_000_000, // 1 ms scheduling quantum at 2 GHz
        }
    }

    /// The paper's EMR testbed: Xeon Gold 6530 @2.1 GHz, 160 MiB LLC and a
    /// Micron CZ120 CXL DIMM. The much larger LLC is the main architectural
    /// difference the paper highlights (§3.6): same trends, smaller deltas.
    pub fn emr() -> Self {
        let mut c = MachineConfig::spr();
        c.name = "EMR";
        c.freq_ghz = 2.1;
        // 160 MiB / 32 cores = 5 MiB per core; 4 cores modelled ⇒ 20 MiB.
        c.llc.size_bytes = 20 << 20;
        c.llc.ways = 16;
        // The CZ120 is a production ASIC device: slightly better latency and
        // much better bandwidth than the Agilex FPGA card.
        c.cxl_media_latency = 430;
        c.cxl_dev_gap = 5;
        c.flexbus_gap = 4;
        c
    }

    /// A miniature configuration for fast unit/integration tests: small
    /// caches so workloads of a few hundred KiB show full hierarchy
    /// behaviour in tens of thousands of requests.
    pub fn tiny() -> Self {
        let mut c = MachineConfig::spr();
        c.name = "TINY";
        c.cores = 2;
        c.llc_slices = 2;
        c.l1d.size_bytes = 4 << 10;
        c.l2.size_bytes = 32 << 10;
        c.llc.size_bytes = 128 << 10;
        c.epoch_cycles = 100_000;
        c
    }

    /// Convert a cycle count to nanoseconds on this platform.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_ghz
    }

    /// Convert nanoseconds to cycles on this platform.
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.freq_ghz).round() as u64
    }

    /// Sanity-check structural parameters; called by `Machine::new`.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("at least one core required".into());
        }
        // The snoop filter keeps each LLC line's owners as a u64 bitmask.
        if self.cores > 64 {
            return Err(format!("at most 64 cores supported, got {}", self.cores));
        }
        if self.llc_slices == 0 {
            return Err("at least one LLC slice required".into());
        }
        if self.dram_channels == 0 {
            return Err("at least one DRAM channel required".into());
        }
        if self.lfb_entries == 0 || self.sb_entries == 0 || self.superq_entries == 0 {
            return Err("queue structures must be non-empty".into());
        }
        if self.epoch_cycles == 0 {
            return Err("epoch length must be positive".into());
        }
        for (label, g) in [("l1d", &self.l1d), ("l2", &self.l2), ("llc", &self.llc)] {
            if g.size_bytes == 0 || g.ways == 0 {
                return Err(format!("{label}: degenerate cache geometry"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        MachineConfig::spr().validate().unwrap();
        MachineConfig::emr().validate().unwrap();
        MachineConfig::tiny().validate().unwrap();
    }

    #[test]
    fn core_count_is_capped_at_the_owner_mask_width() {
        let mut c = MachineConfig::tiny();
        c.cores = 65;
        assert!(c.validate().unwrap_err().contains("at most 64 cores"));
        c.cores = 64;
        let mut m = crate::Machine::new(c);
        let trace = crate::trace::SeqRwTrace::new(1 << 20, 20_000, 4);
        let workload = crate::Workload::new("t", Box::new(trace), MemPolicy::Local);
        m.attach(63, workload);
        for _ in 0..3 {
            m.run_epoch();
        }
        assert!(m.cha.owned_lines().any(|(_, owners)| owners == 1 << 63));
    }

    #[test]
    fn spr_latency_calibration_matches_paper_mlc() {
        let c = MachineConfig::spr();
        // End-to-end demand-read latency: L1 + L2 + 2×mesh + LLC tag + DRAM.
        let local = c.l1d.hit_latency
            + c.l2.hit_latency
            + 2 * c.mesh_latency
            + c.llc.tag_latency
            + c.dram_latency;
        let local_ns = c.cycles_to_ns(local);
        assert!((95.0..115.0).contains(&local_ns), "local {local_ns} ns");
        let cxl = c.l1d.hit_latency
            + c.l2.hit_latency
            + 2 * c.mesh_latency
            + c.llc.tag_latency
            + c.flexbus_latency
            + c.cxl_media_latency;
        let cxl_ns = c.cycles_to_ns(cxl);
        assert!((330.0..380.0).contains(&cxl_ns), "cxl {cxl_ns} ns");
    }

    #[test]
    fn emr_has_larger_llc_than_spr() {
        assert!(MachineConfig::emr().llc.size_bytes > MachineConfig::spr().llc.size_bytes);
    }

    #[test]
    fn cxl_bandwidth_is_far_below_local() {
        let c = MachineConfig::spr();
        // Effective per-line issue gap: CXL link vs all DRAM channels.
        assert!(c.flexbus_gap > c.dram_gap * c.dram_channels as u64);
    }

    #[test]
    fn policy_fraction_clamps() {
        assert_eq!(MemPolicy::Local.cxl_fraction(), 0.0);
        assert_eq!(MemPolicy::Cxl.cxl_fraction(), 1.0);
        assert_eq!(
            MemPolicy::Interleave { cxl_fraction: 2.0 }.cxl_fraction(),
            1.0
        );
        assert_eq!(
            MemPolicy::Interleave { cxl_fraction: 0.25 }.cxl_fraction(),
            0.25
        );
    }

    #[test]
    fn cycle_ns_round_trip() {
        let c = MachineConfig::spr();
        assert_eq!(c.ns_to_cycles(c.cycles_to_ns(500)), 500);
    }
}
