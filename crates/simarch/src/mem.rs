//! Address layout, page tables and placement.
//!
//! Every workload thread owns a private virtual address space. Pages are
//! mapped on first touch to a physical node according to the thread's
//! [`crate::MemPolicy`]; the tiering layer can later migrate pages between
//! nodes (TPP / Colloid, paper §5.8). Physical addresses are synthesised so
//! that node, page and line survive round-trips.

use crate::config::MemPolicy;

/// Cache line size in bytes.
pub const CACHELINE: usize = 64;
/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: usize = 4096;
/// Cache lines per page.
pub const LINES_PER_PAGE: usize = PAGE_SIZE / CACHELINE;

/// A physical memory destination: the egress stage of the Clos network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemNode {
    /// Socket-local DDR5 behind the IMC.
    LocalDram,
    /// DDR5 on the other socket, reached over the cross-socket link (the
    /// paper's "NUMA node" tier: ~164 ns, ~94 GB/s on SPR).
    RemoteDram,
    /// A CXL Type-3 device behind FlexBus, identified by device index.
    CxlDram(u8),
}

impl MemNode {
    pub fn is_cxl(self) -> bool {
        matches!(self, MemNode::CxlDram(_))
    }

    pub fn label(self) -> String {
        match self {
            MemNode::LocalDram => "local".into(),
            MemNode::RemoteDram => "remote".into(),
            MemNode::CxlDram(d) => format!("cxl{d}"),
        }
    }
}

/// A synthesised physical address.
///
/// Bit layout: `[node:8][asid:8][vpage:32][offset:12]` — enough for 16 TiB
/// of per-thread address space, and the node travels with the address so
/// every hierarchy stage can classify the request's destination without a
/// reverse lookup (exactly what the CHA's TOR does with the target field).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysAddr(pub u64);

const OFFSET_BITS: u64 = 12;
const VPAGE_BITS: u64 = 32;
const ASID_BITS: u64 = 8;

impl PhysAddr {
    fn compose(node: MemNode, asid: u16, vpage: u64, offset: u64) -> PhysAddr {
        let node_bits: u64 = match node {
            MemNode::LocalDram => 0,
            MemNode::RemoteDram => 255,
            MemNode::CxlDram(d) => 1 + d as u64,
        };
        debug_assert!(vpage < (1 << VPAGE_BITS));
        debug_assert!(offset < (1 << OFFSET_BITS));
        PhysAddr(
            (node_bits << (ASID_BITS + VPAGE_BITS + OFFSET_BITS))
                | ((asid as u64) << (VPAGE_BITS + OFFSET_BITS))
                | (vpage << OFFSET_BITS)
                | offset,
        )
    }

    /// The memory node this address lives on.
    pub fn node(self) -> MemNode {
        let node_bits = self.0 >> (ASID_BITS + VPAGE_BITS + OFFSET_BITS);
        match node_bits {
            0 => MemNode::LocalDram,
            255 => MemNode::RemoteDram,
            d => MemNode::CxlDram((d - 1) as u8),
        }
    }

    /// Cache-line address (offset bits below the line dropped).
    pub fn line(self) -> u64 {
        self.0 / CACHELINE as u64
    }

    /// Physical page number.
    pub fn page(self) -> u64 {
        self.0 >> OFFSET_BITS
    }

    /// Byte offset within the page.
    pub fn offset(self) -> u64 {
        self.0 & ((1 << OFFSET_BITS) - 1)
    }
}

/// Per-thread page table: virtual page → node mapping with first-touch
/// placement and migration support.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    asid: u16,
    policy: MemPolicy,
    /// `vpage → Some(node)` once touched.
    pages: Vec<Option<MemNode>>,
    /// Default CXL device for this space's CXL placements.
    cxl_device: u8,
    /// Pages currently resident on CXL (maintained incrementally).
    cxl_pages: usize,
    /// Total mapped pages.
    mapped_pages: usize,
    /// One-entry translation memo: (pre-modulo page number, resolved
    /// in-bounds vpage, node). Pure memoization of the `translate` lookup —
    /// consecutive accesses to the same page (the common case for a stream
    /// of cacheline-granular ops) skip the `%` division and the table load.
    /// Invalidated whenever `pages` is written (`migrate`).
    tlb: Option<(u64, u64, MemNode)>,
}

impl AddressSpace {
    /// Create an address space covering `size_bytes` of virtual memory.
    pub fn new(asid: u16, size_bytes: usize, policy: MemPolicy, cxl_device: u8) -> Self {
        let n_pages = size_bytes.div_ceil(PAGE_SIZE).max(1);
        AddressSpace {
            asid,
            policy,
            pages: vec![None; n_pages],
            cxl_device,
            cxl_pages: 0,
            mapped_pages: 0,
            tlb: None,
        }
    }

    /// Number of virtual pages in the space.
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// Size of the space in bytes.
    pub fn size_bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Pages currently placed on CXL.
    pub fn cxl_resident_pages(&self) -> usize {
        self.cxl_pages
    }

    /// Pages touched at least once.
    pub fn mapped_pages(&self) -> usize {
        self.mapped_pages
    }

    /// First-touch placement: deterministic in the page number so runs are
    /// reproducible. With `Interleave{f}`, page `p` goes to CXL iff
    /// `fract(p * φ) < f` (low-discrepancy, so any contiguous window of the
    /// address space sees ≈f of its pages on CXL).
    fn place(&self, vpage: u64) -> MemNode {
        if matches!(self.policy, MemPolicy::RemoteNuma) {
            return MemNode::RemoteDram;
        }
        let f = self.policy.cxl_fraction();
        if f <= 0.0 {
            return MemNode::LocalDram;
        }
        if f >= 1.0 {
            return MemNode::CxlDram(self.cxl_device);
        }
        const PHI: f64 = 0.618_033_988_749_894_9;
        let x = (vpage as f64 * PHI).fract();
        if x < f {
            MemNode::CxlDram(self.cxl_device)
        } else {
            MemNode::LocalDram
        }
    }

    /// Translate a virtual address, mapping the page on first touch.
    pub fn translate(&mut self, vaddr: u64) -> PhysAddr {
        let raw = vaddr / PAGE_SIZE as u64;
        let offset = vaddr % PAGE_SIZE as u64;
        if let Some((tag, vpage, node)) = self.tlb {
            if tag == raw {
                return PhysAddr::compose(node, self.asid, vpage, offset);
            }
        }
        let vpage = raw % self.pages.len() as u64;
        let node = match self.pages[vpage as usize] {
            Some(n) => n,
            None => {
                let n = self.place(vpage);
                self.pages[vpage as usize] = Some(n);
                self.mapped_pages += 1;
                if n.is_cxl() {
                    self.cxl_pages += 1;
                }
                n
            }
        };
        self.tlb = Some((raw, vpage, node));
        PhysAddr::compose(node, self.asid, vpage, offset)
    }

    /// Current node of a virtual page, if mapped.
    pub fn page_node(&self, vpage: u64) -> Option<MemNode> {
        self.pages.get(vpage as usize).copied().flatten()
    }

    /// Migrate a page to `to`. Returns the previous node, or `None` if the
    /// page was unmapped (in which case it is now mapped to `to`).
    ///
    /// This is the mechanism TPP/Colloid use for promotion (CXL → local) and
    /// demotion (local → CXL).
    pub fn migrate(&mut self, vpage: u64, to: MemNode) -> Option<MemNode> {
        let idx = (vpage as usize) % self.pages.len();
        let prev = self.pages[idx];
        match prev {
            Some(n) if n.is_cxl() && !to.is_cxl() => self.cxl_pages -= 1,
            Some(n) if !n.is_cxl() && to.is_cxl() => self.cxl_pages += 1,
            None => {
                self.mapped_pages += 1;
                if to.is_cxl() {
                    self.cxl_pages += 1;
                }
            }
            _ => {}
        }
        self.pages[idx] = Some(to);
        self.tlb = None;
        prev
    }

    /// The policy this space was created with.
    pub fn policy(&self) -> MemPolicy {
        self.policy
    }

    /// The ASID (thread id) of this space.
    pub fn asid(&self) -> u16 {
        self.asid
    }
}

/// Hash a line address onto one of `n` LLC slices (the proprietary slice
/// hash on real parts; a Fibonacci multiplicative hash here — uniform and
/// deterministic).
pub fn slice_of(line: u64, n_slices: usize) -> usize {
    debug_assert!(n_slices > 0);
    let h = ((line.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 33) as usize;
    // Slice counts are powers of two on every shipped config; `% 2^k` is
    // `& (2^k - 1)`, identical result without the division.
    if n_slices.is_power_of_two() {
        h & (n_slices - 1)
    } else {
        h % n_slices
    }
}

/// Hash a line address onto one of `n` DRAM pseudo-channels.
pub fn channel_of(line: u64, n_channels: usize) -> usize {
    debug_assert!(n_channels > 0);
    let h = ((line.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)) >> 29) as usize;
    if n_channels.is_power_of_two() {
        h & (n_channels - 1)
    } else {
        h % n_channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_addr_round_trips_fields() {
        let a = PhysAddr::compose(MemNode::CxlDram(2), 7, 12345, 321);
        assert_eq!(a.node(), MemNode::CxlDram(2));
        assert_eq!(a.offset(), 321);
        let b = PhysAddr::compose(MemNode::LocalDram, 7, 12345, 321);
        assert_eq!(b.node(), MemNode::LocalDram);
        assert_ne!(a.line(), b.line(), "different nodes must not alias lines");
    }

    #[test]
    fn first_touch_respects_pure_policies() {
        let mut local = AddressSpace::new(0, 1 << 20, MemPolicy::Local, 0);
        let mut cxl = AddressSpace::new(1, 1 << 20, MemPolicy::Cxl, 0);
        for i in 0..256 {
            assert_eq!(local.translate(i * 4096).node(), MemNode::LocalDram);
            assert_eq!(cxl.translate(i * 4096).node(), MemNode::CxlDram(0));
        }
        assert_eq!(local.cxl_resident_pages(), 0);
        assert_eq!(cxl.cxl_resident_pages(), 256);
    }

    #[test]
    fn interleave_fraction_is_respected() {
        let f = 0.3;
        let mut s = AddressSpace::new(2, 4 << 20, MemPolicy::Interleave { cxl_fraction: f }, 0);
        let n = s.n_pages();
        for p in 0..n {
            s.translate(p as u64 * PAGE_SIZE as u64);
        }
        let got = s.cxl_resident_pages() as f64 / n as f64;
        assert!((got - f).abs() < 0.05, "wanted ≈{f}, got {got}");
    }

    #[test]
    fn translate_is_stable_after_first_touch() {
        let mut s = AddressSpace::new(3, 1 << 20, MemPolicy::Interleave { cxl_fraction: 0.5 }, 1);
        let a1 = s.translate(0x1234);
        let a2 = s.translate(0x1234);
        assert_eq!(a1, a2);
    }

    #[test]
    fn migration_updates_residency_and_translation() {
        let mut s = AddressSpace::new(4, 1 << 20, MemPolicy::Cxl, 0);
        let before = s.translate(0);
        assert!(before.node().is_cxl());
        let prev = s.migrate(0, MemNode::LocalDram);
        assert_eq!(prev, Some(MemNode::CxlDram(0)));
        assert_eq!(s.cxl_resident_pages(), 0);
        let after = s.translate(0);
        assert_eq!(after.node(), MemNode::LocalDram);
    }

    #[test]
    fn migrating_unmapped_page_maps_it() {
        let mut s = AddressSpace::new(5, 1 << 20, MemPolicy::Local, 0);
        assert_eq!(s.migrate(3, MemNode::CxlDram(0)), None);
        assert_eq!(s.page_node(3), Some(MemNode::CxlDram(0)));
        assert_eq!(s.cxl_resident_pages(), 1);
    }

    #[test]
    fn slice_and_channel_hashes_cover_all_targets() {
        let mut slices = std::collections::BTreeSet::new();
        let mut chans = std::collections::BTreeSet::new();
        for line in 0..10_000u64 {
            slices.insert(slice_of(line, 8));
            chans.insert(channel_of(line, 4));
        }
        assert_eq!(slices.len(), 8);
        assert_eq!(chans.len(), 4);
    }

    #[test]
    fn slice_hash_is_roughly_uniform() {
        let n = 8;
        let mut counts = vec![0usize; n];
        let samples = 80_000u64;
        for line in 0..samples {
            counts[slice_of(line, n)] += 1;
        }
        let expect = samples as usize / n;
        for c in counts {
            assert!((c as i64 - expect as i64).unsigned_abs() < expect as u64 / 5);
        }
    }
}
