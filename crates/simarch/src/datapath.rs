//! The intra-epoch demand walk: one memory operation crossing the stages.
//!
//! `machine.rs` owns the epoch scheduler (stage graph, drain order, stall
//! guard); this module owns what happens *between* epoch boundaries — a
//! load, store, or prefetch walking L1D → LFB → L2 → mesh → CHA → IMC /
//! UPI / CXL, reserving time on every shared resource it crosses and
//! incrementing the same counters a real SPR/EMR PMU would. A single walk
//! touches several stages within one borrow of the machine, so these paths
//! use the typed module APIs directly rather than the [`crate::module::SimModule`]
//! face the scheduler sees.

use crate::cache::{Eviction, LineState};
use crate::cha::ChaOutcome;
use crate::machine::Machine;
use crate::mem::{MemNode, PhysAddr, CACHELINE, PAGE_SIZE};
use crate::request::{AccessKind, MemOp, ServeLoc};
use pmu::{CoreEvent, L3HitSrc, L3MissSrc, PathClass, RespScenario};

/// Retry budget for poisoned CXL.mem completions before viral containment
/// gives up and accepts the line with a scrub penalty.
const POISON_MAX_RETRIES: u32 = 2;

/// Ops decoded from the trace per ring refill: enough to amortize the
/// virtual `fill_ops` call, few enough that the buffered tail stays small.
const OP_CHUNK: usize = 64;

impl Machine {
    /// Migrate a virtual page of `core`'s address space to `node`,
    /// charging the page-copy traffic (64 line reads at the source + 64
    /// line writes at the destination). Returns false if the core has no
    /// workload.
    pub fn migrate_page(&mut self, core: usize, vpage: u64, node: MemNode) -> bool {
        let now = self.epoch_end;
        let Some(run) = self.cores[core].workload.as_mut() else {
            return false;
        };
        let prev = run.space.migrate(vpage, node);
        if prev == Some(node) {
            return true; // already there, no copy
        }
        // Account the copy (64 line reads at the source, 64 writes at the
        // destination) as *background* traffic: every counter a demand
        // request would touch is incremented, but the copies are served from
        // idle bandwidth rather than the demand FIFOs — kernels rate-limit
        // migration precisely so it does not head-of-line-block applications.
        let lines = (PAGE_SIZE / CACHELINE) as u64;
        for i in 0..lines {
            let fake_line = vpage * lines + i;
            match prev {
                Some(MemNode::CxlDram(d)) => {
                    let d = d as usize;
                    self.ports[d].background_read(&mut self.pmu.m2ps[d], &mut self.pmu.cxls[d]);
                }
                Some(MemNode::RemoteDram) | None => {}
                Some(MemNode::LocalDram) => {
                    self.imc.read(fake_line, now, &mut self.pmu.imcs);
                }
            }
            match node {
                MemNode::CxlDram(d) => {
                    let d = d as usize;
                    self.ports[d].background_write(&mut self.pmu.m2ps[d], &mut self.pmu.cxls[d]);
                }
                MemNode::RemoteDram => {}
                MemNode::LocalDram => {
                    self.imc.write(fake_line, now, &mut self.pmu.imcs);
                }
            }
        }
        true
    }

    // -----------------------------------------------------------------
    // Core stepping
    // -----------------------------------------------------------------

    pub(crate) fn step_core(&mut self, c: usize) {
        let Some(op) = self.next_op(c) else {
            self.cores[c].done = true;
            return;
        };
        {
            let core = &mut self.cores[c];
            core.time += op.work as u64;
            core.ops_executed += 1;
            core.truth.ops += 1;
        }
        self.pmu.cores[c].add(CoreEvent::InstRetired, op.work as u64 + 1);
        // Translate and record page heat.
        let paddr = {
            let core = &mut self.cores[c];
            let run = core.workload.as_mut().expect("runnable core has workload");
            run.space.translate(op.vaddr)
        };
        let vpage = op.vaddr / PAGE_SIZE as u64;
        // Run-length fast path: consecutive ops to the same page bump a
        // register instead of walking the BTreeMap every op.
        let key = (c as u16, vpage);
        match &mut self.heat_run {
            Some((k, n)) if *k == key => *n += 1,
            _ => {
                self.flush_heat_run();
                self.heat_run = Some((key, 1));
            }
        }

        match op.kind {
            AccessKind::Load { dependent } => {
                self.cores[c].truth.loads += 1;
                self.do_load(c, paddr, dependent, PathClass::Drd);
            }
            AccessKind::SwPrefetch => {
                self.cores[c].truth.swpfs += 1;
                self.do_load(c, paddr, false, PathClass::SwPf);
            }
            AccessKind::Store => {
                self.cores[c].truth.stores += 1;
                self.do_store(c, paddr);
            }
        }
    }

    /// Core `c`'s next op from its ring, refilled [`OP_CHUNK`] ops at a
    /// time from the trace when it runs dry. `None` means the trace
    /// finished. Traces are pure generators, so decoding ahead never
    /// changes which op executes next.
    // The per-op pull.
    fn next_op(&mut self, c: usize) -> Option<MemOp> {
        if let Some(op) = self.rings[c].pop() {
            return Some(op);
        }
        let Machine { rings, cores, .. } = self;
        let run = cores[c].workload.as_mut()?;
        let ring = &mut rings[c];
        if run.trace.fill_ops(ring, OP_CHUNK) == 0 {
            return None;
        }
        ring.pop()
    }

    /// Demand load / software prefetch walk. `path` is `Drd` or `SwPf`.
    fn do_load(&mut self, c: usize, paddr: PhysAddr, dependent: bool, path: PathClass) {
        let line = paddr.line();
        let node = paddr.node();
        let demand = path == PathClass::Drd;
        let t_issue = self.cores[c].time;

        // ---- L1D lookup -------------------------------------------------
        if let Some(ready_at) = self.cores[c].l1d.lookup(line).map(|l| l.ready_at) {
            let bank = &mut self.pmu.cores[c];
            if ready_at <= t_issue {
                if demand {
                    bank.inc(CoreEvent::MemLoadRetiredL1Hit);
                    bank.add(
                        CoreEvent::MemTransRetiredLoadLatency,
                        self.cfg.l1d.hit_latency,
                    );
                    bank.inc(CoreEvent::MemTransRetiredLoadCount);
                }
                if dependent {
                    self.cores[c].time += self.cfg.l1d.hit_latency;
                }
                self.cores[c]
                    .truth
                    .record_served(path, ServeLoc::L1d, self.cfg.l1d.hit_latency);
                return;
            }
            // Present but still filling: the load misses L1 (data not yet
            // there) but merges into the in-flight fill — an LFB hit.
            if demand {
                bank.inc(CoreEvent::MemLoadRetiredL1Miss);
                bank.inc(CoreEvent::MemLoadRetiredL1FbHit);
            }
            self.finish_load(
                c,
                t_issue,
                ready_at,
                ServeLoc::Lfb,
                false,
                false,
                dependent,
                demand,
                node,
                path,
                0,
            );
            return;
        }

        // ---- L1D miss ---------------------------------------------------
        if demand {
            self.pmu.cores[c].inc(CoreEvent::MemLoadRetiredL1Miss);
        }
        self.train_prefetcher(c, line, node, t_issue);
        // Merge into an in-flight fill if one exists.
        if let Some(f) = self.cores[c].inflight.get(line) {
            if f > t_issue {
                if demand {
                    self.pmu.cores[c].inc(CoreEvent::MemLoadRetiredL1FbHit);
                }
                self.finish_load(
                    c,
                    t_issue,
                    f,
                    ServeLoc::Lfb,
                    false,
                    false,
                    dependent,
                    demand,
                    node,
                    path,
                    0,
                );
                return;
            }
        }
        // Allocate an LFB entry; block if full (the paper's fb_full stalls).
        let adm = self.cores[c].lfb.acquire(t_issue);
        if adm.blocked > 0 {
            self.pmu.cores[c].add(CoreEvent::L1dPendMissFbFull, adm.blocked);
            self.cores[c].time = adm.at;
        }
        let blocked = adm.blocked;
        let t = adm.at.max(t_issue);

        // L1 next-line prefetch trigger: fires only on an ascending miss
        // pair (line == previous miss + 1) and stays within the page.
        let ascending = line == self.cores[c].last_l1_miss_line.wrapping_add(1);
        self.cores[c].last_l1_miss_line = line;
        let l1pf = crate::prefetch::l1_next_line(&self.cfg.prefetch, line)
            .filter(|_| demand && ascending)
            .filter(|_| {
                line % (PAGE_SIZE / CACHELINE) as u64 != (PAGE_SIZE / CACHELINE) as u64 - 1
            });

        // ---- L2 lookup --------------------------------------------------
        let t_l2 = t + self.cfg.l1d.tag_latency;
        let (finish, loc, missed_l2, missed_l3) =
            self.l2_and_beyond(c, line, node, path, false, t_l2);

        // Fill L1 + register in-flight.
        self.fill_l1(c, line, LineState::Exclusive, finish, t);
        self.cores[c].inflight.insert(line, finish);
        self.cores[c].lfb.commit(finish);

        self.finish_load(
            c, t_issue, finish, loc, missed_l2, missed_l3, dependent, demand, node, path, blocked,
        );

        // Fire the L1 prefetcher after the demand is fully accounted.
        if let Some(pf_line) = l1pf {
            self.issue_l1_prefetch(c, pf_line, node, t);
        }
    }

    /// L2 lookup and, on miss, the offcore walk. Returns
    /// `(finish_at_core, serve_loc, missed_l2, missed_l3)`.
    fn l2_and_beyond(
        &mut self,
        c: usize,
        line: u64,
        node: MemNode,
        path: PathClass,
        rfo: bool,
        t_l2: u64,
    ) -> (u64, ServeLoc, bool, bool) {
        let demand = matches!(path, PathClass::Drd | PathClass::Rfo | PathClass::Dwr);
        {
            let bank = &mut self.pmu.cores[c];
            bank.inc(CoreEvent::L2RqstsReferences);
            if demand {
                bank.inc(CoreEvent::L2RqstsAllDemandReferences);
            }
            match path {
                PathClass::Drd => bank.inc(CoreEvent::L2RqstsAllDemandDataRd),
                PathClass::Rfo | PathClass::Dwr | PathClass::HwPfL2Rfo => {
                    bank.inc(CoreEvent::L2RqstsAllRfo)
                }
                _ => {}
            }
        }
        // A hit that needs ownership it holds takes the line Modified in
        // the same lookup.
        let l2_hit = self.cores[c].l2.lookup(line).map(|l| {
            let writable_ok = !rfo || l.state.writable();
            if rfo && writable_ok {
                l.state = LineState::Modified;
            }
            (l.ready_at, writable_ok)
        });
        match l2_hit {
            Some((ready_at, true)) => {
                let fin = ready_at.max(t_l2 + self.cfg.l2.hit_latency);
                let bank = &mut self.pmu.cores[c];
                match path {
                    PathClass::Drd => {
                        bank.inc(CoreEvent::MemLoadRetiredL2Hit);
                        bank.inc(CoreEvent::L2RqstsDemandDataRdHit);
                    }
                    PathClass::SwPf => bank.inc(CoreEvent::L2RqstsSwpfHit),
                    PathClass::Rfo | PathClass::Dwr => {
                        bank.inc(CoreEvent::L2RqstsRfoHit);
                        bank.inc(CoreEvent::MemStoreRetiredL2Hit);
                    }
                    _ => bank.inc(CoreEvent::L2RqstsHwpfHit),
                }
                (fin, ServeLoc::L2, false, false)
            }
            Some((_, false)) => {
                // Present but not writable: ownership upgrade goes offcore.
                self.count_l2_miss(c, path);
                let (fin, loc, missed_l3) =
                    self.offcore_access(c, line, node, path, true, t_l2 + self.cfg.l2.tag_latency);
                (fin, loc, true, missed_l3)
            }
            None => {
                self.count_l2_miss(c, path);
                let (fin, loc, missed_l3) =
                    self.offcore_access(c, line, node, path, rfo, t_l2 + self.cfg.l2.tag_latency);
                // Fill L2.
                let state = if rfo {
                    LineState::Modified
                } else {
                    LineState::Exclusive
                };
                self.fill_l2(c, line, state, fin, t_l2);
                (fin, loc, true, missed_l3)
            }
        }
    }

    /// Train the L2 stream prefetcher and issue what it produces. Real
    /// prefetchers observe the demand-miss stream itself — including misses
    /// that merge into in-flight fills — so this is called from the L1D
    /// miss path, not from the L2 lookup (a merged miss never reaches L2).
    pub(crate) fn train_prefetcher(&mut self, c: usize, line: u64, node: MemNode, at: u64) {
        // Reuse the machine-owned scratch: `issue_l2_prefetch` re-borrows
        // `self`, so the buffer is moved out for the duration of the loop.
        let mut buf = std::mem::take(&mut self.pf_scratch);
        buf.clear();
        self.cores[c].prefetcher.observe_into(line, &mut buf);
        for &pf_line in &buf {
            self.issue_l2_prefetch(c, pf_line, node, at);
        }
        self.pf_scratch = buf;
    }

    pub(crate) fn count_l2_miss(&mut self, c: usize, path: PathClass) {
        let bank = &mut self.pmu.cores[c];
        bank.inc(CoreEvent::L2RqstsMiss);
        bank.inc(CoreEvent::OffcoreRequestsAllRequests);
        match path {
            PathClass::Drd => {
                bank.inc(CoreEvent::MemLoadRetiredL2Miss);
                bank.inc(CoreEvent::L2RqstsDemandDataRdMiss);
                bank.inc(CoreEvent::L2RqstsAllDemandMiss);
                bank.inc(CoreEvent::OffcoreRequestsDataRd);
                bank.inc(CoreEvent::OffcoreRequestsDemandDataRd);
            }
            PathClass::SwPf => {
                bank.inc(CoreEvent::L2RqstsSwpfMiss);
                bank.inc(CoreEvent::OffcoreRequestsDataRd);
            }
            PathClass::Rfo | PathClass::Dwr => {
                bank.inc(CoreEvent::L2RqstsRfoMiss);
                bank.inc(CoreEvent::L2RqstsAllDemandMiss);
            }
            _ => {
                bank.inc(CoreEvent::L2RqstsHwpfMiss);
                bank.inc(CoreEvent::OffcoreRequestsDataRd);
            }
        }
    }

    /// The uncore walk: mesh → CHA (LLC + SF + TOR) → peer / IMC / CXL.
    /// Returns `(finish_at_core, serve_loc, missed_l3)`.
    pub(crate) fn offcore_access(
        &mut self,
        c: usize,
        line: u64,
        node: MemNode,
        path: PathClass,
        rfo: bool,
        depart: u64,
    ) -> (u64, ServeLoc, bool) {
        // Super-queue admission bounds offcore demand MLP; hardware
        // prefetches occupy their own XQ window instead.
        let is_pf = matches!(
            path,
            PathClass::HwPfL1 | PathClass::HwPfL2Drd | PathClass::HwPfL2Rfo
        );
        let adm = if is_pf {
            self.cores[c].pfq.acquire(depart)
        } else {
            self.cores[c].superq.acquire(depart)
        };
        let depart = adm.at;
        let mesh = self.cfg.mesh_latency;
        let arrive_cha = depart + mesh;
        let outcome = self
            .cha
            .lookup(c, line, rfo, arrive_cha, &mut self.pmu.chas[0]);
        let (finish_at_cha, loc, missed_l3) = match outcome {
            ChaOutcome::LlcHit {
                finish,
                snc_distant,
            } => {
                if rfo {
                    self.invalidate_peers(c, line);
                }
                let loc = if snc_distant {
                    ServeLoc::SncLlc
                } else {
                    ServeLoc::LocalLlc
                };
                (finish, loc, false)
            }
            ChaOutcome::Miss { depart: d } => {
                let (fin, loc) = self.memory_access(c, line, node, rfo, d);
                let state = if rfo {
                    LineState::Modified
                } else {
                    LineState::Exclusive
                };
                self.cha_fill(c, line, state, fin, depart);
                (fin, loc, true)
            }
        };
        // TOR accounting: the entry lives from CHA arrival until the data
        // heads back to the core.
        self.cha.account_tor(
            &mut self.pmu.chas[0],
            path,
            loc,
            node,
            arrive_cha,
            finish_at_cha,
        );
        let finish = finish_at_cha + mesh;
        if is_pf {
            self.cores[c].pfq.commit(finish);
        } else {
            self.cores[c].superq.commit(finish);
        }

        // Core-scope offcore-response (ocr.*) and L3 retired counters.
        let bank = &mut self.pmu.cores[c];
        for &scen in resp_scens(loc) {
            bank.inc(CoreEvent::ocr(path, scen));
        }
        bank.inc(CoreEvent::LongestLatCacheReference);
        if path == PathClass::Drd {
            match loc {
                ServeLoc::LocalLlc => {
                    bank.inc(CoreEvent::MemLoadRetiredL3Hit);
                    bank.inc(CoreEvent::MemLoadL3HitRetired(L3HitSrc::XsnpNone));
                }
                ServeLoc::SncLlc => {
                    bank.inc(CoreEvent::MemLoadRetiredL3Hit);
                    bank.inc(CoreEvent::MemLoadL3HitRetired(L3HitSrc::XsnpMiss));
                }
                ServeLoc::PeerCache => {
                    bank.inc(CoreEvent::MemLoadRetiredL3Hit);
                    bank.inc(CoreEvent::MemLoadL3HitRetired(L3HitSrc::XsnpHitm));
                }
                ServeLoc::LocalDram => {
                    bank.inc(CoreEvent::MemLoadRetiredL3Miss);
                    bank.inc(CoreEvent::LongestLatCacheMiss);
                    bank.inc(CoreEvent::MemLoadL3MissRetired(L3MissSrc::LocalDram));
                }
                ServeLoc::RemoteDram => {
                    bank.inc(CoreEvent::MemLoadRetiredL3Miss);
                    bank.inc(CoreEvent::LongestLatCacheMiss);
                    bank.inc(CoreEvent::MemLoadL3MissRetired(L3MissSrc::RemoteDram));
                }
                ServeLoc::CxlDram => {
                    bank.inc(CoreEvent::MemLoadRetiredL3Miss);
                    bank.inc(CoreEvent::LongestLatCacheMiss);
                    bank.inc(CoreEvent::MemLoadL3MissRetired(L3MissSrc::RemoteDram));
                }
                _ => {}
            }
        }
        (finish, loc, missed_l3)
    }

    /// Memory access below the LLC: IMC for local lines, the CXL port for
    /// device lines. Returns `(finish_at_cha, serve_loc)`.
    fn memory_access(
        &mut self,
        c: usize,
        line: u64,
        node: MemNode,
        _rfo: bool,
        depart_cha: u64,
    ) -> (u64, ServeLoc) {
        let mesh = self.cfg.mesh_latency;
        match node {
            MemNode::LocalDram => {
                let fin = self.imc.read(line, depart_cha + mesh, &mut self.pmu.imcs);
                self.cores[c].truth.add_queue_delay(
                    "IMC",
                    fin.saturating_sub(depart_cha + mesh + self.cfg.dram_latency),
                );
                (fin + mesh, ServeLoc::LocalDram)
            }
            MemNode::RemoteDram => {
                // Cross the UPI link, pay the remote socket's DRAM latency,
                // come back. The remote socket's IMC counters belong to the
                // other socket's PMU and are not visible here.
                let svc = self.remote.serve(depart_cha + mesh);
                self.cores[c]
                    .truth
                    .add_queue_delay("UPI", svc.start.saturating_sub(depart_cha + mesh));
                (svc.finish + mesh, ServeLoc::RemoteDram)
            }
            MemNode::CxlDram(d) => {
                let d = d as usize;
                let mut comp = self.ports[d].mem_load(
                    depart_cha + mesh,
                    &mut self.pmu.m2ps[d],
                    &mut self.pmu.cxls[d],
                );
                self.cores[c].truth.add_queue_delay("CXL", comp.device_wait);
                // Poisoned DRS: retry the load as a complete new CXL.mem
                // transaction (the retry walks the full Req→CAS→DRS chain,
                // so every conservation equality still balances). Bounded
                // retries; if poison persists, viral containment applies —
                // accept the line after one media-latency scrub penalty
                // instead of retrying forever.
                let mut retries = 0;
                while comp.poison && retries < POISON_MAX_RETRIES {
                    retries += 1;
                    self.poison_retries += 1;
                    comp = self.ports[d].mem_load(
                        comp.finish,
                        &mut self.pmu.m2ps[d],
                        &mut self.pmu.cxls[d],
                    );
                    self.cores[c].truth.add_queue_delay("CXL", comp.device_wait);
                }
                let fin = if comp.poison {
                    self.poisons_contained += 1;
                    comp.finish + self.cfg.cxl_media_latency
                } else {
                    comp.finish
                };
                (fin + mesh, ServeLoc::CxlDram)
            }
        }
    }

    /// Install a line into the LLC, handling the eviction chain (owners of
    /// the victim are back-invalidated, a dirty victim goes to memory).
    ///
    /// `now` is the triggering request's departure time: eviction traffic is
    /// injected at `now`, not at the fill-completion time, so shared-server
    /// arrivals stay (near-)monotone in time — a future-timestamped arrival
    /// would drag the FIFO horizon forward and falsely serialise every
    /// later request behind it.
    fn cha_fill(&mut self, c: usize, line: u64, state: LineState, ready_at: u64, now: u64) {
        if let Some(ev) = self.cha.fill(c, line, state, ready_at) {
            self.evict_from_llc(ev, now);
        }
    }

    /// An LLC victim leaves every private cache that holds it (inclusive
    /// LLC); a dirty one is written back to its home memory.
    fn evict_from_llc(&mut self, ev: Eviction<u64>, at: u64) {
        let line = ev.line_addr;
        self.back_invalidate(line, ev.payload);
        if ev.state != LineState::Modified {
            return;
        }
        // The "actual CXL.mem store" of §2.2 path #2.
        match line_node(line) {
            MemNode::LocalDram => {
                self.imc.write(line, at, &mut self.pmu.imcs);
            }
            MemNode::RemoteDram => {
                self.remote.serve(at);
            }
            MemNode::CxlDram(d) => {
                let d = (d as usize).min(self.ports.len() - 1);
                self.ports[d].mem_store(at, &mut self.pmu.m2ps[d], &mut self.pmu.cxls[d]);
            }
        }
    }

    /// Invalidate every peer copy (RFO hitting an LLC line).
    fn invalidate_peers(&mut self, requester: usize, line: u64) {
        let peers = self.cha.take_owners(line, !(1 << requester));
        self.back_invalidate(line, peers);
    }

    /// Drop `line` from the L1D and L2 of every core in the `cores` mask.
    fn back_invalidate(&mut self, line: u64, mut cores: u64) {
        while cores != 0 {
            let o = cores.trailing_zeros() as usize;
            cores &= cores - 1;
            self.cores[o].l1d.invalidate(line);
            self.cores[o].l2.invalidate(line);
        }
    }

    /// Fill L1D, spilling dirty victims into L2 (and onward). `now` times
    /// the spill traffic (see [`Self::cha_fill`]).
    pub(crate) fn fill_l1(
        &mut self,
        c: usize,
        line: u64,
        state: LineState,
        ready_at: u64,
        now: u64,
    ) {
        let ev = self.cores[c].l1d.insert(line, state, ready_at);
        if let Some(Eviction {
            line_addr, state, ..
        }) = ev
        {
            self.pmu.cores[c].inc(CoreEvent::L1dReplacement);
            if state == LineState::Modified {
                // Dirty spill into L2 (write-back cache).
                let ev2 = self.cores[c]
                    .l2
                    .insert(line_addr, LineState::Modified, ready_at);
                if let Some(e2) = ev2 {
                    self.spill_l2_victim(c, e2, now);
                }
            }
        }
    }

    /// Fill L2, spilling victims toward the LLC.
    pub(crate) fn fill_l2(
        &mut self,
        c: usize,
        line: u64,
        state: LineState,
        ready_at: u64,
        now: u64,
    ) {
        let ev = self.cores[c].l2.insert(line, state, ready_at);
        if let Some(e) = ev {
            self.spill_l2_victim(c, e, now);
        }
    }

    fn spill_l2_victim(&mut self, c: usize, ev: Eviction, at: u64) {
        let dirty = ev.state == LineState::Modified;
        self.cha.take_owners(ev.line_addr, 1 << c);
        if dirty {
            self.pmu.cores[c].inc(CoreEvent::OcrModifiedWriteAnyResponse);
            let (_fin, llc_ev) = self.cha.writeback(
                ev.line_addr,
                true,
                at + self.cfg.mesh_latency,
                &mut self.pmu.chas[0],
            );
            if let Some(e) = llc_ev {
                self.evict_from_llc(e, at);
            }
        }
    }

    /// L1 next-line prefetch: cheap fill from L2 if present, else a full
    /// offcore HWPF.L1 walk.
    pub(crate) fn issue_l1_prefetch(&mut self, c: usize, line: u64, node: MemNode, at: u64) {
        if self.cores[c].l1d.peek(line).is_some() {
            return;
        }
        if let Some(l) = self.cores[c].l2.lookup(line) {
            let ready = l.ready_at.max(at + self.cfg.l2.hit_latency);
            self.fill_l1(c, line, LineState::Exclusive, ready, at);
            return;
        }
        // Drop the prefetch when its window is exhausted.
        if self.cores[c].pfq.outstanding(at) + 1 >= self.cfg.pfq_entries {
            return;
        }
        let (fin, _loc, _m3) = self.offcore_access(c, line, node, PathClass::HwPfL1, false, at);
        self.fill_l2(c, line, LineState::Exclusive, fin, at);
        self.fill_l1(c, line, LineState::Exclusive, fin, at);
    }

    /// L2 stream prefetch (HWPF.L2 DRd path).
    fn issue_l2_prefetch(&mut self, c: usize, line: u64, node: MemNode, at: u64) {
        if self.cores[c].l2.peek(line).is_some() || self.cores[c].inflight.contains(line) {
            self.pmu.cores[c].inc(CoreEvent::L2RqstsHwpfHit);
            return;
        }
        if self.cores[c].pfq.outstanding(at) + 1 >= self.cfg.pfq_entries {
            return; // dropped: prefetch window full
        }
        self.count_l2_miss(c, PathClass::HwPfL2Drd);
        let (fin, _loc, _m3) = self.offcore_access(c, line, node, PathClass::HwPfL2Drd, false, at);
        self.fill_l2(c, line, LineState::Exclusive, fin, at);
        self.cores[c].inflight.insert(line, fin);
    }

    /// Common tail of every load: stall accounting and time advance.
    /// `blocked` carries window-full stall cycles already spent before the
    /// walk; hardware attributes those to the same nested stall counters
    /// (the core was stalled while a miss of this depth was outstanding).
    #[expect(
        clippy::too_many_arguments,
        reason = "the load tail reads every outcome of the walk"
    )]
    pub(crate) fn finish_load(
        &mut self,
        c: usize,
        t_issue: u64,
        finish: u64,
        loc: ServeLoc,
        missed_l2: bool,
        missed_l3: bool,
        dependent: bool,
        demand: bool,
        node: MemNode,
        path: PathClass,
        blocked: u64,
    ) {
        let latency = finish.saturating_sub(t_issue);
        self.cores[c].truth.record_served(path, loc, latency);
        {
            let core = &mut self.cores[c];
            core.cov_l1d_miss.add(t_issue, finish);
            if missed_l2 {
                core.cov_l2_miss.add(t_issue, finish);
            }
            core.cov_oro_data_rd.add(t_issue, finish);
            if demand {
                core.cov_oro_demand_rd.add(t_issue, finish);
            }
        }
        let bank = &mut self.pmu.cores[c];
        if demand {
            bank.add(CoreEvent::MemTransRetiredLoadLatency, latency);
            bank.inc(CoreEvent::MemTransRetiredLoadCount);
            bank.add(CoreEvent::OroDataRd, latency);
            bank.add(CoreEvent::OroDemandDataRd, latency);
            if missed_l3 {
                bank.add(CoreEvent::OroL3MissDemandDataRd, latency);
            }
        }
        let stall = blocked + if dependent && demand { latency } else { 0 };
        if stall > 0 {
            let bank = &mut self.pmu.cores[c];
            bank.add(CoreEvent::MemoryActivityStallsL1dMiss, stall);
            if missed_l2 {
                bank.add(CoreEvent::MemoryActivityStallsL2Miss, stall);
            }
            if missed_l3 {
                bank.add(CoreEvent::CycleActivityStallsL3Miss, stall);
            }
            let core = &mut self.cores[c];
            if node.is_cxl() && loc == ServeLoc::CxlDram {
                core.truth.stall_cxl += stall;
            } else {
                core.truth.stall_local += stall;
            }
        }
        if dependent && demand {
            self.cores[c].time = finish;
        }
    }

    /// Demand store: SB admission, then L1 write or RFO.
    fn do_store(&mut self, c: usize, paddr: PhysAddr) {
        let line = paddr.line();
        let node = paddr.node();
        let t_issue = self.cores[c].time;

        // SB admission; blocking here is the paper's Figure 2-a experiment.
        let adm = self.cores[c].sb.acquire(t_issue);
        if adm.blocked > 0 {
            let loads_outstanding = self.cores[c].lfb.outstanding(t_issue) > 0;
            let bank = &mut self.pmu.cores[c];
            if loads_outstanding {
                bank.add(CoreEvent::ResourceStallsSb, adm.blocked);
            } else {
                bank.add(CoreEvent::ExeActivityBoundOnStores, adm.blocked);
            }
            self.cores[c].time = adm.at;
        }
        let t = adm.at.max(t_issue);

        // Store coalescing: an in-flight SB entry for the same line absorbs
        // the store.
        if let Some(f) = self.cores[c].sb_inflight.get(line) {
            if f > t {
                self.cores[c].sb.commit(f);
                self.cores[c]
                    .truth
                    .record_served(PathClass::Dwr, ServeLoc::StoreBuffer, 0);
                let bank = &mut self.pmu.cores[c];
                bank.inc(CoreEvent::MemTransRetiredStoreCount);
                return;
            }
        }

        // L1D write hit with ownership?
        let l1_owned = self.cores[c].l1d.lookup(line).and_then(|l| {
            l.state.writable().then(|| {
                l.state = LineState::Modified;
                l.ready_at
            })
        });
        let drain = match l1_owned {
            Some(ready_at) => {
                let d = ready_at.max(t) + self.cfg.l1d.hit_latency;
                self.cores[c]
                    .truth
                    .record_served(PathClass::Dwr, ServeLoc::L1d, d - t);
                d
            }
            None => {
                // RFO: gain exclusive ownership through the hierarchy
                // (§2.2 path #3 — same walk as a DRd, from the L1D).
                self.train_prefetcher(c, line, node, t);
                let core = &mut self.cores[c];
                core.cov_oro_demand_rfo.add(t, t + 1);
                let (fin, _loc, _missed_l2, _missed_l3) = self.l2_and_beyond(
                    c,
                    line,
                    node,
                    PathClass::Rfo,
                    true,
                    t + self.cfg.l1d.tag_latency,
                );
                self.fill_l1(c, line, LineState::Modified, fin, t);
                self.cores[c].cov_oro_demand_rfo.add(t, fin);
                self.cores[c]
                    .truth
                    .record_served(PathClass::Dwr, ServeLoc::L1d, fin - t);
                fin + self.cfg.l1d.hit_latency
            }
        };
        {
            let core = &mut self.cores[c];
            core.sb.commit(drain);
            core.sb_inflight.insert(line, drain);
        }
        let bank = &mut self.pmu.cores[c];
        bank.add(CoreEvent::MemTransRetiredStoreSample, drain - t);
        bank.inc(CoreEvent::MemTransRetiredStoreCount);
    }
}

/// Map a serve location onto the `ocr.*` response scenarios it satisfies.
/// Static slices: this runs once per offcore access, so it must not
/// allocate (see PERFORMANCE.md).
fn resp_scens(loc: ServeLoc) -> &'static [RespScenario] {
    match loc {
        ServeLoc::LocalLlc | ServeLoc::PeerCache => {
            &[RespScenario::AnyResponse, RespScenario::L3HitSnoopLocal]
        }
        ServeLoc::SncLlc => &[RespScenario::AnyResponse, RespScenario::SncDistantL3],
        ServeLoc::RemoteLlc => &[
            RespScenario::AnyResponse,
            RespScenario::MissLocalCaches,
            RespScenario::RemoteCacheHit,
        ],
        ServeLoc::LocalDram => &[
            RespScenario::AnyResponse,
            RespScenario::MissLocalCaches,
            RespScenario::LocalDram,
        ],
        ServeLoc::RemoteDram => &[
            RespScenario::AnyResponse,
            RespScenario::MissLocalCaches,
            RespScenario::RemoteDram,
        ],
        ServeLoc::CxlDram => &[
            RespScenario::AnyResponse,
            RespScenario::MissLocalCaches,
            RespScenario::CxlDram,
        ],
        _ => &[RespScenario::AnyResponse],
    }
}

/// Recover the home node of a line address (the node field travels in the
/// upper bits of every [`PhysAddr`]).
fn line_node(line: u64) -> MemNode {
    PhysAddr(line * CACHELINE as u64).node()
}

#[cfg(test)]
mod tests {
    use crate::cache::LineState;
    use crate::config::{MachineConfig, MemPolicy};
    use crate::invariants::assert_invariants;
    use crate::machine::Machine;
    use crate::mem::{AddressSpace, MemNode, CACHELINE, PAGE_SIZE};
    use crate::request::MemOp;
    use crate::trace::{SeqReadTrace, SeqRwTrace, TraceSource, Workload};
    use pmu::{ChaEvent, CoreEvent, CxlEvent, ImcEvent, M2pEvent, PathClass, TorDrdScen};
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn run_one(policy: MemPolicy, ops: usize) -> (Machine, pmu::SystemSnapshot) {
        let mut m = Machine::new(MachineConfig::tiny());
        m.attach(
            0,
            Workload::new("t", Box::new(SeqReadTrace::new(1 << 20, ops)), policy),
        );
        let mut last = None;
        for _ in 0..200 {
            let e = m.run_epoch();
            let done = e.all_done;
            last = Some(e.snapshot);
            if done {
                break;
            }
        }
        (m, last.unwrap())
    }

    #[test]
    fn local_run_uses_imc_not_cxl() {
        let (_m, snap) = run_one(MemPolicy::Local, 20_000);
        let cas: u64 = snap
            .pmu
            .imcs
            .iter()
            .map(|b| b.read(ImcEvent::CasCountRd))
            .sum();
        let cxl: u64 = snap
            .pmu
            .cxls
            .iter()
            .map(|b| b.read(CxlEvent::RxcPackBufInsertsMemReq))
            .sum();
        assert!(cas > 0, "local reads must hit the IMC");
        assert_eq!(cxl, 0, "local run must not touch the CXL device");
    }

    #[test]
    fn cxl_run_bypasses_imc_reads() {
        let (_m, snap) = run_one(MemPolicy::Cxl, 20_000);
        let cxl: u64 = snap
            .pmu
            .cxls
            .iter()
            .map(|b| b.read(CxlEvent::RxcPackBufInsertsMemReq))
            .sum();
        let bl: u64 = snap
            .pmu
            .m2ps
            .iter()
            .map(|b| b.read(M2pEvent::TxcInsertsBl))
            .sum();
        assert!(cxl > 0, "cxl run must reach the device");
        assert_eq!(cxl, bl, "every DRS must produce one M2PCIe BL entry");
        let cas: u64 = snap
            .pmu
            .imcs
            .iter()
            .map(|b| b.read(ImcEvent::CasCountRd))
            .sum();
        assert_eq!(
            cas, 0,
            "paper Fig 4-a: CXL traffic bypasses the IMC read path"
        );
    }

    #[test]
    fn tor_classifies_cxl_targets() {
        let (_m, snap) = run_one(MemPolicy::Cxl, 20_000);
        let drd_cxl = snap.pmu.chas[0].read(ChaEvent::TorInsertsIaDrd(TorDrdScen::MissCxl));
        let drd_ddr = snap.pmu.chas[0].read(ChaEvent::TorInsertsIaDrd(TorDrdScen::MissLocalDdr));
        assert!(drd_cxl > 0);
        assert_eq!(drd_ddr, 0);
    }

    #[test]
    fn l1_hits_dominate_small_working_set() {
        let mut m = Machine::new(MachineConfig::tiny());
        // 2 KiB working set fits L1D (4 KiB in tiny config).
        m.attach(
            0,
            Workload::new(
                "hot",
                Box::new(SeqReadTrace::new(2048, 50_000)),
                MemPolicy::Local,
            ),
        );
        let mut snap = None;
        for _ in 0..200 {
            let e = m.run_epoch();
            if e.all_done {
                snap = Some(e.snapshot);
                break;
            }
        }
        let snap = snap.unwrap();
        let hits = snap.pmu.cores[0].read(CoreEvent::MemLoadRetiredL1Hit);
        let misses = snap.pmu.cores[0].read(CoreEvent::MemLoadRetiredL1Miss);
        assert!(hits > misses * 50, "hits {hits} misses {misses}");
    }

    #[test]
    fn cxl_is_slower_than_local_end_to_end() {
        let (_ml, sl) = run_one(MemPolicy::Local, 30_000);
        let (_mc, sc) = run_one(MemPolicy::Cxl, 30_000);
        // Same work, so the CXL run must take more epochs ⇒ larger final cycle.
        assert!(
            sc.cycle > sl.cycle,
            "cxl run finished in {} cycles, local in {}",
            sc.cycle,
            sl.cycle
        );
    }

    #[test]
    fn stores_drive_writeback_traffic() {
        let mut m = Machine::new(MachineConfig::tiny());
        m.attach(
            0,
            Workload::new(
                "wr",
                Box::new(SeqRwTrace::new(1 << 20, 30_000, 2)),
                MemPolicy::Cxl,
            ),
        );
        let mut snap = None;
        for _ in 0..400 {
            let e = m.run_epoch();
            if e.all_done {
                snap = Some(e.snapshot);
                break;
            }
        }
        let snap = snap.unwrap();
        let rwd: u64 = snap
            .pmu
            .cxls
            .iter()
            .map(|b| b.read(CxlEvent::RxcPackBufInsertsMemData))
            .sum();
        assert!(
            rwd > 0,
            "dirty evictions must become CXL.mem stores (M2S RwD)"
        );
        let ak: u64 = snap
            .pmu
            .m2ps
            .iter()
            .map(|b| b.read(M2pEvent::TxcInsertsAk))
            .sum();
        assert_eq!(rwd, ak, "every NDR yields an M2PCIe AK entry");
    }

    #[test]
    fn migration_moves_traffic_between_nodes() {
        let mut m = Machine::new(MachineConfig::tiny());
        m.attach(
            0,
            Workload::new(
                "t",
                Box::new(SeqReadTrace::new(1 << 16, 200_000)),
                MemPolicy::Cxl,
            ),
        );
        m.run_epoch();
        let before = m.cxl_resident_pages(0);
        assert!(before > 0);
        for p in 0..(1 << 16) / PAGE_SIZE as u64 {
            m.migrate_page(0, p, MemNode::LocalDram);
        }
        assert_eq!(m.cxl_resident_pages(0), 0);
        // After migration new fills come from local DRAM.
        let cas_before: u64 = m
            .pmu
            .imcs
            .iter()
            .map(|b| b.read(ImcEvent::CasCountRd))
            .sum();
        m.run_epoch();
        let cas_after: u64 = m
            .pmu
            .imcs
            .iter()
            .map(|b| b.read(ImcEvent::CasCountRd))
            .sum();
        assert!(
            cas_after > cas_before,
            "post-migration reads must hit the IMC"
        );
    }

    #[test]
    fn determinism_same_seedless_run_is_identical() {
        let (_m1, s1) = run_one(MemPolicy::Interleave { cxl_fraction: 0.5 }, 10_000);
        let (_m2, s2) = run_one(MemPolicy::Interleave { cxl_fraction: 0.5 }, 10_000);
        assert_eq!(s1.cycle, s2.cycle);
        for (a, b) in s1.pmu.cores.iter().zip(s2.pmu.cores.iter()) {
            assert_eq!(a.raw(), b.raw());
        }
        assert_eq!(s1.pmu.chas[0].raw(), s2.pmu.chas[0].raw());
    }

    /// Endless seeded loads and stores (one in four) to random lines of a
    /// region of `.1` lines.
    struct RandomRw(StdRng, u64);

    impl TraceSource for RandomRw {
        fn next_op(&mut self) -> Option<MemOp> {
            let vaddr = self.0.random_range(0..self.1) * CACHELINE as u64;
            let op = if self.0.random_bool(0.25) {
                MemOp::store
            } else {
                MemOp::load
            };
            Some(op(vaddr))
        }

        fn footprint(&self) -> usize {
            self.1 as usize * CACHELINE
        }
    }

    /// Cores 0 and 1 run `RandomRw` over one address space twice the LLC's
    /// size, so the L2s and the LLC keep evicting; audits every epoch and
    /// returns whether a line one core owned was in the other's L2 too.
    fn shared_store_run(cfg: MachineConfig, seed: u64, epochs: u64) -> bool {
        let lines = 2 * (cfg.llc.size_bytes / CACHELINE) as u64;
        let mut m = Machine::new(cfg);
        for c in 0..2 {
            let trace = RandomRw(StdRng::seed_from_u64(seed + c as u64), lines);
            m.attach(c, Workload::new("rw", Box::new(trace), MemPolicy::Local));
        }
        // Core 1 translates through core 0's address space.
        let space = m.cores[0].workload.as_ref().unwrap().space.clone();
        m.cores[1].workload.as_mut().unwrap().space = space;
        let mut shared = false;
        for _ in 0..epochs {
            m.run_epoch();
            assert_invariants(&m);
            shared |= m.cha.owned_lines().any(|(line, owners)| {
                let peer = usize::from(owners == 0b1);
                m.cores[peer].l2.peek(line).is_some()
            });
        }
        shared
    }

    #[test]
    fn owner_bits_are_backed_by_the_owners_l2() {
        assert!(shared_store_run(MachineConfig::tiny(), 1, 10));
        assert!(shared_store_run(MachineConfig::tiny(), 2, 10));
        // SPR's geometry over one default epoch, audited eight times.
        let mut spr = MachineConfig::spr();
        spr.epoch_cycles /= 8;
        assert!(shared_store_run(spr, 1, 8));
    }

    #[test]
    fn llc_store_hit_invalidates_the_peer_copy() {
        let mut m = Machine::new(MachineConfig::tiny());
        let paddr = AddressSpace::new(0, PAGE_SIZE, MemPolicy::Local, 0).translate(0);
        let line = paddr.line();
        m.do_load(0, paddr, false, PathClass::Drd);
        assert!(m.cores[0].l1d.peek(line).is_some() && m.cha.owners(line) == 0b1);
        m.do_store(1, paddr);
        assert_eq!(m.pmu.chas[0].read(ChaEvent::LlcLookupHit), 1);
        assert!(m.cores[0].l1d.peek(line).is_none());
        assert!(m.cores[0].l2.peek(line).is_none());
        assert_eq!(m.cha.owners(line), 0);
        let state = m.cores[1].l1d.peek(line).map(|l| l.state);
        assert_eq!(state, Some(LineState::Modified));
    }
}
