//! Property-based invariants across the stack (proptest).

use proptest::prelude::*;
use simarch::cache::{LineState, SetAssocCache};
use simarch::queues::{BoundedWindow, Coverage, FifoServer};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A cache never exceeds capacity and never holds duplicate lines.
    #[test]
    fn cache_capacity_and_uniqueness(
        ways in 1usize..8,
        sets_pow in 0u32..6,
        ops in proptest::collection::vec((0u64..256, 0u8..3), 1..400),
    ) {
        let sets = 1usize << sets_pow;
        let mut c = SetAssocCache::new(sets * ways * 64, ways);
        for (line, op) in ops {
            match op {
                0 => { c.insert(line, LineState::Exclusive, 0); }
                1 => { c.invalidate(line); }
                _ => { c.lookup(line); }
            }
            prop_assert!(c.len() <= c.capacity());
            let mut seen = std::collections::BTreeSet::new();
            for l in c.iter() {
                prop_assert!(seen.insert(l.tag), "duplicate line {}", l.tag);
            }
        }
    }

    /// After inserting a line it is always findable until evicted or
    /// invalidated; a fresh insert into a 1-way set evicts deterministically.
    #[test]
    fn cache_insert_then_hit(line in 0u64..10_000) {
        let mut c = SetAssocCache::new(64 * 64, 4);
        c.insert(line, LineState::Shared, 0);
        prop_assert!(c.peek(line).is_some());
        prop_assert_eq!(c.peek(line).unwrap().state, LineState::Shared);
    }

    /// FIFO server: starts never precede arrivals, never overlap within the
    /// issue gap, and queue-delay accounting matches the schedule.
    #[test]
    fn fifo_server_schedule_is_causal(
        arrivals in proptest::collection::vec(0u64..10_000, 1..100),
        service in 1u64..100,
        gap in 1u64..50,
    ) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut s = FifoServer::new();
        let mut last_start = 0u64;
        let mut total_delay = 0u64;
        for &a in &sorted {
            let r = s.serve(a, service, gap);
            prop_assert!(r.start >= a, "service before arrival");
            prop_assert!(r.start >= last_start, "FIFO order violated");
            if last_start > 0 {
                prop_assert!(r.start >= last_start + gap || r.start == last_start + gap || r.start > last_start, "gap violated");
            }
            prop_assert_eq!(r.finish, r.start + service);
            total_delay += r.start - a;
            last_start = r.start;
        }
        prop_assert_eq!(s.total_queue_delay(), total_delay);
    }

    /// Coverage of sorted intervals equals the exact union length.
    #[test]
    fn coverage_matches_exact_union(
        mut intervals in proptest::collection::vec((0u64..1_000, 1u64..100), 1..50),
    ) {
        intervals.sort_unstable();
        let mut cov = Coverage::new();
        let mut marks = std::collections::BTreeSet::new();
        for &(start, len) in &intervals {
            cov.add(start, start + len);
            for t in start..start + len {
                marks.insert(t);
            }
        }
        prop_assert_eq!(cov.total(), marks.len() as u64);
    }

    /// A bounded window never exceeds its capacity and admission never
    /// travels backwards in time.
    #[test]
    fn bounded_window_respects_capacity(
        cap in 1usize..16,
        reqs in proptest::collection::vec((0u64..1_000, 1u64..500), 1..200),
    ) {
        let mut sorted = reqs.clone();
        sorted.sort_unstable();
        let mut w = BoundedWindow::new(cap);
        for &(t, dur) in &sorted {
            let adm = w.acquire(t);
            prop_assert!(adm.at >= t);
            prop_assert_eq!(adm.blocked, adm.at - t);
            w.commit(adm.at + dur);
            prop_assert!(w.outstanding(adm.at) <= cap);
        }
    }

    /// Zipf sampling respects bounds and favours the head.
    #[test]
    fn zipf_is_bounded_and_skewed(n in 10usize..5_000, seed in 0u64..1_000) {
        use rand::SeedableRng;
        let z = workloads::kv::Zipf::new(n, 0.99);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut first_decile = 0usize;
        let samples = 300;
        for _ in 0..samples {
            let s = z.sample(&mut rng);
            prop_assert!(s < n);
            if s < n.div_ceil(10) {
                first_decile += 1;
            }
        }
        // Top 10% of keys must take well over 10% of traffic.
        prop_assert!(first_decile * 100 > samples * 20);
    }

    /// Little's law consistency: for a synthetic stream with constant
    /// arrival rate and deterministic delay, the analyzer's queue estimate
    /// equals λ·W exactly.
    #[test]
    fn littles_law_identity(hits in 1u64..10_000, cycles in 10_000u64..1_000_000) {
        use pmu::{CoreEvent, SystemPmu};
        use pathfinder::{analyzer::PfAnalyzer, model::{Component, LatencyModel, PathGroup}};
        let mut pmu = SystemPmu::new(1, 1, 1, 1, 1);
        let s0 = pmu.snapshot(0);
        pmu.cores[0].add(CoreEvent::MemLoadRetiredL1Hit, hits);
        let d = pmu.snapshot(cycles).delta(&s0);
        let lat = LatencyModel::spr();
        let q = PfAnalyzer::analyze(&d, &lat);
        let expect = hits as f64 / cycles as f64 * lat.l1_hit;
        prop_assert!((q.get(PathGroup::Drd, Component::L1d) - expect).abs() < 1e-9);
    }

    /// Stall-attribution mass conservation: what PFEstimator distributes
    /// over components equals the nested stall counters times the CXL share.
    #[test]
    fn estimator_mass_conservation(
        s1 in 0u64..1_000_000,
        extra2 in 0u64..1_000_000,
        extra3 in 0u64..1_000_000,
        cxl in 1u64..1_000,
        local in 0u64..1_000,
    ) {
        use pmu::{CoreEvent, RespScenario, SystemPmu};
        use pathfinder::{estimator::PfEstimator, model::{LatencyModel, PathGroup}};
        let s3 = s1;
        let s2 = s1 + extra2;
        let s1 = s2 + extra3;
        let mut pmu = SystemPmu::new(1, 1, 1, 1, 1);
        let snap0 = pmu.snapshot(0);
        pmu.cores[0].add(CoreEvent::MemoryActivityStallsL1dMiss, s1);
        pmu.cores[0].add(CoreEvent::MemoryActivityStallsL2Miss, s2);
        pmu.cores[0].add(CoreEvent::CycleActivityStallsL3Miss, s3);
        pmu.cores[0].add(CoreEvent::OcrDemandDataRd(RespScenario::AnyResponse), cxl + local);
        pmu.cores[0].add(CoreEvent::OcrDemandDataRd(RespScenario::CxlDram), cxl);
        pmu.cores[0].add(CoreEvent::OcrDemandDataRd(RespScenario::LocalDram), local);
        let d = pmu.snapshot(1_000_000).delta(&snap0);
        let lat = LatencyModel::spr();
        let b = PfEstimator::breakdown(&d, &lat);
        // Latency-weighted CXL share (no TOR samples ⇒ nominal latencies).
        let share = cxl as f64 * lat.cxl_mem
            / (cxl as f64 * lat.cxl_mem + local as f64 * lat.dram);
        let want = s1 as f64 * share; // telescoping sums back to the root
        let got = b.path_total(PathGroup::Drd);
        prop_assert!((got - want).abs() < 1.0 + want * 1e-9, "got {} want {}", got, want);
    }

    /// FIFO server under arbitrary interleavings of service and transient
    /// stalls ([`FifoServer::block_until`], the fault-injection hook): work
    /// conservation and exact accounting hold, starts stay FIFO-ordered,
    /// and stalls add queueing delay but never busy time.
    #[test]
    fn fifo_server_backpressure_under_stalls(
        events in proptest::collection::vec(
            (0u64..10_000, 1u64..100, 1u64..50, 0u8..2),
            1..100,
        ),
    ) {
        use simarch::Invariants;
        let mut sorted = events.clone();
        sorted.sort_unstable();
        let mut s = FifoServer::new();
        let mut busy = 0u64;
        let mut delay = 0u64;
        let mut last_start = 0u64;
        for &(t, service, gap, stall) in &sorted {
            if stall == 1 {
                let before = s.busy_cycles();
                s.block_until(t + service);
                prop_assert_eq!(s.busy_cycles(), before, "a stall charged busy time");
            } else {
                let r = s.serve(t, service, gap);
                prop_assert!(r.start >= t, "service before arrival");
                prop_assert!(r.start >= last_start, "FIFO order violated");
                prop_assert_eq!(r.finish, r.start + service);
                busy += gap;
                delay += r.start - t;
                last_start = r.start;
            }
            prop_assert!(s.busy_cycles() <= s.next_free(), "work conservation");
        }
        prop_assert_eq!(s.busy_cycles(), busy);
        prop_assert_eq!(s.total_queue_delay(), delay);
        let mut v = Vec::new();
        s.collect_violations(&mut v);
        prop_assert!(v.is_empty(), "{:?}", v);
    }

    /// Bounded window under arbitrary arrival/duration sequences: occupancy
    /// never exceeds capacity, blocked time is accounted exactly, entries
    /// drain earliest-completion-first, and flow is conserved.
    #[test]
    fn bounded_window_backpressure_and_drain_order(
        cap in 1usize..12,
        reqs in proptest::collection::vec((0u64..2_000, 1u64..300), 1..150),
    ) {
        use simarch::Invariants;
        let mut sorted = reqs.clone();
        sorted.sort_unstable();
        let mut w = BoundedWindow::new(cap);
        let mut last_admit = 0u64;
        for &(t, dur) in &sorted {
            let adm = w.acquire(t);
            prop_assert!(adm.at >= t, "admission travelled backwards");
            prop_assert_eq!(adm.blocked, adm.at - t);
            w.commit(adm.at + dur);
            prop_assert!(w.outstanding(adm.at) <= cap, "occupancy over capacity");
            last_admit = last_admit.max(adm.at);
        }
        // Walking time forward drains earliest-completion-first: advancing
        // exactly to the earliest in-flight completion always retires it.
        let mut horizon = last_admit;
        let mut remaining = w.outstanding(horizon);
        while remaining > 0 {
            let earliest = w.earliest().unwrap();
            prop_assert!(earliest > horizon, "stale entry survived retirement");
            horizon = earliest;
            let next = w.outstanding(horizon);
            prop_assert!(next < remaining, "earliest completion did not retire");
            remaining = next;
        }
        prop_assert_eq!(w.committed(), w.retired());
        let mut v = Vec::new();
        w.collect_violations(&mut v);
        prop_assert!(v.is_empty(), "{:?}", v);
    }
}

// Machine-level fault × workload properties run whole (tiny) machines, so
// they get a smaller case budget than the module-level blocks above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded fault plan over any workload: the machine never
    /// deadlocks (`run_to_completion` returns Ok within the epoch cap),
    /// the conservation audit stays clean, and the CXL transaction
    /// identities (Req = DRS = read CAS, RwD = NDR = write CAS) survive
    /// every fault class — retries and stalls delay flits, they never
    /// create or destroy them.
    #[test]
    fn fault_plans_preserve_conservation_and_liveness(
        plan_seed in 0u64..10_000,
        n_windows in 0usize..6,
        app_sel in 0usize..3,
        policy_sel in 0usize..3,
        ops in 2_000u64..8_000,
        wl_seed in 0u64..64,
    ) {
        use pmu::{CxlEvent, M2pEvent};
        use simarch::{FaultPlan, Invariants, Machine, MachineConfig, MemPolicy, Workload};
        let cfg = MachineConfig::tiny();
        let plan = FaultPlan::from_seed(plan_seed, n_windows, &cfg, 40);
        let app = ["STREAM", "GUPS", "505.mcf_r"][app_sel];
        let policy = [
            MemPolicy::Local,
            MemPolicy::Cxl,
            MemPolicy::Interleave { cxl_fraction: 0.5 },
        ][policy_sel];
        let mut m = Machine::new(cfg);
        m.set_fault_plan(plan);
        m.attach(
            0,
            Workload::new(app, workloads::build(app, ops, wl_seed).unwrap(), policy),
        );
        let start = m.pmu.snapshot(0);
        let summary = m.run_to_completion(2_000);
        prop_assert!(summary.is_ok(), "faulted machine stalled: {:?}", summary);
        prop_assert!(m.all_done(), "workload did not drain");

        let mut v = Vec::new();
        m.collect_violations(&mut v);
        prop_assert!(v.is_empty(), "conservation violated under faults: {:?}", v);

        let d = m.pmu.snapshot(m.now()).delta(&start);
        let req = d.cxl_sum(CxlEvent::RxcPackBufInsertsMemReq);
        let rwd = d.cxl_sum(CxlEvent::RxcPackBufInsertsMemData);
        prop_assert_eq!(req, d.cxl_sum(CxlEvent::TxcPackBufInsertsMemData), "Req vs DRS");
        prop_assert_eq!(req, d.cxl_sum(CxlEvent::DevMcRdCas), "Req vs read CAS");
        prop_assert_eq!(rwd, d.cxl_sum(CxlEvent::TxcPackBufInsertsMemReq), "RwD vs NDR");
        prop_assert_eq!(rwd, d.cxl_sum(CxlEvent::DevMcWrCas), "RwD vs write CAS");
        prop_assert_eq!(d.m2p_sum(M2pEvent::RxcInserts), req + rwd, "M2PCIe ingress");
    }

    /// Fault-plan expansion is a pure function of its inputs, every
    /// generated window validates, and all windows respect the horizon.
    #[test]
    fn seeded_fault_plans_are_valid_and_reproducible(
        seed in 0u64..100_000,
        n in 0usize..12,
        horizon in 1u64..200,
    ) {
        use simarch::FaultPlan;
        let cfg = simarch::MachineConfig::tiny();
        let a = FaultPlan::from_seed(seed, n, &cfg, horizon);
        let b = FaultPlan::from_seed(seed, n, &cfg, horizon);
        prop_assert_eq!(a.windows().len(), n);
        prop_assert_eq!(a.windows(), b.windows());
        for w in a.windows() {
            prop_assert!(w.validate().is_ok(), "invalid generated window {:?}", w);
            prop_assert!(w.start_epoch < w.end_epoch);
            prop_assert!(w.end_epoch <= horizon, "window escapes the horizon");
        }
    }
}
