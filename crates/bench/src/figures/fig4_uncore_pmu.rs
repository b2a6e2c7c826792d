//! Figure 4 (and Figure 16 with `--emr`): uncore PMU, local vs CXL.
//!
//! (a) IMC RPQ/WPQ channel occupancy — near zero under CXL traffic because
//!     the device-side MC queues instead of the host IMC;
//! (b) load/store command breakdown at the DIMM (IMC CAS vs M2PCIe BL/AK).

use std::io;

use crate::scenario::map_scenarios;
use crate::{print_table, run_machine, write_csv, Pin};
use pmu::{CxlEvent, ImcEvent, M2pEvent, SystemDelta};
use simarch::MemPolicy;
use workloads::StreamGen;

pub fn run(args: &super::Args) -> io::Result<()> {
    let cfg = args.platform();
    let ops = args.ops();
    println!(
        "Figure 4{} — uncore PMU, local vs CXL ({ops} ops per run)\n",
        args.emr_tag(16)
    );

    let run = |policy| -> (SystemDelta, u64) {
        run_machine(
            cfg.clone(),
            vec![Pin::trace(
                0,
                "stream-rw",
                Box::new(StreamGen::new(48 << 20, ops).write_ratio(0.3).work(0)),
                policy,
            )],
        )
    };
    let runs = map_scenarios(args.jobs, &[MemPolicy::Local, MemPolicy::Cxl], |_, &p| {
        run(p)
    });
    let [(local, lc), (cxl, cc)] = <[_; 2]>::try_from(runs)
        .map_err(|_| io::Error::other("fig4 runs one local and one CXL machine"))?;

    // ---- (a) RPQ / WPQ occupancy -------------------------------------------
    println!("(a) IMC pending-queue occupancy (entries per cycle, per channel avg)");
    let headers_a = [
        "case",
        "RPQ occ",
        "WPQ occ",
        "RPQ ne-cycles",
        "WPQ ne-cycles",
    ];
    let occ = |d: &SystemDelta, e, cycles: u64| d.imc_sum(e) as f64 / cycles.max(1) as f64;
    let rows_a = vec![
        vec![
            "local".into(),
            format!("{:.4}", occ(&local, ImcEvent::RpqOccupancy, lc)),
            format!("{:.4}", occ(&local, ImcEvent::WpqOccupancy, lc)),
            format!("{}", local.imc_sum(ImcEvent::RpqCyclesNe)),
            format!("{}", local.imc_sum(ImcEvent::WpqCyclesNe)),
        ],
        vec![
            "cxl".into(),
            format!("{:.4}", occ(&cxl, ImcEvent::RpqOccupancy, cc)),
            format!("{:.4}", occ(&cxl, ImcEvent::WpqOccupancy, cc)),
            format!("{}", cxl.imc_sum(ImcEvent::RpqCyclesNe)),
            format!("{}", cxl.imc_sum(ImcEvent::WpqCyclesNe)),
        ],
    ];
    print_table(&headers_a, &rows_a);
    println!("paper: little queueing inside the IMC for CXL streams — the CXL DIMM\nencloses device-side command queues, so the IMC can be ignored for\nCXL-only analysis\n");
    write_csv(&args.platform_csv("fig4a"), &headers_a, &rows_a)?;

    // ---- (b) load/store breakdown -------------------------------------------
    println!("(b) DIMM load/store commands (local: IMC CAS; CXL: M2PCIe BL/AK)");
    let headers_b = ["case", "loads", "stores", "loads/Kcycle", "stores/Kcycle"];
    let l_rd = local.imc_sum(ImcEvent::CasCountRd);
    let l_wr = local.imc_sum(ImcEvent::CasCountWr);
    let c_rd = cxl.m2p_sum(M2pEvent::TxcInsertsBl);
    let c_wr = cxl.m2p_sum(M2pEvent::TxcInsertsAk);
    let rows_b = vec![
        vec![
            "local".into(),
            l_rd.to_string(),
            l_wr.to_string(),
            format!("{:.2}", 1e3 * l_rd as f64 / lc as f64),
            format!("{:.2}", 1e3 * l_wr as f64 / lc as f64),
        ],
        vec![
            "cxl".into(),
            c_rd.to_string(),
            c_wr.to_string(),
            format!("{:.2}", 1e3 * c_rd as f64 / cc as f64),
            format!("{:.2}", 1e3 * c_wr as f64 / cc as f64),
        ],
    ];
    print_table(&headers_b, &rows_b);
    let rate_drop = 100.0
        * (1.0
            - ((c_rd + c_wr) as f64 / cc as f64) / (((l_rd + l_wr) as f64) / lc as f64).max(1e-12));
    println!(
        "per-cycle command rate under CXL is {:.1}% lower (paper: 36.7%) —\n\
         totals are roughly equal, the slow link stretches them over time",
        rate_drop
    );
    // Consistency: every CXL command seen by the device.
    assert_eq!(cxl.cxl_sum(CxlEvent::DevMcRdCas), c_rd);
    assert_eq!(cxl.cxl_sum(CxlEvent::DevMcWrCas), c_wr);
    write_csv(&args.platform_csv("fig4b"), &headers_b, &rows_b)
}
