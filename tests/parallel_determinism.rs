//! The scenario fan-out must be invisible in the artefacts: rendering the
//! same grid under `--jobs 1` and `--jobs N` has to produce byte-identical
//! tables and CSV text, no matter how the OS interleaved the workers.
//!
//! This exercises the same pipeline the figures use — a grid of
//! independent `Machine` runs mapped through `map_scenarios`, then rendered
//! from the merged, index-ordered results — and compares the rendered bytes
//! across worker counts.

use bench::scenario::map_scenarios;
use bench::{run_machine, Pin};
use pmu::CoreEvent;
use simarch::{MachineConfig, MemPolicy};

/// Render one grid cell the way a figure would: a CSV row of
/// counter sums and the final cycle count.
fn render_cell(app: &str, policy: MemPolicy, seed: u64) -> String {
    let (d, cycles) = run_machine(
        MachineConfig::tiny(),
        vec![Pin::app(0, app, 15_000, policy, seed).unwrap()],
    );
    format!(
        "{app},{policy:?},{cycles},{},{},{},{}",
        d.core_sum(CoreEvent::InstRetired),
        d.core_sum(CoreEvent::MemLoadRetiredL1Miss),
        d.core_sum(CoreEvent::ResourceStallsSb),
        d.core_sum(CoreEvent::CpuClkUnhalted),
    )
}

/// The full artefact: header line plus one row per grid cell, in grid order.
fn render_grid(jobs: usize) -> String {
    let grid: Vec<(&str, MemPolicy, u64)> = ["STREAM", "GUPS", "fft", "radix"]
        .iter()
        .flat_map(|&app| {
            [
                (app, MemPolicy::Local, 11),
                (app, MemPolicy::Cxl, 11),
                (app, MemPolicy::Interleave { cxl_fraction: 0.5 }, 11),
            ]
        })
        .collect();
    let rows = map_scenarios(jobs, &grid, |_, &(app, policy, seed)| {
        render_cell(app, policy, seed)
    });
    let mut out = String::from("app,policy,cycles,inst,l1_miss,sb_stall,clk\n");
    for row in &rows {
        out.push_str(row);
        out.push('\n');
    }
    out
}

#[test]
fn parallel_rendering_is_byte_identical_to_serial() {
    let serial = render_grid(1);
    // Sanity: the artefact is non-trivial — every cell produced real work.
    assert_eq!(serial.lines().count(), 13);
    for line in serial.lines().skip(1) {
        let cycles: u64 = line.split(',').nth(2).unwrap().parse().unwrap();
        assert!(cycles > 0, "grid cell did no work: {line}");
    }
    for jobs in [2, 4, 8] {
        let parallel = render_grid(jobs);
        assert_eq!(
            parallel, serial,
            "--jobs {jobs} artefact must be byte-identical to serial"
        );
    }
}

#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    // Two identically-configured parallel runs race their workers
    // differently; the index-ordered merge must hide that entirely.
    let a = render_grid(4);
    let b = render_grid(4);
    assert_eq!(a, b);
}
