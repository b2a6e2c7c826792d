//! Byte-identity gate for the figure pipeline: the refactored columnar
//! store (and every hot-loop cleanup that rode along) must reproduce the
//! exact CSV bytes the row-oriented seed produced. The goldens under
//! `tests/golden/` were captured *before* the PR 5 refactor landed, at
//! reduced `--ops` so a debug binary finishes in seconds; debug and
//! release builds were verified to emit identical bytes. The fig12 and
//! epoch-ablation goldens were captured the same way before the
//! materializer's analysis reads became single-pass merges.
//!
//! `BENCH_OUT_DIR` points each run at a scratch directory so the committed
//! `out/` goldens (the full-size ones `scripts/refresh_goldens.sh` checks)
//! are never touched.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("golden_identity_{tag}"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_figure(bin: &str, ops: &str, out_dir: &Path) {
    run_figure_args(bin, &["--ops", ops], out_dir);
}

fn run_figure_args(bin: &str, args: &[&str], out_dir: &Path) {
    let status = Command::new(bin)
        .args(args)
        .env("BENCH_OUT_DIR", out_dir)
        .status()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(status.success(), "{bin} exited with {status}");
}

fn assert_bytes_identical(out_dir: &Path, csv: &str) {
    let got = std::fs::read(out_dir.join(csv)).unwrap_or_else(|e| panic!("read fresh {csv}: {e}"));
    let want =
        std::fs::read(golden_dir().join(csv)).unwrap_or_else(|e| panic!("read golden {csv}: {e}"));
    assert!(
        got == want,
        "{csv} diverged from its pre-refactor golden:\n--- golden ---\n{}\n--- fresh ---\n{}",
        String::from_utf8_lossy(&want),
        String::from_utf8_lossy(&got),
    );
}

#[test]
fn fig6_stall_breakdown_bytes_are_identical() {
    let out = scratch_dir("fig6");
    run_figure(env!("CARGO_BIN_EXE_fig6_stall_breakdown"), "60000", &out);
    assert_bytes_identical(&out, "fig6_stall_breakdown.csv");
}

#[test]
fn fig13_faults_bytes_are_identical() {
    let out = scratch_dir("fig13");
    run_figure(env!("CARGO_BIN_EXE_fig13_faults"), "250000", &out);
    assert_bytes_identical(&out, "fig13_faults.csv");
}

/// The fabric path schedules two machines plus the switch/pool replay
/// through the same scheduler as the single-host figures; its golden was
/// captured before the event-wheel rewrite, so this pins the multi-host
/// composition end to end.
#[test]
fn fig14_fabric_bytes_are_identical() {
    let out = scratch_dir("fig14");
    run_figure(env!("CARGO_BIN_EXE_fig14_fabric"), "60000", &out);
    assert_bytes_identical(&out, "fig14_fabric.csv");
}

/// PFMaterializer's analysis reads: fig12 clusters bwaves' locality
/// windows and correlates its progress with a co-runner's
/// (`locality_windows`, `orthogonality`); the epoch ablation clusters
/// windows at five snapshot granularities. At 150 000 ops every co-run
/// scenario of fig12 still reports a correlation.
#[test]
fn fig12_locality_bytes_are_identical() {
    let out = scratch_dir("fig12");
    run_figure(env!("CARGO_BIN_EXE_fig12_locality"), "150000", &out);
    assert_bytes_identical(&out, "fig12_locality.csv");
}

#[test]
fn ablation_epoch_bytes_are_identical() {
    let out = scratch_dir("ablation_epoch");
    run_figure(env!("CARGO_BIN_EXE_ablation_epoch"), "150000", &out);
    assert_bytes_identical(&out, "ablation_epoch.csv");
}

/// The per-op walk (`step_core → do_load → … → finish_load`) was once the
/// reference datapath beside a batched one; it is now the only datapath,
/// and the serial tests above pin it. These pin the same goldens with the
/// scenario grid fanned out over two workers (`--jobs 2`): each worker's
/// machines pull ops through their own `OpRing`, so neither the CSV bytes
/// nor the index-ordered merge may move. `scripts/tier1.sh` diffs only the
/// stdout of a `--jobs 2` run; these check the written CSV.
#[test]
fn fig6_stall_breakdown_reference_datapath_bytes_are_identical() {
    let out = scratch_dir("fig6_refdp");
    run_figure_args(
        env!("CARGO_BIN_EXE_fig6_stall_breakdown"),
        &["--ops", "60000", "--jobs", "2"],
        &out,
    );
    assert_bytes_identical(&out, "fig6_stall_breakdown.csv");
}

#[test]
fn fig13_faults_reference_datapath_bytes_are_identical() {
    let out = scratch_dir("fig13_refdp");
    run_figure_args(
        env!("CARGO_BIN_EXE_fig13_faults"),
        &["--ops", "250000", "--jobs", "2"],
        &out,
    );
    assert_bytes_identical(&out, "fig13_faults.csv");
}

#[test]
fn fig14_fabric_reference_datapath_bytes_are_identical() {
    let out = scratch_dir("fig14_refdp");
    run_figure_args(
        env!("CARGO_BIN_EXE_fig14_fabric"),
        &["--ops", "60000", "--jobs", "2"],
        &out,
    );
    assert_bytes_identical(&out, "fig14_fabric.csv");
}
