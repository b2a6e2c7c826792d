//! Byte-identity gate for the figure pipeline at reduced size.
//!
//! Each row of the figure table (`bench::figures::RUNS`) that has a
//! reduced capture under `tests/golden/` has two tests here, written by
//! `reduced_rows!` from one list. Both rerun the row through the `bench`
//! binary at that capture's `--ops`. The first runs it serially, the
//! second at `--jobs 2`; every run must write exactly `<figure>.csv`, equal
//! to its golden byte for byte, and the `--jobs 2` run must print the
//! serial run's stdout. The two tests share one serial run per figure. The
//! goldens were captured at reduced `--ops` so a debug binary finishes in
//! seconds; debug and release builds emit identical bytes. Each golden
//! predates a rewrite of the path its figure exercises (the columnar
//! store, the event wheel, the single-pass materializer reads), so it pins
//! that rewrite's output. Under `--jobs 2` each worker's machines pull ops
//! through their own `OpRing`, so neither the CSV bytes nor the
//! index-ordered merge may move. A last test requires the list to be the
//! table's reduced rows, and every golden to belong to one of them.
//!
//! Each run writes to `out/` under its own scratch directory, so the
//! committed full-size goldens (the ones `scripts/refresh_goldens.sh`
//! checks) are never touched.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;

use bench::figures::RUNS;

/// One line per reduced row of the figure table, in table order: the
/// figure, its serial test and its `--jobs 2` test. Writes both tests of
/// every line and `TESTED`, the list of figures, so the two cannot drift.
macro_rules! reduced_rows {
    ($(($figure:ident, $serial:ident, $jobs:ident)),* $(,)?) => {
        /// The figures whose reduced rows the tests rerun, in table order.
        const TESTED: &[&str] = &[$(stringify!($figure)),*];

        $(
            #[test]
            fn $serial() {
                serial_stdout(stringify!($figure));
            }

            #[test]
            fn $jobs() {
                two_jobs_match_serial(stringify!($figure));
            }
        )*
    };
}

// The per-op walk (`step_core → do_load → … → finish_load`) was once the
// reference datapath beside a batched one; it is now the only datapath,
// and the serial tests pin it. The `reference_datapath` tests keep that
// name but fan the scenario grid out over two workers (`--jobs 2`).
// fig12 and the epoch ablation pin PFMaterializer's analysis reads: fig12
// clusters bwaves' locality windows and correlates its progress with a
// co-runner's (`locality_windows`, `orthogonality`); the ablation clusters
// windows at five snapshot granularities. At 150 000 ops every co-run
// scenario of fig12 still reports a correlation. The fabric path schedules
// two machines plus the switch/pool replay through the same scheduler as
// the single-host figures; its golden was captured before the event-wheel
// rewrite, so fig14 pins the multi-host composition end to end.
reduced_rows! {
    (
        fig6_stall_breakdown,
        fig6_stall_breakdown_bytes_are_identical,
        fig6_stall_breakdown_reference_datapath_bytes_are_identical
    ),
    (
        fig12_locality,
        fig12_locality_bytes_are_identical,
        fig12_locality_reference_datapath_bytes_are_identical
    ),
    (
        ablation_epoch,
        ablation_epoch_bytes_are_identical,
        ablation_epoch_reference_datapath_bytes_are_identical
    ),
    (
        fig13_faults,
        fig13_faults_bytes_are_identical,
        fig13_faults_reference_datapath_bytes_are_identical
    ),
    (
        fig14_fabric,
        fig14_fabric_bytes_are_identical,
        fig14_fabric_reference_datapath_bytes_are_identical
    ),
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("golden_identity_{tag}"))
}

/// The `bench` arguments of `figure`'s reduced row: its spec at the
/// `--ops` of its golden, then `extra`.
fn reduced_args(figure: &str, extra: &[&str]) -> Vec<String> {
    let run = RUNS
        .iter()
        .find(|run| run.figure == figure && run.golden_ops.is_some())
        .unwrap_or_else(|| panic!("{figure} has no reduced row in the figure table"));
    let ops = run.golden_ops.unwrap_or_default();
    let spec = format!("{} --ops {ops}", run.spec());
    spec.split(' ')
        .chain(extra.iter().copied())
        .map(String::from)
        .collect()
}

/// Start `bench <args>` in a fresh `dir`, writing its CSVs to `dir/out`.
/// The relative `BENCH_OUT_DIR` makes the `[csv]` lines the same for runs
/// in different directories.
fn spawn(args: &[String], dir: &Path) -> Child {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create scratch dir");
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(dir)
        .env("BENCH_OUT_DIR", "out")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn bench")
}

/// Wait for a run of `figure`, require that it wrote exactly
/// `<figure>.csv`, equal to its golden, and return its stdout.
fn finish_at_golden(child: Child, dir: &Path, figure: &str, args: &[String]) -> String {
    let what = args.join(" ");
    let output = child.wait_with_output().expect("wait for bench");
    assert!(
        output.status.success(),
        "{what} exited with {}",
        output.status
    );
    let mut csvs = BTreeMap::new();
    for entry in std::fs::read_dir(dir.join("out")).expect("read out dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        csvs.insert(name, std::fs::read(&path).expect("read fresh csv"));
    }
    let name = format!("{figure}.csv");
    assert_eq!(
        csvs.keys().collect::<Vec<_>>(),
        [&name],
        "`{what}` must write exactly the golden {name}"
    );
    let got = csvs.remove(&name).unwrap_or_default();
    let want = std::fs::read(golden_dir().join(&name))
        .unwrap_or_else(|e| panic!("read golden {name}: {e}"));
    assert!(
        got == want,
        "{name} from `{what}` diverged from its golden:\n--- golden ---\n{}\n--- fresh ---\n{}",
        String::from_utf8_lossy(&want),
        String::from_utf8_lossy(&got),
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// The stdout of `figure`'s reduced row run serially, once per test
/// binary: the first caller runs it and requires its golden, and the
/// figure's other test reuses the stdout.
fn serial_stdout(figure: &str) -> &'static str {
    static SERIAL: [OnceLock<String>; TESTED.len()] = [const { OnceLock::new() }; TESTED.len()];
    let slot = TESTED
        .iter()
        .position(|tested| *tested == figure)
        .unwrap_or_else(|| panic!("{figure} is not a tested figure"));
    SERIAL[slot].get_or_init(|| {
        let args = reduced_args(figure, &[]);
        let dir = scratch_dir(figure);
        finish_at_golden(spawn(&args, &dir), &dir, figure, &args)
    })
}

/// Rerun `figure`'s reduced row at `--jobs 2`: it must write the golden
/// and print the serial run's stdout.
fn two_jobs_match_serial(figure: &str) {
    let args = reduced_args(figure, &["--jobs", "2"]);
    let dir = scratch_dir(&format!("{figure}_j2"));
    let jobs = spawn(&args, &dir);
    let serial_out = serial_stdout(figure);
    let jobs_out = finish_at_golden(jobs, &dir, figure, &args);
    assert!(
        serial_out == jobs_out,
        "{figure}: --jobs 2 printed other stdout than the serial run:\n\
         --- serial ---\n{serial_out}\n--- jobs 2 ---\n{jobs_out}"
    );
}

/// `reduced_rows!` lists exactly the table's reduced rows, and every file
/// under `tests/golden/` is the CSV of one of them.
#[test]
fn every_reduced_row_is_tested_and_every_golden_has_one() {
    let reduced: Vec<&str> = RUNS
        .iter()
        .filter(|run| run.golden_ops.is_some())
        .map(|run| run.figure)
        .collect();
    assert_eq!(
        reduced, TESTED,
        "the figure table's reduced rows and the `reduced_rows!` list differ"
    );
    let mut goldens: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("read golden dir")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    goldens.sort();
    let mut want: Vec<String> = TESTED.iter().map(|f| format!("{f}.csv")).collect();
    want.sort();
    assert_eq!(
        goldens, want,
        "each golden must be the CSV of exactly one reduced row of the figure table"
    );
}
