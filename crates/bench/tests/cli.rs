//! The `bench` command line is strict: a command line that names no figure
//! of the table, or carries a flag its figure does not take, prints the
//! usage and exits nonzero before any run starts.

use std::process::Command;

use bench::figures::RUNS;

#[test]
fn bad_command_lines_print_usage_and_write_no_csv() {
    let scratch = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench_cli");
    for argv in [
        &[][..],
        &["nope"],
        &["fig6_stall_breakdown", "--op", "5"],
        &["fig6_stall_breakdown", "--ops", "abc"],
        &["fig6_stall_breakdown", "--jobs", "x"],
        &["fig6_stall_breakdown", "--emr"],
        &["all", "--emr"],
        &["all", "--ops", "5"],
        &["fig6_stall_breakdown", "--timings-json"],
        &["fig6_stall_breakdown", "--trace-json", "--jobs", "2"],
    ] {
        let _ = std::fs::remove_dir_all(&scratch);
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(argv)
            .env("BENCH_OUT_DIR", &scratch)
            .output()
            .expect("spawn bench");
        assert!(!out.status.success(), "bench {argv:?} must fail");
        let usage = String::from_utf8_lossy(&out.stderr);
        for run in RUNS {
            assert!(
                usage.contains(run.figure),
                "bench {argv:?}: usage must name {}:\n{usage}",
                run.figure
            );
        }
        assert!(
            !scratch.exists(),
            "bench {argv:?} wrote into its BENCH_OUT_DIR"
        );
    }
}
