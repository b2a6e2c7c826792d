//! `pathfinder list-counters` prints the counter registry: one row per
//! counter of every PMU (PMU, scope, unit, perf name and family
//! description) in registry order. Its stdout must equal the committed
//! `golden/list_counters.txt`, so a change to the event tables that moves,
//! renames, adds or drops a counter fails here.
//!
//! Regenerate the golden, after a deliberate change, from the workspace root:
//!
//! ```text
//! cargo run -q --release -p pathfinder --bin pathfinder -- list-counters > crates/core/tests/golden/list_counters.txt
//! ```

use std::process::Command;

#[test]
fn list_counters_matches_its_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_pathfinder"))
        .arg("list-counters")
        .output()
        .expect("run pathfinder");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = include_str!("golden/list_counters.txt");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first_diff = stdout
        .lines()
        .zip(golden.lines())
        .position(|(got, want)| got != want);
    assert!(
        stdout == golden,
        "`pathfinder list-counters` differs from golden/list_counters.txt \
         ({} rows, golden {}; first differing row: {first_diff:?})",
        stdout.lines().count(),
        golden.lines().count()
    );
}
