//! `pathfinder --policy mix:<f>` takes only a CXL fraction in [0, 1].
//! Anything else (NaN, infinities, negatives, fractions above one) exits
//! with the usage error instead of printing a nonsense banner and placing
//! pages as if the fraction were some other value.

use std::process::Command;

fn profile_with_policy(policy: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pathfinder"))
        .args(["profile", "GUPS", "--ops", "2000", "--policy", policy])
        .output()
        .expect("run pathfinder")
}

#[test]
fn mix_fractions_outside_zero_to_one_are_usage_errors() {
    for policy in [
        "mix:nan", "mix:NaN", "mix:inf", "mix:-inf", "mix:-1", "mix:2", "mix:",
    ] {
        let out = profile_with_policy(policy);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--policy {policy} must exit with the usage error"
        );
        assert!(out.stdout.is_empty(), "--policy {policy} printed a banner");
    }
}

#[test]
fn mix_fraction_in_range_still_profiles() {
    let out = profile_with_policy("mix:0.8");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("80% cxl"), "banner: {stdout}");
}
