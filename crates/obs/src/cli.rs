//! Shared CLI glue for the observability flags.
//!
//! `bench`, the `pathfinder` CLI and `pathfinder-fleetd` accept the same
//! three flags:
//!
//! * `--timings` — print the human-readable phase-timing table after the
//!   run.
//! * `--timings-json <path>` — write the `pathfinder-obs-v1` timings JSON
//!   (see [`crate::export::timings_json`]).
//! * `--trace-json <path>` — write a Chrome trace-event file loadable in
//!   `chrome://tracing` / Perfetto.
//!
//! Any of the three enables the recorder for the duration of the run;
//! without them no clock is ever read (zero-cost disabled path). Each
//! binary strips the flags before its own parser sees the rest:
//!
//! ```no_run
//! let argv: Vec<String> = std::env::args().skip(1).collect();
//! let (obs_args, rest) = obs::cli::ObsArgs::strip(&argv).unwrap();
//! let session = obs::cli::Session::new(obs_args);
//! // ... parse `rest`, run the workload ...
//! session.finish().unwrap();
//! ```

use std::path::PathBuf;

/// Parsed observability flags.
#[derive(Clone, Debug, Default)]
pub struct ObsArgs {
    /// Print the phase-timing table on stdout after the run.
    pub timings: bool,
    /// Write the timings JSON document here.
    pub timings_json: Option<PathBuf>,
    /// Write the Chrome trace-event JSON here.
    pub trace_json: Option<PathBuf>,
}

impl ObsArgs {
    /// Split an argv slice into the obs flags and the remaining arguments,
    /// in order — for binaries with strict parsers that reject unknown
    /// flags. Fails when `--timings-json` or `--trace-json` has no path
    /// after it, or the next argument is another flag (`--…`).
    pub fn strip(args: &[String]) -> Result<(ObsArgs, Vec<String>), String> {
        let mut o = ObsArgs::default();
        let mut rest = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let slot = match arg.as_str() {
                "--timings" => {
                    o.timings = true;
                    continue;
                }
                "--timings-json" => &mut o.timings_json,
                "--trace-json" => &mut o.trace_json,
                other => {
                    rest.push(other.to_string());
                    continue;
                }
            };
            match args.next() {
                Some(path) if !path.starts_with("--") => *slot = Some(PathBuf::from(path)),
                _ => return Err(format!("{arg} needs a path")),
            }
        }
        Ok((o, rest))
    }

    /// True when any flag asked for observability.
    pub fn requested(&self) -> bool {
        self.timings || self.timings_json.is_some() || self.trace_json.is_some()
    }
}

/// RAII-style session: enables the recorder on construction when any flag
/// was given, and exports the requested artefacts in [`Session::finish`].
pub struct Session {
    args: ObsArgs,
}

impl Session {
    /// Build a session from explicit flags.
    pub fn new(args: ObsArgs) -> Session {
        if args.requested() {
            crate::reset();
            crate::enable();
        }
        Session { args }
    }

    /// Export the requested artefacts and disable the recorder. A no-op
    /// when no flag was given.
    pub fn finish(self) -> std::io::Result<()> {
        if !self.args.requested() {
            return Ok(());
        }
        crate::disable();
        if self.args.timings {
            println!("\n{}", crate::export::phase_table());
        }
        if let Some(path) = &self.args.timings_json {
            std::fs::write(path, crate::export::timings_json())?;
            println!("[timings-json] {}", path.display());
        }
        if let Some(path) = &self.args.trace_json {
            std::fs::write(path, crate::export::chrome_trace_json())?;
            println!("[trace-json] {}", path.display());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_picks_up_all_three_flags() {
        let (o, rest) = ObsArgs::strip(&argv(&[
            "--ops",
            "100",
            "--timings",
            "--timings-json",
            "t.json",
            "--trace-json",
            "trace.json",
        ]))
        .unwrap();
        assert_eq!(rest, argv(&["--ops", "100"]));
        assert!(o.timings);
        assert_eq!(
            o.timings_json.as_deref(),
            Some(std::path::Path::new("t.json"))
        );
        assert_eq!(
            o.trace_json.as_deref(),
            Some(std::path::Path::new("trace.json"))
        );
        assert!(o.requested());
    }

    #[test]
    fn strip_preserves_foreign_args_in_order() {
        let (o, rest) =
            ObsArgs::strip(&argv(&["--policy", "cxl", "--timings", "--ops", "7"])).unwrap();
        assert!(o.timings);
        assert_eq!(rest, argv(&["--policy", "cxl", "--ops", "7"]));
    }

    #[test]
    fn no_flags_means_not_requested() {
        let (o, rest) = ObsArgs::strip(&argv(&["--emr"])).unwrap();
        assert!(!o.requested());
        assert_eq!(rest, argv(&["--emr"]));
    }

    #[test]
    fn a_json_flag_without_a_path_is_an_error() {
        for words in [
            &["--timings-json"][..],
            &["fig6_stall_breakdown", "--trace-json"],
            &["--timings-json", "--ops", "5"],
            &["--trace-json", "--timings"],
        ] {
            let err = ObsArgs::strip(&argv(words)).err();
            let flag = words.iter().find(|w| w.ends_with("-json")).unwrap();
            assert_eq!(err, Some(format!("{flag} needs a path")), "{words:?}");
        }
    }
}
