//! The figure table: [`RUNS`] is the one list of figure runs.
//!
//! `cargo run --release -p bench -- <figure> [--ops N] [--jobs N]` runs
//! one figure; `-- all` runs every row in order, each under a
//! `===== <figure> <flags> =====` header, which is the capture in
//! `out/all_figures.txt`. A figure takes `--emr` or `--gups` only when the
//! table runs it with that flag.

pub mod ablation_attribution;
pub mod ablation_epoch;
pub mod fig0_mlc;
pub mod fig11_bw_partition;
pub mod fig12_locality;
pub mod fig13_faults;
pub mod fig13_tpp;
pub mod fig14_fabric;
pub mod fig2_core_pmu;
pub mod fig3_cha_pmu;
pub mod fig4_uncore_pmu;
pub mod fig6_stall_breakdown;
pub mod fig7_8_interference;
pub mod fig9_10_contention;
pub mod table7_path_map;

use std::io;

/// One run of the figure table.
pub struct Run {
    /// The figure: the `bench` subcommand and the module that draws it.
    pub figure: &'static str,
    /// The flags the table runs it with.
    pub flags: &'static [&'static str],
    /// The `--ops` of its reduced capture under `tests/golden/`, if any.
    pub golden_ops: Option<u64>,
    /// Prints the figure's tables and writes its CSVs.
    pub run: fn(&Args) -> io::Result<()>,
}

impl Run {
    /// The figure and its flags, as `bench all` heads its section.
    pub fn spec(&self) -> String {
        [&[self.figure], self.flags].concat().join(" ")
    }
}

const fn row(
    figure: &'static str,
    flags: &'static [&'static str],
    golden_ops: Option<u64>,
    run: fn(&Args) -> io::Result<()>,
) -> Run {
    Run {
        figure,
        flags,
        golden_ops,
        run,
    }
}

/// Every figure run, in the order `all_figures.txt` captures them.
#[rustfmt::skip]
pub const RUNS: &[Run] = &[
    row("fig0_mlc",             &[],         None,          fig0_mlc::run),
    row("fig2_core_pmu",        &[],         None,          fig2_core_pmu::run),
    row("fig3_cha_pmu",         &[],         None,          fig3_cha_pmu::run),
    row("fig4_uncore_pmu",      &[],         None,          fig4_uncore_pmu::run),
    row("fig6_stall_breakdown", &[],         Some(60_000),  fig6_stall_breakdown::run),
    row("fig7_8_interference",  &[],         None,          fig7_8_interference::run),
    row("fig9_10_contention",   &[],         None,          fig9_10_contention::run),
    row("fig11_bw_partition",   &[],         None,          fig11_bw_partition::run),
    row("fig12_locality",       &[],         Some(150_000), fig12_locality::run),
    row("fig13_tpp",            &[],         None,          fig13_tpp::run),
    row("table7_path_map",      &[],         None,          table7_path_map::run),
    row("ablation_attribution", &[],         None,          ablation_attribution::run),
    row("ablation_epoch",       &[],         Some(150_000), ablation_epoch::run),
    row("fig2_core_pmu",        &["--emr"],  None,          fig2_core_pmu::run),
    row("fig3_cha_pmu",         &["--emr"],  None,          fig3_cha_pmu::run),
    row("fig4_uncore_pmu",      &["--emr"],  None,          fig4_uncore_pmu::run),
    row("fig13_faults",         &[],         Some(250_000), fig13_faults::run),
    row("fig14_fabric",         &[],         Some(60_000),  fig14_fabric::run),
    row("fig11_bw_partition",   &["--gups"], None,          fig11_bw_partition::run),
];

/// A figure's parsed flags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// `--emr`: the EMR preset (the paper's Figures 14-16) in place of SPR.
    pub emr: bool,
    /// `--gups`: GUPS flows in place of MBW (Figure 11b).
    pub gups: bool,
    /// `--ops N`: the per-run operation budget; each figure has a default.
    pub ops: Option<u64>,
    /// `--jobs N`: workers for the scenario grid; 1, or a figure without
    /// a grid, runs serially.
    pub jobs: usize,
}

impl Args {
    /// Parse flags; `switches` are the flags the table runs the figure
    /// with. `None` on any other flag, or on a value that is missing or
    /// not a number (`--jobs` at least 1).
    pub fn parse<S: AsRef<str>>(switches: &[&str], args: &[S]) -> Option<Args> {
        let mut a = Args {
            emr: false,
            gups: false,
            ops: None,
            jobs: 1,
        };
        let mut it = args.iter().map(AsRef::as_ref);
        while let Some(flag) = it.next() {
            match flag {
                "--ops" => a.ops = Some(it.next()?.parse().ok()?),
                "--jobs" => a.jobs = it.next()?.parse().ok().filter(|&n| n >= 1)?,
                "--emr" if switches.contains(&flag) => a.emr = true,
                "--gups" if switches.contains(&flag) => a.gups = true,
                _ => return None,
            }
        }
        Some(a)
    }

    /// The machine preset: EMR under `--emr`, else SPR.
    pub fn platform(&self) -> simarch::MachineConfig {
        if self.emr {
            simarch::MachineConfig::emr()
        } else {
            simarch::MachineConfig::spr()
        }
    }

    /// `--ops`, or [`crate::DEFAULT_OPS`].
    pub fn ops(&self) -> u64 {
        self.ops.unwrap_or(crate::DEFAULT_OPS)
    }

    /// The platform's CSV name for `stem`: `<stem>_spr.csv` or
    /// `<stem>_emr.csv`.
    pub fn platform_csv(&self, stem: &str) -> String {
        format!("{stem}_{}.csv", if self.emr { "emr" } else { "spr" })
    }

    /// The title tag of an `--emr` run, which draws the paper's Figure
    /// `figure`; empty on SPR.
    pub fn emr_tag(&self, figure: u32) -> String {
        if self.emr {
            format!(" [EMR variant = Figure {figure}]")
        } else {
            String::new()
        }
    }
}

/// What `bench` was asked to run.
pub enum Command {
    /// `bench <figure> [flags]`.
    Figure(&'static Run, Args),
    /// `bench all [--jobs N]`: every row of [`RUNS`] at its figure's
    /// default `--ops`, on `N` workers.
    All(usize),
}

impl Command {
    /// Parse `bench`'s arguments once `obs::cli::ObsArgs::strip` has taken
    /// the obs flags; `None` when they name no figure of the table or carry
    /// a flag it does not take.
    pub fn parse(args: &[String]) -> Option<Command> {
        let (name, flags) = args.split_first()?;
        if name == "all" {
            return Args::parse(&[], flags)
                .filter(|a| a.ops.is_none())
                .map(|a| Command::All(a.jobs));
        }
        let rows = || RUNS.iter().filter(|r| r.figure == name);
        let switches: Vec<&str> = rows().flat_map(|r| r.flags.iter().copied()).collect();
        let run = rows().next()?;
        Some(Command::Figure(run, Args::parse(&switches, flags)?))
    }

    /// Run the figure, or every row of the table with `all`'s `--jobs`,
    /// each section headed by its [`Run::spec`].
    pub fn run(&self) -> io::Result<()> {
        let jobs = match self {
            Command::Figure(run, args) => return (run.run)(args),
            Command::All(jobs) => *jobs,
        };
        for run in RUNS {
            let own = Args::parse(run.flags, run.flags)
                .ok_or_else(|| io::Error::other(format!("bad table row {}", run.spec())))?;
            eprintln!("==> {}", run.spec());
            println!("===== {} =====", run.spec());
            (run.run)(&Args { jobs, ..own })?;
            println!();
        }
        Ok(())
    }
}

/// The usage text, which names every row of the table.
pub fn usage() -> String {
    let mut text = String::from(
        "usage: bench <figure> [--ops N] [--jobs N]\n\
         \x20      bench all [--jobs N]\n\
         both also take --timings, --timings-json <path> and --trace-json <path>\n\
         figures, with the flags each takes:",
    );
    for run in RUNS {
        text.push_str(&format!("\n  {}", run.spec()));
    }
    text + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_figure_takes_its_table_flags_and_values() {
        let argv = ["fig2_core_pmu", "--emr", "--ops", "7", "--jobs", "2"].map(String::from);
        let Some(Command::Figure(run, args)) = Command::parse(&argv) else {
            panic!("fig2_core_pmu --emr parses");
        };
        assert_eq!(run.figure, "fig2_core_pmu");
        assert_eq!((args.emr, args.ops, args.jobs), (true, Some(7), 2));
        assert!(Command::parse(&["fig2_core_pmu", "--gups"].map(String::from)).is_none());
    }
}
