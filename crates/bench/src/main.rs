//! `bench <figure>` or `bench all`: regenerate the paper's figures and
//! tables from the figure table (`bench::figures::RUNS`). A command line
//! the table does not run prints the usage and exits 2 before any run.

use bench::figures::{usage, Command};

fn main() -> std::io::Result<()> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (obs_args, args) = obs::cli::ObsArgs::strip(&raw).unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        exit_with_usage()
    });
    let command = Command::parse(&args).unwrap_or_else(|| exit_with_usage());
    let session = obs::cli::Session::new(obs_args);
    command.run()?;
    session.finish()
}

fn exit_with_usage() -> ! {
    eprint!("{}", usage());
    std::process::exit(2);
}
