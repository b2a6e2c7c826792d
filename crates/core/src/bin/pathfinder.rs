//! The PathFinder command-line interface.
//!
//! ```text
//! pathfinder list-counters             # the §3 PMU dissection (232+ events)
//! pathfinder list-apps                 # the Table-6 workload registry
//! pathfinder profile <app> [options]   # profile one application
//! pathfinder compare <app> [options]   # local vs CXL side by side
//!
//! options:
//!   --policy local|cxl|mix:<f>   memory placement (default cxl); mix puts
//!                                a fraction 0 <= f <= 1 of pages on CXL
//!   --ops N                      operation budget (default 500000)
//!   --emr                        use the EMR platform preset
//!   --seed N                     workload seed (default 42)
//!   --timings                    print the phase-timing table after the run
//!   --timings-json <path>        write per-phase timings + metrics JSON
//!   --trace-json <path>          write Chrome trace-event JSON
//! ```
//!
//! The three `--timings*`/`--trace-json` flags enable the `obs` recorder
//! (see OBSERVABILITY.md); without them no wall clock is read and output is
//! byte-identical to an instrumented run.

use pathfinder::model::{HitLevel, PathGroup};
use pathfinder::profiler::{ProfileSpec, Profiler};
use simarch::{Machine, MachineConfig, MemPolicy, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: pathfinder <list-counters|list-apps|profile <app>|compare <app>>\n\
         \x20  [--policy local|remote|cxl|mix:<f>] [--ops N] [--emr] [--seed N]\n\
         \x20  [--timings] [--timings-json <path>] [--trace-json <path>]"
    );
    std::process::exit(2);
}

struct Opts {
    policy: MemPolicy,
    ops: u64,
    cfg: MachineConfig,
    seed: u64,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        policy: MemPolicy::Cxl,
        ops: 500_000,
        cfg: MachineConfig::spr(),
        seed: 42,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--emr" => o.cfg = MachineConfig::emr(),
            "--ops" => {
                i += 1;
                o.ops = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                o.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--policy" => {
                i += 1;
                let v = args.get(i).map(String::as_str).unwrap_or_else(|| usage());
                o.policy = match v {
                    "local" => MemPolicy::Local,
                    "remote" => MemPolicy::RemoteNuma,
                    "cxl" => MemPolicy::Cxl,
                    // A fraction outside [0, 1] (NaN and ±inf included)
                    // is a usage error, not a policy to clamp.
                    m => match m.strip_prefix("mix:").and_then(|f| f.parse::<f64>().ok()) {
                        Some(f) if (0.0..=1.0).contains(&f) => {
                            MemPolicy::Interleave { cxl_fraction: f }
                        }
                        _ => usage(),
                    },
                };
            }
            _ => usage(),
        }
        i += 1;
    }
    o
}

fn profile(app: &str, o: &Opts) -> (pathfinder::Report, Profiler) {
    let Some(trace) = workloads::build(app, o.ops, o.seed) else {
        eprintln!("unknown application {app:?}; see `pathfinder list-apps`");
        std::process::exit(1);
    };
    let mut machine = Machine::new(o.cfg.clone());
    machine.attach(0, Workload::new(app, trace, o.policy));
    let mut profiler = Profiler::new(machine, ProfileSpec::default());
    let report = profiler.run(10_000);
    (report, profiler)
}

fn main() -> std::io::Result<()> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (obs_args, args) = obs::cli::ObsArgs::strip(&raw).unwrap_or_else(|e| {
        eprintln!("pathfinder: {e}");
        usage()
    });
    let session = obs::cli::Session::new(obs_args);
    match args.first().map(String::as_str) {
        Some("list-counters") => {
            print!("{}", pmu::registry::render_table());
            let counts = pmu::registry::counts_by_pmu();
            let total: usize = counts.iter().map(|(_, n)| n).sum();
            eprintln!("\n{total} counters across {} PMUs", counts.len());
        }
        Some("list-apps") => {
            println!(
                "{:<20} {:<10} {:>14} {:>14}",
                "name", "suite", "paper WS (MiB)", "scaled (MiB)"
            );
            for a in workloads::suite::APPS {
                println!(
                    "{:<20} {:<10} {:>14.1} {:>14.1}",
                    a.name,
                    a.suite,
                    a.paper_ws_mib,
                    a.ws_bytes() as f64 / 1048576.0
                );
            }
        }
        Some("profile") => {
            let app = args.get(1).cloned().unwrap_or_else(|| usage());
            let o = parse_opts(&args[2..]);
            println!(
                "profiling {app} on {} / {} ({} ops)\n",
                o.cfg.name,
                match o.policy {
                    MemPolicy::Local => "local".into(),
                    MemPolicy::RemoteNuma => "numa-remote".into(),
                    MemPolicy::Cxl => "cxl".into(),
                    MemPolicy::Interleave { cxl_fraction } =>
                        format!("{:.0}% cxl", cxl_fraction * 100.0),
                },
                o.ops
            );
            let (report, _profiler) = profile(&app, &o);
            println!("{}", report.render());
            if obs::is_enabled() {
                print!("{}", report.overhead.render());
            }
        }
        Some("compare") => {
            let app = args.get(1).cloned().unwrap_or_else(|| usage());
            let mut o = parse_opts(&args[2..]);
            o.policy = MemPolicy::Local;
            let (local, _) = profile(&app, &o);
            o.policy = MemPolicy::Cxl;
            let (cxl, _) = profile(&app, &o);
            println!("{app}: local vs CXL on {}\n", o.cfg.name);
            println!(
                "{:<28} {:>14} {:>14} {:>8}",
                "metric", "local", "cxl", "ratio"
            );
            let row = |name: &str, l: f64, c: f64| {
                println!(
                    "{:<28} {:>14.0} {:>14.0} {:>7.2}x",
                    name,
                    l,
                    c,
                    if l > 0.0 { c / l } else { f64::NAN }
                );
            };
            row("run cycles", local.cycles as f64, cxl.cycles as f64);
            row(
                "memory-level hits",
                local.path_map.total.level_total(HitLevel::LocalDram) as f64,
                cxl.path_map.total.level_total(HitLevel::CxlMemory) as f64,
            );
            row(
                "CXL-induced stall (cycles)",
                local.stalls.total(),
                cxl.stalls.total(),
            );
            for p in PathGroup::ALL {
                if cxl.stalls.path_total(p) > 0.0 {
                    let pct = cxl.stalls.percentages(p);
                    // total_cmp: percentages can be NaN when a path saw no
                    // traffic, and user-selected app pairs can produce that.
                    let top = pathfinder::model::Component::ALL
                        .iter()
                        .max_by(|a, b| pct[a.idx()].total_cmp(&pct[b.idx()]));
                    if let Some(top) = top {
                        println!(
                            "{:<28} {:>37}",
                            format!("{} stall concentrates at", p.label()),
                            format!("{} ({:.1}%)", top.label(), pct[top.idx()])
                        );
                    }
                }
            }
        }
        _ => usage(),
    }
    session.finish()
}
