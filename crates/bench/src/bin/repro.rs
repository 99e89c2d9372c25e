//! Prints the reproduced tables for every experiment in the `saav-bench`
//! crate docs (E1–E17 and the A1–A3 ablations).
//!
//! Usage: `repro [--threads N] [e1 … e17 a1 a2 a3 | all]`
//!
//! `e16` additionally writes the combined chrome-tracing export to
//! `./trace.json` (openable in Perfetto).
//!
//! `--threads N` pins the fleet worker count of the sweep experiments
//! (E11/E12/E13); without it the `SAAV_THREADS` environment variable applies,
//! and failing that all available cores are used.
//!
//! Every argument is checked before any table is printed. An unknown
//! experiment id, or a `--threads` value that is missing or not a positive
//! integer, prints the usage to stderr and exits with status 2. A failed
//! `trace.json` write exits with status 1 once the other tables are printed.

use std::process::ExitCode;

use saav_bench::*;

const USAGE: &str = "usage: repro [--threads N] [e1 … e17 a1 a2 a3 | all]";

/// Every experiment id, in the order `all` runs them.
const ALL: [&str; 20] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "a1", "a2", "a3",
];

fn main() -> ExitCode {
    let (threads, wanted) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(problem) => {
            eprintln!("{problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut status = ExitCode::SUCCESS;
    for id in wanted {
        match id {
            "e1" => {
                println!("{}", exp_can::e1_table().render());
                println!("{}", exp_can::e1_throughput_table().render());
            }
            "e2" => println!("{}", exp_can::e2_table().render()),
            "e3" => println!("{}", exp_monitor::e3_table().render()),
            "e4" => println!("{}", exp_mcc::e4_table().render()),
            "e5" => println!("{}", exp_skills::e5_table().render()),
            "e6" => println!("{}", exp_scenarios::e6_table().render()),
            "e7" => println!("{}", exp_scenarios::e7_table().render()),
            "e8" => {
                println!("{}", exp_platoon::e8_table().render());
                println!("{}", exp_platoon::e8b_table().render());
            }
            "e9" => println!("{}", exp_platoon::e9_table().render()),
            "e10" => {
                println!("{}", exp_propagation::e10_table().render());
                println!("{}", exp_propagation::e10b_fmea_table().render());
            }
            "e11" => {
                let fleet = exp_fleet::e11_sweep_with_threads(threads);
                println!("{}", exp_fleet::e11_runs_table(&fleet).render());
                println!("{}", exp_fleet::e11_summary_table(&fleet).render());
            }
            "e12" => {
                let e12 = exp_learn::e12_sweep(threads);
                println!("{}", exp_learn::e12_runs_table(&e12).render());
                println!("{}", exp_learn::e12_summary_table(&e12).render());
            }
            "e13" => {
                let fleet = exp_cosim::e13_sweep(threads);
                println!("{}", exp_cosim::e13_runs_table(&fleet).render());
                println!("{}", exp_cosim::e13_summary_table(&fleet).render());
            }
            "e14" => println!("{}", exp_city::e14_table().render()),
            "e15" => {
                println!("{}", exp_fleet::e15_table().render());
                println!("{}", exp_fleet::e15b_table().render());
            }
            "e16" => {
                println!("{}", exp_obs::e16_table().render());
                println!("{}", exp_obs::e16b_table().render());
                // The combined chrome trace, for Perfetto / the CI artifact.
                match std::fs::write("trace.json", exp_obs::e16_trace_json()) {
                    Ok(()) => println!("wrote trace.json (open at ui.perfetto.dev)"),
                    Err(e) => {
                        eprintln!("could not write trace.json: {e}");
                        status = ExitCode::FAILURE;
                    }
                }
            }
            "e17" => {
                println!("{}", exp_dynamic::e17_table().render());
                println!("{}", exp_dynamic::e17b_table().render());
            }
            "a1" => println!("{}", exp_skills::a1_table().render()),
            "a2" => println!("{}", exp_propagation::a2_table().render()),
            "a3" => println!("{}", exp_monitor::a3_table().render()),
            other => unreachable!("`{other}` passed the id check"),
        }
    }
    status
}

/// Splits the arguments into the fleet worker count (`--threads N` or
/// `--threads=N`) and the experiments to run, in argument order; `all` or
/// no id at all selects every experiment.
///
/// # Errors
/// A message naming the first argument that is neither a known id, `all`
/// nor a valid `--threads` setting.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(Option<usize>, Vec<&'static str>), String> {
    let mut threads = None;
    let mut ids = Vec::new();
    let mut all = false;
    while let Some(arg) = args.next() {
        let value = match arg.strip_prefix("--threads=") {
            Some(v) => Some(v.to_owned()),
            None if arg == "--threads" => Some(args.next().ok_or("--threads requires a value")?),
            None => None,
        };
        if let Some(v) = value {
            threads = Some(parse_threads(&v)?);
        } else if arg == "all" {
            all = true;
        } else {
            let id = ALL
                .into_iter()
                .find(|id| *id == arg)
                .ok_or_else(|| format!("unknown experiment `{arg}`"))?;
            ids.push(id);
        }
    }
    if all || ids.is_empty() {
        ids = ALL.to_vec();
    }
    Ok((threads, ids))
}

fn parse_threads(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "invalid --threads value `{v}`: need a positive integer"
        )),
    }
}
