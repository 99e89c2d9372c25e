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

use saav_bench::*;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = extract_threads(&mut args);
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
            "e14", "e15", "e16", "e17", "a1", "a2", "a3",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };
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
                    Err(e) => eprintln!("could not write trace.json: {e}"),
                }
            }
            "e17" => {
                println!("{}", exp_dynamic::e17_table().render());
                println!("{}", exp_dynamic::e17b_table().render());
            }
            "a1" => println!("{}", exp_skills::a1_table().render()),
            "a2" => println!("{}", exp_propagation::a2_table().render()),
            "a3" => println!("{}", exp_monitor::a3_table().render()),
            other => eprintln!("unknown experiment `{other}`"),
        }
    }
}

/// Removes `--threads N` / `--threads=N` from the argument list and
/// returns the parsed count, if present and valid.
fn extract_threads(args: &mut Vec<String>) -> Option<usize> {
    let mut threads = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix("--threads=") {
            threads = parse_threads(v);
            args.remove(i);
        } else if args[i] == "--threads" {
            // Consume the value only when it parses; otherwise leave it in
            // place so `--threads e11` still runs e11 (with a warning)
            // instead of silently falling back to the full suite.
            let parsed = args.get(i + 1).and_then(|v| parse_threads(v));
            if parsed.is_some() {
                threads = parsed;
                args.drain(i..i + 2);
            } else {
                if args.get(i + 1).is_none() {
                    eprintln!("--threads requires a value");
                }
                args.remove(i);
            }
        } else {
            i += 1;
        }
    }
    threads
}

fn parse_threads(v: &str) -> Option<usize> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            eprintln!("ignoring invalid --threads value `{v}`");
            None
        }
    }
}
