//! saavbench: the workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! saavbench --workload <sweep-cold|overload|city> --seed <n>
//!           --seconds <s> --trace <0|1>
//! saavbench --print-manifest
//! saavbench --record-digests [<seed>...]
//! ```
//!
//! With `--trace 0` it sets the workload up [`workload::SETUP_REPS`]
//! times, runs its closed loop for `--seconds`, checks every operation's
//! output digest, and prints the end-to-end metrics. With `--trace 1` it
//! runs the traced decomposition of the three workloads and of a warm
//! re-sweep instead, prints
//! the per-layer table and writes the spans as chrome-trace JSON. The
//! last line of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod alloc;
mod digest;
mod host;
mod layers;
mod manifest;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;

use workload::Workload;

#[global_allocator]
static HEAP: alloc::CountingAlloc = alloc::CountingAlloc;

/// Parsed command line of a measuring run.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::SweepCold,
        seed: digest::DEFAULT_SEED,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
        return Err(format!("bad --seconds {}", parsed.seconds));
    }
    Ok(parsed)
}

/// The final result line.
fn result_json(attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|&(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                manifest::unit(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

fn timed(args: &Args, steal: Option<u64>) -> String {
    let w = args.workload;
    let m = workload::measure(w, args.seed, args.seconds);
    let (expected, source) = w.expected(args.seed);
    let attempted = m.tally.attempted();
    let failed = m.tally.failed(&expected);
    let sorted = stats::sorted(m.samples_us.kept());
    let op_us = stats::median(&sorted);
    let setup_s = stats::median(&m.setup_s);
    let peak_heap_mb = m.peak_heap_bytes as f64 / (1u64 << 20) as f64;
    let unit = match w {
        Workload::City => "simulated seconds".to_string(),
        _ => format!("batches of {} jobs", w.jobs().len()),
    };
    let tail = match stats::tail(&sorted) {
        Some((p, v)) => format!("p{p} {v:.3} us"),
        None => "no percentile has 10 samples beyond it".into(),
    };
    println!("host {}", host::fingerprint(steal));
    println!(
        "op_us         {op_us:>14.3} us   median of {} samples kept of {} ({unit}); {tail}",
        sorted.len(),
        m.samples_us.seen()
    );
    let setups = stats::sorted(&m.setup_s);
    println!(
        "setup_s       {setup_s:>14.4} s    median of {} set-ups, range {:.4}..{:.4} s",
        setups.len(),
        setups[0],
        setups[setups.len() - 1],
    );
    println!("peak_heap_mb  {peak_heap_mb:>14.3} MiB  largest heap of a set-up or timed operation, threads' rises summed, above the start");
    println!(
        "fail_frac     {:>14.6}      {failed} of {attempted} operations failed their {source} digest",
        failed as f64 / attempted.max(1) as f64
    );
    result_json(
        attempted,
        failed,
        &[
            ("op_us", op_us),
            ("setup_s", setup_s),
            ("peak_heap_mb", peak_heap_mb),
        ],
    )
}

fn traced(args: &Args, steal: Option<u64>) -> String {
    let report = layers::run(args.seed);
    let fingerprint = host::fingerprint(steal);
    println!("host {fingerprint}");
    println!(
        "{:<34} {:>16} {:<12} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in &report.metrics {
        println!(
            "{:<34} {:>16.4} {:<12} {:>9}",
            m.name,
            m.value,
            manifest::unit(&m.name),
            m.samples
        );
    }
    let mut listed: Vec<&str> = manifest::PER_LAYER.iter().map(|m| m.0).collect();
    let mut emitted: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    listed.sort_unstable();
    emitted.sort_unstable();
    assert_eq!(
        listed, emitted,
        "the traced run emits exactly the listed per-layer metrics"
    );

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-seed{}.json", args.seed));
    let meta = format!("{{\"seed\": {}, \"host\": {fingerprint}}}", args.seed);
    let json = report.spans.chrome_json(layers::exported, &meta);
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, json)) {
        Ok(()) => println!(
            "spans: {} recorded, 1 Hz ticks and every other call exported to {}",
            report.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!(
        "{} of {} checked outputs differ from their expected digest",
        report.failed, report.attempted
    );
    let metrics: Vec<(&str, f64)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.value))
        .collect();
    result_json(report.attempted, report.failed, &metrics)
}

/// Prints the recorded-digest table for `seeds` (default: every recorded
/// seed): every workload, then the warm re-sweep of the traced run.
fn record(seeds: &[String]) -> Result<(), String> {
    let seeds: Vec<u64> = if seeds.is_empty() {
        digest::recorded_seeds()
    } else {
        let parsed = seeds
            .iter()
            .map(|s| s.parse().map_err(|_| format!("bad seed {s}")));
        parsed.collect::<Result<_, _>>()?
    };
    println!("# <workload> <seed> <output digest of each job, in job order>");
    for seed in seeds {
        for w in Workload::ALL {
            let digests = digest::reference(&w.reference_jobs(seed));
            println!("{}", digest::record_line(w.name(), seed, &digests));
        }
        let warm = digest::reference(&workload::seeded(workload::short_jobs(), seed));
        println!("{}", digest::record_line(workload::WARM_SWEEP, seed, &warm));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--print-manifest") => {
            print!("{}", manifest::json());
            Ok(())
        }
        Some("--record-digests") => record(&args[1..]),
        _ => parse(&args).map(|args| {
            let steal = host::steal_jiffies();
            println!(
                "saavbench: workload {}, seed {}, {} s, trace {}",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            let line = if args.trace {
                traced(&args, steal)
            } else {
                timed(&args, steal)
            };
            println!("{line}");
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("saavbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use saav_core::fleet::FleetRunner;
    use saav_sim::time::Duration;

    use crate::digest::{self, Tally};
    use crate::workload::{self, Workload};
    use crate::{manifest, stats};

    /// Two short library cells, run three times through the fleet.
    fn tally_of_three_batches() -> (Tally, Vec<Option<u64>>) {
        let mut jobs = workload::short_jobs();
        jobs.truncate(2);
        for s in &mut jobs {
            s.duration = Duration::from_secs(2);
        }
        let runner = FleetRunner::new(7);
        let mut tally = Tally::new(jobs.len());
        for _ in 0..3 {
            for (i, r) in runner
                .run_scenarios(jobs.clone())
                .records
                .iter()
                .enumerate()
            {
                tally.record(i, digest::summary(&r.summary), 1);
            }
        }
        (tally, digest::reference(&workload::seeded(jobs, 7)))
    }

    #[test]
    fn flipped_digest_counts_failed_operations() {
        let (tally, expected) = tally_of_three_batches();
        assert_eq!(tally.attempted(), 6);
        assert_eq!(
            tally.failed(&expected),
            0,
            "fleet output equals the reference"
        );
        let mut flipped = expected.clone();
        flipped[1] = flipped[1].map(|d| d ^ 1);
        assert_eq!(
            tally.failed(&flipped),
            3,
            "every operation of the job fails"
        );
        assert_eq!(
            tally.failed(&[None, expected[1]]),
            3,
            "a failed reference fails its job"
        );
    }

    #[test]
    fn panics_count_as_failed_operations() {
        let (mut tally, expected) = tally_of_three_batches();
        tally.record_panic(2);
        assert_eq!((tally.attempted(), tally.failed(&expected)), (8, 2));
    }

    #[test]
    fn default_and_held_out_seeds_are_recorded() {
        let sets = Workload::ALL
            .iter()
            .map(|w| (w.name(), w.reference_jobs(0).len()))
            .chain([(workload::WARM_SWEEP, workload::short_jobs().len())]);
        for (name, jobs) in sets {
            for seed in [digest::DEFAULT_SEED, digest::HELD_OUT_SEED] {
                let recorded = digest::recorded(name, seed).expect("recorded");
                assert_eq!(recorded.len(), jobs, "{name} seed {seed}");
            }
        }
    }

    #[test]
    fn committed_manifest_matches_the_code() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest::json());
    }

    #[test]
    fn full_sample_buffer_keeps_an_evenly_spaced_subsample() {
        let mut s = workload::Samples::with_capacity(4);
        for v in 0..10 {
            s.push(f64::from(v));
        }
        assert_eq!((s.kept(), s.seen()), (&[0.0, 4.0, 8.0][..], 10));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(stats::tail(&samples), Some((95.0, 190.0)));
        assert_eq!(stats::tail(&samples[..19]), None);
        assert_eq!(stats::median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
