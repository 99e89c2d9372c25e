//! The fleet runner: one master seed, the whole scenario library, every
//! response strategy — batch-evaluated with fleet-level statistics.
//!
//! This is the scenario-sweep style evaluation the paper's claim calls
//! for: cross-layer self-awareness should pay off across *many* operating
//! conditions, not just a hand-picked demo. The sweep runs
//! `families × strategies` jobs across worker threads (deterministically —
//! the same master seed reproduces every run bit-for-bit regardless of
//! thread count) and prints the availability/risk aggregates per strategy.
//!
//! Run with: `cargo run --example fleet_sweep --release`
//!
//! The runner mounts a content-hashed result cache, so the demo sweeps
//! the grid twice: the cold pass simulates everything, the warm pass is
//! served entirely from memoized summaries and reproduces the cold
//! statistics bit for bit. Besides the human-readable report, the sweep
//! is exported as CSV (per-run records and per-strategy aggregates) and
//! as the compact columnar binary batch so downstream tooling can
//! consume it; the batch is read back and checked against the sweep.
//! `SAAV_THREADS` pins the worker count.

use saav::core::cache::ResultCache;
use saav::core::colstore;
use saav::core::csv;
use saav::core::fleet::FleetRunner;
use saav::core::scenario::{ResponseStrategy, ScenarioFamily};

fn main() {
    let cache = ResultCache::in_memory();
    let fleet = FleetRunner::new(2024).with_cache(cache.clone());
    println!(
        "sweeping {} scenario families x {} strategies on {} worker thread(s)…\n",
        ScenarioFamily::ALL.len(),
        ResponseStrategy::ALL.len(),
        fleet.threads()
    );
    let started = std::time::Instant::now();
    let outcome = fleet.sweep(&ScenarioFamily::ALL, &ResponseStrategy::ALL, 1);
    let elapsed = started.elapsed();

    for rec in &outcome.records {
        let s = &rec.summary;
        let (detected, _) = s.fmt_detection();
        println!(
            "  {:<28} detected {:>7}  distance {:>6.0} m  mode {}",
            s.label, detected, s.distance_m, s.final_mode
        );
    }

    let stats = &outcome.stats;
    println!(
        "\n{} runs in {:.2?} ({:.1} scenarios/s)",
        stats.runs,
        elapsed,
        stats.runs as f64 / elapsed.as_secs_f64()
    );
    println!(
        "collision rate {:.3}; detection latency mean {:.1}s / p50 {:.1}s / p95 {:.1}s over {} detected runs",
        stats.collision_rate,
        stats.detection.mean_s,
        stats.detection.p50_s,
        stats.detection.p95_s,
        stats.detection.detected
    );
    for s in &stats.per_strategy {
        println!(
            "  {:<14} availability {:.3}  mean distance {:>6.0} m  collision rate {:.3}",
            format!("{:?}", s.strategy),
            s.availability,
            s.mean_distance_m,
            s.collision_rate
        );
    }
    println!("\nThe ordering the paper predicts holds over the whole library:");
    println!("single-layer handling maximizes raw distance, the objective layer");
    println!("minimizes it, and the cross-layer response keeps most of the");
    println!("mission while staying inside the derived capability envelope.");

    // Warm pass: the identical grid again, now answered from the cache.
    let warm_started = std::time::Instant::now();
    let warm = fleet.sweep(&ScenarioFamily::ALL, &ResponseStrategy::ALL, 1);
    let warm_elapsed = warm_started.elapsed();
    let cs = cache.stats();
    assert_eq!(
        warm.stats, outcome.stats,
        "warm sweep must be bit-identical"
    );
    println!(
        "\nwarm re-sweep: {} runs in {:.2?} ({} cache hits, {} misses) — \
         statistics bit-identical to the cold pass",
        warm.stats.runs, warm_elapsed, cs.hits, cs.misses
    );

    // Machine-consumable export: CSV per aggregation level, plus the
    // compact columnar binary batch.
    let dir = std::path::Path::new("target");
    let _ = std::fs::create_dir_all(dir);
    for (name, content) in [
        (
            "fleet_sweep_runs.csv",
            csv::records_csv(&outcome.records).into_bytes(),
        ),
        (
            "fleet_sweep_strategies.csv",
            csv::strategy_csv(stats).into_bytes(),
        ),
        ("fleet_sweep.col", colstore::to_bytes(&outcome.records)),
    ] {
        let path = dir.join(name);
        match std::fs::write(&path, content) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    // Read the columnar batch back: it must decode to the sweep's records.
    let bytes = std::fs::read(dir.join("fleet_sweep.col")).expect("read target/fleet_sweep.col");
    let decoded = colstore::from_bytes(&bytes).expect("decode target/fleet_sweep.col");
    assert_eq!(
        decoded, outcome.records,
        "columnar round trip must be lossless"
    );
    println!(
        "columnar round trip: {} records, {} B",
        decoded.len(),
        bytes.len()
    );
}
