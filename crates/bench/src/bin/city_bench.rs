//! Emits `BENCH_city_cosim.json`: the machine-readable performance
//! trajectory of the city-scale tiered-fidelity engine.
//!
//! Usage: `city_bench [--test] [--out PATH]`
//!
//! The emitter first calibrates the two fidelity tiers in isolation — a
//! pure-surrogate chain (ns per surrogate vehicle-tick) and a single full
//! self-awareness stack (ns per full vehicle-tick) — then sweeps 10, 100
//! and 1,000-vehicle chains with 1, 2 and 4 focal stacks, reporting
//! ticks/s, vehicle×ticks/s and the per-tier cost split for each.
//!
//! Outside `--test` mode the process exits nonzero unless the calibrated
//! full/surrogate cost ratio is at least 50× — the acceptance floor that
//! makes 1,000-vehicle scenes tractable. `--test` shrinks every horizon
//! for CI smoke runs and skips the gate (short horizons are noisy).
//!
//! JSON schema (`schema_version` 3): see the README's "City-scale
//! co-simulation" section.

use std::time::Instant;

use saav_core::outcome::CityOutcome;
use saav_core::runner;
use saav_core::scenario::{CitySpec, Scenario};
use saav_core::telemetry::{Counter, Telemetry};
use saav_sim::time::Duration;

/// Acceptance floor for the full/surrogate per-vehicle-tick cost ratio.
const MIN_TIER_RATIO: f64 = 50.0;
/// Repetitions per arm of the observability measurement (best-of).
const OBS_REPS: usize = 3;

/// The `(vehicles, focal)` grid the sweep covers.
const SWEEP: [(usize, usize); 9] = [
    (10, 1),
    (10, 2),
    (10, 4),
    (100, 1),
    (100, 2),
    (100, 4),
    (1_000, 1),
    (1_000, 2),
    (1_000, 4),
];

fn scenario(vehicles: usize, focal: usize, secs: u64) -> Scenario {
    Scenario::builder(format!("bench/{vehicles}v{focal}f"))
        .seed(7)
        .duration(Duration::from_secs(secs))
        .city(CitySpec::new(vehicles - focal, focal))
        .build()
}

/// Runs one scenario, returning its tier statistics and wall time (s).
fn run_timed(vehicles: usize, focal: usize, secs: u64) -> (CityOutcome, f64) {
    let start = Instant::now();
    let out = runner::run(scenario(vehicles, focal, secs));
    let wall = start.elapsed().as_secs_f64();
    (out.city.expect("city run"), wall)
}

struct SweepRow {
    vehicles: usize,
    focal: usize,
    ticks: u64,
    wall_s: f64,
    surrogate_vehicle_ticks: u64,
    full_vehicle_ticks: u64,
    promotions: u64,
    max_full_tier: usize,
    collision: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let out_path = out_path(&args);
    let (horizon_s, calib_s) = if test_mode { (5, 2) } else { (60, 10) };

    // --- tier calibration ------------------------------------------------
    // Surrogate tier: a 1,000-vehicle chain with no focal stack.
    let (c, wall) = run_timed(1_000, 0, calib_s);
    let surrogate_ns = wall * 1e9 / c.surrogate_vehicle_ticks as f64;
    // Full tier: one focal stack and no background.
    let (c, wall) = run_timed(1, 1, calib_s);
    let full_ns = wall * 1e9 / c.full_vehicle_ticks as f64;
    let ratio = full_ns / surrogate_ns;
    eprintln!(
        "tier calibration: surrogate {surrogate_ns:.0} ns/vehicle-tick, \
         full {full_ns:.0} ns/vehicle-tick, ratio {ratio:.0}x"
    );

    // --- sweep -----------------------------------------------------------
    let rows: Vec<SweepRow> = SWEEP
        .iter()
        .map(|&(vehicles, focal)| {
            let (c, wall_s) = run_timed(vehicles, focal, horizon_s);
            eprintln!(
                "{vehicles:>5} vehicles / {focal} focal: {:.2} s wall, {:.0} ticks/s, \
                 {:.2}M vehicle-ticks/s",
                wall_s,
                c.ticks as f64 / wall_s,
                (c.surrogate_vehicle_ticks + c.full_vehicle_ticks) as f64 / wall_s / 1e6,
            );
            SweepRow {
                vehicles,
                focal,
                ticks: c.ticks,
                wall_s,
                surrogate_vehicle_ticks: c.surrogate_vehicle_ticks,
                full_vehicle_ticks: c.full_vehicle_ticks,
                promotions: c.promotions,
                max_full_tier: c.max_full_tier,
                collision: c.chain_collision || c.focal_collision_count() > 0,
            }
        })
        .collect();

    // --- observability (informational) -----------------------------------
    // The flagship 1,000v/2f row rerun unmounted vs with a telemetry sink
    // mounted, best of OBS_REPS each — the same noise-robust statistic the
    // gated version of this comparison in `fleet_bench` uses (a single
    // cold rep against the sweep row overstated the cost by an order of
    // magnitude). This block just records the cost alongside the sweep it
    // perturbs.
    let best_of = |run: &dyn Fn()| -> f64 {
        (0..OBS_REPS)
            .map(|_| {
                let start = Instant::now();
                run();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let unmounted_wall_s = best_of(&|| {
        let _ = runner::run(scenario(1_000, 2, horizon_s));
    });
    let sink = Telemetry::default();
    let mounted_wall_s = best_of(&|| {
        let _ = runner::run_observed(scenario(1_000, 2, horizon_s), None, &sink);
    });
    let obs = sink.snapshot();
    let obs_overhead = mounted_wall_s / unmounted_wall_s.max(1e-9) - 1.0;
    eprintln!(
        "observability: 1000v/2f mounted {mounted_wall_s:.3} s vs unmounted {unmounted_wall_s:.3} s \
         ({:+.1}%, {} trace events/rep)",
        obs_overhead * 100.0,
        obs.events_recorded / OBS_REPS as u64,
    );

    // --- JSON ------------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"city_cosim\",\n");
    json.push_str("  \"schema_version\": 3,\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if test_mode { "test" } else { "full" }
    ));
    json.push_str(&format!("  \"horizon_s\": {horizon_s},\n"));
    json.push_str("  \"tier_cost\": {\n");
    json.push_str(&format!(
        "    \"surrogate_ns_per_vehicle_tick\": {surrogate_ns:.1},\n"
    ));
    json.push_str(&format!(
        "    \"full_ns_per_vehicle_tick\": {full_ns:.1},\n"
    ));
    json.push_str(&format!("    \"full_over_surrogate\": {ratio:.1}\n"));
    json.push_str("  },\n");
    json.push_str("  \"sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let total_ticks = r.surrogate_vehicle_ticks + r.full_vehicle_ticks;
        // Cost split estimated from the calibrated per-tick costs: what
        // share of the modeled work each tier accounts for.
        let surrogate_cost = r.surrogate_vehicle_ticks as f64 * surrogate_ns;
        let full_cost = r.full_vehicle_ticks as f64 * full_ns;
        let split = full_cost / (surrogate_cost + full_cost).max(1.0);
        json.push_str(&format!(
            "    {{\"vehicles\": {}, \"focal\": {}, \"ticks\": {}, \"wall_s\": {:.3}, \
             \"ticks_per_s\": {:.1}, \"vehicle_ticks_per_s\": {:.1}, \
             \"surrogate_vehicle_ticks\": {}, \"full_vehicle_ticks\": {}, \
             \"full_tier_cost_share\": {:.3}, \"promotions\": {}, \
             \"max_full_tier\": {}, \"collision\": {}}}{}\n",
            r.vehicles,
            r.focal,
            r.ticks,
            r.wall_s,
            r.ticks as f64 / r.wall_s,
            total_ticks as f64 / r.wall_s,
            r.surrogate_vehicle_ticks,
            r.full_vehicle_ticks,
            split,
            r.promotions,
            r.max_full_tier,
            r.collision,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"observability_overhead\": {\n");
    json.push_str("    \"scenario\": \"city 1000v/2f\",\n");
    json.push_str("    \"informational\": true,\n");
    json.push_str(&format!("    \"reps\": {OBS_REPS},\n"));
    json.push_str(&format!(
        "    \"unmounted_wall_s\": {unmounted_wall_s:.3},\n"
    ));
    json.push_str(&format!("    \"mounted_wall_s\": {mounted_wall_s:.3},\n"));
    json.push_str(&format!("    \"overhead_frac\": {obs_overhead:.4},\n"));
    json.push_str(&format!(
        "    \"mounted_counters\": {{\"tier_promotions\": {}, \"tier_demotions\": {}, \
         \"events_recorded\": {}}}\n",
        obs.counter(Counter::TierPromotions),
        obs.counter(Counter::TierDemotions),
        obs.events_recorded,
    ));
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    // --- acceptance gates ------------------------------------------------
    if !test_mode && ratio < MIN_TIER_RATIO {
        eprintln!(
            "FAIL: full/surrogate cost ratio {ratio:.1}x is below the \
             {MIN_TIER_RATIO:.0}x floor — the surrogate tier is not cheap \
             enough to carry city-scale background traffic"
        );
        std::process::exit(1);
    }
}

/// Parses `--out PATH` / `--out=PATH`; defaults to `BENCH_city_cosim.json`.
fn out_path(args: &[String]) -> String {
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if let Some(v) = a.strip_prefix("--out=") {
            return v.to_string();
        }
        if a == "--out" {
            if let Some(v) = iter.next() {
                return v.clone();
            }
        }
    }
    "BENCH_city_cosim.json".to_string()
}
