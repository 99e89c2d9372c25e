//! Smoke tests over the `saav-bench` experiment harness: every experiment
//! entry point the `repro` binary dispatches to (E1–E10 plus the A1–A3
//! ablations) must complete on its fixed internal seed and produce a
//! non-empty, renderable table.

use saav_bench::{
    exp_can, exp_city, exp_fleet, exp_learn, exp_mcc, exp_monitor, exp_platoon, exp_propagation,
    exp_scenarios, exp_skills,
};
use saav_sim::report::Table;

/// Asserts the experiment produced data rows and a renderable table.
fn assert_populated(id: &str, table: &Table) {
    assert!(!table.is_empty(), "{id}: table has no data rows");
    let rendered = table.render();
    assert!(!rendered.trim().is_empty(), "{id}: rendered table is empty");
    assert!(
        rendered.lines().count() > table.len(),
        "{id}: rendered table is missing its header"
    );
}

#[test]
fn e1_can_round_trip_completes() {
    assert_populated("e1", &exp_can::e1_table());
    assert_populated("e1b", &exp_can::e1_throughput_table());
    let (lo, hi) = exp_can::e1_added_range_us();
    assert!(lo > 0.0 && hi >= lo, "e1: added-latency range [{lo}, {hi}]");
}

#[test]
fn e2_fpga_break_even_completes() {
    assert_populated("e2", &exp_can::e2_table());
}

#[test]
fn e3_monitor_interference_completes() {
    assert_populated("e3", &exp_monitor::e3_table());
}

#[test]
fn e4_mcc_acceptance_completes() {
    assert_populated("e4", &exp_mcc::e4_table());
}

#[test]
fn e5_ability_detection_completes() {
    assert_populated("e5", &exp_skills::e5_table());
}

#[test]
fn e6_intrusion_strategies_completes() {
    assert_populated("e6", &exp_scenarios::e6_table());
}

#[test]
fn e7_thermal_stress_completes() {
    assert_populated("e7", &exp_scenarios::e7_table());
}

#[test]
fn e8_platoon_agreement_completes() {
    assert_populated("e8", &exp_platoon::e8_table());
    assert_populated("e8b", &exp_platoon::e8b_table());
}

#[test]
fn e9_risk_aware_routing_completes() {
    assert_populated("e9", &exp_platoon::e9_table());
}

#[test]
fn e10_propagation_completes() {
    assert_populated("e10", &exp_propagation::e10_table());
    assert_populated("e10b", &exp_propagation::e10b_fmea_table());
}

/// Smoke for the E11 entry point: a slice of the grid renders. The full
/// ≥24-run sweep is asserted in `exp_fleet`'s own tests and exercised in
/// release mode by CI's `repro -- e11` step.
#[test]
fn e11_fleet_sweep_completes() {
    use saav_core::fleet::FleetRunner;
    use saav_core::scenario::{ResponseStrategy, ScenarioFamily};
    let fleet = FleetRunner::new(exp_fleet::E11_MASTER_SEED).sweep(
        &[ScenarioFamily::Baseline, ScenarioFamily::Intrusion],
        &ResponseStrategy::ALL,
        1,
    );
    assert_eq!(fleet.records.len(), 6);
    assert_populated("e11", &exp_fleet::e11_runs_table(&fleet));
}

/// Smoke for the E12 entry points: a model trained on short captured
/// traces scores a grid slice and both tables render. The full train →
/// calibrate → 27-run sweep and its acceptance thresholds live in
/// `exp_learn`'s own tests and CI's `repro -- e12` step.
#[test]
fn e12_learned_monitor_completes() {
    use saav_core::fleet::FleetRunner;
    use saav_core::scenario::{ResponseStrategy, ScenarioFamily};
    use saav_learn::{LearnConfig, SelfAwarenessModel};
    use saav_sim::time::Duration;
    let jobs = |n: usize| -> Vec<_> {
        (0..n)
            .map(|_| {
                let mut s = ScenarioFamily::Baseline.build(ResponseStrategy::CrossLayer, 0);
                s.duration = Duration::from_secs(30);
                s
            })
            .collect()
    };
    let runner = FleetRunner::new(exp_learn::E12_TRAIN_SEED);
    let traces = runner.capture_traces(jobs(3));
    let model = SelfAwarenessModel::train(&traces, LearnConfig::default()).unwrap();
    let fleet = runner.with_model(model.clone()).run_scenarios(jobs(2));
    let e12 = exp_learn::E12Outcome { fleet, model };
    assert_eq!(e12.baseline_false_positives(), 0);
    assert_populated("e12", &exp_learn::e12_runs_table(&e12));
    assert_populated("e12b", &exp_learn::e12_summary_table(&e12));
}

/// Smoke for the E15 entry point: a cache-mounted slice of the grid runs
/// cold then warm, the warm pass is pure cache traffic, and the columnar
/// sink round-trips it. The full 27-run cold/warm grid and its
/// bit-identity assertions live in `exp_fleet`'s own tests and CI's
/// `repro -- e15` step.
#[test]
fn e15_memoized_sweep_completes() {
    use saav_core::cache::ResultCache;
    use saav_core::colstore;
    use saav_core::fleet::{FleetRunner, FleetStats};
    use saav_core::scenario::{ResponseStrategy, ScenarioFamily};
    let cache = ResultCache::in_memory();
    let runner = FleetRunner::new(exp_fleet::E11_MASTER_SEED).with_cache(cache.clone());
    let grid = || {
        runner.sweep(
            &[ScenarioFamily::Baseline, ScenarioFamily::Intrusion],
            &ResponseStrategy::ALL,
            1,
        )
    };
    let cold = grid();
    let warm = grid();
    assert_eq!(warm.records, cold.records);
    assert_eq!(cache.stats().hits, 6, "e15: warm slice must be all hits");
    let decoded =
        colstore::from_bytes(&colstore::to_bytes(&warm.records)).expect("e15: columnar round trip");
    assert_eq!(decoded, warm.records);
    assert_eq!(FleetStats::from_records(&decoded), warm.stats);
}

/// Smoke for the E14 entry point: the density sweep renders one row per
/// density and the densest scene really exercises the surrogate tier.
/// The latency-invariance acceptance thresholds live in `exp_city`'s own
/// tests and CI's `repro -- e14` step.
#[test]
fn e14_city_density_sweep_completes() {
    let table = exp_city::e14_table();
    assert_eq!(
        table.len(),
        exp_city::E14_DENSITIES.len(),
        "e14: one row per background density"
    );
    assert_populated("e14", &table);
}

#[test]
fn ablations_complete() {
    assert_populated("a1", &exp_skills::a1_table());
    assert_populated("a2", &exp_propagation::a2_table());
    assert_populated("a3", &exp_monitor::a3_table());
}

/// The experiments are seeded internally, so rerunning one must reproduce
/// the identical table — this is what makes the repro harness a repro.
#[test]
fn experiments_are_deterministic() {
    assert_eq!(
        exp_can::e1_table().render(),
        exp_can::e1_table().render(),
        "e1 is not deterministic across runs"
    );
    assert_eq!(
        exp_propagation::e10_table().render(),
        exp_propagation::e10_table().render(),
        "e10 is not deterministic across runs"
    );
}
