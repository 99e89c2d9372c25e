//! End-to-end invariants of the learned self-awareness monitor mounted in
//! the assembled vehicle: transparency on nominal runs, detection on
//! disturbed ones, and the learn-then-monitor pipeline over the fleet.

use saav::core::fleet::FleetRunner;
use saav::core::runner;
use saav::core::scenario::{ResponseStrategy, Scenario, ScenarioFamily};
use saav::core::LEARNED_SIGNALS;
use saav::learn::{LearnConfig, SelfAwarenessModel, SignalTrace};
use saav::sim::time::{Duration, Time};

/// Short baseline jobs so training stays cheap; the full-length pipeline
/// is exercised by E12 in `saav-bench`.
fn short_baselines(n: usize, secs: u64) -> Vec<Scenario> {
    (0..n)
        .map(|_| {
            let mut s = ScenarioFamily::Baseline.build(ResponseStrategy::CrossLayer, 0);
            s.duration = Duration::from_secs(secs);
            s
        })
        .collect()
}

fn trained_model(master_seed: u64) -> (FleetRunner, SelfAwarenessModel) {
    let fleet = FleetRunner::new(master_seed);
    // Five runs give the warm-up transient enough seed coverage that the
    // calibrated threshold generalizes to unseen seeds (cf. E12's larger
    // training batch).
    let traces = fleet.capture_traces(short_baselines(5, 40));
    let model = SelfAwarenessModel::train(&traces, LearnConfig::default())
        .expect("captured nominal traces train");
    (fleet, model)
}

/// Mounting the learned monitor on a calibration-set run changes nothing:
/// the scorer never crosses its threshold, so the run is bit-identical to
/// the unmonitored one.
#[test]
fn mounted_model_is_transparent_on_calibration_runs() {
    let (fleet, model) = trained_model(2024);
    let plain = fleet.run_scenarios(short_baselines(3, 40));
    let scored = fleet
        .clone()
        .with_model(model)
        .run_scenarios(short_baselines(3, 40));
    for (p, s) in plain.records.iter().zip(&scored.records) {
        assert_eq!(
            s.summary.first_model_deviation, None,
            "{}: fired on its own calibration set",
            s.summary.label
        );
        assert_eq!(p.summary.distance_m, s.summary.distance_m);
        assert_eq!(p.summary.first_detection, s.summary.first_detection);
        assert_eq!(p.summary.final_mode, s.summary.final_mode);
    }
}

/// A disturbance the contract monitors cannot see (stop-and-go traffic is
/// mechanically healthy) is flagged by the learned monitor, and the
/// deviation escalates into a real containment response.
#[test]
fn learned_monitor_flags_non_contract_disturbances() {
    let (_, model) = trained_model(2024);
    let mut scenario = ScenarioFamily::StopAndGo.build(ResponseStrategy::CrossLayer, 5);
    scenario.duration = Duration::from_secs(45);
    let out = runner::run_with_model(scenario, Some(&model));
    assert!(
        out.first_model_deviation.is_some(),
        "stop-and-go must deviate from the learned highway model"
    );
    // The first lead braking starts at t = 20 s; detection follows it.
    let det = out.first_model_deviation.unwrap();
    assert!(det >= Time::from_secs(20), "detected at {det}");
    // The deviation routed through the ability layer's containment.
    assert!(!out.actions.is_empty(), "no containment response");
    assert!(out.model_score.max().unwrap() > model.threshold());
}

/// The scored run records the abnormality series and the trace captures
/// the canonical signal set.
#[test]
fn scored_runs_record_model_series_and_traces() {
    let (_, model) = trained_model(7);
    let mut scenario = Scenario::baseline(9);
    scenario.duration = Duration::from_secs(20);
    let out = runner::run_with_model(scenario, Some(&model));
    assert_eq!(out.model_score.len(), 20);
    let trace = out.signal_trace();
    assert_eq!(trace.signals(), LEARNED_SIGNALS);
    assert_eq!(trace.len(), 20);
    // Unscored runs leave the series empty.
    let mut plain = Scenario::baseline(9);
    plain.duration = Duration::from_secs(20);
    assert!(runner::run(plain).model_score.is_empty());
}

/// Calibrating on additional nominal traces only raises the threshold,
/// and the model then stays quiet on exactly those runs.
#[test]
fn calibration_extends_the_false_positive_free_set() {
    let (_, mut model) = trained_model(2024);
    let before = model.threshold();
    // A baseline at an unrelated seed, longer than the training runs.
    let other = FleetRunner::new(555);
    let extra = other.capture_traces(short_baselines(2, 60));
    model.calibrate(&extra);
    assert!(model.threshold() >= before);
    let scored = other
        .with_model(model)
        .run_scenarios(short_baselines(2, 60));
    for rec in &scored.records {
        assert_eq!(
            rec.summary.first_model_deviation, None,
            "{}",
            rec.summary.label
        );
    }
}

/// `SignalTrace::from_series` and the fleet trace capture agree.
#[test]
fn capture_matches_outcome_series() {
    let fleet = FleetRunner::new(11);
    let traces = fleet.capture_traces(short_baselines(1, 15));
    assert_eq!(traces.len(), 1);
    let mut scenario = short_baselines(1, 15).remove(0);
    // The fleet runner derives job 0's seed from the master seed.
    scenario.seed = saav::sim::rng::derive_seed(11, 0);
    let out = runner::run(scenario);
    assert_eq!(
        traces[0],
        out.signal_trace(),
        "fleet capture must equal the run's own signal trace"
    );
    assert_eq!(
        traces[0],
        SignalTrace::from_series(&[
            (LEARNED_SIGNALS[0], &out.speed),
            (LEARNED_SIGNALS[1], &out.ability),
            (LEARNED_SIGNALS[2], &out.miss_rate),
            (LEARNED_SIGNALS[3], &out.temp_c),
            (LEARNED_SIGNALS[4], &out.speed_factor),
        ])
    );
}
