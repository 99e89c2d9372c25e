//! Learned self-awareness, end to end: train on nominal fleet runs, then
//! monitor a disturbed run online.
//!
//! The hand-written monitors of the paper check explicit contracts (WCET,
//! ranges, rates). This example shows the learned complement: a fleet
//! batch of baseline runs is captured as training traces, a
//! `SelfAwarenessModel` learns the nominal state space and its dynamics,
//! and the model is then mounted beside the contract monitors in a
//! stop-and-go scenario — a condition no contract flags (nothing is
//! broken!) but which the learned monitor correctly reports as outside
//! nominal operation.
//!
//! Run with: `cargo run --example learned_monitor --release`

use saav::core::fleet::FleetRunner;
use saav::core::runner;
use saav::core::scenario::{ResponseStrategy, Scenario, ScenarioFamily};
use saav::learn::{LearnConfig, SelfAwarenessModel};

fn main() {
    // 1. Nominal data: a fleet batch of baseline runs across derived seeds.
    let fleet = FleetRunner::new(42);
    let jobs: Vec<Scenario> = (0..4)
        .map(|_| ScenarioFamily::Baseline.build(ResponseStrategy::CrossLayer, 0))
        .collect();
    println!("capturing {} nominal baseline runs…", jobs.len());
    let traces = fleet.capture_traces(jobs);

    // 2. Train: quantizers → state vocabulary → transition model, with the
    //    threshold calibrated on the training traces themselves.
    let model = SelfAwarenessModel::train(&traces, LearnConfig::default())
        .expect("nominal traces are valid training data");
    println!(
        "trained: {} signals, {} states, threshold {:.2}",
        model.signals().len(),
        model.vocab().len(),
        model.threshold()
    );

    // 3. Score online: the stop-and-go scenario is mechanically healthy —
    //    no contract is violated — but it is not nominal highway driving.
    let scenario = ScenarioFamily::StopAndGo.build(ResponseStrategy::CrossLayer, 7);
    let out = runner::run_with_model(scenario, Some(&model));
    println!("\nstop-and-go run with the learned monitor mounted:");
    println!(
        "  contract monitors detected: {}",
        out.first_detection
            .map(|t| format!("{:.1} s", t.as_secs_f64()))
            .unwrap_or_else(|| "nothing".into())
    );
    println!(
        "  learned monitor detected:   {}",
        out.first_model_deviation
            .map(|t| format!("{:.1} s", t.as_secs_f64()))
            .unwrap_or_else(|| "nothing".into())
    );
    println!(
        "  peak abnormality score:     {:.2} (threshold {:.2})",
        out.model_score.max().unwrap_or(0.0),
        model.threshold()
    );

    // 4. And on a baseline run the learned monitor stays silent — its
    //    threshold was calibrated to make nominal operation score below it.
    let quiet = runner::run_with_model(Scenario::baseline(43), Some(&model));
    println!(
        "\nbaseline run: learned monitor fired: {}",
        quiet.first_model_deviation.is_some()
    );
}
