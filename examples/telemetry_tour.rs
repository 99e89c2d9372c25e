//! A tour of the telemetry layer: a platoon liar, fully observed.
//!
//! The 5-member platoon-liar scenario runs with a telemetry sink
//! mounted. The sink records every engine event (anomalies, escalations,
//! ejections, V2V traffic) as a typed, virtual-time-stamped trace, keeps
//! the metrics registry (counters, detection-latency histogram) and counts
//! how often each per-layer stage ran — then exports the run as
//! `telemetry_tour_trace.json` (open at <https://ui.perfetto.dev>) and
//! `telemetry_tour_metrics.csv`.
//!
//! Run with: `cargo run --example telemetry_tour`

use saav::core::csv::telemetry_csv;
use saav::core::runner;
use saav::core::scenario::{ResponseStrategy, ScenarioFamily};
use saav::core::telemetry::{Counter, Stage, Telemetry};

fn main() {
    let scenario = ScenarioFamily::PlatoonLiarLow.build(ResponseStrategy::CrossLayer, 1);
    println!(
        "== observing `{}` with a telemetry sink mounted ==",
        scenario.label
    );

    let sink = Telemetry::default();
    let out = runner::run_observed(scenario, None, &sink);

    println!("\n-- escalation trace (virtual time, canonical order) --");
    for rec in sink.events() {
        println!(
            "  t = {:>5.2} s   #{:<3} {}",
            rec.at.as_secs_f64(),
            rec.seq,
            rec.event.name()
        );
    }

    let snap = sink.snapshot();
    println!("\n-- registry counters --");
    for c in [
        Counter::AnomaliesRaised,
        Counter::EscalationsRouted,
        Counter::EscalationsResolved,
        Counter::PlatoonEjections,
        Counter::V2vSent,
        Counter::V2vDropped,
    ] {
        println!("  {:<22} {}", c.name(), snap.counter(c));
    }

    println!("\n-- per-layer stage counts --");
    for &stage in &Stage::ALL {
        let calls = snap.stage_calls_of(stage);
        if calls == 0 {
            continue;
        }
        println!("  {:<10} {:>6} calls", stage.name(), calls);
    }

    std::fs::write("telemetry_tour_trace.json", sink.chrome_trace_json()).expect("write trace");
    std::fs::write("telemetry_tour_metrics.csv", telemetry_csv(&snap)).expect("write csv");
    println!(
        "\nwrote telemetry_tour_trace.json ({} events — open at ui.perfetto.dev) \
         and telemetry_tour_metrics.csv",
        snap.events_recorded
    );
    assert!(!out.collision, "the observed platoon must survive the liar");
}
