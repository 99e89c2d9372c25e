//! The paper's Sec. V security example, strategy by strategy.
//!
//! A compromised rear-brake component is detected at run time; the vehicle
//! can (a) only shut it down at the safety layer, (b) coordinate across
//! layers (shutdown + speed cap + drive-train braking), or (c) perform a
//! minimal-risk stop. The run prints the first events of its typed
//! telemetry stream and the availability/safety trade the paper describes.
//!
//! Run with: `cargo run --example intrusion_response --release`

use saav::core::telemetry::{Telemetry, TelemetryConfig};
use saav::core::{runner, ResponseStrategy, Scenario};

/// A ring that holds a whole run. The single-layer flood records about
/// 18,000 events, and the default ring keeps only the newest 4,096, which
/// would start the story long after the attack.
const RING_CAPACITY: usize = 1 << 15;

fn main() {
    for strategy in [
        ResponseStrategy::SingleLayer,
        ResponseStrategy::CrossLayer,
        ResponseStrategy::ObjectiveStop,
    ] {
        let sink = Telemetry::new(TelemetryConfig::default().with_ring_capacity(RING_CAPACITY));
        let outcome = runner::run_observed(Scenario::intrusion(strategy, 42), None, &sink);
        println!("=== {strategy:?} ===");
        println!(
            "  detected: {}   mitigated: {}",
            outcome
                .first_detection
                .map(|t| format!("{:.2}s", t.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
            outcome
                .mitigated_at
                .map(|t| format!("{:.2}s", t.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
        );
        println!(
            "  distance: {:.0} m (availability proxy)",
            outcome.distance_m
        );
        println!(
            "  min TTC : {}",
            if outcome.min_ttc_s.is_finite() {
                format!("{:.1} s", outcome.min_ttc_s)
            } else {
                "never closing".into()
            }
        );
        println!("  mode    : {}", outcome.final_mode);
        println!("  actions : {:?}", outcome.actions);
        let snapshot = sink.snapshot();
        println!(
            "  cross-layer trace ({} events, {} evicted):",
            snapshot.events_recorded, snapshot.events_evicted
        );
        for rec in sink.events().iter().take(6) {
            println!(
                "    [{:>7.2}s] {:<17} {}",
                rec.at.as_secs_f64(),
                rec.event.name(),
                rec.event
            );
        }
        println!();
    }
    println!("The trade the paper describes: single-layer handling preserves");
    println!("the most mission distance but drives at full speed on half the");
    println!("brakes; the objective layer is maximally safe but abandons the");
    println!("mission; the cross-layer response keeps driving inside the");
    println!("capability envelope the ability graph derives.");
}
