//! The paper's Sec. V security example, strategy by strategy.
//!
//! A compromised rear-brake component is detected at run time; the vehicle
//! can (a) only shut it down at the safety layer, (b) coordinate across
//! layers (shutdown + speed cap + drive-train braking), or (c) perform a
//! minimal-risk stop. The run prints the cross-layer trace and the
//! availability/safety trade the paper describes.
//!
//! Run with: `cargo run --example intrusion_response --release`

use saav::core::{runner, ResponseStrategy, Scenario};

fn main() {
    for strategy in [
        ResponseStrategy::SingleLayer,
        ResponseStrategy::CrossLayer,
        ResponseStrategy::ObjectiveStop,
    ] {
        let outcome = runner::run(Scenario::intrusion(strategy, 42));
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
        println!("  cross-layer trace:");
        for entry in outcome.trace.entries().iter().take(6) {
            println!("    {entry}");
        }
        println!();
    }
    println!("The trade the paper describes: single-layer handling preserves");
    println!("the most mission distance but drives at full speed on half the");
    println!("brakes; the objective layer is maximally safe but abandons the");
    println!("mission; the cross-layer response keeps driving inside the");
    println!("capability envelope the ability graph derives.");
}
