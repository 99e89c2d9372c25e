//! The thermal cross-layer chain of Sec. V.
//!
//! Ambient temperature ramps up; the platform throttles to protect the
//! silicon; execution slows; deadlines start missing. A platform-only
//! response ends there (misses persist); the cross-layer response lets the
//! ability layer shed control load (halved rates + speed cap) so the
//! throttled platform becomes schedulable again.
//!
//! Run with: `cargo run --example thermal_stress --release`

use saav::core::{runner, ResponseStrategy, Scenario};

fn main() {
    for strategy in [ResponseStrategy::SingleLayer, ResponseStrategy::CrossLayer] {
        let outcome = runner::run(Scenario::thermal(75.0, strategy, 7));
        println!("=== {strategy:?} ===");
        println!("t[s]   temp[C]  speed-factor  miss-rate");
        for (((t, miss), (_, temp)), (_, factor)) in outcome
            .miss_rate
            .iter()
            .zip(outcome.temp_c.iter())
            .zip(outcome.speed_factor.iter())
        {
            if t.as_millis() % 20_000 == 0 {
                println!(
                    "{:>5.0}  {:>7.1}  {:>12.2}  {:>9.3}",
                    t.as_secs_f64(),
                    temp,
                    factor,
                    miss
                );
            }
        }
        println!("actions: {:?}", outcome.actions);
        let peak = outcome.miss_rate.max().unwrap_or(0.0);
        let tail = outcome
            .miss_rate
            .iter()
            .filter(|(t, _)| t.as_secs_f64() > 200.0)
            .map(|(_, v)| v)
            .fold(0.0f64, f64::max);
        println!("peak miss rate: {peak:.3}   tail miss rate: {tail:.3}\n");
    }
}
