//! E6/E7: the cross-layer scenarios of Sec. V on the full vehicle assembly.
//!
//! E6 reproduces the paper's intrusion discussion: a security flaw in the
//! rear-brake component can be answered (a) purely on the safety layer
//! (shut the component down, carry on), (b) across layers (shutdown, then
//! the ability layer keeps the driving objective alive with a speed cap and
//! drive-train braking), or (c) on the objective layer (safe stop). The
//! paper's point is that these strategies trade availability against risk —
//! the table shows exactly that trade.
//!
//! E7 reproduces the thermal chain: ambient heat → DVFS throttling →
//! deadline misses → (cross-layer only) function adaptation that restores
//! timing correctness.
//!
//! The fleet-scale sweep over the whole scenario library is E11 in
//! [`crate::exp_fleet`].

use saav_core::outcome::Outcome;
use saav_core::runner;
use saav_core::scenario::{ResponseStrategy, Scenario};
use saav_sim::report::{fmt_f64, Table};
use saav_sim::time::Time;

/// Runs E6 for all three strategies.
pub fn e6_outcomes(seed: u64) -> Vec<Outcome> {
    ResponseStrategy::ALL
        .into_iter()
        .map(|s| runner::run(Scenario::intrusion(s, seed)))
        .collect()
}

/// E6 as a printable table.
pub fn e6_table() -> Table {
    let mut t = Table::new([
        "strategy",
        "detected",
        "mitigated",
        "distance (availability)",
        "min TTC",
        "final mode",
        "collision",
    ])
    .with_title("E6: rear-brake intrusion at t=30s — response strategies (lead brakes at t=60s)");
    for out in e6_outcomes(42) {
        let s = out.summary();
        let (detected, mitigated) = s.fmt_detection();
        t.row([
            s.label.clone(),
            detected,
            mitigated,
            format!("{:.0} m", s.distance_m),
            s.fmt_min_ttc(),
            s.final_mode.to_string(),
            s.collision.to_string(),
        ]);
    }
    t
}

/// Runs E7 for local-only vs cross-layer handling.
pub fn e7_outcomes(ambient_c: f64, seed: u64) -> Vec<Outcome> {
    [ResponseStrategy::SingleLayer, ResponseStrategy::CrossLayer]
        .into_iter()
        .map(|s| runner::run(Scenario::thermal(ambient_c, s, seed)))
        .collect()
}

/// E7 as a printable table.
pub fn e7_table() -> Table {
    let mut t = Table::new([
        "strategy",
        "ambient",
        "peak miss rate",
        "tail miss rate (last 40s)",
        "actions",
    ])
    .with_title("E7: thermal stress — deadline misses under local vs cross-layer handling");
    for ambient in [75.0, 85.0] {
        for out in e7_outcomes(ambient, 7) {
            let peak = out.miss_rate.max().unwrap_or(0.0);
            let tail = out
                .miss_rate
                .iter()
                .filter(|(t, _)| *t > Time::from_secs(200))
                .map(|(_, v)| v)
                .fold(0.0f64, f64::max);
            t.row([
                out.label.clone(),
                format!("{ambient:.0} degC"),
                fmt_f64(peak, 3),
                fmt_f64(tail, 3),
                out.actions.join("; "),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_availability_orders_strategies() {
        let outs = e6_outcomes(42);
        let single = &outs[0];
        let cross = &outs[1];
        let stop = &outs[2];
        // Availability: single-layer > cross-layer > objective stop. The
        // cross-layer speed cap costs real distance once the lead recovers.
        assert!(
            single.distance_m > cross.distance_m + 150.0,
            "single {} vs cross {}",
            single.distance_m,
            cross.distance_m
        );
        assert!(cross.distance_m > stop.distance_m + 200.0);
        // Nobody collides in this scenario …
        assert!(!single.collision && !cross.collision && !stop.collision);
        // … but single-layer carries the thinnest safety margin.
        assert!(single.min_ttc_s <= cross.min_ttc_s + 1e-9);
    }

    #[test]
    fn e6_all_strategies_detect_and_act() {
        for out in e6_outcomes(42) {
            assert!(out.first_detection.is_some(), "{}", out.label);
            assert!(!out.actions.is_empty(), "{}", out.label);
        }
    }

    #[test]
    fn e7_cross_layer_reduces_tail_misses() {
        let outs = e7_outcomes(75.0, 7);
        let single = &outs[0];
        let cross = &outs[1];
        let tail = |o: &Outcome| {
            o.miss_rate
                .iter()
                .filter(|(t, _)| *t > Time::from_secs(200))
                .map(|(_, v)| v)
                .fold(0.0f64, f64::max)
        };
        let peak = |o: &Outcome| o.miss_rate.max().unwrap_or(0.0);
        assert!(peak(single) > 0.0, "throttling must cause misses");
        assert!(
            tail(cross) < tail(single).max(0.01),
            "cross {} vs single {}",
            tail(cross),
            tail(single)
        );
    }
}
