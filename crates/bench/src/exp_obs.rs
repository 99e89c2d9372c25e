//! E16: engine observability — deterministic, virtual-time-stamped
//! escalation traces from every subsystem.
//!
//! The claim: with the telemetry sink mounted, the engine's own behavior
//! (anomalies raised, escalations routed, contract switches, platoon
//! ejections, tier transitions, cache traffic) is observable as a typed
//! event trace stamped in *virtual* time — and that trace is bit-identical
//! across repeated runs and across thread counts, so observability costs
//! none of the determinism the fleet proptests pin. One scenario per
//! subsystem: a solo intrusion, a platoon liar, a city intrusion and a
//! cached fleet sweep (cold + warm).
//!
//! [`e16_outcome`] runs every scenario **twice** (the fleet additionally
//! on 1 and 4 workers) and asserts the merged `(virtual_time, job_slot,
//! seq)`-ordered traces match exactly; the tables then render the first
//! run. [`e16_trace_json`] exports the combined trace as chrome-tracing
//! JSON (`trace.json`, openable in Perfetto) — the `repro -- e16` smoke
//! run writes it for the CI artifact.

use std::sync::OnceLock;

use saav_core::cache::ResultCache;
use saav_core::fleet::FleetRunner;
use saav_core::runner;
use saav_core::scenario::{CitySpec, PlatoonSpec, ResponseStrategy, Scenario, ScenarioEvent};
use saav_core::telemetry::{chrome_trace_json, Stage, Telemetry, TelemetrySnapshot, TraceRecord};
use saav_sim::report::Table;
use saav_sim::time::{Duration, Time};

/// Master seed of the E16 scenarios.
pub const E16_SEED: u64 = 2017;

/// One observed subsystem scenario: its canonical event trace and the
/// registry snapshot of the run.
pub struct E16Scenario {
    /// Display label ("solo intrusion", …).
    pub label: &'static str,
    /// The merged trace in canonical `(virtual_time, job_slot, seq)` order.
    pub events: Vec<TraceRecord>,
    /// The run's registry snapshot (counters, histograms, stage counts).
    pub snapshot: TelemetrySnapshot,
}

/// The completed E16 experiment: one traced scenario per subsystem.
pub struct E16Outcome {
    /// solo, platoon, city, cached fleet — in that order.
    pub scenarios: Vec<E16Scenario>,
}

fn solo_scenario() -> Scenario {
    Scenario::builder("e16-solo-intrusion")
        .seed(E16_SEED)
        .duration(Duration::from_secs(20))
        .at(Time::from_secs(5), ScenarioEvent::CompromiseRearBrake)
        .build()
}

fn platoon_scenario() -> Scenario {
    Scenario::builder("e16-platoon-liar")
        .seed(E16_SEED)
        .duration(Duration::from_secs(20))
        .platoon(PlatoonSpec::new(5).with_liar(2, 2.0))
        .build()
}

fn city_scenario() -> Scenario {
    Scenario::builder("e16-city-intrusion")
        .seed(E16_SEED)
        .duration(Duration::from_secs(12))
        .at(Time::from_secs(5), ScenarioEvent::CompromiseRearBrake)
        .city(CitySpec::new(20, 2))
        .build()
}

fn fleet_jobs() -> Vec<Scenario> {
    ResponseStrategy::ALL
        .iter()
        .map(|&strategy| {
            Scenario::builder(format!("e16-fleet/{strategy:?}"))
                .strategy(strategy)
                .duration(Duration::from_secs(8))
                .at(Time::from_secs(2), ScenarioEvent::CompromiseRearBrake)
                .build()
        })
        .collect()
}

fn observe_solo(label: &'static str, scenario: impl Fn() -> Scenario) -> E16Scenario {
    let observe = || {
        let sink = Telemetry::default();
        runner::run_observed(scenario(), None, &sink);
        (sink.events(), sink.snapshot())
    };
    let (events, snapshot) = observe();
    let (events2, snapshot2) = observe();
    assert_eq!(events, events2, "{label}: trace must be rerun-identical");
    assert_eq!(
        snapshot, snapshot2,
        "{label}: registry must be rerun-identical"
    );
    E16Scenario {
        label,
        events,
        snapshot,
    }
}

fn observe_fleet() -> E16Scenario {
    let observe = |threads: usize| {
        let sink = Telemetry::default();
        let fleet = FleetRunner::new(E16_SEED)
            .with_threads(threads)
            .with_cache(ResultCache::in_memory())
            .with_telemetry(sink.clone());
        fleet.run_scenarios(fleet_jobs()); // cold: every job simulated
        fleet.run_scenarios(fleet_jobs()); // warm: pure cache traffic
        (sink.events(), sink.snapshot())
    };
    let (events, snapshot) = observe(1);
    let (events4, snapshot4) = observe(4);
    assert_eq!(
        events, events4,
        "cached fleet: trace must be thread-count-invariant"
    );
    assert_eq!(
        snapshot, snapshot4,
        "cached fleet: registry must be thread-count-invariant"
    );
    E16Scenario {
        label: "cached fleet (cold+warm)",
        events,
        snapshot,
    }
}

/// Runs E16 once per process (memoized like E15, so the repro binary and
/// the test suite share one execution), asserting rerun- and
/// thread-count-identity of every trace along the way.
pub fn e16_outcome() -> &'static E16Outcome {
    static OUT: OnceLock<E16Outcome> = OnceLock::new();
    OUT.get_or_init(|| E16Outcome {
        scenarios: vec![
            observe_solo("solo intrusion", solo_scenario),
            observe_solo("platoon liar", platoon_scenario),
            observe_solo("city intrusion", city_scenario),
            observe_fleet(),
        ],
    })
}

/// The combined chrome-tracing JSON over all four subsystem traces — the
/// `trace.json` the repro smoke run exports for Perfetto.
pub fn e16_trace_json() -> String {
    let out = e16_outcome();
    let all: Vec<TraceRecord> = out
        .scenarios
        .iter()
        .flat_map(|s| s.events.iter().copied())
        .collect();
    chrome_trace_json(&all)
}

/// Rows shown per scenario before eliding the rest.
const MAX_ROWS_PER_SCENARIO: usize = 12;

/// E16: the merged escalation trace per subsystem, stamped in virtual
/// time. The timestamps (and every other cell) are identical across
/// repeated runs and thread counts — asserted by [`e16_outcome`].
pub fn e16_table() -> Table {
    let out = e16_outcome();
    let mut t = Table::new(["scenario", "t", "job", "event", "detail"]).with_title(
        "E16: deterministic engine telemetry — virtual-time escalation traces \
         (bit-identical across reruns and 1..4 threads)",
    );
    for sc in &out.scenarios {
        for rec in sc.events.iter().take(MAX_ROWS_PER_SCENARIO) {
            t.row([
                sc.label.to_string(),
                format!("{:.2}s", rec.at.as_secs_f64()),
                format!("{}", rec.job_slot),
                rec.event.name().to_string(),
                rec.event.to_string(),
            ]);
        }
        if sc.events.len() > MAX_ROWS_PER_SCENARIO {
            t.row([
                sc.label.to_string(),
                "…".to_string(),
                String::new(),
                format!("(+{} more events)", sc.events.len() - MAX_ROWS_PER_SCENARIO),
                String::new(),
            ]);
        }
    }
    t
}

/// E16b: how often each per-layer stage ran in every scenario. These
/// are invocation counts, a pure function of the scenario; where the time
/// goes is measured on the host by the `saavbench` harness.
pub fn e16b_table() -> Table {
    let out = e16_outcome();
    let mut t = Table::new(["scenario", "stage", "calls"])
        .with_title("E16b: per-layer stage invocation counts (deterministic)");
    for sc in &out.scenarios {
        for &stage in &Stage::ALL {
            let calls = sc.snapshot.stage_calls_of(stage);
            if calls == 0 {
                continue;
            }
            t.row([
                sc.label.to_string(),
                stage.name().to_string(),
                format!("{calls}"),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use saav_core::telemetry::{Counter, TelemetryEvent};

    #[test]
    fn e16_traces_every_subsystem() {
        let out = e16_outcome();
        assert_eq!(out.scenarios.len(), 4);
        // Solo intrusion escalates: anomalies raised and routed.
        let solo = &out.scenarios[0];
        assert!(solo.snapshot.counter(Counter::AnomaliesRaised) > 0);
        assert!(solo.snapshot.counter(Counter::EscalationsRouted) > 0);
        assert!(solo
            .events
            .iter()
            .any(|r| matches!(r.event, TelemetryEvent::EscalationRouted { .. })));
        // The platoon liar is ejected and V2V traffic is counted.
        let platoon = &out.scenarios[1];
        assert!(platoon
            .events
            .iter()
            .any(|r| matches!(r.event, TelemetryEvent::PlatoonEjection { member: 2 })));
        assert!(platoon.snapshot.counter(Counter::V2vSent) > 0);
        // The city promotes background vehicles around its focal pair.
        let city = &out.scenarios[2];
        assert!(city
            .events
            .iter()
            .any(|r| matches!(r.event, TelemetryEvent::TierPromotion { .. })));
        // The cached fleet misses cold and hits warm, 3 jobs each.
        let fleet = &out.scenarios[3];
        assert_eq!(fleet.snapshot.counter(Counter::CacheMisses), 3);
        assert_eq!(fleet.snapshot.counter(Counter::CacheHits), 3);
        assert_eq!(fleet.snapshot.cache_hit_rate(), Some(0.5));
    }

    #[test]
    fn e16_tables_render() {
        assert!(!e16_table().is_empty());
        assert!(!e16b_table().is_empty());
        let rendered = e16_table().render();
        assert!(rendered.contains("platoon_ejection"), "{rendered}");
    }

    #[test]
    fn e16_trace_json_is_valid_chrome_tracing() {
        let json = e16_trace_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        // Every event is an instant record with the mandatory fields.
        assert!(json.matches("\"ph\":\"i\"").count() > 0);
    }

    #[test]
    fn e16_solo_run_counts_one_runner_stage_per_tick() {
        let out = e16_outcome();
        let solo = &out.scenarios[0];
        // 20 s at 10 ms per tick = 2000 runner invocations.
        assert_eq!(solo.snapshot.stage_calls_of(Stage::Runner), 2_000);
    }
}
