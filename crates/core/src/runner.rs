//! The scenario runner: steps a [`SelfAwareVehicle`] through a
//! [`Scenario`]'s timeline and records the [`Outcome`].
//!
//! One run is a fixed-step closed loop: scripted events pop from the
//! deterministic [`crate::scenario::ScenarioState`] queue, the platform /
//! execution / plant / communication layers advance, monitors raise
//! anomalies, and each anomaly is routed through the layers by
//! [`Coordinator::route`] — the same routing the coordinator itself uses,
//! so escalation exists exactly once.
//!
//! [`Coordinator::route`]: crate::coordinator::Coordinator::route

use saav_hw::pe::PeId;
use saav_learn::SelfAwarenessModel;
use saav_monitor::anomaly::{Anomaly, AnomalyKind};
use saav_sim::series::Series;
use saav_sim::time::Time;
use saav_skills::decision::DrivingMode;
use saav_vehicle::traffic::LeadVehicle;

use crate::layer::{Containment, Layer};
use crate::outcome::Outcome;
use crate::scenario::{Scenario, ScenarioState};
use crate::telemetry::{Counter, RunTelemetry, Stage, Telemetry, TelemetryEvent};
use crate::vehicle::{SelfAwareVehicle, CONTROL_PERIOD};

/// What the run has detected and done so far — threaded through the
/// anomaly handling shared by the contract monitors and the learned
/// monitor. It holds first-occurrence times and each distinct action once,
/// so it does not grow with the number of escalations.
#[derive(Default)]
pub(crate) struct DetectionLog {
    first_detection: Option<Time>,
    first_model_deviation: Option<Time>,
    mitigated_at: Option<Time>,
    actions: Vec<String>,
}

/// Routes one anomaly through the layers and applies containment — the
/// single escalation path both the hand-written monitors and the learned
/// monitor feed into. The coordinator counts the escalation's hop count and
/// resolving layer; nothing is kept per problem.
fn handle_anomaly(
    v: &mut SelfAwareVehicle,
    state: &mut ScenarioState,
    log: &mut DetectionLog,
    mut tel: Option<&mut RunTelemetry>,
    anomaly: Anomaly,
) {
    let learned = matches!(anomaly.kind, AnomalyKind::ModelDeviation);
    let slot = if learned {
        &mut log.first_model_deviation
    } else {
        &mut log.first_detection
    };
    if slot.is_none() {
        *slot = Some(v.now);
        let source = if learned {
            "monitor.learned"
        } else {
            "monitor"
        };
        v.tracer
            .fault(v.now, source, format!("first anomaly: {anomaly}"));
    }
    let (origin, kind) = v.anomaly_to_problem(state, &anomaly);
    if let Some(t) = tel.as_deref_mut() {
        t.record(
            v.now,
            TelemetryEvent::AnomalyRaised {
                kind: anomaly.kind,
                origin,
            },
        );
    }
    // Split borrows: the coordinator routes, `contain` acts. The routing
    // slice is `&'static`, so no temporary collection is needed.
    let mut hops = 0;
    let mut resolved_by = None;
    for &layer in v.coordinator.route_slice(origin) {
        let outcome = v.contain(state, layer, kind, &anomaly.subject);
        hops += 1;
        // Containment may have renegotiated contracts through the MCC:
        // drain every switch outcome (admitted, viewpoint-rejected) into
        // the trace at the layer that triggered it.
        if !v.switch_events.is_empty() {
            for switch in v.switch_events.drain(..) {
                if let Some(t) = tel.as_deref_mut() {
                    t.record(
                        v.now,
                        TelemetryEvent::ContractSwitch {
                            layer,
                            outcome: switch,
                        },
                    );
                }
            }
        }
        let resolved = matches!(outcome, Containment::Resolved { .. });
        if let Containment::Resolved { action } | Containment::Mitigated { action } = outcome {
            if !log.actions.iter().any(|a| *a == action) {
                log.actions.push(action.into_owned());
            }
        }
        if resolved {
            resolved_by = Some(layer);
            break;
        }
    }
    if let Some(t) = tel {
        t.record(
            v.now,
            TelemetryEvent::EscalationRouted {
                kind,
                origin,
                resolved_by,
                hops: hops as u8,
            },
        );
    }
    if resolved_by.is_some() {
        log.mitigated_at = Some(v.now);
    }
    v.coordinator.record(hops, resolved_by);
}

/// One vehicle's in-flight run state: the vehicle, its scenario-injection
/// state and the per-run recording. The single-vehicle loop drives exactly
/// one context; the multi-vehicle engine ([`crate::cosim`]) drives N of
/// them in lockstep — [`RunContext::tick`] is the *only* stepping
/// implementation, so a solo run is literally the 1-member special case.
pub(crate) struct RunContext {
    pub(crate) v: SelfAwareVehicle,
    pub(crate) state: ScenarioState,
    label: String,
    end: Time,
    speed: Series,
    ability: Series,
    miss_rate: Series,
    temp_c: Series,
    speed_factor_series: Series,
    model_score: Series,
    log: DetectionLog,
    /// This tick's anomalies; drained every tick, so it stops growing once
    /// it has held the largest burst.
    anomalies_buf: Vec<Anomaly>,
    misses_window: u64,
    jobs_window: u64,
}

impl RunContext {
    /// Builds a vehicle for `scenario` (optionally mounting a learned
    /// monitor) and readies the recording state.
    pub(crate) fn new(scenario: &Scenario, model: Option<&SelfAwarenessModel>) -> Self {
        Self::for_member(
            scenario,
            scenario.label.clone(),
            scenario.seed,
            scenario.ego_speed_mps,
            scenario.lead.clone(),
            model,
        )
    }

    /// Builds one multi-vehicle member from a *borrowed* base scenario plus
    /// per-member overrides — the engines construct N members without
    /// cloning the scenario (event list included) N times.
    pub(crate) fn for_member(
        scenario: &Scenario,
        label: String,
        seed: u64,
        ego_speed_mps: f64,
        lead: LeadVehicle,
        model: Option<&SelfAwarenessModel>,
    ) -> Self {
        let mut v = SelfAwareVehicle::with_overrides(scenario, seed, ego_speed_mps, lead);
        if let Some(model) = model {
            v.mount_learned_monitor(model);
        }
        RunContext {
            v,
            state: ScenarioState::new(scenario),
            label,
            end: Time::ZERO + scenario.duration,
            speed: Series::new(),
            ability: Series::new(),
            miss_rate: Series::new(),
            temp_c: Series::new(),
            speed_factor_series: Series::new(),
            model_score: Series::new(),
            log: DetectionLog::default(),
            anomalies_buf: Vec::new(),
            misses_window: 0,
            jobs_window: 0,
        }
    }

    /// Whether the scenario's time horizon has been reached.
    pub(crate) fn done(&self) -> bool {
        self.v.now >= self.end
    }

    /// Raises an externally-detected anomaly (e.g. peer misbehavior from
    /// the platoon negotiation) through the identical escalation path the
    /// onboard monitors use.
    pub(crate) fn raise(&mut self, tel: Option<&mut RunTelemetry>, anomaly: Anomaly) {
        handle_anomaly(&mut self.v, &mut self.state, &mut self.log, tel, anomaly);
    }

    /// Advances the vehicle by one [`CONTROL_PERIOD`]: scripted events,
    /// platform, execution domain, plant, communication, monitors, ability
    /// propagation and the 1 Hz recording/scoring instant.
    ///
    /// With telemetry mounted (`tel`), the tick additionally charges the
    /// runner/monitor stage profile, counts deadline misses and records
    /// escalation trace events — all into preallocated per-run storage.
    pub(crate) fn tick(&mut self, mut tel: Option<&mut RunTelemetry>) {
        let tick_t0 = tel.as_deref().and_then(|t| t.stage_enter());
        let v = &mut self.v;
        let state = &mut self.state;
        v.now += CONTROL_PERIOD;
        // 1. scripted events + environmental ramps
        while let Some(ev) = state.pop_due(v.now) {
            v.apply_event(state, ev);
        }
        v.update_ramps(state);
        // 2. platform
        v.platform.step(CONTROL_PERIOD);
        let speed_factor = v.platform.pe(PeId(0)).speed_factor();
        // 3. execution domain
        v.rte.advance(v.now, speed_factor.min(1_000.0));
        v.platform
            .pe_mut(PeId(0))
            .set_utilization(v.rte.take_utilization().max(0.35));
        // 4. plant + function
        v.world.step(CONTROL_PERIOD);
        // 5. communication traffic
        v.pump_can_traffic(state);
        // 6. monitors → anomalies → problems → cross-layer resolution
        let monitor_t0 = tel.as_deref().and_then(|t| t.stage_enter());
        v.collect_anomalies(&mut self.anomalies_buf);
        for anomaly in &self.anomalies_buf {
            if matches!(anomaly.kind, AnomalyKind::DeadlineMiss) {
                self.misses_window += 1;
                if let Some(t) = tel.as_deref_mut() {
                    t.count(Counter::DeadlineMisses, 1);
                }
            }
        }
        self.jobs_window += 1;
        for anomaly in self.anomalies_buf.drain(..) {
            handle_anomaly(v, state, &mut self.log, tel.as_deref_mut(), anomaly);
        }
        if let Some(t) = tel.as_deref_mut() {
            t.stage_exit(Stage::Monitor, monitor_t0);
        }
        // 7. ability propagation from sensor quality + mode decision
        let q = v.radar_quality.quality();
        v.abilities.set_measured(v.nodes.env_sensors, q);
        v.abilities.propagate();
        let root = v.abilities.root_level();
        let mode = v.mode.update(root);
        if matches!(mode, DrivingMode::SafeStop) && !v.world.is_stopped() {
            v.world.command_safe_stop();
        }
        // 8. series (1 Hz) + learned-monitor scoring
        if v.now.as_millis().is_multiple_of(1_000) {
            let speed_now = v.world.ego.speed_mps();
            let temp_now = v.platform.pe(PeId(0)).temperature_c();
            let speed_factor_now = v.platform.pe(PeId(0)).speed_factor();
            self.speed.push(v.now, speed_now);
            self.ability.push(v.now, root);
            let mr = if self.jobs_window > 0 {
                self.misses_window as f64 / self.jobs_window as f64
            } else {
                0.0
            };
            self.miss_rate.push(v.now, mr);
            self.temp_c.push(v.now, temp_now);
            self.speed_factor_series.push(v.now, speed_factor_now);
            self.misses_window = 0;
            self.jobs_window = 0;
            // The learned monitor scores the same signal vector the series
            // record (LEARNED_SIGNALS order); a rising threshold crossing
            // escalates through the identical anomaly path.
            let sample = [speed_now, root, mr, temp_now, speed_factor_now];
            let now = v.now;
            let report = v.learned.as_mut().map(|scorer| scorer.ingest(now, &sample));
            if let Some(report) = report {
                self.model_score.push(v.now, report.score);
                if let Some(anomaly) = report.anomaly {
                    handle_anomaly(v, state, &mut self.log, tel.as_deref_mut(), anomaly);
                }
            }
            // Live renegotiation rollback: when the scenario declares a
            // rollback threshold and the pressure has cleared, the MCC
            // restores the nominal contracts here, at the deterministic
            // 1 Hz instant.
            if v.maybe_rollback(state) {
                for switch in v.switch_events.drain(..) {
                    if let Some(t) = tel.as_deref_mut() {
                        t.record(
                            v.now,
                            TelemetryEvent::ContractSwitch {
                                layer: Layer::Ability,
                                outcome: switch,
                            },
                        );
                    }
                }
            }
        }
        if let Some(t) = tel {
            t.stage_exit(Stage::Runner, tick_t0);
        }
    }

    /// Closes the run and returns its measured [`Outcome`].
    pub(crate) fn finish(self) -> Outcome {
        let v = self.v;
        let m = v.world.metrics();
        Outcome {
            label: self.label,
            speed: self.speed,
            ability: self.ability,
            miss_rate: self.miss_rate,
            temp_c: self.temp_c,
            speed_factor: self.speed_factor_series,
            model_score: self.model_score,
            final_mode: v.mode.mode(),
            min_gap_m: m.min_gap_m,
            min_ttc_s: m.min_ttc_s,
            collision: m.collision,
            distance_m: v.world.ego.position_m(),
            first_detection: self.log.first_detection,
            first_model_deviation: self.log.first_model_deviation,
            mitigated_at: self.log.mitigated_at,
            actions: self.log.actions,
            conflicts: v.board.conflicts_detected(),
            max_hops: v.coordinator.max_hops(),
            resolution_rate: v.coordinator.resolution_rate(),
            trace: v.tracer,
            platoon: None,
            city: None,
        }
    }
}

/// A single-vehicle run stepped one control period at a time.
///
/// [`run`] is literally `while !done { tick() }` over this handle; it is
/// exposed so external drivers — allocation pins, benchmarks, custom
/// co-simulation loops — can observe or interleave with the tick stream
/// instead of paying for a whole scenario per measurement. Only the
/// single-vehicle path is steppable; scenarios carrying a platoon or city
/// spec go through [`run`].
pub struct SteppedRun {
    ctx: RunContext,
    tel: Option<RunTelemetry>,
    sink: Option<Telemetry>,
}

impl SteppedRun {
    /// Readies `scenario`'s vehicle without advancing time.
    ///
    /// # Panics
    /// Panics when the scenario carries a
    /// [`crate::scenario::PlatoonSpec`] or [`crate::scenario::CitySpec`]
    /// — multi-vehicle engines own their own lockstep loops.
    pub fn new(scenario: &Scenario) -> Self {
        assert!(
            scenario.platoon.is_none() && scenario.city.is_none(),
            "SteppedRun drives single-vehicle scenarios only"
        );
        SteppedRun {
            ctx: RunContext::new(scenario, None),
            tel: None,
            sink: None,
        }
    }

    /// Like [`SteppedRun::new`] with `sink`'s telemetry mounted: every
    /// tick records into a per-run ring/registry (allocated here, once),
    /// folded back into the sink by [`SteppedRun::finish`].
    ///
    /// # Panics
    /// Panics like [`SteppedRun::new`] on a multi-vehicle scenario.
    pub fn with_telemetry(scenario: &Scenario, sink: &Telemetry) -> Self {
        let mut run = SteppedRun::new(scenario);
        run.tel = Some(sink.begin_run(0));
        run.sink = Some(sink.clone());
        run
    }

    /// Whether the scenario's time horizon has been reached.
    pub fn done(&self) -> bool {
        self.ctx.done()
    }

    /// Advances the vehicle by one control period (10 ms).
    pub fn tick(&mut self) {
        self.ctx.tick(self.tel.as_mut());
    }

    /// Simulated time since run start, in milliseconds. Recording and
    /// learned-monitor scoring fire on whole-second instants; allocation
    /// pins use this to place their measurement window between them.
    pub fn now_millis(&self) -> u64 {
        self.ctx.v.now.as_millis()
    }

    /// Closes the run and returns its measured [`Outcome`], absorbing any
    /// mounted telemetry into its sink.
    pub fn finish(self) -> Outcome {
        let out = self.ctx.finish();
        if let (Some(mut tel), Some(sink)) = (self.tel, self.sink) {
            record_outcome_latency(&mut tel, &out);
            sink.absorb(tel);
        }
        out
    }
}

/// Folds an outcome's detection latency (scenario start → first
/// detection) into the run's histogram.
pub(crate) fn record_outcome_latency(tel: &mut RunTelemetry, out: &Outcome) {
    if let Some(t) = out.first_detection {
        tel.record_detection_latency(t.as_secs_f64());
    }
}

/// Runs a scenario to completion with the hand-written monitors only.
///
/// # Panics
/// Panics like [`run_with_model`] on a malformed
/// [`crate::scenario::PlatoonSpec`].
pub fn run(scenario: Scenario) -> Outcome {
    run_with_model(scenario, None)
}

/// Runs a scenario to completion, optionally with a learned
/// self-awareness monitor mounted beside the hand-written ones. With
/// `None` this is exactly [`run`]; with a model, the online scorer ingests
/// the 1 Hz signal vector and threshold crossings escalate like any other
/// anomaly.
///
/// A scenario carrying a [`crate::scenario::CitySpec`] is handed to the
/// city-scale tiered-fidelity engine ([`crate::city::run_city`]), which
/// steps the whole chain on the calling thread. One carrying a
/// [`crate::scenario::PlatoonSpec`] goes to the platoon co-simulation
/// engine ([`crate::cosim::run_platoon`]). The model, if any, is mounted
/// on every member (every focal vehicle, for a city).
///
/// # Panics
/// Panics on a malformed [`crate::scenario::PlatoonSpec`] — zero members,
/// a zero negotiation period, or a liar/link index beyond the member
/// count (see [`crate::cosim::run_platoon`]) — or a malformed
/// [`crate::scenario::CitySpec`] (see [`crate::city::run_city`]).
pub fn run_with_model(scenario: Scenario, model: Option<&SelfAwarenessModel>) -> Outcome {
    run_with_model_observed(scenario, model, None)
}

/// Runs a scenario to completion with `sink`'s telemetry mounted: the
/// run's escalation trace, registry counters and stage profile are folded
/// into the sink. The measured [`Outcome`] is bit-identical to
/// [`run_with_model`]'s — telemetry observes, never perturbs.
///
/// # Panics
/// Panics like [`run_with_model`] on a malformed multi-vehicle spec.
pub fn run_observed(
    scenario: Scenario,
    model: Option<&SelfAwarenessModel>,
    sink: &Telemetry,
) -> Outcome {
    let mut tel = sink.begin_run(0);
    let out = run_with_model_observed(scenario, model, Some(&mut tel));
    record_outcome_latency(&mut tel, &out);
    sink.absorb(tel);
    out
}

/// The shared implementation behind [`run_with_model`] (unmounted) and
/// [`run_observed`] / the fleet runner (mounted).
pub(crate) fn run_with_model_observed(
    scenario: Scenario,
    model: Option<&SelfAwarenessModel>,
    mut tel: Option<&mut RunTelemetry>,
) -> Outcome {
    if scenario.city.is_some() {
        return crate::city::run_city_observed(scenario, model, tel);
    }
    if scenario.platoon.is_some() {
        return crate::cosim::run_platoon_observed(scenario, model, tel);
    }
    let mut ctx = RunContext::new(&scenario, model);
    while !ctx.done() {
        ctx.tick(tel.as_deref_mut());
    }
    ctx.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ResponseStrategy;

    #[test]
    fn baseline_runs_clean() {
        let out = SelfAwareVehicle::run(Scenario::baseline(42));
        assert!(!out.collision);
        assert!(out.distance_m > 2_000.0, "distance {}", out.distance_m);
        assert!(matches!(out.final_mode, DrivingMode::Normal));
        assert!(out.conflicts == 0);
    }

    #[test]
    fn intrusion_cross_layer_keeps_driving_capped() {
        let out = SelfAwareVehicle::run(Scenario::intrusion(ResponseStrategy::CrossLayer, 42));
        assert!(!out.collision, "min gap {}", out.min_gap_m);
        assert!(out.first_detection.is_some(), "attack must be detected");
        assert!(out.mitigated_at.is_some());
        // The vehicle keeps moving (availability) …
        assert!(out.distance_m > 1_500.0, "distance {}", out.distance_m);
        // … under the ability layer's speed cap.
        let final_speed = out.speed.last().unwrap();
        assert!(final_speed <= 15.5, "final speed {final_speed}");
        assert!(
            out.actions.iter().any(|a| a.contains("quarantine")),
            "{:?}",
            out.actions
        );
        assert!(
            out.actions.iter().any(|a| a.contains("speed cap")),
            "{:?}",
            out.actions
        );
    }

    #[test]
    fn intrusion_objective_stop_halts_vehicle() {
        let out = SelfAwareVehicle::run(Scenario::intrusion(ResponseStrategy::ObjectiveStop, 42));
        assert!(!out.collision);
        let final_speed = out.speed.last().unwrap();
        assert!(final_speed < 0.5, "should be stopped, at {final_speed}");
        assert!(out.distance_m < 2_000.0, "mission aborted early");
    }

    #[test]
    fn intrusion_single_layer_preserves_speed_but_less_margin() {
        let cross = SelfAwareVehicle::run(Scenario::intrusion(ResponseStrategy::CrossLayer, 42));
        let single = SelfAwareVehicle::run(Scenario::intrusion(ResponseStrategy::SingleLayer, 42));
        // Single-layer never caps speed, so it drives further …
        assert!(single.distance_m > cross.distance_m);
        // … but with a worse worst-case safety margin during the lead's
        // braking manoeuvre (full speed on front-only brakes).
        assert!(
            single.min_ttc_s <= cross.min_ttc_s + 1e-9,
            "single {} vs cross {}",
            single.min_ttc_s,
            cross.min_ttc_s
        );
    }

    #[test]
    fn thermal_cross_layer_recovers_deadlines() {
        let out = SelfAwareVehicle::run(Scenario::thermal(75.0, ResponseStrategy::CrossLayer, 7));
        // Misses appear mid-run, then the reconfiguration clears them.
        let peak = out.miss_rate.max().unwrap();
        let tail = out
            .miss_rate
            .iter()
            .filter(|(t, _)| *t > Time::from_secs(200))
            .map(|(_, v)| v)
            .fold(0.0f64, f64::max);
        assert!(peak > 0.0, "no misses ever appeared");
        assert!(tail <= peak, "tail {tail} vs peak {peak}");
        assert!(out.actions.iter().any(|a| a.contains("dvfs")));
    }

    #[test]
    fn escalation_storm_posts_each_standing_directive_once() {
        use crate::layer::Directive;
        use crate::scenario::ScenarioFamily;
        // Unrepaired thermal deadline misses escalate to the objective
        // layer thousands of times; its safe stop must stand on the board
        // once rather than once per escalation.
        let scenario = ScenarioFamily::Thermal.build(ResponseStrategy::ObjectiveStop, 2017);
        let mut ctx = RunContext::new(&scenario, None);
        while !ctx.done() {
            ctx.tick(None);
        }
        let objective_resolutions = ctx
            .v
            .coordinator
            .resolution_layers()
            .into_iter()
            .find(|&(layer, _)| layer == Layer::Objective)
            .map_or(0, |(_, n)| n);
        assert!(
            objective_resolutions > 1_000,
            "no escalation storm: {objective_resolutions} objective resolutions"
        );
        let board = &ctx.v.board;
        assert_eq!(board.len(), 1, "one board entry per (layer, subject)");
        assert!(board.holds(Layer::Objective, "vehicle", &Directive::SafeStop));
        assert_eq!(ctx.finish().conflicts, 0);
    }

    #[test]
    fn propagation_bounded_in_all_scenarios() {
        for strategy in ResponseStrategy::ALL {
            let out = SelfAwareVehicle::run(Scenario::intrusion(strategy, 3));
            assert!(out.max_hops <= Layer::ALL.len(), "{strategy:?}");
        }
    }

    #[test]
    fn composed_fog_intrusion_scenario_runs() {
        use crate::scenario::{ScenarioEvent, ScenarioFamily};
        let out = SelfAwareVehicle::run(
            ScenarioFamily::FogIntrusion.build(ResponseStrategy::CrossLayer, 5),
        );
        assert!(out.first_detection.is_some());
        assert!(!out.actions.is_empty());
        // The DSL composes the same events the family declares.
        let s = ScenarioFamily::FogIntrusion.build(ResponseStrategy::CrossLayer, 5);
        assert!(s
            .events
            .iter()
            .any(|(_, e)| matches!(e, ScenarioEvent::CompromiseRearBrake)));
        assert!(s
            .events
            .iter()
            .any(|(_, e)| matches!(e, ScenarioEvent::FogRamp { .. })));
    }

    #[test]
    fn radar_dropout_is_detected_and_contained() {
        use crate::scenario::ScenarioFamily;
        let out = SelfAwareVehicle::run(
            ScenarioFamily::RadarDropout.build(ResponseStrategy::CrossLayer, 3),
        );
        assert!(out.first_detection.is_some(), "dropout must be detected");
        assert!(!out.collision);
    }
}
