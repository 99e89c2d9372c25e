//! The scenario runner: steps a [`Scenario`] — one [`SelfAwareVehicle`],
//! a platoon or a city chain — and records the [`Outcome`].
//!
//! One run is a fixed-step closed loop over one [`SteppedRun`]: scripted
//! events pop from the deterministic [`crate::scenario::ScenarioState`]
//! queue, the platform / execution / plant / communication layers
//! advance, monitors raise anomalies, and each anomaly is routed through
//! the layers by [`Coordinator::route_slice`] — the same routing the
//! coordinator itself uses, so escalation exists exactly once.
//!
//! [`Coordinator::route_slice`]: crate::coordinator::Coordinator::route_slice

use saav_hw::pe::PeId;
use saav_learn::SelfAwarenessModel;
use saav_monitor::anomaly::{Anomaly, AnomalyKind};
use saav_sim::series::Series;
use saav_sim::time::Time;
use saav_skills::decision::DrivingMode;
use saav_vehicle::traffic::LeadVehicle;

use crate::city::CityEngine;
use crate::cosim::PlatoonEngine;
use crate::layer::{Containment, Layer};
use crate::outcome::{latency_s, Outcome};
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
    state: &ScenarioState,
    log: &mut DetectionLog,
    mut tel: Option<&mut RunTelemetry>,
    anomaly: Anomaly,
) {
    let first = if matches!(anomaly.kind, AnomalyKind::ModelDeviation) {
        &mut log.first_model_deviation
    } else {
        &mut log.first_detection
    };
    first.get_or_insert(v.now);
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
/// state and the per-run recording. A solo run drives exactly one context;
/// the platoon and city engines drive N of them in lockstep —
/// [`RunContext::tick`] is the *only* vehicle stepping implementation, so a
/// solo run is literally the 1-member special case.
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

    /// Whether this vehicle has collided so far.
    pub(crate) fn collision(&self) -> bool {
        self.v.world.metrics().collision
    }

    /// When the contract monitors first detected a problem, if they have.
    pub(crate) fn first_detection(&self) -> Option<Time> {
        self.log.first_detection
    }

    /// Raises an externally-detected anomaly (e.g. peer misbehavior from
    /// the platoon negotiation) through the identical escalation path the
    /// onboard monitors use.
    pub(crate) fn raise(&mut self, tel: Option<&mut RunTelemetry>, anomaly: Anomaly) {
        handle_anomaly(&mut self.v, &self.state, &mut self.log, tel, anomaly);
    }

    /// Advances the vehicle by one [`CONTROL_PERIOD`]: scripted events,
    /// platform, execution domain, plant, communication, monitors, ability
    /// propagation and the 1 Hz recording/scoring instant.
    ///
    /// With telemetry mounted (`tel`), the tick additionally counts its
    /// runner and monitor stages and its deadline misses, and records
    /// escalation trace events — all into preallocated per-run storage.
    pub(crate) fn tick(&mut self, mut tel: Option<&mut RunTelemetry>) {
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
            t.count_stage(Stage::Monitor);
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
            if v.maybe_rollback() {
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
            t.count_stage(Stage::Runner);
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
            trace: [],
            platoon: None,
            city: None,
        }
    }
}

/// The engine behind a [`SteppedRun`]: one vehicle, a platoon or a city
/// chain.
// One engine exists per run, so boxing the larger solo variant would only
// add a heap allocation per run.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Solo(RunContext),
    Platoon(PlatoonEngine),
    City(CityEngine),
}

impl Engine {
    /// The one place a run's topology is picked: a
    /// [`crate::scenario::CitySpec`] takes precedence over a
    /// [`crate::scenario::PlatoonSpec`], and with neither one vehicle runs.
    /// The model, if any, is mounted on every member (every focal vehicle,
    /// for a city).
    fn new(scenario: &Scenario, model: Option<&SelfAwarenessModel>) -> Self {
        if scenario.city.is_some() {
            Engine::City(CityEngine::new(scenario, model))
        } else if scenario.platoon.is_some() {
            Engine::Platoon(PlatoonEngine::new(scenario, model))
        } else {
            Engine::Solo(RunContext::new(scenario, model))
        }
    }

    fn done(&self) -> bool {
        match self {
            Engine::Solo(ctx) => ctx.done(),
            Engine::Platoon(platoon) => platoon.done(),
            Engine::City(city) => city.done(),
        }
    }

    fn tick(&mut self, tel: Option<&mut RunTelemetry>) {
        match self {
            Engine::Solo(ctx) => ctx.tick(tel),
            Engine::Platoon(platoon) => platoon.tick(tel),
            Engine::City(city) => city.tick(tel),
        }
    }

    fn now(&self) -> Time {
        match self {
            Engine::Solo(ctx) => ctx.v.now,
            Engine::Platoon(platoon) => platoon.now(),
            Engine::City(city) => city.now(),
        }
    }

    fn finish(self, tel: Option<&mut RunTelemetry>) -> Outcome {
        match self {
            Engine::Solo(ctx) => ctx.finish(),
            Engine::Platoon(platoon) => platoon.finish(tel),
            Engine::City(city) => city.finish(),
        }
    }
}

/// A run stepped one control period at a time: the one run handle, for a
/// single vehicle, a platoon and a city chain alike.
///
/// [`run`], [`run_with_model`], [`run_observed`] and the fleet runner are
/// all `while !done { tick() }` over it. It is exposed so external
/// drivers — allocation pins, benchmarks, custom co-simulation loops — can
/// observe or interleave with the tick stream instead of paying for a
/// whole scenario per measurement.
pub struct SteppedRun {
    engine: Engine,
    /// The scenario's first scripted disturbance, from which the mounted
    /// detection-latency histogram measures.
    injected_at: Option<Time>,
    /// Mounted telemetry: this run's recording and the sink it folds into.
    tel: Option<(RunTelemetry, Telemetry)>,
}

impl SteppedRun {
    /// Readies `scenario`'s engine without advancing time.
    ///
    /// # Panics
    /// Panics on a malformed [`crate::scenario::PlatoonSpec`] — zero
    /// members, a zero negotiation period, or a liar/link index beyond the
    /// member count — or [`crate::scenario::CitySpec`] — an empty chain or
    /// a non-positive initial gap.
    pub fn new(scenario: &Scenario) -> Self {
        SteppedRun::mounted(scenario, None, None)
    }

    /// Like [`SteppedRun::new`] with `sink`'s telemetry mounted: every
    /// tick records into a per-run ring/registry (allocated here, once),
    /// folded back into the sink by [`SteppedRun::finish`].
    ///
    /// # Panics
    /// Panics like [`SteppedRun::new`] on a malformed multi-vehicle spec.
    pub fn with_telemetry(scenario: &Scenario, sink: &Telemetry) -> Self {
        SteppedRun::mounted(scenario, None, Some((sink.begin_run(0), sink)))
    }

    /// The shared constructor: `model` is mounted beside the hand-written
    /// monitors, and `tel` is a recording already begun on its sink.
    pub(crate) fn mounted(
        scenario: &Scenario,
        model: Option<&SelfAwarenessModel>,
        tel: Option<(RunTelemetry, &Telemetry)>,
    ) -> Self {
        SteppedRun {
            engine: Engine::new(scenario, model),
            injected_at: scenario.first_event_at(),
            tel: tel.map(|(run, sink)| (run, sink.clone())),
        }
    }

    /// Whether the scenario's time horizon has been reached.
    pub fn done(&self) -> bool {
        self.engine.done()
    }

    /// Advances the run by one control period (10 ms).
    pub fn tick(&mut self) {
        self.engine.tick(self.tel.as_mut().map(|(run, _)| run));
    }

    /// Simulated time since run start, in milliseconds. Recording,
    /// learned-monitor scoring, city tier re-evaluation and (at the
    /// default period) platoon negotiation fire on whole-second instants;
    /// allocation pins use this to place their measurement window between
    /// them.
    pub fn now_millis(&self) -> u64 {
        self.engine.now().as_millis()
    }

    /// Closes the run and returns its measured [`Outcome`], absorbing any
    /// mounted telemetry into its sink. The detection latency folded into
    /// the sink's histogram is measured like
    /// [`crate::fleet::FleetRecord::detection_latency_s`].
    pub fn finish(self) -> Outcome {
        let mut tel = self.tel;
        let out = self.engine.finish(tel.as_mut().map(|(run, _)| run));
        if let Some((mut run, sink)) = tel {
            if let Some(latency) = latency_s(out.first_detection, self.injected_at) {
                run.record_detection_latency(latency);
            }
            sink.absorb(run);
        }
        out
    }
}

/// Steps a [`SteppedRun`] to its horizon and closes it: the one run loop
/// behind every entry point and the fleet runner.
pub(crate) fn run_mounted(
    scenario: &Scenario,
    model: Option<&SelfAwarenessModel>,
    tel: Option<(RunTelemetry, &Telemetry)>,
) -> Outcome {
    let mut run = SteppedRun::mounted(scenario, model, tel);
    while !run.done() {
        run.tick();
    }
    run.finish()
}

/// Runs a scenario to completion with the hand-written monitors only.
///
/// # Panics
/// Panics like [`SteppedRun::new`] on a malformed multi-vehicle spec.
pub fn run(scenario: Scenario) -> Outcome {
    run_with_model(scenario, None)
}

/// Runs a scenario to completion, optionally with a learned
/// self-awareness monitor mounted beside the hand-written ones. With
/// `None` this is exactly [`run`]; with a model, the online scorer ingests
/// the 1 Hz signal vector and threshold crossings escalate like any other
/// anomaly. The model is mounted on every platoon member and every focal
/// vehicle of a city.
///
/// # Panics
/// Panics like [`SteppedRun::new`] on a malformed multi-vehicle spec.
pub fn run_with_model(scenario: Scenario, model: Option<&SelfAwarenessModel>) -> Outcome {
    run_mounted(&scenario, model, None)
}

/// Runs a scenario to completion with `sink`'s telemetry mounted: the
/// run's escalation trace, registry counters, stage counts and detection
/// latency are folded into the sink. The measured [`Outcome`] is
/// bit-identical to [`run_with_model`]'s — telemetry observes, never
/// perturbs.
///
/// # Panics
/// Panics like [`SteppedRun::new`] on a malformed multi-vehicle spec.
pub fn run_observed(
    scenario: Scenario,
    model: Option<&SelfAwarenessModel>,
    sink: &Telemetry,
) -> Outcome {
    run_mounted(&scenario, model, Some((sink.begin_run(0), sink)))
}

/// Composes member runs — a platoon's members or a city's focal vehicles —
/// into one [`Outcome`]: the first member's series, the most
/// severe final mode, the worst safety fields, the mean distance and
/// exactly merged escalation statistics. The fold starts from the chain's
/// own `min_gap_m` and `collision` (`INFINITY` and `false` for a platoon,
/// whose chain is its members). The engine adds its own record.
pub(crate) fn compose_members(
    label: String,
    members: Vec<RunContext>,
    min_gap_m: f64,
    collision: bool,
) -> Outcome {
    // Resolution statistics merge exactly: resolved / total over all
    // members' coordinators.
    let (resolved, routed) = members.iter().fold((0usize, 0usize), |(r, t), m| {
        (r + m.v.coordinator.resolved(), t + m.v.coordinator.routed())
    });
    let outcomes: Vec<Outcome> = members.into_iter().map(RunContext::finish).collect();

    let severity = |mode: &DrivingMode| match mode {
        DrivingMode::Normal => 0,
        DrivingMode::Reduced { .. } => 1,
        DrivingMode::SafeStop => 2,
    };
    let final_mode = outcomes
        .iter()
        .map(|o| o.final_mode)
        .max_by_key(severity)
        .unwrap_or(DrivingMode::Normal);
    let mut actions: Vec<String> = Vec::new();
    for a in outcomes.iter().flat_map(|o| &o.actions) {
        if !actions.contains(a) {
            actions.push(a.clone());
        }
    }
    let distance_m = outcomes.iter().map(|o| o.distance_m).sum::<f64>() / outcomes.len() as f64;
    let min_gap_m = outcomes
        .iter()
        .map(|o| o.min_gap_m)
        .fold(min_gap_m, f64::min);
    let min_ttc_s = outcomes
        .iter()
        .map(|o| o.min_ttc_s)
        .fold(f64::INFINITY, f64::min);
    let collision = outcomes.iter().any(|o| o.collision) || collision;
    let first_detection = outcomes.iter().filter_map(|o| o.first_detection).min();
    let first_model_deviation = outcomes
        .iter()
        .filter_map(|o| o.first_model_deviation)
        .min();
    let mitigated_at = outcomes.iter().filter_map(|o| o.mitigated_at).max();
    let conflicts = outcomes.iter().map(|o| o.conflicts).sum();
    let max_hops = outcomes.iter().map(|o| o.max_hops).max().unwrap_or(0);
    let (speed, ability, miss_rate, temp_c, speed_factor, model_score) =
        match outcomes.into_iter().next() {
            Some(l) => (
                l.speed,
                l.ability,
                l.miss_rate,
                l.temp_c,
                l.speed_factor,
                l.model_score,
            ),
            None => Default::default(),
        };

    Outcome {
        label,
        speed,
        ability,
        miss_rate,
        temp_c,
        speed_factor,
        model_score,
        final_mode,
        min_gap_m,
        min_ttc_s,
        collision,
        distance_m,
        first_detection,
        first_model_deviation,
        mitigated_at,
        actions,
        conflicts,
        max_hops,
        resolution_rate: (routed > 0).then(|| resolved as f64 / routed as f64),
        trace: [],
        platoon: None,
        city: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ResponseStrategy;

    /// Stepping the one handle to done equals the entry points for every
    /// topology, unmounted and with a telemetry sink mounted.
    #[test]
    fn stepped_run_matches_run_for_every_topology() {
        use crate::scenario::{CitySpec, PlatoonSpec, ScenarioEvent};
        use saav_sim::time::Duration;
        let scenario = |label: &str| {
            Scenario::builder(label)
                .seed(11)
                .duration(Duration::from_secs(10))
                .at(Time::from_secs(3), ScenarioEvent::CompromiseRearBrake)
        };
        let table = [
            scenario("stepped/solo").build(),
            scenario("stepped/platoon")
                .platoon(PlatoonSpec::new(4).with_liar(3, 2.0))
                .build(),
            scenario("stepped/city").city(CitySpec::new(20, 2)).build(),
        ];
        for scenario in table {
            let label = scenario.label.clone();
            let direct = run(scenario.clone());
            let mut stepped = SteppedRun::new(&scenario);
            while !stepped.done() {
                stepped.tick();
            }
            assert_eq!(stepped.now_millis(), 10_000, "{label}");
            let out = stepped.finish();
            assert_eq!(out.summary(), direct.summary(), "{label}");
            assert_eq!(out.platoon, direct.platoon, "{label}");
            assert_eq!(out.city, direct.city, "{label}");

            let (stepped_sink, observed_sink) = (Telemetry::default(), Telemetry::default());
            let mut mounted = SteppedRun::with_telemetry(&scenario, &stepped_sink);
            while !mounted.done() {
                mounted.tick();
            }
            mounted.finish();
            run_observed(scenario, None, &observed_sink);
            assert_eq!(stepped_sink.snapshot(), observed_sink.snapshot(), "{label}");
            assert_eq!(stepped_sink.events(), observed_sink.events(), "{label}");
        }
    }

    #[test]
    fn baseline_runs_clean() {
        let out = run(Scenario::baseline(42));
        assert!(!out.collision);
        assert!(out.distance_m > 2_000.0, "distance {}", out.distance_m);
        assert!(matches!(out.final_mode, DrivingMode::Normal));
        assert!(out.conflicts == 0);
    }

    #[test]
    fn intrusion_cross_layer_keeps_driving_capped() {
        let out = run(Scenario::intrusion(ResponseStrategy::CrossLayer, 42));
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
        let out = run(Scenario::intrusion(ResponseStrategy::ObjectiveStop, 42));
        assert!(!out.collision);
        let final_speed = out.speed.last().unwrap();
        assert!(final_speed < 0.5, "should be stopped, at {final_speed}");
        assert!(out.distance_m < 2_000.0, "mission aborted early");
    }

    #[test]
    fn intrusion_single_layer_preserves_speed_but_less_margin() {
        let cross = run(Scenario::intrusion(ResponseStrategy::CrossLayer, 42));
        let single = run(Scenario::intrusion(ResponseStrategy::SingleLayer, 42));
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
        let out = run(Scenario::thermal(75.0, ResponseStrategy::CrossLayer, 7));
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
            let out = run(Scenario::intrusion(strategy, 3));
            assert!(out.max_hops <= Layer::ALL.len(), "{strategy:?}");
        }
    }

    #[test]
    fn composed_fog_intrusion_scenario_runs() {
        use crate::scenario::{ScenarioEvent, ScenarioFamily};
        let out = run(ScenarioFamily::FogIntrusion.build(ResponseStrategy::CrossLayer, 5));
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
        let out = run(ScenarioFamily::RadarDropout.build(ResponseStrategy::CrossLayer, 3));
        assert!(out.first_detection.is_some(), "dropout must be detected");
        assert!(!out.collision);
    }
}
