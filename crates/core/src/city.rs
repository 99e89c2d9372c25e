//! City-scale tiered-fidelity co-simulation: hundreds of background
//! vehicles in a struct-of-arrays surrogate store, a handful of *focal*
//! vehicles carrying the full self-awareness stack, and promotion /
//! demotion across the tiers as neighborhoods change.
//!
//! The scene is one single-lane chain (front is slot 0). Background
//! vehicles live in a [`SurrogateTraffic`] store and advance with one
//! batched IDM update per tick — contiguous `Vec<f64>` lanes, no
//! per-vehicle heap objects, roughly two orders of magnitude cheaper than
//! a full [`crate::vehicle::SelfAwareVehicle`] tick. Focal vehicles are
//! complete `RunContext`s (the same construction and `tick` code the solo
//! runner and the platoon engine use) occupying *mirrored* slots of the
//! store: each tick their true state is pushed back into the lanes, so
//! surrogate followers react to focal physics and focal radars see
//! surrogate leaders — the identical `push_lead_state` coupling contract
//! `run_platoon` uses, with the store standing in for the peer vehicle.
//!
//! Once per simulated second the engine re-evaluates neighborhoods:
//! background vehicles within the spec's promotion radius of a focal
//! vehicle are **promoted** to full fidelity (a `RunContext` seeded
//! deterministically from the scenario seed and the slot, initialized
//! from the surrogate state), and promoted vehicles that drift out of
//! every focal neighborhood are **demoted** back — the store resumes
//! integrating from their last mirrored state. Promotion cost is paid at
//! the (rare) tier transitions; the steady-state tick path allocates
//! nothing (pinned by `tests/zero_alloc.rs` through the steppable
//! [`CityRun`]).
//!
//! A run steps on its calling thread. Parallelism lives one level up:
//! a [`crate::fleet::FleetRunner`] runs many city runs side by side.
//!
//! [`SurrogateTraffic`]: saav_vehicle::surrogate::SurrogateTraffic

use saav_learn::SelfAwarenessModel;
use saav_sim::rng::derive_seed;
use saav_sim::series::Series;
use saav_sim::time::Time;
use saav_sim::trace::Tracer;
use saav_skills::decision::DrivingMode;
use saav_vehicle::surrogate::SurrogateTraffic;
use saav_vehicle::traffic::LeadVehicle;

use crate::outcome::{CityOutcome, Outcome};
use crate::runner::{record_outcome_latency, RunContext};
use crate::scenario::{CitySpec, Scenario};
use crate::telemetry::{RunTelemetry, Stage, Telemetry, TelemetryEvent};
use crate::vehicle::CONTROL_PERIOD;

/// Seed-space offset separating promoted background vehicles from focal
/// vehicles (which derive from their focal index), so a focal vehicle's
/// noise streams never depend on how many background vehicles surround it.
const PROMOTED_SEED_BASE: u64 = 1 << 32;

/// One full-fidelity vehicle of the chain: a focal vehicle (permanent,
/// with its focal index) or a promoted background vehicle (temporary).
struct FullVehicle {
    /// Chain slot this vehicle mirrors into.
    slot: usize,
    /// `Some(k)` for focal vehicle `k`; `None` for promoted background.
    focal_index: Option<usize>,
    ctx: RunContext,
}

/// Whether `pos` lies within `radius` of any focal position, given the
/// focal positions sorted ascending ([`f64::total_cmp`] order). A
/// binary-search window prefilter — bounds widened by a few ulps to
/// absorb the rounding of `pos ± radius` — feeds the *original* exact
/// predicate `(pos - f).abs() <= radius`, so decisions are bit-identical
/// to the linear scan it replaces (pinned against
/// `near_focal_linear` below) at O(log f + hits) instead of O(f).
fn near_focal_window(focal_sorted: &[f64], pos: f64, radius: f64) -> bool {
    let slack = (pos.abs() + radius) * (4.0 * f64::EPSILON);
    let lo = pos - radius - slack;
    let hi = pos + radius + slack;
    let start = focal_sorted.partition_point(|&f| f < lo);
    focal_sorted[start..]
        .iter()
        .take_while(|&&f| f <= hi)
        .any(|&f| (pos - f).abs() <= radius)
}

/// The original O(focal) promotion scan, kept as the decision oracle for
/// [`near_focal_window`].
#[cfg(test)]
fn near_focal_linear(focal_pos: &[f64], pos: f64, radius: f64) -> bool {
    focal_pos.iter().any(|&f| (pos - f).abs() <= radius)
}

/// Runs a city scenario to completion and returns the composed
/// [`Outcome`] (lead focal series + fleet-worst safety fields + the tier
/// statistics in [`CityOutcome`]).
///
/// # Panics
/// Panics if the scenario carries no [`CitySpec`], the chain is empty, or
/// the initial gap is not positive.
pub fn run_city(scenario: Scenario, model: Option<&SelfAwarenessModel>) -> Outcome {
    run_city_observed(scenario, model, None)
}

/// [`run_city`] with optional mounted telemetry: the batched surrogate
/// update charges the surrogate stage, focal ticks charge the
/// runner/monitor stages, and tier transitions become trace events.
pub(crate) fn run_city_observed(
    scenario: Scenario,
    model: Option<&SelfAwarenessModel>,
    mut tel: Option<&mut RunTelemetry>,
) -> Outcome {
    let mut engine = CityEngine::new(scenario, model);
    while !engine.done() {
        engine.tick(tel.as_deref_mut());
    }
    engine.finish()
}

/// The city engine's live state: the chain, the full-fidelity tier and
/// the running tier statistics.
struct CityEngine {
    scenario: Scenario,
    spec: CitySpec,
    store: SurrogateTraffic,
    /// Full-fidelity vehicles, ascending by slot.
    full: Vec<FullVehicle>,
    /// Focal positions sorted ascending, for the window promotion scan.
    focal_sorted: Vec<f64>,
    now: Time,
    end: Time,
    total: usize,
    ticks: u64,
    surrogate_vehicle_ticks: u64,
    full_vehicle_ticks: u64,
    promotions: u64,
    demotions: u64,
    max_full_tier: usize,
}

impl CityEngine {
    // `model` is threaded into the focal stacks at construction; promoted
    // background vehicles deliberately run without learned monitors.
    fn new(scenario: Scenario, model: Option<&SelfAwarenessModel>) -> Self {
        let spec = scenario.city.clone().expect("city scenario");
        let total = spec.total();
        assert!(total >= 1, "city chain needs at least one vehicle");
        assert!(
            spec.initial_gap_m > 0.0,
            "initial gap must be positive, got {}",
            spec.initial_gap_m
        );

        // --- the chain: every vehicle starts in the surrogate store -----
        let mut store = SurrogateTraffic::with_capacity(spec.idm, total);
        for slot in 0..total {
            store.push_vehicle(-(slot as f64) * spec.initial_gap_m, spec.cruise_mps);
        }

        // --- focal vehicles: full stacks on mirrored slots --------------
        // Seeds derive from the *focal index*, not the slot, so a focal
        // vehicle's noise streams are identical at any background density
        // — the E14 invariance property.
        let full: Vec<FullVehicle> = (0..spec.focal)
            .map(|k| {
                let slot = spec.focal_slot(k);
                let mut ctx = RunContext::for_member(
                    &scenario,
                    format!("{}#f{k}", scenario.label),
                    derive_seed(scenario.seed, k as u64),
                    spec.cruise_mps,
                    chain_lead(&scenario, &spec, slot),
                    model,
                );
                ctx.v
                    .world
                    .set_road_offset_m(-(slot as f64) * spec.initial_gap_m);
                store.set_mirrored(slot, true);
                FullVehicle {
                    slot,
                    focal_index: Some(k),
                    ctx,
                }
            })
            .collect();
        debug_assert!(full.windows(2).all(|w| w[0].slot < w[1].slot));

        let end = Time::ZERO + scenario.duration;
        let max_full_tier = full.len();
        CityEngine {
            scenario,
            spec,
            store,
            full,
            focal_sorted: Vec::new(),
            now: Time::ZERO,
            end,
            total,
            ticks: 0,
            surrogate_vehicle_ticks: 0,
            full_vehicle_ticks: 0,
            promotions: 0,
            demotions: 0,
            max_full_tier,
        }
    }

    /// Whether the scenario's time horizon has been reached.
    fn done(&self) -> bool {
        self.now >= self.end
    }

    /// Simulated time since run start, in milliseconds.
    fn now_millis(&self) -> u64 {
        self.now.as_millis()
    }

    /// Advances the city by one control period (10 ms).
    fn tick(&mut self, mut tel: Option<&mut RunTelemetry>) {
        self.now += CONTROL_PERIOD;
        self.ticks += 1;
        // 1. One batched surrogate update: mirrored slots are read as
        //    leaders (at their last mirrored state — the standard one-tick
        //    co-simulation delay) but never written.
        let surrogate_t0 = tel.as_deref().and_then(|t| t.stage_enter());
        self.store.step(CONTROL_PERIOD);
        if let Some(t) = tel.as_deref_mut() {
            t.stage_exit(Stage::Surrogate, surrogate_t0);
        }
        self.surrogate_vehicle_ticks += self.store.surrogate_count() as u64;
        self.full_vehicle_ticks += self.full.len() as u64;
        // 2. Full-fidelity vehicles, front to back (Gauss–Seidel: a full
        //    vehicle behind another reads its already-mirrored fresh
        //    state): couple to the slot ahead, tick, mirror back.
        for fv in &mut self.full {
            let slot = fv.slot;
            if slot > 0 {
                fv.ctx.v.world.push_lead_state(
                    self.store.position_m(slot - 1),
                    self.store.speed_mps(slot - 1),
                );
            }
            fv.ctx.tick(tel.as_deref_mut());
            self.store.push_state(
                slot,
                fv.ctx.v.world.abs_position_m(),
                fv.ctx.v.world.ego.speed_mps(),
            );
        }
        // 3. Neighborhood re-evaluation at 1 Hz: promote background
        //    vehicles that entered a focal neighborhood, demote promoted
        //    vehicles that left every focal neighborhood.
        if self.now.as_millis().is_multiple_of(1_000) && self.spec.focal > 0 {
            self.reevaluate(tel);
        }
    }

    /// The 1 Hz promotion/demotion pass, using the sorted-window focal
    /// scan.
    fn reevaluate(&mut self, mut tel: Option<&mut RunTelemetry>) {
        self.focal_sorted.clear();
        self.focal_sorted.extend(
            self.full
                .iter()
                .filter(|fv| fv.focal_index.is_some())
                .map(|fv| self.store.position_m(fv.slot)),
        );
        self.focal_sorted.sort_unstable_by(f64::total_cmp);
        let radius = self.spec.promotion_radius_m;
        {
            let store = &mut self.store;
            let demotions = &mut self.demotions;
            let focal_sorted = &self.focal_sorted;
            let now = self.now;
            self.full.retain(|fv| {
                if fv.focal_index.is_some()
                    || near_focal_window(focal_sorted, store.position_m(fv.slot), radius)
                {
                    true
                } else {
                    store.set_mirrored(fv.slot, false);
                    *demotions += 1;
                    if let Some(t) = tel.as_deref_mut() {
                        t.record(
                            now,
                            TelemetryEvent::TierDemotion {
                                slot: fv.slot as u32,
                            },
                        );
                    }
                    false
                }
            });
        }
        for slot in 0..self.total {
            if self.store.is_mirrored(slot)
                || !near_focal_window(&self.focal_sorted, self.store.position_m(slot), radius)
            {
                continue;
            }
            self.promotions += 1;
            if let Some(t) = tel.as_deref_mut() {
                t.record(
                    self.now,
                    TelemetryEvent::TierPromotion { slot: slot as u32 },
                );
            }
            let speed = self.store.speed_mps(slot);
            let lead = if slot == 0 {
                self.scenario.lead.clone()
            } else {
                LeadVehicle::external(self.store.gap_m(slot), self.store.speed_mps(slot - 1))
            };
            let mut ctx = RunContext::for_member(
                &self.scenario,
                format!("{}#bg{slot}", self.scenario.label),
                derive_seed(self.scenario.seed, PROMOTED_SEED_BASE + slot as u64),
                speed,
                lead,
                // Promoted background keeps the hand-written monitors
                // only; learned monitors stay a focal concern.
                None,
            );
            ctx.v.world.set_road_offset_m(self.store.position_m(slot));
            self.store.set_mirrored(slot, true);
            let at = self
                .full
                .binary_search_by_key(&slot, |fv| fv.slot)
                .expect_err("slot is not yet full-fidelity");
            self.full.insert(
                at,
                FullVehicle {
                    slot,
                    focal_index: None,
                    ctx,
                },
            );
        }
        self.max_full_tier = self.max_full_tier.max(self.full.len());
    }

    /// Closes the run: composes the focal outcomes and chain metrics.
    fn finish(self) -> Outcome {
        compose_city(
            self.scenario,
            &self.spec,
            self.full,
            &self.store,
            self.ticks,
            self.surrogate_vehicle_ticks,
            self.full_vehicle_ticks,
            self.promotions,
            self.demotions,
            self.max_full_tier,
        )
    }
}

/// A city run stepped one control period at a time — the city-engine
/// counterpart of [`crate::runner::SteppedRun`], exposed so external
/// drivers (allocation pins, benchmarks, custom co-simulation loops) can
/// observe or interleave with the tick stream.
pub struct CityRun {
    engine: CityEngine,
    tel: Option<RunTelemetry>,
    sink: Option<Telemetry>,
}

impl CityRun {
    /// Readies `scenario`'s city chain without advancing time.
    ///
    /// # Panics
    /// Panics when the scenario carries no [`CitySpec`] (single-vehicle
    /// scenarios step through [`crate::runner::SteppedRun`]).
    pub fn new(scenario: &Scenario) -> Self {
        assert!(
            scenario.city.is_some(),
            "CityRun drives city scenarios only"
        );
        CityRun {
            engine: CityEngine::new(scenario.clone(), None),
            tel: None,
            sink: None,
        }
    }

    /// Like [`CityRun::new`] with `sink`'s telemetry mounted: ticks
    /// record into a per-run ring/registry, folded back into the sink by
    /// [`CityRun::finish`].
    pub fn with_telemetry(scenario: &Scenario, sink: &Telemetry) -> Self {
        let mut run = CityRun::new(scenario);
        run.tel = Some(sink.begin_run(0));
        run.sink = Some(sink.clone());
        run
    }

    /// Whether the scenario's time horizon has been reached.
    pub fn done(&self) -> bool {
        self.engine.done()
    }

    /// Advances the city by one control period (10 ms).
    pub fn tick(&mut self) {
        self.engine.tick(self.tel.as_mut());
    }

    /// Simulated time since run start, in milliseconds. Tier
    /// re-evaluation fires on whole-second instants; allocation pins use
    /// this to place their measurement window between them.
    pub fn now_millis(&self) -> u64 {
        self.engine.now_millis()
    }

    /// Closes the run and returns its composed [`Outcome`], absorbing any
    /// mounted telemetry into its sink.
    pub fn finish(self) -> Outcome {
        let out = self.engine.finish();
        if let (Some(mut tel), Some(sink)) = (self.tel, self.sink) {
            record_outcome_latency(&mut tel, &out);
            sink.absorb(tel);
        }
        out
    }
}

/// The lead coupling of a full-fidelity vehicle at `slot`: the front of
/// the chain follows the scenario's scripted lead (like the platoon
/// leader); everyone else follows an externally-driven participant fed
/// from the slot ahead each tick.
fn chain_lead(scenario: &Scenario, spec: &CitySpec, slot: usize) -> LeadVehicle {
    if slot == 0 {
        scenario.lead.clone()
    } else {
        LeadVehicle::external(spec.initial_gap_m, spec.cruise_mps)
    }
}

/// Composes the focal outcomes and the chain metrics into one [`Outcome`]
/// mirroring [`crate::cosim`]'s composition: lead-focal series,
/// fleet-worst safety fields, merged escalation statistics, and the tier
/// record.
#[allow(clippy::too_many_arguments)]
fn compose_city(
    scenario: Scenario,
    spec: &CitySpec,
    full: Vec<FullVehicle>,
    store: &SurrogateTraffic,
    ticks: u64,
    surrogate_vehicle_ticks: u64,
    full_vehicle_ticks: u64,
    promotions: u64,
    demotions: u64,
    max_full_tier: usize,
) -> Outcome {
    let focal: Vec<RunContext> = full
        .into_iter()
        .filter(|fv| fv.focal_index.is_some())
        .map(|fv| fv.ctx)
        .collect();
    let (resolved, total_problems) = focal.iter().fold((0usize, 0usize), |(r, t), m| {
        (r + m.v.coordinator.resolved(), t + m.v.coordinator.routed())
    });
    let outcomes: Vec<Outcome> = focal.into_iter().map(RunContext::finish).collect();

    let city = CityOutcome {
        vehicles: spec.total(),
        focal: spec.focal,
        ticks,
        surrogate_vehicle_ticks,
        full_vehicle_ticks,
        promotions,
        demotions,
        max_full_tier,
        chain_min_gap_m: store.min_gap_m(),
        chain_collision: store.collision(),
        focal_first_detection: outcomes.iter().map(|o| o.first_detection).collect(),
        focal_collisions: outcomes.iter().map(|o| o.collision).collect(),
    };

    if outcomes.is_empty() {
        // A pure surrogate run (focal = 0): no self-awareness stack ran,
        // so the outcome carries only the chain-level quantities.
        return Outcome {
            label: scenario.label,
            speed: Series::new(),
            ability: Series::new(),
            miss_rate: Series::new(),
            temp_c: Series::new(),
            speed_factor: Series::new(),
            model_score: Series::new(),
            final_mode: DrivingMode::Normal,
            min_gap_m: store.min_gap_m(),
            min_ttc_s: f64::INFINITY,
            collision: store.collision(),
            distance_m: store.position_m(0),
            first_detection: None,
            first_model_deviation: None,
            mitigated_at: None,
            actions: Vec::new(),
            conflicts: 0,
            max_hops: 0,
            resolution_rate: None,
            trace: Tracer::new(),
            platoon: None,
            city: Some(city),
        };
    }

    let severity = |mode: DrivingMode| match mode {
        DrivingMode::Normal => 0,
        DrivingMode::Reduced { .. } => 1,
        DrivingMode::SafeStop => 2,
    };
    let final_mode = outcomes
        .iter()
        .map(|o| o.final_mode)
        .max_by_key(|&m| severity(m))
        .expect("at least one focal vehicle");
    let mut actions: Vec<String> = Vec::new();
    for o in &outcomes {
        for a in &o.actions {
            if !actions.contains(a) {
                actions.push(a.clone());
            }
        }
    }
    let n = outcomes.len() as f64;
    let distance_m = outcomes.iter().map(|o| o.distance_m).sum::<f64>() / n;
    let min_gap_m = outcomes
        .iter()
        .map(|o| o.min_gap_m)
        .fold(store.min_gap_m(), f64::min);
    let min_ttc_s = outcomes
        .iter()
        .map(|o| o.min_ttc_s)
        .fold(f64::INFINITY, f64::min);
    let collision = outcomes.iter().any(|o| o.collision) || store.collision();
    let first_detection = outcomes.iter().filter_map(|o| o.first_detection).min();
    let first_model_deviation = outcomes
        .iter()
        .filter_map(|o| o.first_model_deviation)
        .min();
    let mitigated_at = outcomes.iter().filter_map(|o| o.mitigated_at).max();
    let conflicts = outcomes.iter().map(|o| o.conflicts).sum();
    let max_hops = outcomes.iter().map(|o| o.max_hops).max().unwrap_or(0);
    let lead_focal = outcomes.into_iter().next().expect("at least one focal");

    Outcome {
        label: scenario.label,
        speed: lead_focal.speed,
        ability: lead_focal.ability,
        miss_rate: lead_focal.miss_rate,
        temp_c: lead_focal.temp_c,
        speed_factor: lead_focal.speed_factor,
        model_score: lead_focal.model_score,
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
        resolution_rate: (total_problems > 0).then(|| resolved as f64 / total_problems as f64),
        trace: lead_focal.trace,
        platoon: None,
        city: Some(city),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioEvent;
    use saav_sim::time::Duration;

    fn short_city(background: usize, focal: usize, seed: u64) -> Scenario {
        Scenario::builder("city-test")
            .seed(seed)
            .duration(Duration::from_secs(10))
            .city(CitySpec::new(background, focal))
            .build()
    }

    #[test]
    fn focal_vehicles_hold_formation_in_traffic() {
        let out = crate::runner::run(short_city(20, 2, 7));
        let c = out.city.as_ref().expect("city outcome");
        assert_eq!(c.vehicles, 22);
        assert_eq!(c.focal, 2);
        assert_eq!(c.ticks, 1_000);
        assert!(!out.collision, "chain min gap {}", c.chain_min_gap_m);
        assert_eq!(c.focal_collisions, vec![false, false]);
        assert!(c.chain_min_gap_m > 0.0);
        // Both tiers actually ran, and the surrogate tier dominated the
        // vehicle-tick count.
        assert!(c.surrogate_vehicle_ticks > c.full_vehicle_ticks);
        assert!(out.distance_m > 150.0, "distance {}", out.distance_m);
    }

    #[test]
    fn neighbors_promote_and_demote() {
        let out = crate::runner::run(short_city(20, 2, 3));
        let c = out.city.as_ref().unwrap();
        // With 30 m gaps and a 45 m radius, each focal vehicle promotes
        // its immediate neighbors at the first 1 Hz re-evaluation.
        assert!(c.promotions >= 2, "promotions {}", c.promotions);
        assert!(c.max_full_tier > c.focal, "max tier {}", c.max_full_tier);
        assert!(c.max_full_tier < c.vehicles, "tiering must stay partial");
    }

    #[test]
    fn pure_surrogate_city_runs_without_focal_stack() {
        let out = crate::runner::run(short_city(50, 0, 1));
        let c = out.city.as_ref().unwrap();
        assert_eq!(c.focal, 0);
        assert_eq!(c.full_vehicle_ticks, 0);
        assert_eq!(c.surrogate_vehicle_ticks, 50 * 1_000);
        assert!(!out.collision);
        assert!(out.distance_m > 0.0, "front vehicle moved");
        assert!(out.speed.is_empty(), "no focal series");
    }

    #[test]
    fn city_is_deterministic_per_seed() {
        let a = crate::runner::run(short_city(30, 2, 5));
        let b = crate::runner::run(short_city(30, 2, 5));
        assert_eq!(a.distance_m.to_bits(), b.distance_m.to_bits());
        assert_eq!(a.city.as_ref().unwrap(), b.city.as_ref().unwrap());
    }

    #[test]
    fn steppable_city_run_matches_run_city() {
        let scenario = short_city(20, 2, 11);
        let direct = crate::runner::run(scenario.clone());
        let mut stepped = CityRun::new(&scenario);
        assert!(!stepped.done());
        while !stepped.done() {
            stepped.tick();
        }
        assert_eq!(stepped.now_millis(), 10_000);
        let out = stepped.finish();
        assert_eq!(out.distance_m.to_bits(), direct.distance_m.to_bits());
        assert_eq!(out.city.as_ref().unwrap(), direct.city.as_ref().unwrap());
    }

    #[test]
    fn balanced_promotion_churn_keeps_the_full_tier_in_slot_order() {
        // A 1 Hz pass that demotes and promotes an equal number of
        // vehicles leaves the full-tier count unchanged but must still
        // leave `full` ascending by slot, since the tick couples each
        // full vehicle to the slot ahead in that order. Engineer exactly
        // that: nudge one focal's mirrored position so its window
        // swallows one more background vehicle, and teleport a promoted
        // vehicle out of the other focal's neighborhood.
        let mut engine = CityEngine::new(short_city(20, 2, 17), None);
        let f0 = engine.spec.focal_slot(0);
        let f1 = engine.spec.focal_slot(1);
        engine.reevaluate(None);
        let before: Vec<usize> = engine.full.iter().map(|fv| fv.slot).collect();
        assert_eq!(
            before,
            vec![f0 - 1, f0, f0 + 1, f1 - 1, f1, f1 + 1],
            "each focal promotes its 30 m neighbors inside the 45 m radius"
        );

        // +15 m keeps f0±1 (45 m, boundary-inclusive) and reaches f0-2
        // (45 m): one promotion.
        let speed = engine.store.speed_mps(f0);
        let pos = engine.store.position_m(f0);
        engine.store.push_state(f0, pos + 15.0, speed);
        // 60 m back puts f1+1 90 m behind f1: one demotion.
        let speed = engine.store.speed_mps(f1 + 1);
        let pos = engine.store.position_m(f1 + 1);
        engine.store.push_state(f1 + 1, pos - 60.0, speed);

        let (promos, demos) = (engine.promotions, engine.demotions);
        engine.reevaluate(None);
        assert_eq!(
            (engine.promotions - promos, engine.demotions - demos),
            (1, 1),
            "the pass must be exactly balanced"
        );
        let after: Vec<usize> = engine.full.iter().map(|fv| fv.slot).collect();
        assert_eq!(after, vec![f0 - 2, f0 - 1, f0, f0 + 1, f1 - 1, f1]);
        assert_eq!(after.len(), before.len(), "count unchanged");
    }

    #[test]
    fn window_scan_matches_linear_oracle() {
        // Exact-boundary cases included: probes sitting precisely at
        // focal ± radius must promote under both scans.
        let radius = 45.0;
        let focal: Vec<f64> = vec![-317.5, -60.25, 0.0, 88.125, 88.125, 451.75];
        let mut sorted = focal.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let mut probes: Vec<f64> = Vec::new();
        let mut p = -500.0;
        while p <= 600.0 {
            probes.push(p);
            p += 0.73;
        }
        for &f in &focal {
            for nudge in [-f64::EPSILON, 0.0, f64::EPSILON] {
                probes.push(f - radius + nudge * f.abs().max(1.0));
                probes.push(f + radius + nudge * f.abs().max(1.0));
            }
        }
        for &pos in &probes {
            assert_eq!(
                near_focal_window(&sorted, pos, radius),
                near_focal_linear(&focal, pos, radius),
                "scan divergence at pos {pos}"
            );
        }
    }

    #[test]
    fn focal_detection_is_invariant_to_background_density() {
        // The E14 property in miniature: an intrusion on board a focal
        // vehicle is detected at the same instant whether the chain holds
        // 5 or 50 background vehicles.
        let run = |background: usize| {
            let out = crate::runner::run(
                Scenario::builder("city-intrusion")
                    .seed(9)
                    .duration(Duration::from_secs(12))
                    .at(Time::from_secs(5), ScenarioEvent::CompromiseRearBrake)
                    .city(CitySpec::new(background, 2))
                    .build(),
            );
            out.city.unwrap().focal_first_detection
        };
        let sparse = run(5);
        let dense = run(50);
        assert!(sparse.iter().all(Option::is_some), "{sparse:?}");
        assert_eq!(sparse, dense, "detection latency must not drift");
    }

    #[test]
    fn chain_slots_place_focal_vehicles_evenly() {
        let spec = CitySpec::new(8, 2);
        assert_eq!(spec.focal_slot(0), 3);
        assert_eq!(spec.focal_slot(1), 6);
        // Degenerate: an all-focal chain occupies slots 0..n.
        let all_focal = CitySpec::new(0, 3);
        let slots: Vec<usize> = (0..3).map(|k| all_focal.focal_slot(k)).collect();
        assert_eq!(slots, vec![0, 1, 2]);
    }
}
