//! Composable scenario descriptions: events, a builder DSL, the named
//! scenario library, and the runtime [`ScenarioState`].
//!
//! A [`Scenario`] is pure data — a label, a list of timed
//! [`ScenarioEvent`]s, a lead-vehicle profile, a [`ResponseStrategy`] and a
//! duration. Any combination composes through [`ScenarioBuilder`], so new
//! operating conditions (fog *and* an intrusion, heat *and* stop-and-go
//! traffic, …) are one expression instead of a new hand-written function.
//! [`ScenarioFamily`] names the library of stock scenarios the fleet
//! experiments sweep over.
//!
//! At run time the scripted events live in a [`ScenarioState`]: a
//! [`saav_sim::event::EventQueue`] plus the injection flags (compromise,
//! quarantine, ramps) that the vehicle's containment logic consults. The
//! state is owned by the runner, not by the vehicle — the vehicle reacts to
//! it but does not know how scenarios are scripted.

use saav_can::v2v::LinkFault;
use saav_sim::event::EventQueue;
use saav_sim::time::{Duration, Time};
use saav_vehicle::sensors::SensorFault;
use saav_vehicle::surrogate::IdmParams;
use saav_vehicle::traffic::{LeadVehicle, ProfileSegment};

/// How the vehicle responds to detected problems (compared in E6/E7/E11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseStrategy {
    /// Handle every problem only at its origin layer, declaring it resolved
    /// there — the single-layer blindness the paper warns against.
    SingleLayer,
    /// Full cross-layer escalation (the paper's proposal).
    CrossLayer,
    /// Escalate straight to the objective layer: minimal-risk stop.
    ObjectiveStop,
}

impl ResponseStrategy {
    /// All strategies, in the order the experiment tables report them.
    pub const ALL: [ResponseStrategy; 3] = [
        ResponseStrategy::SingleLayer,
        ResponseStrategy::CrossLayer,
        ResponseStrategy::ObjectiveStop,
    ];
}

/// A scripted disturbance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioEvent {
    /// The rear-brake software component is compromised: it floods the bus
    /// and oversteps its execution contract until contained.
    CompromiseRearBrake,
    /// Fog builds up to the given density over the given time.
    FogRamp {
        /// Final fog density (`[0,1]`).
        to: f64,
        /// Ramp duration.
        over: Duration,
    },
    /// Ambient temperature ramps to the given value.
    AmbientRamp {
        /// Final ambient temperature (°C).
        to_c: f64,
        /// Ramp duration.
        over: Duration,
    },
    /// A radar hardware fault.
    RadarFault(SensorFault),
}

/// How the vehicle's contract configuration may change at run time.
///
/// The default reproduces the engine's established behavior: live
/// renegotiation through the multi-change controller with the
/// conservative lowrate plan preferred and no automatic rollback — the
/// exact task set and timing the legacy hardcoded swap produced, now
/// admitted through the viewpoint battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigSpec {
    /// Route degradation problems through live MCC renegotiation. When
    /// `false` the ability layer only mitigates (speed cap, regen) and
    /// leaves the contract table untouched — the static-contract
    /// comparison arm of E17.
    pub live: bool,
    /// Try the full-rate preservation update
    /// ([`crate::contracts::fast_request`]) first; the timing viewpoint
    /// provably rejects it next to the nominal load, exercising the
    /// rejected-update fallback path.
    pub prefer_fast: bool,
    /// Roll the admitted switch back once the die cools below this
    /// temperature (°C). `None` keeps the degraded configuration for the
    /// rest of the run (the legacy behavior).
    pub rollback_below_c: Option<f64>,
}

impl Default for ReconfigSpec {
    fn default() -> Self {
        ReconfigSpec {
            live: true,
            prefer_fast: false,
            rollback_below_c: None,
        }
    }
}

/// A compromised platoon member and the safe-speed claim it broadcasts
/// instead of its honest value (lying low stalls the platoon; lying high
/// tries to push it beyond the members' abilities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerLie {
    /// The lying member's index.
    pub member: usize,
    /// The claim it broadcasts (m/s).
    pub claim_mps: f64,
}

/// Multi-vehicle configuration of a scenario: when present, the run steps
/// the co-simulation engine ([`crate::cosim`]) instead of one vehicle.
///
/// All members share the scripted environment ([`ScenarioEvent`]s apply to
/// every vehicle); member-specific deceptions and V2V link faults are
/// declared here.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatoonSpec {
    /// Number of platoon members (co-simulated vehicles).
    pub members: usize,
    /// Initial bumper-to-bumper gap between consecutive members (m).
    pub initial_gap_m: f64,
    /// Nominal cruise speed every member starts at (m/s).
    pub cruise_mps: f64,
    /// Simultaneous faults the negotiation protocol tolerates.
    pub max_faults: usize,
    /// Period of the broadcast/negotiate cycle.
    pub negotiation_period: Duration,
    /// Per-member offsets on the honest safe-speed claim (m/s), indexed by
    /// member; members beyond the vector claim with offset 0. Models
    /// heterogeneous vehicle capability.
    pub safe_speed_delta_mps: Vec<f64>,
    /// Compromised members and the claims they broadcast.
    pub liars: Vec<PeerLie>,
    /// Per-member outgoing V2V link faults.
    pub links: Vec<(usize, LinkFault)>,
}

impl PlatoonSpec {
    /// A healthy `members`-vehicle platoon: 30 m gaps, 22 m/s cruise, `f`
    /// sized to the member count (`(members - 1) / 3`), 1 s negotiation
    /// period, homogeneous abilities, clean links.
    pub fn new(members: usize) -> Self {
        PlatoonSpec {
            members,
            initial_gap_m: 30.0,
            cruise_mps: 22.0,
            max_faults: members.saturating_sub(1) / 3,
            negotiation_period: Duration::from_secs(1),
            safe_speed_delta_mps: Vec::new(),
            liars: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Sets per-member safe-speed offsets (heterogeneous abilities).
    pub fn with_deltas(mut self, deltas: Vec<f64>) -> Self {
        self.safe_speed_delta_mps = deltas;
        self
    }

    /// Marks `member` as compromised, broadcasting `claim_mps`.
    pub fn with_liar(mut self, member: usize, claim_mps: f64) -> Self {
        self.liars.push(PeerLie { member, claim_mps });
        self
    }

    /// Installs a fault model on `member`'s outgoing V2V link.
    pub fn with_link(mut self, member: usize, fault: LinkFault) -> Self {
        self.links.push((member, fault));
        self
    }

    /// The safe-speed offset of `member` (0 beyond the configured vector).
    pub fn delta(&self, member: usize) -> f64 {
        self.safe_speed_delta_mps
            .get(member)
            .copied()
            .unwrap_or(0.0)
    }

    /// The scripted lie of `member`, if it is compromised.
    pub fn lie_of(&self, member: usize) -> Option<f64> {
        self.liars
            .iter()
            .find(|l| l.member == member)
            .map(|l| l.claim_mps)
    }
}

/// City-scale tiered-fidelity configuration of a scenario: when present,
/// the run steps the city engine ([`crate::city`]) instead of one vehicle
/// or the platoon engine.
///
/// The scene is one single-lane chain of `background + focal` vehicles.
/// Background vehicles live in the struct-of-arrays
/// [`saav_vehicle::surrogate::SurrogateTraffic`] store (batched IDM
/// car-following, no per-vehicle heap objects); the `focal` vehicles are
/// full [`crate::vehicle::SelfAwareVehicle`] stacks spread evenly through
/// the chain and coupled to it through the same external-lead interface
/// the platoon engine uses. Background vehicles entering a focal
/// vehicle's neighborhood (within `promotion_radius_m`) are *promoted* to
/// the full-fidelity tier and demoted back when they leave it.
#[derive(Debug, Clone, PartialEq)]
pub struct CitySpec {
    /// Number of surrogate background vehicles.
    pub background: usize,
    /// Number of focal vehicles carrying the full self-awareness stack.
    pub focal: usize,
    /// Initial bumper-to-bumper gap between consecutive vehicles (m).
    pub initial_gap_m: f64,
    /// Nominal cruise speed every vehicle starts at (m/s).
    pub cruise_mps: f64,
    /// Background vehicles within this distance of a focal vehicle are
    /// promoted to the full-fidelity tier.
    pub promotion_radius_m: f64,
    /// Car-following parameters of the surrogate tier.
    pub idm: IdmParams,
}

impl CitySpec {
    /// A city chain with `background` surrogate vehicles and `focal` full
    /// stacks: 30 m gaps, 22 m/s cruise, 45 m promotion radius, default
    /// IDM parameters.
    pub fn new(background: usize, focal: usize) -> Self {
        CitySpec {
            background,
            focal,
            initial_gap_m: 30.0,
            cruise_mps: 22.0,
            promotion_radius_m: 45.0,
            idm: IdmParams::default(),
        }
    }

    /// Returns the spec unchanged: a city run always steps on its calling
    /// thread, so there is no width to set. Kept only because the
    /// benchmark in `saavbench/` still calls it; the next benchmark change
    /// drops those calls and this method with them.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Total number of vehicles in the chain (both tiers).
    pub fn total(&self) -> usize {
        self.background + self.focal
    }

    /// The chain slot of focal vehicle `k`: focal vehicles are spread
    /// evenly through the chain (front is slot 0), so each keeps
    /// background traffic ahead and behind where the chain allows.
    pub fn focal_slot(&self, k: usize) -> usize {
        ((k + 1) * self.total()) / (self.focal + 1)
    }
}

/// A complete scenario description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Label for reports.
    pub label: String,
    /// Scripted events.
    pub events: Vec<(Time, ScenarioEvent)>,
    /// Total simulated time.
    pub duration: Duration,
    /// Response strategy under test.
    pub strategy: ResponseStrategy,
    /// RNG seed.
    pub seed: u64,
    /// Initial/lead traffic: `(ego speed, lead)`.
    pub ego_speed_mps: f64,
    /// The lead vehicle profile.
    pub lead: LeadVehicle,
    /// Multi-vehicle platoon configuration; `None` runs the classic
    /// single-vehicle loop.
    pub platoon: Option<PlatoonSpec>,
    /// City-scale tiered-fidelity configuration; takes precedence over
    /// `platoon` when both are set.
    pub city: Option<CitySpec>,
    /// Runtime contract-reconfiguration policy.
    pub reconfig: ReconfigSpec,
}

impl Scenario {
    /// Starts a builder for a scenario with the given report label.
    pub fn builder(label: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder::new(label)
    }

    /// When the first scripted disturbance fires, if any: detection
    /// latency is measured from it.
    pub(crate) fn first_event_at(&self) -> Option<Time> {
        self.events.iter().map(|&(t, _)| t).min()
    }

    /// A 120 s highway following scenario with no disturbances.
    pub fn baseline(seed: u64) -> Self {
        Scenario::builder("baseline").seed(seed).build()
    }

    /// The paper's intrusion scenario: rear-brake compromise at t = 30 s
    /// while following a lead vehicle that brakes hard at t = 60 s, holds
    /// low speed, then recovers to cruise — so availability differences
    /// between the response strategies show in the distance travelled.
    pub fn intrusion(strategy: ResponseStrategy, seed: u64) -> Self {
        Scenario::builder(format!("intrusion/{strategy:?}"))
            .strategy(strategy)
            .seed(seed)
            .at(Time::from_secs(30), ScenarioEvent::CompromiseRearBrake)
            .lead(lead_brake_and_recover())
            .build()
    }

    /// The thermal scenario: ambient ramps from 25 °C to the target over
    /// 60 s starting immediately.
    pub fn thermal(to_c: f64, strategy: ResponseStrategy, seed: u64) -> Self {
        Scenario::builder(format!("thermal/{strategy:?}"))
            .strategy(strategy)
            .seed(seed)
            .duration(Duration::from_secs(240))
            .at(
                Time::from_secs(10),
                ScenarioEvent::AmbientRamp {
                    to_c,
                    over: Duration::from_secs(60),
                },
            )
            .build()
    }

    /// The fog scenario for ability monitoring (E5).
    pub fn fog(to: f64, seed: u64) -> Self {
        Scenario::builder("fog")
            .seed(seed)
            .at(
                Time::from_secs(20),
                ScenarioEvent::FogRamp {
                    to,
                    over: Duration::from_secs(40),
                },
            )
            .build()
    }
}

/// Builder-style DSL for [`Scenario`]s.
///
/// Defaults: 120 s duration, [`ResponseStrategy::CrossLayer`], seed 0, ego
/// at 22 m/s behind a lead cruising at 22 m/s with a 60 m gap. Any number
/// of timed events composes:
///
/// ```
/// use saav_core::scenario::{Scenario, ScenarioEvent};
/// use saav_sim::time::{Duration, Time};
///
/// let s = Scenario::builder("fog+intrusion")
///     .seed(7)
///     .at(Time::from_secs(15), ScenarioEvent::FogRamp {
///         to: 0.6,
///         over: Duration::from_secs(30),
///     })
///     .at(Time::from_secs(45), ScenarioEvent::CompromiseRearBrake)
///     .build();
/// assert_eq!(s.events.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    label: String,
    events: Vec<(Time, ScenarioEvent)>,
    duration: Duration,
    strategy: ResponseStrategy,
    seed: u64,
    ego_speed_mps: f64,
    lead: LeadVehicle,
    platoon: Option<PlatoonSpec>,
    city: Option<CitySpec>,
    reconfig: ReconfigSpec,
}

impl ScenarioBuilder {
    /// Creates a builder with the library defaults (see type docs).
    pub fn new(label: impl Into<String>) -> Self {
        ScenarioBuilder {
            label: label.into(),
            events: Vec::new(),
            duration: Duration::from_secs(120),
            strategy: ResponseStrategy::CrossLayer,
            seed: 0,
            ego_speed_mps: 22.0,
            lead: LeadVehicle::cruising(60.0, 22.0),
            platoon: None,
            city: None,
            reconfig: ReconfigSpec::default(),
        }
    }

    /// Schedules `event` at absolute time `t`.
    pub fn at(mut self, t: Time, event: ScenarioEvent) -> Self {
        self.events.push((t, event));
        self
    }

    /// Sets the total simulated time.
    pub fn duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the response strategy under test.
    pub fn strategy(mut self, strategy: ResponseStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the lead-vehicle profile.
    pub fn lead(mut self, lead: LeadVehicle) -> Self {
        self.lead = lead;
        self
    }

    /// Makes the scenario a multi-vehicle platoon co-simulation.
    pub fn platoon(mut self, spec: PlatoonSpec) -> Self {
        self.platoon = Some(spec);
        self
    }

    /// Makes the scenario a city-scale tiered-fidelity co-simulation.
    pub fn city(mut self, spec: CitySpec) -> Self {
        self.city = Some(spec);
        self
    }

    /// Prefers the full-rate preservation update, exercising the
    /// viewpoint-rejection fallback path.
    pub fn prefer_fast(mut self) -> Self {
        self.reconfig.prefer_fast = true;
        self
    }

    /// Rolls an admitted switch back once the die cools below `c` °C.
    pub fn rollback_below(mut self, c: f64) -> Self {
        self.reconfig.rollback_below_c = Some(c);
        self
    }

    /// Finalizes the scenario.
    pub fn build(self) -> Scenario {
        Scenario {
            label: self.label,
            events: self.events,
            duration: self.duration,
            strategy: self.strategy,
            seed: self.seed,
            ego_speed_mps: self.ego_speed_mps,
            lead: self.lead,
            platoon: self.platoon,
            city: self.city,
            reconfig: self.reconfig,
        }
    }
}

/// The lead profile of the intrusion scenarios: cruise, brake hard at
/// t = 60 s, crawl, recover to cruise.
fn lead_brake_and_recover() -> LeadVehicle {
    LeadVehicle::new(
        60.0,
        22.0,
        vec![
            ProfileSegment {
                duration: Duration::from_secs(60),
                end_speed_mps: 22.0,
            },
            ProfileSegment {
                duration: Duration::from_secs(4),
                end_speed_mps: 6.0,
            },
            ProfileSegment {
                duration: Duration::from_secs(10),
                end_speed_mps: 6.0,
            },
            ProfileSegment {
                duration: Duration::from_secs(6),
                end_speed_mps: 22.0,
            },
        ],
    )
}

/// The shared spine of the E17 dynamic-reconfiguration families: a 240 s
/// run whose ambient ramps from 25 °C to 75 °C over 60 s starting at
/// t = 10 s — hot enough to classify the induced deadline misses as
/// thermal stress and trigger renegotiation.
fn dynamic_thermal_base() -> ScenarioBuilder {
    Scenario::builder("").duration(Duration::from_secs(240)).at(
        Time::from_secs(10),
        ScenarioEvent::AmbientRamp {
            to_c: 75.0,
            over: Duration::from_secs(60),
        },
    )
}

/// The stock 5-member platoon of the E13 families: heterogeneous
/// capabilities (staggered safe-speed offsets), tolerating one fault.
fn platoon_base() -> PlatoonSpec {
    PlatoonSpec::new(5).with_deltas(vec![0.0, -0.5, -1.0, -1.5, -2.0])
}

/// Stop-and-go traffic: two brake-to-crawl / re-accelerate cycles.
fn lead_stop_and_go() -> LeadVehicle {
    let mut segments = vec![ProfileSegment {
        duration: Duration::from_secs(20),
        end_speed_mps: 22.0,
    }];
    for _ in 0..2 {
        segments.extend([
            ProfileSegment {
                duration: Duration::from_secs(6),
                end_speed_mps: 3.0,
            },
            ProfileSegment {
                duration: Duration::from_secs(12),
                end_speed_mps: 3.0,
            },
            ProfileSegment {
                duration: Duration::from_secs(10),
                end_speed_mps: 22.0,
            },
            ProfileSegment {
                duration: Duration::from_secs(12),
                end_speed_mps: 22.0,
            },
        ]);
    }
    LeadVehicle::new(60.0, 22.0, segments)
}

/// The named scenario library the fleet experiments sweep over.
///
/// Every family composes stock events through the [`ScenarioBuilder`] DSL
/// and is parameterized by strategy and seed. The single-vehicle families
/// ([`ScenarioFamily::ALL`]) span the E11 evaluation grid; the platoon
/// co-simulation families ([`ScenarioFamily::PLATOON`]) span E13; the
/// dynamic-reconfiguration families ([`ScenarioFamily::DYNAMIC`]) span
/// E17.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioFamily {
    /// Undisturbed highway following.
    Baseline,
    /// Rear-brake compromise during a lead braking manoeuvre.
    Intrusion,
    /// Ambient-temperature ramp to 75 °C.
    Thermal,
    /// Fog ramp to 0.85 density.
    Fog,
    /// Fog building up while the rear brake is compromised.
    FogIntrusion,
    /// Heat and fog at once — platform and ability stress combined.
    ThermalFog,
    /// The radar dies outright (heartbeat loss).
    RadarDropout,
    /// The radar turns noisy (quality degradation without dropout).
    RadarNoise,
    /// Stop-and-go traffic: repeated hard braking by the lead.
    StopAndGo,
    /// 5-member platoon with one member lying *low* (claims ~2 m/s to
    /// stall the platoon) until trust-based ejection.
    PlatoonLiarLow,
    /// 5-member platoon with one member lying *high* (claims 60 m/s to
    /// push the platoon past its abilities) until ejection.
    PlatoonLiarHigh,
    /// Honest 5-member platoon negotiating over lossy, delayed V2V links.
    PlatoonLossyV2v,
    /// Honest platoon whose leader's own lead brakes hard — the ripple
    /// propagates member to member through the shared world.
    PlatoonLeadBrake,
    /// Honest platoon driving into fog: the agreed speed sinks with the
    /// members' ability levels.
    PlatoonFog,
    /// Thermal pressure resolved by live contract renegotiation: the
    /// lowrate swap is admitted through the full viewpoint battery.
    ThermalPressure,
    /// Thermal pressure with the full-rate preservation update preferred:
    /// the timing viewpoint rejects it and the negotiation falls back to
    /// the lowrate plan.
    RejectedFallback,
    /// Thermal pressure that later clears: the ambient ramps back down and
    /// the admitted switch is rolled back mid-run.
    ReconfigRollback,
}

impl ScenarioFamily {
    /// The single-vehicle families, in report order — the E11 grid.
    pub const ALL: [ScenarioFamily; 9] = [
        ScenarioFamily::Baseline,
        ScenarioFamily::Intrusion,
        ScenarioFamily::Thermal,
        ScenarioFamily::Fog,
        ScenarioFamily::FogIntrusion,
        ScenarioFamily::ThermalFog,
        ScenarioFamily::RadarDropout,
        ScenarioFamily::RadarNoise,
        ScenarioFamily::StopAndGo,
    ];

    /// The dynamic-reconfiguration families, in report order — the E17
    /// grid. Kept out of [`ScenarioFamily::ALL`] so the legacy E11/E12
    /// sweeps stay bit-identical.
    pub const DYNAMIC: [ScenarioFamily; 3] = [
        ScenarioFamily::ThermalPressure,
        ScenarioFamily::RejectedFallback,
        ScenarioFamily::ReconfigRollback,
    ];

    /// The multi-vehicle platoon families, in report order — the E13 grid.
    pub const PLATOON: [ScenarioFamily; 5] = [
        ScenarioFamily::PlatoonLiarLow,
        ScenarioFamily::PlatoonLiarHigh,
        ScenarioFamily::PlatoonLossyV2v,
        ScenarioFamily::PlatoonLeadBrake,
        ScenarioFamily::PlatoonFog,
    ];

    /// The family's report name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioFamily::Baseline => "baseline",
            ScenarioFamily::Intrusion => "intrusion",
            ScenarioFamily::Thermal => "thermal",
            ScenarioFamily::Fog => "fog",
            ScenarioFamily::FogIntrusion => "fog+intrusion",
            ScenarioFamily::ThermalFog => "thermal+fog",
            ScenarioFamily::RadarDropout => "radar-dropout",
            ScenarioFamily::RadarNoise => "radar-noise",
            ScenarioFamily::StopAndGo => "stop-and-go",
            ScenarioFamily::PlatoonLiarLow => "platoon-liar-low",
            ScenarioFamily::PlatoonLiarHigh => "platoon-liar-high",
            ScenarioFamily::PlatoonLossyV2v => "platoon-lossy-v2v",
            ScenarioFamily::PlatoonLeadBrake => "platoon-lead-brake",
            ScenarioFamily::PlatoonFog => "platoon-fog",
            ScenarioFamily::ThermalPressure => "thermal-pressure",
            ScenarioFamily::RejectedFallback => "rejected-fallback",
            ScenarioFamily::ReconfigRollback => "reconfig-rollback",
        }
    }

    /// Builds the family's scenario for a strategy and seed.
    ///
    /// The four legacy families delegate to the corresponding
    /// [`Scenario`] constructor so each scenario is defined exactly once;
    /// the label and strategy are then normalized to the family grid.
    pub fn build(self, strategy: ResponseStrategy, seed: u64) -> Scenario {
        let builder = || Scenario::builder("");
        let mut s = match self {
            ScenarioFamily::Baseline => Scenario::baseline(seed),
            ScenarioFamily::Intrusion => Scenario::intrusion(strategy, seed),
            ScenarioFamily::Thermal => Scenario::thermal(75.0, strategy, seed),
            ScenarioFamily::Fog => Scenario::fog(0.85, seed),
            ScenarioFamily::FogIntrusion => builder()
                .at(
                    Time::from_secs(15),
                    ScenarioEvent::FogRamp {
                        to: 0.6,
                        over: Duration::from_secs(30),
                    },
                )
                .at(Time::from_secs(45), ScenarioEvent::CompromiseRearBrake)
                .lead(lead_brake_and_recover())
                .build(),
            ScenarioFamily::ThermalFog => builder()
                .duration(Duration::from_secs(180))
                .at(
                    Time::from_secs(10),
                    ScenarioEvent::AmbientRamp {
                        to_c: 80.0,
                        over: Duration::from_secs(60),
                    },
                )
                .at(
                    Time::from_secs(80),
                    ScenarioEvent::FogRamp {
                        to: 0.5,
                        over: Duration::from_secs(40),
                    },
                )
                .build(),
            ScenarioFamily::RadarDropout => builder()
                .at(
                    Time::from_secs(40),
                    ScenarioEvent::RadarFault(SensorFault::Dead),
                )
                .build(),
            ScenarioFamily::RadarNoise => builder()
                .at(
                    Time::from_secs(30),
                    ScenarioEvent::RadarFault(SensorFault::Noisy),
                )
                .build(),
            ScenarioFamily::StopAndGo => builder().lead(lead_stop_and_go()).build(),
            ScenarioFamily::PlatoonLiarLow => builder()
                .duration(Duration::from_secs(90))
                .platoon(platoon_base().with_liar(2, 2.0))
                .build(),
            ScenarioFamily::PlatoonLiarHigh => builder()
                .duration(Duration::from_secs(90))
                .platoon(platoon_base().with_liar(2, 60.0))
                .build(),
            ScenarioFamily::PlatoonLossyV2v => builder()
                .duration(Duration::from_secs(90))
                .platoon({
                    let mut spec = platoon_base();
                    for m in 0..spec.members {
                        spec = spec.with_link(
                            m,
                            LinkFault::lossy(0.35).with_delay(Duration::from_millis(100)),
                        );
                    }
                    spec
                })
                .build(),
            ScenarioFamily::PlatoonLeadBrake => builder()
                .duration(Duration::from_secs(90))
                .lead(lead_brake_and_recover())
                .platoon(platoon_base())
                .build(),
            ScenarioFamily::PlatoonFog => builder()
                .duration(Duration::from_secs(90))
                // The surrounding traffic slows with the weather, keeping
                // the leader's target inside its fog-shortened sensing
                // range — every member degrades together.
                .lead(LeadVehicle::new(
                    40.0,
                    22.0,
                    vec![
                        ProfileSegment {
                            duration: Duration::from_secs(20),
                            end_speed_mps: 22.0,
                        },
                        ProfileSegment {
                            duration: Duration::from_secs(40),
                            end_speed_mps: 12.0,
                        },
                    ],
                ))
                .at(
                    Time::from_secs(20),
                    ScenarioEvent::FogRamp {
                        to: 0.7,
                        over: Duration::from_secs(40),
                    },
                )
                .platoon(platoon_base())
                .build(),
            ScenarioFamily::ThermalPressure => dynamic_thermal_base().build(),
            ScenarioFamily::RejectedFallback => dynamic_thermal_base().prefer_fast().build(),
            ScenarioFamily::ReconfigRollback => dynamic_thermal_base()
                // The down-ramp starts only after the thermal misses have
                // forced the switch (first miss ≈ t=133 s), so there is an
                // admitted reconfiguration to roll back; the run is long
                // enough for the throttle governor to settle back to the
                // nominal OPP (one step-up per 60 s) before the rollback
                // fires.
                .duration(Duration::from_secs(300))
                .at(
                    Time::from_secs(150),
                    ScenarioEvent::AmbientRamp {
                        to_c: 25.0,
                        over: Duration::from_secs(40),
                    },
                )
                .rollback_below(70.0)
                .build(),
        };
        s.label = format!("{}/{strategy:?}", self.name());
        s.strategy = strategy;
        s.seed = seed;
        s
    }
}

impl std::fmt::Display for ScenarioFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A linear ramp of some environmental quantity.
#[derive(Debug, Clone, Copy)]
struct Ramp {
    start: Time,
    from: f64,
    to: f64,
    over: Duration,
}

impl Ramp {
    fn value_at(&self, now: Time) -> f64 {
        // A zero-duration ramp is an instantaneous step (0/0 would be NaN).
        let frac = if self.over.is_zero() {
            1.0
        } else {
            (now.saturating_since(self.start).as_secs_f64() / self.over.as_secs_f64())
                .clamp(0.0, 1.0)
        };
        self.from + (self.to - self.from) * frac
    }
}

/// Runtime scenario-injection state, owned by the runner: the script
/// alone.
///
/// Scripted events wait in a deterministic [`EventQueue`] (time order, FIFO
/// ties) instead of a sorted `Vec` popped from the front; the ramps and
/// `compromised` record what the script has started so far, so the
/// vehicle's layers can consult them without owning any scripting logic.
/// What containment does is kept by the layer it acts on, not here.
#[derive(Debug)]
pub struct ScenarioState {
    queue: EventQueue<ScenarioEvent>,
    /// Whether the rear-brake component is compromised: the attack's
    /// ground truth, set by the script and never cleared.
    pub compromised: bool,
    fog_ramp: Option<Ramp>,
    ambient_ramp: Option<Ramp>,
}

impl ScenarioState {
    /// Schedules every scripted event of `scenario` into the queue.
    pub fn new(scenario: &Scenario) -> Self {
        let mut queue = EventQueue::new();
        for &(t, ev) in &scenario.events {
            queue.schedule(t, ev);
        }
        ScenarioState {
            queue,
            compromised: false,
            fog_ramp: None,
            ambient_ramp: None,
        }
    }

    /// Pops the next scripted event due at or before `now`, if any.
    pub fn pop_due(&mut self, now: Time) -> Option<ScenarioEvent> {
        self.queue.pop_due(now).map(|(_, ev)| ev)
    }

    /// Starts a fog ramp from the current density.
    pub fn begin_fog_ramp(&mut self, now: Time, from: f64, to: f64, over: Duration) {
        self.fog_ramp = Some(Ramp {
            start: now,
            from,
            to,
            over,
        });
    }

    /// Starts an ambient-temperature ramp from the current temperature.
    pub fn begin_ambient_ramp(&mut self, now: Time, from_c: f64, to_c: f64, over: Duration) {
        self.ambient_ramp = Some(Ramp {
            start: now,
            from: from_c,
            to: to_c,
            over,
        });
    }

    /// The commanded fog density at `now`, if a fog ramp is active.
    pub fn fog_at(&self, now: Time) -> Option<f64> {
        self.fog_ramp.map(|r| r.value_at(now))
    }

    /// The commanded ambient temperature at `now`, if a ramp is active.
    pub fn ambient_at(&self, now: Time) -> Option<f64> {
        self.ambient_ramp.map(|r| r.value_at(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_baseline() {
        let s = Scenario::baseline(42);
        assert_eq!(s.label, "baseline");
        assert_eq!(s.duration, Duration::from_secs(120));
        assert_eq!(s.strategy, ResponseStrategy::CrossLayer);
        assert_eq!(s.seed, 42);
        assert!(s.events.is_empty());
    }

    #[test]
    fn builder_composes_arbitrary_events() {
        let s = Scenario::builder("combo")
            .at(Time::from_secs(5), ScenarioEvent::CompromiseRearBrake)
            .at(
                Time::from_secs(1),
                ScenarioEvent::FogRamp {
                    to: 0.4,
                    over: Duration::from_secs(10),
                },
            )
            .duration(Duration::from_secs(30))
            .build();
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.duration, Duration::from_secs(30));
    }

    #[test]
    fn state_pops_events_in_time_order_fifo_ties() {
        let t = Time::from_secs(10);
        let s = Scenario::builder("order")
            .at(t, ScenarioEvent::CompromiseRearBrake)
            .at(
                Time::from_secs(2),
                ScenarioEvent::RadarFault(SensorFault::Dead),
            )
            .at(
                t,
                ScenarioEvent::FogRamp {
                    to: 0.5,
                    over: Duration::from_secs(5),
                },
            )
            .build();
        let mut state = ScenarioState::new(&s);
        assert_eq!(
            state.pop_due(Time::from_secs(120)),
            Some(ScenarioEvent::RadarFault(SensorFault::Dead))
        );
        assert_eq!(
            state.pop_due(Time::from_secs(120)),
            Some(ScenarioEvent::CompromiseRearBrake)
        );
        assert!(matches!(
            state.pop_due(Time::from_secs(120)),
            Some(ScenarioEvent::FogRamp { .. })
        ));
        assert_eq!(state.pop_due(Time::from_secs(120)), None);
    }

    #[test]
    fn state_respects_due_deadline() {
        let s = Scenario::builder("due")
            .at(Time::from_secs(30), ScenarioEvent::CompromiseRearBrake)
            .build();
        let mut state = ScenarioState::new(&s);
        assert_eq!(state.pop_due(Time::from_secs(29)), None);
        assert_eq!(
            state.pop_due(Time::from_secs(30)),
            Some(ScenarioEvent::CompromiseRearBrake)
        );
    }

    #[test]
    fn ramps_interpolate_and_clamp() {
        let mut state = ScenarioState::new(&Scenario::baseline(0));
        state.begin_fog_ramp(Time::from_secs(10), 0.0, 1.0, Duration::from_secs(10));
        assert_eq!(state.fog_at(Time::from_secs(10)), Some(0.0));
        assert!((state.fog_at(Time::from_secs(15)).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(state.fog_at(Time::from_secs(30)), Some(1.0));
        // Before the start the ramp clamps to its starting value.
        assert_eq!(state.fog_at(Time::from_secs(5)), Some(0.0));
        assert_eq!(state.ambient_at(Time::from_secs(5)), None);
    }

    #[test]
    fn zero_duration_ramp_is_an_instant_step() {
        let mut state = ScenarioState::new(&Scenario::baseline(0));
        state.begin_ambient_ramp(Time::from_secs(10), 25.0, 80.0, Duration::ZERO);
        // Evaluated on the very tick it starts — must be the target, not NaN.
        assert_eq!(state.ambient_at(Time::from_secs(10)), Some(80.0));
        assert_eq!(state.ambient_at(Time::from_secs(11)), Some(80.0));
    }

    #[test]
    fn every_family_builds_for_every_strategy() {
        for family in ScenarioFamily::ALL
            .into_iter()
            .chain(ScenarioFamily::PLATOON)
            .chain(ScenarioFamily::DYNAMIC)
        {
            for strategy in ResponseStrategy::ALL {
                let s = family.build(strategy, 1);
                assert!(s.label.starts_with(family.name()), "{}", s.label);
                assert_eq!(s.strategy, strategy);
                assert!(s.duration > Duration::ZERO);
            }
        }
    }

    #[test]
    fn single_vehicle_families_carry_no_platoon() {
        for family in ScenarioFamily::ALL {
            assert!(
                family
                    .build(ResponseStrategy::CrossLayer, 1)
                    .platoon
                    .is_none(),
                "{family}"
            );
        }
    }

    #[test]
    fn platoon_families_are_well_formed() {
        for family in ScenarioFamily::PLATOON {
            let s = family.build(ResponseStrategy::CrossLayer, 1);
            let spec = s.platoon.expect("platoon family");
            assert!(spec.members >= 4, "{family}: quorum-capable platoon");
            assert!(
                spec.members > 3 * spec.max_faults,
                "{family}: n > 3f must hold at build time"
            );
            assert!(!spec.negotiation_period.is_zero(), "{family}");
            for lie in &spec.liars {
                assert!(lie.member < spec.members, "{family}");
            }
            for &(m, _) in &spec.links {
                assert!(m < spec.members, "{family}");
            }
        }
        // The deception families really script a liar; the lossy family
        // really degrades every link.
        let low = ScenarioFamily::PlatoonLiarLow
            .build(ResponseStrategy::CrossLayer, 1)
            .platoon
            .unwrap();
        assert_eq!(low.lie_of(2), Some(2.0));
        assert_eq!(low.delta(4), -2.0);
        assert_eq!(low.delta(99), 0.0, "members beyond the vector are flat");
        let lossy = ScenarioFamily::PlatoonLossyV2v
            .build(ResponseStrategy::CrossLayer, 1)
            .platoon
            .unwrap();
        assert_eq!(lossy.links.len(), lossy.members);
        assert!(lossy.links.iter().all(|(_, f)| f.loss_p > 0.0));
    }

    #[test]
    fn dynamic_families_script_the_three_reconfiguration_paths() {
        // Legacy families keep the default policy: live, conservative,
        // no rollback — so their traces cannot change.
        let thermal = ScenarioFamily::Thermal.build(ResponseStrategy::CrossLayer, 1);
        assert_eq!(thermal.reconfig, ReconfigSpec::default());

        let pressure = ScenarioFamily::ThermalPressure.build(ResponseStrategy::CrossLayer, 1);
        assert_eq!(pressure.reconfig, ReconfigSpec::default());
        assert!(pressure.platoon.is_none() && pressure.city.is_none());

        let rejected = ScenarioFamily::RejectedFallback.build(ResponseStrategy::CrossLayer, 1);
        assert!(rejected.reconfig.prefer_fast);
        assert!(rejected.reconfig.live);

        let rollback = ScenarioFamily::ReconfigRollback.build(ResponseStrategy::CrossLayer, 1);
        assert_eq!(rollback.reconfig.rollback_below_c, Some(70.0));
        // The pressure really clears: a second ambient ramp back down.
        let down_ramps = rollback
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ScenarioEvent::AmbientRamp { to_c, .. } if *to_c < 30.0))
            .count();
        assert_eq!(down_ramps, 1);
    }

    #[test]
    fn legacy_families_delegate_to_legacy_constructors() {
        let strategy = ResponseStrategy::CrossLayer;
        let pairs = [
            (Scenario::baseline(42), ScenarioFamily::Baseline),
            (Scenario::intrusion(strategy, 42), ScenarioFamily::Intrusion),
            (
                Scenario::thermal(75.0, strategy, 42),
                ScenarioFamily::Thermal,
            ),
            (Scenario::fog(0.85, 42), ScenarioFamily::Fog),
        ];
        for (legacy, family) in pairs {
            let built = family.build(strategy, 42);
            assert_eq!(legacy.events, built.events, "{family}");
            assert_eq!(legacy.duration, built.duration, "{family}");
            assert_eq!(built.strategy, strategy, "{family}");
            assert!(built.label.starts_with(family.name()), "{family}");
        }
    }
}
