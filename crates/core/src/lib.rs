//! # saav-core — cross-layer self-awareness
//!
//! The primary contribution of Schlatow et al. (DATE 2017), *Self-awareness
//! in autonomous automotive systems*: self-awareness mechanisms exist per
//! layer, but only their **coordination across layers** prevents conflicting
//! decisions and contains faults at the most appropriate level.
//!
//! * [`layer`] — the layer lattice, problem records, countermeasure
//!   directives and the [`layer::DirectiveBoard`] that arbitrates
//!   conflicting directives by layer precedence (safety dominates).
//! * [`coordinator`] — routing of detected problems through the layers with
//!   structurally guaranteed termination (strictly upward escalation over a
//!   finite lattice — the paper's "no forwarding ad infinitum").
//!   [`coordinator::Coordinator::route`] is the single routing
//!   implementation shared by `resolve` and the scenario runner, and the
//!   coordinator counts what it routes instead of storing it.
//! * [`scenario`] — composable scenario descriptions: a builder DSL, the
//!   named [`scenario::ScenarioFamily`] library (baseline, intrusion,
//!   thermal, fog, fog+intrusion, thermal+fog, radar-dropout, radar-noise,
//!   stop-and-go) and the event-queue-driven runtime
//!   [`scenario::ScenarioState`].
//! * [`vehicle`] — the full vehicle: hardware platform, CAN, RTE, monitors,
//!   ability graph, mode policy and the coordinator wired into one machine,
//!   with each layer's concrete containment actions.
//! * [`runner`] — the closed-loop stepping engine: one run handle,
//!   [`runner::SteppedRun`], steps one vehicle, a platoon or a city chain
//!   through a scenario, and every entry point loops over it.
//! * [`cosim`] — the multi-vehicle co-simulation engine: N vehicles in
//!   lockstep over a shared road, coupled by a faultable V2V channel and a
//!   trust-managed platoon negotiation, with peer misbehavior escalating
//!   through the same coordinator path.
//! * [`city`] — the city-scale tiered-fidelity engine: hundreds of
//!   background vehicles in a struct-of-arrays surrogate store, focal
//!   vehicles carrying the full stack, and promotion/demotion across the
//!   fidelity tiers as neighborhoods change. One run steps on its calling
//!   thread; parallelism comes from running many runs in a fleet.
//! * [`outcome`] — the measured [`outcome::Outcome`] and its compact
//!   [`outcome::Summary`].
//! * [`fleet`] — the [`fleet::FleetRunner`]: N scenarios across worker
//!   threads with deterministic seed derivation and fleet-level
//!   statistics computed from the records ([`fleet::FleetStats`],
//!   [`fleet::latency_by_family`]), plus the trace-capture hook feeding
//!   `saav_learn` training and the option to mount a learned monitor
//!   fleet-wide.
//! * [`cache`] — content-hashed job identity ([`cache::job_key`]) and the
//!   in-memory [`cache::ResultCache`] memo store, so repeated sweeps skip
//!   bit-identical re-runs.
//! * [`executor`] — the work-stealing shard executor behind the fleet,
//!   preserving the fixed-slot determinism contract.
//! * [`colstore`] — the compact columnar binary format for a batch of
//!   fleet records ([`colstore::to_bytes`], [`colstore::from_bytes`]).
//! * [`csv`] — machine-consumable CSV export of fleet records and
//!   aggregates.
//! * [`contracts`] — the canonical contract configurations: the nominal
//!   vehicle [`saav_mcc::CandidateConfig`], the prepared lowrate/fast
//!   update requests and the fleet budget contracts — one source of truth
//!   for every timing table the assembly and the live renegotiation path
//!   consume.
//! * [`telemetry`] — the engine's own observability: a deterministic,
//!   virtual-time-stamped trace ring ([`telemetry::TraceRing`]),
//!   allocation-free counters/histograms ([`telemetry::Counter`]) and
//!   per-stage invocation counts, merged into a mountable
//!   [`telemetry::Telemetry`] sink with a chrome-tracing (Perfetto)
//!   exporter.
//!
//! ```
//! use saav_core::coordinator::{Coordinator, EscalationPolicy};
//! use saav_core::layer::{Containment, Layer, ProblemKind};
//! use saav_sim::time::Time;
//!
//! let mut coord = Coordinator::new(EscalationPolicy::LocalFirst);
//! let problem = coord.detect(Time::ZERO, Layer::Platform, "ecu0",
//!                            ProblemKind::ThermalStress);
//! let trace = coord.resolve(problem, |layer, _p| match layer {
//!     Layer::Platform => Containment::Mitigated { action: "throttle".into() },
//!     Layer::Ability => Containment::Resolved { action: "slow down".into() },
//!     _ => Containment::CannotHandle,
//! });
//! assert_eq!(trace.resolved_by, Some(Layer::Ability));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binenc;
pub mod cache;
pub mod city;
pub mod colstore;
pub mod contracts;
pub mod coordinator;
pub mod cosim;
pub mod csv;
pub mod executor;
pub mod fleet;
pub mod layer;
pub mod outcome;
pub mod runner;
pub mod scenario;
pub mod telemetry;
pub mod vehicle;

pub use cache::{job_key, CacheStats, JobKey, ResultCache};
pub use coordinator::{Attempt, Coordinator, EscalationPolicy, ResolutionTrace};
pub use fleet::{
    FleetCoordinator, FleetDirective, FleetOutcome, FleetRecord, FleetRunner, FleetStats,
};
pub use layer::{Containment, Directive, DirectiveBoard, Layer, Posting, Problem, ProblemKind};
pub use outcome::{
    CityOutcome, CitySummary, Outcome, PlatoonOutcome, PlatoonSummary, Summary, LEARNED_SIGNALS,
};
pub use scenario::{
    CitySpec, PeerLie, PlatoonSpec, ResponseStrategy, Scenario, ScenarioBuilder, ScenarioEvent,
    ScenarioFamily, ScenarioState,
};
pub use telemetry::{
    Counter, Stage, SwitchOutcome, Telemetry, TelemetryConfig, TelemetryEvent, TelemetrySnapshot,
    TraceRecord, TraceRing,
};
pub use vehicle::SelfAwareVehicle;
