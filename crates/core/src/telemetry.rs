//! Deterministic, virtual-time-stamped observability for the engine
//! itself: structured trace events, an allocation-free metrics registry
//! and per-layer stage counts.
//!
//! The simulated vehicles have been self-aware since PR 1; the *engine*
//! running them was a black box. This module turns the observer/controller
//! pattern inward. Three pillars:
//!
//! 1. **Structured trace recorder** — a fixed-capacity ring buffer of
//!    typed [`TelemetryEvent`]s (anomaly raised, escalation routed,
//!    contract switch, platoon ejection, tier promotion/demotion, cache
//!    hit/miss) stamped with *virtual* time, exportable as chrome-tracing
//!    JSON ([`Telemetry::chrome_trace_json`]) and openable in Perfetto.
//!    It is a run's only event stream: an [`crate::outcome::Outcome`]
//!    keeps no log of its own, and a narrative of the run renders each
//!    event's name and its `Display` payload.
//! 2. **Metrics registry** — fixed [`Counter`] slots and fixed-bucket
//!    [`Histogram`]s (detection latency, escalation hops). No `HashMap`,
//!    no `String`, no heap on the hot path: every metric is an enum index
//!    into a preallocated array.
//! 3. **Stage counts** — how often each per-layer [`Stage`] ran (runner
//!    tick, monitor scan, platoon round, surrogate pass). Counts, not
//!    times: they are a pure function of the scenario, so they compare
//!    for equality like every other registry slot. Where the time went
//!    is measured on the host by the `saavbench` harness.
//!
//! # Determinism contract
//!
//! Telemetry *observes* and never perturbs: a mounted run produces a
//! bit-identical [`crate::outcome::Summary`] to an unmounted one
//! (property-tested in `tests/proptests.rs`). Each job records into its
//! own [`RunTelemetry`] (ring + registry), built and filled entirely on
//! the worker executing that job, so the recorded *content* is
//! independent of thread count and scheduler; the shared [`Telemetry`]
//! sink merges absorbed runs and canonicalizes event order by
//! `(virtual_time, job_slot, seq)` at export. Nothing in a snapshot
//! depends on the schedule: it is a function of the absorbed runs alone.
//!
//! # Zero cost when unmounted
//!
//! Every emission site is behind an `Option<&mut RunTelemetry>`; with no
//! telemetry mounted the nominal tick path performs no extra allocation
//! (pinned in `tests/zero_alloc.rs`). Mounted, the per-run ring and
//! registry are allocated once at run start — steady-state event pushes
//! and counter bumps write into preallocated storage.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use saav_monitor::anomaly::AnomalyKind;
use saav_sim::time::Time;

use crate::layer::{Layer, ProblemKind};

/// Default trace-ring capacity per run (events; oldest evicted first).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// How a contract renegotiation attempt ended — the payload distinguishing
/// the full negotiation in a [`TelemetryEvent::ContractSwitch`] trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchOutcome {
    /// The MCC admitted the new configuration and it was applied (counts
    /// under [`Counter::ContractSwitches`], like the pre-renegotiation
    /// switches).
    Accepted,
    /// Every candidate update was rejected by the viewpoint battery; the
    /// running configuration is unchanged.
    Rejected,
    /// A previously admitted switch was rolled back (pressure cleared).
    RolledBack,
}

impl std::fmt::Display for SwitchOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SwitchOutcome::Accepted => "accepted",
            SwitchOutcome::Rejected => "rejected",
            SwitchOutcome::RolledBack => "rolled_back",
        };
        f.write_str(s)
    }
}

/// One typed engine event. All payloads are `Copy` — recording an event
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryEvent {
    /// A monitor raised an anomaly (mapped to its origin layer).
    AnomalyRaised {
        /// What kind of deviation the monitor detected.
        kind: AnomalyKind,
        /// The layer whose self-awareness detected it.
        origin: Layer,
    },
    /// An anomaly was routed through the layers by the coordinator.
    EscalationRouted {
        /// The problem class routed.
        kind: ProblemKind,
        /// The layer the problem was detected at.
        origin: Layer,
        /// The layer that resolved it, if any.
        resolved_by: Option<Layer>,
        /// Containment attempts made (layer hops).
        hops: u8,
    },
    /// A contract renegotiation attempt concluded (the ACC control-rate
    /// switch under thermal pressure, a viewpoint rejection, or a
    /// rollback once the pressure cleared).
    ContractSwitch {
        /// The layer whose containment renegotiated the contract.
        layer: Layer,
        /// How the negotiation ended.
        outcome: SwitchOutcome,
    },
    /// A member left the cooperative platoon.
    PlatoonEjection {
        /// Index of the ejected member.
        member: u32,
    },
    /// A background vehicle was promoted to full fidelity.
    TierPromotion {
        /// Chain slot of the promoted vehicle.
        slot: u32,
    },
    /// A promoted vehicle was demoted back to the surrogate tier.
    TierDemotion {
        /// Chain slot of the demoted vehicle.
        slot: u32,
    },
    /// A fleet job was served from the result cache.
    CacheHit,
    /// A fleet job missed the cache and was simulated.
    CacheMiss,
}

impl TelemetryEvent {
    /// A short static name for the event class (chrome-trace event name
    /// prefix and table label).
    pub fn name(&self) -> &'static str {
        match self {
            TelemetryEvent::AnomalyRaised { .. } => "anomaly_raised",
            TelemetryEvent::EscalationRouted { .. } => "escalation_routed",
            TelemetryEvent::ContractSwitch { .. } => "contract_switch",
            TelemetryEvent::PlatoonEjection { .. } => "platoon_ejection",
            TelemetryEvent::TierPromotion { .. } => "tier_promotion",
            TelemetryEvent::TierDemotion { .. } => "tier_demotion",
            TelemetryEvent::CacheHit => "cache_hit",
            TelemetryEvent::CacheMiss => "cache_miss",
        }
    }

    /// The registry counter this event class increments when recorded.
    fn counter(&self) -> Counter {
        match self {
            TelemetryEvent::AnomalyRaised { .. } => Counter::AnomaliesRaised,
            TelemetryEvent::EscalationRouted { .. } => Counter::EscalationsRouted,
            TelemetryEvent::ContractSwitch { outcome, .. } => match outcome {
                SwitchOutcome::Accepted => Counter::ContractSwitches,
                SwitchOutcome::Rejected => Counter::ContractSwitchesRejected,
                SwitchOutcome::RolledBack => Counter::ContractSwitchesRolledBack,
            },
            TelemetryEvent::PlatoonEjection { .. } => Counter::PlatoonEjections,
            TelemetryEvent::TierPromotion { .. } => Counter::TierPromotions,
            TelemetryEvent::TierDemotion { .. } => Counter::TierDemotions,
            TelemetryEvent::CacheHit => Counter::CacheHits,
            TelemetryEvent::CacheMiss => Counter::CacheMisses,
        }
    }
}

/// Renders the event's payload, e.g. `SecurityBreach: communication ->
/// ability (3 hops)`: the E16 detail column and the lines of any narrative
/// told from the stream. The class name is [`TelemetryEvent::name`]; cache
/// events carry no payload and render empty.
impl std::fmt::Display for TelemetryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryEvent::AnomalyRaised { kind, origin } => write!(f, "{kind:?} at {origin}"),
            TelemetryEvent::EscalationRouted {
                kind,
                origin,
                resolved_by,
                hops,
            } => match resolved_by {
                Some(l) => write!(f, "{kind:?}: {origin} -> {l} ({hops} hops)"),
                None => write!(f, "{kind:?}: {origin} -> unresolved ({hops} hops)"),
            },
            TelemetryEvent::ContractSwitch { layer, outcome } => write!(f, "{outcome} by {layer}"),
            TelemetryEvent::PlatoonEjection { member } => write!(f, "member {member}"),
            TelemetryEvent::TierPromotion { slot } | TelemetryEvent::TierDemotion { slot } => {
                write!(f, "slot {slot}")
            }
            TelemetryEvent::CacheHit | TelemetryEvent::CacheMiss => Ok(()),
        }
    }
}

/// One recorded trace event: virtual timestamp, the job it came from, a
/// per-run monotone sequence number and the typed payload. The canonical
/// cross-job order is `(at, job_slot, seq)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Virtual (simulated) time of the event.
    pub at: Time,
    /// Fleet job index the event was recorded under (0 for solo runs).
    pub job_slot: u32,
    /// Monotone per-run sequence number (survives ring eviction: the
    /// oldest surviving record's `seq` tells how many were evicted).
    pub seq: u64,
    /// The typed event.
    pub event: TelemetryEvent,
}

/// Fixed-capacity ring buffer of [`TraceRecord`]s: pushes never allocate
/// once constructed, the oldest record is evicted on overflow, and `seq`
/// is monotone over everything ever pushed.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TraceRecord>,
    /// Index of the oldest record when the ring is full.
    head: usize,
    next_seq: u64,
    capacity: usize,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` records (the single
    /// allocation this ring ever performs). A zero capacity records
    /// nothing but still counts sequence numbers.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            next_seq: 0,
            capacity,
        }
    }

    /// Records one event, evicting the oldest when full.
    pub fn push(&mut self, at: Time, job_slot: u32, event: TelemetryEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.capacity == 0 {
            return;
        }
        let rec = TraceRecord {
            at,
            job_slot,
            seq,
            event,
        };
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Surviving records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let (wrapped, start) = self.buf.split_at(self.head);
        start.iter().chain(wrapped.iter())
    }

    /// Number of surviving records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded (or everything was evicted from
    /// a zero-capacity ring).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed (survivors + evicted).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted by wraparound.
    pub fn evicted(&self) -> u64 {
        self.next_seq - self.buf.len() as u64
    }
}

/// The fixed counter slots of the metrics registry. Adding a counter is
/// adding a variant — there is no dynamic registration, which is what
/// keeps the hot path a plain array index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Monitor anomalies raised (hand-written + learned + peer).
    AnomaliesRaised,
    /// Problems routed through the coordinator's layer sequence.
    EscalationsRouted,
    /// Routed problems that some layer resolved.
    EscalationsResolved,
    /// Execution-contract switches (ACC control-rate reconfigurations).
    ContractSwitches,
    /// Platoon members ejected by trust collapse.
    PlatoonEjections,
    /// Background vehicles promoted to full fidelity.
    TierPromotions,
    /// Full-fidelity vehicles demoted back to the surrogate tier.
    TierDemotions,
    /// Fleet jobs served from the result cache.
    CacheHits,
    /// Fleet jobs that missed the cache and simulated.
    CacheMisses,
    /// Always 0: the fleet executor has one shared job queue, so no job is
    /// stolen. The slot keeps its place in [`Counter::ALL`], and so the CSV
    /// column order, because the benchmark's `executor.steals.*` metrics
    /// still read it; the next benchmark change drops those metrics and
    /// this counter with them.
    ShardSteals,
    /// Always 0: a city run steps on one thread and issues no tick
    /// barriers. The slot keeps its place in [`Counter::ALL`], and so the
    /// CSV column order, because the benchmark's `pool.tick_barriers`
    /// metric still reads it; the next benchmark change drops that metric
    /// and this counter with it.
    TickBarriers,
    /// Deadline misses observed by the execution monitors.
    DeadlineMisses,
    /// V2V broadcasts sent.
    V2vSent,
    /// V2V broadcasts lost in transit.
    V2vDropped,
    /// V2V deliveries that arrived late (per-link delay fault).
    V2vDelayed,
    /// Renegotiation attempts whose every candidate update the viewpoint
    /// battery rejected (appended after the legacy slots so existing
    /// column pins keep their positions).
    ContractSwitchesRejected,
    /// Admitted contract switches rolled back after the pressure cleared.
    ContractSwitchesRolledBack,
}

impl Counter {
    /// Every counter, in registry order.
    pub const ALL: [Counter; 17] = [
        Counter::AnomaliesRaised,
        Counter::EscalationsRouted,
        Counter::EscalationsResolved,
        Counter::ContractSwitches,
        Counter::PlatoonEjections,
        Counter::TierPromotions,
        Counter::TierDemotions,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::ShardSteals,
        Counter::TickBarriers,
        Counter::DeadlineMisses,
        Counter::V2vSent,
        Counter::V2vDropped,
        Counter::V2vDelayed,
        Counter::ContractSwitchesRejected,
        Counter::ContractSwitchesRolledBack,
    ];

    /// Number of counter slots.
    pub const COUNT: usize = Counter::ALL.len();

    /// The counter's stable snake_case name (CSV column / JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::AnomaliesRaised => "anomalies_raised",
            Counter::EscalationsRouted => "escalations_routed",
            Counter::EscalationsResolved => "escalations_resolved",
            Counter::ContractSwitches => "contract_switches",
            Counter::PlatoonEjections => "platoon_ejections",
            Counter::TierPromotions => "tier_promotions",
            Counter::TierDemotions => "tier_demotions",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::ShardSteals => "shard_steals",
            Counter::TickBarriers => "tick_barriers",
            Counter::DeadlineMisses => "deadline_misses",
            Counter::V2vSent => "v2v_sent",
            Counter::V2vDropped => "v2v_dropped",
            Counter::V2vDelayed => "v2v_delayed",
            Counter::ContractSwitchesRejected => "contract_switches_rejected",
            Counter::ContractSwitchesRolledBack => "contract_switches_rolled_back",
        }
    }
}

/// Upper bucket bounds (seconds) of the detection-latency histogram; the
/// final bucket is unbounded.
pub const LATENCY_BOUNDS_S: [f64; 7] = [0.5, 1.0, 2.0, 5.0, 15.0, 60.0, 180.0];

/// Bucket count of a [`Histogram`]: one per bound plus the overflow
/// bucket.
pub const HIST_BUCKETS: usize = LATENCY_BOUNDS_S.len() + 1;

/// A fixed-bucket histogram: `counts[i]` holds samples `<= bounds[i]`,
/// the last slot holds everything larger. No heap, no resizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
}

impl Histogram {
    /// Records one sample against [`LATENCY_BOUNDS_S`].
    pub fn record(&mut self, value: f64) {
        let slot = LATENCY_BOUNDS_S
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(HIST_BUCKETS - 1);
        self.counts[slot] += 1;
    }

    /// The per-bucket counts (last bucket is the overflow).
    pub fn counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.counts
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// The per-layer stages the registry counts invocations of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// One full `RunContext` tick (the whole per-vehicle stack).
    Runner,
    /// Monitor scan + anomaly escalation within a tick.
    Monitor,
    /// One platoon negotiation round (broadcast → deliver → negotiate).
    Platoon,
    /// One batched surrogate-store update (all background vehicles).
    Surrogate,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 4] = [
        Stage::Runner,
        Stage::Monitor,
        Stage::Platoon,
        Stage::Surrogate,
    ];

    /// Number of stages.
    pub const COUNT: usize = Stage::ALL.len();

    /// The stage's stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Runner => "runner",
            Stage::Monitor => "monitor",
            Stage::Platoon => "platoon",
            Stage::Surrogate => "surrogate",
        }
    }
}

/// Mount-time configuration of a [`Telemetry`] sink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Trace-ring capacity per run (events).
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

impl TelemetryConfig {
    /// Overrides the per-run trace-ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }
}

/// One run's telemetry: the trace ring plus the run-local registry. Built
/// by [`Telemetry::begin_run`] on the worker executing the job (its two
/// allocations — ring and nothing else — happen here, at run start, never
/// per tick) and folded back with [`Telemetry::absorb`].
#[derive(Debug)]
pub struct RunTelemetry {
    job_slot: u32,
    ring: TraceRing,
    counters: [u64; Counter::COUNT],
    detection_latency: Histogram,
    escalation_hops: Histogram,
    stage_calls: [u64; Stage::COUNT],
}

impl RunTelemetry {
    fn new(job_slot: u32, config: TelemetryConfig) -> Self {
        RunTelemetry {
            job_slot,
            ring: TraceRing::with_capacity(config.ring_capacity),
            counters: [0; Counter::COUNT],
            detection_latency: Histogram::default(),
            escalation_hops: Histogram::default(),
            stage_calls: [0; Stage::COUNT],
        }
    }

    /// Records one trace event at virtual time `at` and bumps the event
    /// class's counter. Allocation-free.
    pub fn record(&mut self, at: Time, event: TelemetryEvent) {
        self.counters[event.counter() as usize] += 1;
        if let TelemetryEvent::EscalationRouted {
            resolved_by, hops, ..
        } = event
        {
            if resolved_by.is_some() {
                self.counters[Counter::EscalationsResolved as usize] += 1;
            }
            self.escalation_hops.record(hops as f64);
        }
        self.ring.push(at, self.job_slot, event);
    }

    /// Adds `n` to a registry counter without recording a trace event.
    pub fn count(&mut self, counter: Counter, n: u64) {
        self.counters[counter as usize] += n;
    }

    /// Records one detection latency (seconds) into the fixed-bucket
    /// histogram.
    pub fn record_detection_latency(&mut self, latency_s: f64) {
        self.detection_latency.record(latency_s);
    }

    /// Counts one invocation of `stage`.
    pub fn count_stage(&mut self, stage: Stage) {
        self.stage_calls[stage as usize] += 1;
    }
}

/// A deterministic snapshot of the registry: counters, histograms and the
/// per-stage counts. Snapshots subtract ([`Self::minus`]) so per-batch
/// deltas come from a cumulative sink.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Counter values, indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
    /// Detection-latency distribution over [`LATENCY_BOUNDS_S`], one
    /// sample per detecting run, measured from its first scripted
    /// disturbance like [`crate::fleet::FleetRecord::detection_latency_s`].
    pub detection_latency: Histogram,
    /// Escalation-hop distribution (bucketed like the latency bounds).
    pub escalation_hops: Histogram,
    /// Invocations per stage.
    pub stage_calls: [u64; Stage::COUNT],
    /// Trace events recorded across all absorbed runs.
    pub events_recorded: u64,
    /// Trace events evicted by ring wraparound.
    pub events_evicted: u64,
}

impl TelemetrySnapshot {
    /// A counter's value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Cache hit rate over the snapshot's lookups, or `None` without any.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let hits = self.counter(Counter::CacheHits);
        let total = hits + self.counter(Counter::CacheMisses);
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Invocations of a stage.
    pub fn stage_calls_of(&self, stage: Stage) -> u64 {
        self.stage_calls[stage as usize]
    }

    /// The element-wise difference `self - earlier`: the activity between
    /// two snapshots of a cumulative sink.
    pub fn minus(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let mut out = self.clone();
        for (a, b) in out.counters.iter_mut().zip(earlier.counters.iter()) {
            *a -= b;
        }
        for (a, b) in out
            .detection_latency
            .counts
            .iter_mut()
            .zip(earlier.detection_latency.counts.iter())
        {
            *a -= b;
        }
        for (a, b) in out
            .escalation_hops
            .counts
            .iter_mut()
            .zip(earlier.escalation_hops.counts.iter())
        {
            *a -= b;
        }
        for (a, b) in out.stage_calls.iter_mut().zip(earlier.stage_calls.iter()) {
            *a -= b;
        }
        out.events_recorded -= earlier.events_recorded;
        out.events_evicted -= earlier.events_evicted;
        out
    }
}

struct TelemetryInner {
    config: TelemetryConfig,
    /// Absorbed per-run telemetry. Absorption order is scheduling noise;
    /// every reader sorts or sums, so the noise never escapes.
    runs: Mutex<Vec<RunTelemetry>>,
}

/// The mountable telemetry sink: cheaply cloneable (an [`Arc`] share,
/// like [`crate::cache::ResultCache`]), mounted on a
/// [`crate::fleet::FleetRunner`] via `with_telemetry` or threaded through
/// any run via [`crate::runner::run_observed`] or
/// [`crate::runner::SteppedRun::with_telemetry`]. All reads are
/// cumulative over everything absorbed since construction.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(TelemetryConfig::default())
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("config", &self.inner.config)
            .field(
                "runs",
                &self.inner.runs.lock().map(|r| r.len()).unwrap_or(0),
            )
            .finish()
    }
}

impl Telemetry {
    /// Creates a sink with the given mount configuration.
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            inner: Arc::new(TelemetryInner {
                config,
                runs: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Opens per-run telemetry for fleet job `job_slot` (0 for solo
    /// runs). The ring is allocated here, once per run.
    pub fn begin_run(&self, job_slot: u32) -> RunTelemetry {
        RunTelemetry::new(job_slot, self.inner.config)
    }

    /// Folds a completed run back into the sink.
    pub fn absorb(&self, run: RunTelemetry) {
        self.inner.runs.lock().expect("telemetry lock").push(run);
    }

    /// Always 0, like [`Counter::ShardSteals`]: the fleet executor has one
    /// shared job queue. Kept because the benchmark's
    /// `executor.steals.warm` metric still calls it; the next benchmark
    /// change drops that metric and this method with it.
    pub fn steals(&self) -> u64 {
        0
    }

    /// A deterministic snapshot of the merged registry.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let runs = self.inner.runs.lock().expect("telemetry lock");
        let mut snap = TelemetrySnapshot {
            counters: [0; Counter::COUNT],
            detection_latency: Histogram::default(),
            escalation_hops: Histogram::default(),
            stage_calls: [0; Stage::COUNT],
            events_recorded: 0,
            events_evicted: 0,
        };
        for run in runs.iter() {
            for (a, b) in snap.counters.iter_mut().zip(run.counters.iter()) {
                *a += b;
            }
            snap.detection_latency.merge(&run.detection_latency);
            snap.escalation_hops.merge(&run.escalation_hops);
            for (a, b) in snap.stage_calls.iter_mut().zip(run.stage_calls.iter()) {
                *a += b;
            }
            snap.events_recorded += run.ring.recorded();
            snap.events_evicted += run.ring.evicted();
        }
        snap
    }

    /// Every surviving trace event across all absorbed runs, in the
    /// canonical `(virtual_time, job_slot, seq)` order — bit-identical
    /// regardless of thread count or absorption order.
    pub fn events(&self) -> Vec<TraceRecord> {
        let runs = self.inner.runs.lock().expect("telemetry lock");
        let mut out: Vec<TraceRecord> = runs.iter().flat_map(|r| r.ring.iter().copied()).collect();
        out.sort_unstable_by_key(|r| (r.at, r.job_slot, r.seq));
        out
    }

    /// The merged trace as chrome-tracing JSON (the `trace.json` format):
    /// instant events stamped in virtual microseconds, one "process" per
    /// fleet job. Open in Perfetto (`ui.perfetto.dev`) or
    /// `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.events())
    }
}

/// Formats trace records as chrome-tracing JSON (see
/// [`Telemetry::chrome_trace_json`]).
pub fn chrome_trace_json(events: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, rec) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts_us = rec.at.as_nanos() as f64 / 1e3;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts_us},\
             \"pid\":{},\"tid\":\"{}\",\"args\":{{",
            rec.event.name(),
            rec.job_slot,
            event_track(&rec.event),
        );
        let _ = write!(out, "\"seq\":{}", rec.seq);
        match rec.event {
            TelemetryEvent::AnomalyRaised { kind, origin } => {
                let _ = write!(out, ",\"kind\":\"{kind:?}\",\"origin\":\"{origin}\"");
            }
            TelemetryEvent::EscalationRouted {
                kind,
                origin,
                resolved_by,
                hops,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"{kind:?}\",\"origin\":\"{origin}\",\"hops\":{hops}"
                );
                match resolved_by {
                    Some(l) => {
                        let _ = write!(out, ",\"resolved_by\":\"{l}\"");
                    }
                    None => out.push_str(",\"resolved_by\":null"),
                }
            }
            TelemetryEvent::ContractSwitch { layer, outcome } => {
                let _ = write!(out, ",\"layer\":\"{layer}\",\"outcome\":\"{outcome}\"");
            }
            TelemetryEvent::PlatoonEjection { member } => {
                let _ = write!(out, ",\"member\":{member}");
            }
            TelemetryEvent::TierPromotion { slot } | TelemetryEvent::TierDemotion { slot } => {
                let _ = write!(out, ",\"slot\":{slot}");
            }
            TelemetryEvent::CacheHit | TelemetryEvent::CacheMiss => {}
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// The chrome-trace "thread" a record renders on: groups related event
/// classes onto one track per job.
fn event_track(event: &TelemetryEvent) -> &'static str {
    match event {
        TelemetryEvent::AnomalyRaised { .. }
        | TelemetryEvent::EscalationRouted { .. }
        | TelemetryEvent::ContractSwitch { .. } => "escalation",
        TelemetryEvent::PlatoonEjection { .. } => "platoon",
        TelemetryEvent::TierPromotion { .. } | TelemetryEvent::TierDemotion { .. } => "city",
        TelemetryEvent::CacheHit | TelemetryEvent::CacheMiss => "cache",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u32) -> TelemetryEvent {
        TelemetryEvent::TierPromotion { slot: n }
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_seq_monotone() {
        let mut ring = TraceRing::with_capacity(3);
        for i in 0..5u32 {
            ring.push(Time::from_secs(i as u64), 0, ev(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.evicted(), 2);
        let seqs: Vec<u64> = ring.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted, order preserved");
        let slots: Vec<u32> = ring
            .iter()
            .map(|r| match r.event {
                TelemetryEvent::TierPromotion { slot } => slot,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(slots, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_ring_counts_but_stores_nothing() {
        let mut ring = TraceRing::with_capacity(0);
        ring.push(Time::ZERO, 0, ev(1));
        assert!(ring.is_empty());
        assert_eq!(ring.recorded(), 1);
        assert_eq!(ring.evicted(), 1);
    }

    #[test]
    fn events_merge_in_canonical_order_regardless_of_absorption() {
        // Two jobs absorbed in opposite orders must export identically.
        let build = |tel: &Telemetry, reverse: bool| {
            let mut a = tel.begin_run(0);
            let mut b = tel.begin_run(1);
            a.record(Time::from_secs(1), ev(10));
            a.record(Time::from_secs(3), ev(11));
            b.record(Time::from_secs(1), ev(20));
            b.record(Time::from_secs(2), ev(21));
            if reverse {
                tel.absorb(b);
                tel.absorb(a);
            } else {
                tel.absorb(a);
                tel.absorb(b);
            }
        };
        let t1 = Telemetry::default();
        build(&t1, false);
        let t2 = Telemetry::default();
        build(&t2, true);
        assert_eq!(t1.events(), t2.events());
        let order: Vec<(u64, u32)> = t1
            .events()
            .iter()
            .map(|r| (r.at.as_millis(), r.job_slot))
            .collect();
        assert_eq!(
            order,
            vec![(1_000, 0), (1_000, 1), (2_000, 1), (3_000, 0)],
            "sorted by (virtual_time, job_slot, seq)"
        );
    }

    #[test]
    fn registry_counts_and_snapshots_subtract() {
        let tel = Telemetry::default();
        let mut run = tel.begin_run(0);
        run.record(
            Time::from_secs(1),
            TelemetryEvent::EscalationRouted {
                kind: ProblemKind::ThermalStress,
                origin: Layer::Platform,
                resolved_by: Some(Layer::Ability),
                hops: 4,
            },
        );
        run.record_detection_latency(0.4);
        run.count(Counter::DeadlineMisses, 3);
        tel.absorb(run);
        let before = tel.snapshot();
        assert_eq!(before.counter(Counter::EscalationsRouted), 1);
        assert_eq!(before.counter(Counter::EscalationsResolved), 1);
        assert_eq!(before.counter(Counter::DeadlineMisses), 3);
        assert_eq!(before.detection_latency.total(), 1);
        assert_eq!(before.detection_latency.counts()[0], 1, "0.4 s <= 0.5 s");

        let mut run = tel.begin_run(1);
        run.record(Time::ZERO, TelemetryEvent::CacheHit);
        tel.absorb(run);
        let delta = tel.snapshot().minus(&before);
        assert_eq!(delta.counter(Counter::CacheHits), 1);
        assert_eq!(delta.counter(Counter::EscalationsRouted), 0);
        assert_eq!(delta.cache_hit_rate(), Some(1.0));
    }

    #[test]
    fn stage_counts_sum_across_absorbed_runs() {
        let tel = Telemetry::default();
        let mut a = tel.begin_run(0);
        for _ in 0..10 {
            a.count_stage(Stage::Runner);
        }
        a.count_stage(Stage::Monitor);
        let mut b = tel.begin_run(1);
        for _ in 0..5 {
            b.count_stage(Stage::Runner);
        }
        tel.absorb(a);
        let first = tel.snapshot();
        tel.absorb(b);
        let snap = tel.snapshot();
        assert_eq!(snap.stage_calls_of(Stage::Runner), 15);
        assert_eq!(snap.stage_calls_of(Stage::Monitor), 1);
        assert_eq!(snap.stage_calls_of(Stage::Platoon), 0);
        assert_eq!(snap.minus(&first).stage_calls_of(Stage::Runner), 5);
    }

    #[test]
    fn chrome_trace_renders_all_event_classes() {
        let tel = Telemetry::default();
        let mut run = tel.begin_run(2);
        run.record(
            Time::from_millis(10),
            TelemetryEvent::AnomalyRaised {
                kind: AnomalyKind::DeadlineMiss,
                origin: Layer::Platform,
            },
        );
        run.record(
            Time::from_millis(10),
            TelemetryEvent::EscalationRouted {
                kind: ProblemKind::TimingViolation,
                origin: Layer::Platform,
                resolved_by: None,
                hops: 5,
            },
        );
        run.record(
            Time::from_millis(20),
            TelemetryEvent::ContractSwitch {
                layer: Layer::Ability,
                outcome: SwitchOutcome::RolledBack,
            },
        );
        run.record(
            Time::from_millis(30),
            TelemetryEvent::PlatoonEjection { member: 2 },
        );
        run.record(
            Time::from_millis(40),
            TelemetryEvent::TierDemotion { slot: 7 },
        );
        run.record(Time::ZERO, TelemetryEvent::CacheMiss);
        tel.absorb(run);
        let json = tel.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        for name in [
            "anomaly_raised",
            "escalation_routed",
            "contract_switch",
            "platoon_ejection",
            "tier_demotion",
            "cache_miss",
        ] {
            assert!(json.contains(name), "missing {name} in {json}");
        }
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("\"resolved_by\":null"));
        assert!(json.contains("\"outcome\":\"rolled_back\""));
    }

    #[test]
    fn display_renders_every_event_class() {
        let cases = [
            (
                TelemetryEvent::AnomalyRaised {
                    kind: AnomalyKind::AccessViolation,
                    origin: Layer::Communication,
                },
                "AccessViolation at communication",
            ),
            (
                TelemetryEvent::EscalationRouted {
                    kind: ProblemKind::SecurityBreach,
                    origin: Layer::Communication,
                    resolved_by: Some(Layer::Ability),
                    hops: 3,
                },
                "SecurityBreach: communication -> ability (3 hops)",
            ),
            (
                TelemetryEvent::EscalationRouted {
                    kind: ProblemKind::TimingViolation,
                    origin: Layer::Platform,
                    resolved_by: None,
                    hops: 5,
                },
                "TimingViolation: platform -> unresolved (5 hops)",
            ),
            (
                TelemetryEvent::ContractSwitch {
                    layer: Layer::Ability,
                    outcome: SwitchOutcome::RolledBack,
                },
                "rolled_back by ability",
            ),
            (TelemetryEvent::PlatoonEjection { member: 2 }, "member 2"),
            (TelemetryEvent::TierPromotion { slot: 7 }, "slot 7"),
            (TelemetryEvent::TierDemotion { slot: 8 }, "slot 8"),
            (TelemetryEvent::CacheHit, ""),
            (TelemetryEvent::CacheMiss, ""),
        ];
        for (event, text) in cases {
            assert_eq!(event.to_string(), text, "{}", event.name());
        }
    }

    #[test]
    fn contract_switch_outcomes_count_into_their_own_slots() {
        let tel = Telemetry::default();
        let mut run = tel.begin_run(0);
        for (outcome, n) in [
            (SwitchOutcome::Accepted, 2),
            (SwitchOutcome::Rejected, 3),
            (SwitchOutcome::RolledBack, 1),
        ] {
            for _ in 0..n {
                run.record(
                    Time::from_secs(1),
                    TelemetryEvent::ContractSwitch {
                        layer: Layer::Ability,
                        outcome,
                    },
                );
            }
        }
        tel.absorb(run);
        let snap = tel.snapshot();
        assert_eq!(snap.counter(Counter::ContractSwitches), 2);
        assert_eq!(snap.counter(Counter::ContractSwitchesRejected), 3);
        assert_eq!(snap.counter(Counter::ContractSwitchesRolledBack), 1);
    }
}
