//! The fleet runner: batch execution of many scenarios across worker
//! threads with deterministic seeding, memoized results and fleet-level
//! statistics.
//!
//! [`FleetRunner`] turns the single-vehicle demo into a batch evaluation
//! engine: it expands a `families × strategies × seeds` grid (or any
//! explicit scenario list) into jobs, derives each job's RNG seed from one
//! master seed via [`saav_sim::rng::derive_seed`], executes the jobs on
//! the shared-cursor job queue ([`crate::executor`]), and aggregates the
//! per-run [`Summary`]s into [`FleetStats`] — collision rate, the
//! detection-latency distribution, and distance/availability per strategy.
//!
//! With [`FleetRunner::with_cache`], each job is first looked up by its
//! content-hashed identity ([`crate::cache::job_key`]) on the calling
//! thread, and only the misses reach the executor: a repeated sweep over
//! bit-identical jobs skips the simulation entirely, spawns no worker and
//! assembles its [`FleetStats`] from cached [`Summary`] slots. Cached
//! summaries are shared via [`Arc`], so a warm sweep's per-job path
//! performs no heap allocation, at any worker count (pinned in
//! `tests/zero_alloc.rs`).
//!
//! Determinism is by construction: job order, per-job seeds and the
//! result slots are all fixed before any worker starts, so the aggregate
//! statistics are bit-identical whether the fleet runs on 1 thread or N,
//! cold or warm (property-tested in `tests/proptests.rs`).
//!
//! ```
//! use saav_core::fleet::FleetRunner;
//! use saav_core::scenario::{ResponseStrategy, ScenarioFamily};
//!
//! let fleet = FleetRunner::new(2024).with_threads(2);
//! let outcome = fleet.sweep(
//!     &[ScenarioFamily::Baseline],
//!     &[ResponseStrategy::CrossLayer],
//!     1,
//! );
//! assert_eq!(outcome.stats.runs, 1);
//! assert_eq!(outcome.stats.collision_rate, 0.0);
//! ```

use std::sync::Arc;

use saav_learn::{SelfAwarenessModel, SignalTrace};
use saav_sim::rng::derive_seed;
use saav_sim::series::percentile_sorted;
use saav_sim::time::Time;

use crate::cache::{job_key, JobKey, ResultCache};
use crate::executor;
use crate::outcome::{latency_s, Summary};
use crate::runner;
use crate::scenario::{ResponseStrategy, Scenario, ScenarioFamily};
use crate::telemetry::{Telemetry, TelemetryEvent, TelemetrySnapshot};

/// Environment variable overriding the default fleet worker count, so CI
/// smoke runs are schedulable without touching call sites. An explicit
/// [`FleetRunner::with_threads`] still wins.
pub const THREADS_ENV: &str = "SAAV_THREADS";

/// The default worker count: [`THREADS_ENV`] when set to a positive
/// integer, otherwise all available cores. With a resolved count of 1
/// (e.g. `SAAV_THREADS=1`) the fleet spawns no threads at all — jobs run
/// as a pure inline loop on the calling thread.
pub fn default_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// One completed fleet run: the job's grid coordinates plus its summary.
///
/// The summary is behind an [`Arc`] so cache hits share storage instead
/// of deep-cloning label strings per job.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRecord {
    /// Strategy the run was executed under.
    pub strategy: ResponseStrategy,
    /// The derived per-run seed.
    pub seed: u64,
    /// When the scenario's first scripted disturbance fired, if any.
    pub injected_at: Option<Time>,
    /// The run's compact outcome (shared with the cache when one is
    /// mounted).
    pub summary: Arc<Summary>,
}

impl FleetRecord {
    /// Detection latency in seconds: first detection relative to the first
    /// scripted disturbance (relative to run start when the scenario has
    /// none). `None` when nothing was detected.
    pub fn detection_latency_s(&self) -> Option<f64> {
        self.latency_of(self.summary.first_detection)
    }

    /// Detection latency of the *learned* monitor, measured like
    /// [`Self::detection_latency_s`]. `None` when no learned model was
    /// mounted or it never fired.
    pub fn model_latency_s(&self) -> Option<f64> {
        self.latency_of(self.summary.first_model_deviation)
    }

    /// Latency of the first trust-based ejection in a platoon run,
    /// measured like [`Self::detection_latency_s`]. `None` for
    /// single-vehicle runs or when nobody was ejected.
    pub fn ejection_latency_s(&self) -> Option<f64> {
        self.latency_of(self.summary.platoon.as_ref().and_then(|p| p.first_ejection))
    }

    fn latency_of(&self, detected: Option<Time>) -> Option<f64> {
        latency_s(detected, self.injected_at)
    }

    /// The scenario family of the run: its label up to the first `/`
    /// (the whole label when it has none). A family-grid run's family is
    /// its [`ScenarioFamily::name`].
    pub fn family(&self) -> &str {
        let label = &self.summary.label;
        label.split_once('/').map_or(label, |(family, _)| family)
    }
}

/// Aggregate detection-latency distribution over the detected runs.
///
/// Latency is measured from each run's first scripted disturbance to its
/// first detection, so the distribution compares monitor reaction — not the
/// scenarios' injection schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Number of runs in which any problem was detected.
    pub detected: usize,
    /// Mean detection latency (s) over detected runs.
    pub mean_s: f64,
    /// Median detection latency (s).
    pub p50_s: f64,
    /// 95th-percentile detection latency (s).
    pub p95_s: f64,
}

/// Sorts the collected latencies in place and reduces them to a
/// [`LatencyStats`].
fn latency_stats_from(latencies: &mut [f64]) -> LatencyStats {
    latencies.sort_unstable_by(f64::total_cmp);
    LatencyStats {
        detected: latencies.len(),
        mean_s: mean(latencies),
        p50_s: percentile_sorted(latencies, 0.5).unwrap_or(0.0),
        p95_s: percentile_sorted(latencies, 0.95).unwrap_or(0.0),
    }
}

/// Per-strategy aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyStats {
    /// The strategy these rows aggregate.
    pub strategy: ResponseStrategy,
    /// Number of runs under this strategy.
    pub runs: usize,
    /// Fraction of runs that collided.
    pub collision_rate: f64,
    /// Mean distance travelled (m) — the availability proxy.
    pub mean_distance_m: f64,
    /// Fraction of runs that did *not* end in a minimal-risk stop.
    pub availability: f64,
}

/// Fleet-level statistics over one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Total runs executed.
    pub runs: usize,
    /// Runs that ended in a collision.
    pub collisions: usize,
    /// `collisions / runs`.
    pub collision_rate: f64,
    /// Detection-latency distribution over runs that detected anything
    /// (hand-written contract monitors).
    pub detection: LatencyStats,
    /// Detection-latency distribution of the learned monitor (empty when
    /// no model was mounted for the batch).
    pub model_detection: LatencyStats,
    /// Member collisions across platoon runs (0 for single-vehicle
    /// batches, where `collisions` already counts every vehicle).
    pub peer_collisions: usize,
    /// Trust-based ejections across platoon runs.
    pub ejections: usize,
    /// Aggregates per strategy, in first-appearance order.
    pub per_strategy: Vec<StrategyStats>,
    /// The batch's engine-telemetry snapshot (counters, histograms, stage
    /// counts) — `Some` only when the batch ran with a mounted
    /// [`Telemetry`] sink ([`FleetRunner::with_telemetry`]), so unmounted
    /// batches stay bit-comparable across cache states and refactors.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl FleetStats {
    /// Aggregates a batch of records (in their deterministic job order).
    ///
    /// The buffers are sized up front, so the number of heap allocations
    /// depends on the strategy count only, never on the job count — which
    /// is what lets the warm-cache zero-allocation pin in
    /// `tests/zero_alloc.rs` hold.
    pub fn from_records(records: &[FleetRecord]) -> Self {
        struct Tally {
            strategy: ResponseStrategy,
            runs: usize,
            collided: usize,
            stopped: usize,
            distance_sum: f64,
        }
        let (mut collisions, mut peer_collisions, mut ejections) = (0, 0, 0);
        let mut detection = Vec::with_capacity(records.len());
        let mut model_detection = Vec::with_capacity(records.len());
        let mut tallies: Vec<Tally> = Vec::with_capacity(ResponseStrategy::ALL.len());
        for rec in records {
            let s = &rec.summary;
            collisions += usize::from(s.collision);
            if let Some(p) = &s.platoon {
                peer_collisions += p.member_collisions;
                ejections += p.ejected.len();
            }
            if let Some(l) = rec.detection_latency_s() {
                detection.push(l);
            }
            if let Some(l) = rec.model_latency_s() {
                model_detection.push(l);
            }
            let tally = match tallies.iter().position(|t| t.strategy == rec.strategy) {
                Some(i) => &mut tallies[i],
                None => {
                    tallies.push(Tally {
                        strategy: rec.strategy,
                        runs: 0,
                        collided: 0,
                        stopped: 0,
                        distance_sum: 0.0,
                    });
                    tallies.last_mut().expect("just pushed")
                }
            };
            tally.runs += 1;
            tally.collided += usize::from(s.collision);
            tally.stopped += usize::from(matches!(
                s.final_mode,
                saav_skills::decision::DrivingMode::SafeStop
            ));
            tally.distance_sum += s.distance_m;
        }
        let runs = records.len();
        FleetStats {
            runs,
            collisions,
            collision_rate: if runs == 0 {
                0.0
            } else {
                collisions as f64 / runs as f64
            },
            detection: latency_stats_from(&mut detection),
            model_detection: latency_stats_from(&mut model_detection),
            peer_collisions,
            ejections,
            per_strategy: tallies
                .iter()
                .map(|t| StrategyStats {
                    strategy: t.strategy,
                    runs: t.runs,
                    collision_rate: t.collided as f64 / t.runs as f64,
                    mean_distance_m: t.distance_sum / t.runs as f64,
                    availability: (t.runs - t.stopped) as f64 / t.runs as f64,
                })
                .collect(),
            telemetry: None,
        }
    }
}

/// Detection-latency distribution per scenario family
/// ([`FleetRecord::family`]), in first-appearance order. A family that
/// detected nothing reports an all-zero distribution.
pub fn latency_by_family(records: &[FleetRecord]) -> Vec<(&str, LatencyStats)> {
    let mut groups: Vec<(&str, Vec<f64>)> = Vec::new();
    for rec in records {
        let family = rec.family();
        let g = match groups.iter().position(|(f, _)| *f == family) {
            Some(g) => g,
            None => {
                groups.push((family, Vec::new()));
                groups.len() - 1
            }
        };
        if let Some(lat) = rec.detection_latency_s() {
            groups[g].1.push(lat);
        }
    }
    groups
        .into_iter()
        .map(|(family, mut lat)| (family, latency_stats_from(&mut lat)))
        .collect()
}

fn mean(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / sorted.len() as f64
    }
}

/// A completed fleet batch: the per-run records (in deterministic job
/// order) and their aggregate statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// One record per job, in job order.
    pub records: Vec<FleetRecord>,
    /// Aggregates over all records.
    pub stats: FleetStats,
}

/// Executes batches of scenarios across worker threads.
///
/// The runner owns seeding: every job's scenario seed is replaced by
/// `derive_seed(master_seed, job_index)`, so a batch is reproducible from
/// the master seed alone and independent of thread count.
#[derive(Debug, Clone)]
pub struct FleetRunner {
    master_seed: u64,
    threads: usize,
    cache: Option<ResultCache>,
    model: Option<Arc<SelfAwarenessModel>>,
    telemetry: Option<Telemetry>,
}

impl FleetRunner {
    /// Creates a fleet runner with [`default_threads`] workers (the
    /// `SAAV_THREADS` environment override, else all available cores)
    /// and no cache.
    pub fn new(master_seed: u64) -> Self {
        FleetRunner {
            master_seed,
            threads: default_threads(),
            cache: None,
            model: None,
            telemetry: None,
        }
    }

    /// Overrides the worker-thread count (clamped to ≥ 1). A count of 1
    /// runs every batch inline on the calling thread, spawning nothing.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Mounts a memoizing result cache: each job is first looked up by
    /// its content-hashed identity ([`crate::cache::job_key`]) and only
    /// simulated on a miss. Batches run with a mounted learned model
    /// ([`Self::with_model`]) bypass the cache entirely — the model is
    /// not part of the content hash, so caching its runs would poison
    /// lookups from model-free runners sharing the cache.
    pub fn with_cache(mut self, cache: ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Mounts a learned self-awareness monitor on every vehicle of every
    /// batch this runner executes.
    pub fn with_model(mut self, model: SelfAwarenessModel) -> Self {
        self.model = Some(Arc::new(model));
        self
    }

    /// Mounts an engine-telemetry sink: every batch records its escalation
    /// trace, registry counters and per-stage counts into `sink`, and the
    /// batch's [`FleetStats::telemetry`] carries the snapshot delta. The
    /// simulated results are bit-identical to an unmounted runner's —
    /// telemetry observes, never perturbs (property-tested in
    /// `tests/proptests.rs`).
    pub fn with_telemetry(mut self, sink: Telemetry) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Expands the `families × strategies × seeds_per_cell` grid and runs
    /// every cell.
    pub fn sweep(
        &self,
        families: &[ScenarioFamily],
        strategies: &[ResponseStrategy],
        seeds_per_cell: usize,
    ) -> FleetOutcome {
        let mut jobs = Vec::with_capacity(families.len() * strategies.len() * seeds_per_cell);
        for &family in families {
            for &strategy in strategies {
                for _ in 0..seeds_per_cell {
                    // The real per-run seed is derived in `run_scenarios`
                    // from the job index; 0 here is a placeholder.
                    jobs.push(family.build(strategy, 0));
                }
            }
        }
        self.run_scenarios(jobs)
    }

    /// Runs an explicit scenario list. Each scenario's seed is overridden
    /// with `derive_seed(master_seed, job_index)` *before* its cache key
    /// is computed — the derived seed is part of the job identity.
    ///
    /// Every cache lookup is answered on the calling thread before any job
    /// runs, and only the misses go to the executor, so a fully warm batch
    /// spawns no thread. No two jobs of a batch share a key (their derived
    /// seeds differ), so looking every job up first sees the same hits as
    /// interleaving lookups with runs; the misses are inserted in job
    /// order once they have all run.
    pub fn run_scenarios(&self, mut scenarios: Vec<Scenario>) -> FleetOutcome {
        self.seed(&mut scenarios);
        let model = self.model.as_deref();
        let cache = self.cache.as_ref().filter(|_| model.is_none());
        let sink = self.telemetry.as_ref();
        let before = sink.map(Telemetry::snapshot);
        let mut summaries: Vec<Option<Arc<Summary>>> = Vec::with_capacity(scenarios.len());
        let mut misses: Vec<(usize, Option<JobKey>)> = Vec::new();
        for (i, scenario) in scenarios.iter().enumerate() {
            let key = cache.map(|_| job_key(scenario));
            let hit = cache.zip(key).and_then(|(cache, key)| cache.get(key));
            if let (Some(hit), Some(sink)) = (&hit, sink) {
                // A hit never runs, so its telemetry closes here.
                let mut t = sink.begin_run(i as u32);
                t.record(Time::ZERO, TelemetryEvent::CacheHit);
                if let Some(latency) = latency_s(hit.first_detection, scenario.first_event_at()) {
                    t.record_detection_latency(latency);
                }
                sink.absorb(t);
            }
            if hit.is_none() {
                misses.push((i, key));
            }
            summaries.push(hit);
        }
        let computed = executor::run(misses.len(), self.threads, |m| {
            let (i, key) = misses[m];
            let mut tel = sink.map(|s| (s.begin_run(i as u32), s));
            // A job with a key was looked up, and it runs because it missed.
            if let (Some((t, _)), Some(_)) = (tel.as_mut(), key) {
                t.record(Time::ZERO, TelemetryEvent::CacheMiss);
            }
            Arc::new(runner::run_mounted(&scenarios[i], model, tel).summary())
        });
        for (&(i, key), summary) in misses.iter().zip(computed) {
            if let (Some(cache), Some(key)) = (cache, key) {
                cache.insert(key, Arc::clone(&summary));
            }
            summaries[i] = Some(summary);
        }
        let records: Vec<FleetRecord> = scenarios
            .iter()
            .zip(summaries)
            .map(|(scenario, summary)| FleetRecord {
                strategy: scenario.strategy,
                seed: scenario.seed,
                injected_at: scenario.first_event_at(),
                summary: summary.expect("every miss ran"),
            })
            .collect();
        let mut stats = FleetStats::from_records(&records);
        if let (Some(sink), Some(before)) = (sink, before) {
            stats.telemetry = Some(sink.snapshot().minus(&before));
        }
        FleetOutcome { records, stats }
    }

    /// Runs a scenario list (seeded exactly like [`Self::run_scenarios`])
    /// and captures each run's 1 Hz [`SignalTrace`] — the trace-capture
    /// hook that feeds [`SelfAwarenessModel::train`] with nominal data.
    /// The learned model, if any, is *not* mounted for capture runs, and
    /// the cache is not consulted (traces are not part of a [`Summary`]).
    pub fn capture_traces(&self, mut scenarios: Vec<Scenario>) -> Vec<SignalTrace> {
        self.seed(&mut scenarios);
        executor::run(scenarios.len(), self.threads, |i| {
            runner::run_mounted(&scenarios[i], None, None).signal_trace()
        })
    }

    /// Seeds the jobs deterministically from the master seed and job
    /// index, before any lookup or run.
    fn seed(&self, scenarios: &mut [Scenario]) {
        for (i, s) in scenarios.iter_mut().enumerate() {
            s.seed = derive_seed(self.master_seed, i as u64);
        }
    }
}

/// What the fleet coordinator decided after observing one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetDirective {
    /// Pressure within budget: dispatch unchanged.
    Nominal,
    /// The degraded batch budget was admitted through the fleet MCC:
    /// reallocate scenario budget toward the degrading families.
    Degraded,
    /// The pressure cleared and the nominal budget was rolled back in.
    RolledBack,
}

/// Fleet-level self-management (the paper's self-* loop one level up):
/// an observer/controller that watches each batch's engine-telemetry
/// snapshot ([`FleetStats::telemetry`]) between batches and renegotiates
/// the fleet-wide batch-budget contract through its own MCC — the same
/// admission machinery the vehicles use, mounted on the fleet.
///
/// Everything is deterministic: decisions depend only on the observed
/// snapshot deltas and the configured threshold, so a sweep steered by a
/// coordinator is bit-identical across thread counts and reruns.
#[derive(Debug)]
pub struct FleetCoordinator {
    mcc: saav_mcc::Mcc,
    degraded: bool,
    threshold_misses_per_run: f64,
}

impl Default for FleetCoordinator {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetCoordinator {
    /// A coordinator with the nominal fleet budget installed and the
    /// default pressure threshold (100 deadline misses per run).
    pub fn new() -> Self {
        let mut mcc = saav_mcc::Mcc::new(saav_mcc::PlatformModel::reference());
        mcc.install_baseline(crate::contracts::fleet_budget_config());
        FleetCoordinator {
            mcc,
            degraded: false,
            threshold_misses_per_run: 100.0,
        }
    }

    /// Overrides the degradation threshold (deadline misses per run above
    /// which the degraded budget is proposed).
    pub fn with_threshold(mut self, misses_per_run: f64) -> Self {
        self.threshold_misses_per_run = misses_per_run;
        self
    }

    /// Observes one completed batch. Requires the batch to have run with a
    /// mounted [`Telemetry`] sink — without a snapshot the coordinator is
    /// blind and stays [`FleetDirective::Nominal`].
    ///
    /// Above the threshold the degraded batch budget is proposed to the
    /// fleet MCC and applied only when admitted; once the pressure drops
    /// below half the threshold (hysteresis), the nominal budget is rolled
    /// back in.
    pub fn observe(&mut self, stats: &FleetStats) -> FleetDirective {
        let Some(snapshot) = &stats.telemetry else {
            return FleetDirective::Nominal;
        };
        let misses = snapshot.counter(crate::telemetry::Counter::DeadlineMisses) as f64;
        let pressure = misses / (stats.runs.max(1)) as f64;
        if !self.degraded && pressure > self.threshold_misses_per_run {
            let report = self
                .mcc
                .propose_update(crate::contracts::fleet_degraded_request())
                .expect("fleet budget plan is well-formed");
            if report.accepted {
                self.degraded = true;
                return FleetDirective::Degraded;
            }
        } else if self.degraded && pressure < self.threshold_misses_per_run * 0.5 {
            self.mcc.rollback().expect("degraded budget was committed");
            self.degraded = false;
            return FleetDirective::RolledBack;
        }
        FleetDirective::Nominal
    }

    /// Reallocates a fixed seed budget across `families` for the next
    /// batch, shifting seeds toward the families whose runs degraded in
    /// `outcome` (detected a problem or left Normal mode). The total always
    /// equals `families.len() * seeds_per_cell`, and every family keeps at
    /// least one seed unless `seeds_per_cell` is 0; with no degradation (or
    /// no admitted budget degradation, or no seeds to shift) the split
    /// stays uniform.
    pub fn reallocate(
        &self,
        families: &[ScenarioFamily],
        outcome: &FleetOutcome,
        seeds_per_cell: usize,
    ) -> Vec<(ScenarioFamily, usize)> {
        let total = families.len() * seeds_per_cell;
        if families.is_empty() {
            return Vec::new();
        }
        if !self.degraded || seeds_per_cell == 0 {
            return families.iter().map(|&f| (f, seeds_per_cell)).collect();
        }
        let degradation: Vec<usize> = families
            .iter()
            .map(|f| {
                outcome
                    .records
                    .iter()
                    .filter(|r| r.family() == f.name())
                    .filter(|r| {
                        r.summary.first_detection.is_some()
                            || !matches!(
                                r.summary.final_mode,
                                saav_skills::decision::DrivingMode::Normal
                            )
                    })
                    .count()
            })
            .collect();
        let weight_sum: usize = degradation.iter().sum();
        if weight_sum == 0 {
            return families.iter().map(|&f| (f, seeds_per_cell)).collect();
        }
        // Everyone keeps one seed; the remainder goes out proportionally
        // by largest-remainder, ties broken by family order — fully
        // deterministic.
        let spare = total - families.len();
        let mut alloc: Vec<usize> = degradation
            .iter()
            .map(|&d| spare * d / weight_sum)
            .collect();
        let mut assigned: usize = alloc.iter().sum();
        let mut remainders: Vec<(usize, usize)> = degradation
            .iter()
            .enumerate()
            .map(|(i, &d)| (i, (spare * d) % weight_sum))
            .collect();
        remainders.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut k = 0;
        while assigned < spare {
            alloc[remainders[k % remainders.len()].0] += 1;
            assigned += 1;
            k += 1;
        }
        families
            .iter()
            .zip(alloc)
            .map(|(&f, extra)| (f, 1 + extra))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saav_sim::time::{Duration, Time};

    /// Short scenarios so the batch machinery is exercised without paying
    /// for full 120 s runs.
    fn short_jobs() -> Vec<Scenario> {
        ResponseStrategy::ALL
            .iter()
            .map(|&strategy| {
                Scenario::builder(format!("short/{strategy:?}"))
                    .strategy(strategy)
                    .duration(Duration::from_secs(8))
                    .at(
                        Time::from_secs(2),
                        crate::scenario::ScenarioEvent::CompromiseRearBrake,
                    )
                    .build()
            })
            .collect()
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let one = FleetRunner::new(99)
            .with_threads(1)
            .run_scenarios(short_jobs());
        let four = FleetRunner::new(99)
            .with_threads(4)
            .run_scenarios(short_jobs());
        assert_eq!(one.records, four.records);
        assert_eq!(one.stats, four.stats);
    }

    #[test]
    fn warm_cache_reproduces_cold_results_exactly() {
        let cache = ResultCache::in_memory();
        let runner = FleetRunner::new(99)
            .with_threads(2)
            .with_cache(cache.clone());
        let cold = runner.run_scenarios(short_jobs());
        assert_eq!(cache.stats().misses, 3);
        let warm = runner.run_scenarios(short_jobs());
        assert_eq!(cold.records, warm.records);
        assert_eq!(cold.stats, warm.stats);
        let stats = cache.stats();
        assert_eq!(stats.hits, 3, "every warm job must hit");
        assert_eq!(stats.misses, 3, "warm sweep must not miss");
        // Warm records share the cached summaries instead of cloning them.
        for (c, w) in cold.records.iter().zip(&warm.records) {
            assert!(Arc::ptr_eq(&c.summary, &w.summary));
        }
    }

    #[test]
    fn uncached_runner_matches_cached_runner() {
        let plain = FleetRunner::new(5)
            .with_threads(2)
            .run_scenarios(short_jobs());
        let cached = FleetRunner::new(5)
            .with_threads(2)
            .with_cache(ResultCache::in_memory())
            .run_scenarios(short_jobs());
        assert_eq!(plain.records, cached.records);
    }

    #[test]
    fn seeds_derive_from_master_and_job_index() {
        let out = FleetRunner::new(7)
            .with_threads(2)
            .run_scenarios(short_jobs());
        for (i, rec) in out.records.iter().enumerate() {
            assert_eq!(rec.seed, derive_seed(7, i as u64));
        }
        // A different master seed re-seeds every run.
        let other = FleetRunner::new(8)
            .with_threads(2)
            .run_scenarios(short_jobs());
        assert!(out
            .records
            .iter()
            .zip(&other.records)
            .all(|(a, b)| a.seed != b.seed));
    }

    #[test]
    fn sweep_expands_the_full_grid() {
        let fleet = FleetRunner::new(1).with_threads(2);
        let families = [ScenarioFamily::Baseline, ScenarioFamily::StopAndGo];
        let strategies = [ResponseStrategy::CrossLayer, ResponseStrategy::SingleLayer];
        // Trim durations by running the grid through explicit scenarios.
        let jobs: Vec<Scenario> = families
            .iter()
            .flat_map(|&f| {
                strategies.iter().map(move |&s| {
                    let mut sc = f.build(s, 0);
                    sc.duration = Duration::from_secs(6);
                    sc
                })
            })
            .collect();
        let out = fleet.run_scenarios(jobs);
        assert_eq!(out.records.len(), 4);
        assert_eq!(out.stats.runs, 4);
        assert_eq!(out.stats.per_strategy.len(), 2);
        for s in &out.stats.per_strategy {
            assert_eq!(s.runs, 2);
        }
    }

    #[test]
    fn stats_aggregate_collisions_and_latency() {
        use crate::outcome::Summary;
        use saav_skills::decision::DrivingMode;
        let mk = |collision: bool, det: Option<u64>, mode: DrivingMode, dist: f64| FleetRecord {
            strategy: ResponseStrategy::CrossLayer,
            seed: 0,
            injected_at: None,
            summary: Arc::new(Summary {
                label: "x".into(),
                collision,
                distance_m: dist,
                min_ttc_s: 10.0,
                first_detection: det.map(Time::from_secs),
                first_model_deviation: None,
                mitigated_at: None,
                final_mode: mode,
                platoon: None,
                city: None,
            }),
        };
        let records = vec![
            mk(false, Some(10), DrivingMode::Normal, 1000.0),
            mk(true, Some(20), DrivingMode::SafeStop, 500.0),
            mk(false, None, DrivingMode::Normal, 1500.0),
        ];
        let stats = FleetStats::from_records(&records);
        assert_eq!(stats.runs, 3);
        assert_eq!(stats.collisions, 1);
        // With an injection time, latency is measured from the disturbance.
        let mut rec = records[0].clone();
        rec.injected_at = Some(Time::from_secs(4));
        assert_eq!(rec.detection_latency_s(), Some(6.0));
        assert!((stats.collision_rate - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.detection.detected, 2);
        assert!((stats.detection.mean_s - 15.0).abs() < 1e-12);
        assert_eq!(stats.detection.p50_s, 10.0);
        assert_eq!(stats.detection.p95_s, 20.0);
        let s = &stats.per_strategy[0];
        assert_eq!(s.runs, 3);
        assert!((s.mean_distance_m - 1000.0).abs() < 1e-12);
        assert!((s.availability - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_is_well_defined() {
        let out = FleetRunner::new(0).run_scenarios(Vec::new());
        assert_eq!(out.stats.runs, 0);
        assert_eq!(out.stats.collision_rate, 0.0);
        assert!(out.stats.per_strategy.is_empty());
    }

    /// A batch-stats value with `runs` runs and a telemetry snapshot
    /// carrying `misses` deadline misses — the minimum the coordinator
    /// reads.
    fn stats_with_misses(runs: usize, misses: u64) -> FleetStats {
        use crate::telemetry::{Counter, Histogram, Stage};
        let mut counters = [0u64; Counter::COUNT];
        counters[Counter::DeadlineMisses as usize] = misses;
        let mut stats = FleetStats::from_records(&[]);
        stats.runs = runs;
        stats.telemetry = Some(TelemetrySnapshot {
            counters,
            detection_latency: Histogram::default(),
            escalation_hops: Histogram::default(),
            stage_calls: [0; Stage::COUNT],
            events_recorded: 0,
            events_evicted: 0,
        });
        stats
    }

    #[test]
    fn coordinator_degrades_under_pressure_and_rolls_back() {
        let mut c = FleetCoordinator::new().with_threshold(100.0);
        assert!(!c.degraded);
        // 200 misses/run: the degraded budget is proposed and admitted.
        assert_eq!(
            c.observe(&stats_with_misses(10, 2000)),
            FleetDirective::Degraded
        );
        assert!(c.degraded);
        // Sustained pressure while already degraded changes nothing.
        assert_eq!(
            c.observe(&stats_with_misses(10, 2000)),
            FleetDirective::Nominal
        );
        // Pressure inside the hysteresis band holds the degraded budget.
        assert_eq!(
            c.observe(&stats_with_misses(10, 700)),
            FleetDirective::Nominal
        );
        assert!(c.degraded);
        // Pressure cleared: the nominal budget rolls back in, once.
        assert_eq!(
            c.observe(&stats_with_misses(10, 100)),
            FleetDirective::RolledBack
        );
        assert!(!c.degraded);
        assert_eq!(
            c.observe(&stats_with_misses(10, 100)),
            FleetDirective::Nominal
        );
        // The fleet MCC is back on the nominal budget.
        assert!(c
            .mcc
            .current()
            .components
            .iter()
            .any(|comp| comp.name == "fleet_batch_budget"));
    }

    #[test]
    fn coordinator_is_blind_without_a_telemetry_snapshot() {
        let mut c = FleetCoordinator::new().with_threshold(0.5);
        let mut stats = FleetStats::from_records(&[]);
        stats.runs = 10;
        assert_eq!(c.observe(&stats), FleetDirective::Nominal);
        assert!(!c.degraded);
    }

    #[test]
    fn reallocation_conserves_total_and_favors_degrading_families() {
        use crate::outcome::Summary;
        use saav_skills::decision::DrivingMode;
        let mk = |label: &str, detected: bool| FleetRecord {
            strategy: ResponseStrategy::CrossLayer,
            seed: 0,
            injected_at: None,
            summary: Arc::new(Summary {
                label: label.into(),
                collision: false,
                distance_m: 1000.0,
                min_ttc_s: 10.0,
                first_detection: detected.then(|| Time::from_secs(5)),
                first_model_deviation: None,
                mitigated_at: None,
                final_mode: if detected {
                    DrivingMode::Reduced {
                        speed_cap_mps: 15.0,
                    }
                } else {
                    DrivingMode::Normal
                },
                platoon: None,
                city: None,
            }),
        };
        let families = [
            ScenarioFamily::Baseline,
            ScenarioFamily::Thermal,
            ScenarioFamily::StopAndGo,
        ];
        let records = vec![
            mk("baseline/CrossLayer", false),
            mk("thermal/CrossLayer", true),
            mk("thermal/SingleLayer", true),
            mk("stop-and-go/CrossLayer", true),
        ];
        let outcome = FleetOutcome {
            stats: FleetStats::from_records(&records),
            records,
        };

        // Before any degradation the split stays uniform.
        let mut c = FleetCoordinator::new().with_threshold(100.0);
        let uniform = c.reallocate(&families, &outcome, 4);
        assert!(uniform.iter().all(|&(_, n)| n == 4));

        // Once degraded, budget shifts toward the detecting families.
        assert_eq!(
            c.observe(&stats_with_misses(10, 2000)),
            FleetDirective::Degraded
        );
        let shifted = c.reallocate(&families, &outcome, 4);
        let total: usize = shifted.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, families.len() * 4, "budget is conserved");
        assert!(shifted.iter().all(|&(_, n)| n >= 1), "no family starves");
        let get = |f: ScenarioFamily| shifted.iter().find(|&&(g, _)| g == f).unwrap().1;
        assert!(
            get(ScenarioFamily::Thermal) > get(ScenarioFamily::Baseline),
            "thermal degraded twice, baseline never: {shifted:?}"
        );
        // Deterministic: the same inputs yield the same allocation.
        assert_eq!(shifted, c.reallocate(&families, &outcome, 4));
    }

    /// A single-vehicle record under `label`, degraded (detected a problem)
    /// or clean, detecting `det_s` seconds after a disturbance at 10 s.
    fn family_record(label: &str, det_s: Option<u64>) -> FleetRecord {
        use crate::outcome::Summary;
        use saav_skills::decision::DrivingMode;
        FleetRecord {
            strategy: ResponseStrategy::CrossLayer,
            seed: 0,
            injected_at: Some(Time::from_secs(10)),
            summary: Arc::new(Summary {
                label: label.into(),
                collision: false,
                distance_m: 1000.0,
                min_ttc_s: 10.0,
                first_detection: det_s.map(|s| Time::from_secs(10 + s)),
                first_model_deviation: None,
                mitigated_at: None,
                final_mode: DrivingMode::Normal,
                platoon: None,
                city: None,
            }),
        }
    }

    #[test]
    fn reallocation_matches_families_exactly() {
        // `thermal` is a prefix of `thermal+fog`: only the thermal+fog
        // run degraded, so only that family gains seeds.
        let records = vec![
            family_record("thermal/CrossLayer", None),
            family_record("thermal+fog/CrossLayer", Some(2)),
        ];
        let outcome = FleetOutcome {
            stats: FleetStats::from_records(&records),
            records,
        };
        let mut c = FleetCoordinator::new().with_threshold(100.0);
        assert_eq!(
            c.observe(&stats_with_misses(10, 2000)),
            FleetDirective::Degraded
        );
        assert_eq!(
            c.reallocate(
                &[ScenarioFamily::Thermal, ScenarioFamily::ThermalFog],
                &outcome,
                4
            ),
            [
                (ScenarioFamily::Thermal, 1),
                (ScenarioFamily::ThermalFog, 7)
            ]
        );
        // With no seeds to shift, every family gets none.
        assert_eq!(
            c.reallocate(
                &[ScenarioFamily::Thermal, ScenarioFamily::ThermalFog],
                &outcome,
                0
            ),
            [
                (ScenarioFamily::Thermal, 0),
                (ScenarioFamily::ThermalFog, 0)
            ]
        );
    }

    #[test]
    fn latency_by_family_groups_runs_by_label_family() {
        let records = vec![
            family_record("thermal/CrossLayer", Some(4)),
            family_record("thermal+fog/CrossLayer", Some(1)),
            family_record("thermal/SingleLayer", Some(2)),
            family_record("baseline/CrossLayer", None),
            family_record("short", Some(6)),
        ];
        let by_family = latency_by_family(&records);
        let families: Vec<&str> = by_family.iter().map(|(f, _)| *f).collect();
        assert_eq!(families, ["thermal", "thermal+fog", "baseline", "short"]);
        let thermal = &by_family[0].1;
        assert_eq!(thermal.detected, 2);
        assert_eq!(thermal.mean_s, 3.0);
        assert_eq!(thermal.p95_s, 4.0);
        assert_eq!(by_family[1].1.detected, 1);
        // A family with no detections reports an all-zero distribution.
        let baseline = &by_family[2].1;
        assert_eq!((baseline.detected, baseline.p95_s), (0, 0.0));
    }
}
