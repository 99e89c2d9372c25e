//! The traced run: per-layer numbers, measured from outside.
//!
//! One invocation decomposes the three workloads, and a warm re-sweep of
//! the 51 short-horizon cells, at the given seed. It
//! times calls into each layer's public functions and reads counts from
//! public outputs (`CacheStats`, `CityOutcome`, `Outcome.trace`) and from
//! one telemetry-mounted pass per workload; it changes no program code.
//! Solo and platoon jobs are re-run serially with the fleet's derived
//! seeds, and every re-run's digest must equal the fleet's, which shows
//! the decomposition ran the same work.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use saav_core::cache::{job_key, ResultCache};
use saav_core::city::CityRun;
use saav_core::fleet::{FleetOutcome, FleetRunner};
use saav_core::outcome::{Outcome, Summary};
use saav_core::runner::{self, SteppedRun};
use saav_core::scenario::{CitySpec, Scenario};
use saav_core::telemetry::{Counter, Telemetry, TelemetryConfig, TelemetrySnapshot};
use saav_sim::time::Duration;
use saav_vehicle::SurrogateTraffic;

use crate::digest;
use crate::spans::{Span, Spans};
use crate::stats;
use crate::workload::{self, Workload};

/// Job ids of each workload's spans.
const COLD: Range<u32> = 0..1000;
const OVERLOAD: Range<u32> = 1000..2000;
const WARM: Range<u32> = 2000..3000;
const CITY: Range<u32> = 3000..4000;

/// Default-width and mounted `sweep-cold` batches; `overload` runs one of
/// each, its batches being ten times longer.
const COLD_REPS: usize = 3;
/// Warm batches timed per width (and mounted).
const WARM_BATCHES: usize = 200;
/// Passes of `job_key` + `get` over the 51 warm jobs.
const WARM_PROBES: usize = 100;
/// `SurrogateTraffic::step` calls timed on the city-length store.
const SURROGATE_STEPS: usize = 2000;

const TICK: &str = "SteppedRun::tick";
const CITY_TICK: &str = "CityRun::tick";

/// One per-layer number.
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

/// What the traced run measured.
pub struct Report {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Outputs checked against the expected digests.
    pub attempted: u64,
    /// Checked outputs that differed.
    pub failed: u64,
    /// Spans recorded.
    pub spans: Spans,
}

struct TracedRun {
    seed: u64,
    sp: Spans,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Wall time of the traced serial re-runs and city run (ns) ...
    traced_ns: u64,
    /// ... and of the same work untraced (ns).
    untraced_ns: u64,
}

impl TracedRun {
    fn put(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            samples,
        });
    }

    fn put_median(&mut self, name: &str, spans: &[f64], scale: f64) {
        let value = stats::median(spans) / scale;
        self.put(name, value, spans.len());
    }

    fn check(&mut self, got: &[u64], want: &[u64]) {
        assert_eq!(got.len(), want.len(), "one digest per job");
        self.attempted += got.len() as u64;
        self.failed += got.iter().zip(want).filter(|(g, w)| g != w).count() as u64;
    }

    /// Span durations (ns) named `name` over the jobs in `jobs`, filtered.
    fn durations(&self, name: &str, jobs: Range<u32>, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
        self.sp
            .named(name, jobs)
            .filter(|s| keep(s))
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Runs one fleet batch inside a span named `name`; returns its wall
    /// time (ms) and outcome.
    fn batch(
        &mut self,
        name: &'static str,
        job: u32,
        runner: &FleetRunner,
        jobs: &[Scenario],
    ) -> (f64, FleetOutcome) {
        let jobs = jobs.to_vec();
        let idx = self.sp.enter(name, job);
        let out = runner.run_scenarios(jobs);
        self.sp.exit(idx, 0);
        (self.sp.get(idx).ns() as f64 / 1e6, out)
    }
}

fn digests(out: &FleetOutcome) -> Vec<u64> {
    out.records
        .iter()
        .map(|r| digest::summary(&r.summary))
        .collect()
}

fn mounted() -> Telemetry {
    Telemetry::new(TelemetryConfig::default())
}

/// Runs the traced decomposition of every workload at `seed`.
pub fn run(seed: u64) -> Report {
    let mut t = TracedRun {
        seed,
        sp: Spans::new(),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        traced_ns: 0,
        untraced_ns: 0,
    };
    // The same untimed warm-up a timed run's set-up ends with.
    FleetRunner::new(seed)
        .with_threads(1)
        .with_cache(ResultCache::in_memory())
        .run_scenarios(workload::short_jobs());
    let cold = cold_sweep(&mut t, Workload::SweepCold, "cold", COLD, COLD_REPS);
    mcc_and_v2v(&mut t, &cold);
    let overload = cold_sweep(&mut t, Workload::Overload, "overload", OVERLOAD, 1);
    storm(&mut t, &overload);
    warm(&mut t);
    city(&mut t);
    surrogate(&mut t);
    let overhead = t.traced_ns as f64 / t.untraced_ns as f64 - 1.0;
    t.put("bench.trace_overhead", overhead, 1);
    Report {
        metrics: t.metrics,
        attempted: t.attempted,
        failed: t.failed,
        spans: t.sp,
    }
}

/// The serial re-run of fleet jobs.
struct Rerun {
    summaries: Vec<Summary>,
    digests: Vec<u64>,
    /// Simulated horizon per job (ms).
    horizon_ms: Vec<u64>,
    solo_ns: u64,
    solo_ticks: u64,
    platoon_ns: u64,
    member_ticks: u64,
    trace_entries: u64,
}

/// Re-runs `jobs` (seeds already derived) one by one on this thread:
/// solo jobs through `SteppedRun` with a span per call, platoon jobs
/// through one span around `runner::run`.
fn rerun(sp: &mut Spans, jobs: &[Scenario], ids: Range<u32>) -> Rerun {
    let mut r = Rerun {
        summaries: Vec::with_capacity(jobs.len()),
        digests: Vec::with_capacity(jobs.len()),
        horizon_ms: Vec::with_capacity(jobs.len()),
        solo_ns: 0,
        solo_ticks: 0,
        platoon_ns: 0,
        member_ticks: 0,
        trace_entries: 0,
    };
    for (i, s) in jobs.iter().enumerate() {
        let job = ids.start + i as u32;
        let ticks = s.duration.as_millis() / 10;
        let span = sp.enter("job", job);
        let (out, summary): (Outcome, Summary) = match &s.platoon {
            Some(_) => {
                let s = s.clone();
                let out = sp.time("runner::run", job, || runner::run(s));
                let summary = sp.time("Outcome::summary", job, || out.summary());
                (out, summary)
            }
            None => {
                let mut run = sp.time("SteppedRun::new", job, || SteppedRun::new(s));
                while !run.done() {
                    let tick = sp.enter(TICK, job);
                    run.tick();
                    let now = run.now_millis();
                    sp.exit(tick, now);
                }
                sp.time("SteppedRun::finish+Outcome::summary", job, || {
                    let out = run.finish();
                    let summary = out.summary();
                    (out, summary)
                })
            }
        };
        sp.exit(span, 0);
        let ns = sp.get(span).ns();
        match &s.platoon {
            Some(p) => {
                r.platoon_ns += ns;
                r.member_ticks += p.members as u64 * ticks;
            }
            None => {
                r.solo_ns += ns;
                r.solo_ticks += ticks;
            }
        }
        r.trace_entries += out.trace.len() as u64;
        r.digests.push(digest::summary(&summary));
        r.summaries.push(summary);
        r.horizon_ms.push(s.duration.as_millis());
    }
    r
}

/// What a cold sweep's decomposition leaves for the layer-specific
/// counts.
struct ColdSweep {
    snapshot: TelemetrySnapshot,
    rerun: Rerun,
}

/// One cold workload: `reps` batches at default width interleaved with
/// as many telemetry-mounted ones, one batch at width 1, then the serial
/// re-run.
fn cold_sweep(
    t: &mut TracedRun,
    w: Workload,
    tag: &str,
    ids: Range<u32>,
    reps: usize,
) -> ColdSweep {
    let (jobs, seed) = (w.jobs(), t.seed);
    let fresh = || FleetRunner::new(seed).with_cache(ResultCache::in_memory());
    let mut want = digest::recorded(w.name(), seed);
    let (mut default_ms, mut mounted_ms, mut steals) = (Vec::new(), Vec::new(), 0);
    let mut snapshot = None;
    for _ in 0..reps {
        let (ms, out) = t.batch("FleetRunner::run_scenarios", ids.start, &fresh(), &jobs);
        let got = digests(&out);
        let want = want.get_or_insert_with(|| got.clone()).clone();
        t.check(&got, &want);
        default_ms.push(ms);
        let mounted = fresh().with_telemetry(mounted());
        let (ms, out) = t.batch(
            "FleetRunner::run_scenarios [mounted]",
            ids.start,
            &mounted,
            &jobs,
        );
        t.check(&digests(&out), &want);
        mounted_ms.push(ms);
        let snap = out.stats.telemetry.expect("mounted batch has telemetry");
        steals += snap.counter(Counter::ShardSteals);
        snapshot = Some(snap);
    }
    let want = want.expect("at least one batch");
    let width1 = FleetRunner::new(seed)
        .with_threads(1)
        .with_cache(ResultCache::in_memory());
    let (ms1, out1) = t.batch(
        "FleetRunner::run_scenarios [width 1]",
        ids.start,
        &width1,
        &jobs,
    );
    t.check(&digests(&out1), &want);

    let rerun = rerun(&mut t.sp, &workload::seeded(jobs, seed), ids.clone());
    t.check(&rerun.digests, &want);
    t.traced_ns += rerun.solo_ns + rerun.platoon_ns;
    t.untraced_ns += (ms1 * 1e6) as u64;

    let ms = stats::median(&default_ms);
    t.put(format!("fleet.batch_ms.{tag}"), ms, reps);
    t.put(format!("fleet.batch_ms.width1.{tag}"), ms1, 1);
    t.put(format!("executor.speedup.{tag}"), ms1 / ms, reps);
    t.put(
        format!("executor.steals.{tag}"),
        steals as f64 / reps as f64,
        reps,
    );
    if w == Workload::SweepCold {
        let overhead = stats::median(&mounted_ms) / ms - 1.0;
        t.put("telemetry.mounted_overhead", overhead, reps);
    }
    ColdSweep {
        snapshot: snapshot.expect("at least one mounted batch"),
        rerun,
    }
}

/// Runner, cosim, MCC and V2V numbers from `sweep-cold`.
fn mcc_and_v2v(t: &mut TracedRun, cold: &ColdSweep) {
    let assemble = t.durations("SteppedRun::new", COLD, |_| true);
    let tick = t.durations(TICK, COLD, |s| !s.sim_ms.is_multiple_of(1000));
    let tick_1hz = t.durations(TICK, COLD, |s| s.sim_ms.is_multiple_of(1000));
    let finish = t.durations("SteppedRun::finish+Outcome::summary", COLD, |_| true);
    t.put_median("runner.assemble_us", &assemble, 1e3);
    t.put_median("runner.tick_ns", &tick, 1.0);
    t.put_median("runner.tick_1hz_ns", &tick_1hz, 1.0);
    t.put_median("runner.finish_us", &finish, 1e3);
    let r = &cold.rerun;
    let (solo, platoon) = (
        r.solo_ns as f64 / r.solo_ticks as f64,
        r.platoon_ns as f64 / r.member_ticks as f64,
    );
    t.put("runner.ns_per_vehicle_tick", solo, r.solo_ticks as usize);
    t.put("cosim.ns_per_member_tick", platoon, r.member_ticks as usize);
    let c = |k| cold.snapshot.counter(k) as f64;
    let counts = [
        ("mcc.switches", c(Counter::ContractSwitches)),
        ("mcc.rejected", c(Counter::ContractSwitchesRejected)),
        ("mcc.rolled_back", c(Counter::ContractSwitchesRolledBack)),
        ("v2v.sent", c(Counter::V2vSent)),
        ("v2v.dropped", c(Counter::V2vDropped)),
    ];
    for (name, value) in counts {
        t.put(name, value, 1);
    }
}

/// RTE, monitor, coordinator and tracer numbers from `overload`.
fn storm(t: &mut TracedRun, overload: &ColdSweep) {
    let horizon = &overload.rerun.horizon_ms;
    let first = t.durations(TICK, OVERLOAD, |s| s.sim_ms <= 60_000);
    let last = t.durations(TICK, OVERLOAD, |s| {
        s.sim_ms + 60_000 > horizon[(s.job - OVERLOAD.start) as usize]
    });
    t.put_median("runner.tick_ns.first_min", &first, 1.0);
    t.put_median("runner.tick_ns.last_min", &last, 1.0);
    let c = |k| overload.snapshot.counter(k) as f64;
    let routed = c(Counter::EscalationsRouted);
    let counts = [
        ("rte.deadline_misses", c(Counter::DeadlineMisses)),
        ("monitor.anomalies", c(Counter::AnomaliesRaised)),
        ("coordinator.escalations", routed),
        (
            "coordinator.resolved_ratio",
            c(Counter::EscalationsResolved) / routed,
        ),
        ("tracer.entries", overload.rerun.trace_entries as f64),
    ];
    for (name, value) in counts {
        t.put(name, value, 1);
    }
}

/// The warm re-sweep: the fill, the serial re-run of the fill's jobs, the
/// cache's public calls one by one, and warm batches at both widths.
fn warm(t: &mut TracedRun) {
    let jobs = workload::short_jobs();
    let cache = ResultCache::in_memory();
    let runner = FleetRunner::new(t.seed).with_cache(cache.clone());
    let width1 = FleetRunner::new(t.seed)
        .with_threads(1)
        .with_cache(cache.clone());
    // Filled inline, like a timed run's set-up.
    let (_, fill) = t.batch(
        "FleetRunner::run_scenarios [fill, width 1]",
        WARM.start,
        &width1,
        &jobs,
    );
    let fill_digests = digests(&fill);
    let want =
        digest::recorded(workload::WARM_SWEEP, t.seed).unwrap_or_else(|| fill_digests.clone());
    t.check(&fill_digests, &want);

    let seeded = workload::seeded(jobs.clone(), t.seed);
    let rerun = rerun(&mut t.sp, &seeded, WARM);
    t.check(&rerun.digests, &want);

    // The cache's public calls, one by one, on a private cache.
    let probe = ResultCache::in_memory();
    let mut miss_insert = Vec::with_capacity(seeded.len());
    for (i, (s, summary)) in seeded.iter().zip(rerun.summaries).enumerate() {
        let job = WARM.start + i as u32;
        let key = t.sp.time("cache::job_key", job, || job_key(s));
        let get = t.sp.enter("ResultCache::get [miss]", job);
        let miss = probe.get(key);
        t.sp.exit(get, 0);
        assert!(miss.is_none(), "fresh cache holds nothing");
        let insert = t.sp.enter("ResultCache::insert", job);
        probe.insert(key, Arc::new(summary));
        t.sp.exit(insert, 0);
        miss_insert.push((t.sp.get(get).ns() + t.sp.get(insert).ns()) as f64);
    }
    let mut hits = Vec::with_capacity(seeded.len());
    for _ in 0..WARM_PROBES {
        hits.clear();
        for (i, s) in seeded.iter().enumerate() {
            let job = WARM.start + i as u32;
            let key = t.sp.time("cache::job_key", job, || job_key(s));
            let hit = t.sp.time("ResultCache::get [hit]", job, || probe.get(key));
            hits.push(digest::summary(&hit.expect("inserted above")));
        }
        t.check(&hits, &want);
    }
    let key = t.durations("cache::job_key", WARM, |_| true);
    let hit = t.durations("ResultCache::get [hit]", WARM, |_| true);
    t.put_median("cache.key_ns", &key, 1.0);
    t.put_median("cache.hit_ns", &hit, 1.0);
    t.put_median("cache.miss_insert_ns", &miss_insert, 1.0);

    // Warm batches: default width, width 1, mounted.
    let before = cache.stats();
    let sink = mounted();
    let with_sink = FleetRunner::new(t.seed)
        .with_cache(cache.clone())
        .with_telemetry(sink.clone());
    let mut ms = [Vec::new(), Vec::new()];
    for _ in 0..WARM_BATCHES {
        for (k, (name, r)) in [
            ("FleetRunner::run_scenarios [warm]", &runner),
            ("FleetRunner::run_scenarios [warm, width 1]", &width1),
        ]
        .into_iter()
        .enumerate()
        {
            let (batch_ms, out) = t.batch(name, WARM.start, r, &jobs);
            ms[k].push(batch_ms);
            t.check(&digests(&out), &want);
        }
        let (_, out) = t.batch(
            "FleetRunner::run_scenarios [warm, mounted]",
            WARM.start,
            &with_sink,
            &jobs,
        );
        t.check(&digests(&out), &want);
    }
    let after = cache.stats();
    let (default_ms, width1_ms) = (stats::median(&ms[0]), stats::median(&ms[1]));
    t.put("fleet.batch_ms.warm", default_ms, WARM_BATCHES);
    t.put("fleet.batch_ms.width1.warm", width1_ms, WARM_BATCHES);
    t.put(
        "executor.speedup.warm",
        width1_ms / default_ms,
        WARM_BATCHES,
    );
    t.put(
        "executor.steals.warm",
        sink.steals() as f64 / WARM_BATCHES as f64,
        WARM_BATCHES,
    );
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    t.put(
        "cache.hit_ratio",
        (after.hits - before.hits) as f64 / lookups as f64,
        lookups as usize,
    );
}

/// Runs a city scenario untimed per tick, one sample per simulated
/// second; returns the samples (µs), the whole wall time (ns) and the
/// output digest.
fn city_ops(mut run: CityRun) -> (Vec<f64>, u64, u64) {
    let start = Instant::now();
    let mut samples = Vec::new();
    while !run.done() {
        let op = Instant::now();
        for _ in 0..workload::TICKS_PER_CITY_OP {
            run.tick();
        }
        samples.push(op.elapsed().as_secs_f64() * 1e6);
    }
    let out = run.finish();
    (
        samples,
        start.elapsed().as_nanos() as u64,
        digest::city(&out),
    )
}

/// `city`: a traced run at default width, untraced runs at default width
/// and at width 1, and a mounted run.
fn city(t: &mut TracedRun) {
    let s = workload::city_scenario(t.seed);
    let job = CITY.start;
    let span = t.sp.enter("job", job);
    let mut run = t.sp.time("CityRun::new", job, || CityRun::new(&s));
    while !run.done() {
        let tick = t.sp.enter(CITY_TICK, job);
        run.tick();
        let now = run.now_millis();
        t.sp.exit(tick, now);
    }
    let out = t.sp.time("CityRun::finish", job, || run.finish());
    t.sp.exit(span, 0);
    let traced_ns = t.sp.get(span).ns();
    let traced = digest::city(&out);

    let (ops, wall_ns, untraced) = city_ops(CityRun::new(&s));
    let mut one = s.clone();
    one.city = one.city.map(|c| c.with_threads(1));
    let (width1, _, narrow) = city_ops(CityRun::new(&one));
    let sink = mounted();
    let (mounted_ops, _, observed) = city_ops(CityRun::with_telemetry(&s, &sink));
    let want = digest::recorded(Workload::City.name(), t.seed).map_or(untraced, |d| d[0]);
    t.check(&[traced, untraced, narrow, observed], &[want; 4]);
    t.traced_ns += traced_ns;
    t.untraced_ns += wall_ns;

    let assemble = t.durations("CityRun::new", CITY, |_| true);
    let tick = t.durations(CITY_TICK, CITY, |s| !s.sim_ms.is_multiple_of(1000));
    let tick_1hz = t.durations(CITY_TICK, CITY, |s| s.sim_ms.is_multiple_of(1000));
    t.put_median("city.assemble_ms", &assemble, 1e6);
    t.put_median("city.tick_us", &tick, 1e3);
    t.put_median("city.tick_1hz_us", &tick_1hz, 1e3);
    t.put_median("city.op_us.width1", &width1, 1.0);
    let c = out.city.as_ref().expect("city run has a tier record");
    let counts = [
        (
            "city.surrogate_vehicle_ticks",
            c.surrogate_vehicle_ticks as f64,
        ),
        ("city.full_vehicle_ticks", c.full_vehicle_ticks as f64),
        ("city.promotions", c.promotions as f64),
        ("city.max_full_tier", c.max_full_tier as f64),
        (
            "pool.tick_barriers",
            sink.snapshot().counter(Counter::TickBarriers) as f64,
        ),
        (
            "telemetry.mounted_overhead.city",
            stats::median(&mounted_ops) / stats::median(&ops) - 1.0,
        ),
    ];
    for (name, value) in counts {
        t.put(name, value, 1);
    }
}

/// `SurrogateTraffic::step` on a store laid out like the city chain.
fn surrogate(t: &mut TracedRun) {
    let spec = CitySpec::new(workload::CITY_BACKGROUND, workload::CITY_FOCAL);
    let mut store = SurrogateTraffic::with_capacity(spec.idm, spec.total());
    for slot in 0..spec.total() {
        store.push_vehicle(-(slot as f64) * spec.initial_gap_m, spec.cruise_mps);
    }
    for k in 0..spec.focal {
        store.set_mirrored(spec.focal_slot(k), true);
    }
    let dt = Duration::from_millis(10);
    for _ in 0..SURROGATE_STEPS {
        t.sp.time("SurrogateTraffic::step", CITY.start + 1, || store.step(dt));
    }
    let steps = t.durations("SurrogateTraffic::step", CITY, |_| true);
    let per_vehicle = stats::median(&steps) / store.surrogate_count() as f64;
    t.put("surrogate.ns_per_vehicle_tick", per_vehicle, steps.len());
}

/// Whether a span goes into the exported trace: every span except the
/// 100 Hz ticks, of which only the 1 Hz ones are kept.
pub fn exported(s: &Span) -> bool {
    !(s.name == TICK || s.name == CITY_TICK) || s.sim_ms.is_multiple_of(1000)
}
