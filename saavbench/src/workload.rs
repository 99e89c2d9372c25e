//! The three workloads and their timed closed loops.
//!
//! Each workload is one caller in one process: the next batch (sweeps)
//! or the next simulated second (city) is issued only when the previous
//! one returned. Fleet and city run at the program's default width.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration as Wall, Instant};

use saav_core::cache::ResultCache;
use saav_core::city::CityRun;
use saav_core::fleet::FleetRunner;
use saav_core::scenario::{CitySpec, ResponseStrategy, Scenario, ScenarioFamily};
use saav_sim::rng::derive_seed;
use saav_sim::time::Duration;

use crate::alloc::{self, HeapSpan};
use crate::digest::{self, Tally};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold batches of the 41 library cells outside [`Workload::Overload`].
    SweepCold,
    /// Cold batches of the 10 cells whose thermal deadline misses are
    /// never repaired.
    Overload,
    /// One long 10,000-background + 4-focal city run.
    City,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::SweepCold, Workload::Overload, Workload::City];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep-cold",
            Workload::Overload => "overload",
            Workload::City => "city",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SweepCold => {
                "41 cold library cells: the nominal 100 Hz full-stack tick and the platoon round dominate; cache and executor do almost nothing"
            }
            Workload::Overload => {
                "10 cold cells with unrepaired thermal deadline misses: RTE backlog, deadline-miss monitor storm and coordinator escalation dominate"
            }
            Workload::City => {
                "10,000 surrogate + 4 focal vehicles at default intra-run width: surrogate IDM passes, TickPool dispatch and 1 Hz promotion dominate"
            }
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One output digest per job slot, for this workload at `seed`:
    /// recorded when that seed was recorded, otherwise recomputed through
    /// the reference path.
    pub fn expected(self, seed: u64) -> (Vec<Option<u64>>, &'static str) {
        match digest::recorded(self.name(), seed) {
            Some(d) => (d.into_iter().map(Some).collect(), "recorded"),
            None => (digest::reference(&self.reference_jobs(seed)), "reference"),
        }
    }

    /// The workload's jobs with their final seeds, as the reference path
    /// runs them: the fleet's jobs as the fleet seeds them, the city run
    /// at width 1.
    pub fn reference_jobs(self, seed: u64) -> Vec<Scenario> {
        match self {
            Workload::City => {
                let mut s = city_scenario(seed);
                s.city = s.city.map(|c| c.with_threads(1));
                vec![s]
            }
            _ => seeded(self.jobs(), seed),
        }
    }

    /// The fleet jobs of a sweep workload, seeds still unset (the fleet
    /// derives them from its master seed and the job index).
    pub fn jobs(self) -> Vec<Scenario> {
        match self {
            Workload::SweepCold => cells().filter(|&c| !is_overload(c)).map(build).collect(),
            Workload::Overload => cells().filter(|&c| is_overload(c)).map(build).collect(),
            Workload::City => Vec::new(),
        }
    }
}

/// Simulated horizon of the short copies of the 51 cells (s).
pub const SHORT_HORIZON_S: u64 = 20;
/// The name the short copies' digests are recorded under. They are the
/// sweeps' set-up warm-up and the traced run's warm re-sweep, not a timed
/// workload: warm batches are mostly the executor's thread start-up, which
/// CPU steal slows fivefold (README fact F17).
pub const WARM_SWEEP: &str = "sweep-warm";
/// Background vehicles of the city run.
pub const CITY_BACKGROUND: usize = 10_000;
/// Focal vehicles of the city run.
pub const CITY_FOCAL: usize = 4;
/// Simulated horizon of one city run (s).
pub const CITY_HORIZON_S: u64 = 300;
/// Ticks in one city operation: one simulated second at 100 Hz, which
/// includes exactly one 1 Hz promotion pass.
pub const TICKS_PER_CITY_OP: usize = 100;
/// Untimed city operations at the end of each set-up.
pub const CITY_WARMUP_OPS: usize = 30;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

type Cell = (ScenarioFamily, ResponseStrategy);

/// The 51 library cells, `ScenarioFamily × ResponseStrategy`: E11, E13
/// and E17 in report order.
fn cells() -> impl Iterator<Item = Cell> {
    ScenarioFamily::ALL
        .into_iter()
        .chain(ScenarioFamily::PLATOON)
        .chain(ScenarioFamily::DYNAMIC)
        .flat_map(|f| ResponseStrategy::ALL.into_iter().map(move |s| (f, s)))
}

/// The cells whose thermal deadline misses are never repaired: every
/// thermal family under SingleLayer and ObjectiveStop.
fn is_overload((family, strategy): Cell) -> bool {
    use ScenarioFamily::*;
    matches!(
        family,
        Thermal | ThermalFog | ThermalPressure | RejectedFallback | ReconfigRollback
    ) && strategy != ResponseStrategy::CrossLayer
}

fn build((family, strategy): Cell) -> Scenario {
    family.build(strategy, 0)
}

/// Short-horizon copies of all 51 cells, one seed each.
pub fn short_jobs() -> Vec<Scenario> {
    cells()
        .map(|c| {
            let mut s = build(c);
            s.duration = Duration::from_secs(SHORT_HORIZON_S);
            s
        })
        .collect()
}

/// Gives each job the seed the fleet would: `derive_seed(master, index)`.
pub fn seeded(mut jobs: Vec<Scenario>, master: u64) -> Vec<Scenario> {
    for (i, s) in jobs.iter_mut().enumerate() {
        s.seed = derive_seed(master, i as u64);
    }
    jobs
}

/// The city scenario: `CitySpec` defaults, seeded by the workload seed.
pub fn city_scenario(seed: u64) -> Scenario {
    Scenario::builder("bench/city")
        .seed(seed)
        .duration(Duration::from_secs(CITY_HORIZON_S))
        .city(CitySpec::new(CITY_BACKGROUND, CITY_FOCAL))
        .build()
}

/// Samples kept per run: 512 KiB of `f64`, allocated before measuring.
const SAMPLE_CAPACITY: usize = 1 << 16;

/// Timing samples kept in a buffer allocated before measuring starts, so
/// their storage stays out of `peak_heap_mb`. When the buffer is full,
/// every other kept sample is dropped and the keep-stride doubles, so a
/// run of any length keeps an evenly spaced subsample of its operations.
pub struct Samples {
    kept: Vec<f64>,
    stride: u64,
    seen: u64,
}

impl Samples {
    /// An empty buffer holding up to `capacity` (even) samples.
    pub fn with_capacity(capacity: usize) -> Self {
        Samples {
            kept: Vec::with_capacity(capacity),
            stride: 1,
            seen: 0,
        }
    }

    /// Offers one sample.
    pub fn push(&mut self, value: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == self.kept.capacity() {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(value);
            }
        }
        self.seen += 1;
    }

    /// Samples offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Samples kept, in arrival order.
    pub fn kept(&self) -> &[f64] {
        &self.kept
    }
}

/// What one timed run measured.
pub struct Measured {
    /// Host µs per operation, one sample per batch (sweeps) or per
    /// simulated second (city).
    pub samples_us: Samples,
    /// Wall time of each set-up (s).
    pub setup_s: Vec<f64>,
    /// The largest heap of any set-up or timed operation (see
    /// [`alloc::HeapSpan`]), above the heap live when the workload started.
    pub peak_heap_bytes: usize,
    /// Every operation's output digest.
    pub tally: Tally,
}

/// Runs `workload`'s closed loop for `seconds`, setting it up
/// [`SETUP_REPS`] times along the way (see [`setup_due`]). Output digests
/// are taken after each operation returns, outside its timed interval.
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> Measured {
    let budget = Wall::from_secs_f64(seconds);
    let jobs = workload.reference_jobs(seed).len();
    let mut m = Measured {
        samples_us: Samples::with_capacity(SAMPLE_CAPACITY),
        setup_s: Vec::with_capacity(SETUP_REPS),
        peak_heap_bytes: 0,
        tally: Tally::new(jobs),
    };
    let baseline = alloc::live_bytes();
    match workload {
        Workload::City => measure_city(&mut m, seed, budget),
        _ => measure_sweep(&mut m, workload, seed, budget),
    }
    m.peak_heap_bytes = m.peak_heap_bytes.saturating_sub(baseline);
    m
}

/// Raises `peak` to the heap of `span` so far.
fn observe(peak: &mut usize, span: &HeapSpan) {
    *peak = (*peak).max(span.heap_bytes());
}

/// A sweep's set-up: its inputs, and an untimed warm-up batch of the 51
/// short-horizon jobs run inline (width 1) into an in-memory cache. Every
/// timed batch gets a fresh cache instead. Run inline, the warm-up's time
/// does not depend on how two workers' jobs happen to overlap.
fn sweep_setup(workload: Workload, seed: u64) -> Vec<Scenario> {
    let jobs = workload.jobs();
    FleetRunner::new(seed)
        .with_threads(1)
        .with_cache(ResultCache::in_memory())
        .run_scenarios(short_jobs());
    jobs
}

/// Whether the next of the run's [`SETUP_REPS`] set-ups is due. The k-th
/// is due k/[`SETUP_REPS`] of the way through the budget, so the set-ups
/// sample the host across the whole run instead of its first seconds:
/// the host's speed drifts over seconds, and seven set-ups made back to
/// back spread twice as much between runs as seven made 2.3 s apart. Any
/// still owed when the budget is spent are made then.
fn setup_due(m: &Measured, start: Instant, budget: Wall) -> bool {
    let done = m.setup_s.len();
    done < SETUP_REPS && start.elapsed() >= budget.mul_f64(done as f64 / SETUP_REPS as f64)
}

/// Whether the run is over: the budget is spent, and every set-up and at
/// least one timed operation were made.
fn finished(m: &Measured, start: Instant, budget: Wall) -> bool {
    start.elapsed() >= budget && m.setup_s.len() == SETUP_REPS && m.samples_us.seen() > 0
}

/// Times one set-up, dropping the previous state first.
fn set_up<T>(m: &mut Measured, state: &mut Option<T>, setup: impl FnOnce() -> T) {
    drop(state.take());
    let span = HeapSpan::start();
    let t = Instant::now();
    *state = Some(setup());
    m.setup_s.push(t.elapsed().as_secs_f64());
    observe(&mut m.peak_heap_bytes, &span);
}

fn measure_sweep(m: &mut Measured, workload: Workload, seed: u64, budget: Wall) {
    let start = Instant::now();
    let mut state = None;
    while !finished(m, start, budget) {
        if setup_due(m, start, budget) {
            set_up(m, &mut state, || sweep_setup(workload, seed));
            continue;
        }
        let jobs = state.as_ref().expect("the first set-up is due at once");
        let n = jobs.len();
        let batch = jobs.clone();
        let runner = FleetRunner::new(seed).with_cache(ResultCache::in_memory());
        let span = HeapSpan::start();
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| runner.run_scenarios(batch)));
        let wall = t.elapsed();
        observe(&mut m.peak_heap_bytes, &span);
        match out {
            Ok(out) => {
                for (i, r) in out.records.iter().enumerate() {
                    m.tally.record(i, digest::summary(&r.summary), 1);
                }
            }
            Err(_) => m.tally.record_panic(n as u64),
        }
        m.samples_us.push(wall.as_secs_f64() * 1e6 / n as f64);
    }
}

/// Runs one city operation: one simulated second.
fn city_op(run: &mut CityRun) {
    for _ in 0..TICKS_PER_CITY_OP {
        run.tick();
    }
}

/// The city's set-up: the scenario, the engine and an untimed warm-up
/// of [`CITY_WARMUP_OPS`] simulated seconds.
fn city_setup(seed: u64) -> CityRun {
    let mut run = CityRun::new(&city_scenario(seed));
    for _ in 0..CITY_WARMUP_OPS {
        city_op(&mut run);
    }
    run
}

/// Every city run starts from a set-up, which is timed when one is due;
/// the run then goes on to its horizon, so that the output of its timed
/// operations can be checked.
fn measure_city(m: &mut Measured, seed: u64, budget: Wall) {
    let start = Instant::now();
    let mut state = None;
    while !finished(m, start, budget) {
        if setup_due(m, start, budget) {
            set_up(m, &mut state, || city_setup(seed));
        }
        if start.elapsed() >= budget && m.samples_us.seen() > 0 {
            // Only owed set-ups are left.
            continue;
        }
        let mut run = state.take().unwrap_or_else(|| city_setup(seed));
        let mut ops = 0;
        let samples = &mut m.samples_us;
        let peak = &mut m.peak_heap_bytes;
        let out = catch_unwind(AssertUnwindSafe(|| {
            while !run.done() {
                if samples.seen() == 0 || start.elapsed() < budget {
                    let span = HeapSpan::start();
                    let t = Instant::now();
                    city_op(&mut run);
                    samples.push(t.elapsed().as_secs_f64() * 1e6);
                    observe(peak, &span);
                    ops += 1;
                } else {
                    // Out of time: finish the run untimed so the output of
                    // its timed operations can still be checked.
                    run.tick();
                }
            }
            digest::city(&run.finish())
        }));
        match out {
            Ok(d) => m.tally.record(0, d, ops),
            Err(_) => m.tally.record_panic(ops),
        }
    }
}
