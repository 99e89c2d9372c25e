//! Allocation and heap pins for the hot tick paths.
//!
//! The whole binary runs under a counting wrapper around the system
//! allocator. Most pins warm a simulation up past its start-up
//! allocations (series buffers, scheduler queues, CAN queues), then
//! count heap allocations across a window of nominal ticks placed
//! between the 1 Hz recording instants and assert the count is zero.
//! Any future `clone()`, `format!()` or `Vec` growth snuck into a tick
//! path fails these tests rather than silently costing 100 Hz × fleet.
//!
//! The wrapper also tracks live heap bytes and their peak, so a heap pin
//! can bound what a whole run keeps: an escalation storm must not keep
//! memory per problem it routes.
//!
//! The count is process-wide, so fleet worker threads are counted too.
//! That is why the binary has no test harness (`harness = false` in the
//! root manifest): [`main`] runs the pins one after another on the main
//! thread, and no harness thread can allocate inside another pin's
//! counting window. `cargo test --test zero_alloc [FILTER]` prints
//! one libtest-style line per pin.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use saav::core::cache::ResultCache;
use saav::core::fleet::FleetRunner;
use saav::core::runner::{self, SteppedRun};
use saav::core::scenario::{CitySpec, PlatoonSpec, ResponseStrategy, Scenario, ScenarioFamily};
use saav::core::telemetry::{Stage, Telemetry};
use saav::sim::time::Duration;
use saav::vehicle::{IdmParams, SurrogateTraffic};

/// Forwards to the system allocator, counting allocations (and
/// reallocations) while [`COUNTING`] is set and tracking live bytes and
/// their peak at all times.
struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's. The bookkeeping only updates
// atomics: it never allocates and never touches the memory handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new_ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting on and returns how many heap
/// allocations it performed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// Runs `f` and returns the peak of live heap bytes it reached above the
/// live bytes at its start.
fn peak_heap_bytes(f: impl FnOnce()) -> usize {
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst) - start
}

/// The nominal single-vehicle tick path allocates nothing: platform,
/// scheduler, plant, CAN pump, monitor scan, ability propagation — the
/// full per-control-period stack — run allocation-free once warm. With
/// no telemetry sink mounted this also pins the unmounted-telemetry
/// plumbing (the `Option<&mut RunTelemetry>` threading) at zero cost.
/// The window deliberately dodges the whole-second instants, where the
/// 1 Hz series push is *allowed* to grow its buffers.
fn nominal_tick_path_is_allocation_free() {
    let mut scenario = ScenarioFamily::Baseline.build(ResponseStrategy::CrossLayer, 42);
    scenario.duration = Duration::from_secs(30);
    let mut sim = SteppedRun::new(&scenario);
    // Warm up through two whole-second instants so every ring buffer,
    // queue and series has reached steady-state capacity.
    while sim.now_millis() < 2_000 {
        sim.tick();
    }
    assert_eq!(sim.now_millis() % 1_000, 0, "warmup must end on a second");
    let allocs = count_allocs(|| {
        for _ in 0..99 {
            sim.tick();
        }
    });
    assert_eq!(
        allocs, 0,
        "nominal tick path allocated {allocs} times in 99 ticks"
    );
    assert_eq!(sim.now_millis(), 2_990);
}

/// A *mounted* telemetry sink stays off the heap too: the trace ring is
/// sized once at `begin_run`, and counters, histograms and stage counts
/// are fixed arrays — so the steady-state tick is allocation-free with
/// telemetry on, not just off.
fn mounted_telemetry_tick_is_allocation_free() {
    let mut scenario = ScenarioFamily::Baseline.build(ResponseStrategy::CrossLayer, 42);
    scenario.duration = Duration::from_secs(30);
    let sink = Telemetry::default();
    let mut sim = SteppedRun::with_telemetry(&scenario, &sink);
    while sim.now_millis() < 2_000 {
        sim.tick();
    }
    let allocs = count_allocs(|| {
        for _ in 0..99 {
            sim.tick();
        }
    });
    assert_eq!(
        allocs, 0,
        "mounted-telemetry tick path allocated {allocs} times in 99 ticks"
    );
    let _ = sim.finish();
    assert!(
        sink.snapshot().stage_calls_of(Stage::Runner) > 0,
        "no runner stages counted"
    );
}

/// A fully-warm cache-hit fleet sweep performs zero allocations *per
/// job*: hashing the job identity, the cache lookup and the `Arc` share
/// of the cached summary are all allocation-free, so a warm sweep's
/// total allocation count is a small constant (result vector, stats
/// buffers) that does not grow with the job count. Pinned by exact
/// equality between a 6-job and a 24-job warm sweep on the inline
/// single-thread path, and between that path and a 3-worker runner, which
/// answers every hit on the calling thread and so spawns no worker.
fn warm_cache_sweep_allocations_are_independent_of_job_count() {
    // Index i in both batch sizes maps to the same scenario, so the
    // 24-job batch's first 6 jobs are identical to the 6-job batch
    // (seeds derive from the index) and one cache serves both.
    let jobs = |n: usize| -> Vec<Scenario> {
        (0..n)
            .map(|i| {
                let family = [
                    ScenarioFamily::Baseline,
                    ScenarioFamily::Intrusion,
                    ScenarioFamily::StopAndGo,
                ][i % 3];
                let mut s = family.build(ResponseStrategy::ALL[i % 3], 0);
                s.duration = Duration::from_secs(4);
                s
            })
            .collect()
    };
    let cache = ResultCache::in_memory();
    let inline = FleetRunner::new(11)
        .with_threads(1)
        .with_cache(cache.clone());
    // Cold passes populate every slot of both batch sizes.
    let _ = inline.run_scenarios(jobs(6));
    let _ = inline.run_scenarios(jobs(24));
    assert_eq!(cache.stats().misses, 24, "6-job batch is a prefix of 24");

    // Jobs are built outside the counting window; the sweep itself runs
    // inside it. Keep the outcome alive past the window so its drop (not
    // counted anyway) cannot confuse the comparison.
    let (small, large) = (jobs(6), jobs(24));
    // Preallocated so `keep.push` itself never allocates mid-window.
    let mut keep = Vec::with_capacity(4);
    let allocs_6 = count_allocs(|| keep.push(inline.run_scenarios(small)));
    let (small2, large2) = (jobs(6), jobs(24));
    let allocs_24 = count_allocs(|| keep.push(inline.run_scenarios(large)));
    assert_eq!(
        allocs_6, allocs_24,
        "inline warm sweep allocations grew with job count: \
         {allocs_6} at 6 jobs vs {allocs_24} at 24 jobs"
    );
    assert!(
        allocs_24 <= 16,
        "inline warm sweep performed {allocs_24} allocations — \
         the per-sweep constant overhead grew"
    );

    // Every hit is answered on the calling thread, so a warm batch never
    // reaches the executor: three workers allocate exactly as often as
    // the inline loop.
    let wide = FleetRunner::new(11)
        .with_threads(3)
        .with_cache(cache.clone());
    let allocs_6_mt = count_allocs(|| keep.push(wide.run_scenarios(small2)));
    let allocs_24_mt = count_allocs(|| keep.push(wide.run_scenarios(large2)));
    assert_eq!(
        (allocs_6_mt, allocs_24_mt),
        (allocs_6, allocs_24),
        "3-worker warm sweep allocated differently from the inline one"
    );
    assert_eq!(cache.stats().misses, 24, "warm sweeps must never miss");
    drop(keep);
}

/// The city engine allocates nothing in steady state, unmounted or with
/// a telemetry sink mounted: 40 background + 2 focal vehicles, warmed up
/// past the promotion churn of the first seconds. The window dodges the
/// whole-second instants, where promotion/demotion and the 1 Hz series
/// pushes are *allowed* to allocate.
fn city_tick_path_is_allocation_free_single_thread() {
    let scenario = Scenario::builder("alloc/city")
        .seed(3)
        .duration(Duration::from_secs(30))
        .city(CitySpec::new(40, 2))
        .build();
    let mut sim = SteppedRun::new(&scenario);
    while sim.now_millis() < 2_000 {
        sim.tick();
    }
    assert_eq!(sim.now_millis() % 1_000, 0, "warmup must end on a second");
    let allocs = count_allocs(|| {
        for _ in 0..99 {
            sim.tick();
        }
    });
    assert_eq!(allocs, 0, "city tick allocated {allocs} times in 99 ticks");

    let sink = Telemetry::default();
    let mut sim = SteppedRun::with_telemetry(&scenario, &sink);
    while sim.now_millis() < 2_000 {
        sim.tick();
    }
    let allocs = count_allocs(|| {
        for _ in 0..99 {
            sim.tick();
        }
    });
    assert_eq!(
        allocs, 0,
        "mounted city tick allocated {allocs} times in 99 ticks"
    );
    let _ = sim.finish();
    assert!(
        sink.snapshot().stage_calls_of(Stage::Surrogate) > 0,
        "no surrogate stages counted"
    );
}

/// The platoon engine allocates nothing in steady state, unmounted or
/// with a telemetry sink mounted: four members ticking in lockstep, each
/// coupled to the vehicle ahead. Negotiation rounds fire on whole seconds
/// at the default period, outside the window, like the 1 Hz recording.
fn platoon_tick_path_is_allocation_free() {
    let scenario = Scenario::builder("alloc/platoon")
        .seed(3)
        .duration(Duration::from_secs(30))
        .platoon(PlatoonSpec::new(4))
        .build();
    let sink = Telemetry::default();
    for mounted in [false, true] {
        let mut sim = if mounted {
            SteppedRun::with_telemetry(&scenario, &sink)
        } else {
            SteppedRun::new(&scenario)
        };
        while sim.now_millis() < 2_000 {
            sim.tick();
        }
        assert_eq!(sim.now_millis() % 1_000, 0, "warmup must end on a second");
        let allocs = count_allocs(|| {
            for _ in 0..99 {
                sim.tick();
            }
        });
        assert_eq!(
            allocs, 0,
            "platoon tick (telemetry mounted: {mounted}) allocated {allocs} times in 99 ticks"
        );
        let _ = sim.finish();
    }
    assert!(
        sink.snapshot().stage_calls_of(Stage::Platoon) > 0,
        "no platoon stages counted"
    );
}

/// The surrogate-tier batch update is allocation-free from the very
/// first step: the struct-of-arrays lanes are sized at construction and
/// the three passes touch nothing but them.
fn surrogate_store_step_is_allocation_free() {
    let mut store = SurrogateTraffic::new(IdmParams::default());
    for i in 0..1_000 {
        store.push_vehicle(-30.0 * i as f64, 22.0);
    }
    let dt = Duration::from_millis(10);
    let allocs = count_allocs(|| {
        for _ in 0..1_000 {
            store.step(dt);
        }
    });
    assert_eq!(
        allocs, 0,
        "surrogate step allocated {allocs} times in 1,000 batch ticks"
    );
    assert!(!store.collision(), "warm chain must stay collision-free");
}

/// An escalation storm keeps no memory per problem it routes: the worst
/// storm jobs (unrepaired deadline misses escalating to the objective
/// layer, and an intrusion whose single-layer response never quarantines
/// the flooding component) each peak under 1 MiB of heap over a whole
/// `runner::run`, returned outcome included.
fn escalation_storm_peak_heap_is_bounded() {
    const LIMIT: usize = 1 << 20;
    for (family, strategy) in [
        (
            ScenarioFamily::ReconfigRollback,
            ResponseStrategy::ObjectiveStop,
        ),
        (ScenarioFamily::Thermal, ResponseStrategy::ObjectiveStop),
        (ScenarioFamily::Intrusion, ResponseStrategy::SingleLayer),
    ] {
        let scenario = family.build(strategy, 2017);
        let label = scenario.label.clone();
        let peak = peak_heap_bytes(|| drop(runner::run(scenario)));
        println!(
            "  {label}: peak heap {:.2} MiB",
            peak as f64 / (1u64 << 20) as f64
        );
        assert!(
            peak < LIMIT,
            "{label} peaked at {peak} heap bytes (limit {LIMIT})"
        );
    }
}

/// A whole storm second allocates nothing. Under ObjectiveStop, deadline
/// misses escalate to the objective layer on every tick; under
/// SingleLayer, an intrusion's compromised rear brake stays unquarantined
/// and its capability probe is denied on every tick. Each problem is
/// counted, routed and contained without a string, a log entry or a
/// buffer that grows. The deadline-miss window is the 100 ticks after
/// t = 200 s, the intrusion window the 100 after t = 60 s, 1 Hz instant
/// included: by then each 1 Hz series holds 200 samples in 256 slots (60
/// in 64), so the push at the end of the window does not grow it.
fn escalation_storm_second_is_allocation_free() {
    for (family, strategy, from_s) in [
        (
            ScenarioFamily::Thermal,
            ResponseStrategy::ObjectiveStop,
            200,
        ),
        (
            ScenarioFamily::ReconfigRollback,
            ResponseStrategy::ObjectiveStop,
            200,
        ),
        (ScenarioFamily::Intrusion, ResponseStrategy::SingleLayer, 60),
        (
            ScenarioFamily::FogIntrusion,
            ResponseStrategy::SingleLayer,
            60,
        ),
    ] {
        let scenario = family.build(strategy, 2017);
        let label = scenario.label.clone();
        let mut sim = SteppedRun::new(&scenario);
        while sim.now_millis() < from_s * 1_000 {
            sim.tick();
        }
        let allocs = count_allocs(|| {
            for _ in 0..100 {
                sim.tick();
            }
        });
        assert_eq!(sim.now_millis(), (from_s + 1) * 1_000, "{label}");
        assert_eq!(
            allocs, 0,
            "{label}: storm second allocated {allocs} times in 100 ticks"
        );
        let out = sim.finish();
        assert!(out.first_detection.is_some(), "{label}: no storm detected");
    }
}

/// A storm that never ends keeps no memory per tick: the single-layer
/// intrusion never quarantines the flooding component, so it escalates on
/// every tick until the horizon. Doubling the horizon from 240 s to 480 s
/// adds only the 1 Hz series' growth to the run's peak heap, under 64 KiB.
fn storm_heap_does_not_grow_with_horizon() {
    const SLACK: usize = 64 << 10;
    let peak_at = |secs: u64| {
        let mut scenario = ScenarioFamily::Intrusion.build(ResponseStrategy::SingleLayer, 2017);
        scenario.duration = Duration::from_secs(secs);
        peak_heap_bytes(|| drop(runner::run(scenario)))
    };
    let (short, long) = (peak_at(240), peak_at(480));
    println!(
        "  intrusion/SingleLayer: peak heap {:.3} MiB at 240 s, {:.3} MiB at 480 s",
        short as f64 / (1u64 << 20) as f64,
        long as f64 / (1u64 << 20) as f64
    );
    assert!(
        long < short + SLACK,
        "peak heap grew with the horizon: {short} bytes at 240 s, {long} at 480 s"
    );
}

/// Pairs each pin with its name.
macro_rules! pins {
    ($($pin:ident),* $(,)?) => {
        [$((stringify!($pin), $pin as fn())),*]
    };
}

/// The pins, in the order [`main`] runs them.
const PINS: [(&str, fn()); 9] = pins![
    nominal_tick_path_is_allocation_free,
    mounted_telemetry_tick_is_allocation_free,
    warm_cache_sweep_allocations_are_independent_of_job_count,
    city_tick_path_is_allocation_free_single_thread,
    platoon_tick_path_is_allocation_free,
    surrogate_store_step_is_allocation_free,
    escalation_storm_peak_heap_is_bounded,
    escalation_storm_second_is_allocation_free,
    storm_heap_does_not_grow_with_horizon,
];

/// Harness options that take the next argument as their value.
const VALUE_OPTIONS: [&str; 6] = [
    "--test-threads",
    "--skip",
    "--format",
    "--color",
    "--logfile",
    "-Z",
];

/// Runs the selected pins on the main thread and reports them the way
/// libtest does. Understands the harness arguments `cargo test` forwards
/// that select pins (name filters, `--exact`, `--skip`, `--ignored`,
/// `--list`) and accepts the rest.
fn main() {
    let (mut filters, mut skips) = (Vec::new(), Vec::new());
    let (mut exact, mut ignored_only, mut list) = (false, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exact" => exact = true,
            "--ignored" => ignored_only = true,
            "--list" => list = true,
            "--skip" => skips.extend(args.next()),
            a if VALUE_OPTIONS.contains(&a) => drop(args.next()),
            a if a.starts_with('-') => {}
            _ => filters.push(arg),
        }
    }
    let matches = |name: &str, pattern: &String| {
        if exact {
            name == pattern
        } else {
            name.contains(pattern.as_str())
        }
    };
    // No pin is `#[ignore]`d, so `--ignored` selects none of them.
    let selected: Vec<_> = PINS
        .iter()
        .filter(|(name, _)| {
            !ignored_only
                && (filters.is_empty() || filters.iter().any(|f| matches(name, f)))
                && !skips.iter().any(|s| matches(name, s))
        })
        .collect();
    if list {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        return;
    }
    let started = Instant::now();
    println!("\nrunning {} tests", selected.len());
    let mut failed = Vec::new();
    for &&(name, pin) in &selected {
        let passed = catch_unwind(AssertUnwindSafe(pin)).is_ok();
        // A pin that panicked inside its window leaves counting on.
        COUNTING.store(false, Ordering::SeqCst);
        println!("test {name} ... {}", if passed { "ok" } else { "FAILED" });
        if !passed {
            failed.push(name);
        }
    }
    if !failed.is_empty() {
        println!("\nfailures:");
        for name in &failed {
            println!("    {name}");
        }
    }
    println!(
        "\ntest result: {}. {} passed; {} failed; 0 ignored; 0 measured; {} filtered out; \
         finished in {:.2}s\n",
        if failed.is_empty() { "ok" } else { "FAILED" },
        selected.len() - failed.len(),
        failed.len(),
        PINS.len() - selected.len(),
        started.elapsed().as_secs_f64()
    );
    if !failed.is_empty() {
        std::process::exit(101);
    }
}
