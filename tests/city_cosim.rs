//! End-to-end determinism pins for the city-scale tiered-fidelity engine.
//!
//! The city engine's contract is that focal outcomes are a pure function
//! of `(scenario, seed)`: bit-identical across repeat runs, across
//! [`FleetRunner`] worker-thread counts, and under surrogate-store
//! capacity changes. The legacy single-vehicle and platoon families are
//! pinned the same way so the new engine's scheduling work cannot
//! silently perturb the E1–E13 reproduction.

use proptest::prelude::*;

use saav::core::fleet::FleetRunner;
use saav::core::runner;
use saav::core::scenario::{CitySpec, ResponseStrategy, Scenario, ScenarioEvent, ScenarioFamily};
use saav::sim::time::{Duration, Time};
use saav::vehicle::{IdmParams, SurrogateTraffic};

/// A small city batch spanning the interesting corners: no background,
/// dense background, one to three focal stacks, with a scripted intrusion
/// mid-run.
fn city_jobs() -> Vec<Scenario> {
    [(0usize, 2usize), (5, 1), (20, 2), (60, 3)]
        .iter()
        .map(|&(background, focal)| {
            Scenario::builder(format!("city/{background}b{focal}f"))
                .duration(Duration::from_secs(8))
                .at(Time::from_secs(3), ScenarioEvent::CompromiseRearBrake)
                .city(CitySpec::new(background, focal))
                .build()
        })
        .collect()
}

/// City batches are bit-identical regardless of how many fleet workers
/// execute them: the runner owns seeding per job index, and the engine
/// itself shares no state across jobs.
#[test]
fn city_fleet_is_bit_identical_across_thread_counts() {
    let base = FleetRunner::new(0xC17)
        .with_threads(1)
        .run_scenarios(city_jobs());
    assert!(
        base.records.iter().all(|r| r.summary.city.is_some()),
        "every record must carry a city summary"
    );
    assert!(
        base.records
            .iter()
            .any(|r| r.summary.first_detection.is_some()),
        "the scripted intrusion must be detected by some focal vehicle"
    );
    for threads in [2usize, 4, 8] {
        let other = FleetRunner::new(0xC17)
            .with_threads(threads)
            .run_scenarios(city_jobs());
        assert_eq!(
            base, other,
            "{threads}-thread batch diverged from the single-thread batch"
        );
    }
}

/// The legacy experiment families (the E1–E13 substrate) stay bit-identical
/// across worker counts too — the city engine rides the same dispatcher,
/// so this pins that nothing about the new path leaks into the old ones.
///
/// A 45 s intrusion job leads the 6 s family jobs, so the batch is skewed:
/// at 4 workers the long job holds one worker while the others claim
/// every job behind it from the shared queue. The schedule moves where a
/// job runs, never what it computes.
#[test]
fn legacy_families_are_bit_identical_across_thread_counts() {
    let jobs = || -> Vec<Scenario> {
        let mut heavy = ScenarioFamily::Intrusion.build(ResponseStrategy::CrossLayer, 0);
        heavy.duration = Duration::from_secs(45);
        let light = ScenarioFamily::ALL
            .iter()
            .chain(&ScenarioFamily::PLATOON)
            .map(|&family| {
                let mut s = family.build(ResponseStrategy::CrossLayer, 0);
                s.duration = Duration::from_secs(6);
                s
            });
        std::iter::once(heavy).chain(light).collect()
    };
    let single = FleetRunner::new(0xE1).with_threads(1).run_scenarios(jobs());
    let pooled = FleetRunner::new(0xE1).with_threads(4).run_scenarios(jobs());
    assert_eq!(
        single, pooled,
        "legacy family outcomes depend on the fleet thread count"
    );
}

proptest! {
    /// Running the same city scenario twice gives the same outcome, down
    /// to the last bit of every focal metric — across the whole
    /// (density, focal count, seed) space, not just the curated corners.
    #[test]
    fn city_runs_are_reproducible(
        background in 0usize..16,
        focal in 1usize..3,
        seed in any::<u64>(),
    ) {
        let scenario = |label: &str| {
            Scenario::builder(format!("prop/{label}"))
                .seed(seed)
                .duration(Duration::from_secs(2))
                .city(CitySpec::new(background, focal))
                .build()
        };
        let a = runner::run(scenario("a"));
        let b = runner::run(scenario("b"));
        prop_assert_eq!(a.city.as_ref(), b.city.as_ref());
        prop_assert_eq!(a.summary().city, b.summary().city);
        prop_assert_eq!(a.distance_m.to_bits(), b.distance_m.to_bits());
        prop_assert_eq!(a.first_detection, b.first_detection);
    }

    /// The surrogate tier's trajectory is a function of the chain alone:
    /// pre-reserving any capacity (or none) must not change a single bit
    /// of any vehicle's state at any step.
    #[test]
    fn surrogate_trajectory_is_invariant_to_store_capacity(
        n in 1usize..40,
        speed in 0.0f64..30.0,
        gap in 5.0f64..60.0,
        capacity in 0usize..5_000,
        steps in 1usize..150,
    ) {
        let mut lean = SurrogateTraffic::new(IdmParams::default());
        let mut roomy = SurrogateTraffic::with_capacity(IdmParams::default(), capacity);
        for i in 0..n {
            lean.push_vehicle(-(i as f64) * gap, speed);
            roomy.push_vehicle(-(i as f64) * gap, speed);
        }
        let dt = Duration::from_millis(10);
        for step in 0..steps {
            lean.step(dt);
            roomy.step(dt);
            for i in 0..n {
                prop_assert_eq!(
                    lean.position_m(i).to_bits(),
                    roomy.position_m(i).to_bits(),
                    "position diverged at step {} vehicle {}", step, i
                );
                prop_assert_eq!(
                    lean.speed_mps(i).to_bits(),
                    roomy.speed_mps(i).to_bits(),
                    "speed diverged at step {} vehicle {}", step, i
                );
            }
        }
        prop_assert_eq!(lean.min_gap_m().to_bits(), roomy.min_gap_m().to_bits());
        prop_assert_eq!(lean.collision(), roomy.collision());
    }
}
