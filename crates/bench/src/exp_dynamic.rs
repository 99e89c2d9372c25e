//! E17: live contract renegotiation — what the MCC-in-the-loop resolves
//! that static contracts cannot.
//!
//! The claim: with the multi-change controller mounted in the runtime
//! loop, thermal pressure is answered by *renegotiating* the execution
//! contracts — the lowrate swap is admitted through the full viewpoint
//! battery, an infeasible full-rate update is rejected with a deterministic
//! fallback, and an admitted switch is rolled back once the pressure
//! clears. With reconfiguration disabled (static contracts), the same
//! scenarios keep their deadline misses. The three
//! [`ScenarioFamily::DYNAMIC`] families script exactly these paths.
//!
//! [`e17_outcome`] runs every live scenario **twice** and asserts outcome,
//! trace and registry snapshot are rerun-identical; the fleet batch runs on
//! 1 and 4 workers and must match bit-for-bit. On top of the batch, a
//! [`FleetCoordinator`] observes the telemetry snapshot, renegotiates the
//! fleet-wide batch budget through its own MCC, and reallocates the seed
//! budget toward the degrading families — then rolls the nominal budget
//! back in after a calm batch.

use std::sync::OnceLock;

use saav_core::fleet::{FleetCoordinator, FleetDirective, FleetOutcome, FleetRunner};
use saav_core::outcome::Outcome;
use saav_core::runner;
use saav_core::scenario::{ResponseStrategy, Scenario, ScenarioFamily};
use saav_core::telemetry::{Counter, Telemetry, TelemetrySnapshot};
use saav_sim::report::{fmt_f64, Table};
use saav_sim::time::{Duration, Time};

/// Master seed of the E17 scenarios.
pub const E17_SEED: u64 = 2017;

/// One E17 run: a dynamic-reconfiguration scenario executed with either
/// live or static contracts, with its telemetry snapshot.
pub struct E17Run {
    /// The measured outcome.
    pub outcome: Outcome,
    /// The run's registry snapshot (switch counters, deadline misses).
    pub snapshot: TelemetrySnapshot,
}

impl E17Run {
    /// Admitted contract switches.
    pub fn accepted(&self) -> u64 {
        self.snapshot.counter(Counter::ContractSwitches)
    }

    /// Viewpoint-rejected negotiation attempts.
    pub fn rejected(&self) -> u64 {
        self.snapshot.counter(Counter::ContractSwitchesRejected)
    }

    /// Rolled-back switches.
    pub fn rolled_back(&self) -> u64 {
        self.snapshot.counter(Counter::ContractSwitchesRolledBack)
    }

    /// Worst deadline-miss rate after t=200 s — the "did the pressure
    /// stay resolved" metric (the runs last 240 s).
    pub fn tail_miss_rate(&self) -> f64 {
        self.outcome
            .miss_rate
            .iter()
            .filter(|(t, _)| *t > Time::from_secs(200))
            .map(|(_, v)| v)
            .fold(0.0f64, f64::max)
    }
}

/// One family of the E17 grid: the same scenario under static and live
/// contracts.
pub struct E17Row {
    /// Which dynamic-reconfiguration family.
    pub family: ScenarioFamily,
    /// The run with reconfiguration disabled.
    pub static_run: E17Run,
    /// The run with the MCC in the loop.
    pub live_run: E17Run,
}

/// One coordinator-steered fleet batch: observed pressure, the directive
/// and the resulting seed allocation.
pub struct E17Batch {
    /// Display label ("pressure batch", "calm batch").
    pub label: &'static str,
    /// Deadline misses per run observed in the batch.
    pub misses_per_run: f64,
    /// What the coordinator decided.
    pub directive: FleetDirective,
    /// Seed budget per family for the *next* batch.
    pub allocation: Vec<(ScenarioFamily, usize)>,
}

/// The completed E17 experiment.
pub struct E17Outcome {
    /// One row per [`ScenarioFamily::DYNAMIC`] family.
    pub rows: Vec<E17Row>,
    /// The coordinator-steered batches (pressure, then calm).
    pub batches: Vec<E17Batch>,
}

fn observed(scenario: Scenario) -> E17Run {
    let sink = Telemetry::default();
    let outcome = runner::run_observed(scenario, None, &sink);
    E17Run {
        outcome,
        snapshot: sink.snapshot(),
    }
}

fn live_scenario(family: ScenarioFamily) -> Scenario {
    family.build(ResponseStrategy::CrossLayer, E17_SEED)
}

fn static_scenario(family: ScenarioFamily) -> Scenario {
    let mut s = live_scenario(family);
    s.reconfig.live = false;
    s
}

fn run_family(family: ScenarioFamily) -> E17Row {
    let live_run = observed(live_scenario(family));
    let rerun = observed(live_scenario(family));
    assert_eq!(
        live_run.outcome.summary(),
        rerun.outcome.summary(),
        "{family}: live outcome must be rerun-identical"
    );
    assert_eq!(
        live_run.snapshot, rerun.snapshot,
        "{family}: live registry must be rerun-identical"
    );
    let static_run = observed(static_scenario(family));
    E17Row {
        family,
        static_run,
        live_run,
    }
}

/// The live E17 grid as fleet jobs (one per dynamic family, cross-layer).
fn pressure_jobs() -> Vec<Scenario> {
    ScenarioFamily::DYNAMIC
        .iter()
        .map(|&f| f.build(ResponseStrategy::CrossLayer, E17_SEED))
        .collect()
}

/// A calm batch: undisturbed baseline runs, one per dynamic-family seed
/// slot, so the coordinator sees the pressure clear.
fn calm_jobs() -> Vec<Scenario> {
    (0..3)
        .map(|i| {
            Scenario::builder(format!("e17-calm/{i}"))
                .seed(E17_SEED + i)
                .duration(Duration::from_secs(8))
                .build()
        })
        .collect()
}

fn misses_per_run(out: &FleetOutcome) -> f64 {
    let snap = out.stats.telemetry.as_ref().expect("telemetry mounted");
    snap.counter(Counter::DeadlineMisses) as f64 / out.stats.runs.max(1) as f64
}

fn coordinated_batches() -> Vec<E17Batch> {
    let batch = |jobs: Vec<Scenario>, workers: usize| {
        let sink = Telemetry::default();
        FleetRunner::new(E17_SEED)
            .with_threads(workers)
            .with_telemetry(sink.clone())
            .run_scenarios(jobs)
    };
    // The fleet layer is thread-count-invariant: same records, same
    // statistics and registry snapshot, on 1 and 4 workers.
    let pressure = batch(pressure_jobs(), 1);
    assert_eq!(
        pressure,
        batch(pressure_jobs(), 4),
        "E17 fleet batch must be thread-count-invariant"
    );

    // Even one deadline miss per run is pressure: the thermal batch sits
    // at one miss per run (the pre-switch blip), the calm batch at zero.
    let mut coordinator = FleetCoordinator::new().with_threshold(0.5);
    let families: Vec<ScenarioFamily> = ScenarioFamily::DYNAMIC.to_vec();

    let pressure_misses = misses_per_run(&pressure);
    let directive = coordinator.observe(&pressure.stats);
    assert_eq!(
        directive,
        FleetDirective::Degraded,
        "thermal batch ({pressure_misses:.1} misses/run) must degrade the budget"
    );
    let shifted = coordinator.reallocate(&families, &pressure, 4);
    assert_eq!(shifted.iter().map(|&(_, n)| n).sum::<usize>(), 12);

    let calm = batch(calm_jobs(), 2);
    let calm_misses = misses_per_run(&calm);
    let calm_directive = coordinator.observe(&calm.stats);
    assert_eq!(
        calm_directive,
        FleetDirective::RolledBack,
        "calm batch ({calm_misses:.2} misses/run) must roll the budget back"
    );
    let uniform = coordinator.reallocate(&families, &calm, 4);
    assert!(uniform.iter().all(|&(_, n)| n == 4));

    vec![
        E17Batch {
            label: "pressure batch",
            misses_per_run: pressure_misses,
            directive,
            allocation: shifted,
        },
        E17Batch {
            label: "calm batch",
            misses_per_run: calm_misses,
            directive: calm_directive,
            allocation: uniform,
        },
    ]
}

/// Runs E17 once per process (memoized like E15/E16, so the repro binary
/// and the test suite share one execution), asserting along the way that
/// every live run is rerun-identical, the fleet batch is
/// thread-count-invariant, and the three negotiation paths actually
/// happen: an admitted switch, a viewpoint rejection with fallback, and a
/// rollback.
pub fn e17_outcome() -> &'static E17Outcome {
    static OUT: OnceLock<E17Outcome> = OnceLock::new();
    OUT.get_or_init(|| {
        let rows: Vec<E17Row> = ScenarioFamily::DYNAMIC
            .iter()
            .map(|&f| run_family(f))
            .collect();
        for row in &rows {
            assert_eq!(
                row.static_run.accepted()
                    + row.static_run.rejected()
                    + row.static_run.rolled_back(),
                0,
                "{}: static contracts must never renegotiate",
                row.family
            );
        }
        let live = |f: ScenarioFamily| {
            &rows
                .iter()
                .find(|r| r.family == f)
                .expect("family present")
                .live_run
        };
        let admitted = live(ScenarioFamily::ThermalPressure);
        assert!(admitted.accepted() >= 1, "lowrate swap must be admitted");
        assert_eq!(
            admitted.rejected(),
            0,
            "nothing to reject on the direct path"
        );
        let fallback = live(ScenarioFamily::RejectedFallback);
        assert!(
            fallback.rejected() >= 1,
            "the full-rate update must be viewpoint-rejected"
        );
        assert!(
            fallback.accepted() >= 1,
            "the fallback must still be admitted"
        );
        let rollback = live(ScenarioFamily::ReconfigRollback);
        assert!(rollback.accepted() >= 1, "the swap must be admitted first");
        assert!(
            rollback.rolled_back() >= 1,
            "the admitted swap must roll back once the ambient cools"
        );
        E17Outcome {
            rows,
            batches: coordinated_batches(),
        }
    })
}

/// E17 as a printable table: per dynamic family, static vs live contracts.
pub fn e17_table() -> Table {
    let out = e17_outcome();
    let mut t = Table::new([
        "family",
        "contracts",
        "accepted",
        "rejected",
        "rolled back",
        "tail miss rate (last 40s)",
        "final mode",
    ])
    .with_title(
        "E17: live contract renegotiation — MCC-admitted reconfiguration vs \
         static contracts (bit-identical across reruns and 1/4 workers)",
    );
    for row in &out.rows {
        for (mode, run) in [("static", &row.static_run), ("live", &row.live_run)] {
            t.row([
                row.family.to_string(),
                mode.to_string(),
                run.accepted().to_string(),
                run.rejected().to_string(),
                run.rolled_back().to_string(),
                fmt_f64(run.tail_miss_rate(), 3),
                run.outcome.final_mode.to_string(),
            ]);
        }
    }
    t
}

/// E17b as a printable table: the fleet coordinator renegotiating the
/// batch budget and reallocating seeds between batches.
pub fn e17b_table() -> Table {
    let out = e17_outcome();
    let mut t = Table::new([
        "batch",
        "misses/run",
        "directive",
        "seed allocation (next batch)",
    ])
    .with_title(
        "E17b: fleet-level renegotiation — the coordinator degrades the batch \
             budget under pressure, shifts seeds toward degrading families, and \
             rolls back once the fleet calms",
    );
    for b in &out.batches {
        let alloc = b
            .allocation
            .iter()
            .map(|(f, n)| format!("{f}={n}"))
            .collect::<Vec<_>>()
            .join(", ");
        t.row([
            b.label.to_string(),
            fmt_f64(b.misses_per_run, 1),
            format!("{:?}", b.directive),
            alloc,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17_renegotiation_resolves_what_static_contracts_cannot() {
        let out = e17_outcome();
        // The direct-path family: live renegotiation keeps the tail quiet
        // while static contracts keep missing deadlines.
        let row = out
            .rows
            .iter()
            .find(|r| r.family == ScenarioFamily::ThermalPressure)
            .unwrap();
        assert!(
            row.static_run.tail_miss_rate() > row.live_run.tail_miss_rate(),
            "static {} vs live {}",
            row.static_run.tail_miss_rate(),
            row.live_run.tail_miss_rate()
        );
    }

    #[test]
    fn e17_tables_render() {
        let t = e17_table().render();
        assert!(t.contains("thermal-pressure"));
        assert!(t.contains("reconfig-rollback"));
        let b = e17b_table().render();
        assert!(b.contains("Degraded"));
        assert!(b.contains("RolledBack"));
    }
}
