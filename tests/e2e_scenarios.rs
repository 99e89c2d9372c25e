//! End-to-end invariants of the assembled self-aware vehicle across
//! scenarios, strategies and seeds — the paper's qualitative claims as
//! executable checks.

use saav::core::layer::{Directive, DirectiveBoard, Layer, Posting};
use saav::core::{runner, ResponseStrategy, Scenario};
use saav::skills::decision::DrivingMode;

#[test]
fn no_strategy_ever_collides_in_the_intrusion_scenario() {
    for strategy in [
        ResponseStrategy::SingleLayer,
        ResponseStrategy::CrossLayer,
        ResponseStrategy::ObjectiveStop,
    ] {
        for seed in [1, 42, 1234] {
            let out = runner::run(Scenario::intrusion(strategy, seed));
            assert!(!out.collision, "{strategy:?} seed {seed}");
        }
    }
}

#[test]
fn cross_layer_keeps_the_mission_objective_stop_aborts_it() {
    for seed in [1, 42] {
        let cross = runner::run(Scenario::intrusion(ResponseStrategy::CrossLayer, seed));
        let stop = runner::run(Scenario::intrusion(ResponseStrategy::ObjectiveStop, seed));
        assert!(cross.distance_m > stop.distance_m, "seed {seed}");
        assert!(
            matches!(stop.final_mode, DrivingMode::SafeStop),
            "seed {seed}"
        );
        assert!(
            !matches!(cross.final_mode, DrivingMode::SafeStop),
            "seed {seed}: cross-layer should keep driving"
        );
    }
}

#[test]
fn propagation_chains_bounded_in_every_run() {
    for strategy in [
        ResponseStrategy::SingleLayer,
        ResponseStrategy::CrossLayer,
        ResponseStrategy::ObjectiveStop,
    ] {
        for scenario in [
            Scenario::intrusion(strategy, 7),
            Scenario::thermal(75.0, strategy, 7),
            Scenario::fog(0.8, 7),
        ] {
            let out = runner::run(scenario);
            assert!(
                out.max_hops <= Layer::ALL.len(),
                "{}: {} hops",
                out.label,
                out.max_hops
            );
        }
    }
}

#[test]
fn baseline_runs_are_quiet() {
    let out = runner::run(Scenario::baseline(9));
    assert!(
        out.actions.is_empty(),
        "unexpected actions: {:?}",
        out.actions
    );
    assert!(matches!(out.final_mode, DrivingMode::Normal));
    assert_eq!(out.conflicts, 0);
    assert!(out.ability.min().unwrap_or(1.0) > 0.9);
}

#[test]
fn fog_scenario_degrades_ability_and_caps_speed() {
    let out = runner::run(Scenario::fog(0.85, 11));
    // Ability sinks as the fog builds …
    assert!(out.ability.min().unwrap() < 0.7, "{:?}", out.ability.min());
    // … and the vehicle leaves Normal mode.
    assert!(
        !matches!(out.final_mode, DrivingMode::Normal),
        "mode {}",
        out.final_mode
    );
    assert!(!out.collision);
}

/// The paper's "conflicting decisions" guard: a safety-layer shutdown beats
/// an ability-layer keep-alive on the same subject, deterministically, and
/// the conflict is counted rather than silently dropped.
#[test]
fn directive_arbitration_is_deterministic_across_orders() {
    for order_flip in [false, true] {
        let mut board = DirectiveBoard::new();
        let posts: Vec<(Layer, Directive)> = if order_flip {
            vec![
                (Layer::Safety, Directive::Shutdown),
                (Layer::Ability, Directive::KeepAlive),
            ]
        } else {
            vec![
                (Layer::Ability, Directive::KeepAlive),
                (Layer::Safety, Directive::Shutdown),
            ]
        };
        for (layer, directive) in posts {
            let _ = board.post(layer, "brake_rear", directive);
        }
        let active: Vec<&Directive> = board.directives_for("brake_rear").collect();
        assert_eq!(active, vec![&Directive::Shutdown], "flip={order_flip}");
        assert_eq!(board.conflicts_detected(), 1);
    }
}

/// Re-posting after losing arbitration must not flip the decision.
#[test]
fn losing_layer_cannot_override_by_retrying() {
    let mut board = DirectiveBoard::new();
    board.post(Layer::Safety, "brake_rear", Directive::Shutdown);
    for _ in 0..10 {
        let posting = board.post(Layer::Ability, "brake_rear", Directive::KeepAlive);
        assert!(matches!(posting, Posting::Rejected { .. }));
    }
    let active: Vec<&Directive> = board.directives_for("brake_rear").collect();
    assert_eq!(active, vec![&Directive::Shutdown]);
}

/// Regression pin for the decomposition of the old `assembly` monolith into
/// `scenario`/`vehicle`/`runner`/`outcome`: the four legacy scenarios must
/// produce bit-identical outcomes to the pre-split implementation (values
/// captured from the monolith at the same seeds).
#[test]
fn legacy_scenarios_match_pre_split_outcomes() {
    struct Pin {
        scenario: Scenario,
        distance_m: f64,
        min_ttc_s: f64,
        first_detection: Option<Time>,
        mitigated_at: Option<Time>,
        max_hops: usize,
    }
    use saav::sim::time::Time;
    let pins = [
        Pin {
            scenario: Scenario::baseline(42),
            distance_m: 2655.5987078887974,
            min_ttc_s: 22.706776278531862,
            first_detection: None,
            mitigated_at: None,
            max_hops: 0,
        },
        Pin {
            scenario: Scenario::intrusion(ResponseStrategy::CrossLayer, 42),
            distance_m: 1986.045671846045,
            min_ttc_s: 19.37930592291164,
            first_detection: Some(Time::from_secs(30)),
            mitigated_at: Some(Time::from_secs(30)),
            max_hops: 3,
        },
        Pin {
            scenario: Scenario::intrusion(ResponseStrategy::SingleLayer, 42),
            distance_m: 2415.5982029119687,
            min_ttc_s: 4.9973027014473335,
            first_detection: Some(Time::from_secs(30)),
            mitigated_at: Some(Time::from_secs(120)),
            max_hops: 1,
        },
        Pin {
            scenario: Scenario::intrusion(ResponseStrategy::ObjectiveStop, 42),
            distance_m: 767.6873638396913,
            min_ttc_s: 22.706776278531862,
            first_detection: Some(Time::from_secs(30)),
            mitigated_at: Some(Time::from_secs(30)),
            max_hops: 4,
        },
        Pin {
            scenario: Scenario::thermal(75.0, ResponseStrategy::CrossLayer, 7),
            distance_m: 4489.997261188965,
            min_ttc_s: 22.772310460328885,
            first_detection: Some(Time::from_millis(132_670)),
            mitigated_at: Some(Time::from_millis(132_670)),
            max_hops: 4,
        },
        Pin {
            scenario: Scenario::fog(0.85, 11),
            distance_m: 1265.6772459548924,
            min_ttc_s: 22.724742954105963,
            first_detection: Some(Time::from_millis(45_990)),
            mitigated_at: Some(Time::from_millis(54_250)),
            max_hops: 1,
        },
    ];
    for pin in pins {
        let label = pin.scenario.label.clone();
        let out = runner::run(pin.scenario);
        assert_eq!(out.distance_m, pin.distance_m, "{label}: distance");
        assert_eq!(out.min_ttc_s, pin.min_ttc_s, "{label}: min TTC");
        assert_eq!(
            out.first_detection, pin.first_detection,
            "{label}: detection"
        );
        assert_eq!(out.mitigated_at, pin.mitigated_at, "{label}: mitigation");
        assert_eq!(out.max_hops, pin.max_hops, "{label}: hops");
        assert!(!out.collision, "{label}: collision");
    }
}

/// Regression pin for the multi-vehicle co-simulation refactor: the whole
/// pre-existing single-vehicle family grid (9 families × 3 strategies at
/// the E11 master seed) must stay bit-identical to its pre-refactor
/// outcomes. Values captured immediately before the runner was generalized
/// into `RunContext`/`cosim`.
#[test]
fn single_vehicle_family_grid_matches_pre_refactor_outcomes() {
    use saav::core::fleet::FleetRunner;
    use saav::core::ScenarioFamily;
    use saav::sim::time::Time;

    // (label, distance_m, min_ttc_s, first_detection_ms, mitigated_ms,
    //  collision)
    #[allow(clippy::type_complexity)]
    let pins: [(&str, f64, f64, Option<u64>, Option<u64>, bool); 27] = [
        (
            "baseline/SingleLayer",
            2655.6096207429023,
            22.73132662840534,
            None,
            None,
            false,
        ),
        (
            "baseline/CrossLayer",
            2655.5993874472642,
            22.68218580640534,
            None,
            None,
            false,
        ),
        (
            "baseline/ObjectiveStop",
            2655.6046809133177,
            22.672082326576465,
            None,
            None,
            false,
        ),
        (
            "intrusion/SingleLayer",
            2415.5926939318942,
            4.985810373716022,
            Some(30000),
            Some(120000),
            false,
        ),
        (
            "intrusion/CrossLayer",
            1985.9007293542893,
            19.270391757088138,
            Some(30000),
            Some(30000),
            false,
        ),
        (
            "intrusion/ObjectiveStop",
            767.693542151088,
            22.710907787680743,
            Some(30000),
            Some(30000),
            false,
        ),
        (
            "thermal/SingleLayer",
            5295.580078982967,
            22.780172236718617,
            Some(132700),
            Some(239990),
            false,
        ),
        (
            "thermal/CrossLayer",
            4490.296144162489,
            22.616517346213577,
            Some(132710),
            Some(132710),
            false,
        ),
        (
            "thermal/ObjectiveStop",
            3026.4188108250287,
            22.72226135831422,
            Some(132670),
            Some(240000),
            false,
        ),
        (
            "fog/SingleLayer",
            1275.5669023736625,
            22.69903465722875,
            Some(46400),
            Some(56810),
            false,
        ),
        (
            "fog/CrossLayer",
            1207.826396779265,
            22.684994561829004,
            Some(42810),
            Some(53850),
            false,
        ),
        (
            "fog/ObjectiveStop",
            1126.0139557260884,
            22.681193837712332,
            Some(46280),
            Some(52440),
            false,
        ),
        (
            "fog+intrusion/SingleLayer",
            1234.9657918891098,
            22.628845529277353,
            Some(42630),
            Some(120000),
            false,
        ),
        (
            "fog+intrusion/CrossLayer",
            1165.4933278888343,
            22.726667400091568,
            Some(39500),
            Some(53070),
            false,
        ),
        (
            "fog+intrusion/ObjectiveStop",
            1001.8819126678214,
            22.691368479688194,
            Some(40620),
            Some(47420),
            false,
        ),
        (
            "thermal+fog/SingleLayer",
            3975.5191666865085,
            22.745582331584384,
            Some(121320),
            Some(179990),
            false,
        ),
        (
            "thermal+fog/CrossLayer",
            2985.8604754186545,
            22.70941152194243,
            Some(121340),
            Some(179990),
            false,
        ),
        (
            "thermal+fog/ObjectiveStop",
            2777.44913106793,
            22.64352313602047,
            Some(121350),
            Some(180000),
            false,
        ),
        (
            "radar-dropout/SingleLayer",
            993.4216784389323,
            22.60704209967471,
            Some(40050),
            Some(40150),
            false,
        ),
        (
            "radar-dropout/CrossLayer",
            993.6476139243563,
            22.705820647941955,
            Some(40050),
            Some(40150),
            false,
        ),
        (
            "radar-dropout/ObjectiveStop",
            988.7173696635568,
            22.69884240452051,
            Some(40050),
            Some(40150),
            false,
        ),
        (
            "radar-noise/SingleLayer",
            1988.6851468947136,
            22.75651853908659,
            Some(30340),
            Some(48500),
            false,
        ),
        (
            "radar-noise/CrossLayer",
            1988.5826060361362,
            22.829597503036634,
            Some(30280),
            Some(50550),
            false,
        ),
        (
            "radar-noise/ObjectiveStop",
            774.6463530248625,
            22.721994500780408,
            Some(30310),
            Some(35170),
            false,
        ),
        (
            "stop-and-go/SingleLayer",
            1895.610208063012,
            4.427071924015948,
            None,
            None,
            false,
        ),
        (
            "stop-and-go/CrossLayer",
            1895.603270116097,
            4.418488324382605,
            None,
            None,
            false,
        ),
        (
            "stop-and-go/ObjectiveStop",
            1895.5906296472997,
            4.417741157657079,
            None,
            None,
            false,
        ),
    ];

    let fleet = FleetRunner::new(2024).sweep(&ScenarioFamily::ALL, &ResponseStrategy::ALL, 1);
    assert_eq!(fleet.records.len(), pins.len());
    for (rec, pin) in fleet.records.iter().zip(&pins) {
        let (label, distance_m, min_ttc_s, detected_ms, mitigated_ms, collision) = *pin;
        let s = &rec.summary;
        assert_eq!(s.label, label);
        assert_eq!(s.distance_m, distance_m, "{label}: distance");
        assert_eq!(s.min_ttc_s, min_ttc_s, "{label}: min TTC");
        assert_eq!(
            s.first_detection,
            detected_ms.map(Time::from_millis),
            "{label}: detection"
        );
        assert_eq!(
            s.mitigated_at,
            mitigated_ms.map(Time::from_millis),
            "{label}: mitigation"
        );
        assert_eq!(s.collision, collision, "{label}: collision");
        assert!(s.platoon.is_none(), "{label}: single-vehicle run");
    }
}

#[test]
fn determinism_same_seed_same_outcome() {
    let a = runner::run(Scenario::intrusion(ResponseStrategy::CrossLayer, 5));
    let b = runner::run(Scenario::intrusion(ResponseStrategy::CrossLayer, 5));
    assert_eq!(a.distance_m, b.distance_m);
    assert_eq!(a.first_detection, b.first_detection);
    assert_eq!(a.actions, b.actions);
    assert_eq!(a.max_hops, b.max_hops);
}
