//! End-to-end invariants of the multi-vehicle co-simulation: lockstep
//! physics on the shared road, V2V-coupled negotiation, trust-based
//! ejection through the standard escalation path, and determinism.

use saav::can::v2v::LinkFault;
use saav::core::fleet::FleetRunner;
use saav::core::runner;
use saav::core::scenario::{PlatoonSpec, ResponseStrategy, Scenario, ScenarioFamily};
use saav::sim::time::Duration;

fn liar_low(seed: u64) -> Scenario {
    ScenarioFamily::PlatoonLiarLow.build(ResponseStrategy::CrossLayer, seed)
}

#[test]
fn no_platoon_family_ever_collides() {
    for family in ScenarioFamily::PLATOON {
        for strategy in ResponseStrategy::ALL {
            let out = runner::run(family.build(strategy, 42));
            let p = out.platoon.as_ref().expect("platoon outcome");
            assert!(!out.collision, "{family}/{strategy:?}");
            assert_eq!(
                p.member_collisions(),
                0,
                "{family}/{strategy:?}: member collisions"
            );
        }
    }
}

#[test]
fn liar_ejection_flows_through_the_escalation_path() {
    let out = runner::run(liar_low(9));
    let p = out.platoon.as_ref().unwrap();
    // The liar is ejected and the cooperative containment is on record for
    // both sides: honest members eject, the liar leaves the platoon.
    assert_eq!(p.ejected_members(), vec![2]);
    assert!(out
        .actions
        .iter()
        .any(|a| a == "eject member2 from platoon"));
    assert!(out
        .actions
        .iter()
        .any(|a| a == "leave platoon, standalone ACC"));
    // Peer misbehavior was detected (it feeds `first_detection` like any
    // other anomaly) and resolved.
    assert!(out.first_detection.is_some());
    assert_eq!(out.resolution_rate, Some(1.0));
    // Trust: only the liar collapsed.
    for &(m, trust) in &p.final_trust {
        if m == 2 {
            assert_eq!(trust, 0.0);
        } else {
            assert!(trust > 0.9, "member {m} trust {trust}");
        }
    }
}

#[test]
fn ejection_restores_the_honest_agreement() {
    let out = runner::run(liar_low(4));
    let p = out.platoon.as_ref().unwrap();
    // While the liar is trusted, the robust minimum rejects its 2 m/s
    // low-ball (validity bound): the pre-ejection agreed speed is never
    // dragged below the slowest honest claim minus the protocol slack.
    let first_agreed = p.agreed_speed.iter().next().unwrap().1;
    assert!(first_agreed >= 20.0, "stalled at {first_agreed}");
    // Afterwards the agreement settles above it, at the honest robust min.
    assert_eq!(p.final_agreed_mps, Some(20.5));
}

#[test]
fn followers_hold_formation_behind_the_leader() {
    let out = runner::run(
        Scenario::builder("formation")
            .seed(11)
            .duration(Duration::from_secs(30))
            .platoon(PlatoonSpec::new(6))
            .build(),
    );
    let p = out.platoon.as_ref().unwrap();
    assert_eq!(p.members, 6);
    // Six vehicles at matched speeds never get near each other: the worst
    // gap across every member's world stays positive and sane.
    assert!(out.min_gap_m > 10.0, "min gap {}", out.min_gap_m);
    assert!(!out.collision);
    // Every member covered roughly the same ground (mean distance close to
    // the leader's own series).
    let leader_distance = out.speed.mean().unwrap() * 30.0;
    assert!(
        (out.distance_m - leader_distance).abs() / leader_distance < 0.2,
        "mean {} vs leader {leader_distance}",
        out.distance_m
    );
}

#[test]
fn lossy_links_delay_but_do_not_break_agreement() {
    let mut spec = PlatoonSpec::new(5);
    for m in 0..5 {
        spec = spec.with_link(
            m,
            LinkFault::lossy(0.5).with_delay(Duration::from_millis(200)),
        );
    }
    let out = runner::run(
        Scenario::builder("very-lossy")
            .seed(13)
            .duration(Duration::from_secs(20))
            .platoon(spec)
            .build(),
    );
    let p = out.platoon.as_ref().unwrap();
    assert!(p.converged_at.is_some(), "agreement despite 50% loss");
    assert!(p.ejections.is_empty(), "stale claims must not eject anyone");
    assert_eq!(p.final_agreed_mps, Some(22.0));
}

#[test]
fn spoofed_link_gets_the_victim_ejected() {
    // The member itself is honest — a man-in-the-middle rewrites its
    // broadcasts. The platoon cannot tell the difference and protects
    // itself the same way: trust collapse and ejection.
    let out = runner::run(
        Scenario::builder("spoofed")
            .seed(17)
            .duration(Duration::from_secs(20))
            .platoon(PlatoonSpec::new(5).with_link(1, LinkFault::spoofed(90.0)))
            .build(),
    );
    let p = out.platoon.as_ref().unwrap();
    assert_eq!(p.ejected_members(), vec![1]);
    assert_eq!(p.final_agreed_mps, Some(22.0), "agreement survives");
}

#[test]
fn cosim_outcomes_are_bit_identical_per_seed() {
    let a = runner::run(liar_low(21));
    let b = runner::run(liar_low(21));
    assert_eq!(a.distance_m, b.distance_m);
    assert_eq!(a.min_gap_m, b.min_gap_m);
    assert_eq!(a.min_ttc_s, b.min_ttc_s);
    assert_eq!(a.platoon, b.platoon);
    assert_eq!(a.actions, b.actions);
    // Different seeds move the (noisy) physics.
    let c = runner::run(liar_low(22));
    assert_ne!(a.distance_m, c.distance_m);
}

#[test]
fn platoon_fleet_records_thread_cooperative_summaries() {
    let jobs: Vec<Scenario> = (0..3)
        .map(|_| {
            let mut s = liar_low(0);
            s.duration = Duration::from_secs(8);
            s
        })
        .collect();
    let out = FleetRunner::new(77).with_threads(2).run_scenarios(jobs);
    assert_eq!(out.stats.runs, 3);
    assert_eq!(out.stats.ejections, 3, "one ejection per run");
    assert_eq!(out.stats.peer_collisions, 0);
    for rec in &out.records {
        let p = rec.summary.platoon.as_ref().expect("platoon summary");
        assert_eq!(p.members, 5);
        assert_eq!(p.ejected, vec![2]);
        assert!(rec.ejection_latency_s().is_some());
    }
}
