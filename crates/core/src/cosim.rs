//! Multi-vehicle co-simulation: N self-aware vehicles advancing in
//! lockstep over a shared road, coupled by a V2V channel and a
//! trust-managed platoon.
//!
//! The engine generalizes the single-vehicle runner instead of duplicating
//! it: every member is a `RunContext` (the same construction and `tick`
//! stepping code the solo loop in [`crate::runner`] uses), staggered along
//! the road by [`VehicleWorld::set_road_offset_m`]. Member 0 — the leader —
//! follows the scenario's scripted lead; every other member's lead is an
//! externally-driven [`saav_vehicle::traffic::Participant`] that receives
//! the true state of the vehicle ahead each tick, so a hard brake at the
//! front physically ripples member to member.
//!
//! On the cooperation plane, each negotiation period every member
//! broadcasts its safe-speed claim (derived from its own ability level;
//! compromised members lie at the source) over a
//! [`saav_can::v2v::V2vChannel`] with per-link loss/delay/spoofing. The
//! received claims feed [`Platoon::negotiate_speed`]: the agreed speed is
//! the Byzantine-robust minimum, trust updates on every round, and a trust
//! collapse raises [`AnomalyKind::PeerMisbehavior`] on every member —
//! flowing through the *same* [`crate::coordinator::Coordinator::route`]
//! escalation path as any on-board anomaly, so cooperative containment
//! (eject the peer, or leave the platoon and fall back to standalone ACC)
//! reuses the single escalation mechanism.
//!
//! [`VehicleWorld::set_road_offset_m`]: saav_vehicle::world::VehicleWorld::set_road_offset_m

use saav_can::v2v::{PeerId, V2vChannel};
use saav_learn::SelfAwarenessModel;
use saav_monitor::anomaly::{Anomaly, AnomalyKind};
use saav_platoon::agreement::Behavior;
use saav_platoon::platoon::{MemberId, Platoon};
use saav_sim::name::Name;
use saav_sim::rng::derive_seed;
use saav_sim::series::Series;
use saav_sim::time::Time;
use saav_skills::decision::DrivingMode;
use saav_vehicle::traffic::LeadVehicle;

use crate::outcome::{Outcome, PlatoonOutcome};
use crate::runner::RunContext;
use crate::scenario::{PlatoonSpec, Scenario};
use crate::telemetry::{Counter, RunTelemetry, Stage, TelemetryEvent};

/// Runs a platoon scenario to completion and returns the composed
/// multi-vehicle [`Outcome`] (leader series + fleet-level safety fields +
/// the cooperative [`PlatoonOutcome`]).
///
/// # Panics
/// Panics if the scenario carries no [`PlatoonSpec`] or the spec is
/// degenerate (zero members or a zero negotiation period).
pub fn run_platoon(scenario: Scenario, model: Option<&SelfAwarenessModel>) -> Outcome {
    run_platoon_observed(scenario, model, None)
}

/// [`run_platoon`] with optional mounted telemetry: member ticks count
/// the runner/monitor stages, each negotiation round counts the platoon
/// stage, ejections become trace events and the V2V channel's traffic
/// counters land in the registry at run end.
pub(crate) fn run_platoon_observed(
    scenario: Scenario,
    model: Option<&SelfAwarenessModel>,
    mut tel: Option<&mut RunTelemetry>,
) -> Outcome {
    let spec = scenario.platoon.clone().expect("platoon scenario");
    assert!(spec.members >= 1, "platoon needs at least one member");
    assert!(
        !spec.negotiation_period.is_zero(),
        "negotiation period must be positive"
    );
    for lie in &spec.liars {
        assert!(
            lie.member < spec.members,
            "liar index {} out of range for a {}-member platoon",
            lie.member,
            spec.members
        );
    }
    for &(m, _) in &spec.links {
        assert!(
            m < spec.members,
            "link-fault index {m} out of range for a {}-member platoon",
            spec.members
        );
    }
    let n = spec.members;

    // --- members: one RunContext each, staggered along the shared road.
    // Members are built from the *borrowed* scenario plus per-member
    // overrides, so the event list is scheduled N times but never cloned.
    let mut members: Vec<RunContext> = (0..n)
        .map(|i| {
            let lead = if i > 0 {
                // Followers track the *real* vehicle ahead, not a script.
                LeadVehicle::external(spec.initial_gap_m, spec.cruise_mps)
            } else {
                scenario.lead.clone()
            };
            let mut ctx = RunContext::for_member(
                &scenario,
                format!("{}#m{i}", scenario.label),
                // Independent noise per member, reproducible from the
                // scenario seed alone.
                derive_seed(scenario.seed, i as u64),
                spec.cruise_mps,
                lead,
                model,
            );
            ctx.v
                .world
                .set_road_offset_m(-(i as f64) * spec.initial_gap_m);
            ctx.v.join_platoon(i);
            ctx
        })
        .collect();

    // --- cooperation plane: platoon + V2V channel ------------------------
    let mut platoon = Platoon::new(spec.max_faults);
    let mut last_claim: Vec<f64> = (0..n)
        .map(|i| {
            // Members join with their honest nominal claim; deceptions only
            // enter through the broadcast path below.
            let claim = (spec.cruise_mps + spec.delta(i)).max(0.0);
            platoon.join(claim, Behavior::Honest);
            claim
        })
        .collect();
    let mut channel = V2vChannel::new(n, derive_seed(scenario.seed, n as u64));
    for &(m, fault) in &spec.links {
        channel.set_link_fault(PeerId(m), fault);
    }

    let mut agreed_speed = Series::new();
    let mut converged_at: Option<Time> = None;
    let mut ejections: Vec<(usize, Time)> = Vec::new();
    let mut final_agreed: Option<f64> = None;

    // --- lockstep loop ---------------------------------------------------
    // Rounds fire from a next-due accumulator, not a modulo on `now`, so a
    // negotiation period that is no multiple of the 10 ms control period
    // still fires at (the tick after) every due instant instead of
    // stretching to the least common multiple.
    let end = Time::ZERO + scenario.duration;
    let mut now = Time::ZERO;
    let mut next_round = Time::ZERO + spec.negotiation_period;
    while now < end {
        now += crate::vehicle::CONTROL_PERIOD;
        for i in 0..n {
            if i > 0 {
                // Couple follower i to the fresh state of the vehicle
                // ahead (a Gauss–Seidel sweep front to back: deterministic
                // and one tick tighter than double buffering).
                let (ahead_pos, ahead_speed) = {
                    let w = &members[i - 1].v.world;
                    (w.abs_position_m(), w.ego.speed_mps())
                };
                members[i].v.world.push_lead_state(ahead_pos, ahead_speed);
            }
            members[i].tick(tel.as_deref_mut());
        }
        if now >= next_round {
            while next_round <= now {
                next_round += spec.negotiation_period;
            }
            negotiate_round(
                now,
                &spec,
                &mut members,
                &mut platoon,
                &mut channel,
                &mut last_claim,
                &mut agreed_speed,
                &mut converged_at,
                &mut ejections,
                &mut final_agreed,
                tel.as_deref_mut(),
            );
            if let Some(t) = tel.as_deref_mut() {
                t.count_stage(Stage::Platoon);
            }
        }
    }

    if let Some(t) = tel {
        t.count(Counter::V2vSent, channel.sent());
        t.count(Counter::V2vDropped, channel.dropped());
        t.count(Counter::V2vDelayed, channel.delayed());
    }

    compose_outcome(
        scenario,
        members,
        PlatoonOutcome {
            members: n,
            collisions: Vec::new(), // filled from the member outcomes below
            agreed_speed,
            converged_at,
            ejections,
            final_agreed_mps: final_agreed,
            final_trust: platoon
                .trust_table()
                .into_iter()
                .map(|(id, t)| (id.0, t))
                .collect(),
        },
    )
}

/// A member's honest safe-speed claim: its nominal cruise speed scaled by
/// its *own current ability level* plus its capability offset — the same
/// value whether it is broadcast to the platoon or driven to standalone.
fn honest_claim(spec: &PlatoonSpec, member: usize, root_level: f64) -> f64 {
    (spec.cruise_mps * root_level + spec.delta(member)).max(0.0)
}

/// The anomaly subject naming platoon member `member` — the *single*
/// definition both the engine (raising [`AnomalyKind::PeerMisbehavior`])
/// and the vehicle's containment (deciding "a peer misbehaves" vs "I was
/// ejected") compare against. The engines intern the subjects up front;
/// the containment side uses the parse-based [`is_member_subject`] so the
/// hot path never formats a fresh string to compare against.
pub(crate) fn member_subject(member: usize) -> Name {
    Name::from(format!("member{member}"))
}

/// Whether `subject` names platoon member `member` — the allocation-free
/// inverse of [`member_subject`].
pub(crate) fn is_member_subject(subject: &str, member: usize) -> bool {
    subject
        .strip_prefix("member")
        .and_then(|rest| rest.parse::<usize>().ok())
        == Some(member)
}

/// How far a trusted member's received claim may sit from the negotiated
/// speed before the platoon counts as *not yet mutually agreed*: wide
/// enough for heterogeneous capability offsets and sensing noise, an
/// order of magnitude tighter than a useful lie.
const CLAIM_COHERENCE_MPS: f64 = 2.5;

/// One broadcast → deliver → negotiate → contain cycle.
#[allow(clippy::too_many_arguments)]
fn negotiate_round(
    now: Time,
    spec: &PlatoonSpec,
    members: &mut [RunContext],
    platoon: &mut Platoon,
    channel: &mut V2vChannel,
    last_claim: &mut [f64],
    agreed_speed: &mut Series,
    converged_at: &mut Option<Time>,
    ejections: &mut Vec<(usize, Time)>,
    final_agreed: &mut Option<f64>,
    mut tel: Option<&mut RunTelemetry>,
) {
    let n = members.len();
    // 1. Every cooperating member broadcasts its safe-speed claim. The
    //    honest claim scales the nominal cruise speed by the member's own
    //    ability level (self-awareness feeding cooperation); compromised
    //    members lie at the source.
    for (i, member) in members.iter().enumerate() {
        if !member.v.platoon_active() {
            continue;
        }
        let honest = honest_claim(spec, i, member.v.abilities.root_level());
        let claim = spec.lie_of(i).unwrap_or(honest);
        channel.broadcast(now, PeerId(i), claim);
    }
    // 2. Deliveries refresh the shared claim table; lost broadcasts leave
    //    the previous (stale) claim in place.
    for msg in channel.poll_due(now) {
        last_claim[msg.from.0] = msg.claim_mps;
    }
    for (i, &claim) in last_claim.iter().enumerate().take(n) {
        if platoon.trust(MemberId(i)) > 0.0 {
            platoon.set_safe_speed(MemberId(i), claim);
        }
    }
    // 3. Negotiate; on quorum loss the platoon disbands to standalone ACC.
    match platoon.negotiate_speed() {
        Ok(neg) => {
            agreed_speed.push(now, neg.speed_mps);
            *final_agreed = Some(neg.speed_mps);
            // The platoon counts as *converged* the first round every
            // still-trusted member's received claim is coherent with the
            // negotiated speed. (The protocol's own per-round convergence
            // bit is vacuous with honest protocol behaviors: scalar claims
            // agree within one trimmed-mean round. Mutual claim coherence
            // is the cooperative quantity — a liar keeps it false until
            // the trust layer ejects it.)
            if converged_at.is_none()
                && neg.agreement.converged
                && (0..n)
                    .filter(|&i| platoon.trust(MemberId(i)) > 0.0)
                    .all(|i| (last_claim[i] - neg.speed_mps).abs() <= CLAIM_COHERENCE_MPS)
            {
                *converged_at = Some(now);
            }
            // 4. Trust collapses become PeerMisbehavior anomalies on every
            //    cooperating member — the standard escalation path decides
            //    the cooperative containment.
            for id in &neg.ejected {
                ejections.push((id.0, now));
                if let Some(t) = tel.as_deref_mut() {
                    t.record(
                        now,
                        TelemetryEvent::PlatoonEjection {
                            member: id.0 as u32,
                        },
                    );
                }
                for member in members.iter_mut() {
                    if !member.v.platoon_active() {
                        continue;
                    }
                    member.raise(
                        tel.as_deref_mut(),
                        Anomaly::new(
                            now,
                            member_subject(id.0),
                            AnomalyKind::PeerMisbehavior,
                            format!(
                                "trust collapsed after repeated deviation from the \
                             agreed {:.1} m/s",
                                neg.agreement.agreed_value()
                            ),
                        ),
                    );
                }
            }
        }
        Err(err) => {
            for member in members.iter_mut() {
                if member.v.platoon_active() {
                    member.v.platoon_active = false;
                    member
                        .v
                        .tracer
                        .warn(now, "cosim", format!("platoon disbanded: {err}"));
                }
            }
        }
    }
    // 5. Refresh every member's cruise target — *outside* the match so a
    //    disbanded platoon keeps tracking its members' abilities. Members
    //    still cooperating adopt the latest agreed speed; everyone else
    //    (ejected or disbanded) drives standalone ACC at its own honest
    //    ability-derived safe speed, re-evaluated each round.
    for (i, member) in members.iter_mut().enumerate() {
        let target = match (member.v.platoon_active(), *final_agreed) {
            (true, Some(agreed)) => agreed,
            (true, None) => continue, // no agreement yet: keep the HMI default
            (false, _) => honest_claim(spec, i, member.v.abilities.root_level()),
        };
        member.v.world.hmi.set_speed_mps = target;
    }
}

/// Composes the member outcomes into one multi-vehicle [`Outcome`]: leader
/// series, fleet-worst safety fields, merged escalation statistics and the
/// cooperative record.
fn compose_outcome(
    scenario: Scenario,
    members: Vec<RunContext>,
    platoon: PlatoonOutcome,
) -> Outcome {
    // Resolution statistics merge exactly: resolved / total over all
    // members' coordinators.
    let (resolved, total) = members.iter().fold((0usize, 0usize), |(r, t), m| {
        (r + m.v.coordinator.resolved(), t + m.v.coordinator.routed())
    });
    let outcomes: Vec<Outcome> = members.into_iter().map(RunContext::finish).collect();

    let severity = |mode: DrivingMode| match mode {
        DrivingMode::Normal => 0,
        DrivingMode::Reduced { .. } => 1,
        DrivingMode::SafeStop => 2,
    };
    let final_mode = outcomes
        .iter()
        .map(|o| o.final_mode)
        .max_by_key(|&m| severity(m))
        .expect("at least one member");
    let min_opt = |values: Vec<Option<Time>>| values.into_iter().flatten().min();
    let mut actions: Vec<String> = Vec::new();
    for o in &outcomes {
        for a in &o.actions {
            if !actions.contains(a) {
                actions.push(a.clone());
            }
        }
    }

    let platoon = PlatoonOutcome {
        collisions: outcomes.iter().map(|o| o.collision).collect(),
        ..platoon
    };
    let n = outcomes.len() as f64;
    let distance_m = outcomes.iter().map(|o| o.distance_m).sum::<f64>() / n;
    let min_gap_m = outcomes
        .iter()
        .map(|o| o.min_gap_m)
        .fold(f64::INFINITY, f64::min);
    let min_ttc_s = outcomes
        .iter()
        .map(|o| o.min_ttc_s)
        .fold(f64::INFINITY, f64::min);
    let collision = outcomes.iter().any(|o| o.collision);
    let first_detection = min_opt(outcomes.iter().map(|o| o.first_detection).collect());
    let first_model_deviation = min_opt(outcomes.iter().map(|o| o.first_model_deviation).collect());
    let mitigated_at = outcomes.iter().filter_map(|o| o.mitigated_at).max();
    let conflicts = outcomes.iter().map(|o| o.conflicts).sum();
    let max_hops = outcomes.iter().map(|o| o.max_hops).max().unwrap_or(0);
    let leader = outcomes.into_iter().next().expect("at least one member");

    Outcome {
        label: scenario.label,
        speed: leader.speed,
        ability: leader.ability,
        miss_rate: leader.miss_rate,
        temp_c: leader.temp_c,
        speed_factor: leader.speed_factor,
        model_score: leader.model_score,
        final_mode,
        min_gap_m,
        min_ttc_s,
        collision,
        distance_m,
        first_detection,
        first_model_deviation,
        mitigated_at,
        actions,
        conflicts,
        max_hops,
        resolution_rate: (total > 0).then(|| resolved as f64 / total as f64),
        trace: leader.trace,
        platoon: Some(platoon),
        city: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ResponseStrategy, ScenarioFamily};
    use saav_sim::time::Duration;

    fn short_platoon(members: usize, seed: u64) -> Scenario {
        Scenario::builder("cosim-test")
            .seed(seed)
            .duration(Duration::from_secs(10))
            .platoon(PlatoonSpec::new(members))
            .build()
    }

    #[test]
    fn healthy_platoon_converges_and_holds_formation() {
        let out = crate::runner::run(short_platoon(4, 7));
        let p = out.platoon.as_ref().expect("platoon outcome");
        assert_eq!(p.members, 4);
        assert_eq!(p.collisions, vec![false; 4]);
        assert!(!out.collision);
        assert!(p.converged_at.is_some(), "honest members must agree");
        assert!(p.ejections.is_empty());
        // The agreed speed is the robust minimum of homogeneous honest
        // claims: the nominal cruise speed.
        let agreed = p.final_agreed_mps.expect("negotiations ran");
        assert!((agreed - 22.0).abs() < 1e-9, "{agreed}");
        assert!(p.final_trust.iter().all(|&(_, t)| t == 1.0));
        // Nobody rear-ended anybody while the formation tightened.
        assert!(out.min_gap_m > 0.0);
    }

    #[test]
    fn solo_platoon_of_one_matches_engine_invariants() {
        // The 1-member platoon is the degenerate co-simulation: no peers,
        // f = 0, the member agrees with itself.
        let out = crate::runner::run(short_platoon(1, 3));
        let p = out.platoon.as_ref().unwrap();
        assert_eq!(p.members, 1);
        assert!(p.converged_at.is_some());
        assert_eq!(p.final_agreed_mps, Some(22.0));
    }

    #[test]
    fn quorum_loss_disbands_to_standalone_targets() {
        // 4 members tolerating f = 1: ejecting the liar leaves 3 < 3f + 1,
        // so every later negotiation fails and the platoon disbands. The
        // survivors must fall back to their own ability-derived standalone
        // speeds — not stay pinned at the stale agreed value.
        let out = crate::runner::run(
            Scenario::builder("quorum-loss")
                .seed(5)
                .duration(Duration::from_secs(20))
                .platoon(PlatoonSpec::new(4).with_liar(3, 2.0))
                .build(),
        );
        let p = out.platoon.as_ref().unwrap();
        assert_eq!(p.ejected_members(), vec![3]);
        // After the disband the engine stops recording negotiations…
        let last_round = p.agreed_speed.iter().last().unwrap().0;
        assert!(last_round < Time::from_secs(5), "negotiations stopped");
        // …every member left the platoon, and the healthy members track
        // their own full-ability target (22 m/s) rather than a stale cap.
        assert!(out
            .trace
            .entries()
            .iter()
            .any(|e| e.message.contains("platoon disbanded")));
        let final_speed = out.speed.last().unwrap();
        assert!(final_speed > 20.0, "leader standalone speed {final_speed}");
        assert!(!out.collision);
    }

    #[test]
    fn off_grid_negotiation_period_still_fires_every_period() {
        // 995 ms is no multiple of the 10 ms control period: the modulo
        // trigger would first fire at lcm(995, 10) = 19.9 s. The next-due
        // accumulator fires on the first tick at/after each due instant.
        let out = crate::runner::run(
            Scenario::builder("off-grid-period")
                .seed(3)
                .duration(Duration::from_secs(10))
                .platoon({
                    let mut spec = PlatoonSpec::new(5).with_liar(2, 2.0);
                    spec.negotiation_period = saav_sim::time::Duration::from_millis(995);
                    spec
                })
                .build(),
        );
        let p = out.platoon.as_ref().unwrap();
        // ~10 rounds in 10 s, and the liar still ejects within ~3 rounds.
        assert!(p.agreed_speed.len() >= 9, "{} rounds", p.agreed_speed.len());
        let ejection = p.first_ejection().expect("liar ejected");
        assert!(ejection.as_secs_f64() <= 5.0, "{ejection}");
    }

    #[test]
    fn cosim_is_deterministic_per_seed() {
        let a = crate::runner::run(
            ScenarioFamily::PlatoonLiarLow.build(ResponseStrategy::CrossLayer, 5),
        );
        let b = crate::runner::run(
            ScenarioFamily::PlatoonLiarLow.build(ResponseStrategy::CrossLayer, 5),
        );
        assert_eq!(a.distance_m, b.distance_m);
        assert_eq!(a.platoon.as_ref().unwrap(), b.platoon.as_ref().unwrap());
        assert_eq!(a.actions, b.actions);
    }
}
