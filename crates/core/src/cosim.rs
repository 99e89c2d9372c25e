//! Multi-vehicle co-simulation: N self-aware vehicles advancing in
//! lockstep over a shared road, coupled by a V2V channel and a
//! trust-managed platoon.
//!
//! The engine generalizes the single-vehicle runner instead of duplicating
//! it: every member is a `RunContext` (the same construction and `tick`
//! stepping code a solo run uses), staggered along the road by
//! [`VehicleWorld::set_road_offset_m`], and a platoon steps through the
//! same [`crate::runner::SteppedRun`] handle as any run. Member 0 — the leader —
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
//! flowing through the *same* [`crate::coordinator::Coordinator::route_slice`]
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
use saav_vehicle::traffic::LeadVehicle;

use crate::outcome::{Outcome, PlatoonOutcome};
use crate::runner::{compose_members, RunContext};
use crate::scenario::{PlatoonSpec, Scenario};
use crate::telemetry::{Counter, RunTelemetry, Stage, TelemetryEvent};
use crate::vehicle::CONTROL_PERIOD;

/// A platoon run's live state: one `RunContext` per member, staggered
/// along the shared road, the cooperation plane (platoon + V2V channel)
/// and the cooperative record so far.
pub(crate) struct PlatoonEngine {
    label: String,
    spec: PlatoonSpec,
    members: Vec<RunContext>,
    platoon: Platoon,
    channel: V2vChannel,
    /// The latest claim received from each member.
    last_claim: Vec<f64>,
    agreed_speed: Series,
    converged_at: Option<Time>,
    ejections: Vec<(usize, Time)>,
    final_agreed: Option<f64>,
    now: Time,
    end: Time,
    next_round: Time,
}

impl PlatoonEngine {
    /// Builds the members and the cooperation plane of `scenario`'s
    /// [`PlatoonSpec`].
    ///
    /// # Panics
    /// Panics if the scenario carries no [`PlatoonSpec`] or the spec is
    /// degenerate (zero members, a zero negotiation period, or a liar/link
    /// index beyond the member count).
    pub(crate) fn new(scenario: &Scenario, model: Option<&SelfAwarenessModel>) -> Self {
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
        let members: Vec<RunContext> = (0..n)
            .map(|i| {
                let lead = if i > 0 {
                    // Followers track the *real* vehicle ahead, not a script.
                    LeadVehicle::external(spec.initial_gap_m, spec.cruise_mps)
                } else {
                    scenario.lead.clone()
                };
                let mut ctx = RunContext::for_member(
                    scenario,
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
        let last_claim: Vec<f64> = (0..n)
            .map(|i| {
                // Members join with their honest nominal claim; deceptions
                // only enter through the broadcast path.
                let claim = (spec.cruise_mps + spec.delta(i)).max(0.0);
                platoon.join(claim, Behavior::Honest);
                claim
            })
            .collect();
        let mut channel = V2vChannel::new(n, derive_seed(scenario.seed, n as u64));
        for &(m, fault) in &spec.links {
            channel.set_link_fault(PeerId(m), fault);
        }

        PlatoonEngine {
            label: scenario.label.clone(),
            members,
            platoon,
            channel,
            last_claim,
            agreed_speed: Series::new(),
            converged_at: None,
            ejections: Vec::new(),
            final_agreed: None,
            now: Time::ZERO,
            end: Time::ZERO + scenario.duration,
            next_round: Time::ZERO + spec.negotiation_period,
            spec,
        }
    }

    /// Whether the scenario's time horizon has been reached.
    pub(crate) fn done(&self) -> bool {
        self.now >= self.end
    }

    /// Simulated time since run start.
    pub(crate) fn now(&self) -> Time {
        self.now
    }

    /// Advances every member by one control period, front to back, then
    /// runs a negotiation round if one is due. Mounted telemetry counts
    /// the members' runner/monitor stages and each round's platoon stage.
    ///
    /// Rounds fire from a next-due accumulator, not a modulo on `now`, so
    /// a negotiation period that is no multiple of the 10 ms control
    /// period still fires at (the tick after) every due instant instead of
    /// stretching to the least common multiple.
    pub(crate) fn tick(&mut self, mut tel: Option<&mut RunTelemetry>) {
        self.now += CONTROL_PERIOD;
        for i in 0..self.members.len() {
            if i > 0 {
                // Couple follower i to the fresh state of the vehicle
                // ahead (a Gauss–Seidel sweep front to back: deterministic
                // and one tick tighter than double buffering).
                let (ahead_pos, ahead_speed) = {
                    let w = &self.members[i - 1].v.world;
                    (w.abs_position_m(), w.ego.speed_mps())
                };
                self.members[i]
                    .v
                    .world
                    .push_lead_state(ahead_pos, ahead_speed);
            }
            self.members[i].tick(tel.as_deref_mut());
        }
        if self.now >= self.next_round {
            while self.next_round <= self.now {
                self.next_round += self.spec.negotiation_period;
            }
            self.negotiate_round(tel.as_deref_mut());
            if let Some(t) = tel {
                t.count_stage(Stage::Platoon);
            }
        }
    }

    /// One broadcast → deliver → negotiate → contain cycle.
    fn negotiate_round(&mut self, mut tel: Option<&mut RunTelemetry>) {
        let now = self.now;
        let spec = &self.spec;
        let n = self.members.len();
        // 1. Every cooperating member broadcasts its safe-speed claim. The
        //    honest claim scales the nominal cruise speed by the member's own
        //    ability level (self-awareness feeding cooperation); compromised
        //    members lie at the source.
        for (i, member) in self.members.iter().enumerate() {
            if !member.v.platoon_active() {
                continue;
            }
            let honest = honest_claim(spec, i, member.v.abilities.root_level());
            let claim = spec.lie_of(i).unwrap_or(honest);
            self.channel.broadcast(now, PeerId(i), claim);
        }
        // 2. Deliveries refresh the shared claim table; lost broadcasts leave
        //    the previous (stale) claim in place.
        for msg in self.channel.poll_due(now) {
            self.last_claim[msg.from.0] = msg.claim_mps;
        }
        for (i, &claim) in self.last_claim.iter().enumerate().take(n) {
            if self.platoon.trust(MemberId(i)) > 0.0 {
                self.platoon.set_safe_speed(MemberId(i), claim);
            }
        }
        // 3. Negotiate; on quorum loss the platoon disbands to standalone ACC.
        match self.platoon.negotiate_speed() {
            Ok(neg) => {
                self.agreed_speed.push(now, neg.speed_mps);
                self.final_agreed = Some(neg.speed_mps);
                // The platoon counts as *converged* the first round every
                // still-trusted member's received claim is coherent with the
                // negotiated speed. (The protocol's own per-round convergence
                // bit is vacuous with honest protocol behaviors: scalar claims
                // agree within one trimmed-mean round. Mutual claim coherence
                // is the cooperative quantity — a liar keeps it false until
                // the trust layer ejects it.)
                if self.converged_at.is_none()
                    && neg.agreement.converged
                    && (0..n)
                        .filter(|&i| self.platoon.trust(MemberId(i)) > 0.0)
                        .all(|i| (self.last_claim[i] - neg.speed_mps).abs() <= CLAIM_COHERENCE_MPS)
                {
                    self.converged_at = Some(now);
                }
                // 4. Trust collapses become PeerMisbehavior anomalies on every
                //    cooperating member — the standard escalation path decides
                //    the cooperative containment.
                for id in &neg.ejected {
                    self.ejections.push((id.0, now));
                    if let Some(t) = tel.as_deref_mut() {
                        t.record(
                            now,
                            TelemetryEvent::PlatoonEjection {
                                member: id.0 as u32,
                            },
                        );
                    }
                    for member in self.members.iter_mut() {
                        if !member.v.platoon_active() {
                            continue;
                        }
                        member.raise(
                            tel.as_deref_mut(),
                            Anomaly::new(now, member_subject(id.0), AnomalyKind::PeerMisbehavior),
                        );
                    }
                }
            }
            Err(_) => {
                for member in self.members.iter_mut() {
                    member.v.platoon_active = false;
                }
            }
        }
        // 5. Refresh every member's cruise target — *outside* the match so a
        //    disbanded platoon keeps tracking its members' abilities. Members
        //    still cooperating adopt the latest agreed speed; everyone else
        //    (ejected or disbanded) drives standalone ACC at its own honest
        //    ability-derived safe speed, re-evaluated each round.
        for (i, member) in self.members.iter_mut().enumerate() {
            let target = match (member.v.platoon_active(), self.final_agreed) {
                (true, Some(agreed)) => agreed,
                (true, None) => continue, // no agreement yet: keep the HMI default
                (false, _) => honest_claim(spec, i, member.v.abilities.root_level()),
            };
            member.v.world.hmi.set_speed_mps = target;
        }
    }

    /// Closes the run: lands the V2V channel's traffic counters in the
    /// mounted telemetry and composes the members' outcomes with the
    /// cooperative record.
    pub(crate) fn finish(self, tel: Option<&mut RunTelemetry>) -> Outcome {
        if let Some(t) = tel {
            t.count(Counter::V2vSent, self.channel.sent());
            t.count(Counter::V2vDropped, self.channel.dropped());
            t.count(Counter::V2vDelayed, self.channel.delayed());
        }
        let platoon = PlatoonOutcome {
            members: self.members.len(),
            collisions: self.members.iter().map(RunContext::collision).collect(),
            agreed_speed: self.agreed_speed,
            converged_at: self.converged_at,
            ejections: self.ejections,
            final_agreed_mps: self.final_agreed,
            final_trust: self
                .platoon
                .trust_table()
                .into_iter()
                .map(|(id, t)| (id.0, t))
                .collect(),
        };
        Outcome {
            platoon: Some(platoon),
            ..compose_members(self.label, self.members, f64::INFINITY, false)
        }
    }
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
