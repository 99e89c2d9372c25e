//! Measured results of a scenario run: the full [`Outcome`] record and the
//! compact [`Summary`] used by fleet aggregation and the repro tables.
//!
//! An outcome holds what a run measured, not what happened tick by tick:
//! the typed event stream of a run goes to a mounted
//! [`crate::telemetry::Telemetry`] sink, whose ring bounds it.

use saav_learn::SignalTrace;
use saav_sim::series::Series;
use saav_sim::time::Time;
use saav_skills::decision::DrivingMode;

use crate::telemetry::TraceRecord;

/// The signals (in ingestion order) the learned self-awareness model is
/// trained on and scored against — the 1 Hz series every run records.
pub const LEARNED_SIGNALS: [&str; 5] = [
    "speed_mps",
    "root_ability",
    "miss_rate",
    "pe0_temp_c",
    "pe0_speed_factor",
];

/// Measured outcome of a scenario run.
#[derive(Debug)]
pub struct Outcome {
    /// Scenario label.
    pub label: String,
    /// Speed over time.
    pub speed: Series,
    /// Root ability level over time.
    pub ability: Series,
    /// Deadline-miss ratio per second of the ACC task.
    pub miss_rate: Series,
    /// Die temperature of PE0 over time (°C).
    pub temp_c: Series,
    /// Execution speed factor of PE0 over time (1 = nominal).
    pub speed_factor: Series,
    /// Windowed abnormality score of the learned monitor over time (empty
    /// when no learned model was mounted).
    pub model_score: Series,
    /// Final driving mode.
    pub final_mode: DrivingMode,
    /// Safety metrics from the plant.
    pub min_gap_m: f64,
    /// Minimum time-to-collision observed.
    pub min_ttc_s: f64,
    /// Whether a collision occurred.
    pub collision: bool,
    /// Distance travelled (m) — availability proxy.
    pub distance_m: f64,
    /// Detection time of the first problem (by the hand-written contract
    /// monitors), if any.
    pub first_detection: Option<Time>,
    /// First detection by the learned self-awareness monitor, if mounted
    /// and fired.
    pub first_model_deviation: Option<Time>,
    /// Time the last containment action completed, if any.
    pub mitigated_at: Option<Time>,
    /// All containment actions taken.
    pub actions: Vec<String>,
    /// Directive conflicts detected (and arbitrated) on the board.
    pub conflicts: u64,
    /// Longest problem propagation chain.
    pub max_hops: usize,
    /// Problems resolved / total.
    pub resolution_rate: Option<f64>,
    /// Always empty: a run's events go to a mounted telemetry sink. Kept
    /// only because the benchmark sums its length into a metric; the next
    /// benchmark change deletes the field together with that metric.
    pub trace: [TraceRecord; 0],
    /// Cooperative measurements of a platoon co-simulation run (`None` for
    /// single-vehicle runs).
    pub platoon: Option<PlatoonOutcome>,
    /// Tier statistics of a city-scale co-simulation run (`None`
    /// otherwise).
    pub city: Option<CityOutcome>,
}

impl Outcome {
    /// The compact per-run record used by fleet statistics and tables.
    pub fn summary(&self) -> Summary {
        Summary {
            label: self.label.clone(),
            collision: self.collision,
            distance_m: self.distance_m,
            min_ttc_s: self.min_ttc_s,
            first_detection: self.first_detection,
            first_model_deviation: self.first_model_deviation,
            mitigated_at: self.mitigated_at,
            final_mode: self.final_mode,
            platoon: self.platoon.as_ref().map(PlatoonOutcome::summary),
            city: self.city.as_ref().map(CityOutcome::summary),
        }
    }

    /// The run's 1 Hz signal recording as a [`SignalTrace`] — the training
    /// and scoring input of the learned self-awareness models, in
    /// [`LEARNED_SIGNALS`] order.
    pub fn signal_trace(&self) -> SignalTrace {
        SignalTrace::from_series(&[
            (LEARNED_SIGNALS[0], &self.speed),
            (LEARNED_SIGNALS[1], &self.ability),
            (LEARNED_SIGNALS[2], &self.miss_rate),
            (LEARNED_SIGNALS[3], &self.temp_c),
            (LEARNED_SIGNALS[4], &self.speed_factor),
        ])
    }
}

/// Detection latency in seconds: `detected` relative to `injected`, the
/// scenario's first scripted disturbance (run start when it has none).
/// The one definition behind fleet records, the columnar statistics and
/// the telemetry latency histogram.
pub(crate) fn latency_s(detected: Option<Time>, injected: Option<Time>) -> Option<f64> {
    detected.map(|det| {
        det.saturating_since(injected.unwrap_or(Time::ZERO))
            .as_secs_f64()
    })
}

/// The compact, cheaply clonable essence of an [`Outcome`] — what fleet
/// aggregation and the repro tables consume, so call sites stop
/// hand-picking fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Scenario label.
    pub label: String,
    /// Whether a collision occurred.
    pub collision: bool,
    /// Distance travelled (m) — availability proxy.
    pub distance_m: f64,
    /// Minimum time-to-collision observed.
    pub min_ttc_s: f64,
    /// Detection time of the first problem (contract monitors), if any.
    pub first_detection: Option<Time>,
    /// First detection by the learned monitor, if mounted and fired.
    pub first_model_deviation: Option<Time>,
    /// Time the last containment action completed, if any.
    pub mitigated_at: Option<Time>,
    /// Final driving mode.
    pub final_mode: DrivingMode,
    /// Cooperative summary of a platoon co-simulation run (`None` for
    /// single-vehicle runs).
    pub platoon: Option<PlatoonSummary>,
    /// Tier summary of a city-scale co-simulation run (`None` otherwise).
    pub city: Option<CitySummary>,
}

/// Cooperative measurements of one platoon co-simulation run — what the
/// multi-vehicle engine records on top of the leader's [`Outcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlatoonOutcome {
    /// Number of co-simulated members.
    pub members: usize,
    /// Per-member collision flags, in member order.
    pub collisions: Vec<bool>,
    /// The negotiated cruise speed over time (one sample per negotiation).
    pub agreed_speed: Series,
    /// First negotiation at which every still-trusted member's received
    /// claim was coherent with the negotiated speed — the instant the
    /// platoon became mutually consistent about its collective cruise
    /// speed (a lying member keeps this unset until it is ejected).
    pub converged_at: Option<Time>,
    /// Trust-based ejections: `(member, time)` in ejection order.
    pub ejections: Vec<(usize, Time)>,
    /// The last negotiated speed, if any negotiation succeeded.
    pub final_agreed_mps: Option<f64>,
    /// Final trust per member, in member-id order.
    pub final_trust: Vec<(usize, f64)>,
}

impl PlatoonOutcome {
    /// How many members collided.
    pub fn member_collisions(&self) -> usize {
        self.collisions.iter().filter(|&&c| c).count()
    }

    /// Time of the first trust-based ejection, if any.
    pub fn first_ejection(&self) -> Option<Time> {
        self.ejections.first().map(|&(_, t)| t)
    }

    /// The ejected members, in ejection order.
    pub fn ejected_members(&self) -> Vec<usize> {
        self.ejections.iter().map(|&(m, _)| m).collect()
    }

    /// The compact cooperative record used by fleet statistics and tables.
    pub fn summary(&self) -> PlatoonSummary {
        PlatoonSummary {
            members: self.members,
            member_collisions: self.member_collisions(),
            converged_at: self.converged_at,
            first_ejection: self.first_ejection(),
            ejected: self.ejected_members(),
            final_agreed_mps: self.final_agreed_mps,
        }
    }
}

/// Tier statistics of one city-scale co-simulation run — what the city
/// engine ([`crate::city`]) records on top of the lead focal vehicle's
/// [`Outcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct CityOutcome {
    /// Total vehicles in the chain (both tiers).
    pub vehicles: usize,
    /// Focal vehicles carrying the full self-awareness stack.
    pub focal: usize,
    /// Lockstep ticks executed.
    pub ticks: u64,
    /// Vehicle-ticks spent in the surrogate tier (one per surrogate
    /// vehicle per tick) — the denominator of the per-tier cost split.
    pub surrogate_vehicle_ticks: u64,
    /// Vehicle-ticks spent in the full-fidelity tier (focal + promoted).
    pub full_vehicle_ticks: u64,
    /// Background vehicles promoted into the full-fidelity tier.
    pub promotions: u64,
    /// Promoted vehicles demoted back to the surrogate tier.
    pub demotions: u64,
    /// Largest simultaneous full-fidelity population (focal + promoted).
    pub max_full_tier: usize,
    /// Smallest gap observed anywhere in the chain (m).
    pub chain_min_gap_m: f64,
    /// Whether any chain gap closed to zero.
    pub chain_collision: bool,
    /// Per-focal first contract-monitor detection, in focal order — the
    /// E14 latency-invariance quantity.
    pub focal_first_detection: Vec<Option<Time>>,
    /// Per-focal collision flags, in focal order.
    pub focal_collisions: Vec<bool>,
}

impl CityOutcome {
    /// How many focal vehicles collided.
    pub fn focal_collision_count(&self) -> usize {
        self.focal_collisions.iter().filter(|&&c| c).count()
    }

    /// Earliest focal detection, if any focal vehicle detected a problem.
    pub fn first_focal_detection(&self) -> Option<Time> {
        self.focal_first_detection.iter().flatten().min().copied()
    }

    /// The compact tier record used by fleet statistics and tables.
    pub fn summary(&self) -> CitySummary {
        CitySummary {
            vehicles: self.vehicles,
            focal: self.focal,
            promotions: self.promotions,
            demotions: self.demotions,
            focal_collisions: self.focal_collision_count(),
            first_focal_detection: self.first_focal_detection(),
        }
    }
}

/// The compact, cheaply clonable essence of a [`CityOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct CitySummary {
    /// Total vehicles in the chain (both tiers).
    pub vehicles: usize,
    /// Focal vehicles carrying the full self-awareness stack.
    pub focal: usize,
    /// Background vehicles promoted into the full-fidelity tier.
    pub promotions: u64,
    /// Promoted vehicles demoted back to the surrogate tier.
    pub demotions: u64,
    /// How many focal vehicles collided.
    pub focal_collisions: usize,
    /// Earliest focal detection, if any.
    pub first_focal_detection: Option<Time>,
}

/// The compact, cheaply clonable essence of a [`PlatoonOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlatoonSummary {
    /// Number of co-simulated members.
    pub members: usize,
    /// How many members collided.
    pub member_collisions: usize,
    /// First negotiation at which the platoon's members were mutually
    /// consistent about the collective cruise speed.
    pub converged_at: Option<Time>,
    /// Time of the first trust-based ejection, if any.
    pub first_ejection: Option<Time>,
    /// Ejected members, in ejection order.
    pub ejected: Vec<usize>,
    /// The last negotiated speed, if any negotiation succeeded.
    pub final_agreed_mps: Option<f64>,
}

impl Summary {
    /// `first_detection` / `mitigated_at` formatted for tables (`-` when
    /// absent).
    pub fn fmt_detection(&self) -> (String, String) {
        let fmt = |t: Option<Time>| {
            t.map(|t| format!("{:.1}s", t.as_secs_f64()))
                .unwrap_or_else(|| "-".into())
        };
        (fmt(self.first_detection), fmt(self.mitigated_at))
    }

    /// Minimum TTC formatted for tables (`inf` when no target was close).
    pub fn fmt_min_ttc(&self) -> String {
        if self.min_ttc_s.is_finite() {
            format!("{:.1} s", self.min_ttc_s)
        } else {
            "inf".into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_formats_missing_fields() {
        let s = Summary {
            label: "x".into(),
            collision: false,
            distance_m: 10.0,
            min_ttc_s: f64::INFINITY,
            first_detection: None,
            first_model_deviation: None,
            mitigated_at: Some(Time::from_secs(30)),
            final_mode: DrivingMode::Normal,
            platoon: None,
            city: None,
        };
        let (det, mit) = s.fmt_detection();
        assert_eq!(det, "-");
        assert_eq!(mit, "30.0s");
        assert_eq!(s.fmt_min_ttc(), "inf");
    }

    #[test]
    fn platoon_outcome_compacts_to_summary() {
        let mut agreed = Series::new();
        agreed.push(Time::from_secs(1), 20.5);
        agreed.push(Time::from_secs(2), 20.5);
        let p = PlatoonOutcome {
            members: 5,
            collisions: vec![false, false, true, false, false],
            agreed_speed: agreed,
            converged_at: Some(Time::from_secs(1)),
            ejections: vec![(2, Time::from_secs(3)), (4, Time::from_secs(7))],
            final_agreed_mps: Some(20.5),
            final_trust: vec![(0, 1.0), (1, 1.0), (2, 0.0), (3, 1.0), (4, 0.0)],
        };
        let s = p.summary();
        assert_eq!(s.members, 5);
        assert_eq!(s.member_collisions, 1);
        assert_eq!(s.first_ejection, Some(Time::from_secs(3)));
        assert_eq!(s.ejected, vec![2, 4]);
        assert_eq!(s.final_agreed_mps, Some(20.5));
    }
}
