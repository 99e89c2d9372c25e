//! Struct-of-arrays surrogate traffic: the cheap fidelity tier of the
//! city-scale co-simulation.
//!
//! A [`SurrogateTraffic`] store holds every background vehicle of a road
//! chain in contiguous `Vec<f64>` lanes (position, speed, acceleration,
//! gap) and advances them all with a batched IDM-style car-following
//! update — two linear passes over the lanes per tick, no per-vehicle heap
//! objects and no allocation after construction. A full self-aware
//! vehicle ([`crate::world::VehicleWorld`]) costs tens of microseconds per
//! tick; a surrogate slot costs tens of *nano*seconds, which is what makes
//! 1,000-vehicle scenarios tractable while a handful of focal vehicles
//! keep the complete self-awareness stack.
//!
//! Focal vehicles occupy *mirrored* slots: the engine pushes their true
//! state into the store each lockstep tick ([`SurrogateTraffic::
//! push_state`]), exactly like the externally-driven
//! [`crate::traffic::Participant`] coupling `run_platoon` uses — so
//! surrogate followers react to a focal vehicle's physics and vice versa,
//! and promotion/demotion between the tiers is just flipping the mirror
//! bit with the state already in place.

use saav_sim::pool::{SendPtr, TickPool};
use saav_sim::time::Duration;

/// IDM-style car-following parameters shared by every surrogate vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdmParams {
    /// Desired (free-road) speed (m/s).
    pub desired_speed_mps: f64,
    /// Desired time headway to the leader (s).
    pub headway_s: f64,
    /// Minimum bumper-to-bumper gap at standstill (m).
    pub min_gap_m: f64,
    /// Maximum acceleration (m/s²).
    pub max_accel_mps2: f64,
    /// Comfortable deceleration (m/s²), used in the braking interaction
    /// term; the actual deceleration may exceed it in emergencies.
    pub comfort_decel_mps2: f64,
}

impl Default for IdmParams {
    fn default() -> Self {
        IdmParams {
            desired_speed_mps: 22.0,
            headway_s: 1.6,
            min_gap_m: 4.0,
            max_accel_mps2: 1.8,
            comfort_decel_mps2: 2.5,
        }
    }
}

/// The struct-of-arrays background-traffic store: one single-lane chain,
/// index 0 at the front, each vehicle following the slot before it.
#[derive(Debug, Clone)]
pub struct SurrogateTraffic {
    params: IdmParams,
    /// Absolute longitudinal position on the shared road (m).
    pos_m: Vec<f64>,
    /// Speed (m/s), never negative.
    speed_mps: Vec<f64>,
    /// Acceleration computed by the last update pass (m/s²).
    accel_mps2: Vec<f64>,
    /// Bumper-to-bumper gap to the slot ahead (m); `INFINITY` at the front.
    gap_m: Vec<f64>,
    /// Mirrored slots hold externally-pushed state (a focal vehicle's true
    /// physics) and are skipped by the integration passes.
    mirrored: Vec<bool>,
    /// Number of `false` entries in `mirrored`, kept in step with it.
    surrogates: usize,
    /// Smallest gap ever observed across the chain (m).
    min_gap_m: f64,
    /// Whether any gap closed to zero.
    collision: bool,
    /// Per-chunk partial min-gap folds of the chunked step, reduced in
    /// ascending chunk (= slot) order — scratch, resized only when the
    /// chunk count grows.
    chunk_min_gap_m: Vec<f64>,
    /// Per-chunk partial collision folds of the chunked step.
    chunk_collision: Vec<bool>,
}

impl SurrogateTraffic {
    /// Creates an empty store with the given car-following parameters.
    pub fn new(params: IdmParams) -> Self {
        SurrogateTraffic {
            params,
            pos_m: Vec::new(),
            speed_mps: Vec::new(),
            accel_mps2: Vec::new(),
            gap_m: Vec::new(),
            mirrored: Vec::new(),
            surrogates: 0,
            min_gap_m: f64::INFINITY,
            collision: false,
            chunk_min_gap_m: Vec::new(),
            chunk_collision: Vec::new(),
        }
    }

    /// Creates an empty store with lane capacity pre-reserved for `n`
    /// vehicles. Capacity is a memory hint only: simulated behaviour is
    /// bit-identical for any capacity (pinned by the determinism tests).
    pub fn with_capacity(params: IdmParams, n: usize) -> Self {
        let mut s = SurrogateTraffic::new(params);
        s.pos_m.reserve(n);
        s.speed_mps.reserve(n);
        s.accel_mps2.reserve(n);
        s.gap_m.reserve(n);
        s.mirrored.reserve(n);
        s
    }

    /// Appends a vehicle at the back of the chain and returns its slot
    /// index. The first vehicle pushed is the front of the chain.
    ///
    /// # Panics
    /// Panics if the new vehicle would start at or ahead of the current
    /// back of the chain (the chain must stay front-to-back ordered).
    pub fn push_vehicle(&mut self, pos_m: f64, speed_mps: f64) -> usize {
        if let Some(&back) = self.pos_m.last() {
            assert!(
                pos_m < back,
                "vehicle at {pos_m} m must start behind the chain back at {back} m"
            );
        }
        let idx = self.pos_m.len();
        self.pos_m.push(pos_m);
        self.speed_mps.push(speed_mps.max(0.0));
        self.accel_mps2.push(0.0);
        self.gap_m.push(if idx == 0 {
            f64::INFINITY
        } else {
            self.pos_m[idx - 1] - pos_m
        });
        self.mirrored.push(false);
        self.surrogates += 1;
        idx
    }

    /// Number of vehicles in the chain (all tiers).
    pub fn len(&self) -> usize {
        self.pos_m.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.pos_m.is_empty()
    }

    /// Number of surrogate-integrated (non-mirrored) vehicles. O(1): the
    /// count is kept as slots are pushed and flip tiers.
    pub fn surrogate_count(&self) -> usize {
        self.surrogates
    }

    /// Marks slot `i` as mirrored (true: a focal vehicle's physics owns
    /// it) or surrogate-integrated (false). Demotion back to the surrogate
    /// tier resumes integration from the last pushed state.
    ///
    /// # Panics
    /// Panics on an out-of-range slot.
    pub fn set_mirrored(&mut self, i: usize, mirrored: bool) {
        if self.mirrored[i] != mirrored {
            self.mirrored[i] = mirrored;
            if mirrored {
                self.surrogates -= 1;
            } else {
                self.surrogates += 1;
            }
        }
        if !mirrored {
            self.accel_mps2[i] = 0.0;
        }
    }

    /// Whether slot `i` is mirrored.
    pub fn is_mirrored(&self, i: usize) -> bool {
        self.mirrored[i]
    }

    /// Pushes externally-simulated state into a mirrored slot — the same
    /// coupling contract as [`crate::traffic::Participant::push_state`],
    /// called once per lockstep tick by the engine.
    ///
    /// # Panics
    /// Panics on an out-of-range slot.
    pub fn push_state(&mut self, i: usize, pos_m: f64, speed_mps: f64) {
        self.pos_m[i] = pos_m;
        self.speed_mps[i] = speed_mps.max(0.0);
    }

    /// Absolute position of slot `i` (m).
    pub fn position_m(&self, i: usize) -> f64 {
        self.pos_m[i]
    }

    /// Speed of slot `i` (m/s).
    pub fn speed_mps(&self, i: usize) -> f64 {
        self.speed_mps[i]
    }

    /// Gap of slot `i` to the vehicle ahead (m); `INFINITY` at the front.
    pub fn gap_m(&self, i: usize) -> f64 {
        self.gap_m[i]
    }

    /// Smallest gap observed so far across the whole chain (m).
    pub fn min_gap_m(&self) -> f64 {
        self.min_gap_m
    }

    /// Whether any gap ever closed to zero.
    pub fn collision(&self) -> bool {
        self.collision
    }

    /// The IDM acceleration of a follower at speed `v` with speed
    /// difference `dv = v - v_lead` and gap `s` — the scalar oracle
    /// [`Self::step_reference`] uses; [`Self::step`] inlines the same
    /// expressions into its lane passes.
    #[cfg(test)]
    fn idm_accel(&self, v: f64, dv: f64, s: f64) -> f64 {
        let p = &self.params;
        let free = (v / p.desired_speed_mps).powi(4);
        if s.is_infinite() {
            return p.max_accel_mps2 * (1.0 - free);
        }
        let s_star = p.min_gap_m
            + v * p.headway_s
            + v * dv / (2.0 * (p.max_accel_mps2 * p.comfort_decel_mps2).sqrt());
        let interaction = (s_star.max(0.0) / s.max(0.01)).powi(2);
        p.max_accel_mps2 * (1.0 - free - interaction)
    }

    /// Advances every surrogate vehicle by `dt` with the batched update:
    /// pass 1 streams the position/speed lanes and fills the acceleration
    /// lane (each follower reacts to its leader's *previous* state, so the
    /// result is independent of evaluation order); pass 2 integrates; pass
    /// 3 refreshes the gap lane and folds the safety metrics. Mirrored
    /// slots are read as leaders but never written. No allocation.
    ///
    /// The passes are structured for auto-vectorization: straight-line
    /// lane zips with branchless mirrored-slot selects and the loop-
    /// invariant IDM denominator hoisted, instead of per-slot `continue`
    /// branches. The arithmetic is expression-for-expression the original
    /// scalar update, so trajectories stay bit-identical (pinned by
    /// `vectorized_step_matches_reference_bitwise`); only the min-gap /
    /// collision fold stays a scalar sequential loop.
    pub fn step(&mut self, dt: Duration) {
        let n = self.pos_m.len();
        if n == 0 {
            return;
        }
        let dt_s = dt.as_secs_f64();
        let p = self.params;
        let denom = 2.0 * (p.max_accel_mps2 * p.comfort_decel_mps2).sqrt();
        // Pass 1: acceleration from the (pre-step) kinematic lanes. The
        // front slot is the only free-road case, so it peels off and the
        // 1..n body is unconditional.
        if !self.mirrored[0] {
            let v = self.speed_mps[0];
            let free = (v / p.desired_speed_mps).powi(4);
            self.accel_mps2[0] = p.max_accel_mps2 * (1.0 - free);
        }
        for (((accel, &mirrored), (&v, &v_lead)), (&x, &x_lead)) in self.accel_mps2[1..]
            .iter_mut()
            .zip(&self.mirrored[1..])
            .zip(self.speed_mps[1..].iter().zip(&self.speed_mps[..n - 1]))
            .zip(self.pos_m[1..].iter().zip(&self.pos_m[..n - 1]))
        {
            let free = (v / p.desired_speed_mps).powi(4);
            let dv = v - v_lead;
            let s = x_lead - x;
            let s_star = p.min_gap_m + v * p.headway_s + v * dv / denom;
            let interaction = (s_star.max(0.0) / s.max(0.01)).powi(2);
            let a = p.max_accel_mps2 * (1.0 - free - interaction);
            *accel = if mirrored { *accel } else { a };
        }
        // Pass 2: kinematic integration (semi-implicit Euler, speed
        // clamped at zero) — mirrored slots keep their pushed state via
        // the same branchless select.
        for ((v, x), (&a, &mirrored)) in self
            .speed_mps
            .iter_mut()
            .zip(self.pos_m.iter_mut())
            .zip(self.accel_mps2.iter().zip(&self.mirrored))
        {
            let v_new = (*v + a * dt_s).max(0.0);
            let x_new = *x + v_new * dt_s;
            *v = if mirrored { *v } else { v_new };
            *x = if mirrored { *x } else { x_new };
        }
        // Pass 3a: gap lane over the whole chain, mirrored slots included
        // (a focal vehicle tailgated by a surrogate counts).
        self.gap_m[0] = f64::INFINITY;
        for (gap, (&x, &x_lead)) in self.gap_m[1..]
            .iter_mut()
            .zip(self.pos_m[1..].iter().zip(&self.pos_m[..n - 1]))
        {
            *gap = x_lead - x;
        }
        // Pass 3b: the safety fold — kept scalar and in ascending slot
        // order so the min reduction is the original comparison sequence.
        for &gap in &self.gap_m {
            if gap < self.min_gap_m {
                self.min_gap_m = gap;
            }
            if gap <= 0.0 {
                self.collision = true;
            }
        }
    }

    /// [`Self::step`] with the lane passes chunked across a [`TickPool`]:
    /// each of the three passes dispatches `ceil(n / chunk)` contiguous
    /// chunk jobs with a full barrier in between, and the min-gap /
    /// collision fold becomes per-chunk partial folds reduced in
    /// ascending chunk (= slot) order on the caller.
    ///
    /// Trajectories are bit-identical to [`Self::step`] for every chunk
    /// size and thread count: the per-slot arithmetic is
    /// expression-for-expression the same; pass 1 reads only pre-step
    /// kinematic lanes (cross-chunk leader reads included); pass 3 reads
    /// pass 2's output only after the barrier; and the strict-`<` min
    /// reduction selects the same first-minimal gap because zero gaps are
    /// always `+0.0` (`a - b` never yields `-0.0` for `a == b`), so every
    /// candidate holding the minimum value shares one bit pattern.
    ///
    /// Returns the schedule-dependent stolen-chunk count, or `None` when
    /// the dispatch degenerated (single-threaded pool or fewer than two
    /// chunks) and the plain sequential [`Self::step`] ran instead.
    pub fn step_chunked(&mut self, dt: Duration, pool: &mut TickPool, chunk: usize) -> Option<u64> {
        let n = self.pos_m.len();
        let chunk = chunk.max(1);
        let chunks = n.div_ceil(chunk);
        if pool.threads() == 1 || chunks < 2 {
            self.step(dt);
            return None;
        }
        let dt_s = dt.as_secs_f64();
        let p = self.params;
        let denom = 2.0 * (p.max_accel_mps2 * p.comfort_decel_mps2).sqrt();
        self.chunk_min_gap_m.resize(chunks, f64::INFINITY);
        self.chunk_collision.resize(chunks, false);
        let pos = SendPtr(self.pos_m.as_mut_ptr());
        let speed = SendPtr(self.speed_mps.as_mut_ptr());
        let accel = SendPtr(self.accel_mps2.as_mut_ptr());
        let gap = SendPtr(self.gap_m.as_mut_ptr());
        let mirrored = SendPtr(self.mirrored.as_mut_ptr());
        let chunk_min = SendPtr(self.chunk_min_gap_m.as_mut_ptr());
        let chunk_col = SendPtr(self.chunk_collision.as_mut_ptr());
        let bounds = move |c: usize| (c * chunk, n.min(c * chunk + chunk));
        // Pass 1: acceleration. Reads only pre-step kinematic lanes
        // (including the leader one slot across the chunk boundary),
        // writes only this chunk's acceleration slots — disjoint.
        let mut stolen = pool.run(chunks, &move |c| {
            let (lo, hi) = bounds(c);
            // SAFETY: per the SendPtr contract — chunk `c` writes only
            // accel[lo..hi]; pos/speed/mirrored are frozen this pass.
            unsafe {
                if c == 0 && !*mirrored.get() {
                    let v = *speed.get();
                    let free = (v / p.desired_speed_mps).powi(4);
                    *accel.get() = p.max_accel_mps2 * (1.0 - free);
                }
                for i in lo.max(1)..hi {
                    let v = *speed.get().add(i);
                    let v_lead = *speed.get().add(i - 1);
                    let x = *pos.get().add(i);
                    let x_lead = *pos.get().add(i - 1);
                    let free = (v / p.desired_speed_mps).powi(4);
                    let dv = v - v_lead;
                    let s = x_lead - x;
                    let s_star = p.min_gap_m + v * p.headway_s + v * dv / denom;
                    let interaction = (s_star.max(0.0) / s.max(0.01)).powi(2);
                    let a = p.max_accel_mps2 * (1.0 - free - interaction);
                    let a_prev = *accel.get().add(i);
                    *accel.get().add(i) = if *mirrored.get().add(i) { a_prev } else { a };
                }
            }
        });
        // Pass 2: integration. Purely slot-local after the barrier.
        stolen += pool.run(chunks, &move |c| {
            let (lo, hi) = bounds(c);
            // SAFETY: chunk `c` reads and writes only slots lo..hi.
            unsafe {
                for i in lo..hi {
                    let a = *accel.get().add(i);
                    let m = *mirrored.get().add(i);
                    let v = *speed.get().add(i);
                    let x = *pos.get().add(i);
                    let v_new = (v + a * dt_s).max(0.0);
                    let x_new = x + v_new * dt_s;
                    *speed.get().add(i) = if m { v } else { v_new };
                    *pos.get().add(i) = if m { x } else { x_new };
                }
            }
        });
        // Pass 3: gap lane plus the per-chunk partial safety fold. Reads
        // post-integration positions (barrier above), writes this chunk's
        // gap slots and its own partial-fold slot.
        stolen += pool.run(chunks, &move |c| {
            let (lo, hi) = bounds(c);
            let mut local_min = f64::INFINITY;
            let mut local_collision = false;
            // SAFETY: chunk `c` writes only gap[lo..hi] and its own fold
            // slot; positions are frozen this pass.
            unsafe {
                for i in lo..hi {
                    let g = if i == 0 {
                        f64::INFINITY
                    } else {
                        *pos.get().add(i - 1) - *pos.get().add(i)
                    };
                    *gap.get().add(i) = g;
                    if g < local_min {
                        local_min = g;
                    }
                    if g <= 0.0 {
                        local_collision = true;
                    }
                }
                *chunk_min.get().add(c) = local_min;
                *chunk_col.get().add(c) = local_collision;
            }
        });
        // Ascending-slot-order reduction of the partial folds — the exact
        // comparison sequence of the scalar fold.
        for c in 0..chunks {
            let m = self.chunk_min_gap_m[c];
            if m < self.min_gap_m {
                self.min_gap_m = m;
            }
            if self.chunk_collision[c] {
                self.collision = true;
            }
        }
        Some(stolen)
    }

    /// The original per-slot branching update, kept verbatim as the
    /// bit-identity oracle for the vectorization-friendly [`Self::step`].
    #[cfg(test)]
    fn step_reference(&mut self, dt: Duration) {
        let dt_s = dt.as_secs_f64();
        let n = self.pos_m.len();
        for i in 0..n {
            if self.mirrored[i] {
                continue;
            }
            let v = self.speed_mps[i];
            let (dv, s) = if i == 0 {
                (0.0, f64::INFINITY)
            } else {
                (v - self.speed_mps[i - 1], self.pos_m[i - 1] - self.pos_m[i])
            };
            self.accel_mps2[i] = self.idm_accel(v, dv, s);
        }
        for i in 0..n {
            if self.mirrored[i] {
                continue;
            }
            let v = (self.speed_mps[i] + self.accel_mps2[i] * dt_s).max(0.0);
            self.speed_mps[i] = v;
            self.pos_m[i] += v * dt_s;
        }
        for i in 0..n {
            let gap = if i == 0 {
                f64::INFINITY
            } else {
                self.pos_m[i - 1] - self.pos_m[i]
            };
            self.gap_m[i] = gap;
            if gap < self.min_gap_m {
                self.min_gap_m = gap;
            }
            if gap <= 0.0 {
                self.collision = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: Duration = Duration::from_millis(10);

    fn chain(n: usize, gap: f64, speed: f64) -> SurrogateTraffic {
        let mut t = SurrogateTraffic::new(IdmParams::default());
        for i in 0..n {
            t.push_vehicle(-(i as f64) * gap, speed);
        }
        t
    }

    #[test]
    fn free_front_vehicle_reaches_desired_speed() {
        let mut t = chain(1, 30.0, 10.0);
        for _ in 0..120 * 100 {
            t.step(DT);
        }
        let v = t.speed_mps(0);
        assert!((v - 22.0).abs() < 0.2, "front speed {v}");
    }

    #[test]
    fn followers_hold_formation_without_collision() {
        let mut t = chain(50, 30.0, 22.0);
        for _ in 0..60 * 100 {
            t.step(DT);
        }
        assert!(!t.collision(), "min gap {}", t.min_gap_m());
        assert!(t.min_gap_m() > 4.0, "min gap {}", t.min_gap_m());
        // The chain stays strictly ordered.
        for i in 1..t.len() {
            assert!(t.position_m(i) < t.position_m(i - 1), "slot {i}");
        }
    }

    #[test]
    fn hard_braking_leader_ripples_back_without_collision() {
        let mut t = chain(20, 35.0, 22.0);
        t.set_mirrored(0, true);
        let mut lead_pos = 0.0;
        let mut lead_speed = 22.0;
        for step in 0..60 * 100 {
            // The mirrored leader brakes hard at t = 10 s.
            if step >= 10 * 100 {
                lead_speed = (lead_speed - 5.0 * DT.as_secs_f64()).max(3.0);
            }
            lead_pos += lead_speed * DT.as_secs_f64();
            t.push_state(0, lead_pos, lead_speed);
            t.step(DT);
        }
        assert!(!t.collision(), "min gap {}", t.min_gap_m());
        // The tail reacted: far-back vehicles slowed toward the leader.
        assert!(t.speed_mps(19) < 10.0, "tail speed {}", t.speed_mps(19));
    }

    #[test]
    fn surrogate_count_tracks_tier_flips() {
        // The kept count must equal a recount of the flags after
        // promotions, demotions and redundant calls that flip nothing.
        let mut t = SurrogateTraffic::new(IdmParams::default());
        let recount = |t: &SurrogateTraffic| (0..t.len()).filter(|&i| !t.is_mirrored(i)).count();
        for i in 0..12 {
            t.push_vehicle(-30.0 * i as f64, 20.0);
        }
        assert_eq!(t.surrogate_count(), 12);
        for (slot, mirrored) in [
            (0, true),
            (5, true),
            (5, true), // redundant promotion
            (11, true),
            (7, false), // redundant demotion
            (5, false),
            (5, false), // redundant demotion
            (3, true),
            (0, false),
        ] {
            t.set_mirrored(slot, mirrored);
            assert_eq!(
                t.surrogate_count(),
                recount(&t),
                "after slot {slot} -> {mirrored}"
            );
        }
        assert_eq!(t.surrogate_count(), 10);
        t.push_vehicle(-400.0, 20.0);
        assert_eq!(t.surrogate_count(), recount(&t));
        assert_eq!(t.surrogate_count(), 11);
    }

    #[test]
    fn mirrored_slots_are_never_integrated() {
        let mut t = chain(3, 30.0, 20.0);
        t.set_mirrored(1, true);
        t.push_state(1, -30.0, 20.0);
        t.step(DT);
        assert_eq!(t.position_m(1), -30.0, "mirror holds pushed state");
        assert_eq!(t.speed_mps(1), 20.0);
        // Its follower still reacts to it through the gap lane.
        assert!(t.gap_m(2).is_finite());
    }

    #[test]
    fn demotion_resumes_integration_from_pushed_state() {
        let mut t = chain(2, 30.0, 22.0);
        t.set_mirrored(1, true);
        t.push_state(1, -35.0, 18.0);
        t.set_mirrored(1, false);
        t.step(DT);
        // Integration continued from the pushed state, not the original.
        assert!(t.position_m(1) > -35.0);
        assert!(t.position_m(1) < -34.0);
    }

    #[test]
    fn capacity_does_not_change_the_trajectory() {
        let run = |capacity: usize| {
            let mut t = SurrogateTraffic::with_capacity(IdmParams::default(), capacity);
            for i in 0..10 {
                t.push_vehicle(-(i as f64) * 25.0, 20.0);
            }
            for _ in 0..1_000 {
                t.step(DT);
            }
            (0..t.len()).map(|i| t.position_m(i).to_bits()).collect()
        };
        let a: Vec<u64> = run(0);
        let b: Vec<u64> = run(1_024);
        assert_eq!(a, b, "capacity is a memory hint, not behaviour");
    }

    #[test]
    fn chain_must_be_pushed_front_to_back() {
        let mut t = chain(2, 30.0, 20.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.push_vehicle(100.0, 20.0);
        }));
        assert!(result.is_err(), "out-of-order push must panic");
    }

    #[test]
    fn vectorized_step_matches_reference_bitwise() {
        // A mix of mirrored and integrated slots, a braking mirrored
        // leader and a mid-chain mirror: every branch of the old per-slot
        // update is exercised, and the lane-zipped step must reproduce it
        // bit-for-bit over thousands of ticks.
        let build = || {
            let mut t = chain(40, 28.0, 21.0);
            t.set_mirrored(0, true);
            t.set_mirrored(17, true);
            t
        };
        let mut fast = build();
        let mut reference = build();
        let mut lead_pos = 0.0;
        let mut lead_speed = 21.0;
        for tick in 0..5_000 {
            if tick >= 500 {
                lead_speed = (lead_speed - 4.0 * DT.as_secs_f64()).max(2.0);
            }
            lead_pos += lead_speed * DT.as_secs_f64();
            let mirror_pos = reference.position_m(16) - 30.0;
            for t in [&mut fast, &mut reference] {
                t.push_state(0, lead_pos, lead_speed);
                if t.is_mirrored(17) {
                    t.push_state(17, mirror_pos, lead_speed);
                }
            }
            fast.step(DT);
            reference.step_reference(DT);
            // Mid-run demotion: slot 17 rejoins the surrogate tier.
            if tick == 2_500 {
                fast.set_mirrored(17, false);
                reference.set_mirrored(17, false);
            }
        }
        for i in 0..fast.len() {
            assert_eq!(
                fast.position_m(i).to_bits(),
                reference.position_m(i).to_bits(),
                "position lane diverged at slot {i}"
            );
            assert_eq!(
                fast.speed_mps(i).to_bits(),
                reference.speed_mps(i).to_bits(),
                "speed lane diverged at slot {i}"
            );
            assert_eq!(
                fast.gap_m(i).to_bits(),
                reference.gap_m(i).to_bits(),
                "gap lane diverged at slot {i}"
            );
        }
        assert_eq!(fast.min_gap_m().to_bits(), reference.min_gap_m().to_bits());
        assert_eq!(fast.collision(), reference.collision());
    }

    #[test]
    fn chunked_step_matches_reference_bitwise() {
        // The 5,000-tick braking scenario with mid-run promotion (slot 23
        // joins the mirrored tier at tick 1,000) and demotion (slots 17
        // and 23 rejoin the surrogate tier): the pool-chunked step must
        // reproduce the scalar oracle bit-for-bit at every chunk size and
        // thread count, including the degenerate single-chunk fallback.
        let run = |stepper: &mut dyn FnMut(&mut SurrogateTraffic)| {
            let mut t = chain(40, 28.0, 21.0);
            t.set_mirrored(0, true);
            t.set_mirrored(17, true);
            let mut lead_pos = 0.0;
            let mut lead_speed = 21.0;
            for tick in 0..5_000 {
                if tick >= 500 {
                    lead_speed = (lead_speed - 4.0 * DT.as_secs_f64()).max(2.0);
                }
                lead_pos += lead_speed * DT.as_secs_f64();
                t.push_state(0, lead_pos, lead_speed);
                if t.is_mirrored(17) {
                    let mirror_pos = t.position_m(16) - 30.0;
                    t.push_state(17, mirror_pos, lead_speed);
                }
                if t.is_mirrored(23) {
                    let (x, v) = (t.position_m(22) - 32.0, t.speed_mps(22));
                    t.push_state(23, x, v);
                }
                stepper(&mut t);
                if tick == 1_000 {
                    t.set_mirrored(23, true);
                }
                if tick == 2_500 {
                    t.set_mirrored(17, false);
                }
                if tick == 3_500 {
                    t.set_mirrored(23, false);
                }
            }
            t
        };
        let reference = run(&mut |t| t.step_reference(DT));
        for (threads, chunk) in [(2, 1), (2, 3), (3, 8), (4, 16), (4, 64)] {
            let mut pool = TickPool::new(threads);
            let chunked = run(&mut |t| {
                t.step_chunked(DT, &mut pool, chunk);
            });
            let label = format!("{threads} threads, chunk {chunk}");
            for i in 0..reference.len() {
                assert_eq!(
                    chunked.position_m(i).to_bits(),
                    reference.position_m(i).to_bits(),
                    "position lane diverged at slot {i} ({label})"
                );
                assert_eq!(
                    chunked.speed_mps(i).to_bits(),
                    reference.speed_mps(i).to_bits(),
                    "speed lane diverged at slot {i} ({label})"
                );
                assert_eq!(
                    chunked.gap_m(i).to_bits(),
                    reference.gap_m(i).to_bits(),
                    "gap lane diverged at slot {i} ({label})"
                );
            }
            assert_eq!(
                chunked.min_gap_m().to_bits(),
                reference.min_gap_m().to_bits(),
                "min gap diverged ({label})"
            );
            assert_eq!(chunked.collision(), reference.collision(), "{label}");
        }
    }

    #[test]
    fn standstill_chain_keeps_min_gap() {
        let mut t = chain(5, 4.5, 0.0);
        for _ in 0..30 * 100 {
            t.step(DT);
        }
        assert!(!t.collision());
        // From near-standstill spacing the chain pulls away in order.
        assert!(t.speed_mps(0) > t.speed_mps(4));
    }
}
