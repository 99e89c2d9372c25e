//! Content-hashed job identity and the memoizing result cache behind
//! [`crate::fleet::FleetRunner::with_cache`].
//!
//! A fleet job's identity is a deterministic structural hash over
//! everything that can influence its outcome: the full [`Scenario`]
//! (label, events, duration, strategy, ego state, lead-vehicle profile,
//! reconfiguration policy), the optional [`PlatoonSpec`] / [`CitySpec`]
//! payloads and the *derived* per-job seed. Two jobs with the same key
//! are bit-identical re-runs, so a warm [`ResultCache`] serves their
//! [`Summary`] without simulating anything; any field change — a nudged
//! fog density, one extra platoon member, a different seed — produces a
//! new key and a fresh run.
//!
//! The cache lives in memory and never outlives the engine that filled
//! it, so it needs no invalidation: there is no eviction and no version
//! salt. The hash is a hand-rolled FNV-1a over a fixed little-endian
//! field encoding — *not* `std`'s `Hasher`, whose output is not
//! guaranteed stable across releases — so a key is a pure function of
//! the job, on any host and toolchain.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use saav_can::v2v::LinkFault;
use saav_vehicle::sensors::SensorFault;
use saav_vehicle::surrogate::IdmParams;
use saav_vehicle::traffic::Participant;

use crate::binenc;
use crate::outcome::Summary;
use crate::scenario::{
    CitySpec, PeerLie, PlatoonSpec, ReconfigSpec, ResponseStrategy, Scenario, ScenarioEvent,
};

/// A content-hashed fleet-job identity: equal keys mean bit-identical
/// re-runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobKey(pub u64);

/// Deterministic FNV-1a 64-bit hasher over a fixed field encoding.
///
/// Unlike `std::hash::Hasher` implementations, the output is a stable
/// function of the written bytes — across processes, platforms and
/// compiler versions.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

impl KeyHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        KeyHasher {
            state: binenc::FNV64_OFFSET,
        }
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        self.state = binenc::fnv64_fold(self.state, bytes);
    }

    /// Hashes one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Hashes a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Hashes an `f64` by its IEEE-754 bits (`-0.0` and `0.0` differ, as
    /// do distinct NaN payloads — bitwise identity is the contract).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Hashes a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Hashes a length-prefixed UTF-8 string (the prefix keeps `"ab","c"`
    /// distinct from `"a","bc"` across consecutive writes).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated 64-bit hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Stable wire code of a [`ResponseStrategy`] (shared by the job hash and
/// the columnar format — do not reorder).
pub(crate) fn strategy_code(s: ResponseStrategy) -> u8 {
    match s {
        ResponseStrategy::SingleLayer => 0,
        ResponseStrategy::CrossLayer => 1,
        ResponseStrategy::ObjectiveStop => 2,
    }
}

/// Inverse of [`strategy_code`].
pub(crate) fn strategy_from_code(c: u8) -> Option<ResponseStrategy> {
    match c {
        0 => Some(ResponseStrategy::SingleLayer),
        1 => Some(ResponseStrategy::CrossLayer),
        2 => Some(ResponseStrategy::ObjectiveStop),
        _ => None,
    }
}

/// Stable wire code of a [`SensorFault`].
fn sensor_fault_code(f: SensorFault) -> u8 {
    match f {
        SensorFault::None => 0,
        SensorFault::StuckAt => 1,
        SensorFault::Dead => 2,
        SensorFault::Noisy => 3,
    }
}

/// The content-hashed identity of one fleet job. Call *after* the per-job
/// seed has been derived — the seed is part of the identity.
///
/// The scenario and its reconfiguration, platoon and city specs are
/// destructured without `..`, here and in `hash_platoon` / `hash_city`: a
/// new field fails to compile until it is hashed, instead of silently
/// aliasing cache entries.
///
/// The label is part of the identity although it never changes the run:
/// a cache hit returns the stored [`Summary`], whose `label` is the one of
/// the job that filled the entry, and [`crate::fleet::FleetRecord::family`]
/// reads that label. A key without it would file one job's record under
/// another job's family in E15b and in
/// [`FleetCoordinator::reallocate`](crate::fleet::FleetCoordinator::reallocate).
pub fn job_key(scenario: &Scenario) -> JobKey {
    let Scenario {
        label,
        events,
        duration,
        strategy,
        seed,
        ego_speed_mps,
        lead,
        platoon,
        city,
        reconfig:
            ReconfigSpec {
                live,
                prefer_fast,
                rollback_below_c,
            },
    } = scenario;
    let mut h = KeyHasher::new();
    h.write_str(label);
    h.write_u64(*seed);
    h.write_u64(duration.as_nanos());
    h.write_u8(strategy_code(*strategy));
    h.write_f64(*ego_speed_mps);
    hash_participant(&mut h, lead);
    h.write_u64(events.len() as u64);
    for &(t, ref ev) in events {
        h.write_u64(t.as_nanos());
        hash_event(&mut h, ev);
    }
    match platoon {
        None => h.write_u8(0),
        Some(p) => {
            h.write_u8(1);
            hash_platoon(&mut h, p);
        }
    }
    match city {
        None => h.write_u8(0),
        Some(c) => {
            h.write_u8(2);
            hash_city(&mut h, c);
        }
    }
    // Runtime reconfiguration policy: every field steers which contract
    // switches happen, so each is part of the job identity.
    h.write_bool(*live);
    h.write_bool(*prefer_fast);
    match *rollback_below_c {
        None => h.write_u8(0),
        Some(c) => {
            h.write_u8(3);
            h.write_f64(c);
        }
    }
    JobKey(h.finish())
}

fn hash_participant(h: &mut KeyHasher, p: &Participant) {
    h.write_bool(p.is_external());
    h.write_f64(p.position_m());
    h.write_f64(p.initial_speed_mps());
    h.write_u64(p.segments().len() as u64);
    for seg in p.segments() {
        h.write_u64(seg.duration.as_nanos());
        h.write_f64(seg.end_speed_mps);
    }
}

fn hash_event(h: &mut KeyHasher, ev: &ScenarioEvent) {
    match *ev {
        ScenarioEvent::CompromiseRearBrake => h.write_u8(0),
        ScenarioEvent::FogRamp { to, over } => {
            h.write_u8(1);
            h.write_f64(to);
            h.write_u64(over.as_nanos());
        }
        ScenarioEvent::AmbientRamp { to_c, over } => {
            h.write_u8(2);
            h.write_f64(to_c);
            h.write_u64(over.as_nanos());
        }
        ScenarioEvent::RadarFault(f) => {
            h.write_u8(3);
            h.write_u8(sensor_fault_code(f));
        }
    }
}

fn hash_platoon(h: &mut KeyHasher, p: &PlatoonSpec) {
    let PlatoonSpec {
        members,
        initial_gap_m,
        cruise_mps,
        max_faults,
        negotiation_period,
        safe_speed_delta_mps,
        liars,
        links,
    } = p;
    h.write_u64(*members as u64);
    h.write_f64(*initial_gap_m);
    h.write_f64(*cruise_mps);
    h.write_u64(*max_faults as u64);
    h.write_u64(negotiation_period.as_nanos());
    h.write_u64(safe_speed_delta_mps.len() as u64);
    for &d in safe_speed_delta_mps {
        h.write_f64(d);
    }
    h.write_u64(liars.len() as u64);
    for &PeerLie { member, claim_mps } in liars {
        h.write_u64(member as u64);
        h.write_f64(claim_mps);
    }
    h.write_u64(links.len() as u64);
    for &(
        member,
        LinkFault {
            loss_p,
            delay,
            spoof_mps,
        },
    ) in links
    {
        h.write_u64(member as u64);
        h.write_f64(loss_p);
        h.write_u64(delay.as_nanos());
        match spoof_mps {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                h.write_f64(v);
            }
        }
    }
}

fn hash_city(h: &mut KeyHasher, c: &CitySpec) {
    let CitySpec {
        background,
        focal,
        initial_gap_m,
        cruise_mps,
        promotion_radius_m,
        idm:
            IdmParams {
                desired_speed_mps,
                headway_s,
                min_gap_m,
                max_accel_mps2,
                comfort_decel_mps2,
            },
    } = *c;
    h.write_u64(background as u64);
    h.write_u64(focal as u64);
    h.write_f64(initial_gap_m);
    h.write_f64(cruise_mps);
    h.write_f64(promotion_radius_m);
    h.write_f64(desired_speed_mps);
    h.write_f64(headway_s);
    h.write_f64(min_gap_m);
    h.write_f64(max_accel_mps2);
    h.write_f64(comfort_decel_mps2);
}

// --- the cache ----------------------------------------------------------

/// Counter snapshot of a [`ResultCache`]'s traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing and forced a simulation.
    pub misses: u64,
    /// Summaries stored into the cache.
    pub insertions: u64,
}

/// An in-memory memoizing store of fleet-run [`Summary`]s keyed by
/// [`JobKey`].
///
/// Cloning is cheap and shares the underlying store (an `Arc`), so one
/// cache can back many [`crate::fleet::FleetRunner`]s and outlive all of
/// them.
#[derive(Debug, Clone, Default)]
pub struct ResultCache {
    inner: Arc<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    mem: Mutex<HashMap<u64, Arc<Summary>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
}

impl ResultCache {
    /// An empty cache.
    pub fn in_memory() -> Self {
        ResultCache::default()
    }

    fn mem(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<Summary>>> {
        self.inner.mem.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a cached summary. A hit performs no heap allocation
    /// (pinned by `tests/zero_alloc.rs`).
    pub fn get(&self, key: JobKey) -> Option<Arc<Summary>> {
        let hit = self.mem().get(&key.0).map(Arc::clone);
        let counter = if hit.is_some() {
            &self.inner.hits
        } else {
            &self.inner.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Stores a computed summary under its job key.
    pub fn insert(&self, key: JobKey, summary: Arc<Summary>) {
        self.mem().insert(key.0, summary);
        self.inner.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the hit/miss/store counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            insertions: self.inner.insertions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioFamily;
    use saav_sim::time::{Duration, Time};

    fn base_scenario() -> Scenario {
        let mut s = ScenarioFamily::Intrusion.build(ResponseStrategy::CrossLayer, 42);
        s.platoon = Some(PlatoonSpec::new(4).with_liar(2, 35.0).with_link(
            1,
            LinkFault {
                loss_p: 0.2,
                delay: Duration::from_millis(40),
                spoof_mps: None,
            },
        ));
        s.city = Some(CitySpec::new(30, 2));
        s
    }

    #[test]
    fn identical_scenarios_share_a_key() {
        assert_eq!(job_key(&base_scenario()), job_key(&base_scenario()));
    }

    #[test]
    fn every_field_change_yields_a_new_key() {
        let base = job_key(&base_scenario());
        type Mutation = Box<dyn Fn(&mut Scenario)>;
        let mutations: Vec<Mutation> = vec![
            Box::new(|s| s.label.push('x')),
            Box::new(|s| s.seed ^= 1),
            Box::new(|s| s.duration = s.duration.saturating_add(Duration::from_nanos(1))),
            Box::new(|s| s.strategy = ResponseStrategy::SingleLayer),
            Box::new(|s| s.ego_speed_mps += 0.5),
            Box::new(|s| {
                s.events
                    .push((Time::from_secs(90), ScenarioEvent::CompromiseRearBrake));
            }),
            Box::new(|s| s.events[0].0 += Duration::from_nanos(1)),
            Box::new(|s| {
                s.events[0].1 = ScenarioEvent::RadarFault(SensorFault::Dead);
            }),
            Box::new(|s| s.platoon = None),
            Box::new(|s| s.platoon.as_mut().unwrap().members += 1),
            Box::new(|s| s.platoon.as_mut().unwrap().initial_gap_m += 1.0),
            Box::new(|s| s.platoon.as_mut().unwrap().cruise_mps += 0.1),
            Box::new(|s| s.platoon.as_mut().unwrap().max_faults += 1),
            Box::new(|s| {
                s.platoon.as_mut().unwrap().negotiation_period = Duration::from_millis(750);
            }),
            Box::new(|s| s.platoon.as_mut().unwrap().safe_speed_delta_mps.push(1.0)),
            Box::new(|s| {
                s.platoon.as_mut().unwrap().liars.push(PeerLie {
                    member: 3,
                    claim_mps: 5.0,
                });
            }),
            Box::new(|s| s.platoon.as_mut().unwrap().liars[0].member += 1),
            Box::new(|s| s.platoon.as_mut().unwrap().liars[0].claim_mps += 1.0),
            Box::new(|s| s.platoon.as_mut().unwrap().links[0].0 += 1),
            Box::new(|s| s.platoon.as_mut().unwrap().links[0].1.loss_p += 0.1),
            Box::new(|s| {
                s.platoon.as_mut().unwrap().links[0].1.delay += Duration::from_millis(1);
            }),
            Box::new(|s| {
                s.platoon.as_mut().unwrap().links[0].1.spoof_mps = Some(12.0);
            }),
            Box::new(|s| s.city = None),
            Box::new(|s| s.city.as_mut().unwrap().background += 1),
            Box::new(|s| s.city.as_mut().unwrap().focal += 1),
            Box::new(|s| s.city.as_mut().unwrap().initial_gap_m += 1.0),
            Box::new(|s| s.city.as_mut().unwrap().cruise_mps += 0.5),
            Box::new(|s| s.city.as_mut().unwrap().promotion_radius_m += 1.0),
            Box::new(|s| s.city.as_mut().unwrap().idm.desired_speed_mps += 0.5),
            Box::new(|s| s.city.as_mut().unwrap().idm.headway_s += 0.1),
            Box::new(|s| s.city.as_mut().unwrap().idm.min_gap_m += 0.5),
            Box::new(|s| s.city.as_mut().unwrap().idm.max_accel_mps2 += 0.1),
            Box::new(|s| s.city.as_mut().unwrap().idm.comfort_decel_mps2 += 0.1),
            Box::new(|s| s.lead = Participant::cruising(80.0, 20.0)),
            Box::new(|s| s.reconfig.live = false),
            Box::new(|s| s.reconfig.prefer_fast = true),
            Box::new(|s| s.reconfig.rollback_below_c = Some(70.0)),
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut s = base_scenario();
            mutate(&mut s);
            assert_ne!(job_key(&s), base, "mutation #{i} did not change the key");
        }
    }

    #[test]
    fn full_grid_keys_are_distinct() {
        use std::collections::HashSet;
        let mut keys = HashSet::new();
        for (i, &family) in ScenarioFamily::ALL.iter().enumerate() {
            for (j, &strategy) in ResponseStrategy::ALL.iter().enumerate() {
                let mut s = family.build(strategy, 0);
                s.seed = saav_sim::rng::derive_seed(2024, (i * 3 + j) as u64);
                assert!(keys.insert(job_key(&s).0), "duplicate key for {}", s.label);
            }
        }
        assert_eq!(keys.len(), 27);
    }

    fn sample_summary() -> Summary {
        Summary {
            label: "intrusion/CrossLayer".into(),
            collision: false,
            distance_m: 1986.5,
            min_ttc_s: f64::INFINITY,
            first_detection: Some(Time::from_millis(30_010)),
            first_model_deviation: None,
            mitigated_at: Some(Time::from_millis(30_020)),
            final_mode: saav_skills::decision::DrivingMode::Normal,
            platoon: None,
            city: None,
        }
    }

    #[test]
    fn memory_hits_and_misses_are_counted() {
        let cache = ResultCache::in_memory();
        let key = JobKey(7);
        assert!(cache.get(key).is_none());
        cache.insert(key, Arc::new(sample_summary()));
        assert!(cache.get(key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        // Clones share the store and the counters.
        let clone = cache.clone();
        assert!(clone.get(key).is_some());
        clone.insert(JobKey(8), Arc::new(sample_summary()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 1, 2));
    }
}
