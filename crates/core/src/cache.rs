//! Content-hashed job identity and the memoizing result cache behind
//! [`crate::fleet::FleetRunner::with_cache`].
//!
//! A fleet job's identity is a deterministic structural hash over
//! everything that can influence its outcome: the full [`Scenario`]
//! (label, events, duration, strategy, ego state, lead-vehicle profile,
//! reconfiguration policy), the optional [`PlatoonSpec`] / [`CitySpec`]
//! payloads, the *derived* per-job seed, and the [`ENGINE_VERSION`] salt. Two jobs with the same
//! key are bit-identical re-runs, so a warm [`ResultCache`] serves their
//! [`Summary`] without simulating anything; any field change — a nudged
//! fog density, one extra platoon member, a different seed — produces a
//! new key and a fresh run.
//!
//! Invalidation is by salt, not by eviction: whenever a change anywhere
//! in the engine alters simulated trajectories, [`ENGINE_VERSION`] is
//! bumped, every old key becomes unreachable, and stale on-disk entries
//! are simply never read again. The hash itself is a hand-rolled FNV-1a
//! over a fixed little-endian field encoding — *not* `std`'s `Hasher`,
//! whose output is not guaranteed stable across releases — so keys match
//! across processes, platforms and toolchains, which is what makes the
//! optional on-disk store ([`ResultCache::with_disk`]) valid across
//! sessions.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use saav_can::v2v::LinkFault;
use saav_vehicle::sensors::SensorFault;
use saav_vehicle::surrogate::IdmParams;
use saav_vehicle::traffic::Participant;

use crate::binenc;
use crate::outcome::{CitySummary, PlatoonSummary, Summary};
use crate::scenario::{
    CitySpec, PeerLie, PlatoonSpec, ReconfigSpec, ResponseStrategy, Scenario, ScenarioEvent,
};

/// Engine-version salt mixed into every job key. Bump this whenever a
/// code change alters simulated trajectories (physics, monitors,
/// negotiation, seeding): every previously cached result then misses and
/// is recomputed, which is the cache's only invalidation mechanism.
pub const ENGINE_VERSION: u64 = 2;

/// Version byte of the on-disk [`Summary`] codec. Bumping it (on a codec
/// layout change) turns old files into decode failures, i.e. misses.
const SUMMARY_CODEC_VERSION: u8 = 1;

/// A content-hashed fleet-job identity: equal keys mean bit-identical
/// re-runs under the current [`ENGINE_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobKey(pub u64);

/// Deterministic FNV-1a 64-bit hasher over a fixed field encoding.
///
/// Unlike `std::hash::Hasher` implementations, the output is a stable
/// function of the written bytes — across processes, platforms and
/// compiler versions — so it is safe to persist keys on disk.
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
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Hashes one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.state ^= u64::from(v);
        self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Hashes a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
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
        for &b in s.as_bytes() {
            self.write_u8(b);
        }
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
    h.write_u64(ENGINE_VERSION);
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

// --- on-disk Summary codec ----------------------------------------------

fn write_opt_time(out: &mut Vec<u8>, t: Option<saav_sim::time::Time>) {
    match t {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            binenc::write_varint(out, t.as_nanos());
        }
    }
}

fn read_opt_time(bytes: &[u8], pos: &mut usize) -> Option<Option<saav_sim::time::Time>> {
    match bytes.get(*pos)? {
        0 => {
            *pos += 1;
            Some(None)
        }
        1 => {
            *pos += 1;
            let ns = binenc::read_varint(bytes, pos)?;
            Some(Some(saav_sim::time::Time::from_nanos(ns)))
        }
        _ => None,
    }
}

/// Serializes a [`Summary`] into the versioned on-disk cache format.
pub(crate) fn encode_summary(s: &Summary, out: &mut Vec<u8>) {
    out.push(SUMMARY_CODEC_VERSION);
    binenc::write_str(out, &s.label);
    out.push(u8::from(s.collision));
    binenc::write_f64(out, s.distance_m);
    binenc::write_f64(out, s.min_ttc_s);
    write_opt_time(out, s.first_detection);
    write_opt_time(out, s.first_model_deviation);
    write_opt_time(out, s.mitigated_at);
    match s.final_mode {
        saav_skills::decision::DrivingMode::Normal => out.push(0),
        saav_skills::decision::DrivingMode::Reduced { speed_cap_mps } => {
            out.push(1);
            binenc::write_f64(out, speed_cap_mps);
        }
        saav_skills::decision::DrivingMode::SafeStop => out.push(2),
    }
    match &s.platoon {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            binenc::write_varint(out, p.members as u64);
            binenc::write_varint(out, p.member_collisions as u64);
            write_opt_time(out, p.converged_at);
            write_opt_time(out, p.first_ejection);
            binenc::write_varint(out, p.ejected.len() as u64);
            for &m in &p.ejected {
                binenc::write_varint(out, m as u64);
            }
            match p.final_agreed_mps {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    binenc::write_f64(out, v);
                }
            }
        }
    }
    match &s.city {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            binenc::write_varint(out, c.vehicles as u64);
            binenc::write_varint(out, c.focal as u64);
            binenc::write_varint(out, c.promotions);
            binenc::write_varint(out, c.demotions);
            binenc::write_varint(out, c.focal_collisions as u64);
            write_opt_time(out, c.first_focal_detection);
        }
    }
    let checksum = binenc::fnv64(out);
    binenc::write_u64(out, checksum);
}

/// Decodes a [`Summary`] written by [`encode_summary`]. Any corruption,
/// truncation, version skew or trailing garbage yields `None` — the cache
/// treats that as a miss and recomputes.
pub(crate) fn decode_summary(bytes: &[u8]) -> Option<Summary> {
    let payload_len = bytes.len().checked_sub(8)?;
    let (payload, tail) = bytes.split_at(payload_len);
    let mut tail_pos = 0;
    if binenc::read_u64(tail, &mut tail_pos)? != binenc::fnv64(payload) {
        return None;
    }
    let mut pos = 0;
    if *payload.first()? != SUMMARY_CODEC_VERSION {
        return None;
    }
    pos += 1;
    let label = binenc::read_str(payload, &mut pos)?;
    let collision = match payload.get(pos)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    pos += 1;
    let distance_m = binenc::read_f64(payload, &mut pos)?;
    let min_ttc_s = binenc::read_f64(payload, &mut pos)?;
    let first_detection = read_opt_time(payload, &mut pos)?;
    let first_model_deviation = read_opt_time(payload, &mut pos)?;
    let mitigated_at = read_opt_time(payload, &mut pos)?;
    let final_mode = match payload.get(pos)? {
        0 => {
            pos += 1;
            saav_skills::decision::DrivingMode::Normal
        }
        1 => {
            pos += 1;
            let speed_cap_mps = binenc::read_f64(payload, &mut pos)?;
            saav_skills::decision::DrivingMode::Reduced { speed_cap_mps }
        }
        2 => {
            pos += 1;
            saav_skills::decision::DrivingMode::SafeStop
        }
        _ => return None,
    };
    let platoon = match payload.get(pos)? {
        0 => {
            pos += 1;
            None
        }
        1 => {
            pos += 1;
            let members = usize::try_from(binenc::read_varint(payload, &mut pos)?).ok()?;
            let member_collisions =
                usize::try_from(binenc::read_varint(payload, &mut pos)?).ok()?;
            let converged_at = read_opt_time(payload, &mut pos)?;
            let first_ejection = read_opt_time(payload, &mut pos)?;
            let n = usize::try_from(binenc::read_varint(payload, &mut pos)?).ok()?;
            if n > payload.len() {
                return None;
            }
            let mut ejected = Vec::with_capacity(n);
            for _ in 0..n {
                ejected.push(usize::try_from(binenc::read_varint(payload, &mut pos)?).ok()?);
            }
            let final_agreed_mps = match payload.get(pos)? {
                0 => {
                    pos += 1;
                    None
                }
                1 => {
                    pos += 1;
                    Some(binenc::read_f64(payload, &mut pos)?)
                }
                _ => return None,
            };
            Some(PlatoonSummary {
                members,
                member_collisions,
                converged_at,
                first_ejection,
                ejected,
                final_agreed_mps,
            })
        }
        _ => return None,
    };
    let city = match payload.get(pos)? {
        0 => {
            pos += 1;
            None
        }
        1 => {
            pos += 1;
            let vehicles = usize::try_from(binenc::read_varint(payload, &mut pos)?).ok()?;
            let focal = usize::try_from(binenc::read_varint(payload, &mut pos)?).ok()?;
            let promotions = binenc::read_varint(payload, &mut pos)?;
            let demotions = binenc::read_varint(payload, &mut pos)?;
            let focal_collisions = usize::try_from(binenc::read_varint(payload, &mut pos)?).ok()?;
            let first_focal_detection = read_opt_time(payload, &mut pos)?;
            Some(CitySummary {
                vehicles,
                focal,
                promotions,
                demotions,
                focal_collisions,
                first_focal_detection,
            })
        }
        _ => return None,
    };
    if pos != payload.len() {
        return None;
    }
    Some(Summary {
        label,
        collision,
        distance_m,
        min_ttc_s,
        first_detection,
        first_model_deviation,
        mitigated_at,
        final_mode,
        platoon,
        city,
    })
}

// --- the cache ----------------------------------------------------------

/// Counter snapshot of a [`ResultCache`]'s traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache (memory or disk).
    pub hits: u64,
    /// Lookups that found nothing and forced a simulation.
    pub misses: u64,
    /// The subset of `hits` that was loaded (and decoded) from disk.
    pub disk_hits: u64,
    /// Summaries stored into the cache.
    pub insertions: u64,
}

/// A memoizing store of fleet-run [`Summary`]s keyed by [`JobKey`].
///
/// Cloning is cheap and shares the underlying store (an `Arc`), so one
/// cache can back many [`crate::fleet::FleetRunner`]s and outlive all of
/// them. The in-memory map is always consulted first; with
/// [`ResultCache::with_disk`], misses fall through to one file per key
/// and memory is repopulated on a disk hit. Disk writes are best-effort:
/// an unwritable directory silently degrades to memory-only caching.
#[derive(Debug, Clone, Default)]
pub struct ResultCache {
    inner: Arc<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    mem: Mutex<HashMap<u64, Arc<Summary>>>,
    disk: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    insertions: AtomicU64,
}

impl ResultCache {
    /// A purely in-memory cache.
    pub fn in_memory() -> Self {
        ResultCache::default()
    }

    /// A cache backed by one file per key under `dir` (created if
    /// missing), so warm results survive across processes.
    pub fn with_disk(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            inner: Arc::new(CacheInner {
                disk: Some(dir),
                ..CacheInner::default()
            }),
        })
    }

    /// The on-disk store directory, if this cache has one.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.inner.disk.as_deref()
    }

    fn file(dir: &Path, key: JobKey) -> PathBuf {
        dir.join(format!("{:016x}.sum", key.0))
    }

    /// Looks up a cached summary. The pure in-memory hit path performs no
    /// heap allocation (pinned by `tests/zero_alloc.rs`).
    pub fn get(&self, key: JobKey) -> Option<Arc<Summary>> {
        let mem = self.inner.mem.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = mem.get(&key.0) {
            let hit = Arc::clone(hit);
            drop(mem);
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Some(hit);
        }
        drop(mem);
        if let Some(dir) = &self.inner.disk {
            if let Some(summary) = std::fs::read(Self::file(dir, key))
                .ok()
                .and_then(|bytes| decode_summary(&bytes))
            {
                let summary = Arc::new(summary);
                self.inner
                    .mem
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(key.0, Arc::clone(&summary));
                self.inner.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                return Some(summary);
            }
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a computed summary under its job key (memory, plus disk when
    /// configured).
    pub fn insert(&self, key: JobKey, summary: Arc<Summary>) {
        if let Some(dir) = &self.inner.disk {
            let mut bytes = Vec::new();
            encode_summary(&summary, &mut bytes);
            // Best effort: a full or read-only disk must not fail the run.
            let _ = std::fs::write(Self::file(dir, key), &bytes);
        }
        self.inner
            .mem
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key.0, summary);
        self.inner.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of summaries resident in memory (disk-only entries not yet
    /// touched are not counted).
    pub fn len(&self) -> usize {
        self.inner
            .mem
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Whether no summaries are resident in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every in-memory entry (on-disk files are kept: they become
    /// reloadable again on the next lookup).
    pub fn clear(&self) {
        self.inner
            .mem
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// A snapshot of the hit/miss/store counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            disk_hits: self.inner.disk_hits.load(Ordering::Relaxed),
            insertions: self.inner.insertions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioFamily;
    use saav_sim::time::{Duration, Time};
    use std::sync::atomic::AtomicU32;

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
    fn key_values_are_stable() {
        // On-disk caches written by earlier builds keep hitting only while
        // an unchanged scenario keeps its key under the same
        // `ENGINE_VERSION`; a version bump is the one reason to re-pin.
        assert_eq!(job_key(&base_scenario()), JobKey(0xee96_456d_dc22_3c6c));
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
            final_mode: saav_skills::decision::DrivingMode::Reduced {
                speed_cap_mps: 13.5,
            },
            platoon: Some(PlatoonSummary {
                members: 4,
                member_collisions: 1,
                converged_at: Some(Time::from_secs(3)),
                first_ejection: None,
                ejected: vec![2, 3],
                final_agreed_mps: Some(21.25),
            }),
            city: Some(CitySummary {
                vehicles: 32,
                focal: 2,
                promotions: 5,
                demotions: 4,
                focal_collisions: 0,
                first_focal_detection: Some(Time::from_secs(12)),
            }),
        }
    }

    #[test]
    fn summary_codec_round_trips() {
        for summary in [
            sample_summary(),
            Summary {
                platoon: None,
                city: None,
                first_detection: None,
                mitigated_at: None,
                final_mode: saav_skills::decision::DrivingMode::Normal,
                ..sample_summary()
            },
        ] {
            let mut bytes = Vec::new();
            encode_summary(&summary, &mut bytes);
            assert_eq!(decode_summary(&bytes).as_ref(), Some(&summary));
        }
    }

    #[test]
    fn summary_codec_rejects_corruption() {
        let mut bytes = Vec::new();
        encode_summary(&sample_summary(), &mut bytes);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert_eq!(decode_summary(&bad), None, "flipped byte {i} decoded");
        }
        assert_eq!(decode_summary(&bytes[..bytes.len() - 3]), None);
        assert_eq!(decode_summary(&[]), None);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "saav-cache-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn disk_store_survives_a_new_cache() {
        let dir = temp_dir("survive");
        let key = job_key(&base_scenario());
        {
            let cache = ResultCache::with_disk(&dir).unwrap();
            cache.insert(key, Arc::new(sample_summary()));
            assert_eq!(cache.stats().insertions, 1);
        }
        let fresh = ResultCache::with_disk(&dir).unwrap();
        assert!(fresh.is_empty(), "nothing resident before the first get");
        let hit = fresh.get(key).expect("disk hit");
        assert_eq!(*hit, sample_summary());
        let stats = fresh.stats();
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (1, 1, 0));
        // Now resident: the second get is a pure memory hit.
        assert!(fresh.get(key).is_some());
        assert_eq!(fresh.stats().disk_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_disk_entry_is_a_miss() {
        let dir = temp_dir("corrupt");
        let cache = ResultCache::with_disk(&dir).unwrap();
        let key = JobKey(0xdead_beef);
        std::fs::write(ResultCache::file(&dir, key), b"not a summary").unwrap();
        assert_eq!(cache.get(key), None);
        assert_eq!(cache.stats().misses, 1);
        std::fs::remove_dir_all(&dir).ok();
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
        assert_eq!(clone.len(), 1);
        clone.clear();
        assert!(cache.is_empty());
    }
}
