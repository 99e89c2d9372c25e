//! Compact columnar binary results format for fleet batches.
//!
//! [`FleetColumns`] transposes a batch of [`FleetRecord`]s into per-field
//! contiguous arrays: labels are dictionary-encoded, strategies and
//! driving modes are one-byte codes, optional timestamps are a validity
//! bitmap plus zigzag-delta varints over nanoseconds, floats travel as
//! raw IEEE-754 bits, and per-run ejection lists are a CSR
//! offsets+values pair. The serialized form ([`FleetColumns::to_bytes`])
//! carries a magic, a schema version and a trailing FNV-64 checksum, so
//! corruption is a [`DecodeError`], never a garbage batch.
//!
//! The format is lossless: `to_records(from_bytes(to_bytes(x)))` is
//! field-identical to the input (round-trip tested against the CSV
//! writer), and the fleet statistics path reads the columns *directly* —
//! [`FleetColumns::stats`] reduces the arrays through the same
//! accumulator as [`FleetStats::from_records`], producing bit-identical
//! aggregates without materializing records. Group-by aggregation
//! queries ([`FleetColumns::latency_percentiles`]) scan the same columns.

use std::sync::Arc;

use saav_sim::time::Time;
use saav_skills::decision::DrivingMode;

use crate::binenc;
use crate::cache::{strategy_code, strategy_from_code};
use crate::fleet::{
    latency_stats_from, FleetRecord, FleetStats, LatencyStats, StatRow, StatsAccumulator,
};
use crate::outcome::{latency_s, CitySummary, PlatoonSummary, Summary};

/// Magic prefix of the serialized columnar format.
pub const MAGIC: &[u8; 8] = b"SAAVCOLS";

/// Schema version written after the magic; decoding any other version
/// fails rather than guessing.
pub const SCHEMA_VERSION: u16 = 1;

/// Why a byte buffer failed to decode into a [`FleetColumns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The buffer's schema version is not [`SCHEMA_VERSION`].
    UnsupportedVersion,
    /// The buffer ended before the schema said it would.
    Truncated,
    /// A structural invariant failed (the reason names it).
    Corrupt(&'static str),
    /// The trailing FNV-64 checksum did not match the payload.
    BadChecksum,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a SAAV columnar buffer (bad magic)"),
            DecodeError::UnsupportedVersion => write!(f, "unsupported columnar schema version"),
            DecodeError::Truncated => write!(f, "columnar buffer truncated"),
            DecodeError::Corrupt(what) => write!(f, "columnar buffer corrupt: {what}"),
            DecodeError::BadChecksum => write!(f, "columnar buffer checksum mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Driving-mode wire codes.
const MODE_NORMAL: u8 = 0;
const MODE_REDUCED: u8 = 1;
const MODE_SAFE_STOP: u8 = 2;

/// An optional-timestamp column: full-length validity lane plus a
/// nanosecond value lane (0 where invalid). Encodes as a bitmap followed
/// by zigzag-delta varints over the valid values — consecutive runs of a
/// family share injection/detection instants, so deltas are tiny.
#[derive(Debug, Clone, PartialEq, Default)]
struct OptTimeCol {
    valid: Vec<bool>,
    ns: Vec<u64>,
}

impl OptTimeCol {
    fn with_capacity(n: usize) -> Self {
        OptTimeCol {
            valid: Vec::with_capacity(n),
            ns: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, t: Option<Time>) {
        self.valid.push(t.is_some());
        self.ns.push(t.map_or(0, |t| t.as_nanos()));
    }

    fn get(&self, i: usize) -> Option<Time> {
        self.valid[i].then(|| Time::from_nanos(self.ns[i]))
    }

    fn encode(&self, out: &mut Vec<u8>) {
        binenc::write_bitmap(out, &self.valid);
        let mut prev = 0u64;
        for (i, &v) in self.valid.iter().enumerate() {
            if v {
                let delta = self.ns[i].wrapping_sub(prev) as i64;
                binenc::write_varint(out, binenc::zigzag(delta));
                prev = self.ns[i];
            }
        }
    }

    fn decode(bytes: &[u8], pos: &mut usize, rows: usize) -> Option<OptTimeCol> {
        let valid = binenc::read_bitmap(bytes, pos, rows)?;
        let mut ns = Vec::with_capacity(rows);
        let mut prev = 0u64;
        for &v in &valid {
            if v {
                let delta = binenc::unzigzag(binenc::read_varint(bytes, pos)?);
                prev = prev.wrapping_add(delta as u64);
                ns.push(prev);
            } else {
                ns.push(0);
            }
        }
        Some(OptTimeCol { valid, ns })
    }
}

/// What to group the latency aggregation query by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupBy {
    /// The scenario-family prefix of each run's label (up to the first
    /// `/`).
    Family,
    /// The response strategy of each run.
    Strategy,
}

/// A fleet batch transposed into per-column contiguous arrays.
///
/// Construct with [`FleetColumns::from_records`] or decode with
/// [`FleetColumns::from_bytes`]; every accessor and query scans the
/// arrays directly.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetColumns {
    rows: usize,
    label_dict: Vec<String>,
    label_code: Vec<u32>,
    strategy: Vec<u8>,
    seed: Vec<u64>,
    injected: OptTimeCol,
    collision: Vec<bool>,
    distance_m: Vec<f64>,
    min_ttc_s: Vec<f64>,
    detected: OptTimeCol,
    model_detected: OptTimeCol,
    mitigated: OptTimeCol,
    mode_tag: Vec<u8>,
    mode_cap: Vec<f64>,
    platoon_valid: Vec<bool>,
    p_members: Vec<u32>,
    p_member_collisions: Vec<u32>,
    p_converged: OptTimeCol,
    p_first_ejection: OptTimeCol,
    /// CSR offsets over `p_ejected`, length `rows + 1` (rows without a
    /// platoon contribute an empty range).
    p_ejected_offsets: Vec<u32>,
    p_ejected: Vec<u32>,
    p_agreed_valid: Vec<bool>,
    p_agreed_mps: Vec<f64>,
    city_valid: Vec<bool>,
    c_vehicles: Vec<u32>,
    c_focal: Vec<u32>,
    c_promotions: Vec<u64>,
    c_demotions: Vec<u64>,
    c_focal_collisions: Vec<u32>,
    c_first_focal: OptTimeCol,
}

impl FleetColumns {
    /// Transposes a record batch into columns.
    pub fn from_records(records: &[FleetRecord]) -> Self {
        let n = records.len();
        let mut cols = FleetColumns {
            rows: n,
            label_dict: Vec::new(),
            label_code: Vec::with_capacity(n),
            strategy: Vec::with_capacity(n),
            seed: Vec::with_capacity(n),
            injected: OptTimeCol::with_capacity(n),
            collision: Vec::with_capacity(n),
            distance_m: Vec::with_capacity(n),
            min_ttc_s: Vec::with_capacity(n),
            detected: OptTimeCol::with_capacity(n),
            model_detected: OptTimeCol::with_capacity(n),
            mitigated: OptTimeCol::with_capacity(n),
            mode_tag: Vec::with_capacity(n),
            mode_cap: Vec::with_capacity(n),
            platoon_valid: Vec::with_capacity(n),
            p_members: Vec::with_capacity(n),
            p_member_collisions: Vec::with_capacity(n),
            p_converged: OptTimeCol::with_capacity(n),
            p_first_ejection: OptTimeCol::with_capacity(n),
            p_ejected_offsets: Vec::with_capacity(n + 1),
            p_ejected: Vec::new(),
            p_agreed_valid: Vec::with_capacity(n),
            p_agreed_mps: Vec::with_capacity(n),
            city_valid: Vec::with_capacity(n),
            c_vehicles: Vec::with_capacity(n),
            c_focal: Vec::with_capacity(n),
            c_promotions: Vec::with_capacity(n),
            c_demotions: Vec::with_capacity(n),
            c_focal_collisions: Vec::with_capacity(n),
            c_first_focal: OptTimeCol::with_capacity(n),
        };
        cols.p_ejected_offsets.push(0);
        for rec in records {
            let s = &rec.summary;
            let code = match cols.label_dict.iter().position(|l| *l == s.label) {
                Some(i) => i as u32,
                None => {
                    cols.label_dict.push(s.label.clone());
                    (cols.label_dict.len() - 1) as u32
                }
            };
            cols.label_code.push(code);
            cols.strategy.push(strategy_code(rec.strategy));
            cols.seed.push(rec.seed);
            cols.injected.push(rec.injected_at);
            cols.collision.push(s.collision);
            cols.distance_m.push(s.distance_m);
            cols.min_ttc_s.push(s.min_ttc_s);
            cols.detected.push(s.first_detection);
            cols.model_detected.push(s.first_model_deviation);
            cols.mitigated.push(s.mitigated_at);
            let (tag, cap) = match s.final_mode {
                DrivingMode::Normal => (MODE_NORMAL, 0.0),
                DrivingMode::Reduced { speed_cap_mps } => (MODE_REDUCED, speed_cap_mps),
                DrivingMode::SafeStop => (MODE_SAFE_STOP, 0.0),
            };
            cols.mode_tag.push(tag);
            cols.mode_cap.push(cap);
            match &s.platoon {
                Some(p) => {
                    cols.platoon_valid.push(true);
                    cols.p_members.push(p.members as u32);
                    cols.p_member_collisions.push(p.member_collisions as u32);
                    cols.p_converged.push(p.converged_at);
                    cols.p_first_ejection.push(p.first_ejection);
                    for &m in &p.ejected {
                        cols.p_ejected.push(m as u32);
                    }
                    cols.p_agreed_valid.push(p.final_agreed_mps.is_some());
                    cols.p_agreed_mps.push(p.final_agreed_mps.unwrap_or(0.0));
                }
                None => {
                    cols.platoon_valid.push(false);
                    cols.p_members.push(0);
                    cols.p_member_collisions.push(0);
                    cols.p_converged.push(None);
                    cols.p_first_ejection.push(None);
                    cols.p_agreed_valid.push(false);
                    cols.p_agreed_mps.push(0.0);
                }
            }
            cols.p_ejected_offsets.push(cols.p_ejected.len() as u32);
            match &s.city {
                Some(c) => {
                    cols.city_valid.push(true);
                    cols.c_vehicles.push(c.vehicles as u32);
                    cols.c_focal.push(c.focal as u32);
                    cols.c_promotions.push(c.promotions);
                    cols.c_demotions.push(c.demotions);
                    cols.c_focal_collisions.push(c.focal_collisions as u32);
                    cols.c_first_focal.push(c.first_focal_detection);
                }
                None => {
                    cols.city_valid.push(false);
                    cols.c_vehicles.push(0);
                    cols.c_focal.push(0);
                    cols.c_promotions.push(0);
                    cols.c_demotions.push(0);
                    cols.c_focal_collisions.push(0);
                    cols.c_first_focal.push(None);
                }
            }
        }
        cols
    }

    /// Number of rows (runs) in the batch.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Ejected-member slice of row `i` (empty for non-platoon rows).
    fn ejected_of(&self, i: usize) -> &[u32] {
        let start = self.p_ejected_offsets[i] as usize;
        let end = self.p_ejected_offsets[i + 1] as usize;
        &self.p_ejected[start..end]
    }

    /// Rebuilds the record batch, field-identical to the input of
    /// [`FleetColumns::from_records`].
    pub fn to_records(&self) -> Vec<FleetRecord> {
        (0..self.rows)
            .map(|i| {
                let platoon = self.platoon_valid[i].then(|| PlatoonSummary {
                    members: self.p_members[i] as usize,
                    member_collisions: self.p_member_collisions[i] as usize,
                    converged_at: self.p_converged.get(i),
                    first_ejection: self.p_first_ejection.get(i),
                    ejected: self.ejected_of(i).iter().map(|&m| m as usize).collect(),
                    final_agreed_mps: self.p_agreed_valid[i].then(|| self.p_agreed_mps[i]),
                });
                let city = self.city_valid[i].then(|| CitySummary {
                    vehicles: self.c_vehicles[i] as usize,
                    focal: self.c_focal[i] as usize,
                    promotions: self.c_promotions[i],
                    demotions: self.c_demotions[i],
                    focal_collisions: self.c_focal_collisions[i] as usize,
                    first_focal_detection: self.c_first_focal.get(i),
                });
                let final_mode = match self.mode_tag[i] {
                    MODE_REDUCED => DrivingMode::Reduced {
                        speed_cap_mps: self.mode_cap[i],
                    },
                    MODE_SAFE_STOP => DrivingMode::SafeStop,
                    _ => DrivingMode::Normal,
                };
                FleetRecord {
                    strategy: strategy_from_code(self.strategy[i])
                        .expect("strategy codes validated on construction"),
                    seed: self.seed[i],
                    injected_at: self.injected.get(i),
                    summary: Arc::new(Summary {
                        label: self.label_dict[self.label_code[i] as usize].clone(),
                        collision: self.collision[i],
                        distance_m: self.distance_m[i],
                        min_ttc_s: self.min_ttc_s[i],
                        first_detection: self.detected.get(i),
                        first_model_deviation: self.model_detected.get(i),
                        mitigated_at: self.mitigated.get(i),
                        final_mode,
                        platoon,
                        city,
                    }),
                }
            })
            .collect()
    }

    /// Detection latency of row `i` in seconds (see
    /// [`FleetRecord::detection_latency_s`]), straight from the columns.
    fn latency_s(&self, col: &OptTimeCol, i: usize) -> Option<f64> {
        latency_s(col.get(i), self.injected.get(i))
    }

    /// Fleet statistics computed directly from the columns — bit-identical
    /// to [`FleetStats::from_records`] over the same batch (both reduce
    /// through the same accumulator).
    pub fn stats(&self) -> FleetStats {
        let mut acc = StatsAccumulator::with_capacity(self.rows);
        for i in 0..self.rows {
            acc.push(StatRow {
                strategy: strategy_from_code(self.strategy[i])
                    .expect("strategy codes validated on construction"),
                collision: self.collision[i],
                stopped: self.mode_tag[i] == MODE_SAFE_STOP,
                distance_m: self.distance_m[i],
                detection_latency_s: self.latency_s(&self.detected, i),
                model_latency_s: self.latency_s(&self.model_detected, i),
                peer_collisions: if self.platoon_valid[i] {
                    self.p_member_collisions[i] as usize
                } else {
                    0
                },
                ejections: self.ejected_of(i).len(),
            });
        }
        acc.finish()
    }

    /// Group-by aggregation query: detection-latency percentiles per
    /// scenario family or per strategy, in first-appearance row order.
    /// Groups that detected nothing report an all-zero distribution.
    pub fn latency_percentiles(&self, group_by: GroupBy) -> Vec<(String, LatencyStats)> {
        let mut keys: Vec<String> = Vec::new();
        let mut groups: Vec<Vec<f64>> = Vec::new();
        for i in 0..self.rows {
            let key = match group_by {
                GroupBy::Family => {
                    let label = &self.label_dict[self.label_code[i] as usize];
                    label.split('/').next().unwrap_or(label).to_string()
                }
                GroupBy::Strategy => format!(
                    "{:?}",
                    strategy_from_code(self.strategy[i])
                        .expect("strategy codes validated on construction")
                ),
            };
            let g = match keys.iter().position(|k| *k == key) {
                Some(g) => g,
                None => {
                    keys.push(key);
                    groups.push(Vec::new());
                    groups.len() - 1
                }
            };
            if let Some(lat) = self.latency_s(&self.detected, i) {
                groups[g].push(lat);
            }
        }
        keys.into_iter()
            .zip(groups.iter_mut().map(|g| latency_stats_from(g)))
            .collect()
    }

    /// Serializes the columns into the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        binenc::write_varint(&mut out, self.rows as u64);
        binenc::write_varint(&mut out, self.label_dict.len() as u64);
        for label in &self.label_dict {
            binenc::write_str(&mut out, label);
        }
        for &c in &self.label_code {
            binenc::write_varint(&mut out, u64::from(c));
        }
        out.extend_from_slice(&self.strategy);
        for &s in &self.seed {
            // Seeds are SplitMix64 output — high-entropy, so raw bytes
            // beat any varint.
            binenc::write_u64(&mut out, s);
        }
        self.injected.encode(&mut out);
        binenc::write_bitmap(&mut out, &self.collision);
        for &v in &self.distance_m {
            binenc::write_f64(&mut out, v);
        }
        for &v in &self.min_ttc_s {
            binenc::write_f64(&mut out, v);
        }
        self.detected.encode(&mut out);
        self.model_detected.encode(&mut out);
        self.mitigated.encode(&mut out);
        out.extend_from_slice(&self.mode_tag);
        for &v in &self.mode_cap {
            binenc::write_f64(&mut out, v);
        }
        binenc::write_bitmap(&mut out, &self.platoon_valid);
        for &v in &self.p_members {
            binenc::write_varint(&mut out, u64::from(v));
        }
        for &v in &self.p_member_collisions {
            binenc::write_varint(&mut out, u64::from(v));
        }
        self.p_converged.encode(&mut out);
        self.p_first_ejection.encode(&mut out);
        // Offsets are monotone, so deltas are exactly the per-row counts.
        for w in self.p_ejected_offsets.windows(2) {
            binenc::write_varint(&mut out, u64::from(w[1] - w[0]));
        }
        for &v in &self.p_ejected {
            binenc::write_varint(&mut out, u64::from(v));
        }
        binenc::write_bitmap(&mut out, &self.p_agreed_valid);
        for (i, &valid) in self.p_agreed_valid.iter().enumerate() {
            if valid {
                binenc::write_f64(&mut out, self.p_agreed_mps[i]);
            }
        }
        binenc::write_bitmap(&mut out, &self.city_valid);
        for &v in &self.c_vehicles {
            binenc::write_varint(&mut out, u64::from(v));
        }
        for &v in &self.c_focal {
            binenc::write_varint(&mut out, u64::from(v));
        }
        for &v in &self.c_promotions {
            binenc::write_varint(&mut out, v);
        }
        for &v in &self.c_demotions {
            binenc::write_varint(&mut out, v);
        }
        for &v in &self.c_focal_collisions {
            binenc::write_varint(&mut out, u64::from(v));
        }
        self.c_first_focal.encode(&mut out);
        let checksum = binenc::fnv64(&out);
        binenc::write_u64(&mut out, checksum);
        out
    }

    /// Decodes a buffer written by [`FleetColumns::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let payload_len = bytes.len().checked_sub(8).ok_or(DecodeError::Truncated)?;
        let (payload, tail) = bytes.split_at(payload_len);
        let mut tail_pos = 0;
        let stored = binenc::read_u64(tail, &mut tail_pos).ok_or(DecodeError::Truncated)?;
        if stored != binenc::fnv64(payload) {
            return Err(DecodeError::BadChecksum);
        }
        if payload.len() < 10 || &payload[..8] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        if u16::from_le_bytes([payload[8], payload[9]]) != SCHEMA_VERSION {
            return Err(DecodeError::UnsupportedVersion);
        }
        let mut pos = 10usize;
        let p = payload;
        let trunc = DecodeError::Truncated;
        let rows = usize::try_from(binenc::read_varint(p, &mut pos).ok_or(trunc)?)
            .map_err(|_| DecodeError::Corrupt("row count"))?;
        // A row contributes at least a byte to the strategy column alone;
        // reject counts the buffer cannot possibly hold before reserving.
        if rows > p.len() {
            return Err(DecodeError::Corrupt("row count exceeds buffer"));
        }
        let dict_len = usize::try_from(binenc::read_varint(p, &mut pos).ok_or(trunc)?)
            .map_err(|_| DecodeError::Corrupt("dict size"))?;
        if dict_len > p.len() {
            return Err(DecodeError::Corrupt("dict size exceeds buffer"));
        }
        let mut label_dict = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            label_dict.push(binenc::read_str(p, &mut pos).ok_or(trunc)?);
        }
        let mut label_code = Vec::with_capacity(rows);
        for _ in 0..rows {
            let c = binenc::read_varint(p, &mut pos).ok_or(trunc)?;
            if c >= dict_len as u64 {
                return Err(DecodeError::Corrupt("label code out of dictionary"));
            }
            label_code.push(c as u32);
        }
        let strategy = p.get(pos..pos + rows).ok_or(trunc)?.to_vec();
        pos += rows;
        if strategy.iter().any(|&c| strategy_from_code(c).is_none()) {
            return Err(DecodeError::Corrupt("strategy code"));
        }
        let mut seed = Vec::with_capacity(rows);
        for _ in 0..rows {
            seed.push(binenc::read_u64(p, &mut pos).ok_or(trunc)?);
        }
        let injected = OptTimeCol::decode(p, &mut pos, rows).ok_or(trunc)?;
        let collision = binenc::read_bitmap(p, &mut pos, rows).ok_or(trunc)?;
        let read_f64s = |pos: &mut usize| -> Result<Vec<f64>, DecodeError> {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(binenc::read_f64(p, pos).ok_or(trunc)?);
            }
            Ok(v)
        };
        let distance_m = read_f64s(&mut pos)?;
        let min_ttc_s = read_f64s(&mut pos)?;
        let detected = OptTimeCol::decode(p, &mut pos, rows).ok_or(trunc)?;
        let model_detected = OptTimeCol::decode(p, &mut pos, rows).ok_or(trunc)?;
        let mitigated = OptTimeCol::decode(p, &mut pos, rows).ok_or(trunc)?;
        let mode_tag = p.get(pos..pos + rows).ok_or(trunc)?.to_vec();
        pos += rows;
        if mode_tag.iter().any(|&t| t > MODE_SAFE_STOP) {
            return Err(DecodeError::Corrupt("driving-mode tag"));
        }
        let mode_cap = read_f64s(&mut pos)?;
        let platoon_valid = binenc::read_bitmap(p, &mut pos, rows).ok_or(trunc)?;
        let read_u32s = |pos: &mut usize| -> Result<Vec<u32>, DecodeError> {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                let raw = binenc::read_varint(p, pos).ok_or(trunc)?;
                v.push(u32::try_from(raw).map_err(|_| DecodeError::Corrupt("u32 column"))?);
            }
            Ok(v)
        };
        let p_members = read_u32s(&mut pos)?;
        let p_member_collisions = read_u32s(&mut pos)?;
        let p_converged = OptTimeCol::decode(p, &mut pos, rows).ok_or(trunc)?;
        let p_first_ejection = OptTimeCol::decode(p, &mut pos, rows).ok_or(trunc)?;
        let mut p_ejected_offsets = Vec::with_capacity(rows + 1);
        p_ejected_offsets.push(0u32);
        for i in 0..rows {
            let count = binenc::read_varint(p, &mut pos).ok_or(trunc)?;
            let next = u64::from(p_ejected_offsets[i]) + count;
            let next = u32::try_from(next).map_err(|_| DecodeError::Corrupt("ejection offsets"))?;
            p_ejected_offsets.push(next);
        }
        let total_ejected = *p_ejected_offsets.last().expect("rows+1 offsets") as usize;
        if total_ejected > p.len() {
            return Err(DecodeError::Corrupt("ejection count exceeds buffer"));
        }
        let mut p_ejected = Vec::with_capacity(total_ejected);
        for _ in 0..total_ejected {
            let raw = binenc::read_varint(p, &mut pos).ok_or(trunc)?;
            p_ejected.push(u32::try_from(raw).map_err(|_| DecodeError::Corrupt("ejected id"))?);
        }
        let p_agreed_valid = binenc::read_bitmap(p, &mut pos, rows).ok_or(trunc)?;
        let mut p_agreed_mps = Vec::with_capacity(rows);
        for &valid in &p_agreed_valid {
            if valid {
                p_agreed_mps.push(binenc::read_f64(p, &mut pos).ok_or(trunc)?);
            } else {
                p_agreed_mps.push(0.0);
            }
        }
        let city_valid = binenc::read_bitmap(p, &mut pos, rows).ok_or(trunc)?;
        let c_vehicles = read_u32s(&mut pos)?;
        let c_focal = read_u32s(&mut pos)?;
        let read_u64s = |pos: &mut usize| -> Result<Vec<u64>, DecodeError> {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(binenc::read_varint(p, pos).ok_or(trunc)?);
            }
            Ok(v)
        };
        let c_promotions = read_u64s(&mut pos)?;
        let c_demotions = read_u64s(&mut pos)?;
        let c_focal_collisions = read_u32s(&mut pos)?;
        let c_first_focal = OptTimeCol::decode(p, &mut pos, rows).ok_or(trunc)?;
        if pos != p.len() {
            return Err(DecodeError::Corrupt("trailing bytes"));
        }
        Ok(FleetColumns {
            rows,
            label_dict,
            label_code,
            strategy,
            seed,
            injected,
            collision,
            distance_m,
            min_ttc_s,
            detected,
            model_detected,
            mitigated,
            mode_tag,
            mode_cap,
            platoon_valid,
            p_members,
            p_member_collisions,
            p_converged,
            p_first_ejection,
            p_ejected_offsets,
            p_ejected,
            p_agreed_valid,
            p_agreed_mps,
            city_valid,
            c_vehicles,
            c_focal,
            c_promotions,
            c_demotions,
            c_focal_collisions,
            c_first_focal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::records_csv;
    use crate::scenario::ResponseStrategy;

    fn record(
        label: &str,
        strategy: ResponseStrategy,
        seed: u64,
        det_ms: Option<u64>,
        platoon: bool,
        city: bool,
    ) -> FleetRecord {
        FleetRecord {
            strategy,
            seed,
            injected_at: det_ms.map(|_| Time::from_secs(30)),
            summary: Arc::new(Summary {
                label: label.into(),
                collision: seed.is_multiple_of(3),
                distance_m: 1000.0 + seed as f64,
                min_ttc_s: if seed.is_multiple_of(2) {
                    19.5
                } else {
                    f64::INFINITY
                },
                first_detection: det_ms.map(Time::from_millis),
                first_model_deviation: det_ms.map(|ms| Time::from_millis(ms + 400)),
                mitigated_at: det_ms.map(|ms| Time::from_millis(ms + 20)),
                final_mode: match seed % 3 {
                    0 => DrivingMode::SafeStop,
                    1 => DrivingMode::Reduced {
                        speed_cap_mps: 13.25,
                    },
                    _ => DrivingMode::Normal,
                },
                platoon: platoon.then(|| PlatoonSummary {
                    members: 5,
                    member_collisions: (seed % 2) as usize,
                    converged_at: Some(Time::from_secs(3)),
                    first_ejection: seed.is_multiple_of(2).then(|| Time::from_secs(40)),
                    ejected: if seed.is_multiple_of(2) {
                        vec![2]
                    } else {
                        Vec::new()
                    },
                    final_agreed_mps: Some(21.0 + seed as f64 * 0.125),
                }),
                city: city.then(|| CitySummary {
                    vehicles: 100,
                    focal: 2,
                    promotions: seed,
                    demotions: seed / 2,
                    focal_collisions: 0,
                    first_focal_detection: det_ms.map(Time::from_millis),
                }),
            }),
        }
    }

    fn mixed_batch() -> Vec<FleetRecord> {
        vec![
            record(
                "intrusion/CrossLayer",
                ResponseStrategy::CrossLayer,
                1,
                Some(30_010),
                false,
                false,
            ),
            record(
                "intrusion/CrossLayer",
                ResponseStrategy::CrossLayer,
                2,
                Some(30_050),
                false,
                false,
            ),
            record(
                "intrusion/SingleLayer",
                ResponseStrategy::SingleLayer,
                3,
                Some(31_200),
                false,
                false,
            ),
            record(
                "platoon-liar-low/CrossLayer",
                ResponseStrategy::CrossLayer,
                4,
                Some(12_000),
                true,
                false,
            ),
            record(
                "platoon-links/ObjectiveStop",
                ResponseStrategy::ObjectiveStop,
                5,
                None,
                true,
                false,
            ),
            record(
                "city/CrossLayer",
                ResponseStrategy::CrossLayer,
                6,
                Some(45_000),
                false,
                true,
            ),
            record(
                "baseline/CrossLayer",
                ResponseStrategy::CrossLayer,
                0xffff_ffff_ffff_fff7,
                None,
                false,
                false,
            ),
        ]
    }

    #[test]
    fn byte_round_trip_is_field_identical() {
        let records = mixed_batch();
        let cols = FleetColumns::from_records(&records);
        assert_eq!(cols.len(), records.len());
        let bytes = cols.to_bytes();
        let decoded = FleetColumns::from_bytes(&bytes).expect("decode");
        assert_eq!(decoded, cols);
        assert_eq!(decoded.to_records(), records);
    }

    #[test]
    fn round_trip_matches_the_csv_writer() {
        let records = mixed_batch();
        let bytes = FleetColumns::from_records(&records).to_bytes();
        let decoded = FleetColumns::from_bytes(&bytes).unwrap().to_records();
        assert_eq!(records_csv(&decoded), records_csv(&records));
    }

    #[test]
    fn empty_batch_round_trips() {
        let cols = FleetColumns::from_records(&[]);
        assert!(cols.is_empty());
        let decoded = FleetColumns::from_bytes(&cols.to_bytes()).unwrap();
        assert_eq!(decoded.to_records(), Vec::new());
        assert_eq!(decoded.stats().runs, 0);
    }

    #[test]
    fn columnar_stats_are_bit_identical_to_record_stats() {
        let records = mixed_batch();
        let from_records = FleetStats::from_records(&records);
        let cols = FleetColumns::from_records(&records);
        assert_eq!(cols.stats(), from_records);
        // And across a serialization round trip.
        let decoded = FleetColumns::from_bytes(&cols.to_bytes()).unwrap();
        assert_eq!(decoded.stats(), from_records);
    }

    #[test]
    fn group_by_queries_scan_the_columns() {
        let cols = FleetColumns::from_records(&mixed_batch());
        let by_family = cols.latency_percentiles(GroupBy::Family);
        let families: Vec<&str> = by_family.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            families,
            [
                "intrusion",
                "platoon-liar-low",
                "platoon-links",
                "city",
                "baseline"
            ]
        );
        let intrusion = &by_family[0].1;
        assert_eq!(intrusion.detected, 3);
        assert!(intrusion.p50_s >= intrusion.mean_s - 10.0);
        let by_strategy = cols.latency_percentiles(GroupBy::Strategy);
        assert_eq!(by_strategy.len(), 3);
        let total: usize = by_strategy.iter().map(|(_, s)| s.detected).sum();
        assert_eq!(total, 5, "five rows carry a detection");
        // A group with no detections reports an all-zero distribution.
        let stop = by_strategy
            .iter()
            .find(|(k, _)| k == "ObjectiveStop")
            .unwrap();
        assert_eq!(stop.1.detected, 0);
        assert_eq!(stop.1.p95_s, 0.0);
    }

    #[test]
    fn corruption_is_an_error_not_a_batch() {
        let bytes = FleetColumns::from_records(&mixed_batch()).to_bytes();
        assert!(matches!(
            FleetColumns::from_bytes(&bytes[..bytes.len() - 5]),
            Err(DecodeError::Truncated) | Err(DecodeError::BadChecksum)
        ));
        assert!(matches!(
            FleetColumns::from_bytes(&[]),
            Err(DecodeError::Truncated)
        ));
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x10;
        assert_eq!(
            FleetColumns::from_bytes(&flipped),
            Err(DecodeError::BadChecksum)
        );
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xff;
        // Fix up nothing else: the checksum catches it first, which is fine
        // — either error refuses the buffer.
        assert!(FleetColumns::from_bytes(&wrong_magic).is_err());
    }

    #[test]
    fn dictionary_encoding_deduplicates_labels() {
        let records = mixed_batch();
        let cols = FleetColumns::from_records(&records);
        assert_eq!(cols.label_dict.len(), 6, "7 rows share 6 distinct labels");
        // The columnar form undercuts the CSV for a label-heavy batch.
        let csv_len = records_csv(&records).len();
        assert!(
            cols.to_bytes().len() < csv_len,
            "columnar {} >= csv {csv_len}",
            cols.to_bytes().len()
        );
    }
}
