//! Compact columnar binary format for fleet batches.
//!
//! [`to_bytes`] writes a batch of [`FleetRecord`]s column by column:
//! labels are dictionary-encoded, strategies and driving modes are
//! one-byte codes, optional timestamps are a validity bitmap plus
//! zigzag-delta varints over nanoseconds, floats travel as raw IEEE-754
//! bits, and per-run ejection lists are a count column followed by the
//! concatenated member ids. The buffer carries a magic, a schema version
//! and a trailing FNV-64 checksum, so corruption is a [`DecodeError`],
//! never a garbage batch.
//!
//! The format is lossless: [`from_bytes`] returns records field-identical
//! to the ones [`to_bytes`] was given (round-trip tested against the CSV
//! writer). Statistics and group-by queries run on the records
//! ([`crate::fleet::FleetStats::from_records`],
//! [`crate::fleet::latency_by_family`]).

use std::sync::Arc;

use saav_sim::time::Time;
use saav_skills::decision::DrivingMode;

use crate::binenc;
use crate::cache::{strategy_code, strategy_from_code};
use crate::fleet::FleetRecord;
use crate::outcome::{CitySummary, PlatoonSummary, Summary};

/// Magic prefix of the serialized columnar format.
pub const MAGIC: &[u8; 8] = b"SAAVCOLS";

/// Schema version written after the magic; decoding any other version
/// fails rather than guessing.
pub const SCHEMA_VERSION: u16 = 1;

/// Why a byte buffer failed to decode into a fleet batch.
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

/// Writes an optional-timestamp column: a validity bitmap, then
/// zigzag-delta varints over the valid nanosecond values. Consecutive
/// runs of a family share injection/detection instants, so deltas are
/// tiny.
fn write_opt_times(out: &mut Vec<u8>, col: impl Iterator<Item = Option<Time>> + Clone) {
    binenc::write_bitmap(out, col.clone().map(|t| t.is_some()));
    let mut prev = 0u64;
    for ns in col.flatten().map(Time::as_nanos) {
        binenc::write_varint(out, binenc::zigzag(ns.wrapping_sub(prev) as i64));
        prev = ns;
    }
}

/// Serializes a fleet batch into the versioned columnar format.
///
/// Each column holds one value per run, in record order; a run without a
/// platoon (city) writes zeros and `None`s into the platoon (city)
/// columns, flagged invalid by that section's bitmap.
pub fn to_bytes(records: &[FleetRecord]) -> Vec<u8> {
    let summaries = || records.iter().map(|r| &*r.summary);
    let platoons = || summaries().map(|s| s.platoon.as_ref());
    let cities = || summaries().map(|s| s.city.as_ref());
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    binenc::write_varint(&mut out, records.len() as u64);
    // Labels: a dictionary in first-appearance order, then one code per run.
    let mut dict: Vec<&str> = Vec::new();
    let codes: Vec<usize> = summaries()
        .map(|s| match dict.iter().position(|l| *l == s.label) {
            Some(i) => i,
            None => {
                dict.push(&s.label);
                dict.len() - 1
            }
        })
        .collect();
    binenc::write_varint(&mut out, dict.len() as u64);
    for label in &dict {
        binenc::write_str(&mut out, label);
    }
    for &c in &codes {
        binenc::write_varint(&mut out, c as u64);
    }
    out.extend(records.iter().map(|r| strategy_code(r.strategy)));
    for r in records {
        // Seeds are SplitMix64 output — high-entropy, so raw bytes beat
        // any varint.
        binenc::write_u64(&mut out, r.seed);
    }
    write_opt_times(&mut out, records.iter().map(|r| r.injected_at));
    binenc::write_bitmap(&mut out, summaries().map(|s| s.collision));
    for s in summaries() {
        binenc::write_f64(&mut out, s.distance_m);
    }
    for s in summaries() {
        binenc::write_f64(&mut out, s.min_ttc_s);
    }
    write_opt_times(&mut out, summaries().map(|s| s.first_detection));
    write_opt_times(&mut out, summaries().map(|s| s.first_model_deviation));
    write_opt_times(&mut out, summaries().map(|s| s.mitigated_at));
    out.extend(summaries().map(|s| match s.final_mode {
        DrivingMode::Normal => MODE_NORMAL,
        DrivingMode::Reduced { .. } => MODE_REDUCED,
        DrivingMode::SafeStop => MODE_SAFE_STOP,
    }));
    for s in summaries() {
        let cap = match s.final_mode {
            DrivingMode::Reduced { speed_cap_mps } => speed_cap_mps,
            DrivingMode::Normal | DrivingMode::SafeStop => 0.0,
        };
        binenc::write_f64(&mut out, cap);
    }
    binenc::write_bitmap(&mut out, platoons().map(|p| p.is_some()));
    for p in platoons() {
        binenc::write_varint(&mut out, p.map_or(0, |p| p.members as u64));
    }
    for p in platoons() {
        binenc::write_varint(&mut out, p.map_or(0, |p| p.member_collisions as u64));
    }
    write_opt_times(&mut out, platoons().map(|p| p.and_then(|p| p.converged_at)));
    write_opt_times(
        &mut out,
        platoons().map(|p| p.and_then(|p| p.first_ejection)),
    );
    let ejected = || platoons().map(|p| p.map_or(&[][..], |p| p.ejected.as_slice()));
    for e in ejected() {
        binenc::write_varint(&mut out, e.len() as u64);
    }
    for &m in ejected().flatten() {
        binenc::write_varint(&mut out, m as u64);
    }
    let agreed = || platoons().map(|p| p.and_then(|p| p.final_agreed_mps));
    binenc::write_bitmap(&mut out, agreed().map(|v| v.is_some()));
    for v in agreed().flatten() {
        binenc::write_f64(&mut out, v);
    }
    binenc::write_bitmap(&mut out, cities().map(|c| c.is_some()));
    for c in cities() {
        binenc::write_varint(&mut out, c.map_or(0, |c| c.vehicles as u64));
    }
    for c in cities() {
        binenc::write_varint(&mut out, c.map_or(0, |c| c.focal as u64));
    }
    for c in cities() {
        binenc::write_varint(&mut out, c.map_or(0, |c| c.promotions));
    }
    for c in cities() {
        binenc::write_varint(&mut out, c.map_or(0, |c| c.demotions));
    }
    for c in cities() {
        binenc::write_varint(&mut out, c.map_or(0, |c| c.focal_collisions as u64));
    }
    write_opt_times(
        &mut out,
        cities().map(|c| c.and_then(|c| c.first_focal_detection)),
    );
    let checksum = binenc::fnv64(&out);
    binenc::write_u64(&mut out, checksum);
    out
}

/// A cursor over a checksummed payload that turns every short read into
/// [`DecodeError::Truncated`].
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(chunk)
    }

    fn varint(&mut self) -> Result<u64, DecodeError> {
        binenc::read_varint(self.bytes, &mut self.pos).ok_or(DecodeError::Truncated)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        u32::try_from(self.varint()?).map_err(|_| DecodeError::Corrupt(what))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        binenc::read_u64(self.bytes, &mut self.pos).ok_or(DecodeError::Truncated)
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        binenc::read_f64(self.bytes, &mut self.pos).ok_or(DecodeError::Truncated)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        binenc::read_str(self.bytes, &mut self.pos).ok_or(DecodeError::Truncated)
    }

    fn bitmap(&mut self, rows: usize) -> Result<Vec<bool>, DecodeError> {
        binenc::read_bitmap(self.bytes, &mut self.pos, rows).ok_or(DecodeError::Truncated)
    }

    /// Reads one value per row with `read`.
    fn column<T>(
        &mut self,
        rows: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        (0..rows).map(|_| read(self)).collect()
    }

    /// Reads a column written by `write_opt_times`.
    fn opt_times(&mut self, rows: usize) -> Result<Vec<Option<Time>>, DecodeError> {
        let mut prev = 0u64;
        self.bitmap(rows)?
            .into_iter()
            .map(|valid| {
                if !valid {
                    return Ok(None);
                }
                prev = prev.wrapping_add(binenc::unzigzag(self.varint()?) as u64);
                Ok(Some(Time::from_nanos(prev)))
            })
            .collect()
    }
}

/// Decodes a buffer written by [`to_bytes`] back into its records.
pub fn from_bytes(bytes: &[u8]) -> Result<Vec<FleetRecord>, DecodeError> {
    let payload_len = bytes.len().checked_sub(8).ok_or(DecodeError::Truncated)?;
    let (payload, tail) = bytes.split_at(payload_len);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if stored != binenc::fnv64(payload) {
        return Err(DecodeError::BadChecksum);
    }
    if payload.len() < 10 || &payload[..8] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    if u16::from_le_bytes([payload[8], payload[9]]) != SCHEMA_VERSION {
        return Err(DecodeError::UnsupportedVersion);
    }
    let r = &mut Reader {
        bytes: payload,
        pos: 10,
    };
    let rows = usize::try_from(r.varint()?).map_err(|_| DecodeError::Corrupt("row count"))?;
    // A row contributes at least a byte to the strategy column alone;
    // reject counts the buffer cannot possibly hold before reserving.
    if rows > payload.len() {
        return Err(DecodeError::Corrupt("row count exceeds buffer"));
    }
    let dict_len = usize::try_from(r.varint()?).map_err(|_| DecodeError::Corrupt("dict size"))?;
    if dict_len > payload.len() {
        return Err(DecodeError::Corrupt("dict size exceeds buffer"));
    }
    let dict = r.column(dict_len, Reader::string)?;
    let labels = r.column(rows, |r| {
        let code = r.varint()?;
        usize::try_from(code)
            .ok()
            .and_then(|c| dict.get(c))
            .ok_or(DecodeError::Corrupt("label code out of dictionary"))
    })?;
    let strategies = r
        .take(rows)?
        .iter()
        .map(|&c| strategy_from_code(c).ok_or(DecodeError::Corrupt("strategy code")))
        .collect::<Result<Vec<_>, _>>()?;
    let seeds = r.column(rows, Reader::u64)?;
    let injected = r.opt_times(rows)?;
    let collision = r.bitmap(rows)?;
    let distance_m = r.column(rows, Reader::f64)?;
    let min_ttc_s = r.column(rows, Reader::f64)?;
    let detected = r.opt_times(rows)?;
    let model_detected = r.opt_times(rows)?;
    let mitigated = r.opt_times(rows)?;
    let mode_tags = r.take(rows)?;
    if mode_tags.iter().any(|&t| t > MODE_SAFE_STOP) {
        return Err(DecodeError::Corrupt("driving-mode tag"));
    }
    let mode_caps = r.column(rows, Reader::f64)?;
    let platoon_valid = r.bitmap(rows)?;
    let p_members = r.column(rows, |r| r.u32("u32 column"))?;
    let p_member_collisions = r.column(rows, |r| r.u32("u32 column"))?;
    let p_converged = r.opt_times(rows)?;
    let p_first_ejection = r.opt_times(rows)?;
    let mut total_ejected = 0u32;
    let ejected_counts = r.column(rows, |r| {
        let count = r.varint()?;
        total_ejected = u64::from(total_ejected)
            .checked_add(count)
            .and_then(|total| u32::try_from(total).ok())
            .ok_or(DecodeError::Corrupt("ejection offsets"))?;
        Ok(count as usize)
    })?;
    if total_ejected as usize > payload.len() {
        return Err(DecodeError::Corrupt("ejection count exceeds buffer"));
    }
    let mut p_ejected = ejected_counts
        .iter()
        .map(|&n| r.column(n, |r| r.u32("ejected id").map(|m| m as usize)))
        .collect::<Result<Vec<_>, _>>()?;
    let p_agreed = r
        .bitmap(rows)?
        .into_iter()
        .map(|valid| if valid { r.f64().map(Some) } else { Ok(None) })
        .collect::<Result<Vec<_>, _>>()?;
    let city_valid = r.bitmap(rows)?;
    let c_vehicles = r.column(rows, |r| r.u32("u32 column"))?;
    let c_focal = r.column(rows, |r| r.u32("u32 column"))?;
    let c_promotions = r.column(rows, Reader::varint)?;
    let c_demotions = r.column(rows, Reader::varint)?;
    let c_focal_collisions = r.column(rows, |r| r.u32("u32 column"))?;
    let c_first_focal = r.opt_times(rows)?;
    if r.pos != payload.len() {
        return Err(DecodeError::Corrupt("trailing bytes"));
    }
    Ok((0..rows)
        .map(|i| {
            let platoon = platoon_valid[i].then(|| PlatoonSummary {
                members: p_members[i] as usize,
                member_collisions: p_member_collisions[i] as usize,
                converged_at: p_converged[i],
                first_ejection: p_first_ejection[i],
                ejected: std::mem::take(&mut p_ejected[i]),
                final_agreed_mps: p_agreed[i],
            });
            let city = city_valid[i].then(|| CitySummary {
                vehicles: c_vehicles[i] as usize,
                focal: c_focal[i] as usize,
                promotions: c_promotions[i],
                demotions: c_demotions[i],
                focal_collisions: c_focal_collisions[i] as usize,
                first_focal_detection: c_first_focal[i],
            });
            let final_mode = match mode_tags[i] {
                MODE_REDUCED => DrivingMode::Reduced {
                    speed_cap_mps: mode_caps[i],
                },
                MODE_SAFE_STOP => DrivingMode::SafeStop,
                _ => DrivingMode::Normal,
            };
            FleetRecord {
                strategy: strategies[i],
                seed: seeds[i],
                injected_at: injected[i],
                summary: Arc::new(Summary {
                    label: labels[i].clone(),
                    collision: collision[i],
                    distance_m: distance_m[i],
                    min_ttc_s: min_ttc_s[i],
                    first_detection: detected[i],
                    first_model_deviation: model_detected[i],
                    mitigated_at: mitigated[i],
                    final_mode,
                    platoon,
                    city,
                }),
            }
        })
        .collect())
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
        let decoded = from_bytes(&to_bytes(&records)).expect("decode");
        assert_eq!(decoded, records);
    }

    #[test]
    fn wire_format_is_pinned() {
        // Schema 1's bytes for the mixed batch: a change to any column's
        // order or encoding moves the length or the hash.
        let bytes = to_bytes(&mixed_batch());
        assert_eq!(bytes.len(), 593);
        assert_eq!(binenc::fnv64(&bytes), 0x7ab8_3432_df3a_c9b4);
    }

    #[test]
    fn round_trip_matches_the_csv_writer() {
        let records = mixed_batch();
        let decoded = from_bytes(&to_bytes(&records)).unwrap();
        assert_eq!(records_csv(&decoded), records_csv(&records));
    }

    #[test]
    fn empty_batch_round_trips() {
        let decoded = from_bytes(&to_bytes(&[])).unwrap();
        assert_eq!(decoded, Vec::new());
    }

    #[test]
    fn corruption_is_an_error_not_a_batch() {
        let bytes = to_bytes(&mixed_batch());
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            assert!(from_bytes(&flipped).is_err(), "flipped byte {i} decoded");
        }
        for len in 0..bytes.len() {
            assert!(
                from_bytes(&bytes[..len]).is_err(),
                "{len}-byte truncation decoded"
            );
        }
        assert!(matches!(from_bytes(&[]), Err(DecodeError::Truncated)));
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x10;
        assert_eq!(from_bytes(&flipped), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn dictionary_encoding_deduplicates_labels() {
        let records = mixed_batch();
        let bytes = to_bytes(&records);
        // Two runs share "intrusion/CrossLayer"; its text is written once.
        let label = b"intrusion/CrossLayer";
        let copies = bytes.windows(label.len()).filter(|w| w == label).count();
        assert_eq!(copies, 1, "a shared label is written once");
        // The columnar form undercuts the CSV for a label-heavy batch.
        let csv_len = records_csv(&records).len();
        assert!(
            bytes.len() < csv_len,
            "columnar {} >= csv {csv_len}",
            bytes.len()
        );
    }
}
