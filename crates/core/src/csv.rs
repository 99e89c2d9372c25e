//! CSV export of fleet results, so sweeps are machine-consumable.
//!
//! Two writers cover the two levels of a fleet batch: one row per run
//! (from the [`FleetRecord`]s / their [`crate::outcome::Summary`]s) and
//! one row per strategy aggregate (from [`FleetStats`]). Output is plain RFC-4180-ish
//! CSV: comma-separated, `\n` line endings, fields quoted only when they
//! contain a comma, quote or newline.

use std::fmt::Write as _;

use crate::fleet::{FleetRecord, FleetStats};
use crate::telemetry::{Counter, Stage, TelemetrySnapshot, HIST_BUCKETS, LATENCY_BOUNDS_S};

/// Header of the per-run CSV (one column per [`FleetRecord`] field the
/// tables report). The platoon columns are empty for single-vehicle runs.
pub const RECORD_HEADER: &str = "scenario,strategy,seed,collision,distance_m,min_ttc_s,\
detected_s,model_detected_s,mitigated_s,detection_latency_s,model_latency_s,final_mode,\
platoon_members,peer_collisions,converged_s,first_ejection_s,ejected,agreed_mps";

/// Header of the per-strategy aggregate CSV.
pub const STRATEGY_HEADER: &str = "strategy,runs,collision_rate,availability,mean_distance_m";

/// Header of the telemetry metrics CSV (long format: one metric per row).
pub const TELEMETRY_HEADER: &str = "metric,value";

fn quote(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

fn opt(v: Option<f64>) -> String {
    v.map(|v| format!("{v}")).unwrap_or_default()
}

/// One CSV row for a completed fleet run (no trailing newline).
pub fn record_row(rec: &FleetRecord) -> String {
    let s = &rec.summary;
    let mut row = String::new();
    let _ = write!(
        row,
        "{},{:?},{:016x},{},{},{},{},{},{},{},{},{}",
        quote(&s.label),
        rec.strategy,
        rec.seed,
        s.collision,
        s.distance_m,
        s.min_ttc_s,
        opt(s.first_detection.map(|t| t.as_secs_f64())),
        opt(s.first_model_deviation.map(|t| t.as_secs_f64())),
        opt(s.mitigated_at.map(|t| t.as_secs_f64())),
        opt(rec.detection_latency_s()),
        opt(rec.model_latency_s()),
        s.final_mode,
    );
    match &s.platoon {
        Some(p) => {
            // Ejected members join with `;` so the field needs no quoting.
            let ejected: Vec<String> = p.ejected.iter().map(usize::to_string).collect();
            let _ = write!(
                row,
                ",{},{},{},{},{},{}",
                p.members,
                p.member_collisions,
                opt(p.converged_at.map(|t| t.as_secs_f64())),
                opt(p.first_ejection.map(|t| t.as_secs_f64())),
                ejected.join(";"),
                opt(p.final_agreed_mps),
            );
        }
        None => row.push_str(",,,,,,"),
    }
    row
}

/// The full per-run CSV document: header plus one row per record.
pub fn records_csv(records: &[FleetRecord]) -> String {
    let mut out = String::from(RECORD_HEADER);
    out.push('\n');
    for rec in records {
        out.push_str(&record_row(rec));
        out.push('\n');
    }
    out
}

/// The per-strategy aggregate CSV document from fleet statistics.
pub fn strategy_csv(stats: &FleetStats) -> String {
    let mut out = String::from(STRATEGY_HEADER);
    out.push('\n');
    for s in &stats.per_strategy {
        let _ = writeln!(
            out,
            "{:?},{},{},{},{}",
            s.strategy, s.runs, s.collision_rate, s.availability, s.mean_distance_m
        );
    }
    out
}

/// The telemetry-registry CSV document: every counter, the per-stage
/// counts (`stage_<name>_calls`), the cache hit rate when lookups
/// happened, the trace-ring totals and the fixed detection-latency
/// buckets (`detection_latency_le_<bound>s`). Long `metric,value` format
/// so the schema never needs widening.
pub fn telemetry_csv(snap: &TelemetrySnapshot) -> String {
    let mut out = String::from(TELEMETRY_HEADER);
    out.push('\n');
    for c in Counter::ALL {
        let _ = writeln!(out, "{},{}", c.name(), snap.counter(c));
    }
    for s in Stage::ALL {
        let _ = writeln!(out, "stage_{}_calls,{}", s.name(), snap.stage_calls_of(s));
    }
    if let Some(rate) = snap.cache_hit_rate() {
        let _ = writeln!(out, "cache_hit_rate,{rate}");
    }
    let _ = writeln!(out, "trace_events_recorded,{}", snap.events_recorded);
    let _ = writeln!(out, "trace_events_evicted,{}", snap.events_evicted);
    for (i, &count) in snap.detection_latency.counts().iter().enumerate() {
        if i < HIST_BUCKETS - 1 {
            let _ = writeln!(out, "detection_latency_le_{}s,{count}", LATENCY_BOUNDS_S[i]);
        } else {
            let _ = writeln!(
                out,
                "detection_latency_gt_{}s,{count}",
                LATENCY_BOUNDS_S[i - 1]
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Summary;
    use crate::scenario::ResponseStrategy;
    use saav_sim::time::Time;
    use saav_skills::decision::DrivingMode;
    use std::sync::Arc;

    fn record() -> FleetRecord {
        FleetRecord {
            strategy: ResponseStrategy::CrossLayer,
            seed: 0xabcd,
            injected_at: Some(Time::from_secs(30)),
            summary: Arc::new(Summary {
                label: "intrusion/CrossLayer".into(),
                collision: false,
                distance_m: 1986.5,
                min_ttc_s: 19.4,
                first_detection: Some(Time::from_secs(30)),
                first_model_deviation: Some(Time::from_secs(31)),
                mitigated_at: Some(Time::from_secs(30)),
                final_mode: DrivingMode::Normal,
                platoon: None,
                city: None,
            }),
        }
    }

    #[test]
    fn rows_match_header_width() {
        let csv = records_csv(&[record()]);
        let mut lines = csv.lines();
        let header_cols = lines.next().unwrap().split(',').count();
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), header_cols);
        assert!(row.starts_with("intrusion/CrossLayer,CrossLayer,000000000000abcd,false"));
        // Latencies are relative to the 30 s injection.
        assert!(row.contains(",0,1,"), "{row}");
    }

    #[test]
    fn missing_detections_are_empty_fields() {
        let mut rec = record();
        let s = Arc::make_mut(&mut rec.summary);
        s.first_detection = None;
        s.first_model_deviation = None;
        s.mitigated_at = None;
        let row = record_row(&rec);
        assert!(row.contains(",,,,"), "{row}");
    }

    #[test]
    fn platoon_rows_fill_the_cooperative_columns() {
        use crate::outcome::PlatoonSummary;
        let mut rec = record();
        Arc::make_mut(&mut rec.summary).platoon = Some(PlatoonSummary {
            members: 5,
            member_collisions: 1,
            converged_at: Some(Time::from_secs(1)),
            first_ejection: Some(Time::from_secs(3)),
            ejected: vec![2, 4],
            final_agreed_mps: Some(20.5),
        });
        let csv = records_csv(&[rec]);
        let mut lines = csv.lines();
        let header_cols = lines.next().unwrap().split(',').count();
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), header_cols);
        assert!(row.ends_with("5,1,1,3,2;4,20.5"), "{row}");
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        let mut rec = record();
        Arc::make_mut(&mut rec.summary).label = "a,b".into();
        assert!(record_row(&rec).starts_with("\"a,b\","));
    }

    #[test]
    fn telemetry_csv_lists_every_counter_and_stage() {
        use crate::telemetry::{Telemetry, TelemetryEvent};
        let tel = Telemetry::default();
        let mut run = tel.begin_run(0);
        run.record(Time::ZERO, TelemetryEvent::CacheHit);
        run.record(Time::ZERO, TelemetryEvent::CacheMiss);
        run.record_detection_latency(0.3);
        run.count_stage(Stage::Runner);
        tel.absorb(run);
        let csv = telemetry_csv(&tel.snapshot());
        assert!(csv.starts_with("metric,value\n"));
        for c in Counter::ALL {
            assert!(csv.contains(c.name()), "missing {}", c.name());
        }
        for s in Stage::ALL {
            assert!(csv.contains(&format!("stage_{}_calls,", s.name())));
        }
        assert!(csv.contains("stage_runner_calls,1\n"));
        assert!(csv.contains("cache_hit_rate,0.5"));
        assert!(csv.contains("detection_latency_le_0.5s,1"));
        assert!(csv.lines().skip(1).all(|l| l.split(',').count() == 2));
    }

    #[test]
    fn strategy_csv_renders_per_strategy_rows() {
        let stats = FleetStats::from_records(&[record()]);
        let csv = strategy_csv(&stats);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("CrossLayer,1,0,1,1986.5"));
    }
}
