//! End-to-end tests of the telemetry layer: mounted traces are
//! deterministic across thread counts, the stepped-run sink sees the
//! escalation a scripted run produces, the fleet and a single run fold the
//! same detection latency, the chrome-tracing export is well-formed JSON,
//! and a mounted batch's whole outcome is the same at any worker count.

use saav::core::cache::ResultCache;
use saav::core::fleet::FleetRunner;
use saav::core::runner::{self, SteppedRun};
use saav::core::scenario::{ResponseStrategy, Scenario, ScenarioEvent, ScenarioFamily};
use saav::core::telemetry::{Counter, Telemetry, TelemetryEvent};
use saav::sim::rng::derive_seed;
use saav::sim::time::{Duration, Time};

fn intrusion_jobs() -> Vec<Scenario> {
    ResponseStrategy::ALL
        .iter()
        .map(|&strategy| {
            Scenario::builder(format!("tel/{strategy:?}"))
                .strategy(strategy)
                .duration(Duration::from_secs(8))
                .at(Time::from_secs(2), ScenarioEvent::CompromiseRearBrake)
                .build()
        })
        .collect()
}

/// The merged event trace of a cache-mounted cold+warm sweep is
/// bit-identical across worker counts: canonical `(at, job_slot, seq)`
/// order hides which worker ran which job.
#[test]
fn mounted_trace_is_identical_across_thread_counts() {
    let observe = |threads: usize| {
        let sink = Telemetry::default();
        let fleet = FleetRunner::new(99)
            .with_threads(threads)
            .with_cache(ResultCache::in_memory())
            .with_telemetry(sink.clone());
        fleet.run_scenarios(intrusion_jobs());
        fleet.run_scenarios(intrusion_jobs());
        sink.events()
    };
    let single = observe(1);
    assert!(
        single
            .iter()
            .any(|r| matches!(r.event, TelemetryEvent::CacheHit)),
        "warm sweep must surface cache hits"
    );
    for threads in [2, 4] {
        assert_eq!(
            single,
            observe(threads),
            "trace diverged at {threads} threads"
        );
    }
}

/// A stepped run with a sink mounted streams the scripted escalation into
/// it — and produces the same outcome as the unmounted convenience entry
/// point.
#[test]
fn stepped_run_with_telemetry_sees_the_escalation() {
    let scenario = ScenarioFamily::Intrusion.build(ResponseStrategy::CrossLayer, 5);
    let sink = Telemetry::default();
    let mut run = SteppedRun::with_telemetry(&scenario, &sink);
    while run.now_millis() < scenario.duration.as_millis() {
        run.tick();
    }
    let observed = run.finish();
    assert_eq!(observed.summary(), runner::run(scenario).summary());
    let snap = sink.snapshot();
    assert!(snap.counter(Counter::AnomaliesRaised) > 0);
    assert!(snap.counter(Counter::EscalationsRouted) > 0);
    assert!(
        snap.detection_latency.total() > 0,
        "latency histogram empty"
    );
    assert!(sink
        .events()
        .iter()
        .any(|r| matches!(r.event, TelemetryEvent::EscalationRouted { .. })));
}

/// The detection-latency histogram means one thing on every path: an
/// intrusion job run through the fleet and the same job at the fleet's
/// derived seed run through `run_observed` both measure latency from the
/// first scripted disturbance, so they fold into the same bucket.
#[test]
fn fleet_and_run_observed_fold_the_same_detection_latency() {
    const MASTER_SEED: u64 = 17;
    let mut job = ScenarioFamily::Intrusion.build(ResponseStrategy::CrossLayer, 0);
    job.duration = Duration::from_secs(40);
    let fleet_sink = Telemetry::default();
    FleetRunner::new(MASTER_SEED)
        .with_threads(1)
        .with_telemetry(fleet_sink.clone())
        .run_scenarios(vec![job.clone()]);
    job.seed = derive_seed(MASTER_SEED, 0);
    let run_sink = Telemetry::default();
    runner::run_observed(job, None, &run_sink);
    let fleet = fleet_sink.snapshot().detection_latency;
    assert_eq!(fleet.total(), 1, "the intrusion must be detected");
    assert_eq!(fleet, run_sink.snapshot().detection_latency);
}

/// A mounted batch is a function of its jobs alone: the inline loop and
/// four workers return the same outcome, registry snapshot included.
#[test]
fn mounted_batch_outcome_is_identical_across_thread_counts() {
    let run = |threads: usize| {
        FleetRunner::new(7)
            .with_threads(threads)
            .with_telemetry(Telemetry::default())
            .run_scenarios(intrusion_jobs())
    };
    let inline = run(1);
    assert_eq!(inline.records.len(), 3);
    assert!(
        inline.stats.telemetry.is_some(),
        "mounted batch has a snapshot"
    );
    assert_eq!(inline, run(4));
}

/// The chrome-tracing export parses as a single JSON object with the
/// fields Perfetto requires, checked by a hand-rolled validator (the
/// workspace deliberately has no JSON dependency).
#[test]
fn chrome_trace_export_is_well_formed_json() {
    let sink = Telemetry::default();
    runner::run_observed(
        ScenarioFamily::Intrusion.build(ResponseStrategy::CrossLayer, 5),
        None,
        &sink,
    );
    let json = sink.chrome_trace_json();
    let mut p = Json {
        b: json.as_bytes(),
        i: 0,
    };
    p.value();
    p.ws();
    assert_eq!(p.i, p.b.len(), "trailing garbage after the JSON document");
    assert!(json.starts_with('{'), "top level must be an object");
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    let events = json.matches("\"ph\":\"i\"").count();
    assert!(events > 0, "no instant events exported");
    assert_eq!(json.matches("\"ts\":").count(), events);
    assert_eq!(json.matches("\"pid\":").count(), events);
}

/// A minimal recursive-descent JSON validator: panics (failing the test)
/// on any syntax error.
struct Json<'a> {
    b: &'a [u8],
    i: usize,
}

impl Json<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) {
        assert_eq!(
            self.b.get(self.i),
            Some(&c),
            "expected `{}` at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return;
                }
                loop {
                    self.ws();
                    self.string();
                    self.ws();
                    self.expect(b':');
                    self.value();
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return;
                        }
                        other => panic!("expected `,` or `}}`, got {other:?}"),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return;
                }
                loop {
                    self.value();
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return;
                        }
                        other => panic!("expected `,` or `]`, got {other:?}"),
                    }
                }
            }
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            other => panic!("unexpected {other:?} at byte {}", self.i),
        }
    }

    fn string(&mut self) {
        self.expect(b'"');
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'"' => {
                    self.i += 1;
                    return;
                }
                b'\\' => self.i += 2,
                _ => {
                    assert!(c >= 0x20, "unescaped control byte in string");
                    self.i += 1;
                }
            }
        }
        panic!("unterminated string");
    }

    fn literal(&mut self, lit: &str) {
        assert!(
            self.b[self.i..].starts_with(lit.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += lit.len();
    }

    fn number(&mut self) {
        let start = self.i;
        while let Some(&c) = self.b.get(self.i) {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        assert!(
            self.b[start..self.i].iter().any(|c| c.is_ascii_digit()),
            "empty number at byte {start}"
        );
    }
}
