//! In-memory spans for the traced run, written out as chrome-trace JSON
//! at the end.
//!
//! Spans go around the benchmark's own calls into the program's public
//! functions; nothing inside the program is instrumented. Each span has
//! a name, a start, an end, its parent span and the job it belongs to.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The public call the span surrounds.
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The job the span belongs to.
    pub job: u32,
    /// Simulated time after the call, in ms (ticks only; 0 otherwise).
    pub sim_ms: u64,
}

impl Span {
    /// The span's wall duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Name of the one track: every span is recorded on the main thread.
const TRACK: &str = "saavbench main: serial re-runs and probes";

/// A span recorder owned by the main thread.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: u32) -> usize {
        let idx = self.spans.len();
        let span = Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            job,
            sim_ms: 0,
        };
        self.spans.push(span);
        self.open.push(idx as u32);
        self.spans[idx].start_ns = self.now_ns();
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize, sim_ms: u64) {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(idx as u32),
            "spans close innermost first"
        );
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.sim_ms = sim_ms;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, job: u32, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name, job);
        let out = f();
        self.exit(idx, 0);
        out
    }

    /// The closed span at `idx`.
    pub fn get(&self, idx: usize) -> &Span {
        &self.spans[idx]
    }

    /// Closed spans named `name` whose job lies in `jobs`.
    pub fn named<'a>(
        &'a self,
        name: &'a str,
        jobs: std::ops::Range<u32>,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && jobs.contains(&s.job))
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome-trace JSON (Perfetto opens it), one track per recording
    /// thread — here the main thread's. `keep` selects the spans to
    /// export: the 100 Hz tick spans would make the file hundreds of MB,
    /// so callers keep a sample.
    pub fn chrome_json(&self, keep: impl Fn(&Span) -> bool, meta: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{TRACK}\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| keep(s)) {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"saavbench\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"job\":{},\"sim_ms\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                i,
                s.parent.map_or(-1, i64::from),
                s.job,
                s.sim_ms
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"metadata\":{meta}}}\n"
        );
        out
    }
}
