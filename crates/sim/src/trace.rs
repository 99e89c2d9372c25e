//! Structured simulation traces.
//!
//! Subsystems report notable occurrences to a [`Tracer`]; experiments then
//! query the trace to compute detection latencies, count actions, or render a
//! timeline. Tracing is append-only and cheap; severity filtering happens at
//! query time so a single run can feed several analyses.
//!
//! An entry borrows static text: its source is always a literal, and its
//! message is one unless it was formatted. A containment storm that repeats
//! the same action line adds one entry per repeat and allocates no string.

use std::borrow::Cow;
use std::fmt;

use crate::time::Time;

/// Severity of a trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Routine progress information.
    Info,
    /// Unexpected but tolerated condition.
    Warning,
    /// Detected fault or violated assumption.
    Fault,
    /// Mitigation or reconfiguration action taken by the system.
    Action,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Info => "INFO",
            Severity::Warning => "WARN",
            Severity::Fault => "FAULT",
            Severity::Action => "ACTION",
        };
        f.write_str(s)
    }
}

/// One trace entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Simulated time of the occurrence.
    pub at: Time,
    /// Severity class.
    pub severity: Severity,
    /// Reporting subsystem, e.g. `"can.vf0"` or `"skills"`.
    pub source: &'static str,
    /// Human-readable description.
    pub message: Cow<'static, str>,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12} {:6}] {}: {}",
            self.at.to_string(),
            self.severity.to_string(),
            self.source,
            self.message
        )
    }
}

/// An append-only log of [`TraceEntry`] values.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    entries: Vec<TraceEntry>,
    echo: bool,
}

impl Tracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// When enabled, entries are also printed to stdout as they arrive;
    /// useful in examples.
    pub fn set_echo(&mut self, echo: bool) {
        self.echo = echo;
    }

    /// Records an entry.
    pub fn record(
        &mut self,
        at: Time,
        severity: Severity,
        source: &'static str,
        message: impl Into<Cow<'static, str>>,
    ) {
        let entry = TraceEntry {
            at,
            severity,
            source,
            message: message.into(),
        };
        if self.echo {
            println!("{entry}");
        }
        self.entries.push(entry);
    }

    /// Shorthand for [`Severity::Info`].
    pub fn info(&mut self, at: Time, source: &'static str, msg: impl Into<Cow<'static, str>>) {
        self.record(at, Severity::Info, source, msg);
    }

    /// Shorthand for [`Severity::Warning`].
    pub fn warn(&mut self, at: Time, source: &'static str, msg: impl Into<Cow<'static, str>>) {
        self.record(at, Severity::Warning, source, msg);
    }

    /// Shorthand for [`Severity::Fault`].
    pub fn fault(&mut self, at: Time, source: &'static str, msg: impl Into<Cow<'static, str>>) {
        self.record(at, Severity::Fault, source, msg);
    }

    /// Shorthand for [`Severity::Action`].
    pub fn action(&mut self, at: Time, source: &'static str, msg: impl Into<Cow<'static, str>>) {
        self.record(at, Severity::Action, source, msg);
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries with the given severity.
    pub fn with_severity(&self, severity: Severity) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.severity == severity)
    }

    /// Entries whose source starts with `prefix`.
    pub fn from_source<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a TraceEntry> {
        self.entries
            .iter()
            .filter(move |e| e.source.starts_with(prefix))
    }

    /// First entry matching a predicate.
    pub fn first_where<F>(&self, pred: F) -> Option<&TraceEntry>
    where
        F: Fn(&TraceEntry) -> bool,
    {
        self.entries.iter().find(|e| pred(e))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_filters() {
        let mut tr = Tracer::new();
        tr.info(Time::from_secs(1), "a", "start");
        tr.fault(Time::from_secs(2), "b.sensor", "dropout");
        tr.action(Time::from_secs(3), "b.actor", "degrade");
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.with_severity(Severity::Fault).count(), 1);
        assert_eq!(tr.from_source("b").count(), 2);
        let first_fault = tr
            .first_where(|e| e.severity == Severity::Fault)
            .expect("fault present");
        assert_eq!(first_fault.at, Time::from_secs(2));
    }

    #[test]
    fn display_formats_entry() {
        let e = TraceEntry {
            at: Time::from_millis(5),
            severity: Severity::Action,
            source: "core",
            message: "cap speed".into(),
        };
        let s = e.to_string();
        assert!(s.contains("ACTION"), "{s}");
        assert!(s.contains("core"), "{s}");
        assert!(s.contains("cap speed"), "{s}");
    }

    #[test]
    fn clear_resets() {
        let mut tr = Tracer::new();
        tr.info(Time::ZERO, "x", "y");
        tr.clear();
        assert!(tr.is_empty());
    }
}
