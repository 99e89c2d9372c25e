//! Task and shared analysis result types.

use std::fmt;

use saav_sim::time::Duration;

use crate::event_model::EventModel;

/// Scheduling priority; **lower values are more important** (priority 0 is
/// the most urgent), matching common RTOS conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u32);

/// A schedulable entity: a software task on a CPU or a frame stream on a
/// bus.
#[derive(Debug, Clone)]
pub struct Task {
    /// Human-readable name used in reports.
    pub name: String,
    /// Worst-case execution (or transmission) time at nominal speed.
    pub wcet: Duration,
    /// Static priority (lower value = higher priority).
    pub priority: Priority,
    /// Activation event model.
    pub events: EventModel,
    /// Relative deadline.
    pub deadline: Duration,
}

impl Task {
    /// Creates a task.
    ///
    /// # Panics
    /// Panics if `wcet` or `deadline` is zero.
    pub fn new(
        name: impl Into<String>,
        wcet: Duration,
        priority: Priority,
        events: EventModel,
        deadline: Duration,
    ) -> Self {
        assert!(!wcet.is_zero(), "WCET must be positive");
        assert!(!deadline.is_zero(), "deadline must be positive");
        Task {
            name: name.into(),
            wcet,
            priority,
            events,
            deadline,
        }
    }

    /// Long-run utilization contribution (WCET × rate).
    pub fn utilization(&self) -> f64 {
        self.wcet.as_secs_f64() * self.events.rate_hz()
    }
}

/// Why an analysis could not produce a bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// Total utilization is at or above 1; busy periods do not terminate.
    Overload {
        /// Utilization including the analysed task.
        utilization_pct: u32,
    },
    /// The fixpoint iteration exceeded its bound without converging.
    Diverged {
        /// Task that failed to converge.
        task: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Overload { utilization_pct } => {
                write!(f, "resource overloaded at {utilization_pct}% utilization")
            }
            AnalysisError::Diverged { task } => {
                write!(f, "response-time iteration diverged for task `{task}`")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Per-task analysis outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskResponse {
    /// Task name.
    pub name: String,
    /// Worst-case response time bound.
    pub wcrt: Duration,
    /// Relative deadline for reference.
    pub deadline: Duration,
}

impl TaskResponse {
    /// Whether the bound meets the deadline.
    pub fn meets_deadline(&self) -> bool {
        self.wcrt <= self.deadline
    }
}

/// Result of analysing one resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceAnalysis {
    /// Per-task responses, in input order.
    pub responses: Vec<TaskResponse>,
}

impl ResourceAnalysis {
    /// Whether every task meets its deadline.
    pub fn schedulable(&self) -> bool {
        self.responses.iter().all(TaskResponse::meets_deadline)
    }

    /// Looks up a task's response by name.
    pub fn response(&self, name: &str) -> Option<&TaskResponse> {
        self.responses.iter().find(|r| r.name == name)
    }

    /// Names of tasks missing their deadline.
    pub fn violations(&self) -> Vec<&str> {
        self.responses
            .iter()
            .filter(|r| !r.meets_deadline())
            .map(|r| r.name.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn utilization_is_wcet_times_rate() {
        let t = Task::new(
            "t",
            ms(2),
            Priority(1),
            EventModel::periodic(ms(10)),
            ms(10),
        );
        assert!((t.utilization() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn responses_and_violations() {
        let ok = TaskResponse {
            name: "a".into(),
            wcrt: ms(4),
            deadline: ms(10),
        };
        let bad = TaskResponse {
            name: "b".into(),
            wcrt: ms(12),
            deadline: ms(10),
        };
        assert!(ok.meets_deadline());
        assert!(!bad.meets_deadline());
        let ra = ResourceAnalysis {
            responses: vec![ok, bad],
        };
        assert!(!ra.schedulable());
        assert_eq!(ra.violations(), vec!["b"]);
        assert!(ra.response("a").unwrap().meets_deadline());
    }
}
