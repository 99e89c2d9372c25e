//! Execution-time and deadline monitoring (application monitor).
//!
//! Supervises job records from the RTE scheduler against the contracted
//! WCET/deadline, and counts each task's jobs and deadline misses for its
//! miss ratio.

use saav_sim::name::Name;
use saav_sim::time::{Duration, Time};

use crate::anomaly::{Anomaly, AnomalyKind};

/// One observed job execution, decoupled from the RTE's record type.
#[derive(Debug, Clone)]
pub struct JobObservation {
    /// Completion time.
    pub at: Time,
    /// Task name. Interned so per-tick observations clone it without
    /// allocating.
    pub task: Name,
    /// Speed-normalized execution demand of the job.
    pub exec_nominal: Duration,
    /// Response time.
    pub response: Duration,
    /// Whether the deadline was met.
    pub deadline_met: bool,
}

/// What one job did, without naming its task: the input of the
/// slot-indexed path ([`ExecutionMonitor::observe_slot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTiming {
    /// Completion time.
    pub at: Time,
    /// Speed-normalized execution demand of the job.
    pub exec_nominal: Duration,
    /// Response time.
    pub response: Duration,
    /// Whether the deadline was met.
    pub deadline_met: bool,
}

/// A task's slot in one [`ExecutionMonitor`]: resolved once by name with
/// [`ExecutionMonitor::slot`], then fed by index with
/// [`ExecutionMonitor::observe_slot`], so the per-job path neither hashes
/// nor clones the name. Meaningful only for the monitor that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSlot(usize);

/// One task's contract and its observed job and deadline-miss counts.
#[derive(Debug, Clone)]
struct TaskEntry {
    name: Name,
    contract: Option<Duration>,
    jobs: u64,
    misses: u64,
}

/// The execution monitor.
#[derive(Debug, Clone, Default)]
pub struct ExecutionMonitor {
    /// Every task named so far, by contract or by observation, in order of
    /// first appearance; a [`TaskSlot`] indexes it. A monitor watches a
    /// handful of tasks, so resolving a name is a short scan.
    tasks: Vec<TaskEntry>,
}

impl ExecutionMonitor {
    /// Creates a monitor with no contracts.
    pub fn new() -> Self {
        ExecutionMonitor::default()
    }

    /// Resolves `task` to its slot, creating an empty one (no contract, no
    /// jobs) the first time the name appears. Names compare by content, so
    /// separately allocated names of one task share one slot.
    pub fn slot(&mut self, task: impl Into<Name> + AsRef<str>) -> TaskSlot {
        if let Some(slot) = self.find(task.as_ref()) {
            return slot;
        }
        self.tasks.push(TaskEntry {
            name: task.into(),
            contract: None,
            jobs: 0,
            misses: 0,
        });
        TaskSlot(self.tasks.len() - 1)
    }

    fn find(&self, task: &str) -> Option<TaskSlot> {
        self.tasks.iter().position(|t| t.name == task).map(TaskSlot)
    }

    /// Registers the contracted WCET of a task. It applies from the task's
    /// next observed job.
    pub fn set_contract(&mut self, task: impl Into<Name> + AsRef<str>, wcet: Duration) {
        let slot = self.slot(task);
        self.tasks[slot.0].contract = Some(wcet);
    }

    /// Feeds one job observation; returns any detected anomalies.
    pub fn observe(&mut self, obs: &JobObservation) -> Vec<Anomaly> {
        let slot = self.slot(&obs.task);
        let job = JobTiming {
            at: obs.at,
            exec_nominal: obs.exec_nominal,
            response: obs.response,
            deadline_met: obs.deadline_met,
        };
        let mut anomalies = Vec::new();
        self.observe_slot(slot, job, &mut anomalies);
        anomalies
    }

    /// Feeds one job of the task resolved to `slot`, appending any detected
    /// anomalies to `out`: the same checks as [`ExecutionMonitor::observe`],
    /// by index.
    ///
    /// # Panics
    /// Panics if `slot` indexes past this monitor's tasks, which only a
    /// slot issued by another monitor can.
    pub fn observe_slot(&mut self, slot: TaskSlot, job: JobTiming, out: &mut Vec<Anomaly>) {
        let task = &mut self.tasks[slot.0];
        task.jobs += 1;
        if let Some(wcet) = task.contract {
            if job.exec_nominal > wcet {
                out.push(Anomaly::new(
                    job.at,
                    task.name.clone(),
                    AnomalyKind::ExecutionOverrun,
                ));
            }
        }
        if !job.deadline_met {
            task.misses += 1;
            out.push(Anomaly::new(
                job.at,
                task.name.clone(),
                AnomalyKind::DeadlineMiss,
            ));
        }
    }

    /// Deadline-miss ratio of a task over all observed jobs; 0 before its
    /// first job.
    pub fn miss_ratio(&self, task: &str) -> f64 {
        self.find(task)
            .map(|slot| &self.tasks[slot.0])
            .filter(|t| t.jobs > 0)
            .map_or(0.0, |t| t.misses as f64 / t.jobs as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(task: &str, exec_ms: u64, resp_ms: u64, met: bool) -> JobObservation {
        JobObservation {
            at: Time::from_millis(resp_ms),
            task: task.into(),
            exec_nominal: Duration::from_millis(exec_ms),
            response: Duration::from_millis(resp_ms),
            deadline_met: met,
        }
    }

    #[test]
    fn overrun_detected_against_contract() {
        let mut m = ExecutionMonitor::new();
        m.set_contract("ctl", Duration::from_millis(2));
        assert!(m.observe(&obs("ctl", 2, 3, true)).is_empty());
        let anomalies = m.observe(&obs("ctl", 3, 4, true));
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, AnomalyKind::ExecutionOverrun);
    }

    #[test]
    fn deadline_miss_detected_without_contract() {
        let mut m = ExecutionMonitor::new();
        let anomalies = m.observe(&obs("anything", 1, 20, false));
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, AnomalyKind::DeadlineMiss);
        assert!((m.miss_ratio("anything") - 1.0).abs() < f64::EPSILON);
    }

    fn timing(exec_ms: u64, resp_ms: u64, met: bool) -> JobTiming {
        JobTiming {
            at: Time::from_millis(resp_ms),
            exec_nominal: Duration::from_millis(exec_ms),
            response: Duration::from_millis(resp_ms),
            deadline_met: met,
        }
    }

    #[test]
    fn separately_allocated_names_share_one_slot() {
        // Two allocations of one task name, fed alternately by name and
        // through the resolved slot, land in one entry that answers
        // exactly like a monitor fed by string keys.
        let a = Name::from(String::from("ctl"));
        let b = Name::from(String::from("ctl"));
        assert!(!std::ptr::eq(a.as_str(), b.as_str()));
        let mut slotted = ExecutionMonitor::new();
        let mut keyed = ExecutionMonitor::new();
        slotted.set_contract(a.clone(), Duration::from_millis(2));
        keyed.set_contract("ctl", Duration::from_millis(2));
        let slot = slotted.slot(&b);
        assert_eq!(slotted.slot(&a), slot);
        let mut via_slots = Vec::new();
        let mut via_keys = Vec::new();
        for (i, (exec, resp, met)) in [(1, 3, true), (3, 12, false), (2, 4, true), (5, 20, false)]
            .into_iter()
            .enumerate()
        {
            if i % 2 == 0 {
                let named = JobObservation {
                    task: b.clone(),
                    ..obs("ctl", exec, resp, met)
                };
                via_slots.extend(slotted.observe(&named));
            } else {
                slotted.observe_slot(slot, timing(exec, resp, met), &mut via_slots);
            }
            via_keys.extend(keyed.observe(&obs("ctl", exec, resp, met)));
        }
        assert_eq!(via_slots, via_keys);
        assert_eq!(slotted.tasks.len(), 1);
        assert_eq!((slotted.tasks[0].jobs, slotted.tasks[0].misses), (4, 2));
        assert_eq!(slotted.miss_ratio("ctl"), 0.5);
        assert_eq!(slotted.miss_ratio("ctl"), keyed.miss_ratio("ctl"));
    }

    #[test]
    fn contract_set_after_first_job_applies_from_next_job() {
        // Mid-run renegotiation: the task is resolved and has run before
        // its contract arrives.
        let mut m = ExecutionMonitor::new();
        let slot = m.slot("acc_ctl_lowrate");
        assert_eq!(m.tasks[slot.0].jobs, 0);
        assert_eq!(m.miss_ratio("acc_ctl_lowrate"), 0.0);
        let mut out = Vec::new();
        m.observe_slot(slot, timing(3, 4, true), &mut out);
        assert!(out.is_empty(), "no contract yet");
        m.set_contract("acc_ctl_lowrate", Duration::from_millis(2));
        m.observe_slot(slot, timing(3, 14, true), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, AnomalyKind::ExecutionOverrun);
        assert_eq!(out[0].subject, "acc_ctl_lowrate");
        // A relaxed contract likewise holds from the next job on.
        m.set_contract("acc_ctl_lowrate", Duration::from_millis(4));
        m.observe_slot(slot, timing(3, 24, true), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(m.tasks[slot.0].jobs, 3);
    }

    #[test]
    fn miss_ratio_accumulates() {
        let mut m = ExecutionMonitor::new();
        for i in 0..10 {
            m.observe(&obs("t", 1, 2, i % 5 != 0)); // 2 of 10 miss
        }
        assert!((m.miss_ratio("t") - 0.2).abs() < 1e-12);
        assert_eq!(m.miss_ratio("never-seen"), 0.0);
    }
}
