//! The scheduler's original single-`Vec` implementation, its logic
//! unchanged, kept as the decision oracle for the per-task queues of
//! [`super::Scheduler`].
//!
//! Every released job lives in one `Vec`; the runnable job is a scan over
//! the whole backlog and a finished job is removed by shifting it. That
//! is quadratic under overload, and obviously correct, which is all an
//! oracle needs.

use saav_sim::rng::SimRng;
use saav_sim::time::{Duration, Time};

use super::{BudgetEnforcement, JobRecord, TaskRef, TaskSpec};
use crate::component::ComponentId;

#[derive(Debug, Clone)]
struct TaskState {
    spec: TaskSpec,
    next_release: Time,
    active: bool,
    overrun: Option<(f64, u64)>,
    jobs_released: u64,
    misses: u64,
    truncations: u64,
}

#[derive(Debug, Clone)]
struct ActiveJob {
    task: usize,
    release: Time,
    deadline_at: Time,
    remaining_ns: f64,
    budget_ns: Option<f64>,
    exec_nominal: Duration,
    exec_wall_ns: f64,
    seq: u64,
}

/// The `Vec`-scan reference scheduler; same contract as
/// [`super::Scheduler`].
#[derive(Debug)]
pub(super) struct VecScheduler {
    tasks: Vec<TaskState>,
    jobs: Vec<ActiveJob>,
    now: Time,
    rng: SimRng,
    records: Vec<JobRecord>,
    enforcement: BudgetEnforcement,
    next_seq: u64,
    busy_ns: f64,
    window_start: Time,
}

impl VecScheduler {
    pub(super) fn new(seed: u64) -> Self {
        VecScheduler {
            tasks: Vec::new(),
            jobs: Vec::new(),
            now: Time::ZERO,
            rng: SimRng::seed_from(seed),
            records: Vec::new(),
            enforcement: BudgetEnforcement::Truncate,
            next_seq: 0,
            busy_ns: 0.0,
            window_start: Time::ZERO,
        }
    }

    pub(super) fn set_enforcement(&mut self, mode: BudgetEnforcement) {
        self.enforcement = mode;
    }

    pub(super) fn add_task(&mut self, spec: TaskSpec) -> TaskRef {
        let mut next_release = Time::ZERO + spec.offset;
        if next_release < self.now {
            let elapsed = self.now.saturating_since(Time::ZERO + spec.offset);
            let periods = elapsed.checked_div_duration(spec.period).unwrap_or(0) + 1;
            next_release = Time::ZERO + spec.offset + spec.period * periods;
        }
        self.tasks.push(TaskState {
            spec,
            next_release,
            active: true,
            overrun: None,
            jobs_released: 0,
            misses: 0,
            truncations: 0,
        });
        TaskRef(self.tasks.len() - 1)
    }

    pub(super) fn set_active(&mut self, task: TaskRef, active: bool) {
        let t = &mut self.tasks[task.0];
        t.active = active;
        if !active {
            self.jobs.retain(|j| j.task != task.0);
        } else {
            let spec = &t.spec;
            if t.next_release < self.now {
                let elapsed = self.now.saturating_since(Time::ZERO + spec.offset);
                let periods = elapsed.checked_div_duration(spec.period).unwrap_or(0) + 1;
                t.next_release = Time::ZERO + spec.offset + spec.period * periods;
            }
        }
    }

    pub(super) fn deactivate_component(&mut self, component: ComponentId) {
        let ids: Vec<usize> = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.spec.component == component)
            .map(|(i, _)| i)
            .collect();
        for i in ids {
            self.set_active(TaskRef(i), false);
        }
    }

    pub(super) fn inject_overrun(&mut self, task: TaskRef, factor: f64, jobs: u64) {
        self.tasks[task.0].overrun = Some((factor, jobs));
    }

    pub(super) fn now(&self) -> Time {
        self.now
    }

    pub(super) fn drain_records_into(&mut self, buf: &mut Vec<JobRecord>) {
        buf.clear();
        std::mem::swap(&mut self.records, buf);
    }

    pub(super) fn misses(&self, task: TaskRef) -> u64 {
        self.tasks[task.0].misses
    }

    pub(super) fn truncations(&self, task: TaskRef) -> u64 {
        self.tasks[task.0].truncations
    }

    pub(super) fn jobs_released(&self, task: TaskRef) -> u64 {
        self.tasks[task.0].jobs_released
    }

    pub(super) fn take_utilization(&mut self) -> f64 {
        let window = self.now.saturating_since(self.window_start).as_secs_f64();
        let u = if window > 0.0 {
            (self.busy_ns / 1e9) / window
        } else {
            0.0
        };
        self.busy_ns = 0.0;
        self.window_start = self.now;
        u.min(1.0)
    }

    fn release_due_jobs(&mut self) {
        for (i, t) in self.tasks.iter_mut().enumerate() {
            if !t.active {
                continue;
            }
            while t.next_release <= self.now {
                let release = t.next_release;
                t.next_release += t.spec.period;
                t.jobs_released += 1;
                let frac = if let Some((factor, left)) = t.overrun {
                    if left > 1 {
                        t.overrun = Some((factor, left - 1));
                    } else {
                        t.overrun = None;
                    }
                    factor
                } else if t.spec.exec_frac_min == t.spec.exec_frac_max {
                    t.spec.exec_frac_min
                } else {
                    self.rng.uniform(t.spec.exec_frac_min, t.spec.exec_frac_max)
                };
                let exec_nominal = t.spec.wcet.mul_f64(frac);
                self.jobs.push(ActiveJob {
                    task: i,
                    release,
                    deadline_at: release + t.spec.deadline,
                    remaining_ns: exec_nominal.as_nanos() as f64,
                    budget_ns: t.spec.budget.map(|b| b.as_nanos() as f64),
                    exec_nominal,
                    exec_wall_ns: 0.0,
                    seq: {
                        let s = self.next_seq;
                        self.next_seq += 1;
                        s
                    },
                });
            }
        }
    }

    fn runnable_job(&self) -> Option<usize> {
        self.jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.release <= self.now)
            .min_by_key(|(_, j)| (self.tasks[j.task].spec.priority, j.release, j.seq))
            .map(|(i, _)| i)
    }

    fn next_release_time(&self) -> Option<Time> {
        self.tasks
            .iter()
            .filter(|t| t.active)
            .map(|t| t.next_release)
            .min()
    }

    fn finish_job(&mut self, idx: usize, truncated: bool) {
        let job = self.jobs.remove(idx);
        let t = &mut self.tasks[job.task];
        let deadline_met = self.now <= job.deadline_at;
        if !deadline_met {
            t.misses += 1;
        }
        if truncated {
            t.truncations += 1;
        }
        self.records.push(JobRecord {
            task: TaskRef(job.task),
            name: t.spec.name.clone(),
            component: t.spec.component,
            release: job.release,
            finish: self.now,
            response: self.now.saturating_since(job.release),
            exec_wall: Duration::from_nanos(job.exec_wall_ns.round() as u64),
            exec_nominal: job.exec_nominal,
            deadline_met,
            truncated,
        });
    }

    pub(super) fn advance(&mut self, to: Time, speed_factor: f64) {
        assert!(to >= self.now, "cannot advance into the past");
        assert!(speed_factor > 0.0, "speed factor must be positive");
        loop {
            self.release_due_jobs();
            let next_rel = self.next_release_time().unwrap_or(Time::MAX);
            let run = self.runnable_job();
            let Some(run_idx) = run else {
                let t_next = next_rel.min(to);
                if t_next <= self.now {
                    if self.now >= to {
                        return;
                    }
                    self.now = t_next.max(self.now);
                    continue;
                }
                self.now = t_next;
                if self.now >= to {
                    return;
                }
                continue;
            };
            if speed_factor.is_infinite() {
                self.now = next_rel.min(to);
                if self.now >= to {
                    return;
                }
                continue;
            }
            let job = &self.jobs[run_idx];
            let work_ns = match (self.enforcement, job.budget_ns) {
                (BudgetEnforcement::Truncate, Some(b)) => job.remaining_ns.min(b),
                _ => job.remaining_ns,
            };
            let wall_ns = (work_ns * speed_factor).ceil().max(1.0);
            let event_at = self.now + Duration::from_nanos(wall_ns as u64);
            let t_next = event_at.min(next_rel).min(to);
            let dt_ns = t_next.saturating_since(self.now).as_nanos() as f64;
            let progress = dt_ns / speed_factor;
            {
                let job = &mut self.jobs[run_idx];
                job.remaining_ns = (job.remaining_ns - progress).max(0.0);
                if let Some(b) = &mut job.budget_ns {
                    *b = (*b - progress).max(0.0);
                }
                job.exec_wall_ns += dt_ns;
            }
            self.busy_ns += dt_ns;
            self.now = t_next;
            let job = &self.jobs[run_idx];
            if job.remaining_ns < 0.5 {
                self.finish_job(run_idx, false);
            } else if matches!(self.enforcement, BudgetEnforcement::Truncate)
                && job.budget_ns.is_some_and(|b| b < 0.5)
            {
                self.finish_job(run_idx, true);
            }
            if self.now >= to {
                return;
            }
        }
    }
}
