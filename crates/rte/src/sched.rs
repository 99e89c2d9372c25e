//! Fixed-priority preemptive scheduling with execution budgets.
//!
//! The execution-domain counterpart of the timing viewpoint's analysis
//! model: periodic tasks belonging to components run under static-priority
//! preemption. Execution times scale with the hosting PE's speed factor
//! (thermal throttling hook), and per-job *budgets* can be enforced — the
//! run-time mechanism the paper's execution domain uses to make model
//! assumptions hold ("enforce … real-time behavior where necessary",
//! Sec. II-B).
//!
//! The scheduler is advanced incrementally ([`Scheduler::advance`]) so the
//! surrounding co-simulation can change the speed factor between segments.

use std::collections::VecDeque;

use saav_sim::name::Name;
use saav_sim::rng::SimRng;
use saav_sim::time::{Duration, Time};

use crate::component::ComponentId;

/// Scheduling priority; lower values run first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u32);

/// Reference to a task registered with a [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskRef(pub usize);

/// What to do when a job exhausts its execution budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetEnforcement {
    /// Abort the job at the budget boundary (hard enforcement).
    #[default]
    Truncate,
    /// Let the job continue but mark the record (detection only).
    ReportOnly,
}

/// Static description of a periodic task.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Task name used in records and reports. Interned so every job record
    /// can carry it without allocating.
    pub name: Name,
    /// Component this task belongs to.
    pub component: ComponentId,
    /// Activation period.
    pub period: Duration,
    /// First release offset.
    pub offset: Duration,
    /// Contracted worst-case execution time at nominal speed.
    pub wcet: Duration,
    /// Relative deadline.
    pub deadline: Duration,
    /// Static priority.
    pub priority: Priority,
    /// Actual execution time varies uniformly in
    /// `[exec_frac_min, exec_frac_max] · wcet`.
    pub exec_frac_min: f64,
    /// Upper execution fraction (values above 1 model contract violations).
    pub exec_frac_max: f64,
    /// Optional per-job execution budget (nominal time).
    pub budget: Option<Duration>,
}

impl TaskSpec {
    /// A periodic task with deterministic execution at 80% of its WCET and
    /// deadline equal to its period.
    ///
    /// # Panics
    /// Panics if `period` or `wcet` is zero.
    pub fn periodic(
        name: impl Into<Name>,
        component: ComponentId,
        period: Duration,
        wcet: Duration,
        priority: Priority,
    ) -> Self {
        assert!(!period.is_zero() && !wcet.is_zero());
        TaskSpec {
            name: name.into(),
            component,
            period,
            offset: Duration::ZERO,
            wcet,
            deadline: period,
            priority,
            exec_frac_min: 0.8,
            exec_frac_max: 0.8,
            budget: None,
        }
    }

    /// Sets the execution-time fraction range.
    ///
    /// # Panics
    /// Panics unless `0 < min <= max`.
    pub fn with_exec_fraction(mut self, min: f64, max: f64) -> Self {
        assert!(min > 0.0 && min <= max, "bad execution fraction range");
        self.exec_frac_min = min;
        self.exec_frac_max = max;
        self
    }

    /// Sets an explicit relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets a per-job budget.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the first release offset.
    pub fn with_offset(mut self, offset: Duration) -> Self {
        self.offset = offset;
        self
    }
}

/// Outcome of one completed (or truncated) job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The task this job belonged to.
    pub task: TaskRef,
    /// Task name (shared with the spec; cloning is a refcount bump).
    pub name: Name,
    /// Component owning the task.
    pub component: ComponentId,
    /// Release instant.
    pub release: Time,
    /// Completion (or truncation) instant.
    pub finish: Time,
    /// `finish − release`.
    pub response: Duration,
    /// Wall-clock execution time consumed.
    pub exec_wall: Duration,
    /// Nominal (speed-normalized) execution demand of the job.
    pub exec_nominal: Duration,
    /// Whether the job finished by its absolute deadline.
    pub deadline_met: bool,
    /// Whether budget enforcement truncated the job.
    pub truncated: bool,
}

#[derive(Debug, Clone)]
struct TaskState {
    spec: TaskSpec,
    next_release: Time,
    active: bool,
    /// Pending (factor, jobs) overrun injection.
    overrun: Option<(f64, u64)>,
    jobs_released: u64,
    misses: u64,
    truncations: u64,
    /// The task's oldest released job. A task's jobs share its priority
    /// and are released in order, so they run first-in first-out and only
    /// this one can hold partial progress.
    head: Option<ActiveJob>,
    /// Released jobs behind `head`, oldest first.
    waiting: VecDeque<WaitingJob>,
}

/// A released job that has not started: the rest of its state follows
/// from the task's spec when it reaches the head of the queue.
#[derive(Debug, Clone, Copy)]
struct WaitingJob {
    release: Time,
    /// Execution demand, drawn from the RNG at release.
    exec_nominal: Duration,
    seq: u64,
}

const _: () = assert!(std::mem::size_of::<WaitingJob>() == 24);

#[derive(Debug, Clone)]
struct ActiveJob {
    release: Time,
    deadline_at: Time,
    /// Remaining nominal execution in ns (f64 to avoid compounding rounding
    /// across speed-factor segments).
    remaining_ns: f64,
    /// Remaining budget in nominal ns.
    budget_ns: Option<f64>,
    exec_nominal: Duration,
    exec_wall_ns: f64,
    seq: u64,
}

impl ActiveJob {
    fn start(job: WaitingJob, spec: &TaskSpec) -> Self {
        ActiveJob {
            release: job.release,
            deadline_at: job.release + spec.deadline,
            remaining_ns: job.exec_nominal.as_nanos() as f64,
            budget_ns: spec.budget.map(|b| b.as_nanos() as f64),
            exec_nominal: job.exec_nominal,
            exec_wall_ns: 0.0,
            seq: job.seq,
        }
    }
}

/// A single-PE fixed-priority preemptive scheduler.
///
/// Released jobs queue per task, so a scheduling decision compares the
/// tasks' head jobs — O(tasks), however deep an overload backlog grows —
/// and a job waiting behind its task's head costs 24 bytes.
#[derive(Debug)]
pub struct Scheduler {
    tasks: Vec<TaskState>,
    now: Time,
    rng: SimRng,
    records: Vec<JobRecord>,
    enforcement: BudgetEnforcement,
    next_seq: u64,
    busy_ns: f64,
    window_start: Time,
}

impl Scheduler {
    /// Creates a scheduler with hard budget enforcement.
    pub fn new(seed: u64) -> Self {
        Scheduler {
            tasks: Vec::new(),
            now: Time::ZERO,
            rng: SimRng::seed_from(seed),
            records: Vec::new(),
            enforcement: BudgetEnforcement::Truncate,
            next_seq: 0,
            busy_ns: 0.0,
            window_start: Time::ZERO,
        }
    }

    /// Selects the budget enforcement mode.
    pub fn set_enforcement(&mut self, mode: BudgetEnforcement) {
        self.enforcement = mode;
    }

    /// Registers a task; it becomes active immediately. When added mid-run,
    /// its first release is aligned to the next period boundary — releases
    /// are never scheduled in the past (which would burst a backlog of
    /// already-missed jobs).
    pub fn add_task(&mut self, spec: TaskSpec) -> TaskRef {
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
            head: None,
            waiting: VecDeque::new(),
        });
        TaskRef(self.tasks.len() - 1)
    }

    /// Activates or deactivates a task. Deactivation discards its pending
    /// jobs (the quarantine path).
    pub fn set_active(&mut self, task: TaskRef, active: bool) {
        let t = &mut self.tasks[task.0];
        t.active = active;
        if !active {
            t.head = None;
            t.waiting.clear();
        } else {
            // Re-align the next release to the task's period grid.
            let spec = &t.spec;
            if t.next_release < self.now {
                let elapsed = self.now.saturating_since(Time::ZERO + spec.offset);
                let periods = elapsed.checked_div_duration(spec.period).unwrap_or(0) + 1;
                t.next_release = Time::ZERO + spec.offset + spec.period * periods;
            }
        }
    }

    /// Deactivates all tasks of a component (quarantine support).
    pub fn deactivate_component(&mut self, component: ComponentId) {
        for i in 0..self.tasks.len() {
            if self.tasks[i].spec.component == component {
                self.set_active(TaskRef(i), false);
            }
        }
    }

    /// Injects an execution-time overrun: the next `jobs` releases of `task`
    /// execute for `factor × wcet` (fault/attack scripting).
    pub fn inject_overrun(&mut self, task: TaskRef, factor: f64, jobs: u64) {
        self.tasks[task.0].overrun = Some((factor, jobs));
    }

    /// Current scheduler time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Drains completed job records.
    pub fn take_records(&mut self) -> Vec<JobRecord> {
        std::mem::take(&mut self.records)
    }

    /// Drains completed job records into `buf`, reusing its capacity.
    ///
    /// `buf` is cleared and swapped with the internal record buffer, so a
    /// caller polling every control period ping-pongs two buffers and the
    /// steady-state drain performs no heap allocation (unlike
    /// [`Scheduler::take_records`], which leaves an empty `Vec` behind and
    /// forces the next period's records to reallocate).
    pub fn drain_records_into(&mut self, buf: &mut Vec<JobRecord>) {
        buf.clear();
        std::mem::swap(&mut self.records, buf);
    }

    /// Deadline misses of a task so far.
    pub fn misses(&self, task: TaskRef) -> u64 {
        self.tasks[task.0].misses
    }

    /// Budget truncations of a task so far.
    pub fn truncations(&self, task: TaskRef) -> u64 {
        self.tasks[task.0].truncations
    }

    /// Jobs released for a task so far.
    pub fn jobs_released(&self, task: TaskRef) -> u64 {
        self.tasks[task.0].jobs_released
    }

    /// Utilization since the last call to this method, and resets the
    /// window.
    pub fn take_utilization(&mut self) -> f64 {
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
        for t in &mut self.tasks {
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
                let job = WaitingJob {
                    release,
                    exec_nominal: t.spec.wcet.mul_f64(frac),
                    seq: self.next_seq,
                };
                self.next_seq += 1;
                if t.head.is_none() {
                    t.head = Some(ActiveJob::start(job, &t.spec));
                } else {
                    t.waiting.push_back(job);
                }
            }
        }
    }

    /// The task whose head job runs next: highest priority, then earliest
    /// release, then release order.
    fn runnable_task(&self) -> Option<usize> {
        self.tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                let job = t.head.as_ref()?;
                Some((i, (t.spec.priority, job.release, job.seq)))
            })
            .min_by_key(|&(_, key)| key)
            .map(|(i, _)| i)
    }

    fn next_release_time(&self) -> Option<Time> {
        self.tasks
            .iter()
            .filter(|t| t.active)
            .map(|t| t.next_release)
            .min()
    }

    /// Retires the head job of task `idx` and starts the one behind it.
    fn finish_job(&mut self, idx: usize, truncated: bool) {
        let t = &mut self.tasks[idx];
        let job = t.head.take().expect("finished task has a head job");
        t.head = t.waiting.pop_front().map(|w| ActiveJob::start(w, &t.spec));
        let deadline_met = self.now <= job.deadline_at;
        if !deadline_met {
            t.misses += 1;
        }
        if truncated {
            t.truncations += 1;
        }
        self.records.push(JobRecord {
            task: TaskRef(idx),
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

    /// Advances the scheduler to `to` with a constant PE speed factor for
    /// the segment (`1.0` = nominal; larger = slower; `INFINITY` = PE down,
    /// nothing executes but releases still accumulate).
    ///
    /// # Panics
    /// Panics if `to` is in the past or `speed_factor <= 0`.
    pub fn advance(&mut self, to: Time, speed_factor: f64) {
        assert!(to >= self.now, "cannot advance into the past");
        assert!(speed_factor > 0.0, "speed factor must be positive");
        loop {
            self.release_due_jobs();
            let next_rel = self.next_release_time().unwrap_or(Time::MAX);
            let Some(run) = self.runnable_task() else {
                // Idle until the next release or the segment end.
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
                // PE down: time passes, no progress.
                self.now = next_rel.min(to);
                if self.now >= to {
                    return;
                }
                continue;
            }
            let job = self.tasks[run].head.as_mut().expect("runnable task");
            // Wall time until the running job completes or hits its budget.
            let work_ns = match (self.enforcement, job.budget_ns) {
                (BudgetEnforcement::Truncate, Some(b)) => job.remaining_ns.min(b),
                _ => job.remaining_ns,
            };
            let wall_ns = (work_ns * speed_factor).ceil().max(1.0);
            let event_at = self.now + Duration::from_nanos(wall_ns as u64);
            let t_next = event_at.min(next_rel).min(to);
            // Execute the segment [now, t_next).
            let dt_ns = t_next.saturating_since(self.now).as_nanos() as f64;
            let progress = dt_ns / speed_factor;
            job.remaining_ns = (job.remaining_ns - progress).max(0.0);
            if let Some(b) = &mut job.budget_ns {
                *b = (*b - progress).max(0.0);
            }
            job.exec_wall_ns += dt_ns;
            let completed = job.remaining_ns < 0.5;
            let exhausted = matches!(self.enforcement, BudgetEnforcement::Truncate)
                && job.budget_ns.is_some_and(|b| b < 0.5);
            self.busy_ns += dt_ns;
            self.now = t_next;
            if completed {
                self.finish_job(run, false);
            } else if exhausted {
                self.finish_job(run, true);
            }
            if self.now >= to {
                return;
            }
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn spec(name: &str, period_ms: u64, wcet_ms: u64, prio: u32) -> TaskSpec {
        TaskSpec::periodic(
            name,
            ComponentId(0),
            ms(period_ms),
            ms(wcet_ms),
            Priority(prio),
        )
        .with_exec_fraction(1.0, 1.0)
    }

    #[test]
    fn single_task_runs_periodically() {
        let mut s = Scheduler::new(1);
        let t = s.add_task(spec("a", 10, 2, 0));
        s.advance(Time::from_millis(100), 1.0);
        let recs = s.take_records();
        assert_eq!(recs.len(), 10);
        for r in &recs {
            assert_eq!(r.response, ms(2));
            assert!(r.deadline_met);
        }
        assert_eq!(s.jobs_released(t), 10);
        assert_eq!(s.misses(t), 0);
    }

    #[test]
    fn preemption_matches_analysis_example() {
        // Same set as the timing crate's classic example: C=(1,2,3),
        // P=(4,6,12). Worst-case responses 1, 3, 10 occur at the critical
        // instant t=0.
        let mut s = Scheduler::new(1);
        s.add_task(spec("a", 4, 1, 0));
        s.add_task(spec("b", 6, 2, 1));
        s.add_task(spec("c", 12, 3, 2));
        s.advance(Time::from_millis(12), 1.0);
        let recs = s.take_records();
        let first = |n: &str| {
            recs.iter()
                .find(|r| r.name == n && r.release == Time::ZERO)
                .unwrap()
                .response
        };
        assert_eq!(first("a"), ms(1));
        assert_eq!(first("b"), ms(3));
        assert_eq!(first("c"), ms(10));
    }

    #[test]
    fn slowdown_causes_deadline_misses() {
        let mut s = Scheduler::new(1);
        let t = s.add_task(spec("ctl", 10, 6, 0));
        s.advance(Time::from_millis(50), 1.0);
        assert_eq!(s.misses(t), 0);
        // 2x slowdown: 12 ms execution on a 10 ms period — permanent overload.
        s.advance(Time::from_millis(150), 2.0);
        assert!(s.misses(t) > 0);
    }

    #[test]
    fn budget_truncation_contains_overrun() {
        let mut s = Scheduler::new(1);
        let hog = s.add_task(spec("hog", 10, 2, 0).with_budget(ms(3)));
        let victim = s.add_task(spec("victim", 10, 5, 1));
        // The hog misbehaves: executes 5x its WCET for 5 jobs.
        s.inject_overrun(hog, 5.0, 5);
        s.advance(Time::from_millis(100), 1.0);
        // Budget caps the hog at 3 ms, so the victim (5 ms at prio 1) still
        // fits in each 10 ms period.
        assert_eq!(s.misses(victim), 0, "victim protected by enforcement");
        assert_eq!(s.truncations(hog), 5);
    }

    #[test]
    fn report_only_lets_overrun_harm_victim() {
        let mut s = Scheduler::new(1);
        s.set_enforcement(BudgetEnforcement::ReportOnly);
        let hog = s.add_task(spec("hog", 10, 2, 0).with_budget(ms(3)));
        let victim = s.add_task(spec("victim", 10, 5, 1));
        s.inject_overrun(hog, 5.0, 5);
        s.advance(Time::from_millis(100), 1.0);
        assert!(s.misses(victim) > 0, "no enforcement, victim suffers");
        assert_eq!(s.truncations(hog), 0);
    }

    #[test]
    fn deactivation_stops_releases_and_discards_jobs() {
        let mut s = Scheduler::new(1);
        let t = s.add_task(spec("a", 10, 2, 0));
        s.advance(Time::from_millis(25), 1.0);
        s.set_active(t, false);
        s.advance(Time::from_millis(100), 1.0);
        let count = s.jobs_released(t);
        assert_eq!(count, 3); // releases at 0, 10, 20 only
        s.set_active(t, true);
        s.advance(Time::from_millis(130), 1.0);
        assert!(s.jobs_released(t) > count);
    }

    #[test]
    fn infinite_speed_factor_stalls_execution() {
        let mut s = Scheduler::new(1);
        let t = s.add_task(spec("a", 10, 2, 0));
        s.advance(Time::from_millis(50), f64::INFINITY);
        assert_eq!(s.take_records().len(), 0);
        assert_eq!(s.jobs_released(t), 5);
    }

    #[test]
    fn utilization_accounting() {
        let mut s = Scheduler::new(1);
        s.add_task(spec("a", 10, 4, 0));
        s.advance(Time::from_millis(100), 1.0);
        let u = s.take_utilization();
        assert!((u - 0.4).abs() < 0.01, "utilization {u}");
        // Window resets.
        s.advance(Time::from_millis(110), 1.0);
        let u2 = s.take_utilization();
        assert!((u2 - 0.4).abs() < 0.05, "utilization {u2}");
    }

    #[test]
    fn stochastic_execution_within_bounds() {
        let mut s = Scheduler::new(7);
        let spec = TaskSpec::periodic("a", ComponentId(0), ms(10), ms(4), Priority(0))
            .with_exec_fraction(0.5, 1.0);
        s.add_task(spec);
        s.advance(Time::from_secs(1), 1.0);
        let recs = s.take_records();
        assert_eq!(recs.len(), 100);
        for r in &recs {
            assert!(r.exec_nominal >= ms(2) && r.exec_nominal <= ms(4));
        }
        // Not all identical.
        assert!(recs.iter().any(|r| r.exec_nominal != recs[0].exec_nominal));
    }

    #[test]
    fn mid_run_task_addition_does_not_burst_past_releases() {
        let mut s = Scheduler::new(1);
        s.add_task(spec("a", 10, 1, 0));
        s.advance(Time::from_millis(500), 1.0);
        s.take_records();
        // A task added at t=500ms must not release 50 back-jobs: its first
        // release aligns to the next grid point (510ms), giving releases at
        // 510..=590 within the advanced window.
        let late = s.add_task(spec("late", 10, 1, 1));
        s.advance(Time::from_millis(600), 1.0);
        assert_eq!(s.jobs_released(late), 9);
        assert_eq!(s.misses(late), 0);
    }

    #[test]
    fn component_deactivation() {
        let mut s = Scheduler::new(1);
        let a = s.add_task(TaskSpec::periodic(
            "a",
            ComponentId(7),
            ms(10),
            ms(1),
            Priority(0),
        ));
        let b = s.add_task(TaskSpec::periodic(
            "b",
            ComponentId(8),
            ms(10),
            ms(1),
            Priority(1),
        ));
        s.deactivate_component(ComponentId(7));
        s.advance(Time::from_millis(50), 1.0);
        assert_eq!(s.jobs_released(a), 0);
        assert!(s.jobs_released(b) > 0);
    }

    /// A random task for the oracle comparison: three priorities over up
    /// to seven tasks (so equal priorities are common), offsets, fixed and
    /// stochastic execution fractions, budgets and short deadlines.
    fn random_spec(rng: &mut SimRng, i: usize) -> TaskSpec {
        let period = ms(rng.uniform_u64(2, 20));
        let wcet = period.mul_f64(rng.uniform(0.05, 0.5));
        let prio = Priority(rng.uniform_u64(0, 2) as u32);
        let mut spec = TaskSpec::periodic(
            format!("t{i}"),
            ComponentId(rng.index(3)),
            period,
            wcet,
            prio,
        );
        if rng.chance(0.3) {
            spec = spec.with_offset(period.mul_f64(rng.uniform(0.0, 1.0)));
        }
        if rng.chance(0.5) {
            spec = spec.with_exec_fraction(0.5, 1.2);
        }
        if rng.chance(0.4) {
            spec = spec.with_budget(wcet.mul_f64(rng.uniform(0.6, 1.2)));
        }
        if rng.chance(0.3) {
            spec = spec.with_deadline(period.mul_f64(rng.uniform(0.5, 1.0)));
        }
        spec
    }

    /// The per-task queues reproduce the original `Vec`-scan scheduler
    /// exactly: the same job records in the same order, counters, clock
    /// and utilization, over a few hundred random task sets driven through
    /// nominal, overloaded (2–4×) and stalled (`INFINITY`) segments, with
    /// overrun injection, deactivation of backlogged tasks and components,
    /// re-activation and tasks added mid-run.
    #[test]
    fn per_task_queues_match_the_vec_scan_oracle() {
        let mut gen = SimRng::seed_from(2017);
        let mut backlog_drops = 0;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for case in 0..300 {
            let seed = gen.uniform_u64(0, u64::MAX);
            let mut fast = Scheduler::new(seed);
            let mut oracle = reference::VecScheduler::new(seed);
            if gen.chance(0.5) {
                fast.set_enforcement(BudgetEnforcement::ReportOnly);
                oracle.set_enforcement(BudgetEnforcement::ReportOnly);
            }
            for i in 0..1 + gen.index(6) {
                let spec = random_spec(&mut gen, i);
                fast.add_task(spec.clone());
                oracle.add_task(spec);
            }
            let mut speed = 1.0;
            for step in 0..40 {
                let n = fast.tasks.len();
                let task = TaskRef(gen.index(n));
                match gen.index(12) {
                    0 => {
                        let active = gen.chance(0.3);
                        if !active && !fast.tasks[task.0].waiting.is_empty() {
                            backlog_drops += 1;
                        }
                        fast.set_active(task, active);
                        oracle.set_active(task, active);
                    }
                    1 => {
                        let component = ComponentId(gen.index(3));
                        if fast
                            .tasks
                            .iter()
                            .any(|t| t.spec.component == component && !t.waiting.is_empty())
                        {
                            backlog_drops += 1;
                        }
                        fast.deactivate_component(component);
                        oracle.deactivate_component(component);
                    }
                    2 => {
                        let (factor, jobs) = (gen.uniform(1.5, 5.0), gen.uniform_u64(1, 5));
                        fast.inject_overrun(task, factor, jobs);
                        oracle.inject_overrun(task, factor, jobs);
                    }
                    3 if n < 7 => {
                        let spec = random_spec(&mut gen, n);
                        fast.add_task(spec.clone());
                        oracle.add_task(spec);
                    }
                    4 => speed = 1.0,
                    5 => speed = gen.uniform(2.0, 4.0),
                    6 => speed = f64::INFINITY,
                    _ => {}
                }
                let to = fast.now() + Duration::from_nanos(gen.uniform_u64(1, 40_000_000));
                fast.advance(to, speed);
                oracle.advance(to, speed);
                let at = format!("case {case}, step {step}");
                fast.drain_records_into(&mut got);
                oracle.drain_records_into(&mut want);
                assert_eq!(got, want, "job records diverged at {at}");
                assert_eq!(fast.now(), oracle.now(), "clock diverged at {at}");
                for t in (0..fast.tasks.len()).map(TaskRef) {
                    assert_eq!(fast.misses(t), oracle.misses(t), "misses at {at}");
                    assert_eq!(
                        fast.truncations(t),
                        oracle.truncations(t),
                        "truncations at {at}"
                    );
                    assert_eq!(
                        fast.jobs_released(t),
                        oracle.jobs_released(t),
                        "releases at {at}"
                    );
                }
                if gen.chance(0.3) {
                    assert_eq!(
                        fast.take_utilization().to_bits(),
                        oracle.take_utilization().to_bits(),
                        "utilization diverged at {at}"
                    );
                }
            }
        }
        assert!(
            backlog_drops >= 100,
            "only {backlog_drops} deactivations met a queued backlog"
        );
    }
}
