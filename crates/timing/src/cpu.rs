//! Busy-window WCRT analysis for static-priority preemptive (SPP) CPUs.
//!
//! Classic compositional-performance-analysis formulation: for task *i* and
//! the *q*-th activation inside the level-*i* busy window,
//!
//! ```text
//! w_i(q) = q·C_i + Σ_{j ∈ hp(i)} η_j⁺(w_i(q)) · C_j        (fixpoint)
//! R_i    = max_q { w_i(q) − δ_i⁻(q) }
//! ```
//!
//! The number of activations to examine is bounded by the length of the
//! level-*i* busy window. Iterations are capped; overload is detected from
//! utilization up front, so the analysis always terminates.

use saav_sim::time::Duration;

use crate::task::{AnalysisError, ResourceAnalysis, Task, TaskResponse};

/// Iteration cap for each fixpoint computation.
const MAX_ITERATIONS: usize = 10_000;

/// A single CPU scheduled with static-priority preemption.
#[derive(Debug, Clone, Default)]
pub struct CpuAnalysis {
    tasks: Vec<Task>,
}

impl CpuAnalysis {
    /// Creates an empty analysis.
    pub fn new() -> Self {
        CpuAnalysis::default()
    }

    /// Adds a task.
    pub fn add_task(&mut self, task: Task) -> &mut Self {
        self.tasks.push(task);
        self
    }

    /// The configured tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Total utilization of the task set.
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// Runs the analysis for all tasks.
    ///
    /// # Errors
    /// [`AnalysisError::Overload`] when utilization is ≥ 1,
    /// [`AnalysisError::Diverged`] when a fixpoint fails to converge.
    pub fn analyze(&self) -> Result<ResourceAnalysis, AnalysisError> {
        let u = self.utilization();
        if u >= 1.0 {
            return Err(AnalysisError::Overload {
                utilization_pct: (u * 100.0) as u32,
            });
        }
        let mut responses = Vec::with_capacity(self.tasks.len());
        for task in &self.tasks {
            let wcrt = self.wcrt_of(task)?;
            responses.push(TaskResponse {
                name: task.name.clone(),
                wcrt,
                deadline: task.deadline,
            });
        }
        Ok(ResourceAnalysis { responses })
    }

    /// WCRT bound for one task.
    ///
    /// # Errors
    /// See [`analyze`](CpuAnalysis::analyze).
    pub fn wcrt_of(&self, task: &Task) -> Result<Duration, AnalysisError> {
        let hp: Vec<&Task> = self
            .tasks
            .iter()
            .filter(|t| t.priority < task.priority)
            .collect();
        let c_i = task.wcet;

        // Level-i busy window length.
        let mut busy = c_i;
        for _ in 0..MAX_ITERATIONS {
            let mut total = c_i * task.events.eta_plus(busy).max(1);
            for j in &hp {
                total += j.wcet * j.events.eta_plus(busy);
            }
            if total == busy {
                break;
            }
            busy = total;
        }
        let activations = task.events.eta_plus(busy).max(1);

        let mut worst = Duration::ZERO;
        for q in 1..=activations {
            let mut w = c_i * q;
            let mut converged = false;
            for _ in 0..MAX_ITERATIONS {
                let mut next = c_i * q;
                for j in &hp {
                    next += j.wcet * j.events.eta_plus(w);
                }
                if next == w {
                    converged = true;
                    break;
                }
                w = next;
            }
            if !converged {
                return Err(AnalysisError::Diverged {
                    task: task.name.clone(),
                });
            }
            // Response time relative to the activation instant: the input
            // jitter is accounted for once, during output-model propagation
            // (J_out = J_in + response jitter), not here — adding it again
            // would double-count it across chained analyses.
            let r = w.saturating_sub(task.events.delta_min(q));
            worst = worst.max(r);
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_model::EventModel;
    use crate::task::Priority;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn task(name: &str, c: u64, p: u64, prio: u32) -> Task {
        Task::new(
            name,
            ms(c),
            Priority(prio),
            EventModel::periodic(ms(p)),
            ms(p),
        )
    }

    /// Hand-computed classic example: C = (1,2,3), P = (4,6,12) ⇒
    /// R = (1, 3, 10).
    #[test]
    fn classic_three_task_example() {
        let mut cpu = CpuAnalysis::new();
        cpu.add_task(task("a", 1, 4, 0));
        cpu.add_task(task("b", 2, 6, 1));
        cpu.add_task(task("c", 3, 12, 2));
        let res = cpu.analyze().unwrap();
        assert_eq!(res.response("a").unwrap().wcrt, ms(1));
        assert_eq!(res.response("b").unwrap().wcrt, ms(3));
        assert_eq!(res.response("c").unwrap().wcrt, ms(10));
        assert!(res.schedulable());
    }

    #[test]
    fn highest_priority_task_sees_only_itself() {
        let mut cpu = CpuAnalysis::new();
        cpu.add_task(task("hi", 3, 100, 0));
        cpu.add_task(task("lo", 50, 200, 5));
        let res = cpu.analyze().unwrap();
        assert_eq!(res.response("hi").unwrap().wcrt, ms(3));
    }

    /// Two 6 ms / 10 ms tasks overload the CPU, whichever constructor
    /// built the analysis: `default()` analyses the same CPU as `new()`.
    #[test]
    fn overload_is_detected() {
        for mut cpu in [CpuAnalysis::new(), CpuAnalysis::default()] {
            cpu.add_task(task("a", 6, 10, 0));
            cpu.add_task(task("b", 6, 10, 1));
            assert!((cpu.utilization() - 1.2).abs() < 1e-12);
            match cpu.analyze() {
                Err(AnalysisError::Overload { utilization_pct }) => {
                    assert_eq!(utilization_pct, 120)
                }
                other => panic!("expected overload, got {other:?}"),
            }
        }
    }

    #[test]
    fn jitter_in_activation_increases_interference() {
        let mut cpu = CpuAnalysis::new();
        cpu.add_task(Task::new(
            "hp",
            ms(2),
            Priority(0),
            EventModel::with_jitter(ms(10), ms(10)),
            ms(10),
        ));
        cpu.add_task(task("lo", 5, 40, 1));
        let res = cpu.analyze().unwrap();
        // Burst of two hp activations: w = 5 + 2*2 = 9, eta(9)=2 -> 9.
        assert_eq!(res.response("lo").unwrap().wcrt, ms(9));
    }

    #[test]
    fn wcrt_at_least_wcet() {
        let mut cpu = CpuAnalysis::new();
        cpu.add_task(task("a", 1, 5, 0));
        cpu.add_task(task("b", 2, 9, 1));
        cpu.add_task(task("c", 1, 17, 2));
        let res = cpu.analyze().unwrap();
        for (t, r) in cpu.tasks().iter().zip(&res.responses) {
            assert!(r.wcrt >= t.wcet, "{}", t.name);
        }
    }

    #[test]
    fn multiple_activations_in_busy_window() {
        // Deadline > period case where the busy window spans activations:
        // a: C=4, P=10, prio 0; b: C=3, P=6, prio 1? utilization 0.4+0.5=0.9
        let mut cpu = CpuAnalysis::new();
        cpu.add_task(task("a", 4, 10, 0));
        let mut b = task("b", 3, 6, 1);
        b.deadline = ms(20); // allow R > P
        cpu.add_task(b);
        let res = cpu.analyze().unwrap();
        // q=1: w=3+eta_a(w)*4: 3->7 (eta=1)->7; eta_a(7)=1 => 7; R1=7
        // q=2: w=6+eta_a*4: 6->10(eta=1)->10: eta_a(10)=1 -> 10; R2=10-6=4
        // busy window: L: 3*eta_b(L)+4*eta_a(L): L=3+4=7; eta_b(7)=2,eta_a(7)=1 -> 10
        //   eta_b(10)=2, eta_a(10)=1 -> 10. activations=2.
        assert_eq!(res.response("b").unwrap().wcrt, ms(7));
    }
}
