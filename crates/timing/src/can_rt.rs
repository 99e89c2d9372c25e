//! WCRT analysis for CAN (non-preemptive static priority with blocking).
//!
//! Follows the corrected analysis of Davis, Burns, Bril & Lukkien
//! (*Controller Area Network (CAN) schedulability analysis: refuted,
//! revisited and revised*, RTS 2007), generalized to PJD event models:
//!
//! ```text
//! B_i      = max_{k ∈ lp(i)} C_k                       (blocking)
//! w_i(q)   = B_i + q·C_i + Σ_{j ∈ hp(i)} η_j⁺(w_i(q) + τ_bit)·C_j
//! R_i(q)   = w_i(q) + C_i − δ_i⁻(q+1)                  (activation-relative)
//! R_i      = max_{q = 0..Q-1} R_i(q)
//! ```
//!
//! where `τ_bit` is one bit time (a frame that starts even one bit early
//! cannot be preempted) and `Q` is the number of instances in the level-*i*
//! busy period.

use saav_sim::time::Duration;

use crate::task::{AnalysisError, ResourceAnalysis, Task, TaskResponse};

const MAX_ITERATIONS: usize = 10_000;

/// Worst-case bits of a frame with `dlc` payload bytes, the classic bound
/// with maximum stuffing and the interframe space: `8n + 47 + ⌊(34 + 8n −
/// 1)/4⌋` for a standard frame. Its transmission time is a frame stream's
/// `wcet`.
pub fn frame_bits_worst_case(dlc: u8, extended: bool) -> u32 {
    let n = dlc as u32;
    // SOF through CRC sequence, the region bit stuffing applies to.
    let stuffable = if extended { 54 + 8 * n } else { 34 + 8 * n };
    // CRC delimiter, ACK slot and delimiter, EOF (10) and interframe space (3).
    let fixed = stuffable + 10 + 3;
    fixed + (stuffable - 1) / 4
}

/// WCRT analysis of one CAN bus. [`Task`]s model frame streams: `wcet` is
/// the worst-case frame transmission time, `priority` the CAN identifier
/// order (lower = wins arbitration).
#[derive(Debug, Clone)]
pub struct CanAnalysis {
    frames: Vec<Task>,
    bit_time: Duration,
}

impl CanAnalysis {
    /// Creates an analysis for a bus with the given bit time.
    ///
    /// # Panics
    /// Panics if `bit_time` is zero.
    pub fn new(bit_time: Duration) -> Self {
        assert!(!bit_time.is_zero(), "bit time must be positive");
        CanAnalysis {
            frames: Vec::new(),
            bit_time,
        }
    }

    /// Convenience constructor from a bitrate.
    ///
    /// # Panics
    /// Panics if `bitrate_bps` is zero.
    pub fn with_bitrate(bitrate_bps: u32) -> Self {
        assert!(bitrate_bps > 0);
        CanAnalysis::new(Duration::from_nanos(1_000_000_000 / bitrate_bps as u64))
    }

    /// Adds a frame stream.
    pub fn add_frame(&mut self, frame: Task) -> &mut Self {
        self.frames.push(frame);
        self
    }

    /// The configured frame streams.
    pub fn frames(&self) -> &[Task] {
        &self.frames
    }

    /// Total bus utilization.
    pub fn utilization(&self) -> f64 {
        self.frames.iter().map(Task::utilization).sum()
    }

    /// Runs the analysis for all frame streams.
    ///
    /// # Errors
    /// [`AnalysisError::Overload`] or [`AnalysisError::Diverged`].
    pub fn analyze(&self) -> Result<ResourceAnalysis, AnalysisError> {
        let u = self.utilization();
        if u >= 1.0 {
            return Err(AnalysisError::Overload {
                utilization_pct: (u * 100.0) as u32,
            });
        }
        let mut responses = Vec::with_capacity(self.frames.len());
        for f in &self.frames {
            responses.push(TaskResponse {
                name: f.name.clone(),
                wcrt: self.wcrt_of(f)?,
                deadline: f.deadline,
            });
        }
        Ok(ResourceAnalysis { responses })
    }

    /// WCRT bound for one frame stream.
    ///
    /// # Errors
    /// [`AnalysisError::Diverged`] when the fixpoint fails to converge.
    pub fn wcrt_of(&self, frame: &Task) -> Result<Duration, AnalysisError> {
        let hp: Vec<&Task> = self
            .frames
            .iter()
            .filter(|t| t.priority < frame.priority)
            .collect();
        let blocking = self
            .frames
            .iter()
            .filter(|t| t.priority > frame.priority)
            .map(|t| t.wcet)
            .max()
            .unwrap_or(Duration::ZERO);

        // Level-i busy period.
        let mut busy = blocking + frame.wcet;
        for _ in 0..MAX_ITERATIONS {
            let mut total = blocking + frame.wcet * frame.events.eta_plus(busy).max(1);
            for j in &hp {
                total += j.wcet * j.events.eta_plus(busy);
            }
            if total == busy {
                break;
            }
            busy = total;
        }
        let instances = frame.events.eta_plus(busy).max(1);

        let mut worst = Duration::ZERO;
        for q in 0..instances {
            let mut w = blocking + frame.wcet * q;
            let mut converged = false;
            for _ in 0..MAX_ITERATIONS {
                let mut next = blocking + frame.wcet * q;
                for j in &hp {
                    next += j.wcet * j.events.eta_plus(w + self.bit_time);
                }
                if next == w {
                    converged = true;
                    break;
                }
                w = next;
            }
            if !converged {
                return Err(AnalysisError::Diverged {
                    task: frame.name.clone(),
                });
            }
            // Activation-relative response time (see `cpu` module for the
            // jitter-accounting convention shared by all analyses).
            let r = (w + frame.wcet).saturating_sub(frame.events.delta_min(q + 1));
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

    fn us(v: u64) -> Duration {
        Duration::from_micros(v)
    }

    /// A frame stream: 135-bit worst case at 500 kbit/s = 270 µs.
    fn stream(name: &str, c_us: u64, period_us: u64, prio: u32) -> Task {
        Task::new(
            name,
            us(c_us),
            Priority(prio),
            EventModel::periodic(us(period_us)),
            us(period_us),
        )
    }

    fn bus() -> CanAnalysis {
        CanAnalysis::with_bitrate(500_000)
    }

    #[test]
    fn worst_case_formula_matches_known_value() {
        // Classic result: standard frame, 8 data bytes => 135 bits with IFS.
        assert_eq!(frame_bits_worst_case(8, false), 135);
        // And 0 data bytes => 55 bits.
        assert_eq!(frame_bits_worst_case(0, false), 55);
    }

    #[test]
    fn highest_priority_frame_still_suffers_blocking() {
        let mut b = bus();
        b.add_frame(stream("hi", 270, 10_000, 0));
        b.add_frame(stream("lo", 270, 10_000, 9));
        let res = b.analyze().unwrap();
        // hi: blocking 270 (lo already started) + own 270 = 540.
        assert_eq!(res.response("hi").unwrap().wcrt, us(540));
    }

    #[test]
    fn lowest_priority_frame_has_no_blocking() {
        let mut b = bus();
        b.add_frame(stream("hi", 270, 2_000, 0));
        b.add_frame(stream("lo", 270, 10_000, 9));
        let res = b.analyze().unwrap();
        // lo: q=0: w=0; interference eta_hi(0+2us)=1 -> w=270;
        // eta_hi(272us)=1 -> 270. R = 270+270 = 540.
        assert_eq!(res.response("lo").unwrap().wcrt, us(540));
    }

    #[test]
    fn interference_accumulates_with_priority() {
        let mut b = bus();
        for (i, p) in [(0u32, 1_000u64), (1, 2_000), (2, 4_000), (3, 8_000)] {
            b.add_frame(stream(&format!("f{i}"), 135, p, i));
        }
        let res = b.analyze().unwrap();
        let wcrts: Vec<Duration> = res.responses.iter().map(|r| r.wcrt).collect();
        for w in wcrts.windows(2) {
            assert!(w[0] <= w[1], "WCRT should grow with lower priority");
        }
        assert!(res.schedulable());
    }

    #[test]
    fn non_preemptive_push_through_counts_late_arrivals() {
        // A frame that starts transmitting cannot be preempted; interference
        // is evaluated at w + tau_bit. Verify the +tau_bit matters: with two
        // equal-period streams, lo's queueing delay collects exactly one hi
        // instance per period.
        let mut b = bus();
        b.add_frame(stream("hi", 200, 1_000, 0));
        b.add_frame(stream("lo", 200, 1_000, 5));
        let res = b.analyze().unwrap();
        // lo q=0: w=0 -> eta_hi(2us)=1 -> 200 -> eta_hi(202)=1 -> 200.
        // R = 200 + 200 = 400.
        assert_eq!(res.response("lo").unwrap().wcrt, us(400));
    }

    #[test]
    fn overload_detected() {
        let mut b = bus();
        b.add_frame(stream("a", 600, 1_000, 0));
        b.add_frame(stream("b", 600, 1_000, 1));
        assert!(matches!(b.analyze(), Err(AnalysisError::Overload { .. })));
    }

    #[test]
    fn busy_period_spans_multiple_instances_under_load() {
        let mut b = bus();
        // hp 50% + own 30% + a long low-priority blocker: the level-own busy
        // period spans five instances of `own`.
        let mut hp = stream("hp", 500, 1_000, 0);
        hp.deadline = us(2_000); // tolerate blocking by the long frame
        b.add_frame(hp);
        let mut own = stream("own", 300, 1_000, 1);
        own.deadline = us(10_000);
        b.add_frame(own);
        b.add_frame(stream("blocker", 900, 10_000, 9));
        let res = b.analyze().unwrap();
        let r = res.response("own").unwrap().wcrt;
        // Hand-computed: q=0 gives w=1900 (blocking 900 + two hp instances),
        // R(0) = 1900 + 300 = 2200 µs, which dominates all later instances.
        assert_eq!(r, us(2_200));
        assert!(r > us(1_000), "busy period must span a period boundary");
        assert!(res.schedulable());
    }

    #[test]
    fn wcrt_lower_bounded_by_transmission_time() {
        let mut b = bus();
        b.add_frame(stream("only", 270, 10_000, 0));
        let res = b.analyze().unwrap();
        assert_eq!(res.response("only").unwrap().wcrt, us(270));
    }
}
