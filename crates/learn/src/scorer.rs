//! The online abnormality scorer: live signal samples in, windowed
//! surprise scores and [`AnomalyKind::ModelDeviation`] anomalies out.
//!
//! Each ingested sample is quantized, matched to the nearest vocabulary
//! state, and scored as `transition surprise + novelty_weight · novelty`,
//! where novelty is the L1 distance between the sample's *continuous* bin
//! indices and the matched state's bin centres — so excursions far beyond
//! the trained range stay proportionally novel even though they quantize
//! to an edge bin. The reported score is the mean over a sliding window.
//! An anomaly is emitted on the **rising edge** of a threshold crossing
//! (hysteresis), so a sustained deviation raises one problem into the
//! coordinator instead of one per sample.

use std::collections::VecDeque;

use saav_monitor::anomaly::{Anomaly, AnomalyKind};
use saav_sim::time::Time;

use crate::pipeline::SelfAwarenessModel;

/// The per-sample output of [`OnlineScorer::ingest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreReport {
    /// Windowed abnormality score after this sample.
    pub score: f64,
    /// The matched vocabulary state.
    pub state: usize,
    /// L1 distance (in continuous bin units, capped per signal) from the
    /// observation to the matched state's bin centres.
    pub novelty: f64,
    /// The anomaly, if this sample crossed the threshold (rising edge).
    pub anomaly: Option<Anomaly>,
}

/// Online scoring state over a trained [`SelfAwarenessModel`].
#[derive(Debug, Clone)]
pub struct OnlineScorer {
    model: SelfAwarenessModel,
    window: VecDeque<f64>,
    prev: Option<usize>,
    above: bool,
}

impl OnlineScorer {
    /// Creates a scorer with empty per-run state.
    pub fn new(model: SelfAwarenessModel) -> Self {
        OnlineScorer {
            model,
            window: VecDeque::new(),
            prev: None,
            above: false,
        }
    }

    /// Advances the scorer by one sample and returns the windowed score —
    /// shared by [`Self::ingest`] and the offline
    /// [`SelfAwarenessModel::score_trace`], so online and replay scoring
    /// are the same arithmetic by construction.
    ///
    /// # Panics
    /// Panics if the sample width differs from the model's signal count.
    pub fn score_only(&mut self, sample: &[f64]) -> f64 {
        let (score, _, _) = self.step(sample);
        score
    }

    /// Ingests one live sample; returns the score, matched state and —
    /// on a rising threshold crossing — a
    /// [`AnomalyKind::ModelDeviation`] anomaly stamped with `at`.
    ///
    /// # Panics
    /// Panics if the sample width differs from the model's signal count.
    pub fn ingest(&mut self, at: Time, sample: &[f64]) -> ScoreReport {
        let (score, state, novelty) = self.step(sample);
        let threshold = self.model.threshold();
        let crossed = score > threshold && !self.above;
        self.above = score > threshold;
        let anomaly =
            crossed.then(|| Anomaly::new(at, "learned_model", AnomalyKind::ModelDeviation));
        ScoreReport {
            score,
            state,
            novelty,
            anomaly,
        }
    }

    fn step(&mut self, sample: &[f64]) -> (f64, usize, f64) {
        let quantizers = self.model.quantizers();
        assert_eq!(
            sample.len(),
            quantizers.len(),
            "sample width does not match the trained signal set"
        );
        let q: Vec<u16> = sample
            .iter()
            .zip(quantizers)
            .map(|(&v, qz)| qz.bin(v) as u16)
            .collect();
        let (state, _) = self.model.vocab().encode(&q);
        // Novelty against the matched state's bin centres, in continuous
        // bin units so out-of-range overshoot keeps counting; each signal's
        // contribution is capped so a single runaway signal cannot make the
        // score unbounded.
        let centroid = self.model.vocab().state(state);
        let novelty: f64 = sample
            .iter()
            .zip(quantizers)
            .zip(centroid)
            .map(|((&v, qz), &bin)| {
                let cap = 2.0 * qz.bins() as f64;
                (qz.continuous_index(v) - (f64::from(bin) + 0.5))
                    .abs()
                    .min(cap)
            })
            .sum();
        let surprise = match self.prev {
            Some(prev) => self.model.transitions().surprise(prev, state),
            None => 0.0,
        };
        let step_score = surprise + self.model.config().novelty_weight * novelty;
        self.prev = Some(state);
        self.window.push_back(step_score);
        if self.window.len() > self.model.config().window {
            self.window.pop_front();
        }
        let score = self.window.iter().sum::<f64>() / self.window.len() as f64;
        (score, state, novelty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::LearnConfig;
    use crate::trace::SignalTrace;

    fn trained() -> SelfAwarenessModel {
        let traces: Vec<SignalTrace> = (0..3)
            .map(|p| {
                SignalTrace::new(
                    vec!["x".into(), "y".into()],
                    (0..100)
                        .map(|i| {
                            let t = (i + p * 31) as f64;
                            vec![10.0 + (t * 0.5).sin(), 2.0 + 0.1 * (t * 0.2).cos()]
                        })
                        .collect(),
                )
            })
            .collect();
        SelfAwarenessModel::train(&traces, LearnConfig::default()).unwrap()
    }

    #[test]
    fn nominal_stream_never_fires() {
        let model = trained();
        let mut scorer = model.scorer();
        for i in 0..100 {
            let t = i as f64;
            let report = scorer.ingest(
                Time::from_secs(i),
                &[10.0 + (t * 0.5).sin(), 2.0 + 0.1 * (t * 0.2).cos()],
            );
            assert!(report.anomaly.is_none(), "sample {i}: {report:?}");
        }
    }

    #[test]
    fn deviation_fires_once_per_excursion() {
        let model = trained();
        let mut scorer = model.scorer();
        let mut fired = Vec::new();
        for i in 0..30u64 {
            let t = i as f64;
            let sample = if i >= 10 {
                [40.0, 0.1] // far outside the nominal envelope
            } else {
                [10.0 + (t * 0.5).sin(), 2.0 + 0.1 * (t * 0.2).cos()]
            };
            let report = scorer.ingest(Time::from_secs(i), &sample);
            if let Some(a) = &report.anomaly {
                assert_eq!(a.kind, AnomalyKind::ModelDeviation);
                assert_eq!(a.at, Time::from_secs(i));
                fired.push(i);
            }
        }
        // One rising edge for the single sustained excursion, and only
        // after the excursion began (hysteresis holds it down afterwards).
        assert_eq!(fired.len(), 1, "firings at {fired:?}");
        assert!(fired[0] >= 10);
    }

    #[test]
    fn online_matches_offline_replay() {
        let model = trained();
        let trace = SignalTrace::new(
            vec!["x".into(), "y".into()],
            (0..50)
                .map(|i| vec![10.0 + (i as f64 * 0.5).sin(), 2.0])
                .collect(),
        );
        let mut scorer = model.scorer();
        let online_max = trace
            .samples()
            .iter()
            .enumerate()
            .map(|(i, row)| scorer.ingest(Time::from_secs(i as u64), row).score)
            .fold(0.0f64, f64::max);
        assert_eq!(online_max, model.score_trace(&trace));
    }
}
