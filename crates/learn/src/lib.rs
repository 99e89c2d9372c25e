//! # saav-learn — learned self-awareness models
//!
//! The monitoring layer of Schlatow et al. (DATE 2017) detects deviations
//! against *hand-written* contracts (WCET budgets, value ranges, message
//! rates). This crate adds the next step the related work calls for —
//! self-awareness models **learned from nominal operation** (Ravanbakhsh
//! et al.; Kanapram et al.): train on traces of undisturbed driving, then
//! score live operation for abnormality.
//!
//! The pipeline, stage by stage:
//!
//! * [`trace`] — [`SignalTrace`]: multi-signal samples captured from fleet
//!   runs (the nominal-data generator is `saav_core::fleet::FleetRunner`).
//! * [`quantize`] — per-signal [`Quantizer`]s (uniform or quantile bins)
//!   fitted to nominal data.
//! * [`vocab`] — the [`StateVocabulary`]: joint quantized vectors
//!   clustered into a bounded discrete state set; the L1 distance to the
//!   matched state is the observation's *novelty*.
//! * [`transitions`] — the Laplace-smoothed Markov/DBN
//!   [`TransitionModel`] over vocabulary states.
//! * [`pipeline`] — [`SelfAwarenessModel::train`] wiring the stages
//!   together, plus threshold calibration (max nominal score + margin, so
//!   the calibration set is false-positive-free by construction).
//! * [`scorer`] — the [`OnlineScorer`]: live samples in, windowed
//!   surprise scores and `AnomalyKind::ModelDeviation` anomalies out,
//!   feeding the existing monitor → coordinator escalation path.
//!
//! ```
//! use saav_learn::{LearnConfig, SelfAwarenessModel, SignalTrace};
//! use saav_sim::time::Time;
//!
//! // Nominal operation: speed ~22 m/s, ability ~1.0.
//! let nominal: Vec<SignalTrace> = (0..3)
//!     .map(|p| SignalTrace::new(
//!         vec!["speed".into(), "ability".into()],
//!         (0..60).map(|i| {
//!             let t = (i + p * 17) as f64;
//!             vec![22.0 + 0.2 * (t * 0.7).sin(), 1.0 - 0.02 * (t * 0.3).cos()]
//!         }).collect(),
//!     ))
//!     .collect();
//! let model = SelfAwarenessModel::train(&nominal, LearnConfig::default()).unwrap();
//!
//! // Live scoring: nominal samples stay quiet, a deviation fires.
//! let mut scorer = model.scorer();
//! assert!(scorer.ingest(Time::from_secs(0), &[22.0, 1.0]).anomaly.is_none());
//! assert!(scorer.ingest(Time::from_secs(1), &[4.0, 0.4]).anomaly.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod quantize;
pub mod scorer;
pub mod trace;
pub mod transitions;
pub mod vocab;

pub use pipeline::{LearnConfig, SelfAwarenessModel, TrainError};
pub use quantize::{Binning, Quantizer};
pub use scorer::{OnlineScorer, ScoreReport};
pub use trace::SignalTrace;
pub use transitions::TransitionModel;
pub use vocab::StateVocabulary;
