//! The Laplace-smoothed Markov/DBN transition model over vocabulary
//! states.
//!
//! This is the dynamic part of the learned self-awareness model (the
//! discrete analogue of Kanapram et al.'s dynamic Bayesian abnormality
//! models): `P(s_{t+1} | s_t)` estimated from nominal state sequences with
//! add-one smoothing, so unseen transitions have small but non-zero
//! probability and their **surprise** `-ln P` is large but finite.

/// Transition counts and smoothed probabilities over `n` states.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionModel {
    n: usize,
    counts: Vec<u64>,
    totals: Vec<u64>,
}

impl TransitionModel {
    /// Creates an empty model over `n` states.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "transition model needs at least one state");
        TransitionModel {
            n,
            counts: vec![0; n * n],
            totals: vec![0; n],
        }
    }

    /// Records one observed transition `from → to`.
    ///
    /// # Panics
    /// Panics if either state id is out of range.
    pub fn observe(&mut self, from: usize, to: usize) {
        assert!(from < self.n && to < self.n, "state id out of range");
        self.counts[from * self.n + to] += 1;
        self.totals[from] += 1;
    }

    /// Records every consecutive pair of a state sequence.
    pub fn observe_sequence(&mut self, seq: &[usize]) {
        for w in seq.windows(2) {
            self.observe(w[0], w[1]);
        }
    }

    /// Laplace-smoothed transition probability
    /// `(c + 1) / (total(from) + n)` — strictly positive and summing to one
    /// over `to`.
    pub fn prob(&self, from: usize, to: usize) -> f64 {
        assert!(from < self.n && to < self.n, "state id out of range");
        (self.counts[from * self.n + to] as f64 + 1.0) / (self.totals[from] as f64 + self.n as f64)
    }

    /// Surprise of a transition: `-ln P(to | from)`. Always finite thanks
    /// to smoothing.
    pub fn surprise(&self, from: usize, to: usize) -> f64 {
        -self.prob(from, to).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_are_smoothed_and_normalized() {
        let mut m = TransitionModel::new(3);
        m.observe_sequence(&[0, 1, 1, 2, 0, 1]);
        // Row 0: two transitions to 1, none elsewhere.
        assert_eq!(m.counts[1], 2);
        assert!((m.prob(0, 1) - 3.0 / 5.0).abs() < 1e-12);
        assert!((m.prob(0, 0) - 1.0 / 5.0).abs() < 1e-12);
        let row_sum: f64 = (0..3).map(|to| m.prob(0, to)).sum();
        assert!((row_sum - 1.0).abs() < 1e-12);
        // A never-observed row is uniform.
        assert!((m.prob(2, 1) - 1.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn surprise_orders_by_rarity() {
        let mut m = TransitionModel::new(2);
        for _ in 0..50 {
            m.observe(0, 0);
        }
        m.observe(0, 1);
        assert!(m.surprise(0, 1) > m.surprise(0, 0));
        assert!(m.surprise(0, 1).is_finite());
    }
}
