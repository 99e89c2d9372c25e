//! Per-signal quantizers: continuous samples to discrete bin indices.
//!
//! Learned abnormality models work over a discrete state space (Kanapram et
//! al.'s feature-state DBNs), so each continuous signal is first mapped to
//! one of a small number of bins. Two binnings are supported: **uniform**
//! (equal-width bins over the observed range) and **quantile** (equal-mass
//! bins, so dense regions of the nominal distribution get finer
//! resolution). Both are fitted from nominal data only.

/// How bin edges are derived from the training values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binning {
    /// Equal-width bins over `[min, max]` of the training values.
    Uniform,
    /// Equal-mass bins at the training-value quantiles (duplicate edges
    /// collapse, so heavily repeated values can yield fewer bins).
    Quantile,
}

/// A fitted scalar quantizer: strictly increasing edges defining half-open
/// bins `[e_i, e_{i+1})`; values outside the fitted range clamp to the edge
/// bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantizer {
    edges: Vec<f64>,
}

/// Minimum half-width used when a signal is (near-)constant in the training
/// data, so the quantizer still has a non-degenerate range and excursions
/// away from the constant land in an edge bin.
const DEGENERATE_PAD: f64 = 1e-3;

/// Fraction of the observed span added on each side of a fitted range
/// ([`Quantizer::fit`]): unseen nominal runs wobble slightly past the
/// training min/max, and without slack that wobble would count as novelty.
pub const RANGE_PAD_FRAC: f64 = 0.10;

impl Quantizer {
    /// Equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`, or either bound is not finite.
    pub fn uniform(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "quantizer needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite(), "non-finite bounds");
        assert!(hi > lo, "quantizer range must be non-empty");
        let edges = (0..=bins)
            .map(|i| lo + (hi - lo) * i as f64 / bins as f64)
            .collect();
        Quantizer { edges }
    }

    /// Equal-mass bins at the quantiles of `values`. Duplicate edges are
    /// collapsed, so the resulting bin count may be smaller than requested.
    ///
    /// # Panics
    /// Panics if `bins == 0`, `values` is empty, or any value is not finite.
    pub fn quantile(values: &[f64], bins: usize) -> Self {
        assert!(bins > 0, "quantizer needs at least one bin");
        assert!(!values.is_empty(), "cannot fit a quantizer to no data");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite training value"));
        let n = sorted.len();
        let mut edges: Vec<f64> = Vec::with_capacity(bins + 1);
        for i in 0..=bins {
            // Linear index into the sorted sample for the i/bins quantile.
            let idx = ((i * (n - 1)) as f64 / bins as f64).round() as usize;
            let e = sorted[idx.min(n - 1)];
            if edges.last().is_none_or(|&last| e > last) {
                edges.push(e);
            }
        }
        if edges.len() < 2 {
            // All training values identical: fall back to a padded range.
            let v = edges[0];
            let pad = DEGENERATE_PAD.max(v.abs() * 1e-3);
            return Quantizer::uniform(v - pad, v + pad, bins);
        }
        Quantizer { edges }
    }

    /// Fits a quantizer to the training values with the requested binning.
    /// The fitted range is widened by [`RANGE_PAD_FRAC`] of the observed
    /// span on each side, so nominal noise from runs *outside* the
    /// training set does not immediately step out of range (which would
    /// register as novelty); near-constant signals get a small padded
    /// range instead of a zero-width one.
    ///
    /// # Panics
    /// Panics if `bins == 0`, `values` is empty, or any value is not finite.
    pub fn fit(values: &[f64], bins: usize, binning: Binning) -> Self {
        assert!(!values.is_empty(), "cannot fit a quantizer to no data");
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            lo.is_finite() && hi.is_finite(),
            "non-finite training value"
        );
        if hi - lo < f64::EPSILON * hi.abs().max(1.0) {
            let pad = DEGENERATE_PAD.max(lo.abs() * 1e-3);
            return Quantizer::uniform(lo - pad, hi + pad, bins);
        }
        let pad = RANGE_PAD_FRAC * (hi - lo);
        match binning {
            Binning::Uniform => Quantizer::uniform(lo - pad, hi + pad, bins),
            Binning::Quantile => {
                let mut q = Quantizer::quantile(values, bins);
                // Widen only the outer edges; interior quantiles stay put.
                q.edges[0] -= pad;
                let last = q.edges.len() - 1;
                q.edges[last] += pad;
                q
            }
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.edges.len() - 1
    }

    /// Maps a value to its bin index; out-of-range values clamp to the
    /// first/last bin.
    pub fn bin(&self, v: f64) -> usize {
        if v < self.edges[0] {
            return 0;
        }
        let last = self.bins() - 1;
        if v >= *self.edges.last().expect("≥ 2 edges") {
            return last;
        }
        // partition_point: first edge strictly greater than v, minus one.
        self.edges.partition_point(|&e| e <= v) - 1
    }

    /// A representative value for a bin — the midpoint of its edges, which
    /// always quantizes back into the same bin (property-tested).
    ///
    /// # Panics
    /// Panics if `bin` is out of range.
    pub fn representative(&self, bin: usize) -> f64 {
        assert!(bin < self.bins(), "bin out of range");
        0.5 * (self.edges[bin] + self.edges[bin + 1])
    }

    /// The *continuous* bin index of a value: `b + frac` inside bin `b`,
    /// extrapolated with the edge-bin width outside the fitted range (so
    /// it can be negative or exceed [`Self::bins`]). [`Self::bin`] clamps;
    /// this does not — it is what makes far-out-of-range excursions
    /// proportionally novel even though they quantize to an edge bin.
    pub fn continuous_index(&self, v: f64) -> f64 {
        let n = self.edges.len();
        if v < self.edges[0] {
            let w = self.edges[1] - self.edges[0];
            return (v - self.edges[0]) / w;
        }
        let last = self.edges[n - 1];
        if v >= last {
            let w = last - self.edges[n - 2];
            return self.bins() as f64 + (v - last) / w;
        }
        let b = self.bin(v);
        b as f64 + (v - self.edges[b]) / (self.edges[b + 1] - self.edges[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_bins_partition_the_range() {
        let q = Quantizer::uniform(0.0, 10.0, 5);
        assert_eq!(q.bins(), 5);
        assert_eq!(q.bin(-1.0), 0);
        assert_eq!(q.bin(0.0), 0);
        assert_eq!(q.bin(1.99), 0);
        assert_eq!(q.bin(2.0), 1);
        assert_eq!(q.bin(9.99), 4);
        assert_eq!(q.bin(10.0), 4);
        assert_eq!(q.bin(100.0), 4);
    }

    #[test]
    fn quantile_bins_follow_mass() {
        // 90 values near 0, 10 near 100: quantile edges crowd the dense part.
        let mut values: Vec<f64> = (0..90).map(|i| i as f64 / 100.0).collect();
        values.extend((0..10).map(|i| 100.0 + i as f64));
        let q = Quantizer::quantile(&values, 4);
        assert!(q.bins() >= 2);
        // The dense region spans several bins; the sparse tail only one.
        assert!(q.bin(0.85) > q.bin(0.05));
        assert_eq!(q.bin(109.0), q.bins() - 1);
    }

    #[test]
    fn constant_signal_gets_padded_range() {
        let q = Quantizer::fit(&[2.5; 40], 8, Binning::Uniform);
        let (lo, hi) = (q.edges[0], q.edges[q.edges.len() - 1]);
        assert!(lo < 2.5 && hi > 2.5);
        // The constant sits in an interior bin; excursions hit the edges.
        let nominal = q.bin(2.5);
        assert!(nominal > 0 && nominal < q.bins() - 1);
        assert_eq!(q.bin(0.0), 0);
        assert_eq!(q.bin(5.0), q.bins() - 1);
    }

    #[test]
    fn continuous_index_extends_past_the_range() {
        let q = Quantizer::uniform(0.0, 8.0, 8); // bin width 1
        assert!((q.continuous_index(3.5) - 3.5).abs() < 1e-12);
        assert!((q.continuous_index(-2.0) - -2.0).abs() < 1e-12);
        assert!((q.continuous_index(12.0) - 12.0).abs() < 1e-12);
        // The clamped bin saturates where the continuous index keeps going.
        assert_eq!(q.bin(12.0), 7);
        assert_eq!(q.bin(-2.0), 0);
    }

    #[test]
    fn representative_round_trips() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        for binning in [Binning::Uniform, Binning::Quantile] {
            let q = Quantizer::fit(&values, 8, binning);
            for b in 0..q.bins() {
                assert_eq!(q.bin(q.representative(b)), b, "{binning:?} bin {b}");
            }
        }
    }
}
