//! The multi-table hashed perceptron.

use crate::table::{TableSpec, WeightTable};

/// Maximum number of feature tables a single predictor may use.
///
/// Eight covers every predictor in the paper: FLP/Hermes use 5 features,
/// SLP uses 6, PPF uses up to 8.
pub const MAX_FEATURES: usize = 8;

/// Per-prediction table indices, stored in load-queue/MSHR metadata so that
/// training at completion touches exactly the weights read at prediction.
///
/// This mirrors the paper's Table II metadata (hashed PC, last-4 PCs, first
/// access, confidence) — we store the resolved table indices, which is the
/// same information after indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureIndices {
    idx: [u32; MAX_FEATURES],
    len: u8,
}

impl FeatureIndices {
    /// An empty index set (no features).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            idx: [0; MAX_FEATURES],
            len: 0,
        }
    }

    /// Number of valid indices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no indices are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the valid indices.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.idx[..self.len as usize].iter().map(|&i| i as usize)
    }

    fn push(&mut self, i: usize) {
        assert!((self.len as usize) < MAX_FEATURES, "too many features");
        self.idx[self.len as usize] = u32::try_from(i).expect("index fits u32");
        self.len += 1;
    }
}

impl Default for FeatureIndices {
    fn default() -> Self {
        Self::empty()
    }
}

/// A hashed perceptron: one weight table per feature, summed to a confidence.
///
/// The prediction sum is compared against thresholds by the caller —
/// different users of this structure have different threshold semantics
/// (single activation threshold for Hermes/PPF, the τ_high/τ_low pair for
/// FLP, τ_pref for SLP, zero for the branch predictor).
#[derive(Debug, Clone)]
pub struct HashedPerceptron {
    tables: Vec<WeightTable>,
}

impl HashedPerceptron {
    /// Creates a perceptron with one weight table per spec.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or longer than [`MAX_FEATURES`].
    #[must_use]
    pub fn new(specs: &[TableSpec]) -> Self {
        assert!(
            !specs.is_empty() && specs.len() <= MAX_FEATURES,
            "feature count must be in 1..={MAX_FEATURES}"
        );
        Self {
            tables: specs.iter().copied().map(WeightTable::new).collect(),
        }
    }

    /// Resolves raw feature hashes (one per table) into table indices.
    ///
    /// # Panics
    ///
    /// Panics if `hashes.len()` differs from the number of tables.
    #[must_use]
    pub fn indices(&self, hashes: &[u64]) -> FeatureIndices {
        assert_eq!(
            hashes.len(),
            self.tables.len(),
            "feature hash count must match table count"
        );
        let mut out = FeatureIndices::empty();
        for (t, &h) in self.tables.iter().zip(hashes) {
            out.push(t.index_of(h));
        }
        out
    }

    /// Sums the selected weights into a confidence value.
    ///
    /// # Panics
    ///
    /// Panics if `indices` was produced by a perceptron with a different
    /// number of features.
    #[must_use]
    pub fn sum(&self, indices: &FeatureIndices) -> i32 {
        assert_eq!(
            indices.len(),
            self.tables.len(),
            "index count must match table count"
        );
        self.tables
            .iter()
            .zip(indices.iter())
            .map(|(t, i)| t.weight_at(i))
            .sum()
    }

    /// Unconditionally trains every selected weight toward `positive`.
    pub fn train(&mut self, indices: &FeatureIndices, positive: bool) {
        assert_eq!(
            indices.len(),
            self.tables.len(),
            "index count must match table count"
        );
        for (t, i) in self.tables.iter_mut().zip(indices.iter()) {
            t.train_at(i, positive);
        }
    }

    /// Perceptron training rule: update only when the prediction at
    /// `sum_at_predict` disagreed with the outcome, or the magnitude of the
    /// sum was below the training threshold `theta`.
    ///
    /// Returns `true` if an update was applied.
    pub fn train_thresholded(
        &mut self,
        indices: &FeatureIndices,
        positive: bool,
        sum_at_predict: i32,
        theta: i32,
    ) -> bool {
        let predicted_positive = sum_at_predict >= 0;
        if predicted_positive != positive || sum_at_predict.abs() < theta {
            self.train(indices, positive);
            true
        } else {
            false
        }
    }

    /// Resets all weights to zero.
    pub fn reset(&mut self) {
        for t in &mut self.tables {
            t.reset();
        }
    }

    /// Total weight storage in bits across all tables.
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.tables.iter().map(WeightTable::storage_bits).sum()
    }

    /// Theoretical bounds of the confidence sum given the table widths.
    #[must_use]
    pub fn sum_bounds(&self) -> (i32, i32) {
        let mut lo = 0;
        let mut hi = 0;
        for t in &self.tables {
            let max = (1i32 << (t.spec().weight_bits() - 1)) - 1;
            hi += max;
            lo += -max - 1;
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HashedPerceptron {
        HashedPerceptron::new(&[TableSpec::new(64, 5), TableSpec::new(128, 5)])
    }

    #[test]
    fn untrained_sum_is_zero() {
        let p = small();
        let idx = p.indices(&[1, 2]);
        assert_eq!(p.sum(&idx), 0);
    }

    #[test]
    fn training_moves_sum() {
        let mut p = small();
        let idx = p.indices(&[0xaa, 0xbb]);
        p.train(&idx, true);
        assert_eq!(p.sum(&idx), 2);
        p.train(&idx, false);
        p.train(&idx, false);
        assert_eq!(p.sum(&idx), -2);
    }

    #[test]
    fn sum_saturates_at_bounds() {
        let mut p = small();
        let idx = p.indices(&[7, 9]);
        for _ in 0..1000 {
            p.train(&idx, true);
        }
        let (_, hi) = p.sum_bounds();
        assert_eq!(p.sum(&idx), hi);
        assert_eq!(hi, 30); // two 5-bit tables: 15 + 15
    }

    #[test]
    fn thresholded_training_skips_confident_correct() {
        let mut p = small();
        let idx = p.indices(&[3, 4]);
        for _ in 0..10 {
            p.train(&idx, true);
        }
        let sum = p.sum(&idx);
        // Correct and confident: no update.
        assert!(!p.train_thresholded(&idx, true, sum, 5));
        assert_eq!(p.sum(&idx), sum);
        // Mispredicted: update applied.
        assert!(p.train_thresholded(&idx, false, sum, 5));
        assert_eq!(p.sum(&idx), sum - 2);
    }

    #[test]
    fn thresholded_training_updates_weak_correct() {
        let mut p = small();
        let idx = p.indices(&[5, 6]);
        p.train(&idx, true); // sum = 2, below theta
        assert!(p.train_thresholded(&idx, true, 2, 10));
        assert_eq!(p.sum(&idx), 4);
    }

    #[test]
    fn distinct_features_use_distinct_tables() {
        let mut p = small();
        let a = p.indices(&[100, 200]);
        let b = p.indices(&[300, 400]);
        p.train(&a, true);
        // b may alias in one table but extremely unlikely in both;
        // with the chosen constants these do not alias.
        assert!(p.sum(&b) <= 1, "unexpected aliasing of both features");
    }

    #[test]
    fn storage_accounting() {
        let p = small();
        assert_eq!(p.storage_bits(), 64 * 5 + 128 * 5);
    }

    #[test]
    #[should_panic(expected = "feature hash count")]
    fn wrong_arity_panics() {
        let p = small();
        let _ = p.indices(&[1]);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut p = small();
        let idx = p.indices(&[1, 2]);
        p.train(&idx, true);
        p.reset();
        assert_eq!(p.sum(&idx), 0);
    }
}
