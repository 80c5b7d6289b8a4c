//! The shared off-chip perceptron machinery: Table-I features feeding a
//! hashed perceptron. [`crate::Flp`] wraps it with selective delay;
//! `tlp-baselines`' Hermes wraps it with a single activation threshold.

use tlp_perceptron::{FeatureIndices, HashedPerceptron, TableSpec};

use crate::features::{select_enabled, FeatureState, NUM_BASE_FEATURES};

/// Geometry + training parameters of an off-chip perceptron.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffChipPerceptronConfig {
    /// Entries per feature table (Table II sizes the total at ~2.58 KB).
    pub table_sizes: [usize; NUM_BASE_FEATURES],
    /// Which base features contribute (all, except in the drop-one-feature
    /// ablation).
    pub enabled: [bool; NUM_BASE_FEATURES],
    /// Weight width in bits.
    pub weight_bits: u32,
    /// Perceptron training threshold θ.
    pub theta: i32,
}

impl OffChipPerceptronConfig {
    /// The paper's budget: 5 tables, 5-bit weights, 4096 weights total
    /// (2.5 KB — the paper reports 2.58 KB for its exact geometry).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            table_sizes: [1024, 1024, 1024, 512, 512],
            enabled: [true; NUM_BASE_FEATURES],
            weight_bits: 5,
            theta: 18,
        }
    }

    /// A geometry scaled by a power-of-two factor (the Figure-17
    /// "+7 KB storage" study enlarges Hermes with exactly this knob).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not a power of two.
    #[must_use]
    pub fn scaled(factor: usize) -> Self {
        assert!(
            factor.is_power_of_two(),
            "scale factor must be a power of two"
        );
        let mut cfg = Self::paper();
        for s in &mut cfg.table_sizes {
            *s *= factor;
        }
        cfg
    }

    /// The paper geometry with every table resized by the rational factor
    /// `num / den` (the storage-sensitivity sweep shrinks as well as
    /// grows). Sizes are clamped to at least 16 entries and rounded down
    /// to a power of two so index hashing stays well distributed.
    ///
    /// # Panics
    ///
    /// Panics if `num` or `den` is zero.
    #[must_use]
    pub fn resized(num: usize, den: usize) -> Self {
        assert!(num > 0 && den > 0, "resize factor must be positive");
        let mut cfg = Self::paper();
        for s in &mut cfg.table_sizes {
            let scaled = (*s * num / den).max(16);
            *s = if scaled.is_power_of_two() {
                scaled
            } else {
                scaled.next_power_of_two() / 2
            };
        }
        cfg
    }

    /// The paper geometry with base feature `index` disabled (the
    /// drop-one-feature ablation).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn without_feature(index: usize) -> Self {
        assert!(index < NUM_BASE_FEATURES, "feature index out of range");
        let mut cfg = Self::paper();
        cfg.enabled[index] = false;
        cfg
    }

    /// Number of enabled base features.
    #[must_use]
    pub fn enabled_count(&self) -> usize {
        self.enabled.iter().filter(|&&e| e).count()
    }

    /// Table sizes of the enabled features only, in feature order.
    #[must_use]
    pub fn enabled_sizes(&self) -> Vec<usize> {
        self.table_sizes
            .iter()
            .zip(&self.enabled)
            .filter_map(|(&s, &e)| e.then_some(s))
            .collect()
    }
}

/// An off-chip perceptron: predicts whether an access will be served from
/// DRAM, from its PC/address features.
#[derive(Debug)]
pub struct OffChipPerceptron {
    perceptron: HashedPerceptron,
    features: FeatureState,
    enabled: [bool; NUM_BASE_FEATURES],
    theta: i32,
}

impl OffChipPerceptron {
    /// Builds the predictor. Disabled features get no weight table.
    #[must_use]
    pub fn new(cfg: OffChipPerceptronConfig) -> Self {
        let specs: Vec<TableSpec> = cfg
            .enabled_sizes()
            .iter()
            .map(|&s| TableSpec::new(s, cfg.weight_bits))
            .collect();
        assert!(!specs.is_empty(), "at least one feature must be enabled");
        Self {
            perceptron: HashedPerceptron::new(&specs),
            features: FeatureState::new(),
            enabled: cfg.enabled,
            theta: cfg.theta,
        }
    }

    /// Predicts for a load at (`pc`, `addr`): returns the confidence sum
    /// and the table indices to stash in the load-queue metadata. Updates
    /// the PC history and page buffer.
    pub fn predict(&mut self, pc: u64, addr: u64) -> (i32, FeatureIndices) {
        let first = self.features.first_access(addr);
        let all = self.features.base_hashes(pc, addr, first);
        let mut hashes = [0; NUM_BASE_FEATURES];
        let n = select_enabled(&all, &self.enabled, &mut hashes);
        let idx = self.perceptron.indices(&hashes[..n]);
        let sum = self.perceptron.sum(&idx);
        self.features.observe_pc(pc);
        (sum, idx)
    }

    /// Trains with the resolved outcome (`offchip` = served from DRAM),
    /// using the perceptron rule (update on mispredict or weak sum).
    pub fn train(&mut self, indices: &FeatureIndices, sum_at_predict: i32, offchip: bool) {
        self.perceptron
            .train_thresholded(indices, offchip, sum_at_predict, self.theta);
    }

    /// Weight storage in bits.
    #[must_use]
    pub fn weight_storage_bits(&self) -> usize {
        self.perceptron.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budget_is_2_5_kb() {
        let p = OffChipPerceptron::new(OffChipPerceptronConfig::paper());
        assert_eq!(p.weight_storage_bits(), 4096 * 5);
    }

    #[test]
    fn learns_an_always_offchip_pc() {
        let mut p = OffChipPerceptron::new(OffChipPerceptronConfig::paper());
        let pc = 0x400;
        for i in 0..200u64 {
            let addr = 0x10_0000 + i * 4096; // always-first-access pattern
            let (sum, idx) = p.predict(pc, addr);
            p.train(&idx, sum, true);
        }
        let (sum, _) = p.predict(pc, 0x90_0000);
        assert!(sum > 0, "trained-positive PC must predict off-chip: {sum}");
    }

    #[test]
    fn learns_an_onchip_pc_negatively() {
        let mut p = OffChipPerceptron::new(OffChipPerceptronConfig::paper());
        let pc = 0x500;
        for _ in 0..200 {
            let (sum, idx) = p.predict(pc, 0x2000);
            p.train(&idx, sum, false);
        }
        let (sum, _) = p.predict(pc, 0x2000);
        assert!(sum < 0, "trained-negative PC must predict on-chip: {sum}");
    }

    #[test]
    fn discriminates_between_two_pcs() {
        let mut p = OffChipPerceptron::new(OffChipPerceptronConfig::paper());
        for i in 0..300u64 {
            let (s1, i1) = p.predict(0x400, 0x100_0000 + i * 4096);
            p.train(&i1, s1, true);
            let (s2, i2) = p.predict(0x404, 0x8000);
            p.train(&i2, s2, false);
        }
        let (off, _) = p.predict(0x400, 0x200_0000);
        let (on, _) = p.predict(0x404, 0x8000);
        assert!(
            off > on + 10,
            "PCs must separate: offchip {off} vs onchip {on}"
        );
    }

    #[test]
    fn scaled_config_multiplies_tables() {
        let cfg = OffChipPerceptronConfig::scaled(4);
        assert_eq!(cfg.table_sizes[0], 4096);
        let p = OffChipPerceptron::new(cfg);
        assert_eq!(p.weight_storage_bits(), 4 * 4096 * 5);
    }

    #[test]
    fn resized_shrinks_to_power_of_two() {
        let half = OffChipPerceptronConfig::resized(1, 2);
        assert_eq!(half.table_sizes, [512, 512, 512, 256, 256]);
        let quarter = OffChipPerceptronConfig::resized(1, 4);
        assert_eq!(quarter.table_sizes, [256, 256, 256, 128, 128]);
        let double = OffChipPerceptronConfig::resized(2, 1);
        assert_eq!(double.table_sizes, [2048, 2048, 2048, 1024, 1024]);
        // Identity.
        assert_eq!(
            OffChipPerceptronConfig::resized(1, 1).table_sizes,
            OffChipPerceptronConfig::paper().table_sizes
        );
        // Floor at 16 entries.
        let tiny = OffChipPerceptronConfig::resized(1, 1024);
        assert!(tiny.table_sizes.iter().all(|&s| s == 16));
    }

    #[test]
    fn without_feature_drops_one_table() {
        let cfg = OffChipPerceptronConfig::without_feature(2);
        assert_eq!(cfg.enabled_count(), NUM_BASE_FEATURES - 1);
        assert_eq!(cfg.enabled_sizes(), vec![1024, 1024, 512, 512]);
        let p = OffChipPerceptron::new(cfg);
        let full = OffChipPerceptron::new(OffChipPerceptronConfig::paper());
        assert_eq!(
            full.weight_storage_bits() - p.weight_storage_bits(),
            1024 * 5
        );
    }

    #[test]
    fn masked_predictor_still_learns() {
        // Even without the last-4-PC feature, a PC-correlated pattern is
        // learnable through the remaining features.
        let mut p = OffChipPerceptron::new(OffChipPerceptronConfig::without_feature(4));
        for i in 0..300u64 {
            let (sum, idx) = p.predict(0x400, 0x100_0000 + i * 4096);
            p.train(&idx, sum, true);
        }
        let (sum, idx) = p.predict(0x400, 0x900_0000);
        assert!(sum > 0, "masked predictor must still learn: {sum}");
        assert_eq!(idx.len(), NUM_BASE_FEATURES - 1);
    }

    #[test]
    #[should_panic(expected = "at least one feature")]
    fn all_features_disabled_is_rejected() {
        let mut cfg = OffChipPerceptronConfig::paper();
        cfg.enabled = [false; NUM_BASE_FEATURES];
        let _ = OffChipPerceptron::new(cfg);
    }

    #[test]
    #[should_panic(expected = "feature index out of range")]
    fn without_feature_checks_bounds() {
        let _ = OffChipPerceptronConfig::without_feature(NUM_BASE_FEATURES);
    }
}
