//! SLP: the Second Level Perceptron predictor (paper §IV-B) — off-chip
//! prediction for L1D prefetch requests, used as an adaptive prefetch
//! filter.
//!
//! SLP sits beside the L1D and is consulted when the L1D prefetcher issues
//! a candidate. It reuses the Table-I features with **physical** addresses
//! (SLP operates post-translation) and adds the *leveling feature*: the
//! FLP output bit of the demand access that triggered the prefetch,
//! combined with the prefetch target's cache-line offset. A prefetch whose
//! confidence exceeds τ_pref is predicted to be served from DRAM — which
//! Figure 5 shows is overwhelmingly correlated with being useless — and is
//! discarded.
//!
//! Training happens at prefetch completion with the true serving level,
//! exactly like FLP.

use tlp_perceptron::{FeatureIndices, HashedPerceptron, TableSpec};
use tlp_sim::hooks::{FilterTag, L1FilterCtx, L1PrefetchFilter};
use tlp_sim::types::Level;

use crate::features::{select_enabled, FeatureState, NUM_BASE_FEATURES};
use crate::offchip_base::OffChipPerceptronConfig;

/// SLP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlpConfig {
    /// Base perceptron geometry (shared shape with FLP).
    pub perceptron: OffChipPerceptronConfig,
    /// Entries in the leveling-feature table.
    pub leveling_table: usize,
    /// Whether the leveling feature is active (off in the TSP ablations).
    pub use_leveling: bool,
    /// Discard threshold τ_pref.
    pub tau_pref: i32,
}

impl SlpConfig {
    /// The paper's SLP.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            perceptron: OffChipPerceptronConfig::paper(),
            leveling_table: 512,
            use_leveling: true,
            tau_pref: 6,
        }
    }

    /// SLP without the leveling feature (the TSP ablations).
    #[must_use]
    pub fn without_leveling() -> Self {
        Self {
            use_leveling: false,
            ..Self::paper()
        }
    }
}

/// The Second Level Perceptron prefetch filter.
#[derive(Debug)]
pub struct Slp {
    perceptron: HashedPerceptron,
    features: FeatureState,
    cfg: SlpConfig,
}

impl Slp {
    /// Builds SLP from its configuration. Disabled base features get no
    /// weight table.
    #[must_use]
    pub fn new(cfg: SlpConfig) -> Self {
        let mut specs: Vec<TableSpec> = cfg
            .perceptron
            .enabled_sizes()
            .iter()
            .map(|&s| TableSpec::new(s, cfg.perceptron.weight_bits))
            .collect();
        if cfg.use_leveling {
            specs.push(TableSpec::new(
                cfg.leveling_table,
                cfg.perceptron.weight_bits,
            ));
        }
        assert!(!specs.is_empty(), "at least one feature must be enabled");
        Self {
            perceptron: HashedPerceptron::new(&specs),
            features: FeatureState::new(),
            cfg,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SlpConfig {
        &self.cfg
    }

    /// Weight storage in bits.
    #[must_use]
    pub fn weight_storage_bits(&self) -> usize {
        self.perceptron.storage_bits()
    }

    fn indices_for(&mut self, ctx: &L1FilterCtx) -> FeatureIndices {
        let first = self.features.first_access(ctx.pf_paddr);
        let base = self
            .features
            .base_hashes(ctx.trigger_pc, ctx.pf_paddr, first);
        // The enabled base features, then the leveling feature.
        let mut hashes = [0; NUM_BASE_FEATURES + 1];
        let mut n = select_enabled(&base, &self.cfg.perceptron.enabled, &mut hashes);
        if self.cfg.use_leveling {
            hashes[n] =
                FeatureState::leveling_hash(ctx.trigger_tag.predicted_offchip(), ctx.pf_paddr);
            n += 1;
        }
        self.perceptron.indices(&hashes[..n])
    }
}

impl L1PrefetchFilter for Slp {
    fn filter(&mut self, ctx: &L1FilterCtx) -> (bool, FilterTag) {
        let indices = self.indices_for(ctx);
        let sum = self.perceptron.sum(&indices);
        self.features.observe_pc(ctx.trigger_pc);
        let drop = sum > self.cfg.tau_pref;
        (
            !drop,
            FilterTag {
                confidence: sum,
                indices,
                valid: true,
            },
        )
    }

    fn train(&mut self, _ctx: &L1FilterCtx, tag: &FilterTag, served_from: Level) {
        if !tag.valid {
            return;
        }
        self.perceptron.train_thresholded(
            &tag.indices,
            served_from.is_off_chip(),
            tag.confidence,
            self.cfg.perceptron.theta,
        );
    }

    fn name(&self) -> &'static str {
        if self.cfg.use_leveling {
            "slp"
        } else {
            "slp-noleveling"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_sim::hooks::{OffChipDecision, OffChipTag};

    fn ctx(trigger_pc: u64, pf_paddr: u64, trigger_offchip: bool) -> L1FilterCtx {
        L1FilterCtx {
            core: 0,
            trigger_pc,
            trigger_vaddr: 0x1000,
            pf_vaddr: pf_paddr,
            pf_paddr,
            trigger_tag: OffChipTag::from_decision(if trigger_offchip {
                OffChipDecision::IssueOnL1dMiss
            } else {
                OffChipDecision::NoIssue
            }),
            cycle: 0,
        }
    }

    /// Trains until the filter saturates toward `offchip` for a PC.
    fn train(slp: &mut Slp, pc: u64, offchip: bool, n: usize) {
        for i in 0..n {
            let c = ctx(pc, 0x100_0000 + i as u64 * 4096, offchip);
            let (_, tag) = slp.filter(&c);
            slp.train(&c, &tag, if offchip { Level::Dram } else { Level::L2 });
        }
    }

    #[test]
    fn cold_filter_issues_everything() {
        let mut slp = Slp::new(SlpConfig::paper());
        let (issue, tag) = slp.filter(&ctx(0x400, 0x9000, false));
        assert!(issue);
        assert!(tag.valid);
        assert_eq!(tag.confidence, 0);
    }

    #[test]
    fn learns_to_drop_offchip_prefetches() {
        let mut slp = Slp::new(SlpConfig::paper());
        train(&mut slp, 0x400, true, 300);
        let (issue, tag) = slp.filter(&ctx(0x400, 0x900_0000, true));
        assert!(
            !issue,
            "saturated off-chip prefetch must be dropped ({})",
            tag.confidence
        );
    }

    #[test]
    fn keeps_onchip_prefetches() {
        let mut slp = Slp::new(SlpConfig::paper());
        train(&mut slp, 0x500, false, 300);
        let (issue, _) = slp.filter(&ctx(0x500, 0x9000, false));
        assert!(issue);
    }

    #[test]
    fn leveling_feature_separates_trigger_kinds() {
        // Train: prefetches triggered by off-chip demands go off-chip;
        // prefetches from on-chip demands stay on-chip. Same PC, same
        // offsets — only the leveling feature can tell them apart.
        let mut slp = Slp::new(SlpConfig::paper());
        for i in 0..400u64 {
            let off = ctx(0x600, 0x100_0000 + (i % 64) * 4096 + 0x40, true);
            let (_, t1) = slp.filter(&off);
            slp.train(&off, &t1, Level::Dram);
            let on = ctx(0x600, 0x100_0000 + (i % 64) * 4096 + 0x40, false);
            let (_, t2) = slp.filter(&on);
            slp.train(&on, &t2, Level::L2);
        }
        let (_, t_off) = slp.filter(&ctx(0x600, 0x500_0000 + 0x40, true));
        let (_, t_on) = slp.filter(&ctx(0x600, 0x500_0000 + 0x40, false));
        assert!(
            t_off.confidence > t_on.confidence,
            "leveling feature must separate: off {} vs on {}",
            t_off.confidence,
            t_on.confidence
        );
    }

    #[test]
    fn without_leveling_cannot_separate_trigger_kinds() {
        let mut slp = Slp::new(SlpConfig::without_leveling());
        // Warm the page buffer so the first-access bit is stable across the
        // two compared lookups.
        let _ = slp.indices_for(&ctx(0x600, 0x700_0000, true));
        let a = slp.indices_for(&ctx(0x600, 0x700_0000, true));
        let b = slp.indices_for(&ctx(0x600, 0x700_0000, false));
        assert_eq!(a, b, "without leveling the tag bit must not matter");
    }

    #[test]
    fn storage_grows_with_leveling() {
        let with = Slp::new(SlpConfig::paper());
        let without = Slp::new(SlpConfig::without_leveling());
        assert_eq!(
            with.weight_storage_bits() - without.weight_storage_bits(),
            512 * 5
        );
    }
}
