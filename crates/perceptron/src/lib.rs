//! Hashed-perceptron prediction substrate.
//!
//! This crate provides the microarchitectural perceptron building blocks
//! shared by every neural predictor in the workspace: the branch predictor,
//! the Hermes off-chip predictor, the PPF prefetch filter, and the paper's
//! FLP/SLP predictors.
//!
//! A *hashed perceptron* [Jiménez & Lin, HPCA'01; Tarjan & Skadron] keeps one
//! table of small saturating weights per input *feature*. To predict, each
//! feature value is hashed into its table, the selected weights are summed,
//! and the sum is compared against one or more thresholds. To train, each
//! selected weight is incremented when the ground-truth outcome is positive
//! and decremented otherwise, typically only when the prediction was wrong or
//! the magnitude of the sum was below a training threshold `theta`.
//!
//! # Example
//!
//! ```
//! use tlp_perceptron::{HashedPerceptron, TableSpec};
//!
//! // Two features, 64-entry tables of 5-bit weights.
//! let mut p = HashedPerceptron::new(&[TableSpec::new(64, 5), TableSpec::new(64, 5)]);
//! let idx = p.indices(&[0xdead_beef, 0x1234_5678]);
//! let sum = p.sum(&idx);
//! assert_eq!(sum, 0); // untrained
//! p.train(&idx, true);
//! assert!(p.sum(&idx) > 0);
//! ```

#![forbid(unsafe_code)]

mod hash;
mod perceptron;
mod table;

pub use hash::{combine, fold, mix64};
pub use perceptron::{FeatureIndices, HashedPerceptron, MAX_FEATURES};
pub use table::{SaturatingCounter, TableSpec, WeightTable};
