//! `tlp-core`: the Two Level Perceptron (TLP) predictor — the primary
//! contribution of *"A Two Level Neural Approach Combining Off-Chip
//! Prediction with Adaptive Prefetch Filtering"* (HPCA 2024).
//!
//! TLP combines two connected hashed-perceptron predictors:
//!
//! * [`Flp`] (First Level Perceptron): an off-chip predictor consulted at
//!   load dispatch, using the virtual-address program features of Table I.
//!   Its novelty over Hermes is the **selective delay** mechanism — two
//!   thresholds (τ_high, τ_low) split predictions into
//!   *issue-now* / *issue-on-L1D-miss* / *no-issue*, eliminating the
//!   wasted DRAM transactions Hermes spends on loads that hit in the L1D.
//! * [`Slp`] (Second Level Perceptron): an off-chip predictor for **L1D
//!   prefetch requests**, used as an adaptive prefetch filter. It uses the
//!   same features adapted to physical addresses, plus a *leveling feature*
//!   combining the FLP output bit of the triggering demand with the
//!   prefetch target's cache-line offset. Prefetches predicted to be served
//!   from DRAM are discarded (they are overwhelmingly inaccurate — paper
//!   Figure 5).
//!
//! [`variants`] builds the Figure-15 ablations (FLP-only, SLP-only, TSP,
//! Delayed TSP, Selective TSP, full TLP) and [`storage`] reproduces the
//! Table II storage accounting.
//!
//! # Example
//!
//! ```
//! use tlp_core::{TlpConfig, variants::TlpVariant};
//!
//! let cfg = TlpConfig::paper();
//! let (flp, slp) = TlpVariant::Full.build(&cfg);
//! assert!(flp.is_some() && slp.is_some());
//! let report = tlp_core::storage::storage_report(&cfg);
//! // Table II: ~7 KB total.
//! assert!(report.total_kb() < 8.0);
//! ```

#![forbid(unsafe_code)]

pub mod features;
pub mod flp;
pub mod offchip_base;
pub mod params;
pub mod slp;
pub mod storage;
pub mod variants;

pub use features::{FeatureState, PageBuffer};
pub use flp::{DelayMode, Flp, FlpConfig};
pub use offchip_base::{OffChipPerceptron, OffChipPerceptronConfig};
pub use params::{TlpParams, TLP_KNOB_KEYS};
pub use slp::{Slp, SlpConfig};

/// Full TLP configuration: the FLP and SLP halves plus the metadata-bearing
/// queue sizes of Table II.
#[derive(Debug, Clone)]
pub struct TlpConfig {
    /// First-level (off-chip) predictor configuration.
    pub flp: FlpConfig,
    /// Second-level (prefetch filter) predictor configuration.
    pub slp: SlpConfig,
    /// Load-queue entries carrying FLP metadata (Table II).
    pub load_queue_entries: usize,
    /// L1D MSHR entries carrying SLP metadata (Table II).
    pub l1d_mshr_entries: usize,
}

impl TlpConfig {
    /// The paper's configuration (§IV-D): ~7 KB of total storage.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            flp: FlpConfig::paper(),
            slp: SlpConfig::paper(),
            load_queue_entries: 72,
            l1d_mshr_entries: 10,
        }
    }
}

/// Registers this crate's components with a plugin registry (origin
/// `tlp-core`):
///
/// * off-chip predictor **`flp`** — the First Level Perceptron.
///   Parameters: the [`TLP_KNOB_KEYS`] sensitivity knobs (`tau_high`,
///   `tau_low`, `tau_pref`, `resize` as `num/den`, `drop_feature`) plus
///   `delay` = `never`|`always`|`selective`.
/// * L1D prefetch filter **`slp`** — the Second Level Perceptron.
///   Parameters: the knobs plus `leveling` = `true`|`false`.
///
/// With no knob parameters both factories materialize
/// [`TlpConfig::paper`] exactly; any knob routes through
/// [`TlpParams::build_config`], the same path the harness's sensitivity
/// experiments use.
///
/// # Errors
///
/// Propagates registration collisions from the registry.
pub fn register_builtin(
    reg: &mut tlp_plugin::ComponentRegistry,
) -> Result<(), tlp_plugin::PluginError> {
    use std::sync::Arc;

    use tlp_plugin::{Params, PluginError};

    const ORIGIN: &str = "tlp-core";

    fn base_config(component: &str, params: &Params) -> Result<TlpConfig, PluginError> {
        if TlpParams::any_knobs(params) {
            Ok(TlpParams::from_params(component, params)?.build_config())
        } else {
            Ok(TlpConfig::paper())
        }
    }

    reg.register_offchip(
        "flp",
        ORIGIN,
        Arc::new(|params, _ctx| {
            params.allow_keys(
                "flp",
                &[
                    "tau_high",
                    "tau_low",
                    "tau_pref",
                    "resize",
                    "drop_feature",
                    "delay",
                ],
            )?;
            let base = base_config("flp", params)?;
            let delay = match params.get("delay") {
                None => base.flp.delay,
                Some("never") => DelayMode::Never,
                Some("always") => DelayMode::Always,
                Some("selective") => DelayMode::Selective,
                Some(other) => {
                    return Err(PluginError::InvalidParam {
                        component: "flp".to_owned(),
                        param: "delay".to_owned(),
                        message: format!(
                            "unknown mode '{other}' (expected never, always or selective)"
                        ),
                    })
                }
            };
            Ok(Box::new(Flp::new(FlpConfig { delay, ..base.flp })))
        }),
    )?;
    reg.register_l1_filter(
        "slp",
        ORIGIN,
        Arc::new(|params, _ctx| {
            params.allow_keys(
                "slp",
                &[
                    "tau_high",
                    "tau_low",
                    "tau_pref",
                    "resize",
                    "drop_feature",
                    "leveling",
                ],
            )?;
            let base = base_config("slp", params)?;
            let use_leveling = params
                .get_parsed::<bool>("slp", "leveling")?
                .unwrap_or(base.slp.use_leveling);
            Ok(Box::new(Slp::new(SlpConfig {
                use_leveling,
                ..base.slp
            })))
        }),
    )?;
    Ok(())
}
