//! `tlp-baselines`: the state-of-the-art mechanisms the paper compares
//! against.
//!
//! * [`Hermes`] — the perceptron-based off-chip predictor of Bera et al.
//!   (MICRO 2022). A positive prediction issues a speculative DRAM request
//!   in parallel with the cache hierarchy walk; there is no delay
//!   mechanism, which is exactly the bandwidth weakness the paper's
//!   Figures 2–4 quantify.
//! * [`Ppf`] — the Perceptron-based Prefetch Filter of Bhatia et al.
//!   (ISCA 2019), built on top of an aggressively configured SPP at the
//!   L2. PPF trains on prefetch *usefulness* and keeps prefetch/reject
//!   tables so it can also learn from wrongly rejected prefetches.
//! * [`Lp`] — the residency-tracking Level Prediction scheme of Jalili &
//!   Erez (HPCA 2022), discussed in the paper's related work (§VII): a
//!   DRAM-resident flat array plus a small metadata cache. Included so the
//!   extension experiments can compare all three off-chip prediction
//!   strategies head-to-head.

#![forbid(unsafe_code)]

pub mod hermes;
pub mod lp;
pub mod ppf;

pub use hermes::{Hermes, HermesConfig};
pub use lp::{Lp, LpConfig, LpStats};
pub use ppf::{Ppf, PpfConfig};

/// Registers this crate's components with a plugin registry (origin
/// `tlp-baselines`):
///
/// * off-chip predictors **`hermes`** (parameter `storage` =
///   `paper`|`extra`, default `paper`; `extra` is Figure 17's "+7 KB"
///   enlargement) and **`lp`** (Jalili & Erez's Level Prediction, no
///   parameters).
/// * L2 prefetch filter **`ppf`** (no parameters).
///
/// # Errors
///
/// Propagates registration collisions from the registry.
pub fn register_builtin(
    reg: &mut tlp_plugin::ComponentRegistry,
) -> Result<(), tlp_plugin::PluginError> {
    use std::sync::Arc;

    use tlp_plugin::PluginError;

    const ORIGIN: &str = "tlp-baselines";

    reg.register_offchip(
        "hermes",
        ORIGIN,
        Arc::new(|params, _ctx| {
            params.allow_keys("hermes", &["storage"])?;
            let cfg = match params.get("storage") {
                None | Some("paper") => HermesConfig::paper(),
                Some("extra") => HermesConfig::with_extra_storage(),
                Some(other) => {
                    return Err(PluginError::InvalidParam {
                        component: "hermes".to_owned(),
                        param: "storage".to_owned(),
                        message: format!("unknown budget '{other}' (expected paper or extra)"),
                    })
                }
            };
            Ok(Box::new(Hermes::new(cfg)))
        }),
    )?;
    reg.register_offchip(
        "lp",
        ORIGIN,
        Arc::new(|params, _ctx| {
            params.allow_keys("lp", &[])?;
            Ok(Box::new(Lp::new(LpConfig::hpca22())))
        }),
    )?;
    reg.register_l2_filter(
        "ppf",
        ORIGIN,
        Arc::new(|params, _ctx| {
            params.allow_keys("ppf", &[])?;
            Ok(Box::new(Ppf::new(PpfConfig::paper())))
        }),
    )?;
    Ok(())
}
