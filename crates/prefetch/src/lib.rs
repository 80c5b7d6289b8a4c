//! Hardware prefetchers for the TLP reproduction.
//!
//! The paper evaluates two state-of-the-art L1D prefetchers — IPCP
//! (ISCA'20) and Berti (MICRO'22) — on top of an L2 running SPP (MICRO'16).
//! This crate implements all three, plus next-line and stride reference
//! prefetchers used by tests and ablation benches. All of them plug into
//! the simulator through [`tlp_sim::hooks::L1Prefetcher`] /
//! [`tlp_sim::hooks::L2Prefetcher`].

#![forbid(unsafe_code)]

pub mod berti;
pub mod ipcp;
pub mod nextline;
pub mod spp;
pub mod stride;

pub use berti::Berti;
pub use ipcp::Ipcp;
pub use nextline::NextLine;
pub use spp::{Spp, SppConfig};
pub use stride::StridePrefetcher;

/// Registers this crate's components with a plugin registry (origin
/// `tlp-prefetch`):
///
/// * L1D prefetchers **`ipcp`**, **`berti`** (parameter `scale` = table
///   scale factor, default 1), their Figure-17 pre-scaled spellings
///   **`ipcp+7KB`** / **`berti+7KB`** (no parameters), **`next-line`**
///   (parameter `degree`, default 1) and **`stride`**.
/// * L2 prefetcher **`spp`** (parameter `profile` =
///   `standard`|`aggressive`, default `standard`).
///
/// # Errors
///
/// Propagates registration collisions from the registry.
pub fn register_builtin(
    reg: &mut tlp_plugin::ComponentRegistry,
) -> Result<(), tlp_plugin::PluginError> {
    use std::sync::Arc;

    use tlp_plugin::PluginError;

    const ORIGIN: &str = "tlp-prefetch";

    reg.register_l1_prefetcher(
        "ipcp",
        ORIGIN,
        Arc::new(|params, _ctx| {
            params.allow_keys("ipcp", &["scale"])?;
            Ok(match params.get_parsed::<usize>("ipcp", "scale")? {
                None | Some(1) => Box::new(Ipcp::new()),
                Some(s) => Box::new(Ipcp::with_scale(s)),
            })
        }),
    )?;
    reg.register_l1_prefetcher(
        "berti",
        ORIGIN,
        Arc::new(|params, _ctx| {
            params.allow_keys("berti", &["scale"])?;
            Ok(match params.get_parsed::<usize>("berti", "scale")? {
                None | Some(1) => Box::new(Berti::new()),
                Some(s) => Box::new(Berti::with_scale(s)),
            })
        }),
    )?;
    reg.register_l1_prefetcher(
        "ipcp+7KB",
        ORIGIN,
        Arc::new(|params, _ctx| {
            params.allow_keys("ipcp+7KB", &[])?;
            Ok(Box::new(Ipcp::with_scale(4)))
        }),
    )?;
    reg.register_l1_prefetcher(
        "berti+7KB",
        ORIGIN,
        Arc::new(|params, _ctx| {
            params.allow_keys("berti+7KB", &[])?;
            Ok(Box::new(Berti::with_scale(4)))
        }),
    )?;
    reg.register_l1_prefetcher(
        "next-line",
        ORIGIN,
        Arc::new(|params, _ctx| {
            params.allow_keys("next-line", &["degree"])?;
            let degree = params
                .get_parsed::<u64>("next-line", "degree")?
                .unwrap_or(1);
            Ok(Box::new(NextLine::new(degree)))
        }),
    )?;
    reg.register_l1_prefetcher(
        "stride",
        ORIGIN,
        Arc::new(|params, _ctx| {
            params.allow_keys("stride", &[])?;
            Ok(Box::new(StridePrefetcher::default()))
        }),
    )?;
    reg.register_l2_prefetcher(
        "spp",
        ORIGIN,
        Arc::new(|params, _ctx| {
            params.allow_keys("spp", &["profile"])?;
            let cfg = match params.get("profile") {
                None | Some("standard") => SppConfig::standard(),
                Some("aggressive") => SppConfig::aggressive(),
                Some(other) => {
                    return Err(PluginError::InvalidParam {
                        component: "spp".to_owned(),
                        param: "profile".to_owned(),
                        message: format!(
                            "unknown profile '{other}' (expected standard or aggressive)"
                        ),
                    })
                }
            };
            Ok(Box::new(Spp::new(cfg)))
        }),
    )?;
    Ok(())
}
