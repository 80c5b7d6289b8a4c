//! `tlp-plugin`: the registry-driven scheme/prefetcher composition API.
//!
//! The paper's whole evaluation is a matrix of *compositions* — off-chip
//! predictors (Hermes, FLP, LP, Athena-RL) × prefetchers (IPCP, Berti,
//! SPP) × filters (SLP, PPF). This crate turns scenario definition into
//! **data** instead of harness surgery:
//!
//! * [`ComponentRegistry`] — a string-keyed factory registry for all five
//!   hook seams of [`tlp_sim::hooks`]: [`Seam::OffChip`],
//!   [`Seam::L1Prefetcher`], [`Seam::L1Filter`], [`Seam::L2Prefetcher`]
//!   and [`Seam::L2Filter`]. Built-in components are registered by their
//!   home crates (`tlp_core::register_builtin`,
//!   `tlp_prefetch::register_builtin`, ...); user components register
//!   through the `register_custom_*` methods and live in the
//!   collision-checked `custom:` namespace, so a custom component can
//!   never alias a built-in cache key.
//! * [`SchemeSpec`] — a declarative builder naming one component (plus a
//!   free-form [`Params`] map) per seam:
//!   `SchemeSpec::new("TLP").offchip("flp").l1_filter("slp")`.
//! * [`ResolvedScheme`] — a spec bound to its factories, ready to
//!   assemble a [`tlp_sim::engine::CoreSetup`] around a trace. Factories
//!   of one build share state through a [`BuildCtx`] (the Athena-RL
//!   scheme couples its off-chip and filter faces to one agent this way).
//!
//! Cache-key discipline: [`SchemeSpec::cache_key`] feeds the harness's
//! `RunKey` derivation. Built-in schemes pin their pre-registry key with
//! [`SchemeSpec::pinned_key`], so every historical on-disk cache entry
//! and golden fixture stays byte-for-byte valid; derived keys (the
//! default for user specs) start with `spec:` and custom component names
//! with `custom:`, two namespaces no built-in key ever occupies.

#![forbid(unsafe_code)]

pub mod error;
pub mod params;
pub mod registry;
pub mod spec;

pub use error::{edit_distance, suggest, PluginError};
pub use params::Params;
pub use registry::{
    BuildCtx, ComponentInfo, ComponentRegistry, L1FilterFactory, L1PrefetcherFactory,
    L2FilterFactory, L2PrefetcherFactory, OffChipFactory, SchemeInfo, Seam, CUSTOM_PREFIX,
};
pub use spec::{ComponentRef, ResolvedComponent, ResolvedScheme, SchemeSpec};
