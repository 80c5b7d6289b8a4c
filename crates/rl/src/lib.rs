//! `tlp-rl`: an Athena-class online reinforcement-learning coordination
//! subsystem for off-chip prediction and adaptive prefetch filtering.
//!
//! The TLP paper (HPCA 2024) couples two supervised perceptrons — FLP for
//! off-chip prediction, SLP for prefetch filtering — through hand-tuned
//! thresholds (τ_high, τ_low, τ_pref). *Athena* (Bera et al., PAPERS.md)
//! replaces exactly those hand-tuned decision points with one online RL
//! agent that observes both seams and learns its policy from delayed
//! rewards. This crate implements that baseline against the same
//! `tlp-sim` hook traits TLP itself plugs into:
//!
//! * [`AthenaAgent`] — a tabular Q-learning core: state = hashed Table-I
//!   program features (reusing `tlp_core::features`) salted with quantised
//!   system-pressure signals; actions = {no-issue, issue-on-L1D-miss,
//!   issue-now} for demand loads and {keep, drop} for L1D prefetch
//!   candidates; rewards assigned when the outcome (serving level)
//!   resolves, mirroring how TLP trains on the fill level.
//! * [`RlOffChip`] / [`RlPrefetchFilter`] — the two hook faces sharing one
//!   agent (`Arc<Mutex<_>>` via [`shared_agent`]).
//! * [`storage::storage_report`] — Table-II-style storage accounting,
//!   bounded at ≤ 14 KB (2× TLP's budget) by [`storage::BUDGET_KB`].
//!
//! # Example
//!
//! ```
//! use tlp_rl::{shared_agent, RlConfig, RlOffChip, RlPrefetchFilter};
//!
//! let agent = shared_agent(RlConfig::default_config());
//! let offchip = RlOffChip::new(agent.clone());
//! let filter = RlPrefetchFilter::new(agent.clone());
//! // Plug both into one CoreSetup; they learn jointly.
//! let _ = (offchip, filter);
//! let report = tlp_rl::storage::storage_report(agent.lock().config());
//! assert!(report.within_budget());
//! ```

#![forbid(unsafe_code)]

pub mod agent;
pub mod hooks;
pub mod qtable;
pub mod storage;

pub use agent::{AgentStats, AthenaAgent, PressureSignals, RlConfig};
pub use hooks::{shared_agent, RlOffChip, RlPrefetchFilter, SharedAgent};
pub use qtable::{QTable, Q_VALUE_BITS, REWARD_ONE};

/// The [`tlp_plugin::BuildCtx`] slot both Athena faces share their agent
/// under. Pre-seeding this slot (see [`tlp_plugin::BuildCtx::seed`]) with
/// an externally owned [`SharedAgent`] makes the factories wrap *that*
/// agent instead of creating a fresh one — the persistent-agent
/// learning-curve study (ext7) carries its agent across epochs this way.
pub const AGENT_SLOT: &str = "athena-rl:agent";

/// Registers this crate's components with a plugin registry (origin
/// `tlp-rl`):
///
/// * off-chip predictor **`athena-rl`** and L1D prefetch filter
///   **`athena-rl-filter`** — the two faces of one Athena-class
///   Q-learning agent. Within one `CoreSetup` build the two factories
///   share the agent through the [`AGENT_SLOT`] build-context slot, so
///   composing both into a scheme yields *one* agent observing both
///   seams (the point of the Athena design). Neither takes parameters.
///
/// # Errors
///
/// Propagates registration collisions from the registry.
pub fn register_builtin(
    reg: &mut tlp_plugin::ComponentRegistry,
) -> Result<(), tlp_plugin::PluginError> {
    use std::sync::Arc;

    const ORIGIN: &str = "tlp-rl";

    reg.register_offchip(
        "athena-rl",
        ORIGIN,
        Arc::new(|params, ctx| {
            params.allow_keys("athena-rl", &[])?;
            let agent: SharedAgent =
                ctx.shared(AGENT_SLOT, || shared_agent(RlConfig::default_config()));
            Ok(Box::new(RlOffChip::new(agent)))
        }),
    )?;
    reg.register_l1_filter(
        "athena-rl-filter",
        ORIGIN,
        Arc::new(|params, ctx| {
            params.allow_keys("athena-rl-filter", &[])?;
            let agent: SharedAgent =
                ctx.shared(AGENT_SLOT, || shared_agent(RlConfig::default_config()));
            Ok(Box::new(RlPrefetchFilter::new(agent)))
        }),
    )?;
    Ok(())
}
