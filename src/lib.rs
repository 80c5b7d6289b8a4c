//! `tlp`: the facade crate for the TLP (Two Level Perceptron) reproduction.
//!
//! Re-exports the workspace crates under short names. See the README for a
//! tour and `examples/` for runnable entry points.

#![forbid(unsafe_code)]

pub use tlp_baselines as baselines;
pub use tlp_core as core;
pub use tlp_harness as harness;
pub use tlp_obs as obs;
pub use tlp_perceptron as perceptron;
pub use tlp_plugin as plugin;
pub use tlp_prefetch as prefetch;
pub use tlp_rl as rl;
pub use tlp_serve as serve;
pub use tlp_sim as sim;
pub use tlp_timeline as timeline;
pub use tlp_trace as trace;
pub use tlp_tracestore as tracestore;
