//! `tlp-harness`: the experiment harness that regenerates every table and
//! figure of the TLP paper (HPCA 2024).
//!
//! The harness composes the workspace: workloads from `tlp-trace`, the
//! simulator from `tlp-sim`, prefetchers from `tlp-prefetch`, baselines
//! from `tlp-baselines`, and the TLP predictor from `tlp-core`. Each
//! experiment module in [`experiments`] produces an [`report::ExperimentResult`]
//! containing the same rows/series the paper plots; `tlp-repro` (the CLI)
//! renders them as text tables.
//!
//! Every simulation goes through one description and one call: a
//! [`Harness`] builds [`RunCell`]s ([`Harness::cell`], or
//! [`Harness::cells`] from registry names) and [`Harness::run`] returns
//! their reports, deduplicated, cached, and sharded over the worker
//! pool. [`Harness::timelines`] and [`Harness::simpoints`] take the same
//! cells.
//!
//! # Example
//!
//! ```no_run
//! use tlp_harness::{Harness, RunConfig};
//! use tlp_plugin::SchemeSpec;
//!
//! let h = Harness::new(RunConfig::quick());
//! let result = tlp_harness::experiments::fig10::run(&h, tlp_harness::L1Pf::Ipcp);
//! println!("{}", result.render());
//!
//! // A composition over registry components, on the active workloads.
//! let spec = SchemeSpec::new("my-tlp").offchip("flp").l1_filter("slp");
//! let cells = h.cells(&spec, "ipcp", &[]).unwrap();
//! for (cell, report) in cells.iter().zip(h.run(&cells)) {
//!     println!("{}: IPC {:.3}", cell.workloads()[0].name(), report.ipc());
//! }
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod experiments;
pub mod mix;
pub mod plugins;
pub mod profile;
pub mod report;
pub mod runner;
pub mod scheme;
pub mod timeline;
pub mod tracetier;

pub use cache::{EngineStats, RunKey};
pub use mix::weighted_ipc;
pub use plugins::builtin_registry;
pub use runner::{Harness, Machine, RunCell, RunConfig, SessionError, SimPointRun};
pub use scheme::{L1Pf, Scheme, TlpParams};
pub use timeline::TimelineRun;
pub use tlp_sim::{EngineMode, TimelineConfig};
pub use tracetier::TraceTierStats;
