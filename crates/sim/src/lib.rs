//! `tlp-sim`: a cycle-level CPU + memory-hierarchy simulator in the spirit
//! of ChampSim, built as the substrate for reproducing the TLP paper
//! (HPCA 2024).
//!
//! The simulated system follows the paper's Table III: a 4-wide
//! out-of-order core with a 224-entry ROB and a hashed-perceptron branch
//! predictor, a three-level non-inclusive cache hierarchy with MSHRs,
//! two-level TLBs, and a banked DDR4-style DRAM with a bandwidth-limited
//! data bus. Prefetchers, off-chip predictors and prefetch filters are
//! plugins (see [`hooks`]) so that the baseline, Hermes, PPF and TLP can be
//! compared on identical hardware.
//!
//! # Example
//!
//! ```
//! use tlp_sim::config::SystemConfig;
//! use tlp_sim::engine::{CoreSetup, System};
//! use tlp_trace::catalog::{self, Scale};
//! use tlp_trace::VecTrace;
//!
//! let w = catalog::workload("spec.mcf_06", Scale::Tiny).expect("known workload");
//! let trace = VecTrace::from_workload(w.as_ref(), 20_000);
//! let mut sys = System::new(
//!     SystemConfig::cascade_lake(1),
//!     vec![CoreSetup::new(Box::new(trace))],
//! );
//! let report = sys.run(5_000, 10_000);
//! assert!(report.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod core;
pub mod dram;
pub mod engine;
pub mod hooks;
pub mod replacement;
pub mod request;
pub mod serial;
pub mod stats;
pub mod types;
pub mod victim;
pub mod vm;

pub use config::SystemConfig;
pub use engine::{CoreSetup, EngineMode, System};
pub use stats::SimReport;
pub use tlp_timeline::{Timeline, TimelineConfig};
pub use types::{CoreId, Cycle, Level};
