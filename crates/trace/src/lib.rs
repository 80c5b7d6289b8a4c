//! Instruction trace model and workload generators.
//!
//! The TLP paper evaluates on ChampSim traces of SPEC CPU 2006/2017 and the
//! GAP benchmark suite. Those traces (140 GB of SimPoints) are not
//! redistributable here, so this crate rebuilds the workloads themselves:
//!
//! * [`record::TraceRecord`] — a register-accurate instruction record
//!   (loads/stores carry virtual addresses, every op carries source and
//!   destination registers so the simulator can model true data dependencies,
//!   e.g. the index-load → data-load chains that dominate graph analytics).
//! * [`gap`] — a faithful GAP substrate: CSR graphs with the Table V degree
//!   distributions and the six Table IV kernels (BFS, PageRank,
//!   Shiloach–Vishkin CC, Brandes BC, TC, Δ-stepping SSSP) instrumented to
//!   emit every memory access they perform.
//! * [`spec`] — 24 SPEC-like kernels that mimic the dominant memory behavior
//!   of the corresponding benchmarks (pointer chasing for mcf, streaming for
//!   lbm, stencils for cactus, sparse matvec for soplex, ...).
//! * [`catalog`] — the named single-core workload sets used throughout the
//!   evaluation (55 workloads: 31 GAP + 24 SPEC).
//!
//! # Example
//!
//! ```
//! use tlp_trace::catalog::{self, Scale};
//! use tlp_trace::source::capture;
//!
//! let w = catalog::workload("bfs.kron", Scale::Tiny).expect("known workload");
//! let records = capture(w.as_ref(), 10_000);
//! assert_eq!(records.len(), 10_000);
//! assert!(records.iter().any(|r| r.op.is_load()));
//! ```

pub mod catalog;
pub mod emit;
pub mod gap;
pub mod record;
pub mod simpoint;
pub mod sink;
pub mod source;
pub mod spec;
pub mod stats;

pub use record::{Op, Reg, TraceRecord};
pub use sink::TraceSink;
pub use source::{capture, TraceSource, VecTrace};
