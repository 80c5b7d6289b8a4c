//! The benchmark's in-process harness: seeded single-cell workloads, the
//! hook-seam decorators of the traced run, and the host-speed yardstick.
//! `src/main.rs` drives them; `run.py` drives that binary and the
//! `tlp_repro` CLI.

pub mod seams;
pub mod workloads;
pub mod yardstick;
