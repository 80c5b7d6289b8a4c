//! `tlp-bench`: Criterion benchmarks regenerating each table and figure of
//! the TLP paper at bench scale. See `benches/figures.rs` (one benchmark
//! per figure/table) and `benches/substrate.rs` (micro-benchmarks of the
//! simulator substrate itself).

#![forbid(unsafe_code)]
