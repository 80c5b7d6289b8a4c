//! `tlp-tracestore`: a content-addressed streaming trace store.
//!
//! The paper evaluates on ChampSim trace files — 1B-instruction SimPoints
//! shipped as Zenodo volumes. This crate is the workspace's equivalent
//! trace tier, with four pieces:
//!
//! * [`v2`] — **TLPT v2**, a compressed streaming trace format:
//!   delta-encoded PCs/addresses as zigzag LEB128 varints in independently
//!   decodable 64K-record blocks, with a block index, checksums and
//!   SimPoints in a seek-from-end footer. [`v2::StreamTrace`] implements
//!   `TraceSource` directly, so replay never materializes the trace. The
//!   retired flat v1 format is refused on open (`unsupported trace
//!   version 1`); only its size survives, as the [`v1_bytes`] baseline.
//! * [`store`] — the **content-addressed on-disk stores**:
//!   [`store::ContentStore`] owns the one disk discipline (salted
//!   double-FNV key, temp name + atomic rename, classified load with
//!   corrupt-delete, LRU size cap) that both the result cache
//!   (`tlp_harness::cache::DiskCache`) and [`store::TraceStore`] use. The
//!   trace store keeps one file per [`store::TraceKey`] (workload +
//!   capture environment + budget, salted with [`store::TRACE_VERSION`]).
//!   `Harness::trace_for` resolves memory → disk → capture through it, so
//!   a warm trace dir makes cold-process runs capture nothing.
//! * [`champsim`] — the **ChampSim importer**: the 64-byte `input_instr`
//!   layout → `TraceRecord` streams, with one-instruction lookahead for
//!   branch targets. Imported traces become first-class workloads via the
//!   [`workload::TraceWorkload`] `trace:` namespace.
//! * [`reconstitute`] — **SimPoint-weighted report reconstitution**:
//!   region reports blend into a full-run estimate generically over the
//!   `tlp_sim::serial` value tree.

#![forbid(unsafe_code)]

pub mod champsim;
pub mod reconstitute;
pub mod store;
pub mod v2;
pub mod workload;

pub use champsim::{read_champsim, write_champsim, ChampSimInstr};
pub use reconstitute::weighted_merge;
pub use store::{capture_desc, import_desc, TraceKey, TraceLoad, TraceStore, TRACE_VERSION};
pub use v2::{
    encode_trace_v2, trace_info, v1_bytes, write_trace_v2, ReadTraceError, StreamTrace, TraceInfo,
};
pub use workload::{TraceWorkload, TRACE_NAMESPACE};

/// SimPoints computed at capture time use these fixed parameters (with
/// `BbvConfig::standard()`), so a stored trace's footer is a pure function
/// of its records.
pub const CAPTURE_SIMPOINT_K: usize = 8;

/// Seed for capture-time k-means++ clustering (deterministic).
pub const CAPTURE_SIMPOINT_SEED: u64 = 0x7502;
