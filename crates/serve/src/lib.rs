//! `tlp-serve`: the concurrent simulation service.
//!
//! A daemon wraps one [`tlp_harness::Harness`] — the composition
//! registry, the two-tier content-addressed result cache, and the worker
//! pool — behind a length-prefixed socket protocol so that *many*
//! clients (CI shards, parameter-sweep scripts, teammates on one box)
//! share a single simulation backend:
//!
//! - **Cross-client single-flight.** All connections run against the
//!   same cache, which gives each cell (and each timeline capture) one
//!   slot: the first requester anywhere in the service simulates, every
//!   concurrent requester blocks on that slot and receives the published
//!   report. Two clients submitting an identical cold grid cost exactly
//!   one grid of simulation.
//! - **Streaming responses.** Results are framed back per cell as each
//!   cell completes (completion order, tagged with the request index),
//!   so a client starts receiving rows while the rest of its grid is
//!   still running.
//! - **A shared disk tier.** With `--cache-dir`, reports persist across
//!   daemon restarts; the store (`tlp_tracestore::store::ContentStore`,
//!   shared with the trace store) is safe for concurrent writers in
//!   multiple processes (unique temp names + atomic rename) and can be
//!   size-capped with LRU eviction (`--cache-cap-mb`).
//!
//! The daemon is started with `tlp_repro --serve HOST:PORT`, which serves
//! that invocation's scale, engine, cache and trace flags.
//!
//! The wire format ([`protocol`]) reuses the cache's own JSON codec
//! ([`tlp_sim::serial`]) for payloads, so a streamed report is
//! byte-identical to its on-disk cache entry. A request's workload names
//! resolve through [`tlp_harness::Harness::cells`], the rule a local run
//! uses, and the client renders tables through the same
//! [`scheme_result`] path as the in-process CLI — byte-identical output
//! either way.
//!
//! # Example
//!
//! ```no_run
//! use tlp_harness::{Harness, RunConfig};
//! use tlp_serve::{Client, Server, SweepRequest};
//!
//! let server = Server::bind("127.0.0.1:0", Harness::new(RunConfig::test())).unwrap();
//! let addr = server.local_addr().unwrap();
//! let handle = server.spawn().unwrap();
//!
//! let mut client = Client::connect(addr).unwrap();
//! let reply = client
//!     .sweep(&SweepRequest {
//!         scheme: "Baseline".to_owned(),
//!         l1pf: "ipcp".to_owned(),
//!         workloads: vec![], // empty = the server's active set
//!     })
//!     .unwrap();
//! for cell in &reply.cells {
//!     println!("{}: IPC {:.3}", cell.workload, cell.report.ipc());
//! }
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{scheme_result, Client, ServeError, SweepReply};
pub use protocol::{
    CellFrame, ErrorFrame, Frame, FrameKind, StatsFrame, SummaryFrame, SweepRequest, TimelineQuery,
    TimelineReply, WorkloadTimeline, PROTO_VERSION,
};
pub use server::{Server, ServerHandle};
