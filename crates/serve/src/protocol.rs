//! The wire protocol: length-prefixed frames with [`tlp_sim::serial`]
//! JSON payloads.
//!
//! Every frame is `[kind: u8][len: u32 BE][payload: len bytes]`. A client
//! sends one [`SweepRequest`] frame per request; the server answers with
//! a stream of [`CellFrame`]s — one per unique cell, emitted *as each
//! cell completes*, not in grid order — terminated by exactly one
//! [`SummaryFrame`] (success) or [`ErrorFrame`] (rejected request). A
//! connection carries any number of requests sequentially.
//!
//! Each payload type declares its fields once with [`tlp_sim::codec!`]
//! and gets [`Frame::encode`]/[`Frame::decode`] from the [`Frame`]
//! trait, which also checks the protocol version in one place: a type
//! whose [`Frame::VERSIONED`] is set (REQUEST, STATS and TIMELINE
//! payloads) writes `proto` as its first field, and its decoder rejects
//! any version but [`PROTO_VERSION`]. Payloads embed reports and
//! timelines through their own [`Codec`]s, so a streamed report is
//! byte-identical to its on-disk cache entry and round-trips losslessly.

use std::io::{Read, Write};

use tlp_harness::EngineStats;
use tlp_sim::codec;
use tlp_sim::serial::{self, decode_field, Codec, SerialError, Value};
use tlp_sim::{SimReport, Timeline};

/// Protocol version spoken by this build; requests carrying a different
/// `proto` field are rejected. Version 2 dropped the SUMMARY frame's
/// `inline` counter.
pub const PROTO_VERSION: u64 = 2;

/// Upper bound on a frame payload (a defense against garbage lengths
/// from a non-protocol peer, not a real limit — a 4-core report is a few
/// kilobytes).
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Frame discriminants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: a sweep request.
    Request = 1,
    /// Server → client: one completed cell.
    Cell = 2,
    /// Server → client: end of a successful response.
    Summary = 3,
    /// Server → client: the request was rejected; ends the response.
    Error = 4,
    /// Bidirectional: a client sends an (empty-text) `STATS` frame to
    /// ask for the daemon's live metrics; the server answers with one
    /// `STATS` frame carrying a Prometheus-style text snapshot.
    Stats = 5,
    /// Bidirectional: a client sends a [`TimelineQuery`] asking for
    /// simulated-time telemetry of a scheme/prefetcher/workload set; the
    /// server answers with one [`TimelineReply`] carrying the captured
    /// [`Timeline`] blobs (the same bytes its blob cache stores).
    Timeline = 6,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(Self::Request),
            2 => Some(Self::Cell),
            3 => Some(Self::Summary),
            4 => Some(Self::Error),
            5 => Some(Self::Stats),
            6 => Some(Self::Timeline),
            _ => None,
        }
    }
}

/// A frame payload: its [`Codec`] object, rendered as JSON.
pub trait Frame: Codec {
    /// Whether the payload carries the protocol version as its first
    /// field, `proto`, and is rejected when that is not
    /// [`PROTO_VERSION`].
    const VERSIONED: bool;

    /// Encodes the payload.
    #[must_use]
    fn encode(&self) -> Vec<u8> {
        let mut v = self.to_value();
        if Self::VERSIONED {
            if let Value::Obj(fields) = &mut v {
                fields.insert(0, ("proto".to_owned(), Value::Num(PROTO_VERSION)));
            }
        }
        v.render().into_bytes()
    }

    /// Decodes a payload.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] on a payload that is not UTF-8, malformed
    /// JSON, missing fields, or a protocol-version mismatch.
    fn decode(payload: &[u8]) -> Result<Self, SerialError> {
        let text = std::str::from_utf8(payload).map_err(|_| SerialError {
            offset: 0,
            message: "payload is not UTF-8".to_owned(),
        })?;
        let v = serial::parse_value(text)?;
        if Self::VERSIONED {
            let proto = v.u64_field("proto")?;
            if proto != PROTO_VERSION {
                return Err(SerialError {
                    offset: 0,
                    message: format!(
                        "protocol version {proto} (this build speaks {PROTO_VERSION})"
                    ),
                });
            }
        }
        Self::from_value(&v)
    }
}

/// A request: sweep one registered scheme across workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// Registered scheme name (`tlp_repro --list-schemes`).
    pub scheme: String,
    /// Registered L1D prefetcher name.
    pub l1pf: String,
    /// Workload names; empty means the server's active workload set.
    pub workloads: Vec<String>,
}

codec! { SweepRequest { scheme, l1pf, workloads } }

impl Frame for SweepRequest {
    const VERSIONED: bool = true;
}

/// One completed cell, streamed the moment its report is available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFrame {
    /// Position in the request's deduplicated workload order.
    pub index: u64,
    /// The workload this cell simulated.
    pub workload: String,
    /// The cell's canonical label (its cache description).
    pub label: String,
    /// The cell's report, in its on-disk cache encoding.
    pub report: SimReport,
}

codec! { CellFrame { index, workload, label, report } }

impl Frame for CellFrame {
    const VERSIONED: bool = false;
}

/// End of a successful response: how many cells were streamed, plus the
/// server's global run-engine counters (shared across every client, so
/// `simulated` is the number of unique cells the whole service has ever
/// simulated — two clients submitting one identical cold grid leave it at
/// exactly that grid's unique-cell count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryFrame {
    /// The server's engine mode (`cycle`/`event`).
    pub engine: String,
    /// Cells streamed for this request (after dedup).
    pub cells: u64,
    /// Server-wide engine counters at response completion.
    pub stats: EngineStats,
}

// The counters sit flat beside `engine` and `cells`, not nested under
// `stats`, as protocol version 2 peers expect.
impl Codec for SummaryFrame {
    fn to_value(&self) -> Value {
        let mut v = self.stats.to_value();
        if let Value::Obj(fields) = &mut v {
            let head = [
                ("engine".to_owned(), self.engine.to_value()),
                ("cells".to_owned(), self.cells.to_value()),
            ];
            fields.splice(0..0, head);
        }
        v
    }

    fn from_value(v: &Value) -> Result<Self, SerialError> {
        Ok(Self {
            engine: decode_field(v, "engine")?,
            cells: decode_field(v, "cells")?,
            stats: EngineStats::from_value(v)?,
        })
    }
}

impl Frame for SummaryFrame {
    const VERSIONED: bool = false;
}

/// A metrics exchange: the client's query carries empty `text`, the
/// server's reply carries the rendered Prometheus-style snapshot
/// (request counters, latency quantiles, run-cache counters, and the
/// `sim_*` engine counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsFrame {
    /// Prometheus-style text exposition (empty in a client's query).
    pub text: String,
}

codec! { StatsFrame { text } }

impl Frame for StatsFrame {
    const VERSIONED: bool = true;
}

/// A client's telemetry query: capture timelines for one scheme /
/// prefetcher pair across a workload set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineQuery {
    /// Registered scheme name.
    pub scheme: String,
    /// Registered L1D prefetcher name.
    pub l1pf: String,
    /// Workload names; empty means the server's active workload set.
    pub workloads: Vec<String>,
    /// Window length in simulated cycles; 0 means the server default.
    pub window_cycles: u64,
    /// Journey sampling modulus (every K-th demand load); 0 means the
    /// server default.
    pub journey_every: u64,
}

codec! { TimelineQuery { scheme, l1pf, workloads, window_cycles, journey_every } }

impl Frame for TimelineQuery {
    const VERSIONED: bool = true;
}

/// The server's telemetry answer: one captured [`Timeline`] per
/// workload, embedding the blob cache's serial encoding verbatim — a
/// streamed timeline renders to the same bytes a local capture does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineReply {
    /// The scheme the capture ran under.
    pub scheme: String,
    /// The L1D prefetcher the capture ran under.
    pub l1pf: String,
    /// One capture per workload, in request order.
    pub runs: Vec<WorkloadTimeline>,
}

codec! { TimelineReply { scheme, l1pf, runs } }

impl Frame for TimelineReply {
    const VERSIONED: bool = true;
}

/// One workload's capture inside a [`TimelineReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadTimeline {
    /// The workload the capture ran.
    pub workload: String,
    /// Its telemetry.
    pub timeline: Timeline,
}

codec! { WorkloadTimeline { workload, timeline } }

/// A rejected request (unknown scheme, unknown workload, bad frame, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Human-readable reason, suitable for the client's stderr.
    pub message: String,
}

codec! { ErrorFrame { message } }

impl Frame for ErrorFrame {
    const VERSIONED: bool = false;
}

/// Writes one frame (kind, 32-bit big-endian length, payload) and
/// flushes.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload too large")
    })?;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload too large",
        ));
    }
    w.write_all(&[kind as u8])?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames).
///
/// # Errors
///
/// Returns an error for I/O failures, an unknown frame kind, an
/// oversized length prefix, or a connection closed mid-frame.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<(FrameKind, Vec<u8>)>> {
    let mut kind_byte = [0u8; 1];
    match r.read_exact(&mut kind_byte) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let kind = FrameKind::from_u8(kind_byte[0]).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unknown frame kind {}", kind_byte[0]),
        )
    })?;
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    // Grow the buffer as bytes arrive instead of trusting the header: a
    // peer that claims 64 MiB and sends 16 bytes costs 16 bytes.
    let mut payload = Vec::new();
    r.by_ref().take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("frame truncated after {} of {len} bytes", payload.len()),
        ));
    }
    Ok(Some((kind, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = SweepRequest {
            scheme: "Baseline".to_owned(),
            l1pf: "ipcp".to_owned(),
            workloads: vec!["spec.mcf_06".to_owned(), "bfs.kron".to_owned()],
        };
        assert_eq!(SweepRequest::decode(&req.encode()).expect("decodes"), req);
        let empty = SweepRequest {
            workloads: vec![],
            ..req
        };
        assert_eq!(
            SweepRequest::decode(&empty.encode()).expect("decodes"),
            empty
        );
    }

    #[test]
    fn cell_roundtrip_embeds_the_cache_codec() {
        let mut report = SimReport {
            total_cycles: 12345,
            ..SimReport::default()
        };
        report.dram.reads = 9;
        let cell = CellFrame {
            index: 3,
            workload: "spec.mcf_06".to_owned(),
            label: "1c|Tiny|w5000|i25000|spec.mcf_06|Baseline|ipcp|bw:default".to_owned(),
            report,
        };
        let back = CellFrame::decode(&cell.encode()).expect("decodes");
        assert_eq!(back, cell);
    }

    #[test]
    fn summary_and_error_roundtrip() {
        let sum = SummaryFrame {
            engine: "event".to_owned(),
            cells: 7,
            stats: EngineStats {
                requested: 10,
                deduped: 3,
                mem_hits: 2,
                disk_hits: 1,
                coalesced: 4,
                corrupt: 1,
                evicted: 2,
                simulated: 3,
            },
        };
        assert_eq!(SummaryFrame::decode(&sum.encode()).expect("decodes"), sum);
        let err = ErrorFrame {
            message: "unknown scheme: Basline (did you mean: Baseline?)".to_owned(),
        };
        assert_eq!(ErrorFrame::decode(&err.encode()).expect("decodes"), err);
    }

    #[test]
    fn stats_roundtrip() {
        let query = StatsFrame {
            text: String::new(),
        };
        assert_eq!(StatsFrame::decode(&query.encode()).expect("decodes"), query);
        let reply = StatsFrame {
            text: "# TYPE serve_requests_total counter\nserve_requests_total 3\n\
                   serve_request_latency_ns{quantile=\"0.99\"} 1234\n"
                .to_owned(),
        };
        assert_eq!(StatsFrame::decode(&reply.encode()).expect("decodes"), reply);
        // The frame kind round-trips over a byte stream like the others.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Stats, &reply.encode()).expect("write");
        let (k, p) = read_frame(&mut std::io::Cursor::new(buf))
            .expect("read")
            .expect("frame");
        assert_eq!(k, FrameKind::Stats);
        assert_eq!(StatsFrame::decode(&p).expect("decodes"), reply);
    }

    #[test]
    fn timeline_roundtrip_embeds_the_blob_codec() {
        let query = TimelineQuery {
            scheme: "tlp".to_owned(),
            l1pf: "ipcp".to_owned(),
            workloads: vec!["bfs.urand".to_owned()],
            window_cycles: 0,
            journey_every: 16,
        };
        assert_eq!(
            TimelineQuery::decode(&query.encode()).expect("decodes"),
            query
        );
        let mut timeline = Timeline {
            window_cycles: 10_000,
            journey_every: 64,
            start_cycle: 5_000,
            end_cycle: 45_000,
            ..Timeline::default()
        };
        timeline.windows.push(tlp_timeline::WindowSample {
            start_cycle: 5_000,
            end_cycle: 15_000,
            counters: tlp_timeline::Counters {
                instructions: 31_000,
                dram_reads: 12,
                ..tlp_timeline::Counters::default()
            },
            rob_occupancy: 101,
            mshr_occupancy: 7,
        });
        timeline.journeys.push(tlp_timeline::JourneyRecord {
            core: 0,
            ordinal: 64,
            pc: 0x401_000,
            vaddr: 0xfeed_0000,
            dispatch: 6_000,
            l1_at: 6_004,
            fill_at: 6_210,
            served_level: 3,
            ..tlp_timeline::JourneyRecord::default()
        });
        let reply = TimelineReply {
            scheme: "tlp".to_owned(),
            l1pf: "ipcp".to_owned(),
            runs: vec![WorkloadTimeline {
                workload: "bfs.urand".to_owned(),
                timeline,
            }],
        };
        let back = TimelineReply::decode(&reply.encode()).expect("decodes");
        assert_eq!(back, reply);
        // A timeline reply is not a stats frame, and vice versa.
        assert!(StatsFrame::decode(&reply.encode()).is_err());
        assert!(TimelineReply::decode(
            &StatsFrame {
                text: String::new()
            }
            .encode()
        )
        .is_err());
        // The frame kind survives a byte stream.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Timeline, &reply.encode()).expect("write");
        let (k, p) = read_frame(&mut std::io::Cursor::new(buf))
            .expect("read")
            .expect("frame");
        assert_eq!(k, FrameKind::Timeline);
        assert_eq!(TimelineReply::decode(&p).expect("decodes"), reply);
    }

    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Error, b"{\"message\":\"x\"}").expect("write");
        write_frame(&mut buf, FrameKind::Summary, b"{}").expect("write");
        let mut cursor = std::io::Cursor::new(buf);
        let (k1, p1) = read_frame(&mut cursor).expect("read").expect("frame");
        assert_eq!(
            (k1, p1.as_slice()),
            (FrameKind::Error, b"{\"message\":\"x\"}".as_slice())
        );
        let (k2, _) = read_frame(&mut cursor).expect("read").expect("frame");
        assert_eq!(k2, FrameKind::Summary);
        assert!(
            read_frame(&mut cursor).expect("read").is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn oversized_and_unknown_frames_are_rejected() {
        let mut buf = vec![9u8]; // unknown kind
        buf.extend_from_slice(&0u32.to_be_bytes());
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
        let mut buf = vec![FrameKind::Cell as u8];
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
        // Truncated mid-payload: an error, not a clean EOF.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Cell, b"{\"index\":1}").expect("write");
        buf.truncate(buf.len() - 3);
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
    }
}
