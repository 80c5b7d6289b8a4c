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
//! Payloads reuse the harness cache's hand-rolled JSON codec
//! ([`tlp_sim::serial`]), so a streamed report is byte-identical to its
//! on-disk cache entry and round-trips losslessly.

use std::io::{Read, Write};

use tlp_harness::EngineStats;
use tlp_sim::serial::{self, SerialError, Value};
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

impl SweepRequest {
    /// Encodes the request payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let workloads: Vec<Value> = self
            .workloads
            .iter()
            .map(|w| Value::Str(w.clone()))
            .collect();
        Value::Obj(vec![
            ("proto".to_owned(), Value::Num(PROTO_VERSION)),
            ("scheme".to_owned(), Value::Str(self.scheme.clone())),
            ("l1pf".to_owned(), Value::Str(self.l1pf.clone())),
            ("workloads".to_owned(), Value::Arr(workloads)),
        ])
        .render()
        .into_bytes()
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] on malformed JSON, missing fields, or a
    /// protocol-version mismatch.
    pub fn decode(payload: &[u8]) -> Result<Self, SerialError> {
        let v = parse_payload(payload)?;
        let proto = v.u64_field("proto")?;
        if proto != PROTO_VERSION {
            return Err(SerialError {
                offset: 0,
                message: format!("protocol version {proto} (this build speaks {PROTO_VERSION})"),
            });
        }
        let workloads = v
            .arr_field("workloads")?
            .iter()
            .map(|w| match w {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(SerialError {
                    offset: 0,
                    message: "workloads must be strings".to_owned(),
                }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            scheme: v.str_field("scheme")?,
            l1pf: v.str_field("l1pf")?,
            workloads,
        })
    }
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
    /// The cell's report.
    pub report: SimReport,
}

impl CellFrame {
    /// Encodes the cell payload (the report embeds its on-disk cache
    /// encoding verbatim).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        format!(
            "{{\"index\":{},\"workload\":{},\"label\":{},\"report\":{}}}",
            self.index,
            serial::escape(&self.workload),
            serial::escape(&self.label),
            serial::report_to_json(&self.report)
        )
        .into_bytes()
    }

    /// Decodes a cell payload.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] on malformed JSON or missing fields.
    pub fn decode(payload: &[u8]) -> Result<Self, SerialError> {
        let v = parse_payload(payload)?;
        Ok(Self {
            index: v.u64_field("index")?,
            workload: v.str_field("workload")?,
            label: v.str_field("label")?,
            report: serial::report_from_value(v.field("report")?)?,
        })
    }
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

impl SummaryFrame {
    /// Encodes the summary payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let s = &self.stats;
        Value::Obj(vec![
            ("engine".to_owned(), Value::Str(self.engine.clone())),
            ("cells".to_owned(), Value::Num(self.cells)),
            ("requested".to_owned(), Value::Num(s.requested)),
            ("deduped".to_owned(), Value::Num(s.deduped)),
            ("mem_hits".to_owned(), Value::Num(s.mem_hits)),
            ("disk_hits".to_owned(), Value::Num(s.disk_hits)),
            ("coalesced".to_owned(), Value::Num(s.coalesced)),
            ("corrupt".to_owned(), Value::Num(s.corrupt)),
            ("evicted".to_owned(), Value::Num(s.evicted)),
            ("simulated".to_owned(), Value::Num(s.simulated)),
        ])
        .render()
        .into_bytes()
    }

    /// Decodes a summary payload.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] on malformed JSON or missing fields.
    pub fn decode(payload: &[u8]) -> Result<Self, SerialError> {
        let v = parse_payload(payload)?;
        Ok(Self {
            engine: v.str_field("engine")?,
            cells: v.u64_field("cells")?,
            stats: EngineStats {
                requested: v.u64_field("requested")?,
                deduped: v.u64_field("deduped")?,
                mem_hits: v.u64_field("mem_hits")?,
                disk_hits: v.u64_field("disk_hits")?,
                coalesced: v.u64_field("coalesced")?,
                corrupt: v.u64_field("corrupt")?,
                evicted: v.u64_field("evicted")?,
                simulated: v.u64_field("simulated")?,
            },
        })
    }
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

impl StatsFrame {
    /// Encodes the stats payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        Value::Obj(vec![
            ("proto".to_owned(), Value::Num(PROTO_VERSION)),
            ("text".to_owned(), Value::Str(self.text.clone())),
        ])
        .render()
        .into_bytes()
    }

    /// Decodes a stats payload.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] on malformed JSON, a missing field, or a
    /// protocol-version mismatch.
    pub fn decode(payload: &[u8]) -> Result<Self, SerialError> {
        let v = parse_payload(payload)?;
        let proto = v.u64_field("proto")?;
        if proto != PROTO_VERSION {
            return Err(SerialError {
                offset: 0,
                message: format!("protocol version {proto} (this build speaks {PROTO_VERSION})"),
            });
        }
        Ok(Self {
            text: v.str_field("text")?,
        })
    }
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

impl TimelineQuery {
    /// Encodes the query payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let workloads: Vec<Value> = self
            .workloads
            .iter()
            .map(|w| Value::Str(w.clone()))
            .collect();
        Value::Obj(vec![
            ("proto".to_owned(), Value::Num(PROTO_VERSION)),
            ("scheme".to_owned(), Value::Str(self.scheme.clone())),
            ("l1pf".to_owned(), Value::Str(self.l1pf.clone())),
            ("workloads".to_owned(), Value::Arr(workloads)),
            ("window_cycles".to_owned(), Value::Num(self.window_cycles)),
            ("journey_every".to_owned(), Value::Num(self.journey_every)),
        ])
        .render()
        .into_bytes()
    }

    /// Decodes a query payload.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] on malformed JSON, missing fields, or a
    /// protocol-version mismatch.
    pub fn decode(payload: &[u8]) -> Result<Self, SerialError> {
        let v = parse_payload(payload)?;
        let proto = v.u64_field("proto")?;
        if proto != PROTO_VERSION {
            return Err(SerialError {
                offset: 0,
                message: format!("protocol version {proto} (this build speaks {PROTO_VERSION})"),
            });
        }
        let workloads = v
            .arr_field("workloads")?
            .iter()
            .map(|w| match w {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(SerialError {
                    offset: 0,
                    message: "workloads must be strings".to_owned(),
                }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            scheme: v.str_field("scheme")?,
            l1pf: v.str_field("l1pf")?,
            workloads,
            window_cycles: v.u64_field("window_cycles")?,
            journey_every: v.u64_field("journey_every")?,
        })
    }
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
    /// `(workload, timeline)` pairs in request order.
    pub runs: Vec<(String, Timeline)>,
}

impl TimelineReply {
    /// Encodes the reply payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let runs: Vec<Value> = self
            .runs
            .iter()
            .map(|(workload, timeline)| {
                Value::Obj(vec![
                    ("workload".to_owned(), Value::Str(workload.clone())),
                    ("timeline".to_owned(), serial::timeline_value(timeline)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("proto".to_owned(), Value::Num(PROTO_VERSION)),
            ("scheme".to_owned(), Value::Str(self.scheme.clone())),
            ("l1pf".to_owned(), Value::Str(self.l1pf.clone())),
            ("runs".to_owned(), Value::Arr(runs)),
        ])
        .render()
        .into_bytes()
    }

    /// Decodes a reply payload.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] on malformed JSON, missing fields, or a
    /// protocol-version mismatch.
    pub fn decode(payload: &[u8]) -> Result<Self, SerialError> {
        let v = parse_payload(payload)?;
        let proto = v.u64_field("proto")?;
        if proto != PROTO_VERSION {
            return Err(SerialError {
                offset: 0,
                message: format!("protocol version {proto} (this build speaks {PROTO_VERSION})"),
            });
        }
        let runs = v
            .arr_field("runs")?
            .iter()
            .map(|r| {
                Ok((
                    r.str_field("workload")?,
                    serial::timeline_from_value(r.field("timeline")?)?,
                ))
            })
            .collect::<Result<Vec<_>, SerialError>>()?;
        Ok(Self {
            scheme: v.str_field("scheme")?,
            l1pf: v.str_field("l1pf")?,
            runs,
        })
    }
}

/// A rejected request (unknown scheme, unknown workload, bad frame, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Human-readable reason, suitable for the client's stderr.
    pub message: String,
}

impl ErrorFrame {
    /// Encodes the error payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        Value::Obj(vec![(
            "message".to_owned(),
            Value::Str(self.message.clone()),
        )])
        .render()
        .into_bytes()
    }

    /// Decodes an error payload.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] on malformed JSON or a missing field.
    pub fn decode(payload: &[u8]) -> Result<Self, SerialError> {
        Ok(Self {
            message: parse_payload(payload)?.str_field("message")?,
        })
    }
}

fn parse_payload(payload: &[u8]) -> Result<Value, SerialError> {
    let text = std::str::from_utf8(payload).map_err(|_| SerialError {
        offset: 0,
        message: "payload is not UTF-8".to_owned(),
    })?;
    serial::parse_value(text)
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
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
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
            runs: vec![("bfs.urand".to_owned(), timeline)],
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
