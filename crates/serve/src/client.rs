//! The client half: connect, submit sweeps, collect streamed cells.

use std::net::{TcpStream, ToSocketAddrs};

use tlp_harness::report::{ExperimentResult, Row};
use tlp_harness::runner::mean;
use tlp_sim::serial::SerialError;
use tlp_sim::SimReport;

use crate::protocol::{
    read_frame, write_frame, CellFrame, ErrorFrame, Frame, FrameKind, StatsFrame, SummaryFrame,
    SweepRequest, TimelineQuery, TimelineReply,
};

/// Errors surfaced by client-side requests.
#[derive(Debug)]
pub enum ServeError {
    /// The transport failed (connect, read, write).
    Io(std::io::Error),
    /// The peer sent bytes that don't decode as the protocol.
    Protocol(String),
    /// The server rejected the request (its ERROR frame's message —
    /// unknown scheme, unknown workload, version mismatch, ...).
    Server(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol: {m}"),
            ServeError::Server(m) => write!(f, "server: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<SerialError> for ServeError {
    fn from(e: SerialError) -> Self {
        ServeError::Protocol(e.to_string())
    }
}

/// A complete response to one sweep request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReply {
    /// The streamed cells, re-sorted into request (workload) order —
    /// the wire order is completion order.
    pub cells: Vec<CellFrame>,
    /// The terminating summary.
    pub summary: SummaryFrame,
}

impl SweepReply {
    /// The reply as `(workload, report)` rows in request order — the
    /// shape [`scheme_result`] renders.
    #[must_use]
    pub fn rows(&self) -> Vec<(String, SimReport)> {
        self.cells
            .iter()
            .map(|c| (c.workload.clone(), c.report.clone()))
            .collect()
    }
}

/// Renders sweep rows as the `--scheme` [`ExperimentResult`] table (one
/// row per workload: IPC, DRAM transactions, L1D prefetches issued, plus
/// a mean-IPC summary row). The CLI renders local runs and a daemon's
/// streamed reports through this one function, so both print the same
/// bytes.
#[must_use]
pub fn scheme_result(
    scheme_name: &str,
    l1pf: &str,
    rows: &[(String, SimReport)],
) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        format!("scheme-{}", slug(scheme_name)),
        format!("Scheme sweep: {scheme_name} (L1D prefetcher: {l1pf})"),
        "IPC / DRAM transactions / L1D prefetches issued",
    );
    let mut ipcs = Vec::new();
    for (workload, report) in rows {
        let issued: u64 = report.cores.iter().map(|c| c.l1_prefetch.issued).sum();
        ipcs.push(report.ipc());
        result.rows.push(Row::new(
            workload.clone(),
            vec![
                ("IPC".to_owned(), report.ipc()),
                ("DRAM".to_owned(), report.dram_transactions() as f64),
                ("L1 PF issued".to_owned(), issued as f64),
            ],
        ));
    }
    result
        .summary
        .push(Row::new("mean", vec![("IPC".to_owned(), mean(&ipcs))]));
    result
}

/// Lowercase, dash-separated form of a scheme name for result ids.
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// A connection to a running `tlp-serve` daemon. One connection carries
/// any number of sequential sweeps.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Ok(Self {
            stream: TcpStream::connect(addr)?,
        })
    }

    /// Submits one sweep and blocks until the response completes,
    /// collecting cells as the server streams them.
    ///
    /// # Errors
    ///
    /// [`ServeError::Server`] when the daemon rejects the request,
    /// [`ServeError::Protocol`]/[`ServeError::Io`] on a broken peer or
    /// transport.
    pub fn sweep(&mut self, req: &SweepRequest) -> Result<SweepReply, ServeError> {
        write_frame(&mut self.stream, FrameKind::Request, &req.encode())?;
        let mut cells: Vec<CellFrame> = Vec::new();
        loop {
            match read_frame(&mut self.stream)? {
                None => {
                    return Err(ServeError::Protocol(
                        "connection closed mid-response".to_owned(),
                    ))
                }
                Some((FrameKind::Cell, payload)) => cells.push(CellFrame::decode(&payload)?),
                Some((FrameKind::Summary, payload)) => {
                    let summary = SummaryFrame::decode(&payload)?;
                    cells.sort_by_key(|c| c.index);
                    return Ok(SweepReply { cells, summary });
                }
                Some((FrameKind::Error, payload)) => {
                    return Err(ServeError::Server(ErrorFrame::decode(&payload)?.message))
                }
                Some((kind, _)) => {
                    return Err(ServeError::Protocol(format!(
                        "unexpected {kind:?} frame in sweep response"
                    )))
                }
            }
        }
    }

    /// Asks the daemon to capture simulated-time telemetry: one
    /// [`tlp_sim::Timeline`] per workload, streamed back through the
    /// daemon's blob cache. Deterministic captures mean the reply's
    /// blobs are byte-identical to what a local `--timeline` run of the
    /// same cells would produce.
    ///
    /// # Errors
    ///
    /// [`ServeError::Server`] when the daemon rejects the query,
    /// [`ServeError::Protocol`]/[`ServeError::Io`] on a broken peer or
    /// transport.
    pub fn timeline(&mut self, query: &TimelineQuery) -> Result<TimelineReply, ServeError> {
        write_frame(&mut self.stream, FrameKind::Timeline, &query.encode())?;
        match read_frame(&mut self.stream)? {
            None => Err(ServeError::Protocol(
                "connection closed mid-response".to_owned(),
            )),
            Some((FrameKind::Timeline, payload)) => Ok(TimelineReply::decode(&payload)?),
            Some((FrameKind::Error, payload)) => {
                Err(ServeError::Server(ErrorFrame::decode(&payload)?.message))
            }
            Some((kind, _)) => Err(ServeError::Protocol(format!(
                "unexpected {kind:?} frame in timeline response"
            ))),
        }
    }

    /// Asks the daemon for its live metrics snapshot: Prometheus-style
    /// text with the serve-layer counters and latency quantiles, the
    /// shared run cache's counters and phase histograms, and the `sim_*`
    /// engine counters.
    ///
    /// # Errors
    ///
    /// [`ServeError::Server`] when the daemon rejects the query,
    /// [`ServeError::Protocol`]/[`ServeError::Io`] on a broken peer or
    /// transport.
    pub fn stats(&mut self) -> Result<String, ServeError> {
        let query = StatsFrame {
            text: String::new(),
        };
        write_frame(&mut self.stream, FrameKind::Stats, &query.encode())?;
        match read_frame(&mut self.stream)? {
            None => Err(ServeError::Protocol(
                "connection closed mid-response".to_owned(),
            )),
            Some((FrameKind::Stats, payload)) => Ok(StatsFrame::decode(&payload)?.text),
            Some((FrameKind::Error, payload)) => {
                Err(ServeError::Server(ErrorFrame::decode(&payload)?.message))
            }
            Some((kind, _)) => Err(ServeError::Protocol(format!(
                "unexpected {kind:?} frame in stats response"
            ))),
        }
    }
}
