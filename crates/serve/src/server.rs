//! The daemon: a TCP accept loop over one shared [`Harness`].
//!
//! Every connection gets its own handler thread, but all handlers share
//! the *same* harness — the same registry, two-tier result cache, the same
//! single-flight map, the same worker pool configuration. That sharing
//! is the whole point: when two clients submit overlapping (or
//! identical) grids, the cache's in-flight coalescing guarantees each
//! unique cell is simulated exactly once service-wide; the late client's
//! cells resolve as `coalesced` (waited on the other client's leader) or
//! `mem_hits` (the leader already published).

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use tlp_harness::{Harness, RunCell, SessionError};
use tlp_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::protocol::{
    read_frame, write_frame, CellFrame, ErrorFrame, Frame, FrameKind, StatsFrame, SummaryFrame,
    SweepRequest, TimelineQuery, TimelineReply, WorkloadTimeline,
};

/// The daemon's own instrumentation, on a dedicated registry so a STATS
/// reply can merge it with the run cache's and the engine's metrics:
/// connection/request/error counters, the streamed-cell count, an
/// in-flight-requests gauge, and a wall-clock request latency histogram.
#[derive(Clone)]
struct ServeMetrics {
    registry: Arc<MetricsRegistry>,
    connections: Counter,
    requests: Counter,
    cells_streamed: Counter,
    errors: Counter,
    in_flight: Gauge,
    latency: Histogram,
}

impl ServeMetrics {
    fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        Self {
            connections: registry.counter("serve_connections_total"),
            requests: registry.counter("serve_requests_total"),
            cells_streamed: registry.counter("serve_cells_streamed_total"),
            errors: registry.counter("serve_errors_total"),
            in_flight: registry.gauge("serve_requests_in_flight"),
            latency: registry.histogram("serve_request_latency_ns"),
            registry,
        }
    }
}

/// `+12.345s`: monotonic seconds since the daemon started — every log
/// line carries one, so interleaved connection handlers stay legible.
fn stamp(started: Instant) -> String {
    let e = started.elapsed();
    format!("+{}.{:03}s", e.as_secs(), e.subsec_millis())
}

/// A bound, not-yet-serving simulation service.
pub struct Server {
    listener: TcpListener,
    harness: Arc<Harness>,
    metrics: ServeMetrics,
    started: Instant,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the service to `addr` (use port 0 for an ephemeral port;
    /// [`Server::local_addr`] reports the one the OS picked).
    ///
    /// # Errors
    ///
    /// Propagates the bind error (port in use, permission, ...).
    pub fn bind(addr: impl ToSocketAddrs, harness: Harness) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            harness: Arc::new(harness),
            metrics: ServeMetrics::new(),
            started: Instant::now(),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates the socket-name lookup error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever on the calling thread (the `tlp_repro --serve`
    /// daemon path).
    ///
    /// # Errors
    ///
    /// Propagates socket-name lookup errors; per-connection errors are
    /// logged to stderr and do not stop the service.
    pub fn run(self) -> std::io::Result<()> {
        self.serve(&AtomicBool::new(false))
    }

    /// Serves from a background thread; the returned handle stops the
    /// service on demand (the in-process test path).
    ///
    /// # Errors
    ///
    /// Propagates the socket-name lookup error.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let _ = self.serve(&thread_stop);
        });
        Ok(ServerHandle {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    fn serve(self, stop: &AtomicBool) -> std::io::Result<()> {
        let started = self.started;
        let mut next_conn: u64 = 0;
        for conn in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    let id = next_conn;
                    next_conn += 1;
                    self.metrics.connections.inc();
                    let harness = Arc::clone(&self.harness);
                    let metrics = self.metrics.clone();
                    std::thread::spawn(move || {
                        if let Err(e) = handle_connection(&stream, &harness, &metrics) {
                            let peer = stream
                                .peer_addr()
                                .map_or_else(|_| "?".to_owned(), |a| a.to_string());
                            eprintln!(
                                "tlp-serve[conn {id} {}]: connection {peer}: {e}",
                                stamp(started)
                            );
                        }
                    });
                }
                Err(e) => eprintln!("tlp-serve[accept {}]: {e}", stamp(started)),
            }
        }
        Ok(())
    }
}

/// Handle to a [`Server::spawn`]ed service.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the service is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread.
    /// Connections already being handled run to completion on their own
    /// threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Reads requests off one connection until the peer hangs up. A request
/// the harness rejects (unknown scheme, unknown workload, malformed
/// payload) answers with an ERROR frame and keeps the connection open;
/// only transport-level failures tear it down. A STATS frame answers
/// with the daemon's live metrics snapshot.
fn handle_connection(
    stream: &TcpStream,
    harness: &Harness,
    metrics: &ServeMetrics,
) -> std::io::Result<()> {
    let mut reader = stream.try_clone()?;
    let writer = Mutex::new(stream.try_clone()?);
    while let Some((kind, payload)) = read_frame(&mut reader)? {
        match kind {
            FrameKind::Request => {}
            FrameKind::Stats => {
                let frame = StatsFrame {
                    text: render_stats(metrics, harness),
                };
                let mut w = writer.lock();
                write_frame(&mut *w, FrameKind::Stats, &frame.encode())?;
                w.flush()?;
                continue;
            }
            FrameKind::Timeline => {
                let query = match TimelineQuery::decode(&payload) {
                    Ok(q) => q,
                    Err(e) => {
                        metrics.errors.inc();
                        send_error(&writer, &format!("malformed timeline query: {e}"))?;
                        continue;
                    }
                };
                metrics.requests.inc();
                metrics.in_flight.inc();
                let t0 = Instant::now();
                let result = answer_timeline(harness, &query, &writer);
                metrics.latency.record_since(t0);
                metrics.in_flight.dec();
                match result {
                    Ok(()) => {}
                    Err(AnswerError::Reject(msg)) => {
                        metrics.errors.inc();
                        send_error(&writer, &msg)?;
                    }
                    Err(AnswerError::Io(e)) => return Err(e),
                }
                continue;
            }
            other => {
                metrics.errors.inc();
                send_error(&writer, &format!("unexpected {other:?} frame from client"))?;
                continue;
            }
        }
        let req = match SweepRequest::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                metrics.errors.inc();
                send_error(&writer, &format!("malformed request: {e}"))?;
                continue;
            }
        };
        metrics.requests.inc();
        metrics.in_flight.inc();
        let t0 = Instant::now();
        let result = answer_sweep(harness, &req, &writer, metrics);
        metrics.latency.record_since(t0);
        metrics.in_flight.dec();
        match result {
            Ok(()) => {}
            Err(AnswerError::Reject(msg)) => {
                metrics.errors.inc();
                send_error(&writer, &msg)?;
            }
            Err(AnswerError::Io(e)) => return Err(e),
        }
    }
    Ok(())
}

/// The daemon's own metrics merged with the shared harness's registry
/// (run-cache counters and the `sim_*` engine counters), as
/// Prometheus-style text.
fn render_stats(metrics: &ServeMetrics, harness: &Harness) -> String {
    metrics
        .registry
        .snapshot()
        .merged(harness.metrics().snapshot())
        .render_prometheus()
}

enum AnswerError {
    /// The request is invalid; tell the client and keep the connection.
    Reject(String),
    /// The transport failed; drop the connection.
    Io(std::io::Error),
}

impl From<SessionError> for AnswerError {
    fn from(e: SessionError) -> Self {
        AnswerError::Reject(e.to_string())
    }
}

/// The request's cells: a registered scheme, resolved through the same
/// [`Harness::cells`] rule as a local run (repeated workload names
/// dropped, so cell index == position).
fn request_cells(
    harness: &Harness,
    scheme: &str,
    l1pf: &str,
    workloads: &[String],
) -> Result<Vec<RunCell>, SessionError> {
    let spec = harness.registry().scheme(scheme)?.clone();
    harness.cells(&spec, l1pf, workloads)
}

fn answer_sweep(
    harness: &Harness,
    req: &SweepRequest,
    writer: &Mutex<TcpStream>,
    metrics: &ServeMetrics,
) -> Result<(), AnswerError> {
    let cells = request_cells(harness, &req.scheme, &req.l1pf, &req.workloads)?;
    // Stream each cell the moment its report exists — a cache hit
    // answers immediately, a coalesced cell as soon as the other
    // client's leader publishes. A send failure can't abort the batch
    // (other connections may be coalesced on these flights), so it is
    // recorded and surfaced after the run.
    let send_failure: Mutex<Option<std::io::Error>> = Mutex::new(None);
    harness.run_streaming(&cells, |i, cell, report| {
        let frame = CellFrame {
            index: i as u64,
            workload: cell.workloads()[0].name().to_owned(),
            label: cell.label().to_owned(),
            report: (**report).clone(),
        };
        let mut w = writer.lock();
        if let Err(e) = write_frame(&mut *w, FrameKind::Cell, &frame.encode()) {
            let mut slot = send_failure.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        } else {
            metrics.cells_streamed.inc();
        }
    });
    if let Some(e) = send_failure.into_inner() {
        return Err(AnswerError::Io(e));
    }
    let summary = SummaryFrame {
        engine: harness.rc.engine.to_string(),
        cells: cells.len() as u64,
        stats: harness.engine_stats(),
    };
    let mut w = writer.lock();
    write_frame(&mut *w, FrameKind::Summary, &summary.encode()).map_err(AnswerError::Io)
}

/// Captures timelines for a telemetry query through the shared harness's
/// blob cache and answers with one TIMELINE frame. Captures are
/// deterministic, so concurrent identical queries cost at most wasted
/// work, never divergent replies.
fn answer_timeline(
    harness: &Harness,
    query: &TimelineQuery,
    writer: &Mutex<TcpStream>,
) -> Result<(), AnswerError> {
    let cells = request_cells(harness, &query.scheme, &query.l1pf, &query.workloads)?;
    let mut tcfg = tlp_sim::TimelineConfig::default();
    if query.window_cycles > 0 {
        tcfg.window_cycles = query.window_cycles;
    }
    if query.journey_every > 0 {
        tcfg.journey_every = query.journey_every;
    }
    let runs = harness
        .timelines(&cells, tcfg)
        .into_iter()
        .map(|r| WorkloadTimeline {
            workload: r.workload,
            timeline: (*r.timeline).clone(),
        })
        .collect();
    let reply = TimelineReply {
        scheme: query.scheme.clone(),
        l1pf: query.l1pf.clone(),
        runs,
    };
    let mut w = writer.lock();
    write_frame(&mut *w, FrameKind::Timeline, &reply.encode()).map_err(AnswerError::Io)
}

fn send_error(writer: &Mutex<TcpStream>, message: &str) -> std::io::Result<()> {
    let frame = ErrorFrame {
        message: message.to_owned(),
    };
    let mut w = writer.lock();
    write_frame(&mut *w, FrameKind::Error, &frame.encode())?;
    w.flush()
}
