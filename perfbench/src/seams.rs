//! Hook-seam decorators for the traced run.
//!
//! [`decorate`] wraps the five seams of a [`CoreSetup`] — the trace, the
//! off-chip predictor, the L1D prefetcher, the L1D filter and the L2
//! prefetcher — in forwarding shims that count and time every call. The
//! shims only observe: each call is forwarded verbatim and its result
//! returned unchanged, so a decorated system produces the same
//! `SimReport` as an undecorated one (pinned by `tests/bench.rs`).
//!
//! The simulator drives all cores from one thread, so the shared
//! counters are plain relaxed load/store pairs, not read-modify-write
//! atomics; the `Arc` only satisfies the seams' `Send` bound.
//!
//! Timing a call costs two clock reads, and part of that cost falls
//! inside the timed interval. [`TimerCost::calibrate`] measures both on
//! an empty probe, so the per-layer seconds can be corrected for them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tlp_sim::hooks::{
    DemandAccess, FilterTag, L1FilterCtx, L1PrefetchFilter, L1Prefetcher, L2Access,
    L2PrefetchCandidate, L2Prefetcher, LoadCtx, OffChipPredictor, OffChipTag, PrefetchCandidate,
};
use tlp_sim::{CoreSetup, Cycle, Level};
use tlp_trace::{TraceRecord, TraceSource};

/// Calls, host nanoseconds and produced items of one seam entry point.
#[derive(Debug, Default)]
pub struct Probe {
    calls: AtomicU64,
    ns: AtomicU64,
    items: AtomicU64,
}

impl Probe {
    fn record(&self, start: Instant, items: u64) {
        let ns = start.elapsed().as_nanos() as u64;
        bump(&self.calls, 1);
        bump(&self.ns, ns);
        bump(&self.items, items);
    }

    /// Calls recorded.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Host seconds spent inside the calls.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Items the calls produced (prefetch candidates; 0 elsewhere).
    #[must_use]
    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }
}

fn bump(c: &AtomicU64, by: u64) {
    c.store(c.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// One probe per timed seam entry point, shared by every core of a system.
#[derive(Debug, Default)]
pub struct Probes {
    /// `OffChipPredictor::predict_load` (FLP under TLP).
    pub offchip_predict: Probe,
    /// `OffChipPredictor::train_load`.
    pub offchip_train: Probe,
    /// `L1PrefetchFilter::filter` (SLP under TLP).
    pub l1_filter: Probe,
    /// `L1PrefetchFilter::train`.
    pub l1_filter_train: Probe,
    /// `L1Prefetcher::on_access` (IPCP); items = candidates. `on_fill` is
    /// forwarded untimed, so its cost stays in the engine's self time.
    pub l1_prefetcher: Probe,
    /// `L2Prefetcher::on_access` (SPP); items = candidates.
    pub l2_prefetcher: Probe,
    /// `TraceSource::next_record`; items = records delivered.
    pub trace: Probe,
}

impl Probes {
    /// Calls recorded by every probe.
    #[must_use]
    pub fn calls(&self) -> u64 {
        [
            &self.offchip_predict,
            &self.offchip_train,
            &self.l1_filter,
            &self.l1_filter_train,
            &self.l1_prefetcher,
            &self.l2_prefetcher,
            &self.trace,
        ]
        .iter()
        .map(|p| p.calls())
        .sum()
    }
}

/// What timing one call costs the host, measured on an empty probe in
/// the measuring process.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// Nanoseconds each recorded interval holds beyond the timed call:
    /// the share of the two clock reads that falls inside it.
    pub in_interval_ns: f64,
    /// Nanoseconds each decorated call adds in all: both clock reads and
    /// the counter updates.
    pub per_call_ns: f64,
}

impl TimerCost {
    /// Times rounds of empty probe calls and keeps the median round.
    #[must_use]
    pub fn calibrate() -> Self {
        const CALLS: u32 = 200_000;
        let mut rounds: Vec<Self> = (0..5)
            .map(|_| {
                let probe = Probe::default();
                let start = Instant::now();
                for _ in 0..CALLS {
                    probe.record(Instant::now(), 0);
                }
                let total = start.elapsed().as_secs_f64();
                Self {
                    in_interval_ns: probe.seconds() * 1e9 / f64::from(CALLS),
                    per_call_ns: total * 1e9 / f64::from(CALLS),
                }
            })
            .collect();
        rounds.sort_by(|a, b| a.per_call_ns.total_cmp(&b.per_call_ns));
        rounds[rounds.len() / 2]
    }

    /// Host seconds inside `probe`'s calls, less the clock reads'
    /// share of each interval; never below 0.
    #[must_use]
    pub fn work_seconds(&self, probe: &Probe) -> f64 {
        (probe.seconds() - probe.calls() as f64 * self.in_interval_ns * 1e-9).max(0.0)
    }

    /// Host seconds the decorators added over `calls` calls.
    #[must_use]
    pub fn overhead_seconds(&self, calls: u64) -> f64 {
        calls as f64 * self.per_call_ns * 1e-9
    }
}

/// Wraps every timed seam of `setup`; the L2 filter passes through.
#[must_use]
pub fn decorate(setup: CoreSetup, probes: &Arc<Probes>) -> CoreSetup {
    CoreSetup {
        trace: Box::new(Timed::new(setup.trace, probes)),
        offchip: Box::new(Timed::new(setup.offchip, probes)),
        l1_prefetcher: Box::new(Timed::new(setup.l1_prefetcher, probes)),
        l1_filter: Box::new(Timed::new(setup.l1_filter, probes)),
        l2_prefetcher: Box::new(Timed::new(setup.l2_prefetcher, probes)),
        ..setup
    }
}

/// A forwarding shim around one boxed seam.
struct Timed<T: ?Sized> {
    inner: Box<T>,
    probes: Arc<Probes>,
}

impl<T: ?Sized> Timed<T> {
    fn new(inner: Box<T>, probes: &Arc<Probes>) -> Self {
        Self {
            inner,
            probes: Arc::clone(probes),
        }
    }
}

impl TraceSource for Timed<dyn TraceSource> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        let t = Instant::now();
        let r = self.inner.next_record();
        self.probes.trace.record(t, u64::from(r.is_some()));
        r
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl OffChipPredictor for Timed<dyn OffChipPredictor> {
    fn predict_load(&mut self, ctx: &LoadCtx) -> OffChipTag {
        let t = Instant::now();
        let tag = self.inner.predict_load(ctx);
        self.probes.offchip_predict.record(t, 0);
        tag
    }

    fn train_load(&mut self, ctx: &LoadCtx, tag: &OffChipTag, served_from: Level) {
        let t = Instant::now();
        self.inner.train_load(ctx, tag, served_from);
        self.probes.offchip_train.record(t, 0);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl L1Prefetcher for Timed<dyn L1Prefetcher> {
    fn on_access(&mut self, access: &DemandAccess, out: &mut Vec<PrefetchCandidate>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.on_access(access, out);
        self.probes
            .l1_prefetcher
            .record(t, (out.len() - before) as u64);
    }

    fn on_fill(&mut self, vaddr: u64, cycle: Cycle) {
        self.inner.on_fill(vaddr, cycle);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl L1PrefetchFilter for Timed<dyn L1PrefetchFilter> {
    fn filter(&mut self, ctx: &L1FilterCtx) -> (bool, FilterTag) {
        let t = Instant::now();
        let r = self.inner.filter(ctx);
        self.probes.l1_filter.record(t, 0);
        r
    }

    fn train(&mut self, ctx: &L1FilterCtx, tag: &FilterTag, served_from: Level) {
        let t = Instant::now();
        self.inner.train(ctx, tag, served_from);
        self.probes.l1_filter_train.record(t, 0);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl L2Prefetcher for Timed<dyn L2Prefetcher> {
    fn on_access(&mut self, access: &L2Access, out: &mut Vec<L2PrefetchCandidate>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.on_access(access, out);
        self.probes
            .l2_prefetcher
            .record(t, (out.len() - before) as u64);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
