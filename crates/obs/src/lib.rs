//! `tlp-obs`: a zero-dependency observability substrate for the TLP
//! reproduction — named counters, gauges, and log-bucketed histograms
//! behind a [`MetricsRegistry`], plus lightweight [`Span`] timing.
//!
//! Design constraints (in priority order):
//!
//! - **Determinism-safe.** Metrics are strictly write-only from the
//!   instrumented code's point of view: nothing in the simulator or the
//!   run engine ever reads a metric back to make a decision, so enabling
//!   observation cannot perturb simulated state. Wall-clock time
//!   ([`std::time::Instant`]) is only ever *recorded*, never branched on.
//! - **Cheap.** A counter increment is one relaxed atomic add; a
//!   histogram record is two index instructions plus four relaxed
//!   atomics. Handles are `Arc`-backed and `Clone`, so call sites hoist
//!   the name lookup out of hot loops and keep a handle.
//! - **Zero dependencies.** Everything is `std`: any crate can link it
//!   without growing the build graph.
//!
//! # Example
//!
//! ```
//! use tlp_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let hits = reg.counter("cache_hits_total");
//! hits.inc();
//! let lat = reg.histogram("lookup_ns");
//! lat.record(1_250);
//! {
//!     let _span = lat.span(); // records elapsed nanos on drop
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("cache_hits_total"), Some(1));
//! println!("{}", snap.render_prometheus());
//! ```

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sub-buckets per power-of-two octave. Four sub-buckets bound the
/// relative quantile error at 1/4 = 25% (12.5% above the exact range).
const SUBS: usize = 4;
/// Octaves covering the full `u64` range.
const OCTAVES: usize = 64;
/// Total histogram buckets.
const BUCKETS: usize = SUBS * OCTAVES;

/// A monotonically increasing `u64` event count.
///
/// Handles are cheap clones of one shared atomic; a detached counter
/// (one not minted by a registry) is valid and simply unnamed — the
/// disk-cache eviction counter starts life detached and is adopted by
/// the owning cache's registry.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero, not attached to any registry.
    #[must_use]
    pub fn detached() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (queue depth, in-flight requests).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero, not attached to any registry.
    #[must_use]
    pub fn detached() -> Self {
        Self::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `d`.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistInner {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Maps a value to its log bucket: exact for `v < SUBS`, then `SUBS`
/// linear sub-buckets per power-of-two octave.
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let exp = (63 - v.leading_zeros()) as usize; // >= 2 since v >= 4
    let sub = ((v >> (exp - 2)) as usize) & (SUBS - 1);
    exp * SUBS + sub
}

/// The largest value that lands in bucket `idx` (inclusive upper bound).
fn bucket_bound(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let exp = idx / SUBS;
    let sub = (idx % SUBS) as u64;
    let width = 1u64 << (exp - 2);
    let lo = (1u64 << exp) + sub * width;
    lo + (width - 1)
}

/// A log-bucketed `u64` histogram (typically nanoseconds): power-of-two
/// octaves split into four linear sub-buckets, so quantile readouts are
/// within 12.5% of the true value while recording stays lock-free.
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistInner::new()))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.0.count.load(Ordering::Relaxed))
            .field("sum", &self.0.sum.load(Ordering::Relaxed))
            .finish()
    }
}

impl Histogram {
    /// A fresh empty histogram, not attached to any registry.
    #[must_use]
    pub fn detached() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        let h = &*self.0;
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records the wall-clock nanoseconds elapsed since `start`
    /// (saturating at `u64::MAX` ns, i.e. after ~584 years).
    pub fn record_since(&self, start: Instant) {
        self.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a span whose drop records its wall-clock duration here.
    pub fn span(&self) -> Span {
        Span {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// Observation count so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &*self.0;
        let count = h.count.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        for (i, b) in h.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_bound(i), n));
            }
        }
        HistogramSnapshot {
            count,
            sum: h.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                h.min.load(Ordering::Relaxed)
            },
            max: h.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A live timing scope: created by [`Histogram::span`], records the
/// elapsed wall-clock nanoseconds into its histogram when dropped.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    hist: Histogram,
    start: Instant,
}

impl Span {
    /// Starts timing against `hist` (alias for [`Histogram::span`]).
    pub fn enter(hist: &Histogram) -> Self {
        hist.span()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record_since(self.start);
    }
}

/// A point-in-time copy of a [`Histogram`]'s distribution, with quantile
/// readout. `buckets` holds `(inclusive_upper_bound, count)` pairs for
/// the non-empty buckets, in increasing bound order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// `(inclusive upper bound, count)` for each non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` (0.0 ..= 1.0): the upper bound of the
    /// bucket containing the rank-`ceil(q * count)` observation, clamped
    /// to the observed `[min, max]`. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bound.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// One metric's point-in-time state inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter's current count.
    Counter(u64),
    /// A gauge's current level.
    Gauge(i64),
    /// A histogram's distribution copy.
    Histogram(HistogramSnapshot),
}

/// A named metric inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    /// The registered name.
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time copy of a registry (or a merge of several), sorted by
/// metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// All metrics, sorted by name.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Appends another snapshot's metrics (re-sorting by name). Callers
    /// merge disjoint registries — e.g. the serve daemon's registry with
    /// the run-cache registry; duplicate names are kept side by side
    /// rather than summed.
    #[must_use]
    pub fn merged(mut self, other: Snapshot) -> Snapshot {
        self.metrics.extend(other.metrics);
        self.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        self
    }

    /// Looks up a counter's value by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|m| match &m.value {
            MetricValue::Counter(v) if m.name == name => Some(*v),
            _ => None,
        })
    }

    /// Looks up a gauge's level by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.metrics.iter().find_map(|m| match &m.value {
            MetricValue::Gauge(v) if m.name == name => Some(*v),
            _ => None,
        })
    }

    /// Looks up a histogram's distribution by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.metrics.iter().find_map(|m| match &m.value {
            MetricValue::Histogram(h) if m.name == name => Some(h),
            _ => None,
        })
    }

    /// Renders the snapshot as Prometheus-style text exposition:
    /// counters and gauges as single samples, histograms as summaries
    /// with `p50`/`p90`/`p99` quantile samples plus `_min`/`_max`/
    /// `_sum`/`_count`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for m in &self.metrics {
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {} counter\n{} {v}", m.name, m.name);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {} gauge\n{} {v}", m.name, m.name);
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {} summary", m.name);
                    for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                        let _ =
                            writeln!(out, "{}{{quantile=\"{label}\"}} {}", m.name, h.quantile(q));
                    }
                    let _ = writeln!(out, "{}_min {}", m.name, h.min);
                    let _ = writeln!(out, "{}_max {}", m.name, h.max);
                    let _ = writeln!(out, "{}_sum {}", m.name, h.sum);
                    let _ = writeln!(out, "{}_count {}", m.name, h.count);
                }
            }
        }
        out
    }
}

/// A named collection of metrics. Lookups are get-or-create: the first
/// `counter("x")` registers `x`, later calls hand back clones of the
/// same underlying atomic. Cheap to share (`Arc` it) — the lock guards
/// only the name map, never the hot recording path.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry")
            .field("metrics", &n)
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        map.entry(name.to_owned()).or_insert_with(make).clone()
    }

    /// The counter registered under `name` (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::detached())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Registers `name` as an alias of an existing counter handle —
    /// used to adopt a detached counter (e.g. the disk cache's eviction
    /// count) into a registry.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        match self.get_or_insert(name, || Metric::Counter(counter.clone())) {
            Metric::Counter(_) => {}
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// The gauge registered under `name` (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::detached())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// The histogram registered under `name` (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::detached())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.lock().expect("metrics registry poisoned");
        Snapshot {
            metrics: map
                .iter()
                .map(|(name, m)| MetricSnapshot {
                    name: name.clone(),
                    value: match m {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_bucket_exactly() {
        for v in 0..SUBS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bound(bucket_index(v)), v);
        }
        // 4..=8 stay exact too (first octave's sub-buckets have width 1).
        for v in 4..=8u64 {
            let idx = bucket_index(v);
            assert!(bucket_bound(idx) >= v);
            assert!(
                bucket_bound(idx) - v < 1 + v / 4,
                "v={v} bound={}",
                bucket_bound(idx)
            );
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_bound_contains_value() {
        let mut last_idx = 0usize;
        let mut v = 0u64;
        while v < u64::MAX / 2 {
            let idx = bucket_index(v);
            assert!(idx >= last_idx, "index not monotone at v={v}");
            let bound = bucket_bound(idx);
            assert!(bound >= v, "bound {bound} < v {v}");
            // Relative error of the upper bound is at most 1/4.
            assert!(bound - v <= v / 4 + 1, "v={v} bound={bound}");
            last_idx = idx;
            v = v + v / 2 + 1; // never overflows: v < u64::MAX / 2
        }
        assert_eq!(bucket_bound(bucket_index(u64::MAX)), u64::MAX);
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = Histogram::detached();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // Bucket upper bounds overestimate by at most 25%.
        let p50 = s.quantile(0.5);
        assert!((500..=640).contains(&p50), "p50={p50}");
        let p90 = s.quantile(0.9);
        assert!((900..=1000).contains(&p90), "p90={p90}");
        let p99 = s.quantile(0.99);
        assert!((990..=1000).contains(&p99), "p99={p99}");
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn quantile_clamps_to_observed_range() {
        let h = Histogram::detached();
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 1000);
        assert_eq!(s.quantile(0.99), 1000);
        let empty = Histogram::detached().snapshot();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.min, 0);
    }

    #[test]
    fn quantile_degenerate_inputs_are_pinned() {
        // Zero observations: every quantile — including out-of-range and
        // non-finite q — reads exactly 0. No NaN, no panic.
        let empty = Histogram::detached().snapshot();
        for q in [
            -1.0,
            0.0,
            0.25,
            0.5,
            0.99,
            1.0,
            2.0,
            f64::NAN,
            f64::INFINITY,
        ] {
            assert_eq!(empty.quantile(q), 0, "empty histogram, q={q}");
        }
        // One observation: every quantile reads the sole sample (the
        // rank clamp pins degenerate q to the only rank there is).
        let one = Histogram::detached();
        one.record(42);
        let s = one.snapshot();
        assert_eq!(s.count, 1);
        for q in [-1.0, 0.0, 0.5, 0.99, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            assert_eq!(s.quantile(q), 42, "single sample, q={q}");
        }
        // Many observations: degenerate q still lands inside the
        // observed range, at its edges.
        let many = Histogram::detached();
        for v in [5u64, 500, 50_000] {
            many.record(v);
        }
        let s = many.snapshot();
        assert_eq!(s.quantile(-1.0), 5);
        assert_eq!(s.quantile(2.0), 50_000);
        assert_eq!(s.quantile(f64::NAN), 5);
    }

    #[test]
    fn registry_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.add(3);
        b.inc();
        assert_eq!(reg.snapshot().counter("x_total"), Some(4));

        let g = reg.gauge("depth");
        g.add(5);
        reg.gauge("depth").dec();
        assert_eq!(reg.snapshot().gauge("depth"), Some(4));
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn adopt_counter_aliases_the_same_atomic() {
        let reg = MetricsRegistry::new();
        let detached = Counter::detached();
        detached.add(7);
        reg.adopt_counter("evicted_total", &detached);
        detached.inc();
        assert_eq!(reg.snapshot().counter("evicted_total"), Some(8));
    }

    #[test]
    fn span_records_into_histogram() {
        let h = Histogram::detached();
        {
            let _s = h.span();
            std::hint::black_box(());
        }
        {
            let _s = Span::enter(&h);
        }
        assert_eq!(h.count(), 2);
        assert!(h.snapshot().sum > 0);
    }

    #[test]
    fn render_prometheus_format() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").add(2);
        reg.gauge("a_gauge").set(-3);
        let h = reg.histogram("lat_ns");
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let text = reg.snapshot().render_prometheus();
        // Sorted by name: a_gauge, b_total, lat_ns.
        let a = text.find("# TYPE a_gauge gauge").expect("gauge header");
        let b = text.find("# TYPE b_total counter").expect("counter header");
        let l = text.find("# TYPE lat_ns summary").expect("summary header");
        assert!(a < b && b < l);
        assert!(text.contains("a_gauge -3"));
        assert!(text.contains("b_total 2"));
        assert!(text.contains("lat_ns{quantile=\"0.5\"}"));
        assert!(text.contains("lat_ns{quantile=\"0.99\"}"));
        assert!(text.contains("lat_ns_count 3"));
        assert!(text.contains("lat_ns_sum 60"));
        assert!(text.contains("lat_ns_min 10"));
        assert!(text.contains("lat_ns_max 30"));
    }

    #[test]
    fn snapshots_merge_and_resort() {
        let r1 = MetricsRegistry::new();
        r1.counter("zz_total").inc();
        let r2 = MetricsRegistry::new();
        r2.counter("aa_total").add(2);
        let merged = r1.snapshot().merged(r2.snapshot());
        assert_eq!(merged.metrics.len(), 2);
        assert_eq!(merged.metrics[0].name, "aa_total");
        assert_eq!(merged.counter("zz_total"), Some(1));
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("n_total");
        let h = reg.histogram("v_ns");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (c, h) = (c.clone(), h.clone());
                std::thread::spawn(move || {
                    for v in 0..1000u64 {
                        c.inc();
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().sum, 4 * (999 * 1000 / 2));
    }
}
