//! The run engine: trace capture/caching, system assembly, and the
//! sharded execution of simulation cells over the content-addressed
//! result cache in [`crate::cache`].
//!
//! A grid cell is described once, by [`Harness::cell`] (or by
//! [`Harness::cells`] from registry names), and a batch of cells is run
//! by one call, [`Harness::run`]: the engine deduplicates the batch,
//! answers what it can from the cache, simulates the rest on a
//! self-scheduling worker pool, and returns one report per input cell in
//! input order. Each cell is a deterministic single-threaded simulation,
//! so results are bit-identical regardless of thread count or cache
//! state. [`Harness::timelines`] and [`Harness::simpoints`] take the same
//! cells.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

use tlp_plugin::{
    BuildCtx, ComponentRef, ComponentRegistry, PluginError, ResolvedScheme, SchemeSpec,
};
use tlp_sim::engine::{CoreSetup, System};
use tlp_sim::{EngineMode, SimReport, SystemConfig, TimelineConfig};
use tlp_trace::catalog::{self, Scale};
use tlp_trace::emit::Workload;
use tlp_trace::simpoint::{simpoints_of, BbvConfig, SimPoint};
use tlp_trace::{TraceRecord, TraceSource, VecTrace};
use tlp_tracestore::{
    capture_desc, StreamTrace, TraceKey, TraceLoad, TraceStore, TraceWorkload, CAPTURE_SIMPOINT_K,
    CAPTURE_SIMPOINT_SEED, TRACE_NAMESPACE,
};

use crate::cache::{self, DiskCache, EngineStats, ResultCache, RunKey};
use crate::plugins::builtin_registry;
use crate::scheme::{L1Pf, ResolvedL1Pf, Scheme};
use crate::timeline::TimelineRun;
use crate::tracetier::{TraceTier, TraceTierStats, DEFAULT_TRACE_MEM_CAP};

/// Simulation budgets and scale for a harness.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload scale (graph sizes, working sets).
    pub scale: Scale,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub instructions: u64,
    /// Multi-core mixes evaluated per suite (paper: 100).
    pub mixes_per_suite: usize,
    /// Single-core workloads per suite (None = the full 24+31 catalog).
    pub workloads_per_suite: Option<usize>,
    /// Worker threads for sweeps.
    pub threads: usize,
    /// Engine time-advance strategy. Cycle and event mode produce
    /// bit-identical reports (pinned by `tests/determinism.rs`), so the
    /// mode is deliberately **not** part of the cell content address —
    /// cached results are shared across modes.
    pub engine: EngineMode,
}

impl RunConfig {
    /// Unit/integration-test budget: tiny graphs, 25 K instructions.
    #[must_use]
    pub fn test() -> Self {
        Self {
            scale: Scale::Tiny,
            warmup: 5_000,
            instructions: 25_000,
            mixes_per_suite: 2,
            workloads_per_suite: Some(2),
            threads: available_threads(),
            engine: engine_from_env(),
        }
    }

    /// Bench/CI budget: Quick scale, 100 K instructions.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            scale: Scale::Quick,
            warmup: 20_000,
            instructions: 100_000,
            mixes_per_suite: 4,
            workloads_per_suite: Some(6),
            threads: available_threads(),
            engine: engine_from_env(),
        }
    }

    /// Full harness runs: Full scale, 1 M instructions.
    #[must_use]
    pub fn full() -> Self {
        Self {
            scale: Scale::Full,
            warmup: 200_000,
            instructions: 1_000_000,
            mixes_per_suite: 12,
            workloads_per_suite: None,
            threads: available_threads(),
            engine: engine_from_env(),
        }
    }
}

/// Worker-thread default: the `TLP_THREADS` environment variable when set
/// (CI pins the test matrix with it), else the machine's parallelism.
fn available_threads() -> usize {
    if let Some(n) = std::env::var("TLP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Engine-mode default: the `TLP_ENGINE` environment variable when set
/// (CI runs the golden/determinism suites under both modes with it), else
/// the event engine; the cycle engine stays the reference it is tested
/// against.
///
/// # Panics
///
/// Panics on an unrecognized `TLP_ENGINE` value — a typo silently falling
/// back to the default would defeat the CI matrix.
fn engine_from_env() -> EngineMode {
    match std::env::var("TLP_ENGINE") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|e| panic!("invalid TLP_ENGINE: {e}")),
        Err(_) => EngineMode::Event,
    }
}

/// The machine a cell simulates on.
#[derive(Debug, Clone)]
pub enum Machine {
    /// Table III's Cascade Lake with one core per workload, at an
    /// optional per-core DRAM bandwidth in GB/s (`None` keeps the
    /// default bus).
    CascadeLake(Option<f64>),
    /// An explicit single-core configuration plus a tag naming its
    /// deviation (e.g. the LLC replacement policy) for display. The key
    /// also folds in a digest of the whole config, so two cells reusing
    /// a tag with different hardware can never alias — the address stays
    /// content-based even across the persistent disk tier.
    Custom(Box<SystemConfig>, String),
}

/// One simulation cell of the evaluation grid: a content-addressed key, a
/// label (the key's description, for scheduling diagnostics, panic
/// messages and the profile's cell log), and everything needed to
/// simulate the cell on a cache miss. Built by [`Harness::cell`].
#[derive(Clone)]
pub struct RunCell {
    key: RunKey,
    label: String,
    workloads: Vec<Arc<dyn Workload>>,
    scheme: Arc<ResolvedScheme>,
    l1pf: Arc<ResolvedL1Pf>,
    config: SystemConfig,
}

impl RunCell {
    /// The cell's content-addressed key.
    #[must_use]
    pub fn key(&self) -> RunKey {
        self.key
    }

    /// The cell's display label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The workloads, one per core.
    #[must_use]
    pub fn workloads(&self) -> &[Arc<dyn Workload>] {
        &self.workloads
    }
}

impl std::fmt::Debug for RunCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCell")
            .field("key", &self.key.hex())
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// Result of a SimPoint-sampled run ([`Harness::simpoints`]): the
/// replayed regions (weights renormalized over the chosen `k`), their
/// individual reports, and the reconstituted full-run estimate.
#[derive(Debug, Clone)]
pub struct SimPointRun {
    /// Workload the estimate is for.
    pub workload: String,
    /// BBV interval length (instructions per region).
    pub interval: usize,
    /// The replayed SimPoints, by decreasing weight; weights sum to 1.
    pub regions: Vec<SimPoint>,
    /// One report per region, same order as `regions`.
    pub region_reports: Vec<SimReport>,
    /// The weighted full-run estimate.
    pub estimate: SimReport,
}

/// Errors from resolving registry names into cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Registry/spec errors (unknown components, bad parameters, ...).
    Plugin(PluginError),
    /// A workload name not present in the active catalog.
    UnknownWorkload {
        /// The unknown name.
        name: String,
        /// Closest catalog names, best first.
        did_you_mean: Vec<String>,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Plugin(e) => e.fmt(f),
            SessionError::UnknownWorkload { name, did_you_mean } => {
                write!(f, "unknown workload: {name}")?;
                if !did_you_mean.is_empty() {
                    write!(f, " (did you mean: {}?)", did_you_mean.join(", "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<PluginError> for SessionError {
    fn from(e: PluginError) -> Self {
        SessionError::Plugin(e)
    }
}

/// A resolved workload trace (see [`Harness::resolve_trace`]).
enum Trace {
    /// Records shared through the memory tier.
    Shared(Arc<Vec<TraceRecord>>),
    /// A stored TLPT v2 file, streamed from disk.
    Stream(Box<StreamTrace>),
}

/// The counters the harness adds to its cache's registry next to the
/// cache's own `run_cache_*` set: trace-tier resolutions
/// (`Harness::resolve_trace`) and engine totals (`Harness::run_system`).
const HARNESS_COUNTERS: [&str; 8] = [
    "trace_tier_mem_hits_total",
    "trace_tier_disk_hits_total",
    "trace_tier_captures_total",
    "trace_tier_evictions_total",
    "sim_ticks_executed_total",
    "sim_core_ticks_total",
    "sim_cycles_advanced_total",
    "sim_cycles_skipped_total",
];

/// `cache` with every harness counter registered at 0, so a scrape can
/// tell zero from not exported.
fn with_harness_counters(cache: ResultCache) -> ResultCache {
    for name in HARNESS_COUNTERS {
        let _ = cache.metrics().counter(name);
    }
    cache
}

/// The harness: a private clone of the built-in registry (so custom
/// registrations never leak across harnesses), cached traces, the
/// two-tier result cache, and the run engine.
pub struct Harness {
    /// The active run configuration.
    pub rc: RunConfig,
    registry: ComponentRegistry,
    workloads: Vec<Arc<dyn Workload>>,
    traces: Mutex<TraceTier>,
    trace_store: Option<Arc<TraceStore>>,
    cache: ResultCache,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("rc", &self.rc)
            .field("workloads", &self.workloads.len())
            .finish_non_exhaustive()
    }
}

impl Harness {
    /// Builds the harness and the 55-workload catalog at the configured
    /// scale, with a memory-only result cache.
    #[must_use]
    pub fn new(rc: RunConfig) -> Self {
        Self {
            rc,
            registry: builtin_registry().clone(),
            workloads: catalog::single_core_set(rc.scale),
            traces: Mutex::new(TraceTier::default()),
            trace_store: None,
            cache: with_harness_counters(ResultCache::in_memory()),
        }
    }

    /// Adds the on-disk cache tier under `dir` (created if absent).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn with_cache_dir(self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        Ok(self.with_disk_cache(DiskCache::open(dir)?))
    }

    /// Adds a pre-configured on-disk tier (e.g. one with a size cap from
    /// [`DiskCache::with_cap_bytes`]).
    #[must_use]
    pub fn with_disk_cache(mut self, disk: DiskCache) -> Self {
        self.cache = with_harness_counters(ResultCache::with_disk(disk));
        self
    }

    /// Adds the content-addressed on-disk trace store under `dir`
    /// (created if absent): fresh captures are persisted as TLPT v2 and
    /// later resolutions — in this process or a cold one — stream the
    /// stored file back instead of re-capturing.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn with_trace_dir(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.trace_store = Some(Arc::new(TraceStore::open(dir)?));
        Ok(self)
    }

    /// The configured trace store, when one backs this harness.
    #[must_use]
    pub fn trace_store(&self) -> Option<&Arc<TraceStore>> {
        self.trace_store.as_ref()
    }

    /// Snapshot of the trace-tier counters (captures, per-tier hits,
    /// evictions, corrupt store files, resident entries).
    #[must_use]
    pub fn trace_stats(&self) -> TraceTierStats {
        let m = self.metrics();
        TraceTierStats {
            mem_hits: m.counter("trace_tier_mem_hits_total").get(),
            disk_hits: m.counter("trace_tier_disk_hits_total").get(),
            captures: m.counter("trace_tier_captures_total").get(),
            evictions: m.counter("trace_tier_evictions_total").get(),
            corrupt: self.trace_store.as_ref().map_or(0, |s| s.corrupt_count()),
            resident: self.traces.lock().len() as u64,
        }
    }

    /// Snapshot of the run-engine counters (requests, hits per tier,
    /// simulations, batch dedup).
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.cache.stats()
    }

    /// The run cache's metrics registry (`run_cache_*` counters and
    /// phase histograms, plus the `sim_*` engine counters every
    /// simulation adds) — the substrate behind [`Harness::engine_stats`],
    /// `--profile` artifacts, and the serve daemon's `STATS` frame.
    #[must_use]
    pub fn metrics(&self) -> &tlp_obs::MetricsRegistry {
        self.cache.metrics()
    }

    /// The per-cell wall-clock timing log captured by the run engine
    /// (label, outcome, queue wait, total duration).
    #[must_use]
    pub fn cell_timings(&self) -> Vec<crate::cache::CellTiming> {
        self.cache.cell_timings()
    }

    /// The single-core workload set (SPEC first, then GAP).
    #[must_use]
    pub fn workloads(&self) -> &[Arc<dyn Workload>] {
        &self.workloads
    }

    /// The workload set experiments sweep: the full catalog, or the
    /// configured per-suite subset.
    #[must_use]
    pub fn active_workloads(&self) -> Vec<Arc<dyn Workload>> {
        match self.rc.workloads_per_suite {
            None => self.workloads.clone(),
            Some(n) => self.workload_subset(n),
        }
    }

    /// Workload names grouped by suite: `(spec, gap)`.
    fn suite_names(&self) -> (Vec<String>, Vec<String>) {
        let mut spec = Vec::new();
        let mut gap = Vec::new();
        for w in &self.workloads {
            match w.suite() {
                tlp_trace::emit::Suite::Spec => spec.push(w.name().to_owned()),
                tlp_trace::emit::Suite::Gap => gap.push(w.name().to_owned()),
            }
        }
        (spec, gap)
    }

    /// A subset of workloads for quick sweeps: every `stride`-th workload
    /// of each suite.
    fn workload_subset(&self, per_suite: usize) -> Vec<Arc<dyn Workload>> {
        let (spec, gap) = self.suite_names();
        let pick = |names: &[String]| -> Vec<String> {
            let step = (names.len() / per_suite.max(1)).max(1);
            names
                .iter()
                .step_by(step)
                .take(per_suite)
                .cloned()
                .collect()
        };
        let mut chosen: Vec<String> = pick(&spec);
        chosen.extend(pick(&gap));
        self.workloads
            .iter()
            .filter(|w| chosen.iter().any(|c| c == w.name()))
            .cloned()
            .collect()
    }

    /// The trace for a workload, long enough for the configured warmup +
    /// measurement, resolved `trace:` file → memory → store → capture.
    ///
    /// # Panics
    ///
    /// Panics when a `trace:` workload's backing file disappears or fails
    /// validation after [`Harness::workload`] vetted it.
    #[must_use]
    pub fn trace_for(&self, w: &Arc<dyn Workload>) -> Box<dyn TraceSource> {
        match self.resolve_trace(w) {
            Trace::Shared(recs) => Box::new(VecTrace::looping_shared(w.name().to_owned(), recs)),
            Trace::Stream(t) => t,
        }
    }

    /// Resolves a workload's trace, `trace:` file → memory → store →
    /// capture:
    ///
    /// 1. A `trace:` workload ([`Workload::trace_path`]) streams its
    ///    backing file directly — nothing to capture, nothing to cache.
    /// 2. The in-memory tier shares the captured records zero-copy.
    /// 3. The on-disk store (when configured) streams the stored TLPT v2
    ///    file — replay never materializes the records, and a warm trace
    ///    dir makes cold-process runs capture nothing.
    /// 4. Otherwise the workload is captured into the memory tier and
    ///    persisted, with its capture-time SimPoints, to the store when
    ///    one is configured.
    ///
    /// A capture is a function of the workload and the budget, so every
    /// path yields the same records. The walk holds the tier lock only so
    /// that each workload is captured once per harness. Each step counts
    /// on [`Harness::metrics`] as `trace_tier_{disk_hits,mem_hits,
    /// captures,evictions}_total`.
    fn resolve_trace(&self, w: &Arc<dyn Workload>) -> Trace {
        let m = self.metrics();
        if let Some(path) = w.trace_path() {
            let t = StreamTrace::open(path).unwrap_or_else(|e| {
                panic!(
                    "trace workload '{}': cannot open {}: {e}",
                    w.name(),
                    path.display()
                )
            });
            m.counter("trace_tier_disk_hits_total").inc();
            return Trace::Stream(Box::new(t));
        }
        let name = w.name();
        let mut tier = self.traces.lock();
        if let Some(recs) = tier.touch(name) {
            m.counter("trace_tier_mem_hits_total").inc();
            return Trace::Shared(recs);
        }
        let key = self.capture_key(name);
        if let Some(store) = &self.trace_store {
            if let TraceLoad::Hit(t) = store.open_trace(key) {
                m.counter("trace_tier_disk_hits_total").inc();
                return Trace::Stream(t);
            }
        }
        let recs = Arc::new(tlp_trace::capture(w.as_ref(), self.trace_budget()));
        m.counter("trace_tier_captures_total").inc();
        if let Some(store) = &self.trace_store {
            let cfg = BbvConfig::standard();
            let sps = simpoints_of(&recs, cfg, CAPTURE_SIMPOINT_K, CAPTURE_SIMPOINT_SEED);
            // A failed write costs a later process a re-capture, nothing more.
            let _ = store.save(key, name, true, &recs, &sps, cfg.interval);
        }
        tier.insert(name.to_owned(), Arc::clone(&recs));
        m.counter("trace_tier_evictions_total")
            .add(tier.evict_to(DEFAULT_TRACE_MEM_CAP));
        Trace::Shared(recs)
    }

    /// Capture budget in records: enough for warmup + measurement with
    /// slack for the frontend pipeline to stay fed at the end.
    fn trace_budget(&self) -> usize {
        (self.rc.warmup + self.rc.instructions) as usize + 4096
    }

    /// The store key of this harness's capture of `name` — workload,
    /// capture environment, and budget all feed the content address.
    fn capture_key(&self, name: &str) -> TraceKey {
        TraceKey::from_desc(&capture_desc(&self.env_desc(), name, self.trace_budget()))
    }

    /// The run-budget fragment of every cell description: anything here
    /// changes simulation results, so it is part of the content address.
    fn env_desc(&self) -> String {
        format!(
            "{:?}|w{}|i{}",
            self.rc.scale, self.rc.warmup, self.rc.instructions
        )
    }

    /// The harness's registry (for lookups and listings).
    #[must_use]
    pub fn registry(&self) -> &ComponentRegistry {
        &self.registry
    }

    /// The harness's registry, mutably — register custom components and
    /// schemes here before composing specs that name them.
    pub fn registry_mut(&mut self) -> &mut ComponentRegistry {
        &mut self.registry
    }

    /// Resolves a spec against this harness's registry and dry-runs its
    /// factories, so malformed parameters surface here as `Err` instead
    /// of panicking a worker thread at simulation time.
    ///
    /// # Errors
    ///
    /// Returns unknown-component errors (with did-you-mean suggestions)
    /// and factory parameter errors.
    pub fn resolve_spec(&self, spec: &SchemeSpec) -> Result<Arc<ResolvedScheme>, SessionError> {
        let resolved = self.registry.resolve(spec)?;
        resolved.validate()?;
        Ok(Arc::new(resolved))
    }

    /// Looks a named scheme up and resolves it.
    ///
    /// # Errors
    ///
    /// Returns unknown-scheme/component errors with suggestions.
    pub fn resolve_scheme_name(&self, name: &str) -> Result<Arc<ResolvedScheme>, SessionError> {
        let spec = self.registry.scheme(name)?.clone();
        self.resolve_spec(&spec)
    }

    /// Resolves an L1D prefetcher by name (dry-building it, so factory
    /// errors surface here).
    ///
    /// # Errors
    ///
    /// Returns unknown-component errors with suggestions and factory
    /// parameter errors.
    pub fn resolve_l1pf_name(&self, name: &str) -> Result<Arc<ResolvedL1Pf>, SessionError> {
        let resolved = self
            .registry
            .resolve_l1_prefetcher(&ComponentRef::new(name))?;
        resolved.build(&mut BuildCtx::new()).map(drop)?;
        Ok(Arc::new(resolved))
    }

    /// Finds a workload by name: a catalog workload, or a `trace:NAME`
    /// import from the trace store (whose file must exist and validate).
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::UnknownWorkload`], with catalog
    /// suggestions for catalog names.
    pub fn workload(&self, name: &str) -> Result<Arc<dyn Workload>, SessionError> {
        let unknown = |did_you_mean| SessionError::UnknownWorkload {
            name: name.to_owned(),
            did_you_mean,
        };
        if let Some(short) = name.strip_prefix(TRACE_NAMESPACE) {
            let store = self.trace_store.as_ref();
            return store
                .and_then(|s| TraceWorkload::open(short, s.import_path(short)).ok())
                .map(|w| Arc::new(w) as Arc<dyn Workload>)
                .ok_or_else(|| unknown(Vec::new()));
        }
        self.workloads
            .iter()
            .find(|w| w.name() == name)
            .cloned()
            .ok_or_else(|| {
                unknown(tlp_plugin::suggest(
                    name,
                    self.workloads.iter().map(|w| w.name()),
                ))
            })
    }

    /// Describes one cell: `workloads` (one for a single-core cell, four
    /// for a mix) under `scheme` and `l1pf` on `machine`. The key is the
    /// hash of the cell's description ([`cache::single_desc`],
    /// [`cache::mix_desc`] or [`cache::custom_desc`]), which covers the
    /// run budget, the scheme's [`cache_key`](ResolvedScheme::cache_key)
    /// and the prefetcher's canonical fragment.
    ///
    /// # Panics
    ///
    /// Panics unless the cell has one workload, or four on
    /// [`Machine::CascadeLake`].
    #[must_use]
    pub fn cell(
        &self,
        workloads: &[Arc<dyn Workload>],
        scheme: Arc<ResolvedScheme>,
        l1pf: Arc<ResolvedL1Pf>,
        machine: Machine,
    ) -> RunCell {
        let env = self.env_desc();
        let cascade_lake = |cores, gbps| match gbps {
            Some(b) => SystemConfig::cascade_lake_with_bandwidth(cores, b),
            None => SystemConfig::cascade_lake(cores),
        };
        let (label, config) = match (workloads, machine) {
            ([w], Machine::CascadeLake(gbps)) => (
                cache::single_desc(
                    &env,
                    w.name(),
                    &scheme.cache_key,
                    &l1pf.key,
                    &cache::bandwidth_desc(gbps),
                ),
                cascade_lake(1, gbps),
            ),
            ([a, b, c, d], Machine::CascadeLake(gbps)) => (
                cache::mix_desc(
                    &env,
                    [a.name(), b.name(), c.name(), d.name()],
                    &scheme.cache_key,
                    &l1pf.key,
                    &cache::bandwidth_desc(gbps),
                ),
                cascade_lake(4, gbps),
            ),
            ([w], Machine::Custom(config, tag)) => {
                let digest = RunKey::from_desc(&format!("{config:?}")).hex();
                let desc = cache::custom_desc(
                    &env,
                    w.name(),
                    &scheme.cache_key,
                    &l1pf.key,
                    &format!("{tag}#{digest}"),
                );
                (desc, *config)
            }
            (ws, _) => panic!(
                "a cell runs one workload, or four on the Cascade Lake machine (got {})",
                ws.len()
            ),
        };
        RunCell {
            key: RunKey::from_desc(&label),
            label,
            workloads: workloads.to_vec(),
            scheme,
            l1pf,
            config,
        }
    }

    /// Single-core cells on the default machine from registry names —
    /// the one name-resolution rule the CLI and the serve daemon share:
    /// the spec and the prefetcher are resolved and validated, an empty
    /// `workloads` list means the active set, `trace:` imports are
    /// accepted, and repeated names are dropped (first occurrence kept).
    /// Nothing simulates here.
    ///
    /// # Errors
    ///
    /// Propagates resolution and workload-lookup errors.
    pub fn cells(
        &self,
        spec: &SchemeSpec,
        l1pf: &str,
        workloads: &[String],
    ) -> Result<Vec<RunCell>, SessionError> {
        let scheme = self.resolve_spec(spec)?;
        let l1pf = self.resolve_l1pf_name(l1pf)?;
        let ws = if workloads.is_empty() {
            self.active_workloads()
        } else {
            let mut seen = HashSet::new();
            workloads
                .iter()
                .filter(|n| seen.insert(n.as_str()))
                .map(|n| self.workload(n))
                .collect::<Result<_, _>>()?
        };
        Ok(ws
            .iter()
            .map(|w| {
                self.cell(
                    std::slice::from_ref(w),
                    Arc::clone(&scheme),
                    Arc::clone(&l1pf),
                    Machine::CascadeLake(None),
                )
            })
            .collect())
    }

    /// Assembles one core's system through the resolved scheme's
    /// factories. A factory failure here is a panic, not an error: cell
    /// creation goes through registry resolution, so by the time a cell
    /// simulates, its names were valid — only a parameter a factory
    /// rejects at build time can still fail, and that aborts the run
    /// loudly with the scheme named.
    fn assemble(
        &self,
        scheme: &ResolvedScheme,
        l1pf: &ResolvedL1Pf,
        trace: Box<dyn TraceSource>,
    ) -> CoreSetup {
        scheme
            .build_setup(trace, Some(l1pf), &mut BuildCtx::new())
            .unwrap_or_else(|e| panic!("cannot assemble scheme '{}': {e}", scheme.name))
    }

    /// The cell's system, one core per workload, ready to run.
    fn system(&self, cell: &RunCell) -> System {
        let setups = cell
            .workloads
            .iter()
            .map(|w| self.assemble(&cell.scheme, &cell.l1pf, self.trace_for(w)))
            .collect();
        System::new(cell.config.clone(), setups).with_engine_mode(self.rc.engine)
    }

    /// Simulates one cell from scratch (no cache involvement). Each cell
    /// is a deterministic, single-threaded simulation, which is what makes
    /// content addressing and thread-count invariance sound.
    fn simulate(&self, cell: &RunCell) -> SimReport {
        self.run_system(&mut self.system(cell), self.rc.warmup, self.rc.instructions)
    }

    /// Runs `sys` (see [`System::run`]) and adds its engine totals to
    /// [`Harness::metrics`]: executed ticks, executed core stages, cycles
    /// advanced, and the idle cycles the event engine skipped. The
    /// `System` counts these anyway, so reading them once per run keeps
    /// the counters on at no per-tick cost.
    pub(crate) fn run_system(&self, sys: &mut System, warmup: u64, measure: u64) -> SimReport {
        let report = sys.run(warmup, measure);
        let m = self.metrics();
        let (ticks, cycles) = (sys.ticks_executed(), sys.cycle());
        m.counter("sim_ticks_executed_total").add(ticks);
        m.counter("sim_core_ticks_total")
            .add(sys.core_ticks_executed().iter().sum());
        m.counter("sim_cycles_advanced_total").add(cycles);
        m.counter("sim_cycles_skipped_total").add(cycles - ticks);
        report
    }

    /// Captures the simulated-time telemetry of each cell, one
    /// [`TimelineRun`] per input cell in input order: a cell re-simulates
    /// with a [`tlp_timeline::Recorder`] attached, on the worker pool, and
    /// the resulting timeline is content-addressed under its own key (the
    /// cell's label plus the timeline parameters), cached in a blob tier
    /// separate from `SimReport`s.
    ///
    /// Captures are single-flighted like reports: concurrent requesters
    /// of one key (another batch, thread, or service client) share one
    /// capture. The capture is deterministic — bit-identical across
    /// engine modes, thread counts, and warm/cold caches. The
    /// instrumented run's `SimReport` is discarded (the plain cell
    /// already covers it), so timeline capture can never perturb a cached
    /// report.
    #[must_use]
    pub fn timelines(&self, cells: &[RunCell], tcfg: TimelineConfig) -> Vec<TimelineRun> {
        let (unique, slot) = dedup(cells);
        let timelines = self.parallel_map_labeled(
            unique,
            |&i, _| cells[i].label.clone(),
            |&i| {
                let cell = &cells[i];
                let key = RunKey::from_desc(&format!(
                    "{}|timeline|w{}|k{}",
                    cell.label, tcfg.window_cycles, tcfg.journey_every
                ));
                self.cache.timeline(key, || {
                    let mut sys = self.system(cell);
                    sys.enable_timeline(tcfg);
                    let _ = self.run_system(&mut sys, self.rc.warmup, self.rc.instructions);
                    sys.take_timeline()
                        .expect("timeline enabled before the run")
                })
            },
        );
        cells
            .iter()
            .zip(slot)
            .map(|(cell, u)| TimelineRun {
                workload: cell
                    .workloads
                    .iter()
                    .map(|w| w.name())
                    .collect::<Vec<_>>()
                    .join("+"),
                scheme: cell.scheme.name.clone(),
                l1pf: cell.l1pf.key.clone(),
                timeline: Arc::clone(&timelines[u]),
            })
            .collect()
    }

    /// SimPoint-sampled estimate of one single-core cell (paper
    /// methodology): replays the top-`k` SimPoint regions of the
    /// workload's trace (each one BBV interval long) on the cell's
    /// machine and reconstitutes a full-run estimate by weighted merge,
    /// with region weights renormalized over the chosen `k` and scaled to
    /// full-run units. Region runs are uncached (they are a fraction of a
    /// full cell's cost) and run on the configured worker pool.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`, when the cell has more than one workload, or
    /// when the trace is shorter than one SimPoint interval.
    #[must_use]
    pub fn simpoints(&self, cell: &RunCell, k: usize) -> SimPointRun {
        assert!(k > 0, "need at least one SimPoint region");
        let [w] = cell.workloads.as_slice() else {
            panic!(
                "SimPoint sampling replays a single-core cell; {} has {} workloads",
                cell.label,
                cell.workloads.len()
            );
        };
        let cfg = BbvConfig::standard();
        let recs = match self.resolve_trace(w) {
            Trace::Shared(recs) => recs,
            Trace::Stream(mut t) => Arc::new(t.read_records()),
        };
        let mut sps = simpoints_of(&recs, cfg, CAPTURE_SIMPOINT_K, CAPTURE_SIMPOINT_SEED);
        assert!(
            !sps.is_empty(),
            "trace of {} records is shorter than one SimPoint interval ({})",
            recs.len(),
            cfg.interval
        );
        sps.truncate(k);
        let total: f64 = sps.iter().map(|p| p.weight).sum();
        for p in &mut sps {
            p.weight /= total;
        }
        // Each region replays one interval: proportionally scaled warmup,
        // then measure at most one interval's worth of instructions.
        let measure = (cfg.interval as u64).min(self.rc.instructions).max(1);
        let warm = (cfg.interval as u64 / 4).min(self.rc.warmup);
        let region_reports = self.parallel_map_labeled(
            sps.clone(),
            |p, _| format!("{}@sp{}", w.name(), p.interval),
            |p| {
                let start = p.interval * cfg.interval;
                let end = (start + cfg.interval).min(recs.len());
                let region = recs[start..end].to_vec();
                let trace = VecTrace::looping(format!("{}@sp{}", w.name(), p.interval), region);
                let setup = self.assemble(&cell.scheme, &cell.l1pf, Box::new(trace));
                let mut sys =
                    System::new(cell.config.clone(), vec![setup]).with_engine_mode(self.rc.engine);
                self.run_system(&mut sys, warm, measure)
            },
        );
        // Scale weights so the estimate lands in full-run units.
        let scale = self.rc.instructions as f64 / measure as f64;
        let weights: Vec<f64> = sps.iter().map(|p| p.weight * scale).collect();
        let estimate = tlp_tracestore::weighted_merge(&region_reports, &weights);
        SimPointRun {
            workload: w.name().to_owned(),
            interval: cfg.interval,
            regions: sps,
            region_reports,
            estimate,
        }
    }

    /// Runs a batch of cells and returns one report per input cell, in
    /// input order. Duplicates are coalesced (counted as `deduped`),
    /// cached cells answer instantly, and the remainder is simulated on a
    /// self-scheduling pool of `rc.threads` workers, each claiming the
    /// next unclaimed cell. Resolution goes through the cache's
    /// single-flight layer, so a cell another concurrent batch (or
    /// service client) is already simulating is *waited for*, not
    /// re-simulated: every unique cell is simulated exactly once per
    /// cache lifetime, even across overlapping batches.
    pub fn run(&self, cells: &[RunCell]) -> Vec<Arc<SimReport>> {
        self.run_streaming(cells, |_, _, _| {})
    }

    /// [`Harness::run`] with a completion callback: `on_ready(i, cell,
    /// report)` fires once per unique cell, from the worker that resolved
    /// it (`i` is the cell's first position in `cells`), the moment its
    /// report is available — cache hits immediately, misses as each
    /// simulation (or coalesced wait on another requester's flight)
    /// finishes. This is what lets `tlp-serve` stream per-cell result
    /// frames back to clients. The callback runs concurrently on pool
    /// workers, so it must be `Sync` and should stay cheap.
    pub fn run_streaming<F>(&self, cells: &[RunCell], on_ready: F) -> Vec<Arc<SimReport>>
    where
        F: Fn(usize, &RunCell, &Arc<SimReport>) + Sync,
    {
        let (unique, slot) = dedup(cells);
        self.cache.note_deduped((cells.len() - unique.len()) as u64);
        // Queue wait is measured from batch submission to worker pickup —
        // the per-cell phase the profile artifact breaks out.
        let submitted = std::time::Instant::now();
        let reports = self.parallel_map_labeled(
            unique,
            |&i, _| cells[i].label.clone(),
            |&i| {
                let cell = &cells[i];
                let wait = u64::try_from(submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let report = self
                    .cache
                    .get_or_run(cell.key, Some(&cell.label), wait, || self.simulate(cell));
                on_ready(i, cell, &report);
                report
            },
        );
        slot.into_iter().map(|u| Arc::clone(&reports[u])).collect()
    }

    /// A content-addressed key for one step of a *stateful* simulation
    /// sequence (e.g. a persistent-agent learning-curve epoch), run
    /// through [`Harness::run_sequence`]. `step` must uniquely identify
    /// the position and nature of the step within the sequence.
    #[must_use]
    pub(crate) fn sequence_key(
        &self,
        w: &Arc<dyn Workload>,
        scheme: Scheme,
        l1pf: L1Pf,
        step: &str,
    ) -> RunKey {
        RunKey::from_desc(&cache::custom_desc(
            &self.env_desc(),
            w.name(),
            &scheme.key(),
            l1pf.name(),
            &format!("seq:{step}"),
        ))
    }

    /// Runs a sequence of cells whose simulations are stateful across the
    /// sequence (later steps depend on state accumulated by earlier ones,
    /// so a step can never be simulated standalone). Caching is therefore
    /// all-or-nothing: if every key hits, the cached reports are returned
    /// and nothing is simulated; otherwise `simulate_all` re-runs the
    /// whole sequence and every step is stored.
    ///
    /// # Panics
    ///
    /// Panics when `simulate_all` returns a different number of reports
    /// than `keys`.
    pub(crate) fn run_sequence<F>(&self, keys: &[RunKey], simulate_all: F) -> Vec<SimReport>
    where
        F: FnOnce() -> Vec<SimReport>,
    {
        let cached: Vec<Option<Arc<SimReport>>> =
            keys.iter().map(|&k| self.cache.lookup(k)).collect();
        if cached.iter().all(Option::is_some) {
            return cached
                .into_iter()
                .map(|r| (*r.expect("checked above")).clone())
                .collect();
        }
        let reports = simulate_all();
        assert_eq!(
            reports.len(),
            keys.len(),
            "simulate_all must produce one report per sequence key"
        );
        for (&k, r) in keys.iter().zip(&reports) {
            self.cache.insert_simulated(k, r.clone());
        }
        reports
    }

    /// Maps `f` over `items` on the configured number of worker threads,
    /// preserving order. A panicking closure re-panics on the caller with
    /// the failing item's `label`, so a dead cell in a thousand-cell grid
    /// is identifiable.
    pub(crate) fn parallel_map_labeled<T, R, F, L>(&self, items: Vec<T>, label: L, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
        L: Fn(&T, usize) -> String,
    {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let threads = self.rc.threads.max(1);
        let n = items.len();
        let run_one = |i: usize| -> Result<R, String> {
            catch_unwind(AssertUnwindSafe(|| f(&items[i])))
                .map_err(|payload| panic_message(payload.as_ref()))
        };
        let fail = |i: usize, msg: &str| {
            panic!(
                "worker panicked on {} ({} of {n}): {msg}",
                label(&items[i], i),
                i + 1
            )
        };
        if threads == 1 || n <= 1 {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                match run_one(i) {
                    Ok(r) => out.push(r),
                    Err(msg) => fail(i, &msg),
                }
            }
            return out;
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<R, String>)>();
        let (run_ref, next_ref) = (&run_one, &next);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(n) {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let i = next_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if tx.send((i, run_ref(i))).is_err() {
                        break;
                    }
                });
            }
        });
        drop(tx);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut failure: Option<(usize, String)> = None;
        while let Ok((i, r)) = rx.recv() {
            match r {
                Ok(v) => results[i] = Some(v),
                Err(msg) => {
                    // Keep the lowest-index failure for a deterministic
                    // message when several workers panic.
                    if failure.as_ref().is_none_or(|(j, _)| i < *j) {
                        failure = Some((i, msg));
                    }
                }
            }
        }
        if let Some((i, msg)) = failure {
            fail(i, &msg);
        }
        results
            .into_iter()
            .map(|r| r.expect("every index produced"))
            .collect()
    }
}

/// Deduplicates a batch by key: the index of each key's first cell, and
/// for every cell the position of its key in that list.
fn dedup(cells: &[RunCell]) -> (Vec<usize>, Vec<usize>) {
    let mut first = HashMap::new();
    let mut unique = Vec::new();
    let slot = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            *first.entry(c.key).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            })
        })
        .collect();
    (unique, slot)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Geometric mean of (1 + x) ratios expressed as percent deltas:
/// `geomean_speedup_percent([5.0, 10.0])` treats inputs as +5%, +10%.
#[must_use]
pub fn geomean_speedup_percent(percents: &[f64]) -> f64 {
    if percents.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = percents
        .iter()
        .map(|p| (1.0 + p / 100.0).max(1e-9).ln())
        .sum();
    ((log_sum / percents.len() as f64).exp() - 1.0) * 100.0
}

/// Arithmetic mean.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(
        h: &Harness,
        w: &Arc<dyn Workload>,
        s: Scheme,
        p: L1Pf,
        gbps: Option<f64>,
    ) -> RunCell {
        h.cell(
            std::slice::from_ref(w),
            s.resolve(),
            p.resolve(),
            Machine::CascadeLake(gbps),
        )
    }

    #[test]
    fn geomean_of_uniform_is_identity() {
        assert!((geomean_speedup_percent(&[10.0, 10.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean_speedup_percent(&[]), 0.0);
    }

    #[test]
    fn geomean_mixes_gains_and_losses() {
        let g = geomean_speedup_percent(&[50.0, -33.333_333_333]);
        assert!(g.abs() < 0.01, "×1.5 and ×(2/3) must cancel: {g}");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let h = Harness::new(RunConfig::test());
        let out =
            h.parallel_map_labeled((0..100).collect(), |_, i| format!("item {i}"), |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "worker panicked on item 13 (14 of 32): boom at 13")]
    fn parallel_map_panic_names_the_failing_item() {
        let h = Harness::new(RunConfig::test());
        let _ = h.parallel_map_labeled(
            (0..32).collect(),
            |_, i| format!("item {i}"),
            |&x: &i32| {
                assert!(x != 13, "boom at {x}");
                x
            },
        );
    }

    #[test]
    #[should_panic(expected = "worker panicked on cell doomed-cell")]
    fn labeled_panic_carries_the_cell_label() {
        let mut rc = RunConfig::test();
        rc.threads = 1; // Exercise the sequential path's guard too.
        let h = Harness::new(rc);
        let _ = h.parallel_map_labeled(
            vec!["ok", "doomed", "ok"],
            |item, _| format!("cell {item}-cell"),
            |item| assert!(*item != "doomed", "poof"),
        );
    }

    #[test]
    fn trace_cache_returns_identical_traces() {
        let h = Harness::new(RunConfig::test());
        let w = &h.workloads()[0].clone();
        let mut a = h.trace_for(w);
        let mut b = h.trace_for(w);
        for _ in 0..100 {
            assert_eq!(a.next_record(), b.next_record());
        }
    }

    #[test]
    fn subset_takes_from_both_suites() {
        let h = Harness::new(RunConfig::test());
        let sub = h.workload_subset(2);
        assert_eq!(sub.len(), 4);
        let suites: std::collections::HashSet<_> = sub.iter().map(|w| w.suite()).collect();
        assert_eq!(suites.len(), 2);
    }

    #[test]
    fn cell_keys_separate_every_grid_axis() {
        let h = Harness::new(RunConfig::test());
        let w = h.workloads()[0].clone();
        let v = h.workloads()[1].clone();
        let (base, ipcp) = (Scheme::Baseline.resolve(), L1Pf::Ipcp.resolve());
        let cells = [
            single(&h, &w, Scheme::Baseline, L1Pf::Ipcp, None),
            single(&h, &v, Scheme::Baseline, L1Pf::Ipcp, None),
            single(&h, &w, Scheme::Tlp, L1Pf::Ipcp, None),
            single(&h, &w, Scheme::Baseline, L1Pf::Berti, None),
            single(&h, &w, Scheme::Baseline, L1Pf::Ipcp, Some(12.8)),
            h.cell(
                &[w.clone(), w.clone(), w.clone(), w.clone()],
                Arc::clone(&base),
                Arc::clone(&ipcp),
                Machine::CascadeLake(None),
            ),
            h.cell(
                std::slice::from_ref(&w),
                base,
                ipcp,
                Machine::Custom(Box::new(SystemConfig::cascade_lake(1)), "lru".to_owned()),
            ),
        ];
        let keys: HashSet<RunKey> = cells.iter().map(RunCell::key).collect();
        assert_eq!(keys.len(), cells.len(), "every axis must change the key");
    }

    #[test]
    fn cell_keys_depend_on_the_run_budget() {
        let h1 = Harness::new(RunConfig::test());
        let mut rc = RunConfig::test();
        rc.instructions += 1;
        let h2 = Harness::new(rc);
        let w = h1.workloads()[0].clone();
        assert_ne!(
            single(&h1, &w, Scheme::Baseline, L1Pf::Ipcp, None).key(),
            single(&h2, &w, Scheme::Baseline, L1Pf::Ipcp, None).key(),
        );
    }

    #[test]
    #[should_panic(expected = "SimPoint sampling replays a single-core cell")]
    fn simpoints_reject_a_mix_cell() {
        let h = Harness::new(RunConfig::test());
        let w = h.workloads()[0].clone();
        let mix = h.cell(
            &[w.clone(), w.clone(), w.clone(), w],
            Scheme::Baseline.resolve(),
            L1Pf::Ipcp.resolve(),
            Machine::CascadeLake(None),
        );
        let _ = h.simpoints(&mix, 1);
    }

    #[test]
    fn run_cells_deduplicates_and_fills_the_cache() {
        let mut rc = RunConfig::test();
        rc.warmup = 1_000;
        rc.instructions = 4_000;
        let h = Harness::new(rc);
        let w = h.workloads()[0].clone();
        let a = single(&h, &w, Scheme::Baseline, L1Pf::Ipcp, None);
        let reports = h.run(&[a.clone(), a.clone(), a.clone()]);
        assert_eq!(reports.len(), 3, "one report per input cell");
        assert!(Arc::ptr_eq(&reports[0], &reports[1]));
        assert!(Arc::ptr_eq(&reports[0], &reports[2]));
        let st = h.engine_stats();
        assert_eq!(st.simulated, 1, "triplicate cell simulates once");
        assert_eq!(st.deduped, 2);
        assert_eq!(st.requested, 1, "a batch looks each unique cell up once");
        // A second batch is a pure cache hit.
        let again = h.run(&[a]);
        assert!(Arc::ptr_eq(&reports[0], &again[0]));
        let st = h.engine_stats();
        assert_eq!(st.simulated, 1);
        assert_eq!(st.mem_hits, 1);
    }
}
