//! The run engine: trace capture/caching, system assembly, and the
//! sharded execution of simulation cells over the content-addressed
//! result cache in [`crate::cache`].
//!
//! Experiments describe the grid cells they need as [`RunCell`]s and
//! submit them through [`Harness::run_cells`]; the engine deduplicates the
//! batch, answers what it can from the cache, and simulates the rest on a
//! self-scheduling worker pool. Collection then happens sequentially
//! through the cached getters ([`Harness::run_single`],
//! [`Harness::run_mix`], ...), so results are bit-identical regardless of
//! thread count or cache state.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use tlp_plugin::{BuildCtx, ResolvedScheme};
use tlp_sim::engine::{CoreSetup, System};
use tlp_sim::{EngineMode, SimReport, SystemConfig, Timeline, TimelineConfig};
use tlp_trace::catalog::{self, Scale};
use tlp_trace::emit::Workload;
use tlp_trace::simpoint::{simpoints_of, BbvConfig, SimPoint};
use tlp_trace::{TraceRecord, TraceSource, VecTrace};
use tlp_tracestore::{
    capture_desc, StreamTrace, TraceKey, TraceLoad, TraceStore, TraceWorkload, CAPTURE_SIMPOINT_K,
    CAPTURE_SIMPOINT_SEED, TRACE_NAMESPACE,
};

use crate::cache::{self, DiskCache, EngineStats, ResultCache, RunKey};
use crate::scheme::{L1Pf, ResolvedL1Pf, Scheme};
use crate::tracetier::{TraceTier, TraceTierCounters, TraceTierStats, DEFAULT_TRACE_MEM_CAP};

/// Simulation budgets and scale for a harness session.
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

/// One simulation cell of the evaluation grid: a content-addressed key, a
/// human-readable label (for scheduling diagnostics and panic messages),
/// and everything needed to simulate the cell on a cache miss.
pub struct RunCell {
    key: RunKey,
    label: String,
    kind: CellKind,
}

enum CellKind {
    Single {
        workload: Arc<dyn Workload>,
        scheme: Arc<ResolvedScheme>,
        l1pf: Arc<ResolvedL1Pf>,
        gbps: Option<f64>,
    },
    Mix {
        workloads: [Arc<dyn Workload>; 4],
        scheme: Arc<ResolvedScheme>,
        l1pf: Arc<ResolvedL1Pf>,
        gbps: Option<f64>,
    },
    Custom {
        workload: Arc<dyn Workload>,
        scheme: Arc<ResolvedScheme>,
        l1pf: Arc<ResolvedL1Pf>,
        cfg: Box<SystemConfig>,
    },
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
}

impl std::fmt::Debug for RunCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCell")
            .field("key", &self.key.hex())
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// Result of a SimPoint-sampled run ([`Harness::run_simpoints`]): the
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

/// The harness: cached traces, the two-tier result cache, and run helpers.
pub struct Harness {
    /// The active run configuration.
    pub rc: RunConfig,
    workloads: Vec<Arc<dyn Workload>>,
    traces: Mutex<TraceTier>,
    trace_store: Option<Arc<TraceStore>>,
    /// Explicit memory-tier cap; `None` = unbounded without a store,
    /// [`DEFAULT_TRACE_MEM_CAP`] with one.
    trace_mem_cap: Option<usize>,
    tstats: TraceTierCounters,
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
            workloads: catalog::single_core_set(rc.scale),
            traces: Mutex::new(TraceTier::default()),
            trace_store: None,
            trace_mem_cap: None,
            tstats: TraceTierCounters::default(),
            cache: ResultCache::in_memory(),
        }
    }

    /// Adds the on-disk cache tier under `dir` (created if absent).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.cache = ResultCache::with_disk(DiskCache::open(dir)?);
        Ok(self)
    }

    /// Adds a pre-configured on-disk tier (e.g. one with a size cap from
    /// [`DiskCache::with_cap_bytes`]).
    #[must_use]
    pub fn with_disk_cache(mut self, disk: DiskCache) -> Self {
        self.cache = ResultCache::with_disk(disk);
        self
    }

    /// Adds the content-addressed on-disk trace store under `dir`
    /// (created if absent): fresh captures are persisted as TLPT v2 and
    /// later resolutions — in this process or a cold one — stream the
    /// stored file back instead of re-capturing. Also caps the in-memory
    /// trace tier at [`DEFAULT_TRACE_MEM_CAP`] workloads unless
    /// [`Harness::with_trace_mem_cap`] says otherwise.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn with_trace_dir(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.trace_store = Some(Arc::new(TraceStore::open(dir)?));
        Ok(self)
    }

    /// Shares an already-open trace store (e.g. the serve daemon's single
    /// store across sessions).
    #[must_use]
    pub fn with_trace_store(mut self, store: Arc<TraceStore>) -> Self {
        self.trace_store = Some(store);
        self
    }

    /// Caps the in-memory trace tier at `cap` workloads (LRU eviction;
    /// entries not yet persisted to the store stay pinned regardless).
    #[must_use]
    pub fn with_trace_mem_cap(mut self, cap: usize) -> Self {
        self.trace_mem_cap = Some(cap.max(1));
        self
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
        let corrupt = self.trace_store.as_ref().map_or(0, |s| s.corrupt_count());
        let resident = self.traces.lock().len() as u64;
        self.tstats.snapshot(corrupt, resident)
    }

    /// Resolves a `trace:NAME` workload against the store's imports.
    /// Returns `None` when the name lacks the prefix, no store is
    /// configured, the import doesn't exist, or its file fails
    /// validation.
    #[must_use]
    pub fn trace_workload(&self, name: &str) -> Option<Arc<dyn Workload>> {
        let short = name.strip_prefix(TRACE_NAMESPACE)?;
        let store = self.trace_store.as_ref()?;
        let path = store.import_path(short);
        if !path.exists() {
            return None;
        }
        TraceWorkload::open(short, path)
            .ok()
            .map(|w| Arc::new(w) as Arc<dyn Workload>)
    }

    /// Snapshot of the run-engine counters (requests, hits per tier,
    /// simulations, batch dedup).
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.cache.stats()
    }

    /// The run cache's metrics registry (`run_cache_*` counters and
    /// phase histograms) — the substrate behind [`Harness::engine_stats`],
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
    #[must_use]
    pub fn suite_names(&self) -> (Vec<String>, Vec<String>) {
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
    #[must_use]
    pub fn workload_subset(&self, per_suite: usize) -> Vec<Arc<dyn Workload>> {
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
    /// measurement, resolved memory → disk → capture:
    ///
    /// 1. A `trace:` workload ([`Workload::trace_path`]) streams its
    ///    backing file directly — nothing to capture, nothing to cache.
    /// 2. The in-memory tier shares the captured records zero-copy.
    /// 3. The on-disk store (when configured) streams the stored TLPT v2
    ///    file — replay never materializes the records, and a warm trace
    ///    dir makes cold-process runs capture nothing.
    /// 4. Otherwise the workload is captured (and persisted to the store
    ///    when one is configured).
    ///
    /// # Panics
    ///
    /// Panics when a `trace:` workload's backing file disappears or fails
    /// validation after [`Harness::trace_workload`] vetted it.
    #[must_use]
    pub fn trace_for(&self, w: &Arc<dyn Workload>) -> Box<dyn TraceSource> {
        if let Some(path) = w.trace_path() {
            let t = StreamTrace::open(path).unwrap_or_else(|e| {
                panic!(
                    "trace workload '{}': cannot open {}: {e}",
                    w.name(),
                    path.display()
                )
            });
            self.tstats.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Box::new(t);
        }
        let name = w.name();
        {
            let mut tier = self.traces.lock();
            if let Some(recs) = tier.touch(name) {
                self.tstats.mem_hits.fetch_add(1, Ordering::Relaxed);
                return Box::new(VecTrace::looping_shared(name.to_owned(), recs));
            }
        }
        if let Some(store) = &self.trace_store {
            if let TraceLoad::Hit(t) = store.open_trace(self.capture_key(name)) {
                self.tstats.disk_hits.fetch_add(1, Ordering::Relaxed);
                return t;
            }
        }
        let recs = self.capture_records(w);
        Box::new(VecTrace::looping_shared(name.to_owned(), recs))
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

    /// Captures a workload's records, single-flighted under the tier
    /// lock. `generate` advances a per-workload pass counter that seeds
    /// the generator, so two workers capturing the same workload
    /// concurrently (cold cache, several schemes of one workload in
    /// flight) would interleave passes and record *different* traces —
    /// nondeterminism that leaks straight into reports. Single-flighting
    /// the capture keeps the pass sequence, and therefore every report,
    /// identical to a serial run.
    ///
    /// When a store is configured the capture is persisted (with its
    /// capture-time SimPoints in the footer); only then may the memory
    /// entry ever be evicted — see [`crate::tracetier`].
    fn capture_records(&self, w: &Arc<dyn Workload>) -> Arc<Vec<TraceRecord>> {
        let name = w.name().to_owned();
        let mut tier = self.traces.lock();
        if let Some(recs) = tier.touch(&name) {
            self.tstats.mem_hits.fetch_add(1, Ordering::Relaxed);
            return recs;
        }
        let recs = Arc::new(tlp_trace::source::capture(w.as_ref(), self.trace_budget()));
        self.tstats.captures.fetch_add(1, Ordering::Relaxed);
        let mut evictable = false;
        if let Some(store) = &self.trace_store {
            let cfg = BbvConfig::standard();
            let sps = simpoints_of(&recs, cfg, CAPTURE_SIMPOINT_K, CAPTURE_SIMPOINT_SEED);
            evictable = store
                .save(
                    self.capture_key(&name),
                    &name,
                    true,
                    &recs,
                    &sps,
                    cfg.interval,
                )
                .is_ok();
        }
        tier.insert(name, Arc::clone(&recs), evictable);
        let evicted = tier.evict_to(self.effective_trace_cap());
        if evicted > 0 {
            self.tstats.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        recs
    }

    /// The memory tier's effective entry cap.
    fn effective_trace_cap(&self) -> usize {
        self.trace_mem_cap.unwrap_or(if self.trace_store.is_some() {
            DEFAULT_TRACE_MEM_CAP
        } else {
            usize::MAX
        })
    }

    /// The run-budget fragment of every cell description: anything here
    /// changes simulation results, so it is part of the content address.
    fn env_desc(&self) -> String {
        format!(
            "{:?}|w{}|i{}",
            self.rc.scale, self.rc.warmup, self.rc.instructions
        )
    }

    /// Describes a single-core cell.
    #[must_use]
    pub fn cell_single(
        &self,
        w: &Arc<dyn Workload>,
        scheme: Scheme,
        l1pf: L1Pf,
        gbps: Option<f64>,
    ) -> RunCell {
        self.cell_single_spec(w, scheme.resolve(), l1pf.resolve(), gbps)
    }

    /// Describes a single-core cell for a resolved (possibly custom)
    /// scheme — the registry-backed twin of [`Harness::cell_single`].
    /// The scheme's [`cache_key`](ResolvedScheme::cache_key) and the
    /// prefetcher's canonical fragment feed the content address.
    #[must_use]
    pub fn cell_single_spec(
        &self,
        w: &Arc<dyn Workload>,
        scheme: Arc<ResolvedScheme>,
        l1pf: Arc<ResolvedL1Pf>,
        gbps: Option<f64>,
    ) -> RunCell {
        let desc = cache::single_desc(
            &self.env_desc(),
            w.name(),
            &scheme.cache_key,
            &l1pf.key,
            &cache::bandwidth_desc(gbps),
        );
        RunCell {
            key: RunKey::from_desc(&desc),
            label: desc,
            kind: CellKind::Single {
                workload: Arc::clone(w),
                scheme,
                l1pf,
                gbps,
            },
        }
    }

    /// Describes a 4-core mix cell.
    #[must_use]
    pub fn cell_mix(
        &self,
        ws: &[Arc<dyn Workload>; 4],
        scheme: Scheme,
        l1pf: L1Pf,
        gbps: Option<f64>,
    ) -> RunCell {
        self.cell_mix_spec(ws, scheme.resolve(), l1pf.resolve(), gbps)
    }

    /// Describes a 4-core mix cell for a resolved scheme.
    #[must_use]
    pub fn cell_mix_spec(
        &self,
        ws: &[Arc<dyn Workload>; 4],
        scheme: Arc<ResolvedScheme>,
        l1pf: Arc<ResolvedL1Pf>,
        gbps: Option<f64>,
    ) -> RunCell {
        let desc = cache::mix_desc(
            &self.env_desc(),
            [ws[0].name(), ws[1].name(), ws[2].name(), ws[3].name()],
            &scheme.cache_key,
            &l1pf.key,
            &cache::bandwidth_desc(gbps),
        );
        RunCell {
            key: RunKey::from_desc(&desc),
            label: desc,
            kind: CellKind::Mix {
                workloads: ws.clone(),
                scheme,
                l1pf,
                gbps,
            },
        }
    }

    /// Describes a single-core cell under an explicit [`SystemConfig`].
    /// `tag` names the config deviation (e.g. the LLC replacement policy)
    /// for display; the key additionally folds in a digest of the full
    /// config, so two calls reusing a tag with different hardware can
    /// never alias — the address stays content-based even across the
    /// persistent disk tier.
    #[must_use]
    pub fn cell_custom(
        &self,
        w: &Arc<dyn Workload>,
        scheme: Scheme,
        l1pf: L1Pf,
        cfg: SystemConfig,
        tag: &str,
    ) -> RunCell {
        let cfg_digest = RunKey::from_desc(&format!("{cfg:?}")).hex();
        let desc = cache::custom_desc(
            &self.env_desc(),
            w.name(),
            &scheme.key(),
            l1pf.name(),
            &format!("{tag}#{cfg_digest}"),
        );
        RunCell {
            key: RunKey::from_desc(&desc),
            label: desc,
            kind: CellKind::Custom {
                workload: Arc::clone(w),
                scheme: scheme.resolve(),
                l1pf: l1pf.resolve(),
                cfg: Box::new(cfg),
            },
        }
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

    /// Simulates one cell from scratch (no cache involvement). Each cell
    /// is a deterministic, single-threaded simulation, which is what makes
    /// content addressing and thread-count invariance sound.
    fn simulate(&self, kind: &CellKind) -> SimReport {
        match kind {
            CellKind::Single {
                workload,
                scheme,
                l1pf,
                gbps,
            } => {
                let cfg = match gbps {
                    Some(b) => SystemConfig::cascade_lake_with_bandwidth(1, *b),
                    None => SystemConfig::cascade_lake(1),
                };
                let setup = self.assemble(scheme, l1pf, self.trace_for(workload));
                System::new(cfg, vec![setup])
                    .with_engine_mode(self.rc.engine)
                    .run(self.rc.warmup, self.rc.instructions)
            }
            CellKind::Mix {
                workloads,
                scheme,
                l1pf,
                gbps,
            } => {
                let cfg = match gbps {
                    Some(b) => SystemConfig::cascade_lake_with_bandwidth(4, *b),
                    None => SystemConfig::cascade_lake(4),
                };
                let setups = workloads
                    .iter()
                    .map(|w| self.assemble(scheme, l1pf, self.trace_for(w)))
                    .collect();
                System::new(cfg, setups)
                    .with_engine_mode(self.rc.engine)
                    .run(self.rc.warmup, self.rc.instructions)
            }
            CellKind::Custom {
                workload,
                scheme,
                l1pf,
                cfg,
            } => {
                let setup = self.assemble(scheme, l1pf, self.trace_for(workload));
                System::new((**cfg).clone(), vec![setup])
                    .with_engine_mode(self.rc.engine)
                    .run(self.rc.warmup, self.rc.instructions)
            }
        }
    }

    /// Captures the simulated-time telemetry of one single-core cell:
    /// the cell re-simulates with a [`tlp_timeline::Recorder`] attached
    /// and the resulting [`Timeline`] is content-addressed under its own
    /// key (the cell's descriptor plus the timeline parameters), cached
    /// in a blob tier separate from `SimReport`s.
    ///
    /// The capture is deterministic — bit-identical across engine modes,
    /// thread counts, and warm/cold caches — so a racing duplicate can
    /// only waste work, never publish a different blob; it is therefore
    /// not single-flighted. The instrumented run's `SimReport` is
    /// discarded (the plain cell already covers it), so timeline capture
    /// can never perturb a cached report.
    pub fn timeline_single(
        &self,
        w: &Arc<dyn Workload>,
        scheme: Scheme,
        l1pf: L1Pf,
        tcfg: TimelineConfig,
    ) -> Arc<Timeline> {
        self.timeline_single_spec(w, scheme.resolve(), l1pf.resolve(), tcfg)
    }

    /// [`Harness::timeline_single`] for a resolved (possibly custom)
    /// scheme — the registry-backed twin, used by the session layer and
    /// the serve daemon.
    pub fn timeline_single_spec(
        &self,
        w: &Arc<dyn Workload>,
        scheme: Arc<ResolvedScheme>,
        l1pf: Arc<ResolvedL1Pf>,
        tcfg: TimelineConfig,
    ) -> Arc<Timeline> {
        let cell = self.cell_single_spec(w, scheme, l1pf, None);
        let desc = format!(
            "{}|timeline|w{}|k{}",
            cell.label, tcfg.window_cycles, tcfg.journey_every
        );
        let key = RunKey::from_desc(&desc);
        if let Some(t) = self.cache.lookup_timeline(key) {
            return t;
        }
        let timeline = match &cell.kind {
            CellKind::Single {
                workload,
                scheme,
                l1pf,
                ..
            } => {
                let setup = self.assemble(scheme, l1pf, self.trace_for(workload));
                let mut sys = System::new(SystemConfig::cascade_lake(1), vec![setup])
                    .with_engine_mode(self.rc.engine);
                sys.enable_timeline(tcfg);
                let _ = sys.run(self.rc.warmup, self.rc.instructions);
                sys.take_timeline()
                    .expect("timeline was enabled before the run")
            }
            _ => unreachable!("cell_single always builds CellKind::Single"),
        };
        self.cache.insert_timeline(key, timeline)
    }

    /// Records plus SimPoints for a workload, resolving through the same
    /// memory → disk → capture tiers as [`Harness::trace_for`] but
    /// materializing the records (SimPoint replay slices them). SimPoints
    /// come from a stored footer when one exists; computing them fresh
    /// yields the identical set — captures are deterministic per fresh
    /// process and the k-means seed is fixed — so either path agrees.
    fn records_and_simpoints(
        &self,
        w: &Arc<dyn Workload>,
    ) -> (Arc<Vec<TraceRecord>>, Vec<SimPoint>) {
        let cfg = BbvConfig::standard();
        let compute = |recs: &[TraceRecord]| {
            simpoints_of(recs, cfg, CAPTURE_SIMPOINT_K, CAPTURE_SIMPOINT_SEED)
        };
        if let Some(path) = w.trace_path() {
            let mut t = StreamTrace::open(path).unwrap_or_else(|e| {
                panic!(
                    "trace workload '{}': cannot open {}: {e}",
                    w.name(),
                    path.display()
                )
            });
            self.tstats.disk_hits.fetch_add(1, Ordering::Relaxed);
            let sps = t.simpoints().to_vec();
            let recs = t.read_records();
            let sps = if sps.is_empty() { compute(&recs) } else { sps };
            return (Arc::new(recs), sps);
        }
        {
            let mut tier = self.traces.lock();
            if let Some(recs) = tier.touch(w.name()) {
                self.tstats.mem_hits.fetch_add(1, Ordering::Relaxed);
                drop(tier);
                let sps = compute(&recs);
                return (recs, sps);
            }
        }
        if let Some(store) = &self.trace_store {
            if let TraceLoad::Hit(mut t) = store.open_trace(self.capture_key(w.name())) {
                self.tstats.disk_hits.fetch_add(1, Ordering::Relaxed);
                let sps = t.simpoints().to_vec();
                let recs = t.read_records();
                let sps = if sps.is_empty() { compute(&recs) } else { sps };
                return (Arc::new(recs), sps);
            }
        }
        let recs = self.capture_records(w);
        let sps = compute(&recs);
        (recs, sps)
    }

    /// Runs a SimPoint-sampled estimate of one single-core cell (paper
    /// methodology: simulate the representative regions, blend by cluster
    /// weight) — see [`Harness::run_simpoints_spec`].
    #[must_use]
    pub fn run_simpoints(
        &self,
        w: &Arc<dyn Workload>,
        scheme: Scheme,
        l1pf: L1Pf,
        k: usize,
    ) -> SimPointRun {
        self.run_simpoints_spec(w, scheme.resolve(), l1pf.resolve(), k)
    }

    /// SimPoint-sampled single-core run: replays the top-`k` SimPoint
    /// regions of the workload's trace (each one BBV interval long) and
    /// reconstitutes a full-run estimate by weighted merge, with region
    /// weights renormalized over the chosen `k` and scaled to full-run
    /// units. Region runs are uncached (they are a fraction of a full
    /// cell's cost) and run on the configured worker pool.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or the trace is shorter than one SimPoint
    /// interval.
    #[must_use]
    pub fn run_simpoints_spec(
        &self,
        w: &Arc<dyn Workload>,
        scheme: Arc<ResolvedScheme>,
        l1pf: Arc<ResolvedL1Pf>,
        k: usize,
    ) -> SimPointRun {
        assert!(k > 0, "need at least one SimPoint region");
        let cfg = BbvConfig::standard();
        let (recs, mut sps) = self.records_and_simpoints(w);
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
                let setup = self.assemble(&scheme, &l1pf, Box::new(trace));
                System::new(SystemConfig::cascade_lake(1), vec![setup])
                    .with_engine_mode(self.rc.engine)
                    .run(warm, measure)
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

    /// Runs one cell through the cache: hit in a tier, or simulate and
    /// fill both tiers.
    pub fn run_cell(&self, cell: &RunCell) -> SimReport {
        (*self.run_cell_arc(cell)).clone()
    }

    /// [`Harness::run_cell`] without the defensive clone — the shared
    /// in-cache report, for hot collection paths that only read a field.
    /// A miss here means the cell was never planned into a
    /// [`Harness::run_cells`] batch: it still simulates correctly, but
    /// single-threaded on the caller, so it is flagged in the engine
    /// stats (`inline=` in the summary line).
    fn run_cell_arc(&self, cell: &RunCell) -> Arc<SimReport> {
        self.cache
            .get_or_run_labeled(cell.key, Some(&cell.label), 0, || {
                self.cache.note_inline_simulated();
                self.simulate(&cell.kind)
            })
    }

    /// A content-addressed key for one step of a *stateful* simulation
    /// sequence (e.g. a persistent-agent learning-curve epoch), run
    /// through [`Harness::run_sequence`]. `step` must uniquely identify
    /// the position and nature of the step within the sequence.
    #[must_use]
    pub fn sequence_key(
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
    pub fn run_sequence<F>(&self, keys: &[RunKey], simulate_all: F) -> Vec<SimReport>
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

    /// Submits a batch of cells to the engine: duplicates are coalesced,
    /// cached cells answer instantly, and the remainder is simulated on a
    /// self-scheduling pool of `rc.threads` workers, each claiming the
    /// next unclaimed cell of the deduplicated grid. Resolution goes
    /// through the cache's single-flight layer, so a cell this batch
    /// misses on but another concurrent batch (or service client) is
    /// already simulating is *waited for*, not re-simulated: every unique
    /// cell is simulated exactly once per cache lifetime, even across
    /// overlapping batches.
    pub fn run_cells(&self, cells: Vec<RunCell>) {
        self.run_cells_streaming(cells, |_, _, _| {});
    }

    /// [`Harness::run_cells`] with a completion callback: `on_ready(i,
    /// cell, report)` fires from the worker that resolved cell `i` (its
    /// index in the deduplicated batch, batch order preserved) the moment
    /// its report is available — cache hits immediately, misses as each
    /// simulation (or coalesced wait on another requester's flight)
    /// finishes. This is what lets `tlp-serve` stream per-cell result
    /// frames back to clients instead of collecting sequentially at
    /// end-of-grid. The callback runs concurrently on pool workers, so it
    /// must be `Sync` and should stay cheap.
    pub fn run_cells_streaming<F>(&self, cells: Vec<RunCell>, on_ready: F)
    where
        F: Fn(usize, &RunCell, &Arc<SimReport>) + Sync,
    {
        let mut seen = HashSet::new();
        let mut todo = Vec::new();
        for cell in cells {
            if !seen.insert(cell.key) {
                self.cache.note_deduped(1);
                continue;
            }
            todo.push(cell);
        }
        let todo: Vec<(usize, RunCell)> = todo.into_iter().enumerate().collect();
        // Queue wait is measured from batch submission to worker pickup —
        // the per-cell phase the profile artifact breaks out.
        let submitted = std::time::Instant::now();
        self.parallel_map_labeled(
            todo,
            |(_, cell), _| cell.label.clone(),
            |(i, cell)| {
                let wait = u64::try_from(submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let report =
                    self.cache
                        .get_or_run_labeled(cell.key, Some(&cell.label), wait, || {
                            self.simulate(&cell.kind)
                        });
                on_ready(*i, cell, &report);
            },
        );
    }

    /// Runs one single-core simulation (cached per workload/scheme/l1pf).
    #[must_use]
    pub fn run_single(&self, w: &Arc<dyn Workload>, scheme: Scheme, l1pf: L1Pf) -> SimReport {
        self.run_single_with_bandwidth(w, scheme, l1pf, None)
    }

    /// Runs one single-core simulation with an explicit per-core bandwidth
    /// (cached).
    #[must_use]
    pub fn run_single_with_bandwidth(
        &self,
        w: &Arc<dyn Workload>,
        scheme: Scheme,
        l1pf: L1Pf,
        gbps: Option<f64>,
    ) -> SimReport {
        self.run_cell(&self.cell_single(w, scheme, l1pf, gbps))
    }

    /// Runs one single-core simulation under an explicit [`SystemConfig`]
    /// (cached; `tag` must uniquely identify the config deviation, e.g.
    /// the LLC replacement policy).
    #[must_use]
    pub fn run_single_custom(
        &self,
        w: &Arc<dyn Workload>,
        scheme: Scheme,
        l1pf: L1Pf,
        cfg: SystemConfig,
        tag: &str,
    ) -> SimReport {
        self.run_cell(&self.cell_custom(w, scheme, l1pf, cfg, tag))
    }

    /// Runs one 4-core mix (cached per mix/scheme/l1pf/bandwidth).
    #[must_use]
    pub fn run_mix(
        &self,
        ws: &[Arc<dyn Workload>; 4],
        scheme: Scheme,
        l1pf: L1Pf,
        gbps: Option<f64>,
    ) -> SimReport {
        self.run_cell(&self.cell_mix(ws, scheme, l1pf, gbps))
    }

    /// Cached single-core IPC of `w` under `scheme` (isolation run on the
    /// multi-core per-core bandwidth), as weighted speedup requires.
    #[must_use]
    pub fn single_ipc(&self, w: &Arc<dyn Workload>, scheme: Scheme, l1pf: L1Pf, gbps: f64) -> f64 {
        self.run_cell_arc(&self.cell_single(w, scheme, l1pf, Some(gbps)))
            .ipc()
    }

    /// Weighted speedup of a mix report relative to per-workload isolation
    /// IPCs (paper §V-D): Σ IPC_shared / IPC_single.
    #[must_use]
    pub fn weighted_ipc(
        &self,
        ws: &[Arc<dyn Workload>; 4],
        mix_report: &SimReport,
        scheme: Scheme,
        l1pf: L1Pf,
        gbps: f64,
    ) -> f64 {
        ws.iter()
            .zip(&mix_report.cores)
            .map(|(w, core)| {
                let single = self.single_ipc(w, scheme, l1pf, gbps);
                if single <= 0.0 {
                    0.0
                } else {
                    core.core.ipc() / single
                }
            })
            .sum()
    }

    /// Maps `f` over `items` on the configured number of worker threads,
    /// preserving order. A panicking closure re-panics on the caller with
    /// the failing item's `label`, so a dead cell in a thousand-cell grid
    /// is identifiable.
    pub fn parallel_map_labeled<T, R, F, L>(&self, items: Vec<T>, label: L, f: F) -> Vec<R>
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
        let cells = [
            h.cell_single(&w, Scheme::Baseline, L1Pf::Ipcp, None),
            h.cell_single(&v, Scheme::Baseline, L1Pf::Ipcp, None),
            h.cell_single(&w, Scheme::Tlp, L1Pf::Ipcp, None),
            h.cell_single(&w, Scheme::Baseline, L1Pf::Berti, None),
            h.cell_single(&w, Scheme::Baseline, L1Pf::Ipcp, Some(12.8)),
            h.cell_mix(
                &[w.clone(), w.clone(), w.clone(), w.clone()],
                Scheme::Baseline,
                L1Pf::Ipcp,
                None,
            ),
            h.cell_custom(
                &w,
                Scheme::Baseline,
                L1Pf::Ipcp,
                SystemConfig::cascade_lake(1),
                "lru",
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
            h1.cell_single(&w, Scheme::Baseline, L1Pf::Ipcp, None).key(),
            h2.cell_single(&w, Scheme::Baseline, L1Pf::Ipcp, None).key(),
        );
    }

    #[test]
    fn run_cells_deduplicates_and_fills_the_cache() {
        let mut rc = RunConfig::test();
        rc.warmup = 1_000;
        rc.instructions = 4_000;
        let h = Harness::new(rc);
        let w = h.workloads()[0].clone();
        let batch = vec![
            h.cell_single(&w, Scheme::Baseline, L1Pf::Ipcp, None),
            h.cell_single(&w, Scheme::Baseline, L1Pf::Ipcp, None),
            h.cell_single(&w, Scheme::Baseline, L1Pf::Ipcp, None),
        ];
        h.run_cells(batch);
        let st = h.engine_stats();
        assert_eq!(st.simulated, 1, "triplicate cell simulates once");
        assert_eq!(st.deduped, 2);
        // Collection is a pure cache hit.
        let _ = h.run_single(&w, Scheme::Baseline, L1Pf::Ipcp);
        let st = h.engine_stats();
        assert_eq!(st.simulated, 1);
        assert_eq!(st.mem_hits, 1);
    }
}
