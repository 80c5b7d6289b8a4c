//! The content-addressed result cache behind the run engine.
//!
//! Every grid cell the harness can simulate — (workload(s), scheme, L1D
//! prefetcher, bandwidth, run budget) — maps to a [`RunKey`]: a stable
//! 128-bit content hash of the cell's canonical description salted with
//! [`CODE_VERSION`]. The cache has two tiers:
//!
//! * **memory** — a process-wide map shared by every experiment of one
//!   invocation, so `tlp_repro --all` simulates each unique cell once no
//!   matter how many figures request it;
//! * **disk** — optional (`--cache-dir`), one JSON file per key in the
//!   [`tlp_sim::serial`] format, so repeated invocations are
//!   simulation-free. [`DiskCache`] is only that codec: the files live in
//!   a [`ContentStore`], the disk discipline the trace store shares (safe
//!   for concurrent writers across threads and processes, lock-free
//!   readers, an optional LRU size cap).
//!
//! Each key resolves through one `OnceLock` slot
//! ([`ResultCache::get_or_run`], [`ResultCache::timeline`]): the first
//! requester of a missing cell runs the initializer (probe the disk,
//! else simulate); every concurrent requester of the same [`RunKey`] —
//! another batch, another thread, another `tlp-serve` client — blocks on
//! the slot and receives the published value. One simulation per unique
//! cell, and one capture per timeline key, no matter how the traffic
//! overlaps.
//!
//! Cell results are deterministic functions of their description (the
//! simulator is single-threaded per cell and all seeds are fixed), which
//! is what makes content addressing sound; `tests/determinism.rs` pins
//! that property across thread counts and cache states.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use tlp_obs::{Counter, Histogram, MetricsRegistry};
use tlp_sim::serial::{self, Codec};
use tlp_sim::{SimReport, Timeline};
use tlp_tracestore::store::{content_hash, ContentStore, Load};

/// Salt folded into every [`RunKey`]. Bump this whenever a change to the
/// simulator or workload generation alters results, so stale on-disk cache
/// entries can never be served for the new code.
pub const CODE_VERSION: &str = "tlp-cells-v1";

/// Content hash identifying one simulation cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunKey(u128);

impl RunKey {
    /// Hashes a canonical cell description ([`content_hash`] under the
    /// [`CODE_VERSION`] salt).
    #[must_use]
    pub fn from_desc(desc: &str) -> Self {
        Self(content_hash(CODE_VERSION, desc))
    }

    /// The key as 32 hex digits (the on-disk file stem).
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

/// Canonical fragment for an optional per-core bandwidth: exact `f64` bits
/// so distinct sweep points can never alias.
#[must_use]
pub fn bandwidth_desc(gbps: Option<f64>) -> String {
    match gbps {
        None => "bw:default".to_owned(),
        Some(b) => format!("bw:{:016x}", b.to_bits()),
    }
}

/// Canonical description of a single-core cell. `env` is the harness's
/// run-budget fragment (scale, warmup, instructions).
#[must_use]
pub fn single_desc(env: &str, workload: &str, scheme_key: &str, l1pf: &str, bw: &str) -> String {
    format!("1c|{env}|{workload}|{scheme_key}|{l1pf}|{bw}")
}

/// Canonical description of a 4-core mix cell.
#[must_use]
pub fn mix_desc(env: &str, workloads: [&str; 4], scheme_key: &str, l1pf: &str, bw: &str) -> String {
    format!(
        "4c|{env}|{}+{}+{}+{}|{scheme_key}|{l1pf}|{bw}",
        workloads[0], workloads[1], workloads[2], workloads[3]
    )
}

/// Canonical description of a single-core cell under a custom
/// [`tlp_sim::SystemConfig`]; `tag` must uniquely identify the deviation.
#[must_use]
pub fn custom_desc(env: &str, workload: &str, scheme_key: &str, l1pf: &str, tag: &str) -> String {
    format!("1c|{env}|{workload}|{scheme_key}|{l1pf}|cfg:{tag}")
}

/// What [`DiskCache::load_classified`] found for a key.
pub type DiskLoad = Load<SimReport>;

/// Reads one JSON entry and decodes it; text that does not decode is
/// `InvalidData`, which the store classifies as corrupt.
fn read_json<T>(
    path: &Path,
    decode: fn(&str) -> Result<T, serial::SerialError>,
) -> std::io::Result<T> {
    let text = std::fs::read_to_string(path)?;
    decode(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// The on-disk tier: one `<key>.json` report per cell (plus
/// `<key>.timeline.json` blobs) in a [`ContentStore`], safe for
/// concurrent writers across threads *and* processes.
#[derive(Debug)]
pub struct DiskCache {
    /// Its eviction counter is adopted into the owning [`ResultCache`]'s
    /// metrics registry as `run_cache_evicted_total`.
    store: ContentStore,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Ok(Self {
            store: ContentStore::open(dir, "json")?,
        })
    }

    /// Caps the directory at `cap` bytes of entries (reports and timeline
    /// blobs alike): every
    /// [`SWEEP_EVERY`](tlp_tracestore::store::SWEEP_EVERY)th store of
    /// either kind runs an LRU [`sweep`](DiskCache::sweep).
    #[must_use]
    pub fn with_cap_bytes(self, cap: u64) -> Self {
        Self {
            store: self.store.with_cap_bytes(cap),
        }
    }

    /// The directory backing this cache.
    #[must_use]
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Entries deleted by size-cap sweeps so far.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.store.evicted().get()
    }

    /// Loads one report, distinguishing an absent entry from a corrupt
    /// one (see [`Load`]). A corrupt entry (torn write from a crashed
    /// process, bit rot, an incompatible format) is deleted on sight, and
    /// the owning [`ResultCache`] counts it so operators can see cache
    /// corruption in the engine stats.
    #[must_use]
    pub fn load_classified(&self, key: RunKey) -> DiskLoad {
        self.store.load(&format!("{}.json", key.hex()), |path| {
            read_json(path, serial::report_from_json)
        })
    }

    /// Stores one report (atomically, so concurrent writers — same
    /// process or not — never publish a torn entry). Best-effort — a full
    /// disk degrades to cache misses, not failures.
    pub fn store(&self, key: RunKey, report: &SimReport) {
        let json = serial::report_to_json(report);
        let _ = self
            .store
            .write(&format!("{}.json", key.hex()), json.as_bytes());
    }

    /// Loads one timeline blob; a corrupt blob is deleted and reads as a
    /// miss (it will simply be re-captured). Blobs live *next to* report
    /// entries under a distinct `<key>.timeline.json` name, so a report
    /// load never probes (or deletes) one; the `.json` suffix keeps them
    /// under the size cap.
    #[must_use]
    pub fn load_timeline(&self, key: RunKey) -> Option<Timeline> {
        match self
            .store
            .load(&format!("{}.timeline.json", key.hex()), |path| {
                read_json(path, serial::timeline_from_json)
            }) {
            Load::Hit(t) => Some(t),
            Load::Miss | Load::Corrupt => None,
        }
    }

    /// Stores one timeline blob (best-effort, like [`DiskCache::store`]).
    pub fn store_timeline(&self, key: RunKey, timeline: &Timeline) {
        let json = serial::timeline_to_json(timeline);
        let _ = self
            .store
            .write(&format!("{}.timeline.json", key.hex()), json.as_bytes());
    }

    /// Runs the size-cap sweep now (see [`ContentStore::sweep`]).
    pub fn sweep(&self) {
        self.store.sweep();
    }
}

/// Snapshot of the engine's cache counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Cell lookups: one per unique cell of each submitted batch, plus
    /// one per step of a cached stateful sequence. A cell counts once
    /// per batch however often the batch repeats it (the repeats count
    /// as `deduped`).
    pub requested: u64,
    /// Lookups answered from the in-memory tier.
    pub mem_hits: u64,
    /// Lookups answered from the on-disk tier.
    pub disk_hits: u64,
    /// Lookups answered by another requester filling the cell's slot
    /// (for this batch or another client's request): they blocked on the
    /// slot instead of re-simulating.
    pub coalesced: u64,
    /// Corrupt on-disk entries found (and deleted) by lookups.
    pub corrupt: u64,
    /// On-disk entries deleted by size-cap sweeps.
    pub evicted: u64,
    /// Cells actually simulated.
    pub simulated: u64,
    /// Duplicate cells coalesced inside submitted batches before any
    /// lookup (the grid-dedup counter).
    pub deduped: u64,
}

// The `# run-engine:` summary line, the `--profile` artifact's
// `run_engine` section and the daemon's SUMMARY frame all write the
// counters from this one list, in this order.
tlp_sim::codec! {
    EngineStats { requested, deduped, mem_hits, disk_hits, coalesced, corrupt, evicted, simulated }
}

impl EngineStats {
    /// Lookups that did not cost this requester a simulation: cache-tier
    /// hits plus waits coalesced onto another requester's simulation.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits + self.coalesced
    }

    /// Percentage of lookups served from a cache tier (100 when nothing
    /// was requested).
    #[must_use]
    pub fn hit_rate_percent(&self) -> f64 {
        if self.requested == 0 {
            return 100.0;
        }
        self.hits() as f64 * 100.0 / self.requested as f64
    }

    /// The one-line summary printed by the CLI (and asserted by CI's
    /// cache-behavior job): every counter as `name=value`, then the hit
    /// rate.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "{} hit_rate={:.1}%",
            counters_line(self),
            self.hit_rate_percent()
        )
    }
}

/// A codec struct's fields as space-separated `name=value` pairs, in the
/// order of its field list: the body of the `# run-engine:` and
/// `# trace-store:` summary lines.
pub(crate) fn counters_line(stats: &impl Codec) -> String {
    let counters = stats.to_value();
    let fields = counters.obj().expect("a codec struct encodes as an object");
    let pairs: Vec<String> = fields
        .iter()
        .map(|(name, value)| format!("{name}={}", value.render()))
        .collect();
    pairs.join(" ")
}

/// One memoized value per [`RunKey`]. The lock is held only to find a
/// key's slot; `OnceLock::get_or_init` on the slot is the single-flight:
/// the first caller runs the initializer, concurrent callers block until
/// it publishes, and a panicking initializer leaves the slot empty so a
/// waiter runs its own.
struct Memo<V> {
    slots: Mutex<HashMap<RunKey, Arc<OnceLock<Arc<V>>>>>,
}

impl<V> Memo<V> {
    fn new() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// The slot for `key`, created empty on first use.
    fn slot(&self, key: RunKey) -> Arc<OnceLock<Arc<V>>> {
        Arc::clone(self.slots.lock().entry(key).or_default())
    }

    /// The number of published values.
    fn len(&self) -> usize {
        self.slots
            .lock()
            .values()
            .filter(|s| s.get().is_some())
            .count()
    }
}

/// How a [`ResultCache::get_or_run`] request was resolved — recorded per
/// cell into the timing log that `--profile` dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// Answered from the in-memory tier.
    MemHit,
    /// Answered from the on-disk tier.
    DiskHit,
    /// Blocked on the slot while another requester filled it.
    Coalesced,
    /// This requester led and simulated the cell.
    Simulated,
}

impl CellOutcome {
    /// The stable name used in rendered artifacts.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CellOutcome::MemHit => "mem_hit",
            CellOutcome::DiskHit => "disk_hit",
            CellOutcome::Coalesced => "coalesced",
            CellOutcome::Simulated => "simulated",
        }
    }
}

/// One cell's wall-clock record in the profile timing log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellTiming {
    /// The submitter's label (workload/scheme), or the key's hex when
    /// the request came in unlabeled.
    pub label: String,
    /// How the request was resolved.
    pub outcome: CellOutcome,
    /// Nanoseconds the cell waited between batch submission and a worker
    /// picking it up (0 for unqueued requests).
    pub queue_wait_ns: u64,
    /// Nanoseconds from lookup start to resolution (includes simulate
    /// time for the requester that filled the slot and blocking time for
    /// coalesced ones).
    pub total_ns: u64,
}

/// Profile timing-log cap: a long-lived daemon must not grow the log
/// without bound, so entries past this are dropped (and counted).
const MAX_CELL_LOG: usize = 16_384;

/// The two-tier content-addressed cache, single-flighted per key:
/// concurrent requests for one [`RunKey`] — from several batches,
/// threads, or service clients — cost exactly one simulation (or one
/// timeline capture).
///
/// Every counter the engine reports lives in a per-cache
/// [`MetricsRegistry`] (`run_cache_*` names): [`ResultCache::stats`] and
/// the `# run-engine:` summary line are rendered *from* those metrics,
/// and phase histograms (lookup / simulate / store / queue wait /
/// coalesce wait, all nanoseconds) sit alongside them for `--profile`
/// and the serve daemon's `STATS` frame.
pub struct ResultCache {
    reports: Memo<SimReport>,
    timelines: Memo<Timeline>,
    disk: Option<DiskCache>,
    registry: Arc<MetricsRegistry>,
    requested: Counter,
    mem_hits: Counter,
    disk_hits: Counter,
    coalesced: Counter,
    corrupt: Counter,
    simulated: Counter,
    deduped: Counter,
    lookup_ns: Histogram,
    simulate_ns: Histogram,
    store_ns: Histogram,
    queue_wait_ns: Histogram,
    coalesce_wait_ns: Histogram,
    cell_log: Mutex<Vec<CellTiming>>,
    cell_log_dropped: Counter,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("entries", &self.reports.len())
            .field("disk", &self.disk)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl ResultCache {
    /// A memory-only cache (the default for library users and tests).
    #[must_use]
    pub fn in_memory() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        Self {
            reports: Memo::new(),
            timelines: Memo::new(),
            disk: None,
            requested: registry.counter("run_cache_requested_total"),
            mem_hits: registry.counter("run_cache_mem_hits_total"),
            disk_hits: registry.counter("run_cache_disk_hits_total"),
            coalesced: registry.counter("run_cache_coalesced_total"),
            corrupt: registry.counter("run_cache_corrupt_total"),
            simulated: registry.counter("run_cache_simulated_total"),
            deduped: registry.counter("run_cache_deduped_total"),
            lookup_ns: registry.histogram("run_cache_lookup_ns"),
            simulate_ns: registry.histogram("run_cache_simulate_ns"),
            store_ns: registry.histogram("run_cache_store_ns"),
            queue_wait_ns: registry.histogram("run_cache_queue_wait_ns"),
            coalesce_wait_ns: registry.histogram("run_cache_coalesce_wait_ns"),
            cell_log: Mutex::new(Vec::new()),
            cell_log_dropped: registry.counter("run_cache_cell_log_dropped_total"),
            registry,
        }
    }

    /// A cache backed by `disk` in addition to memory. The disk tier's
    /// eviction count is adopted into this cache's registry as
    /// `run_cache_evicted_total`.
    #[must_use]
    pub fn with_disk(disk: DiskCache) -> Self {
        let cache = Self {
            disk: Some(disk),
            ..Self::in_memory()
        };
        if let Some(d) = &cache.disk {
            cache
                .registry
                .adopt_counter("run_cache_evicted_total", d.store.evicted());
        }
        cache
    }

    /// The cache's metrics registry (`run_cache_*` counters and phase
    /// histograms) — snapshot it for `--profile` artifacts and `STATS`
    /// frames.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The per-cell wall-clock timing log (capped at 16,384 entries,
    /// `MAX_CELL_LOG`; overflow is counted in
    /// `run_cache_cell_log_dropped_total`).
    #[must_use]
    pub fn cell_timings(&self) -> Vec<CellTiming> {
        self.cell_log.lock().clone()
    }

    fn log_cell(&self, timing: CellTiming) {
        let mut log = self.cell_log.lock();
        if log.len() >= MAX_CELL_LOG {
            self.cell_log_dropped.inc();
        } else {
            log.push(timing);
        }
    }

    /// Looks one cell up: memory first, then disk (promoting a disk hit
    /// into memory). Counts one request plus the tier that answered.
    #[must_use]
    pub fn lookup(&self, key: RunKey) -> Option<Arc<SimReport>> {
        let _t = self.lookup_ns.span();
        self.requested.inc();
        let slot = self.reports.slot(key);
        if let Some(r) = slot.get() {
            self.mem_hits.inc();
            return Some(Arc::clone(r));
        }
        let report = self.load_disk(key)?;
        self.disk_hits.inc();
        Some(Arc::clone(slot.get_or_init(|| Arc::new(report))))
    }

    /// Disk-tier load with corruption accounting.
    fn load_disk(&self, key: RunKey) -> Option<SimReport> {
        match self.disk.as_ref()?.load_classified(key) {
            Load::Hit(report) => Some(report),
            Load::Miss => None,
            Load::Corrupt => {
                self.corrupt.inc();
                None
            }
        }
    }

    /// Records a freshly simulated cell into both tiers. If another thread
    /// raced the same key in, the first entry wins (both are identical by
    /// determinism) and its `Arc` is returned.
    pub fn insert_simulated(&self, key: RunKey, report: SimReport) -> Arc<SimReport> {
        let report = self.persist(key, report);
        Arc::clone(self.reports.slot(key).get_or_init(|| report))
    }

    /// Counts one simulated cell and writes it to the disk tier.
    fn persist(&self, key: RunKey, report: SimReport) -> Arc<SimReport> {
        self.simulated.inc();
        if let Some(d) = &self.disk {
            let _t = self.store_ns.span();
            d.store(key, &report);
        }
        Arc::new(report)
    }

    /// Single-flight resolution of one cell through its slot: answer from
    /// memory, or run the initializer (probe the disk, else `simulate`
    /// and store) while every concurrent requester — possibly serving a
    /// different batch, thread, or service client — blocks on the slot.
    /// Exactly one requester per key ever simulates, per cache lifetime.
    ///
    /// Counts one request, plus `mem_hits`/`disk_hits`/`coalesced`/
    /// `simulated` for how the cell was resolved. If the initializer
    /// panics, a waiter runs its own (and a deterministic panic
    /// propagates to every requester in turn). `label` names the cell in
    /// the per-cell timing log (falling back to the key's hex) and
    /// `queue_wait_ns` is how long the request sat in a batch queue
    /// before this call (recorded into `run_cache_queue_wait_ns`).
    pub fn get_or_run<F>(
        &self,
        key: RunKey,
        label: Option<&str>,
        queue_wait_ns: u64,
        simulate: F,
    ) -> Arc<SimReport>
    where
        F: FnOnce() -> SimReport,
    {
        let started = Instant::now();
        if queue_wait_ns > 0 {
            self.queue_wait_ns.record(queue_wait_ns);
        }
        self.requested.inc();
        let slot = {
            let _t = self.lookup_ns.span();
            self.reports.slot(key)
        };
        let (report, outcome) = if let Some(r) = slot.get() {
            self.mem_hits.inc();
            (Arc::clone(r), CellOutcome::MemHit)
        } else {
            // Stays `Coalesced` unless this requester's initializer runs.
            let mut outcome = CellOutcome::Coalesced;
            let report = Arc::clone(slot.get_or_init(|| {
                // Only the initializer probes the disk tier, so a shared
                // directory sees one read per key per process.
                let probe = self.lookup_ns.span();
                let loaded = self.load_disk(key);
                drop(probe);
                if let Some(report) = loaded {
                    self.disk_hits.inc();
                    outcome = CellOutcome::DiskHit;
                    return Arc::new(report);
                }
                let report = {
                    let _t = self.simulate_ns.span();
                    simulate()
                };
                outcome = CellOutcome::Simulated;
                self.persist(key, report)
            }));
            if outcome == CellOutcome::Coalesced {
                self.coalesced.inc();
                self.coalesce_wait_ns.record_since(started);
            }
            (report, outcome)
        };
        self.log_cell(CellTiming {
            label: label.map_or_else(|| key.hex(), str::to_owned),
            outcome,
            queue_wait_ns,
            total_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
        report
    }

    /// One timeline blob, resolved like a report through its own slot:
    /// memory, else disk, else `capture` (stored to both tiers). Every
    /// concurrent requester of `key` shares the one capture.
    pub fn timeline<F>(&self, key: RunKey, capture: F) -> Arc<Timeline>
    where
        F: FnOnce() -> Timeline,
    {
        let slot = self.timelines.slot(key);
        let timeline = slot.get_or_init(|| {
            if let Some(t) = self.disk.as_ref().and_then(|d| d.load_timeline(key)) {
                return Arc::new(t);
            }
            let timeline = capture();
            if let Some(d) = &self.disk {
                d.store_timeline(key, &timeline);
            }
            Arc::new(timeline)
        });
        Arc::clone(timeline)
    }

    /// Records `n` in-batch duplicate submissions.
    pub fn note_deduped(&self, n: u64) {
        self.deduped.add(n);
    }

    /// Counter snapshot, read back from the metrics registry (the
    /// `# run-engine:` summary line is therefore rendered from the same
    /// counters `--profile` and `STATS` expose).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requested: self.requested.get(),
            mem_hits: self.mem_hits.get(),
            disk_hits: self.disk_hits.get(),
            coalesced: self.coalesced.get(),
            corrupt: self.corrupt.get(),
            evicted: self.disk.as_ref().map_or(0, DiskCache::evicted),
            simulated: self.simulated.get(),
            deduped: self.deduped.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tlp-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn report(cycles: u64) -> SimReport {
        SimReport {
            total_cycles: cycles,
            ..SimReport::default()
        }
    }

    #[test]
    fn keys_are_stable_and_desc_sensitive() {
        let a = RunKey::from_desc("1c|Tiny|w5000|i25000|mcf|Baseline|ipcp|bw:default");
        let b = RunKey::from_desc("1c|Tiny|w5000|i25000|mcf|Baseline|ipcp|bw:default");
        assert_eq!(a, b, "same description, same key");
        let c = RunKey::from_desc("1c|Tiny|w5000|i25000|mcf|Baseline|berti|bw:default");
        assert_ne!(a, c, "different description, different key");
        assert_eq!(a.hex().len(), 32);
    }

    #[test]
    fn bandwidth_descs_never_alias() {
        assert_ne!(bandwidth_desc(Some(1.6)), bandwidth_desc(Some(1.6000001)));
        assert_ne!(bandwidth_desc(None), bandwidth_desc(Some(0.0)));
    }

    #[test]
    fn desc_shapes_are_disjoint() {
        let env = "Tiny|w5000|i25000";
        let s = single_desc(env, "mcf", "Baseline", "ipcp", "bw:default");
        let m = mix_desc(env, ["mcf"; 4], "Baseline", "ipcp", "bw:default");
        let c = custom_desc(env, "mcf", "Baseline", "ipcp", "lru");
        assert_ne!(s, m);
        assert_ne!(s, c);
        assert_ne!(m, c);
    }

    #[test]
    fn memory_tier_counts_hits_and_misses() {
        let cache = ResultCache::in_memory();
        let key = RunKey::from_desc("k");
        assert!(cache.lookup(key).is_none());
        cache.insert_simulated(key, report(42));
        assert_eq!(cache.lookup(key).expect("hit").total_cycles, 42);
        cache.note_deduped(3);
        let st = cache.stats();
        assert_eq!(st.requested, 2);
        assert_eq!(st.mem_hits, 1);
        assert_eq!(st.disk_hits, 0);
        assert_eq!(st.simulated, 1);
        assert_eq!(st.deduped, 3);
        assert!((st.hit_rate_percent() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn disk_tier_survives_process_style_reopen() {
        let dir = tmp_dir("reopen");
        let key = RunKey::from_desc("cell");
        {
            let cache = ResultCache::with_disk(DiskCache::open(&dir).expect("open"));
            cache.insert_simulated(key, report(7));
        }
        // A fresh cache over the same directory: memory cold, disk warm.
        let cache = ResultCache::with_disk(DiskCache::open(&dir).expect("open"));
        let hit = cache.lookup(key).expect("disk hit");
        assert_eq!(hit.total_cycles, 7);
        let st = cache.stats();
        assert_eq!((st.disk_hits, st.simulated), (1, 0));
        // The disk hit was promoted: the next lookup is a memory hit.
        assert!(cache.lookup(key).is_some());
        assert_eq!(cache.stats().mem_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_are_deleted_and_counted() {
        let dir = tmp_dir("corrupt");
        let disk = DiskCache::open(&dir).expect("open");
        let key = RunKey::from_desc("cell");
        let entry = disk.dir().join(format!("{}.json", key.hex()));
        let cache = ResultCache::with_disk(disk);
        let json = serial::report_to_json(&report(1));
        let deep = "[".repeat(100_000);
        let garbage: [&[u8]; 4] = [
            b"not json",
            &[0xff, 0xfe, 0x00, 0x80],
            &json.as_bytes()[..json.len() / 2],
            deep.as_bytes(),
        ];
        for (i, bytes) in garbage.into_iter().enumerate() {
            std::fs::write(&entry, bytes).expect("write garbage");
            assert!(cache.lookup(key).is_none());
            assert!(!entry.exists(), "corrupt entry must be deleted on sight");
            assert_eq!(cache.stats().corrupt, i as u64 + 1);
        }
        // The next lookup is a clean miss, not another corruption.
        assert!(cache.lookup(key).is_none());
        assert_eq!(cache.stats().corrupt, 4);
        // An unreadable entry (here a directory; likewise EACCES or
        // EMFILE) is a miss that keeps the entry and counts nothing.
        std::fs::create_dir(&entry).expect("mkdir");
        assert!(cache.lookup(key).is_none());
        assert!(entry.is_dir(), "an unreadable entry is kept");
        assert_eq!(cache.stats().corrupt, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_same_key_stores_never_tear() {
        // The pid-only temp name let two threads interleave writes into
        // one temp file; the per-writer sequence makes every temp path
        // unique, so each rename publishes a complete entry.
        let dir = tmp_dir("tmp-race");
        let disk = std::sync::Arc::new(DiskCache::open(&dir).expect("open"));
        let key = RunKey::from_desc("hot");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let disk = std::sync::Arc::clone(&disk);
                scope.spawn(move || {
                    for i in 0..50 {
                        disk.store(key, &report(t * 1000 + i));
                        if let DiskLoad::Corrupt = disk.load_classified(key) {
                            panic!("observed a torn entry");
                        }
                    }
                });
            }
        });
        assert!(matches!(disk.load_classified(key), Load::Hit(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_cap_sweep_evicts_oldest_entries() {
        let dir = tmp_dir("evict");
        let disk = DiskCache::open(&dir).expect("open").with_cap_bytes(1);
        let old = RunKey::from_desc("old");
        let new = RunKey::from_desc("new");
        disk.store(old, &report(1));
        // Make mtimes strictly ordered even on coarse filesystems.
        let past = std::time::SystemTime::now() - std::time::Duration::from_secs(600);
        let set_old = std::fs::File::open(dir.join(format!("{}.json", old.hex())))
            .and_then(|f| f.set_modified(past));
        disk.store(new, &report(2));
        disk.sweep();
        if set_old.is_ok() {
            assert!(
                matches!(disk.load_classified(old), Load::Miss),
                "oldest entry must be evicted"
            );
        }
        assert!(disk.evicted() > 0, "sweep must count evictions");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeline_stores_count_towards_the_size_cap_sweep() {
        let dir = tmp_dir("evict-timeline");
        let disk = DiskCache::open(&dir).expect("open").with_cap_bytes(1);
        for i in 0..tlp_tracestore::store::SWEEP_EVERY {
            disk.store_timeline(RunKey::from_desc(&format!("t{i}")), &Timeline::default());
        }
        assert!(
            disk.evicted() > 0,
            "a timeline-only writer must still sweep"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_flight_coalesces_concurrent_requesters() {
        let cache = std::sync::Arc::new(ResultCache::in_memory());
        let key = RunKey::from_desc("slow-cell");
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                let barrier = std::sync::Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let r = cache.get_or_run(key, None, 0, || {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        report(99)
                    });
                    assert_eq!(r.total_cycles, 99);
                });
            }
        });
        let st = cache.stats();
        assert_eq!(st.simulated, 1, "one leader simulates");
        assert_eq!(st.requested, 4);
        assert_eq!(
            st.coalesced + st.mem_hits,
            3,
            "everyone else coalesces onto the flight (or lands after publish): {st:?}"
        );
    }

    #[test]
    fn single_flight_survives_a_panicking_leader() {
        let cache = std::sync::Arc::new(ResultCache::in_memory());
        let key = RunKey::from_desc("doomed-then-fine");
        let started = std::sync::Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|scope| {
            let c = std::sync::Arc::clone(&cache);
            let b = std::sync::Arc::clone(&started);
            let leader = scope.spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    c.get_or_run(key, None, 0, || {
                        b.wait();
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("leader dies mid-simulation");
                    })
                }));
            });
            // Start waiting only once the leader holds the flight.
            started.wait();
            let r = cache.get_or_run(key, None, 0, || report(7));
            assert_eq!(r.total_cycles, 7, "follower takes over after the abort");
            leader.join().expect("leader thread joins");
        });
        assert_eq!(cache.stats().simulated, 1, "only the takeover publishes");
    }

    #[test]
    fn stats_are_rendered_from_the_metrics_registry() {
        let cache = ResultCache::in_memory();
        let key = RunKey::from_desc("k");
        let _ = cache.get_or_run(key, Some("mcf/Baseline"), 1_500, || report(3));
        let _ = cache.get_or_run(key, None, 0, || report(3));
        let snap = cache.metrics().snapshot();
        assert_eq!(snap.counter("run_cache_requested_total"), Some(2));
        assert_eq!(snap.counter("run_cache_simulated_total"), Some(1));
        assert_eq!(snap.counter("run_cache_mem_hits_total"), Some(1));
        // The EngineStats snapshot and the registry agree by construction.
        let st = cache.stats();
        assert_eq!(st.requested, 2);
        assert_eq!(st.simulated, 1);
        assert_eq!(
            snap.histogram("run_cache_queue_wait_ns").map(|h| h.count),
            Some(1)
        );
        assert!(snap.histogram("run_cache_simulate_ns").unwrap().count == 1);

        let log = cache.cell_timings();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].label, "mcf/Baseline");
        assert_eq!(log[0].outcome, CellOutcome::Simulated);
        assert_eq!(log[0].queue_wait_ns, 1_500);
        assert_eq!(log[1].label, key.hex(), "unlabeled requests use the key");
        assert_eq!(log[1].outcome, CellOutcome::MemHit);
    }

    #[test]
    fn summary_line_reports_perfect_hit_rate() {
        let cache = ResultCache::in_memory();
        let key = RunKey::from_desc("k");
        cache.insert_simulated(key, report(1));
        let _ = cache.lookup(key);
        let line = cache.stats().summary_line();
        assert!(line.contains("hit_rate=100.0%"), "{line}");
        assert!(line.contains("simulated=1"), "{line}");
        assert_eq!(EngineStats::default().hit_rate_percent(), 100.0);
    }
}
