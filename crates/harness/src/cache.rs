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
//!   simulation-free. Safe for concurrent writers across threads and
//!   processes (uniquely named temp files + atomic rename, lock-free
//!   readers), with an optional size cap enforced by an LRU sweep.
//!
//! On top of the tiers sits a **single-flight layer**
//! ([`ResultCache::get_or_run`]): the first requester of a missing cell
//! becomes its *leader* and simulates; every concurrent requester of the
//! same [`RunKey`] — another batch, another thread, another `tlp-serve`
//! client — blocks on the in-flight slot and receives the leader's
//! published report. One simulation per unique cell, ever, no matter how
//! the traffic overlaps.
//!
//! Cell results are deterministic functions of their description (the
//! simulator is single-threaded per cell and all seeds are fixed), which
//! is what makes content addressing sound; `tests/determinism.rs` pins
//! that property across thread counts and cache states.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use parking_lot::RwLock;

use tlp_obs::{Counter, Histogram, MetricsRegistry};
use tlp_sim::{serial, SimReport, Timeline};

/// Salt folded into every [`RunKey`]. Bump this whenever a change to the
/// simulator or workload generation alters results, so stale on-disk cache
/// entries can never be served for the new code.
pub const CODE_VERSION: &str = "tlp-cells-v1";

/// Content hash identifying one simulation cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunKey(u128);

/// FNV-1a over `bytes`, starting from `seed`.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl RunKey {
    /// Hashes a canonical cell description (two independent 64-bit FNV-1a
    /// streams — the grid is thousands of cells, far below the ~2⁶⁴
    /// birthday bound of a 128-bit key). The [`CODE_VERSION`] salt is
    /// folded into both halves.
    #[must_use]
    pub fn from_desc(desc: &str) -> Self {
        let lo = fnv1a(
            fnv1a(0xcbf2_9ce4_8422_2325, CODE_VERSION.as_bytes()),
            desc.as_bytes(),
        );
        let hi = fnv1a(
            fnv1a(0x6c62_272e_07bb_0142, CODE_VERSION.as_bytes()),
            desc.as_bytes(),
        );
        Self((u128::from(hi) << 64) | u128::from(lo))
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
#[derive(Debug)]
pub enum DiskLoad {
    /// A well-formed entry.
    Hit(SimReport),
    /// No entry on disk.
    Miss,
    /// An entry existed but did not decode; it has been deleted so the
    /// next store rewrites it instead of leaving the corruption in place.
    Corrupt,
}

/// Per-writer sequence folded into every temp-file name. The pid alone is
/// not collision-free: two threads of one process storing the same key
/// would truncate and interleave writes into a single temp file and could
/// rename a torn entry over the real one.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// How many stores happen between automatic size-cap sweeps.
const SWEEP_EVERY: u64 = 32;

/// The on-disk tier: one `<key>.json` per cell under a cache directory,
/// safe for concurrent writers across threads *and* processes (every
/// entry is published by an atomic rename of a uniquely named temp file;
/// readers never take a lock).
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    cap_bytes: Option<u64>,
    stores: AtomicU64,
    /// Starts detached; adopted into the owning [`ResultCache`]'s
    /// metrics registry as `run_cache_evicted_total`.
    evicted: Counter,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            cap_bytes: None,
            stores: AtomicU64::new(0),
            evicted: Counter::detached(),
        })
    }

    /// Caps the directory at `cap` bytes of entries: every 32nd store
    /// (`SWEEP_EVERY`) runs an LRU [`sweep`](DiskCache::sweep) that
    /// deletes oldest-modified entries until the total fits.
    #[must_use]
    pub fn with_cap_bytes(mut self, cap: u64) -> Self {
        self.cap_bytes = Some(cap);
        self
    }

    /// The directory backing this cache.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured size cap, if any.
    #[must_use]
    pub fn cap_bytes(&self) -> Option<u64> {
        self.cap_bytes
    }

    /// Entries deleted by size-cap sweeps so far.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted.get()
    }

    fn path_for(&self, key: RunKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// Loads one report, distinguishing an absent entry from a corrupt
    /// one. A corrupt entry (torn write from a crashed process, bit rot,
    /// an incompatible format) is deleted on sight — before this, it sat
    /// on disk masquerading as a valid entry until some store happened to
    /// overwrite it — and the deletion is counted so operators can see
    /// cache corruption in the engine stats.
    #[must_use]
    pub fn load_classified(&self, key: RunKey) -> DiskLoad {
        let path = self.path_for(key);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return DiskLoad::Miss;
        };
        match serial::report_from_json(&text) {
            Ok(report) => DiskLoad::Hit(report),
            Err(_) => {
                let _ = std::fs::remove_file(&path);
                DiskLoad::Corrupt
            }
        }
    }

    /// Loads one report, or `None` when absent or undecodable (a corrupt
    /// entry is deleted and behaves like a miss).
    #[must_use]
    pub fn load(&self, key: RunKey) -> Option<SimReport> {
        match self.load_classified(key) {
            DiskLoad::Hit(report) => Some(report),
            DiskLoad::Miss | DiskLoad::Corrupt => None,
        }
    }

    /// Stores one report (atomically: uniquely named temp file + rename,
    /// so concurrent writers — same process or not — never publish a torn
    /// entry). Best-effort — a full disk degrades to cache misses, not
    /// failures.
    pub fn store(&self, key: RunKey, report: &SimReport) {
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{}",
            key.hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(serial::report_to_json(report).as_bytes())?;
            std::fs::rename(&tmp, self.path_for(key))
        };
        if write().is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        if self.cap_bytes.is_some()
            && self.stores.fetch_add(1, Ordering::Relaxed) % SWEEP_EVERY == SWEEP_EVERY - 1
        {
            self.sweep();
        }
    }

    /// Path of a timeline blob. Timeline artifacts live *next to* report
    /// entries under a distinct `<key>.timeline.json` name: they must
    /// never be probed by [`DiskCache::load_classified`], whose
    /// corruption check (and delete-on-sight) validates the report
    /// format. The `.json` suffix keeps them visible to the size-cap
    /// sweep, so a capped cache bounds blobs too.
    fn timeline_path_for(&self, key: RunKey) -> PathBuf {
        self.dir.join(format!("{}.timeline.json", key.hex()))
    }

    /// Loads one timeline blob; a corrupt blob is deleted and reads as a
    /// miss (it will simply be re-captured).
    #[must_use]
    pub fn load_timeline(&self, key: RunKey) -> Option<Timeline> {
        let path = self.timeline_path_for(key);
        let text = std::fs::read_to_string(&path).ok()?;
        match serial::timeline_from_json(&text) {
            Ok(t) => Some(t),
            Err(_) => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Stores one timeline blob (same atomic temp-file + rename protocol
    /// as [`DiskCache::store`]).
    pub fn store_timeline(&self, key: RunKey, timeline: &Timeline) {
        let tmp = self.dir.join(format!(
            "{}.timeline.tmp.{}.{}",
            key.hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(serial::timeline_to_json(timeline).as_bytes())?;
            std::fs::rename(&tmp, self.timeline_path_for(key))
        };
        if write().is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Size-cap enforcement: while the entries exceed the cap, delete the
    /// least-recently-modified ones. Concurrent sweeps from several
    /// processes are safe (a file deleted twice is deleted once); a
    /// deleted entry costs a re-simulation, never a wrong result.
    pub fn sweep(&self) {
        let Some(cap) = self.cap_bytes else { return };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, u64, PathBuf)> = entries
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, meta.len(), e.path()))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
        if total <= cap {
            return;
        }
        files.sort();
        for (_, len, path) in files {
            if total <= cap {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.evicted.inc();
            }
        }
    }
}

/// Snapshot of the engine's cache counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Cell lookups (batch submissions + result collection).
    pub requested: u64,
    /// Lookups answered from the in-memory tier.
    pub mem_hits: u64,
    /// Lookups answered from the on-disk tier.
    pub disk_hits: u64,
    /// Lookups that found their cell already in flight (here or on
    /// another client's request) and blocked on that single-flight slot
    /// instead of re-simulating.
    pub coalesced: u64,
    /// Corrupt on-disk entries found (and deleted) by lookups.
    pub corrupt: u64,
    /// On-disk entries deleted by size-cap sweeps.
    pub evicted: u64,
    /// Cells actually simulated.
    pub simulated: u64,
    /// The subset of `simulated` that ran inline on a collection path
    /// (a cache miss outside any [`run_cells`] batch). Migrated
    /// experiments plan their whole grid up front, so this staying 0 is
    /// the plan-covers-collection contract; a nonzero value means cells
    /// are simulating single-threaded where the worker pool should have
    /// run them.
    ///
    /// [`run_cells`]: crate::Harness::run_cells
    pub inline_simulated: u64,
    /// Duplicate cells coalesced inside submitted batches before any
    /// lookup (the grid-dedup counter).
    pub deduped: u64,
}

impl EngineStats {
    /// Lookups that did not cost this requester a simulation: cache-tier
    /// hits plus waits coalesced onto an in-flight simulation.
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
    /// cache-behavior job).
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "requested={} deduped={} mem_hits={} disk_hits={} coalesced={} corrupt={} evicted={} inline={} simulated={} hit_rate={:.1}%",
            self.requested,
            self.deduped,
            self.mem_hits,
            self.disk_hits,
            self.coalesced,
            self.corrupt,
            self.evicted,
            self.inline_simulated,
            self.simulated,
            self.hit_rate_percent()
        )
    }
}

/// One in-flight cell: the slot every later requester of the same key
/// blocks on instead of re-simulating. Plain `std` primitives — the
/// `parking_lot` shim has no condvar.
struct FlightSlot {
    state: Mutex<FlightState>,
    ready: Condvar,
}

enum FlightState {
    /// The leader is simulating (or loading from disk).
    Running,
    /// The leader published; every waiter gets this shared report.
    Done(Arc<SimReport>),
    /// The leader panicked without publishing; waiters re-contend for
    /// leadership (and re-hit the same panic if it is deterministic).
    Aborted,
}

impl FlightSlot {
    fn new() -> Self {
        Self {
            state: Mutex::new(FlightState::Running),
            ready: Condvar::new(),
        }
    }

    fn finish(&self, state: FlightState) {
        *self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = state;
        self.ready.notify_all();
    }

    /// Blocks until the leader publishes or aborts.
    fn wait(&self) -> Option<Arc<SimReport>> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            match &*state {
                FlightState::Running => {
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                FlightState::Done(report) => return Some(Arc::clone(report)),
                FlightState::Aborted => return None,
            }
        }
    }
}

/// Unwinds a leader that never published: removes the in-flight slot and
/// wakes waiters so one of them can take over. Disarmed on publish.
struct FlightGuard<'a> {
    cache: &'a ResultCache,
    key: RunKey,
    slot: &'a Arc<FlightSlot>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache
                .inflight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .remove(&self.key);
            self.slot.finish(FlightState::Aborted);
        }
    }
}

/// What a single-flight claim resolved to.
enum Claim {
    /// This requester simulates; everyone else waits on the slot.
    Lead(Arc<FlightSlot>),
    /// Another requester holds the key; wait on its slot.
    Follow(Arc<FlightSlot>),
    /// The cell was published while taking the claim lock.
    Hit(Arc<SimReport>),
}

/// How a [`ResultCache::get_or_run`] request was resolved — recorded per
/// cell into the timing log that `--profile` dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// Answered from the in-memory tier.
    MemHit,
    /// Answered from the on-disk tier.
    DiskHit,
    /// Blocked on another requester's in-flight simulation.
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
    /// time for leaders and blocking time for coalesced followers).
    pub total_ns: u64,
}

/// Profile timing-log cap: a long-lived daemon must not grow the log
/// without bound, so entries past this are dropped (and counted).
const MAX_CELL_LOG: usize = 16_384;

/// The two-tier content-addressed cache with a cross-requester
/// single-flight layer: concurrent requests for one [`RunKey`] — from
/// several batches, threads, or service clients — cost exactly one
/// simulation.
///
/// Every counter the engine reports lives in a per-cache
/// [`MetricsRegistry`] (`run_cache_*` names): [`ResultCache::stats`] and
/// the `# run-engine:` summary line are rendered *from* those metrics,
/// and phase histograms (lookup / simulate / store / queue wait /
/// coalesce wait, all nanoseconds) sit alongside them for `--profile`
/// and the serve daemon's `STATS` frame.
pub struct ResultCache {
    mem: RwLock<HashMap<RunKey, Arc<SimReport>>>,
    mem_timelines: RwLock<HashMap<RunKey, Arc<Timeline>>>,
    disk: Option<DiskCache>,
    inflight: Mutex<HashMap<RunKey, Arc<FlightSlot>>>,
    registry: Arc<MetricsRegistry>,
    requested: Counter,
    mem_hits: Counter,
    disk_hits: Counter,
    coalesced: Counter,
    corrupt: Counter,
    simulated: Counter,
    inline_simulated: Counter,
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
            .field("entries", &self.mem.read().len())
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
            mem: RwLock::new(HashMap::new()),
            mem_timelines: RwLock::new(HashMap::new()),
            disk: None,
            inflight: Mutex::new(HashMap::new()),
            requested: registry.counter("run_cache_requested_total"),
            mem_hits: registry.counter("run_cache_mem_hits_total"),
            disk_hits: registry.counter("run_cache_disk_hits_total"),
            coalesced: registry.counter("run_cache_coalesced_total"),
            corrupt: registry.counter("run_cache_corrupt_total"),
            simulated: registry.counter("run_cache_simulated_total"),
            inline_simulated: registry.counter("run_cache_inline_simulated_total"),
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
                .adopt_counter("run_cache_evicted_total", &d.evicted);
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
        self.cell_log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    fn log_cell(&self, timing: CellTiming) {
        let mut log = self
            .cell_log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
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
        if let Some(r) = self.mem.read().get(&key) {
            self.mem_hits.inc();
            return Some(Arc::clone(r));
        }
        match self.load_disk(key) {
            Some(report) => {
                self.disk_hits.inc();
                let arc = Arc::new(report);
                Some(Arc::clone(
                    self.mem.write().entry(key).or_insert_with(|| arc),
                ))
            }
            None => None,
        }
    }

    /// Disk-tier load with corruption accounting.
    fn load_disk(&self, key: RunKey) -> Option<SimReport> {
        match self.disk.as_ref()?.load_classified(key) {
            DiskLoad::Hit(report) => Some(report),
            DiskLoad::Miss => None,
            DiskLoad::Corrupt => {
                self.corrupt.inc();
                None
            }
        }
    }

    /// Records a freshly simulated cell into both tiers. If another thread
    /// raced the same key in, the first entry wins (both are identical by
    /// determinism) and its `Arc` is returned.
    pub fn insert_simulated(&self, key: RunKey, report: SimReport) -> Arc<SimReport> {
        self.simulated.inc();
        if let Some(d) = &self.disk {
            let _t = self.store_ns.span();
            d.store(key, &report);
        }
        let arc = Arc::new(report);
        Arc::clone(self.mem.write().entry(key).or_insert_with(|| arc))
    }

    /// Looks one timeline blob up: memory first, then disk (promoting a
    /// disk hit into memory). Timeline captures are deterministic, so
    /// they are deliberately *not* single-flighted — a racing duplicate
    /// capture wastes work but can never publish a different blob.
    #[must_use]
    pub fn lookup_timeline(&self, key: RunKey) -> Option<Arc<Timeline>> {
        if let Some(t) = self.mem_timelines.read().get(&key) {
            return Some(Arc::clone(t));
        }
        let timeline = self.disk.as_ref()?.load_timeline(key)?;
        let arc = Arc::new(timeline);
        Some(Arc::clone(
            self.mem_timelines.write().entry(key).or_insert_with(|| arc),
        ))
    }

    /// Records a freshly captured timeline blob into both tiers. On a
    /// racing insert the first entry wins (both are identical by
    /// determinism) and its `Arc` is returned.
    pub fn insert_timeline(&self, key: RunKey, timeline: Timeline) -> Arc<Timeline> {
        if let Some(d) = &self.disk {
            d.store_timeline(key, &timeline);
        }
        let arc = Arc::new(timeline);
        Arc::clone(self.mem_timelines.write().entry(key).or_insert_with(|| arc))
    }

    /// Single-flight resolution of one cell: answer from a cache tier,
    /// *lead* (run `simulate` and publish for everyone), or *follow*
    /// (block until the in-flight leader — possibly serving a different
    /// batch, thread, or service client — publishes). Exactly one
    /// requester per key ever simulates, per cache lifetime; this closes
    /// the lookup-then-simulate window that previously let two
    /// overlapping batches both miss and both simulate the same cell.
    ///
    /// Counts one request, plus `mem_hits`/`disk_hits`/`coalesced`/
    /// `simulated` for how the cell was resolved. If a leader panics, a
    /// waiter takes over leadership (and a deterministic panic
    /// propagates to every requester in turn).
    pub fn get_or_run<F>(&self, key: RunKey, simulate: F) -> Arc<SimReport>
    where
        F: FnOnce() -> SimReport,
    {
        self.get_or_run_labeled(key, None, 0, simulate)
    }

    /// [`ResultCache::get_or_run`] with profile attribution: `label`
    /// names the cell in the per-cell timing log (falling back to the
    /// key's hex) and `queue_wait_ns` is how long the request sat in a
    /// batch queue before this call (recorded into
    /// `run_cache_queue_wait_ns`).
    pub fn get_or_run_labeled<F>(
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
        let mut simulate = Some(simulate);
        let (report, outcome) = loop {
            {
                let _t = self.lookup_ns.span();
                if let Some(r) = self.mem.read().get(&key) {
                    self.mem_hits.inc();
                    break (Arc::clone(r), CellOutcome::MemHit);
                }
            }
            match self.claim(key) {
                Claim::Hit(r) => {
                    self.mem_hits.inc();
                    break (r, CellOutcome::MemHit);
                }
                Claim::Follow(slot) => {
                    let wait = self.coalesce_wait_ns.span();
                    match slot.wait() {
                        Some(r) => {
                            self.coalesced.inc();
                            break (r, CellOutcome::Coalesced);
                        }
                        // The leader died; go claim leadership ourselves.
                        None => {
                            drop(wait);
                            continue;
                        }
                    }
                }
                Claim::Lead(slot) => {
                    let mut guard = FlightGuard {
                        cache: self,
                        key,
                        slot: &slot,
                        armed: true,
                    };
                    // Only the leader probes the disk tier, so a shared
                    // directory sees one read per key per process.
                    let probe = self.lookup_ns.span();
                    let loaded = self.load_disk(key);
                    drop(probe);
                    if let Some(report) = loaded {
                        self.disk_hits.inc();
                        break (
                            self.publish(&mut guard, Arc::new(report)),
                            CellOutcome::DiskHit,
                        );
                    }
                    let report = {
                        let _t = self.simulate_ns.span();
                        (simulate.take().expect("leader runs once"))()
                    };
                    self.simulated.inc();
                    if let Some(d) = &self.disk {
                        let _t = self.store_ns.span();
                        d.store(key, &report);
                    }
                    break (
                        self.publish(&mut guard, Arc::new(report)),
                        CellOutcome::Simulated,
                    );
                }
            }
        };
        self.log_cell(CellTiming {
            label: label.map_or_else(|| key.hex(), str::to_owned),
            outcome,
            queue_wait_ns,
            total_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
        report
    }

    /// Takes the single-flight claim for `key`. The memory tier is
    /// re-checked under the in-flight lock: a leader publishes to memory
    /// *before* releasing its slot, so a key absent from both maps here
    /// is provably not in flight.
    fn claim(&self, key: RunKey) -> Claim {
        let mut inflight = self
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(r) = self.mem.read().get(&key) {
            return Claim::Hit(Arc::clone(r));
        }
        match inflight.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => Claim::Follow(Arc::clone(e.get())),
            std::collections::hash_map::Entry::Vacant(v) => {
                let slot = Arc::new(FlightSlot::new());
                v.insert(Arc::clone(&slot));
                Claim::Lead(slot)
            }
        }
    }

    /// Leader-side publish: memory tier first (first writer wins), then
    /// release the in-flight slot and wake every waiter with the shared
    /// report.
    fn publish(&self, guard: &mut FlightGuard<'_>, report: Arc<SimReport>) -> Arc<SimReport> {
        let arc = Arc::clone(
            self.mem
                .write()
                .entry(guard.key)
                .or_insert_with(|| Arc::clone(&report)),
        );
        self.inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&guard.key);
        guard.armed = false;
        guard.slot.finish(FlightState::Done(Arc::clone(&arc)));
        arc
    }

    /// Records `n` in-batch duplicate submissions.
    pub fn note_deduped(&self, n: u64) {
        self.deduped.add(n);
    }

    /// Records one simulation that ran inline on a collection path
    /// instead of inside a submitted batch (see
    /// [`EngineStats::inline_simulated`]).
    pub fn note_inline_simulated(&self) {
        self.inline_simulated.inc();
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
            inline_simulated: self.inline_simulated.get(),
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
        std::fs::write(&entry, "not json").expect("write garbage");
        let cache = ResultCache::with_disk(disk);
        assert!(cache.lookup(key).is_none());
        assert!(!entry.exists(), "corrupt entry must be deleted on sight");
        assert_eq!(cache.stats().corrupt, 1);
        // The next lookup is a clean miss, not another corruption.
        assert!(cache.lookup(key).is_none());
        assert_eq!(cache.stats().corrupt, 1);
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
        assert!(disk.load(key).is_some());
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
            assert!(disk.load(old).is_none(), "oldest entry must be evicted");
        }
        assert!(disk.evicted() > 0, "sweep must count evictions");
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
                    let r = cache.get_or_run(key, || {
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
                    c.get_or_run(key, || {
                        b.wait();
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("leader dies mid-simulation");
                    })
                }));
            });
            // Start waiting only once the leader holds the flight.
            started.wait();
            let r = cache.get_or_run(key, || report(7));
            assert_eq!(r.total_cycles, 7, "follower takes over after the abort");
            leader.join().expect("leader thread joins");
        });
        assert_eq!(cache.stats().simulated, 1, "only the takeover publishes");
    }

    #[test]
    fn stats_are_rendered_from_the_metrics_registry() {
        let cache = ResultCache::in_memory();
        let key = RunKey::from_desc("k");
        let _ = cache.get_or_run_labeled(key, Some("mcf/Baseline"), 1_500, || report(3));
        let _ = cache.get_or_run(key, || report(3));
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
