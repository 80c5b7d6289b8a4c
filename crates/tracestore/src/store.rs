//! The content-addressed on-disk stores.
//!
//! [`ContentStore`] is the one disk discipline behind both of the
//! workspace's stores: the result cache (`tlp_harness::cache::DiskCache`,
//! report and timeline JSON) and the [`TraceStore`] here (TLPT v2). Each
//! entry is one file named by a [`content_hash`] of its canonical
//! description. Entries are published by writing a uniquely named temp
//! file and renaming it into place, so concurrent writers — threads or
//! processes — never expose a torn entry and readers take no lock. Every
//! load is classified by one rule ([`Load`]); a corrupt entry is deleted
//! on sight and counted. An optional size cap evicts the
//! least-recently-modified entries.
//!
//! Captured traces are keyed by workload + capture environment + budget,
//! salted with [`TRACE_VERSION`]; imported external traces (the `trace:`
//! namespace) are keyed by their import name. The trace store is never
//! capped, because imports are stored nowhere else; a lost capture is
//! re-captured identical.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tlp_obs::Counter;
use tlp_trace::simpoint::SimPoint;
use tlp_trace::TraceRecord;

use crate::v2::{encode_trace_v2, ReadTraceError, StreamTrace};

/// Salt folded into every [`TraceKey`]. Bump this whenever trace capture
/// or the v2 encoding changes records, so stale on-disk traces can never
/// be replayed against new code.
pub const TRACE_VERSION: &str = "tlp-trace-v2";

/// The FNV-1a 64 offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over `bytes`, starting from `seed`.
pub(crate) fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The 128-bit content address of a canonical description: two
/// independent 64-bit FNV-1a streams with `salt` folded into both halves.
/// The grid is thousands of entries, far below the ~2⁶⁴ birthday bound.
#[must_use]
pub fn content_hash(salt: &str, desc: &str) -> u128 {
    let half = |basis| fnv1a(fnv1a(basis, salt.as_bytes()), desc.as_bytes());
    (u128::from(half(0x6c62_272e_07bb_0142)) << 64) | u128::from(half(FNV_OFFSET))
}

/// What [`ContentStore::load`] found for an entry.
#[derive(Debug)]
pub enum Load<T> {
    /// A well-formed entry.
    Hit(T),
    /// No usable entry: the file is absent, or reading it failed with an
    /// I/O error other than a short read (permissions, descriptor
    /// exhaustion, a directory in its place). Such an entry is left in
    /// place and not counted: it may be valid.
    Miss,
    /// The entry was read but did not decode (`InvalidData`, e.g. bad
    /// bytes or format) or was truncated (`UnexpectedEof`). It has been
    /// deleted and counted, so the next write replaces it.
    Corrupt,
}

/// How many writes happen between automatic size-cap sweeps.
pub const SWEEP_EVERY: u64 = 32;

/// Per-writer sequence folded into every temp-file name. The pid alone is
/// not collision-free: two threads of one process writing the same entry
/// would interleave writes into a single temp file and could rename a
/// torn entry over the real one.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of content-addressed entry files, all ending in one
/// extension, safe for concurrent writers across threads and processes.
/// Entries are best-effort (no fsync): a torn or lost entry costs a
/// recomputation, never a wrong result.
#[derive(Debug)]
pub struct ContentStore {
    dir: PathBuf,
    /// Extension of every entry file; the sweep evicts only these, so
    /// temp files and another store sharing the directory are left alone.
    ext: &'static str,
    cap_bytes: Option<u64>,
    writes: AtomicU64,
    corrupt: Counter,
    evicted: Counter,
}

impl ContentStore {
    /// Opens (creating if needed) a store under `dir` whose entry files
    /// end in `.{ext}`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>, ext: &'static str) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            ext,
            cap_bytes: None,
            writes: AtomicU64::new(0),
            corrupt: Counter::detached(),
            evicted: Counter::detached(),
        })
    }

    /// Caps the entries at `cap` bytes: every [`SWEEP_EVERY`]th write runs
    /// a [`sweep`](ContentStore::sweep).
    #[must_use]
    pub fn with_cap_bytes(mut self, cap: u64) -> Self {
        self.cap_bytes = Some(cap);
        self
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Corrupt entries deleted by loads (starts detached).
    #[must_use]
    pub fn corrupt(&self) -> &Counter {
        &self.corrupt
    }

    /// Entries deleted by size-cap sweeps (starts detached, so an owner
    /// can adopt it into its metrics registry).
    #[must_use]
    pub fn evicted(&self) -> &Counter {
        &self.evicted
    }

    /// Publishes `bytes` as entry `file`: a uniquely named temp file (never
    /// ending in the entry extension), then an atomic rename. The temp
    /// file is removed on failure. Every write, failed or not, counts
    /// towards the next size-cap sweep.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error of the create, write or rename.
    pub fn write(&self, file: &str, bytes: &[u8]) -> io::Result<PathBuf> {
        let path = self.dir.join(file);
        let tmp = self.dir.join(format!(
            "{file}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(bytes))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        if self.cap_bytes.is_some()
            && self.writes.fetch_add(1, Ordering::Relaxed) % SWEEP_EVERY == SWEEP_EVERY - 1
        {
            self.sweep();
        }
        written.map(|()| path)
    }

    /// Loads entry `file` through `decode`, which reports undecodable
    /// content as `InvalidData`. `NotFound` and every other I/O error are
    /// a [`Load::Miss`]; `InvalidData` and `UnexpectedEof` delete the
    /// entry and count it as [`Load::Corrupt`].
    pub fn load<T>(&self, file: &str, decode: impl FnOnce(&Path) -> io::Result<T>) -> Load<T> {
        let path = self.dir.join(file);
        match decode(&path) {
            Ok(value) => Load::Hit(value),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ) =>
            {
                let _ = std::fs::remove_file(&path);
                self.corrupt.inc();
                Load::Corrupt
            }
            Err(_) => Load::Miss,
        }
    }

    /// Size-cap enforcement: while the entries exceed the cap, delete the
    /// least-recently-modified ones. Concurrent sweeps from several
    /// processes are safe (a file deleted twice is deleted once). A no-op
    /// without a cap.
    pub fn sweep(&self) {
        let Some(cap) = self.cap_bytes else { return };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, u64, PathBuf)> = entries
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == self.ext))
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

/// Extension of every trace file in a [`TraceStore`].
const TRACE_EXT: &str = "tlpt";

/// Content hash identifying one stored trace ([`content_hash`] under the
/// [`TRACE_VERSION`] salt).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceKey(u128);

impl TraceKey {
    /// Hashes a canonical trace description.
    #[must_use]
    pub fn from_desc(desc: &str) -> Self {
        Self(content_hash(TRACE_VERSION, desc))
    }

    /// The key as 32 hex digits (the on-disk file stem).
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:032x}", self.0)
    }

    fn file(self) -> String {
        format!("{}.{TRACE_EXT}", self.hex())
    }
}

/// Canonical description of a captured workload trace. `env` is the
/// harness's run-budget fragment (scale, warmup, instructions); `budget`
/// is the record count captured.
#[must_use]
pub fn capture_desc(env: &str, workload: &str, budget: usize) -> String {
    format!("capture|{env}|{workload}|b{budget}")
}

/// Canonical description of an imported external trace (the `trace:`
/// namespace); imports are scale-independent.
#[must_use]
pub fn import_desc(name: &str) -> String {
    format!("import|{name}")
}

/// What [`TraceStore::open_trace`] found for a key.
pub type TraceLoad = Load<Box<StreamTrace>>;

/// The on-disk trace store: one TLPT v2 file per [`TraceKey`], uncapped.
#[derive(Debug)]
pub struct TraceStore {
    store: ContentStore,
}

impl TraceStore {
    /// Opens (creating if absent) a trace store under `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Ok(Self {
            store: ContentStore::open(dir, TRACE_EXT)?,
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The on-disk path for a key.
    #[must_use]
    pub fn path_for(&self, key: TraceKey) -> PathBuf {
        self.store.dir().join(key.file())
    }

    /// Corrupt entries deleted since open.
    #[must_use]
    pub fn corrupt_count(&self) -> u64 {
        self.store.corrupt().get()
    }

    /// Opens the stored trace for `key`, classifying the outcome (see
    /// [`Load`]). A corrupt file (torn write survivor, stale format) is
    /// deleted so the caller re-captures into a fresh entry.
    #[must_use]
    pub fn open_trace(&self, key: TraceKey) -> TraceLoad {
        self.store
            .load(&key.file(), |path| match StreamTrace::open(path) {
                Ok(t) => Ok(Box::new(t)),
                Err(ReadTraceError::Io(e)) => Err(e),
                Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            })
    }

    /// Writes a trace under `key` as one atomic [`ContentStore::write`].
    /// Concurrent writers of the same key are harmless — a capture is a
    /// function of the workload and the budget, so racing renames publish
    /// identical bytes.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the temp file is cleaned up.
    pub fn save(
        &self,
        key: TraceKey,
        name: &str,
        looping: bool,
        records: &[TraceRecord],
        simpoints: &[SimPoint],
        bbv_interval: usize,
    ) -> io::Result<PathBuf> {
        let bytes = encode_trace_v2(name, looping, records, simpoints, bbv_interval);
        self.store.write(&key.file(), &bytes)
    }

    /// Imports external records (e.g. a converted ChampSim trace) under
    /// the `trace:` namespace: SimPoints are computed with the standard
    /// capture-time parameters and the trace is stored looping (shorter
    /// traces wrap to fill a run budget), keyed by `name` alone.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the temp file is cleaned up.
    pub fn import(&self, name: &str, records: &[TraceRecord]) -> io::Result<PathBuf> {
        let cfg = tlp_trace::simpoint::BbvConfig::standard();
        let sps = tlp_trace::simpoint::simpoints_of(
            records,
            cfg,
            crate::CAPTURE_SIMPOINT_K,
            crate::CAPTURE_SIMPOINT_SEED,
        );
        self.save(
            TraceKey::from_desc(&import_desc(name)),
            &format!("trace:{name}"),
            true,
            records,
            &sps,
            cfg.interval,
        )
    }

    /// The on-disk path of an imported trace (whether or not it exists).
    #[must_use]
    pub fn import_path(&self, name: &str) -> PathBuf {
        self.path_for(TraceKey::from_desc(&import_desc(name)))
    }

    /// Names of all imported traces... are not recoverable from hashes;
    /// instead, stored trace files of either kind can be enumerated for
    /// maintenance. Returns `(path, file_bytes)` per entry.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory is unreadable.
    pub fn entries(&self) -> io::Result<Vec<(PathBuf, u64)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(self.dir())? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == TRACE_EXT) {
                out.push((path, entry.metadata()?.len()));
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_trace::{Reg, TraceSource};

    fn records(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                TraceRecord::load(
                    0x400 + (i as u64 % 9) * 4,
                    0x10_0000 + i as u64 * 64,
                    8,
                    Reg(1),
                    [None, None],
                )
            })
            .collect()
    }

    fn store(tag: &str) -> TraceStore {
        let dir = std::env::temp_dir().join(format!("tlp-store-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TraceStore::open(dir).expect("open store")
    }

    #[test]
    fn keys_separate_every_axis_and_differ_from_runkeys() {
        let descs = [
            capture_desc("Tiny|w5000|i25000", "bfs.urand", 30_096),
            capture_desc("Tiny|w5000|i25000", "bfs.urand", 30_097),
            capture_desc("Tiny|w5001|i25000", "bfs.urand", 30_096),
            capture_desc("Tiny|w5000|i25000", "bfs.kron", 30_096),
            import_desc("bfs.urand"),
        ];
        let keys: std::collections::HashSet<_> =
            descs.iter().map(|d| TraceKey::from_desc(d)).collect();
        assert_eq!(keys.len(), descs.len(), "every axis must change the key");
        assert_eq!(TraceKey::from_desc(&descs[0]).hex().len(), 32);
    }

    #[test]
    fn save_then_open_roundtrips() {
        let s = store("roundtrip");
        let recs = records(500);
        let key = TraceKey::from_desc(&capture_desc("env", "w", 500));
        assert!(matches!(s.open_trace(key), TraceLoad::Miss));
        let path = s.save(key, "w", true, &recs, &[], 0).expect("save");
        assert!(path.exists());
        let TraceLoad::Hit(mut t) = s.open_trace(key) else {
            panic!("expected hit");
        };
        assert_eq!(t.name(), "w");
        for r in &recs {
            assert_eq!(t.next_record().as_ref(), Some(r));
        }
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(s.dir())
            .expect("readdir")
            .filter_map(Result::ok)
            .filter(|e| e.path().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
        std::fs::remove_dir_all(s.dir()).ok();
    }

    #[test]
    fn corrupt_entries_are_deleted_and_counted() {
        let s = store("corrupt");
        let key = TraceKey::from_desc(&capture_desc("env", "w", 100));
        let path = s.path_for(key);
        let trace = encode_trace_v2("w", true, &records(100), &[], 0);
        let garbage: [&[u8]; 3] = [
            b"TLP2 garbage that is not a trace",
            &[0xff, 0xfe, 0x00, 0x80],
            &trace[..trace.len() / 2],
        ];
        for (i, bytes) in garbage.into_iter().enumerate() {
            std::fs::write(&path, bytes).expect("write");
            assert!(matches!(s.open_trace(key), TraceLoad::Corrupt));
            assert!(!path.exists(), "corrupt entry must be deleted");
            assert_eq!(s.corrupt_count(), i as u64 + 1);
        }
        // Next lookup is a clean miss.
        assert!(matches!(s.open_trace(key), TraceLoad::Miss));
        // An unreadable entry (here a directory; likewise EACCES or
        // EMFILE) is a miss that keeps the entry and counts nothing.
        std::fs::create_dir(&path).expect("mkdir");
        assert!(matches!(s.open_trace(key), TraceLoad::Miss));
        assert!(path.is_dir(), "an unreadable entry is kept");
        assert_eq!(s.corrupt_count(), 3);
        std::fs::remove_dir_all(s.dir()).ok();
    }

    #[test]
    fn imports_are_addressable_by_name() {
        let s = store("imports");
        let key = TraceKey::from_desc(&import_desc("demo"));
        s.save(key, "trace:demo", true, &records(64), &[], 0)
            .expect("save");
        assert_eq!(s.import_path("demo"), s.path_for(key));
        let TraceLoad::Hit(t) = s.open_trace(key) else {
            panic!("expected hit");
        };
        assert_eq!(t.name(), "trace:demo");
        assert_eq!(s.entries().expect("entries").len(), 1);
        std::fs::remove_dir_all(s.dir()).ok();
    }
}
