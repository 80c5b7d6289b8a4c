//! The content-addressed on-disk trace store.
//!
//! Mirrors the result cache's disk discipline (`tlp_harness::cache`):
//! every trace is one file named by its [`TraceKey`] hex under the store
//! directory, written to a uniquely named temp file and atomically
//! renamed into place (safe for concurrent threads and processes),
//! corrupt entries deleted on sight and counted. Captured traces are
//! keyed by workload + capture environment + budget, salted with
//! [`TRACE_VERSION`]; imported external traces (the `trace:` namespace)
//! are keyed by their import name.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tlp_trace::simpoint::SimPoint;
use tlp_trace::TraceRecord;

use crate::v2::{write_trace_v2, ReadTraceError, StreamTrace};

/// Salt folded into every [`TraceKey`]. Bump this whenever trace capture
/// or the v2 encoding changes records, so stale on-disk traces can never
/// be replayed against new code.
pub const TRACE_VERSION: &str = "tlp-trace-v2";

/// Content hash identifying one stored trace (same double-FNV discipline
/// as the result cache's `RunKey`, under its own salt).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceKey(u128);

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl TraceKey {
    /// Hashes a canonical trace description: two independent 64-bit
    /// FNV-1a streams with the [`TRACE_VERSION`] salt folded into both.
    #[must_use]
    pub fn from_desc(desc: &str) -> Self {
        let lo = fnv1a(
            fnv1a(0xcbf2_9ce4_8422_2325, TRACE_VERSION.as_bytes()),
            desc.as_bytes(),
        );
        let hi = fnv1a(
            fnv1a(0x6c62_272e_07bb_0142, TRACE_VERSION.as_bytes()),
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
#[derive(Debug)]
pub enum TraceLoad {
    /// A well-formed trace file.
    Hit(Box<StreamTrace>),
    /// No file for this key.
    Miss,
    /// A file existed but failed validation; it has been deleted.
    Corrupt,
}

/// The on-disk trace store: one v2 file per [`TraceKey`].
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    corrupt: AtomicU64,
}

/// Uniquifies temp names across threads of one process; the PID component
/// covers concurrent processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl TraceStore {
    /// Opens (creating if absent) a trace store under `dir`.
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
            corrupt: AtomicU64::new(0),
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path for a key.
    #[must_use]
    pub fn path_for(&self, key: TraceKey) -> PathBuf {
        self.dir.join(format!("{}.tlpt", key.hex()))
    }

    /// Corrupt entries deleted since open.
    #[must_use]
    pub fn corrupt_count(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Opens the stored trace for `key`, classifying the outcome. A
    /// corrupt file (torn write survivor, stale format) is deleted so the
    /// caller re-captures into a fresh entry.
    #[must_use]
    pub fn open_trace(&self, key: TraceKey) -> TraceLoad {
        let path = self.path_for(key);
        match StreamTrace::open(&path) {
            Ok(t) => TraceLoad::Hit(Box::new(t)),
            Err(ReadTraceError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                TraceLoad::Miss
            }
            Err(_) => {
                std::fs::remove_file(&path).ok();
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                TraceLoad::Corrupt
            }
        }
    }

    /// Writes a trace under `key`: encode to a uniquely named temp file,
    /// then atomically rename into place. Concurrent writers of the same
    /// key are harmless — captures are deterministic per fresh process,
    /// so racing renames publish identical bytes.
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
    ) -> std::io::Result<PathBuf> {
        let final_path = self.path_for(key);
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{}",
            key.hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        match write_trace_v2(&tmp, name, looping, records, simpoints, bbv_interval)
            .and_then(|_| std::fs::rename(&tmp, &final_path))
        {
            Ok(()) => Ok(final_path),
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                Err(e)
            }
        }
    }

    /// Imports external records (e.g. a converted ChampSim trace) under
    /// the `trace:` namespace: SimPoints are computed with the standard
    /// capture-time parameters and the trace is stored looping (shorter
    /// traces wrap to fill a run budget), keyed by `name` alone.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the temp file is cleaned up.
    pub fn import(&self, name: &str, records: &[TraceRecord]) -> std::io::Result<PathBuf> {
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

    /// Whether an imported trace named `name` exists in the store.
    #[must_use]
    pub fn has_import(&self, name: &str) -> bool {
        self.path_for(TraceKey::from_desc(&import_desc(name)))
            .exists()
    }

    /// Opens an imported trace by its import name.
    #[must_use]
    pub fn open_import(&self, name: &str) -> TraceLoad {
        self.open_trace(TraceKey::from_desc(&import_desc(name)))
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
    pub fn entries(&self) -> std::io::Result<Vec<(PathBuf, u64)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "tlpt") {
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
        std::fs::write(&path, b"TLP2 garbage that is not a trace").expect("write");
        assert!(matches!(s.open_trace(key), TraceLoad::Corrupt));
        assert!(!path.exists(), "corrupt entry must be deleted");
        assert_eq!(s.corrupt_count(), 1);
        // Next lookup is a clean miss.
        assert!(matches!(s.open_trace(key), TraceLoad::Miss));
        std::fs::remove_dir_all(s.dir()).ok();
    }

    #[test]
    fn imports_are_addressable_by_name() {
        let s = store("imports");
        assert!(!s.has_import("demo"));
        let key = TraceKey::from_desc(&import_desc("demo"));
        s.save(key, "trace:demo", true, &records(64), &[], 0)
            .expect("save");
        assert!(s.has_import("demo"));
        let TraceLoad::Hit(t) = s.open_import("demo") else {
            panic!("expected hit");
        };
        assert_eq!(t.name(), "trace:demo");
        assert_eq!(s.entries().expect("entries").len(), 1);
        std::fs::remove_dir_all(s.dir()).ok();
    }
}
