//! The harness trace tier: an LRU-capped in-memory map of captured
//! traces over the optional on-disk [`TraceStore`](tlp_tracestore::TraceStore).
//!
//! Resolution order (see `Harness::trace_for`) is memory → disk →
//! capture. The memory tier exists because a sweep touches the same
//! workload across dozens of schemes; the disk tier exists so a *second
//! process* (CI rerun, serve-daemon restart) replays the exact captured
//! records instead of regenerating them.
//!
//! # Why eviction needs pinning
//!
//! Workload generators advance a per-workload pass counter that seeds
//! the generator, so capturing the same workload twice in one process
//! records *different* traces. Evicting a memory entry is therefore only
//! sound when the records also live in the disk store (a later request
//! streams the identical bytes back); an entry whose store write failed
//! — or that was captured with no store configured — is pinned in memory
//! for the life of the harness.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tlp_trace::TraceRecord;

/// Default memory-tier capacity (distinct workloads) once a disk store
/// backs the tier. Without a store the tier is unbounded — eviction
/// would force a nondeterministic re-capture.
pub const DEFAULT_TRACE_MEM_CAP: usize = 16;

/// One memory-tier entry: shared records plus LRU/pinning bookkeeping.
struct MemTrace {
    records: Arc<Vec<TraceRecord>>,
    /// Logical timestamp of the last lookup (tier clock).
    last_use: u64,
    /// `true` when the identical records are known to be on disk, making
    /// eviction safe.
    evictable: bool,
}

/// LRU map of in-memory traces. Interior mutability is the caller's
/// problem (the harness holds it behind a `Mutex`); the type itself is
/// plain data plus the eviction policy.
#[derive(Default)]
pub(crate) struct TraceTier {
    map: HashMap<String, MemTrace>,
    clock: u64,
}

impl TraceTier {
    /// Looks up `name`, refreshing its LRU stamp on a hit.
    pub(crate) fn touch(&mut self, name: &str) -> Option<Arc<Vec<TraceRecord>>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(name).map(|e| {
            e.last_use = clock;
            Arc::clone(&e.records)
        })
    }

    /// Inserts a freshly captured trace. `evictable` must only be `true`
    /// when the records were successfully persisted to the disk store.
    pub(crate) fn insert(&mut self, name: String, records: Arc<Vec<TraceRecord>>, evictable: bool) {
        self.clock += 1;
        self.map.insert(
            name,
            MemTrace {
                records,
                last_use: self.clock,
                evictable,
            },
        );
    }

    /// Evicts least-recently-used *evictable* entries until the tier
    /// holds at most `cap` entries (pinned entries never count toward
    /// eviction candidates, so the tier can exceed `cap` when many pins
    /// accumulate). Returns the number of evictions.
    pub(crate) fn evict_to(&mut self, cap: usize) -> u64 {
        let mut evicted = 0;
        while self.map.len() > cap {
            let victim = self
                .map
                .iter()
                .filter(|(_, e)| e.evictable)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    self.map.remove(&name);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// Counters for the trace tier, mirrored into the harness summary line.
#[derive(Default)]
pub(crate) struct TraceTierCounters {
    pub(crate) mem_hits: AtomicU64,
    pub(crate) disk_hits: AtomicU64,
    pub(crate) captures: AtomicU64,
    pub(crate) evictions: AtomicU64,
}

/// Snapshot of the trace tier's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceTierStats {
    /// Lookups answered by the in-memory tier.
    pub mem_hits: u64,
    /// Lookups answered by streaming a stored (or `trace:`) file.
    pub disk_hits: u64,
    /// Fresh workload captures (a warm trace dir should show zero on a
    /// second run).
    pub captures: u64,
    /// Memory-tier entries evicted under the LRU cap.
    pub evictions: u64,
    /// Corrupt store files detected (and deleted) while resolving.
    pub corrupt: u64,
    /// Entries currently resident in the memory tier.
    pub resident: u64,
}

impl TraceTierCounters {
    pub(crate) fn snapshot(&self, corrupt: u64, resident: u64) -> TraceTierStats {
        TraceTierStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            captures: self.captures.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt,
            resident,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs() -> Arc<Vec<TraceRecord>> {
        Arc::new(vec![TraceRecord::branch(0x400, true, 0x400, None)])
    }

    #[test]
    fn lru_evicts_least_recent_evictable() {
        let mut t = TraceTier::default();
        t.insert("a".into(), recs(), true);
        t.insert("b".into(), recs(), true);
        t.insert("c".into(), recs(), true);
        assert!(t.touch("a").is_some()); // refresh a: b is now LRU
        assert_eq!(t.evict_to(2), 1);
        assert!(t.touch("b").is_none(), "b was least-recently used");
        assert!(t.touch("a").is_some());
        assert!(t.touch("c").is_some());
    }

    #[test]
    fn pinned_entries_survive_eviction() {
        let mut t = TraceTier::default();
        t.insert("pinned".into(), recs(), false);
        t.insert("disk1".into(), recs(), true);
        t.insert("disk2".into(), recs(), true);
        assert_eq!(t.evict_to(1), 2, "both evictable entries go");
        assert_eq!(t.len(), 1);
        assert!(t.touch("pinned").is_some(), "pinned entry must survive");
        // A tier of only pinned entries over cap stops evicting rather
        // than violating the determinism constraint.
        t.insert("pinned2".into(), recs(), false);
        assert_eq!(t.evict_to(1), 0);
        assert_eq!(t.len(), 2);
    }
}
