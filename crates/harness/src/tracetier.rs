//! The harness trace tier: an LRU-capped in-memory map of captured
//! traces over the optional on-disk [`TraceStore`](tlp_tracestore::TraceStore).
//!
//! Resolution order (see `Harness::trace_for`) is memory → disk →
//! capture. The memory tier exists because a sweep touches the same
//! workload across dozens of schemes; the disk tier exists so a *second
//! process* (CI rerun, serve-daemon restart) replays the stored records
//! instead of regenerating them. A capture is a function of the workload
//! and the budget, so an evicted trace comes back identical from either
//! tier below.

use std::collections::HashMap;
use std::sync::Arc;

use tlp_trace::TraceRecord;

use crate::cache::counters_line;

/// Memory-tier capacity in distinct workloads.
pub const DEFAULT_TRACE_MEM_CAP: usize = 16;

/// One memory-tier entry: shared records plus their LRU stamp.
struct MemTrace {
    records: Arc<Vec<TraceRecord>>,
    /// Logical timestamp of the last lookup (tier clock).
    last_use: u64,
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

    /// Inserts a freshly captured trace.
    pub(crate) fn insert(&mut self, name: String, records: Arc<Vec<TraceRecord>>) {
        self.clock += 1;
        let last_use = self.clock;
        self.map.insert(name, MemTrace { records, last_use });
    }

    /// Evicts least-recently-used entries until the tier holds at most
    /// `cap` entries. Returns the number of evictions.
    pub(crate) fn evict_to(&mut self, cap: usize) -> u64 {
        let mut evicted = 0;
        while self.map.len() > cap {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(name, _)| name.clone())
                .expect("a tier over its cap is not empty");
            self.map.remove(&lru);
            evicted += 1;
        }
        evicted
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
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

// The `# trace-store:` summary line writes the counters from this list,
// in this order.
tlp_sim::codec! {
    TraceTierStats { captures, mem_hits, disk_hits, evictions, corrupt, resident }
}

impl TraceTierStats {
    /// The one-line summary printed by the CLI (and asserted by CI's
    /// trace-store job): every counter as `name=value`.
    #[must_use]
    pub fn summary_line(&self) -> String {
        counters_line(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs() -> Arc<Vec<TraceRecord>> {
        Arc::new(vec![TraceRecord::branch(0x400, true, 0x400, None)])
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut t = TraceTier::default();
        t.insert("a".into(), recs());
        t.insert("b".into(), recs());
        t.insert("c".into(), recs());
        assert!(t.touch("a").is_some()); // refresh a: b is now LRU
        assert_eq!(t.evict_to(2), 1);
        assert!(t.touch("b").is_none(), "b was least-recently used");
        assert!(t.touch("a").is_some());
        assert!(t.touch("c").is_some());
    }
}
