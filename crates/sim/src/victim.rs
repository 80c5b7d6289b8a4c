//! An optional victim cache on the LLC refill path (Jouppi, ISCA 1990).
//!
//! The paper's related work (§VII) contrasts TLP with the Victim Cache: a
//! small fully-associative buffer holding recent LLC evictions, probed on
//! LLC misses. A hit swaps the line back into the LLC, converting a
//! would-be DRAM access into an on-chip one. The paper argues this helps
//! conflict-heavy SPEC-style workloads but relies on locality assumptions
//! that irregular workloads break — the victim-cache extension experiment
//! tests exactly that claim against TLP.
//!
//! Model notes: dirty victims are written back to DRAM at eviction time
//! (as without a victim cache) and enter the buffer clean, so DRAM write
//! traffic is identical with and without the buffer; only read traffic
//! changes.

/// Victim-cache counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct VictimStats {
    /// LLC misses that hit in the victim cache (DRAM reads avoided).
    pub hits: u64,
    /// LLC misses that also missed in the victim cache.
    pub misses: u64,
    /// Evicted LLC lines inserted.
    pub insertions: u64,
}

impl VictimStats {
    /// Hit rate over all probes.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A fully-associative, LRU victim buffer of line addresses.
#[derive(Debug)]
pub struct VictimCache {
    lines: Vec<u64>,
    stamps: Vec<u64>,
    capacity: usize,
    clock: u64,
    /// Counters.
    pub stats: VictimStats,
}

impl VictimCache {
    /// Creates a victim cache holding `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use `Option<VictimCache>` to disable).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "victim cache capacity must be nonzero");
        Self {
            lines: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            capacity,
            clock: 0,
            stats: VictimStats::default(),
        }
    }

    /// Number of lines currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when no lines are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Probes for `line` on an LLC miss. A hit removes the entry (the line
    /// swaps back into the LLC) and returns true.
    pub fn probe_remove(&mut self, line: u64) -> bool {
        if let Some(i) = self.lines.iter().position(|&l| l == line) {
            self.lines.swap_remove(i);
            self.stamps.swap_remove(i);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// Inserts an evicted LLC line, displacing the LRU entry when full.
    /// Re-inserting a present line refreshes its age.
    pub fn insert(&mut self, line: u64) {
        self.clock += 1;
        self.stats.insertions += 1;
        if let Some(i) = self.lines.iter().position(|&l| l == line) {
            self.stamps[i] = self.clock;
            return;
        }
        if self.lines.len() < self.capacity {
            self.lines.push(line);
            self.stamps.push(self.clock);
            return;
        }
        let lru = self
            .stamps
            .iter()
            .enumerate()
            .min_by_key(|(_, &s)| s)
            .map(|(i, _)| i)
            .expect("nonzero capacity");
        self.lines[lru] = line;
        self.stamps[lru] = self.clock;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_removes_entry() {
        let mut vc = VictimCache::new(4);
        vc.insert(10);
        assert!(vc.probe_remove(10));
        assert!(!vc.probe_remove(10), "entry consumed by the hit");
        assert_eq!(vc.stats.hits, 1);
        assert_eq!(vc.stats.misses, 1);
        assert!(vc.is_empty());
    }

    #[test]
    fn lru_displacement() {
        let mut vc = VictimCache::new(2);
        vc.insert(1);
        vc.insert(2);
        vc.insert(3); // displaces 1
        assert!(!vc.probe_remove(1));
        assert!(vc.probe_remove(2));
        assert!(vc.probe_remove(3));
        assert_eq!(vc.len(), 0);
    }

    #[test]
    fn reinsert_refreshes_age() {
        let mut vc = VictimCache::new(2);
        vc.insert(1);
        vc.insert(2);
        vc.insert(1); // refresh: 2 is now LRU
        vc.insert(3); // displaces 2
        assert!(vc.probe_remove(1));
        assert!(!vc.probe_remove(2));
        assert!(vc.probe_remove(3));
    }

    #[test]
    fn hit_rate_counts() {
        let mut vc = VictimCache::new(2);
        vc.insert(5);
        vc.probe_remove(5);
        vc.probe_remove(6);
        vc.probe_remove(7);
        assert!((vc.stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(VictimStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        let _ = VictimCache::new(0);
    }
}
