//! Simulation statistics: the counters every figure of the paper is
//! computed from.

use crate::types::Level;

/// Per-cache counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand (load/RFO) accesses that hit.
    pub demand_hits: u64,
    /// Demand accesses that missed.
    pub demand_misses: u64,
    /// Prefetch requests that hit (dropped silently).
    pub prefetch_hits: u64,
    /// Prefetch requests that missed and went downstream.
    pub prefetch_misses: u64,
    /// Lines filled by prefetches.
    pub prefetch_fills: u64,
    /// Prefetched lines referenced by a demand before eviction.
    pub prefetch_useful: u64,
    /// Prefetched lines evicted (or left at end of simulation) unused.
    pub prefetch_useless: u64,
    /// Writebacks issued downstream.
    pub writebacks: u64,
    /// Requests stalled for a cycle because MSHRs were exhausted.
    pub mshr_stalls: u64,
}

impl CacheStats {
    /// Total demand accesses.
    #[must_use]
    pub fn demand_accesses(&self) -> u64 {
        self.demand_hits + self.demand_misses
    }

    /// Misses per kilo-instruction given an instruction count.
    #[must_use]
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        self.demand_misses as f64 * 1000.0 / instructions as f64
    }
}

/// DRAM controller counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DramStats {
    /// Demand/prefetch read transactions scheduled.
    pub reads: u64,
    /// Speculative (off-chip-predictor) read transactions scheduled.
    pub spec_reads: u64,
    /// Write (writeback) transactions scheduled.
    pub writes: u64,
    /// Row-buffer hits among scheduled transactions.
    pub row_hits: u64,
    /// Row conflicts (precharge required).
    pub row_conflicts: u64,
    /// Requests rejected because the read queue was full (retried).
    pub read_queue_full: u64,
    /// Speculative requests dropped because the queue was full.
    pub spec_dropped: u64,
    /// Speculative fills consumed by a matching demand.
    pub spec_consumed: u64,
    /// Speculative fills that expired unused (wasted bandwidth).
    pub spec_wasted: u64,
}

impl DramStats {
    /// Total DRAM transactions — the paper's headline DRAM-traffic metric
    /// (demand + prefetch + speculative reads, plus writebacks).
    #[must_use]
    pub fn transactions(&self) -> u64 {
        self.reads + self.spec_reads + self.writes
    }
}

/// Off-chip-prediction counters (Figures 2–4).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OffChipStats {
    /// Loads predicted off-chip with high confidence (spec issued at core).
    pub issued_now: u64,
    /// Loads tagged for selective delay (spec issued on L1D miss).
    pub tagged_delayed: u64,
    /// Delayed tags that actually missed in L1D and issued a spec request.
    pub delayed_issued: u64,
    /// Loads predicted on-chip.
    pub predicted_onchip: u64,
    /// For every *issued* speculative request: where the demand was
    /// actually served (Figure 4's outcome breakdown). Indexed by
    /// [`Level::index`].
    pub issued_outcome: [u64; 4],
    /// Off-chip loads (served from DRAM) that the predictor missed
    /// (predicted on-chip).
    pub missed_offchip: u64,
    /// On-chip loads correctly predicted on-chip.
    pub correct_onchip: u64,
}

impl OffChipStats {
    /// Records the outcome of an issued speculative request.
    pub fn record_outcome(&mut self, served: Level) {
        self.issued_outcome[served.index()] += 1;
    }

    /// Fraction of issued speculative requests whose load was truly served
    /// by DRAM (Figure 4's "accurate" slice).
    #[must_use]
    pub fn issue_accuracy(&self) -> f64 {
        let total: u64 = self.issued_outcome.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.issued_outcome[Level::Dram.index()] as f64 / total as f64
    }
}

/// Prefetch-pipeline counters for one prefetcher (Figures 5, 6, 12).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Candidates produced by the prefetcher.
    pub candidates: u64,
    /// Candidates discarded by the filter (SLP/PPF).
    pub filtered: u64,
    /// Candidates dropped for structural reasons (duplicate in cache/MSHR,
    /// queue full).
    pub dropped: u64,
    /// Prefetch requests issued into the hierarchy.
    pub issued: u64,
    /// Issued prefetches that completed (filled a line), by serving level.
    pub filled_by_level: [u64; 4],
    /// Prefetched lines that were later useful, by level that served the
    /// prefetch.
    pub useful_by_level: [u64; 4],
    /// Prefetched lines evicted/expired unused, by serving level.
    pub useless_by_level: [u64; 4],
}

impl PrefetchStats {
    /// Total filled prefetches.
    #[must_use]
    pub fn filled(&self) -> u64 {
        self.filled_by_level.iter().sum()
    }

    /// Total useful prefetches.
    #[must_use]
    pub fn useful(&self) -> u64 {
        self.useful_by_level.iter().sum()
    }

    /// Total useless prefetches.
    #[must_use]
    pub fn useless(&self) -> u64 {
        self.useless_by_level.iter().sum()
    }

    /// Prefetch accuracy = useful / (useful + useless), the Figure 12 metric.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let denom = self.useful() + self.useless();
        if denom == 0 {
            return 0.0;
        }
        self.useful() as f64 / denom as f64
    }

    /// Prefetches per kilo-instruction served from `level` that turned out
    /// useless (Figure 5) or useful (Figure 6).
    #[must_use]
    pub fn ppki(&self, level: Level, useful: bool, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        let n = if useful {
            self.useful_by_level[level.index()]
        } else {
            self.useless_by_level[level.index()]
        };
        n as f64 * 1000.0 / instructions as f64
    }
}

/// Per-core counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired (within the measured window).
    pub instructions: u64,
    /// Cycles elapsed until this core finished its measured window.
    pub cycles: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Branches retired.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// DTLB misses.
    pub dtlb_misses: u64,
    /// STLB misses (page walks).
    pub stlb_misses: u64,
    /// Store-to-load forwards.
    pub store_forwards: u64,
}

impl CoreStats {
    /// Instructions per cycle over the measured window.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.cycles as f64
    }
}

/// Everything measured for one core over the simulation window.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CoreReport {
    /// Workload name driving this core.
    pub workload: String,
    /// Core counters.
    pub core: CoreStats,
    /// L1D counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Off-chip prediction counters.
    pub offchip: OffChipStats,
    /// L1D prefetcher counters.
    pub l1_prefetch: PrefetchStats,
    /// L2 prefetcher counters.
    pub l2_prefetch: PrefetchStats,
}

/// The full result of one simulation run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Per-core results.
    pub cores: Vec<CoreReport>,
    /// Shared LLC counters.
    pub llc: CacheStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// LLC victim-cache counters (all zero when disabled).
    pub victim: crate::victim::VictimStats,
    /// Total cycles simulated in the measured window.
    pub total_cycles: u64,
}

impl SimReport {
    /// Single-core IPC (panics if not a 1-core run).
    ///
    /// # Panics
    ///
    /// Panics when the report has no cores.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.cores[0].core.ipc()
    }

    /// Total instructions across cores.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.core.instructions).sum()
    }

    /// Total DRAM transactions.
    #[must_use]
    pub fn dram_transactions(&self) -> u64 {
        self.dram.transactions()
    }

    /// LLC MPKI over all cores' instructions.
    #[must_use]
    pub fn llc_mpki(&self) -> f64 {
        self.llc.mpki(self.instructions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpki_and_ipc() {
        let c = CacheStats {
            demand_misses: 50,
            demand_hits: 100,
            ..CacheStats::default()
        };
        assert!((c.mpki(10_000) - 5.0).abs() < 1e-12);
        assert_eq!(c.demand_accesses(), 150);
        let cs = CoreStats {
            instructions: 1000,
            cycles: 500,
            ..CoreStats::default()
        };
        assert!((cs.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        assert_eq!(CacheStats::default().mpki(0), 0.0);
        assert_eq!(CoreStats::default().ipc(), 0.0);
        assert_eq!(PrefetchStats::default().accuracy(), 0.0);
        assert_eq!(OffChipStats::default().issue_accuracy(), 0.0);
    }

    #[test]
    fn prefetch_accuracy() {
        let mut p = PrefetchStats::default();
        p.useful_by_level[Level::Dram.index()] = 3;
        p.useless_by_level[Level::Dram.index()] = 9;
        assert!((p.accuracy() - 0.25).abs() < 1e-12);
        assert!((p.ppki(Level::Dram, false, 1000) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn dram_transactions_sum_all_kinds() {
        let d = DramStats {
            reads: 10,
            spec_reads: 5,
            writes: 3,
            ..DramStats::default()
        };
        assert_eq!(d.transactions(), 18);
    }

    #[test]
    fn offchip_outcome_accuracy() {
        let mut o = OffChipStats::default();
        o.record_outcome(Level::Dram);
        o.record_outcome(Level::Dram);
        o.record_outcome(Level::L1d);
        o.record_outcome(Level::Llc);
        assert!((o.issue_accuracy() - 0.5).abs() < 1e-12);
    }
}
