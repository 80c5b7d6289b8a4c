//! System configuration (the paper's Table III).

use crate::replacement::ReplKind;
use crate::types::LINE_SIZE;

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Lookup latency in cycles.
    pub latency: u64,
    /// Number of MSHR entries (bounds outstanding misses).
    pub mshrs: usize,
    /// Prefetch-queue capacity (pending prefetch issues).
    pub prefetch_queue: usize,
}

impl CacheConfig {
    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * LINE_SIZE
    }

    fn validate(&self, name: &str) -> Result<(), ConfigError> {
        if !self.sets.is_power_of_two() {
            return Err(ConfigError(format!("{name}: sets must be a power of two")));
        }
        if self.ways == 0 || self.mshrs == 0 {
            return Err(ConfigError(format!(
                "{name}: ways and mshrs must be nonzero"
            )));
        }
        Ok(())
    }
}

/// TLB geometry (hit latency modelled, miss falls through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in cycles.
    pub latency: u64,
}

/// DRAM controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of banks.
    pub banks: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Column access latency (cycles).
    pub t_cas: u64,
    /// Row activation latency (cycles).
    pub t_rcd: u64,
    /// Precharge latency (cycles).
    pub t_rp: u64,
    /// Data-bus bandwidth in GB/s (total across cores).
    pub bus_gbps: f64,
    /// CPU frequency in GHz (converts bandwidth to cycles/line).
    pub cpu_ghz: f64,
    /// Read-queue capacity.
    pub read_queue: usize,
    /// Write-queue capacity.
    pub write_queue: usize,
    /// Capacity of the DDRP buffer holding completed speculative fills.
    pub ddrp_buffer: usize,
}

impl DramConfig {
    /// Bus occupancy per 64-byte transfer, in CPU cycles (≥ 1).
    #[must_use]
    pub fn burst_cycles(&self) -> u64 {
        let bytes_per_cycle = self.bus_gbps / self.cpu_ghz;
        ((LINE_SIZE as f64 / bytes_per_cycle).round() as u64).max(1)
    }
}

/// Out-of-order core configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Fetch/dispatch width (instructions per cycle).
    pub fetch_width: usize,
    /// Issue width (instructions starting execution per cycle).
    pub issue_width: usize,
    /// Retire width.
    pub retire_width: usize,
    /// Re-order buffer capacity.
    pub rob: usize,
    /// Load queue capacity.
    pub load_queue: usize,
    /// Store queue capacity.
    pub store_queue: usize,
    /// Scheduler window (oldest N unissued entries examined per cycle).
    pub sched_window: usize,
    /// L1D ports (loads issued to the cache per cycle).
    pub l1d_ports: usize,
    /// Extra penalty cycles after a mispredicted branch resolves.
    pub mispredict_penalty: u64,
    /// Floating-point execution latency.
    pub fp_latency: u64,
    /// Latency before a predictor-triggered speculative DRAM request leaves
    /// the core (the paper's 6-cycle FLP/SLP latency).
    pub offchip_predictor_latency: u64,
    /// Page-walk latency on an STLB miss (fixed-latency walker).
    pub page_walk_latency: u64,
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// Core microarchitecture.
    pub core: CoreConfig,
    /// L1 data cache (per core).
    pub l1d: CacheConfig,
    /// L2 cache (per core).
    pub l2: CacheConfig,
    /// Shared LLC (sized per core count by [`SystemConfig::cascade_lake`]).
    pub llc: CacheConfig,
    /// L1 DTLB.
    pub dtlb: TlbConfig,
    /// Unified second-level TLB.
    pub stlb: TlbConfig,
    /// DRAM controller.
    pub dram: DramConfig,
    /// LLC replacement policy (Table III: LRU; the other policies feed the
    /// replacement-ablation experiment).
    pub llc_repl: ReplKind,
    /// LLC victim-cache entries (0 = disabled, the paper's configuration;
    /// nonzero sizes feed the victim-cache extension experiment).
    pub victim_cache_entries: usize,
}

/// Configuration validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl SystemConfig {
    /// The paper's baseline (Table III): Intel Cascade Lake-like, 3.8 GHz,
    /// 4-wide OoO, 224-entry ROB, 32 KB L1D, 1 MB L2, 1.375 MB LLC/core,
    /// DDR4 with 12.8 GB/s per core (single-core) or 3.2 GB/s per core
    /// (multi-core).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn cascade_lake(cores: usize) -> Self {
        assert!(cores > 0, "at least one core required");
        let per_core_gbps = if cores == 1 { 12.8 } else { 3.2 };
        Self::cascade_lake_with_bandwidth(cores, per_core_gbps)
    }

    /// Cascade Lake baseline with an explicit per-core DRAM bandwidth
    /// (the Figure 16 sensitivity knob).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or the bandwidth is not positive.
    #[must_use]
    pub fn cascade_lake_with_bandwidth(cores: usize, per_core_gbps: f64) -> Self {
        assert!(cores > 0, "at least one core required");
        assert!(per_core_gbps > 0.0, "bandwidth must be positive");
        // LLC: 1.375 MB per core, 11-way => 2048 sets per core.
        let llc_sets = 2048 * cores;
        Self {
            cores,
            core: CoreConfig {
                fetch_width: 4,
                issue_width: 4,
                retire_width: 4,
                rob: 224,
                load_queue: 96,
                store_queue: 64,
                sched_window: 64,
                l1d_ports: 2,
                mispredict_penalty: 5,
                fp_latency: 3,
                offchip_predictor_latency: 6,
                page_walk_latency: 40,
            },
            l1d: CacheConfig {
                sets: 64,
                ways: 8,
                latency: 4,
                mshrs: 10,
                prefetch_queue: 16,
            },
            l2: CacheConfig {
                sets: 1024,
                ways: 16,
                latency: 10,
                mshrs: 16,
                prefetch_queue: 32,
            },
            llc: CacheConfig {
                sets: llc_sets,
                ways: 11,
                latency: if cores == 1 { 36 } else { 56 },
                mshrs: 64 * cores,
                prefetch_queue: 32 * cores,
            },
            dtlb: TlbConfig {
                sets: 16,
                ways: 4,
                latency: 1,
            },
            stlb: TlbConfig {
                sets: 128,
                ways: 12,
                latency: 8,
            },
            dram: DramConfig {
                banks: 8,
                row_bytes: 8192,
                t_cas: 24,
                t_rcd: 24,
                t_rp: 24,
                bus_gbps: per_core_gbps * cores as f64,
                cpu_ghz: 3.8,
                read_queue: 48 * cores,
                write_queue: 48 * cores,
                ddrp_buffer: 32 * cores,
            },
            llc_repl: ReplKind::Lru,
            victim_cache_entries: 0,
        }
    }

    /// A scaled-down configuration for unit tests: tiny caches so that
    /// misses and evictions happen within a few hundred accesses.
    #[must_use]
    pub fn test_tiny(cores: usize) -> Self {
        let mut cfg = Self::cascade_lake(cores.max(1));
        cfg.l1d.sets = 8;
        cfg.l1d.ways = 2;
        cfg.l2.sets = 16;
        cfg.l2.ways = 4;
        cfg.llc.sets = 32;
        cfg.llc.ways = 4;
        cfg
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError("cores must be nonzero".into()));
        }
        self.l1d.validate("l1d")?;
        self.l2.validate("l2")?;
        self.llc.validate("llc")?;
        if self.core.rob == 0 || self.core.fetch_width == 0 || self.core.retire_width == 0 {
            return Err(ConfigError("core widths and ROB must be nonzero".into()));
        }
        if self.core.load_queue == 0 || self.core.store_queue == 0 {
            return Err(ConfigError("LQ/SQ must be nonzero".into()));
        }
        // Each of these at zero stops issue for good: the run could only
        // spin until the deadlock watchdog fires.
        for (name, value) in [
            ("issue_width", self.core.issue_width),
            ("sched_window", self.core.sched_window),
            ("l1d_ports", self.core.l1d_ports),
        ] {
            if value == 0 {
                return Err(ConfigError(format!("core {name} must be nonzero")));
            }
        }
        if self.dram.banks == 0 || self.dram.read_queue == 0 || self.dram.write_queue == 0 {
            return Err(ConfigError("dram queues/banks must be nonzero".into()));
        }
        if self.dram.bus_gbps <= 0.0 || self.dram.cpu_ghz <= 0.0 {
            return Err(ConfigError("dram rates must be positive".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_capacities() {
        let cfg = SystemConfig::cascade_lake(1);
        assert_eq!(cfg.l1d.capacity_bytes(), 32 * 1024);
        assert_eq!(cfg.l2.capacity_bytes(), 1024 * 1024);
        // 1.375 MB per core.
        assert_eq!(cfg.llc.capacity_bytes(), 1_441_792);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn llc_scales_with_cores() {
        let cfg = SystemConfig::cascade_lake(4);
        assert_eq!(cfg.llc.capacity_bytes(), 4 * 1_441_792);
        assert_eq!(cfg.llc.latency, 56);
        // Multi-core: 3.2 GB/s per core, shared bus.
        assert!((cfg.dram.bus_gbps - 12.8).abs() < 1e-9);
    }

    #[test]
    fn burst_cycles_match_bandwidth() {
        let cfg = SystemConfig::cascade_lake(1);
        // 12.8 GB/s at 3.8 GHz: 64 B / 3.37 B/cyc ≈ 19 cycles.
        assert_eq!(cfg.dram.burst_cycles(), 19);
        let fast = SystemConfig::cascade_lake_with_bandwidth(1, 25.6);
        assert_eq!(fast.dram.burst_cycles(), 10);
        let slow = SystemConfig::cascade_lake_with_bandwidth(1, 1.6);
        assert_eq!(slow.dram.burst_cycles(), 152);
    }

    #[test]
    fn validation_catches_bad_geometry() {
        let mut cfg = SystemConfig::cascade_lake(1);
        cfg.l1d.sets = 100;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::cascade_lake(1);
        cfg.l2.mshrs = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::cascade_lake(1);
        cfg.dram.bus_gbps = -1.0;
        assert!(cfg.validate().is_err());
    }

    fn core_field_rejected(set: impl Fn(&mut CoreConfig), name: &str) {
        let mut cfg = SystemConfig::cascade_lake(1);
        set(&mut cfg.core);
        let err = cfg.validate().expect_err(name);
        assert_eq!(err.0, format!("core {name} must be nonzero"));
    }

    #[test]
    fn zero_issue_width_is_rejected() {
        core_field_rejected(|c| c.issue_width = 0, "issue_width");
    }

    #[test]
    fn zero_sched_window_is_rejected() {
        core_field_rejected(|c| c.sched_window = 0, "sched_window");
    }

    #[test]
    fn zero_l1d_ports_is_rejected() {
        core_field_rejected(|c| c.l1d_ports = 0, "l1d_ports");
    }

    #[test]
    fn test_tiny_is_valid() {
        assert!(SystemConfig::test_tiny(1).validate().is_ok());
        assert!(SystemConfig::test_tiny(4).validate().is_ok());
    }
}
