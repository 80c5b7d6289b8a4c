//! Feature-gated engine instrumentation.
//!
//! Built with `--features obs`, [`EngineObs`] records per-component tick
//! counters, the event-queue depth, cycles advanced vs ticks executed,
//! and wall-clock span timings for the per-core wake-up ROB walk and each
//! tick's cache/core sections — all into the process-global
//! `tlp_obs` registry (`sim_*` metric names), which `tlp_repro
//! --profile` snapshots after a run.
//!
//! Without the feature, [`EngineObs`] is a zero-sized type whose methods
//! are empty `#[inline]` bodies: the default build's hot loop is exactly
//! the uninstrumented code, which is what keeps the observation-only
//! guarantee compile-time-cheap.
//!
//! Either way the instrumentation is write-only: the engine never reads
//! a metric back, so enabling `obs` cannot change simulated state (the
//! determinism suite runs under the feature in CI to pin this).

#[cfg(feature = "obs")]
mod imp {
    use tlp_obs::{Counter, Gauge, Histogram};

    /// Live handles into the process-global registry, hoisted once per
    /// [`System`](crate::System).
    #[derive(Debug, Clone)]
    pub struct EngineObs {
        ticks: Counter,
        dram_ticks: Counter,
        llc_ticks: Counter,
        l2_ticks: Counter,
        l1d_ticks: Counter,
        core_ticks: Counter,
        cycles_advanced: Counter,
        cycles_skipped: Counter,
        queue_depth: Gauge,
        rob_walk_ns: Histogram,
        cache_tick_ns: Histogram,
        core_tick_ns: Histogram,
    }

    impl Default for EngineObs {
        fn default() -> Self {
            Self::new()
        }
    }

    impl EngineObs {
        /// Hoists handles for every `sim_*` metric out of the global
        /// registry (one map lookup each, here, instead of per tick).
        #[must_use]
        pub fn new() -> Self {
            let reg = tlp_obs::global();
            Self {
                ticks: reg.counter("sim_ticks_executed_total"),
                dram_ticks: reg.counter("sim_dram_ticks_total"),
                llc_ticks: reg.counter("sim_llc_ticks_total"),
                l2_ticks: reg.counter("sim_l2_ticks_total"),
                l1d_ticks: reg.counter("sim_l1d_ticks_total"),
                core_ticks: reg.counter("sim_core_ticks_total"),
                cycles_advanced: reg.counter("sim_cycles_advanced_total"),
                cycles_skipped: reg.counter("sim_cycles_skipped_total"),
                queue_depth: reg.gauge("sim_event_queue_depth"),
                rob_walk_ns: reg.histogram("sim_rob_walk_ns"),
                cache_tick_ns: reg.histogram("sim_cache_tick_ns"),
                core_tick_ns: reg.histogram("sim_core_tick_ns"),
            }
        }

        /// Counts one executed tick: DRAM, the LLC and all `cores` L2s
        /// and L1Ds ticked, and `core_stages` cores ran their core stage.
        pub fn on_tick(&self, cores: u64, core_stages: u64) {
            self.ticks.inc();
            self.dram_ticks.inc();
            self.llc_ticks.inc();
            self.l2_ticks.add(cores);
            self.l1d_ticks.add(cores);
            self.core_ticks.add(core_stages);
        }

        /// Records a finished run: total cycles advanced and the idle
        /// cycles the event engine skipped (0 in cycle mode).
        pub fn on_run_complete(&self, cycles: u64, ticks: u64) {
            self.cycles_advanced.add(cycles);
            self.cycles_skipped.add(cycles.saturating_sub(ticks));
        }

        /// Publishes the event queue's depth after a scheduling pass.
        pub fn event_queue_depth(&self, depth: usize) {
            self.queue_depth
                .set(i64::try_from(depth).unwrap_or(i64::MAX));
        }

        /// Times one core's wake-up computation (its ROB walk), run by
        /// the event engine after the core's stage executes.
        pub fn rob_walk_span(&self) -> tlp_obs::Span {
            self.rob_walk_ns.span()
        }

        /// Times the cache section (LLC, L2s, L1Ds) of one tick.
        pub fn cache_tick_span(&self) -> tlp_obs::Span {
            self.cache_tick_ns.span()
        }

        /// Times the core section of one tick.
        pub fn core_tick_span(&self) -> tlp_obs::Span {
            self.core_tick_ns.span()
        }

        /// The global registry rendered as Prometheus-style text — the
        /// watchdog appends this to its panic diagnosis.
        pub fn render_snapshot() -> String {
            tlp_obs::global().snapshot().render_prometheus()
        }
    }
}

#[cfg(not(feature = "obs"))]
mod imp {
    /// The disabled facade: a zero-sized type whose methods compile to
    /// nothing.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct EngineObs;

    /// The disabled span: dropping it does nothing.
    pub struct NoopSpan;

    impl EngineObs {
        /// No-op constructor (build with `--features obs` to record).
        #[inline(always)]
        #[must_use]
        pub fn new() -> Self {
            Self
        }

        /// No-op (build with `--features obs` to record).
        #[inline(always)]
        pub fn on_tick(&self, _cores: u64, _core_stages: u64) {}

        /// No-op (build with `--features obs` to record).
        #[inline(always)]
        pub fn on_run_complete(&self, _cycles: u64, _ticks: u64) {}

        /// No-op (build with `--features obs` to record).
        #[inline(always)]
        pub fn event_queue_depth(&self, _depth: usize) {}

        /// No-op (build with `--features obs` to record).
        #[inline(always)]
        pub fn rob_walk_span(&self) -> NoopSpan {
            NoopSpan
        }

        /// No-op (build with `--features obs` to record).
        #[inline(always)]
        pub fn cache_tick_span(&self) -> NoopSpan {
            NoopSpan
        }

        /// No-op (build with `--features obs` to record).
        #[inline(always)]
        pub fn core_tick_span(&self) -> NoopSpan {
            NoopSpan
        }

        /// Empty without the `obs` feature.
        #[inline(always)]
        pub fn render_snapshot() -> String {
            String::new()
        }
    }
}

pub use imp::EngineObs;
