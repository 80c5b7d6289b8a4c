//! The simulation engine: wires cores, caches, TLBs, DRAM and the plugin
//! predictors together, and advances the whole system through time.
//!
//! Two interchangeable engine modes drive the same component logic:
//!
//! * [`EngineMode::Cycle`] — the reference implementation and test
//!   oracle: every component ticks every base cycle.
//! * [`EngineMode::Event`] (the default) — discrete-event scheduling on
//!   the components' own wake-up contracts ([`Core::next_wake`],
//!   [`Cache::next_ready`], [`Dram::next_event`]: waking early is a
//!   harmless no-op tick, waking late would change behaviour), at two
//!   grains:
//!   - *Per system.* Each component (DRAM, the LLC, each core's L2/L1D,
//!     each core front-end, the speculative-request and DRAM-retry
//!     queues) reports a conservative wake-up time, the engine takes the
//!     minimum, and the clock jumps straight there. Cycles where every
//!     component is provably idle — the common case when the whole
//!     system stalls behind a DRAM access — are never executed.
//!     Same-cycle wake-ups coalesce into one full tick, so only the
//!     minimum matters and no event queue is materialized.
//!   - *Per core, inside executed ticks.* Each core caches its wake-up
//!     right after its stage runs, and the stage (retire, dispatch,
//!     schedule, store drain) is skipped on every executed tick before
//!     it. A completed load is the only input that changes a core's
//!     state from outside its stage; it resets the cache to 0. Fills
//!     climb the hierarchy in the stages before the core's turn, so a
//!     fill in the same tick still wakes it. In a multi-core mix a core
//!     blocked on DRAM no longer pays a scheduler scan on every cycle
//!     its busy neighbours keep alive.
//!
//! The per-tick path is allocation-free in steady state: the engine owns
//! reusable scratch buffers (`TickScratch`) that are cleared — never
//! freed — each cycle, DRAM hands rejected requests back by value
//! instead of being handed clones, and cache/DRAM waiter vectors recycle
//! through per-component freelists.
//!
//! Both modes run the identical per-cycle logic in the identical
//! intra-cycle order (DRAM → retries → speculative queue → LLC → L2 →
//! L1D → core), compiled once per mode from one tick body, so they
//! produce **bit-identical** [`SimReport`]s; the event engine only skips
//! cycles and core stages that the cycle engine would have spent doing
//! nothing. `tests/determinism.rs`, `tests/busy_phase.rs` and the engine
//! tests below pin that equivalence, and a debug assertion re-derives
//! every skipped core's wake-up.

use std::collections::VecDeque;

use tlp_trace::TraceSource;

use crate::cache::{Cache, PrefetchEviction, TickOutput};
use crate::config::SystemConfig;
use crate::core::{Core, DispatchHooks, LoadIssue};
use crate::dram::Dram;
use crate::hooks::{
    DemandAccess, L1FilterCtx, L1PrefetchFilter, L1Prefetcher, L2Access, L2PrefetchCandidate,
    L2PrefetchFilter, L2Prefetcher, LoadCtx, NoL1Filter, NoL1Prefetcher, NoL2Filter,
    NoL2Prefetcher, NoOffChip, OffChipDecision, OffChipPredictor, OffChipTag, PrefetchCandidate,
};
use crate::request::{ReqKind, Request, NO_JOURNEY};
use crate::stats::{CoreReport, OffChipStats, PrefetchStats, SimReport};
use crate::types::{CoreId, Cycle, Level, LINE_SIZE};
use crate::vm::{Mmu, PageTable};
use tlp_timeline::{Counters as TimelineCounters, Recorder, Stage, Timeline, TimelineConfig};

/// How [`System::run`] advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Tick every component every base cycle (reference implementation
    /// and test oracle).
    Cycle,
    /// Discrete-event scheduling: jump from one component wake-up to the
    /// next, skipping cycles where the whole system is provably idle, and
    /// inside executed ticks skip each core stage whose wake-up lies in
    /// the future. Produces bit-identical reports to
    /// [`EngineMode::Cycle`].
    #[default]
    Event,
}

impl EngineMode {
    /// All modes, reference first.
    pub const ALL: [EngineMode; 2] = [EngineMode::Cycle, EngineMode::Event];

    /// The CLI/env spelling of the mode.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::Cycle => "cycle",
            EngineMode::Event => "event",
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for EngineMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cycle" => Ok(EngineMode::Cycle),
            "event" => Ok(EngineMode::Event),
            other => Err(format!(
                "unknown engine mode '{other}' (expected 'cycle' or 'event')"
            )),
        }
    }
}

/// Everything one core needs: its trace plus the plugin predictors.
pub struct CoreSetup {
    /// Instruction source.
    pub trace: Box<dyn TraceSource>,
    /// L1D prefetcher (IPCP, Berti, ...).
    pub l1_prefetcher: Box<dyn L1Prefetcher>,
    /// L2 prefetcher (SPP).
    pub l2_prefetcher: Box<dyn L2Prefetcher>,
    /// Off-chip predictor (Hermes, FLP, none).
    pub offchip: Box<dyn OffChipPredictor>,
    /// L1D prefetch filter (SLP, none).
    pub l1_filter: Box<dyn L1PrefetchFilter>,
    /// L2 prefetch filter (PPF, none).
    pub l2_filter: Box<dyn L2PrefetchFilter>,
}

impl CoreSetup {
    /// A baseline setup (no prefetchers, no predictors) around a trace.
    #[must_use]
    pub fn new(trace: Box<dyn TraceSource>) -> Self {
        Self {
            trace,
            l1_prefetcher: Box::new(NoL1Prefetcher),
            l2_prefetcher: Box::new(NoL2Prefetcher),
            offchip: Box::new(NoOffChip),
            l1_filter: Box::new(NoL1Filter),
            l2_filter: Box::new(NoL2Filter),
        }
    }

    /// Sets the L1D prefetcher.
    #[must_use]
    pub fn with_l1_prefetcher(mut self, p: Box<dyn L1Prefetcher>) -> Self {
        self.l1_prefetcher = p;
        self
    }

    /// Sets the L2 prefetcher.
    #[must_use]
    pub fn with_l2_prefetcher(mut self, p: Box<dyn L2Prefetcher>) -> Self {
        self.l2_prefetcher = p;
        self
    }

    /// Sets the off-chip predictor.
    #[must_use]
    pub fn with_offchip(mut self, p: Box<dyn OffChipPredictor>) -> Self {
        self.offchip = p;
        self
    }

    /// Sets the L1D prefetch filter.
    #[must_use]
    pub fn with_l1_filter(mut self, f: Box<dyn L1PrefetchFilter>) -> Self {
        self.l1_filter = f;
        self
    }

    /// Sets the L2 prefetch filter.
    #[must_use]
    pub fn with_l2_filter(mut self, f: Box<dyn L2PrefetchFilter>) -> Self {
        self.l2_filter = f;
        self
    }
}

struct CoreState {
    core: Core,
    l1d: Cache,
    l2: Cache,
    mmu: Mmu,
    trace: Box<dyn TraceSource>,
    workload: String,
    l1_pf: Box<dyn L1Prefetcher>,
    l2_pf: Box<dyn L2Prefetcher>,
    offchip: Box<dyn OffChipPredictor>,
    l1_filter: Box<dyn L1PrefetchFilter>,
    l2_filter: Box<dyn L2PrefetchFilter>,
    offchip_stats: OffChipStats,
    l1_pf_stats: PrefetchStats,
    l2_pf_stats: PrefetchStats,
    finish_cycle: Option<Cycle>,
    trace_exhausted: bool,
    pf_scratch: Vec<PrefetchCandidate>,
    l2_pf_scratch: Vec<L2PrefetchCandidate>,
    /// Event engine: the core's wake-up as of its last executed stage
    /// (`Cycle::MAX`: asleep until a fill). 0 forces the stage to run on
    /// the next executed tick; a completed load resets it to 0.
    wake: Cycle,
    /// Executed ticks on which the event engine skipped this core's
    /// stage. Counting skips, not runs, leaves the cycle engine's tick
    /// untouched.
    stages_skipped: u64,
}

/// Timeline encoding of an off-chip decision (the artifact is integer-only).
fn offchip_code(d: OffChipDecision) -> u64 {
    match d {
        OffChipDecision::NoIssue => 0,
        OffChipDecision::IssueOnL1dMiss => 1,
        OffChipDecision::IssueNow => 2,
    }
}

struct PredictHook<'a> {
    offchip: &'a mut dyn OffChipPredictor,
    stats: &'a mut OffChipStats,
    frozen: bool,
    core: CoreId,
}

impl DispatchHooks for PredictHook<'_> {
    fn predict_load(&mut self, pc: u64, vaddr: u64, cycle: Cycle) -> OffChipTag {
        let ctx = LoadCtx {
            core: self.core,
            pc,
            vaddr,
            cycle,
        };
        let tag = self.offchip.predict_load(&ctx);
        match tag.decision {
            OffChipDecision::IssueNow => {
                if !self.frozen {
                    self.stats.issued_now += 1;
                }
            }
            OffChipDecision::IssueOnL1dMiss => {
                if !self.frozen {
                    self.stats.tagged_delayed += 1;
                }
            }
            OffChipDecision::NoIssue => {
                if tag.valid && !self.frozen {
                    self.stats.predicted_onchip += 1;
                }
            }
        }
        tag
    }
}

/// Speculative requests waiting out their predictor latency, split by
/// origin so draining pops fronts and the event pre-pass is O(1).
///
/// The predecessor was one `VecDeque` mixing two constant latencies
/// (delayed-path specs become ready at `now + 1`, issue-now specs after
/// the predictor latency), so every drain scanned the whole queue and
/// `remove(i)` shifted the tail. Within each origin the ready times are
/// monotone (a constant added to a monotone `now`), so two FIFOs tagged
/// with a shared push sequence reproduce the old drain order exactly —
/// the scan drained ready entries in insertion order, and the minimum-
/// sequence ready entry is always at one of the two fronts.
#[derive(Default)]
struct SpecQueue {
    /// Issue-now specs (ready after the predictor latency).
    issued: VecDeque<(Cycle, u64, Request)>,
    /// Delayed-path specs (ready at `now + 1`).
    delayed: VecDeque<(Cycle, u64, Request)>,
    /// Global insertion counter merging the two FIFOs.
    seq: u64,
}

impl SpecQueue {
    fn push_issued(&mut self, ready: Cycle, req: Request) {
        debug_assert!(self.issued.back().is_none_or(|&(t, ..)| t <= ready));
        self.seq += 1;
        self.issued.push_back((ready, self.seq, req));
    }

    fn push_delayed(&mut self, ready: Cycle, req: Request) {
        debug_assert!(self.delayed.back().is_none_or(|&(t, ..)| t <= ready));
        self.seq += 1;
        self.delayed.push_back((ready, self.seq, req));
    }

    /// Pops the ready request the old single-queue scan would have
    /// drained next: earliest insertion among entries with `ready <= now`.
    fn pop_ready(&mut self, now: Cycle) -> Option<Request> {
        let i = self.issued.front().filter(|&&(t, ..)| t <= now);
        let d = self.delayed.front().filter(|&&(t, ..)| t <= now);
        let q = match (i, d) {
            (Some(&(_, a, _)), Some(&(_, b, _))) => {
                if a < b {
                    &mut self.issued
                } else {
                    &mut self.delayed
                }
            }
            (Some(_), None) => &mut self.issued,
            (None, Some(_)) => &mut self.delayed,
            (None, None) => return None,
        };
        q.pop_front().map(|(_, _, r)| r)
    }

    /// Earliest ready time across both queues — O(1), this is what the
    /// event engine's wake-up pre-pass and scheduling pass consult.
    fn next_ready(&self) -> Option<Cycle> {
        let i = self.issued.front().map(|&(t, ..)| t);
        let d = self.delayed.front().map(|&(t, ..)| t);
        match (i, d) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, d) => d,
        }
    }

    fn len(&self) -> usize {
        self.issued.len() + self.delayed.len()
    }

    fn is_empty(&self) -> bool {
        self.issued.is_empty() && self.delayed.is_empty()
    }
}

/// Engine-owned reusable buffers for the per-tick hot path. Each is
/// `std::mem::take`n for the duration of one use (so `&mut self` methods
/// can run while it is out), then cleared and put back — the capacity
/// survives across cycles, so a warmed-up steady-state tick performs
/// zero heap allocations.
#[derive(Default)]
struct TickScratch {
    /// DRAM completions being routed up the hierarchy.
    dram_done: Vec<Request>,
    /// Component tick output shared by the LLC and every L2/L1D tick.
    tick_out: TickOutput,
    /// Waiter-core dedup buffer for [`System::deliver_fill_waiters`].
    seen_cores: Vec<CoreId>,
    /// Loads issued by a core's scheduler this cycle.
    loads: Vec<LoadIssue>,
}

/// The full simulated system.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<CoreState>,
    llc: Cache,
    /// Optional LLC victim cache (disabled in the paper's Table III).
    victim: Option<crate::victim::VictimCache>,
    dram: Dram,
    pt: PageTable,
    cycle: Cycle,
    next_id: u64,
    /// Speculative requests waiting out the predictor latency.
    spec_pending: SpecQueue,
    /// DRAM-rejected reads to retry.
    dram_retry: VecDeque<Request>,
    /// DRAM-rejected writebacks to retry.
    wb_retry: VecDeque<(u64, CoreId)>,
    last_retire: Cycle,
    measuring: bool,
    mode: EngineMode,
    /// Reusable per-tick buffers (cleared every cycle, never freed).
    scratch: TickScratch,
    /// Ticks actually executed (== elapsed cycles in cycle mode; the gap
    /// to `cycle` is the event engine's skipped-idle-cycle win).
    ticks_executed: u64,
    /// Simulated-time telemetry recorder, armed by
    /// [`System::enable_timeline`]. Boxed so the common disabled case
    /// costs one pointer; all recorder storage is preallocated, so the
    /// enabled steady-state tick still never allocates.
    timeline: Option<Box<Recorder>>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a system: one [`CoreSetup`] per configured core.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `setups.len()` differs
    /// from `cfg.cores`.
    #[must_use]
    pub fn new(cfg: SystemConfig, setups: Vec<CoreSetup>) -> Self {
        cfg.validate().expect("invalid system configuration");
        assert_eq!(setups.len(), cfg.cores, "one CoreSetup per core required");
        let cores = setups
            .into_iter()
            .enumerate()
            .map(|(i, s)| CoreState {
                core: Core::new(cfg.core),
                l1d: Cache::new(format!("cpu{i}.L1D"), Level::L1d, cfg.l1d),
                l2: Cache::new(format!("cpu{i}.L2C"), Level::L2, cfg.l2),
                mmu: Mmu::new(cfg.dtlb, cfg.stlb, cfg.core.page_walk_latency),
                workload: s.trace.name().to_owned(),
                trace: s.trace,
                l1_pf: s.l1_prefetcher,
                l2_pf: s.l2_prefetcher,
                offchip: s.offchip,
                l1_filter: s.l1_filter,
                l2_filter: s.l2_filter,
                offchip_stats: OffChipStats::default(),
                l1_pf_stats: PrefetchStats::default(),
                l2_pf_stats: PrefetchStats::default(),
                finish_cycle: None,
                trace_exhausted: false,
                pf_scratch: Vec::with_capacity(16),
                l2_pf_scratch: Vec::with_capacity(16),
                wake: 0,
                stages_skipped: 0,
            })
            .collect();
        Self {
            llc: Cache::with_replacement(
                "LLC",
                Level::Llc,
                cfg.llc,
                cfg.llc_repl.build(cfg.llc.sets, cfg.llc.ways),
            ),
            victim: (cfg.victim_cache_entries > 0)
                .then(|| crate::victim::VictimCache::new(cfg.victim_cache_entries)),
            dram: Dram::new(cfg.dram),
            pt: PageTable::new(cfg.cores),
            cores,
            cfg,
            cycle: 0,
            next_id: 0,
            spec_pending: SpecQueue::default(),
            dram_retry: VecDeque::new(),
            wb_retry: VecDeque::new(),
            last_retire: 0,
            measuring: false,
            mode: EngineMode::default(),
            scratch: TickScratch::default(),
            ticks_executed: 0,
            timeline: None,
        }
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Selects how [`System::run`] advances time. Both modes produce
    /// bit-identical reports; [`EngineMode::Event`] is faster whenever
    /// the system spends cycles fully stalled (memory-bound workloads)
    /// or some core sits blocked on memory while others run. Every
    /// core's cached wake-up is cleared, so the first tick in the new
    /// mode runs every core stage.
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        self.mode = mode;
        for c in &mut self.cores {
            c.wake = 0;
        }
    }

    /// Builder-style [`System::set_engine_mode`].
    #[must_use]
    pub fn with_engine_mode(mut self, mode: EngineMode) -> Self {
        self.set_engine_mode(mode);
        self
    }

    /// Ticks actually executed so far. In cycle mode this equals
    /// [`System::cycle`]; in event mode the difference counts the idle
    /// cycles the scheduler skipped.
    #[must_use]
    pub fn ticks_executed(&self) -> u64 {
        self.ticks_executed
    }

    /// Core stages executed so far, one count per core. In cycle mode
    /// each equals [`System::ticks_executed`]; in event mode a core
    /// blocked on memory skips its stage on executed ticks before its
    /// wake-up, so its count falls below the tick count.
    #[must_use]
    pub fn core_ticks_executed(&self) -> Vec<u64> {
        self.cores
            .iter()
            .map(|c| self.ticks_executed - c.stages_skipped)
            .collect()
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Arms a simulated-time timeline capture. [`System::run`] re-arms the
    /// recorder at the warmup/measurement boundary so the artifact covers
    /// only the measured window; a system driven directly through
    /// [`System::tick`] records from the current cycle. Timeline data is
    /// derived from simulated state only and never feeds back into the
    /// simulation, so enabling it cannot perturb the [`SimReport`].
    pub fn enable_timeline(&mut self, cfg: TimelineConfig) {
        let mut rec = Box::new(Recorder::new(cfg, self.cores.len()));
        let (snap, _, _) = self.timeline_observe();
        rec.restart(self.cycle, snap);
        self.timeline = Some(rec);
    }

    /// Finishes an armed capture at the current cycle and returns the
    /// artifact (or `None` if no capture was armed).
    pub fn take_timeline(&mut self) -> Option<Timeline> {
        let (snap, rob, mshr) = self.timeline_observe();
        let now = self.cycle;
        self.timeline
            .take()
            .map(|mut rec| rec.finish_run(now, snap, rob, mshr))
    }

    /// Snapshot of the monotone counters the timeline windows are deltas
    /// of, plus the two occupancy gauges. A pure read of stats the hot
    /// loop maintains anyway; only consulted at window boundaries.
    fn timeline_observe(&self) -> (TimelineCounters, u64, u64) {
        let mut c = TimelineCounters::default();
        let mut rob = 0u64;
        let mut mshr = 0u64;
        for cs in &self.cores {
            c.instructions += cs.core.retired();
            c.l1d_misses += cs.l1d.stats.demand_misses;
            c.l2_misses += cs.l2.stats.demand_misses;
            for pf in [&cs.l1_pf_stats, &cs.l2_pf_stats] {
                c.pf_issued += pf.issued;
                c.pf_useful += pf.useful_by_level.iter().sum::<u64>();
                c.pf_useless += pf.useless_by_level.iter().sum::<u64>();
                c.pf_filtered += pf.filtered;
            }
            let oc = &cs.offchip_stats;
            c.offchip_issued += oc.issued_now + oc.delayed_issued;
            c.offchip_accurate += oc.issued_outcome[Level::Dram.index()];
            c.offchip_missed += oc.missed_offchip;
            c.offchip_predicted_onchip += oc.predicted_onchip;
            c.offchip_correct_onchip += oc.correct_onchip;
            rob += cs.core.rob_occupancy() as u64;
            mshr += (cs.l1d.mshrs_in_use() + cs.l2.mshrs_in_use()) as u64;
        }
        c.llc_misses = self.llc.stats.demand_misses;
        let d = &self.dram.stats;
        c.dram_reads = d.reads + d.spec_reads;
        c.dram_writes = d.writes;
        c.dram_row_hits = d.row_hits;
        c.dram_row_conflicts = d.row_conflicts;
        mshr += self.llc.mshrs_in_use() as u64;
        (c, rob, mshr)
    }

    /// Forward a journey stage stamp to the recorder, if armed. The id
    /// check keeps the unsampled (overwhelmingly common) case to one
    /// compare.
    #[inline]
    fn stamp_journey(&mut self, id: u32, stage: Stage, at: Cycle) {
        if id != NO_JOURNEY {
            if let Some(tl) = &mut self.timeline {
                tl.stamp(id, stage, at);
            }
        }
    }

    /// Runs `warmup` instructions per core with counters discarded, then
    /// `measure` instructions per core with counters live, and returns the
    /// report. Finite traces may end early; the report covers what ran.
    ///
    /// # Panics
    ///
    /// Panics if the system deadlocks (no instruction retires for a very
    /// long time) — this is a simulator bug, not a workload property.
    pub fn run(&mut self, warmup: u64, measure: u64) -> SimReport {
        // Warmup.
        let warm_target: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.core.retired() + warmup)
            .collect();
        while !self
            .cores
            .iter()
            .enumerate()
            .all(|(i, c)| c.core.retired() >= warm_target[i] || c.trace_exhausted)
        {
            self.step();
            self.check_watchdog();
            if self.all_done() {
                break;
            }
        }
        // Measurement.
        self.reset_stats();
        self.measuring = true;
        let start = self.cycle;
        // Re-arm the timeline at the measurement boundary: warmup-era
        // windows and in-flight journeys are discarded, ordinals restart.
        if self.timeline.is_some() {
            let (snap, _, _) = self.timeline_observe();
            if let Some(tl) = &mut self.timeline {
                tl.restart(start, snap);
            }
        }
        let targets: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.core.retired() + measure)
            .collect();
        let mut first = true;
        loop {
            if first {
                // Always single-step the first measured cycle: a core that
                // drained during warmup has its finish condition sampled
                // at `start + 1` by the cycle engine (the condition is
                // checked after each tick, and the cycle engine ticks
                // every cycle), and the event engine must record the same
                // finish cycle even though no component has work then.
                self.tick();
                first = false;
            } else {
                self.step();
            }
            let now = self.cycle;
            for (i, c) in self.cores.iter_mut().enumerate() {
                let drained = c.trace_exhausted
                    && c.core.pending() == 0
                    && c.l1d.pending() == 0
                    && c.l2.pending() == 0;
                if c.finish_cycle.is_none() && (c.core.retired() >= targets[i] || drained) {
                    c.finish_cycle = Some(now);
                    c.core.stats.cycles = now - start;
                    c.core.freeze_stats();
                }
            }
            if self.cores.iter().all(|c| c.finish_cycle.is_some()) {
                break;
            }
            self.check_watchdog();
            if self.all_done() {
                break;
            }
        }
        self.finalize_report(start)
    }

    fn all_done(&self) -> bool {
        self.cores.iter().all(|c| {
            c.trace_exhausted
                && c.core.pending() == 0
                && c.l1d.pending() == 0
                && c.l2.pending() == 0
        }) && self.llc.pending() == 0
            && self.dram.pending() == 0
            && self.spec_pending.is_empty()
    }

    /// Forward-progress watchdog. A genuine livelock is a simulator bug,
    /// not a workload property, so the panic carries a full diagnosis:
    /// the stalled core and its oldest in-flight instruction, plus the
    /// queue/MSHR occupancy of every level of the hierarchy.
    fn check_watchdog(&self) {
        const WATCHDOG_CYCLES: Cycle = 1_000_000;
        if self.cycle - self.last_retire < WATCHDOG_CYCLES {
            return;
        }
        // The stalled core: the one whose oldest in-flight instruction
        // has been waiting longest (ties to the lowest core id).
        let stalled = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.core.pending() > 0)
            .min_by_key(|(i, c)| (c.core.oldest_dispatch_cycle().unwrap_or(Cycle::MAX), *i))
            .map_or(0, |(i, _)| i);
        let mut levels = String::new();
        for (i, c) in self.cores.iter().enumerate() {
            levels.push_str(&format!(
                "  core{i} ({}): rob+stores {}, retired {}\n    \
                 L1D queues d/p {}/{} mshrs {}; L2 queues d/p {}/{} mshrs {}\n",
                c.workload,
                c.core.pending(),
                c.core.retired(),
                c.l1d.demand_queue_len(),
                c.l1d.prefetch_queue_len(),
                c.l1d.mshrs_in_use(),
                c.l2.demand_queue_len(),
                c.l2.prefetch_queue_len(),
                c.l2.mshrs_in_use(),
            ));
        }
        levels.push_str(&format!(
            "  LLC queues d/p {}/{} mshrs {}\n  \
             DRAM read-q {} write-q {} in-flight {}\n  \
             retry queues read/wb {}/{}, speculative pending {}",
            self.llc.demand_queue_len(),
            self.llc.prefetch_queue_len(),
            self.llc.mshrs_in_use(),
            self.dram.read_queue_len(),
            self.dram.write_queue_len(),
            self.dram.in_flight_len(),
            self.dram_retry.len(),
            self.wb_retry.len(),
            self.spec_pending.len(),
        ));
        // The engine counters make the stall report self-contained: they
        // show which components were still being driven.
        let metrics = format!(
            "  ticks executed {} of {} cycles ({} skipped), core stages executed {:?}",
            self.ticks_executed,
            self.cycle,
            self.cycle - self.ticks_executed,
            self.core_ticks_executed(),
        );
        panic!(
            "no instruction retired for 1M cycles at cycle {} ({} engine): deadlock\n\
             stalled core{stalled}: {}\n\
             per-level occupancy:\n{levels}\n\
             engine metrics:\n{metrics}",
            self.cycle,
            self.mode,
            self.cores[stalled]
                .core
                .oldest_inflight()
                .unwrap_or_else(|| "no in-flight instruction (front-end starved)".into()),
        );
    }

    fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.core.reset_stats();
            c.l1d.stats = Default::default();
            c.l2.stats = Default::default();
            c.offchip_stats = Default::default();
            c.l1_pf_stats = Default::default();
            c.l2_pf_stats = Default::default();
            c.finish_cycle = None;
            // Forget warmup-era prefetch provenance: outcomes must only be
            // attributed to prefetches filled inside the measured window,
            // otherwise useless counts can exceed issued counts.
            c.l1d.clear_prefetch_marks();
            c.l2.clear_prefetch_marks();
        }
        self.llc.clear_prefetch_marks();
        self.llc.stats = Default::default();
        self.dram.stats = Default::default();
        if let Some(vc) = &mut self.victim {
            vc.stats = Default::default();
        }
    }

    fn finalize_report(&mut self, start: Cycle) -> SimReport {
        // Unused prefetched lines still resident count as useless.
        let evs: Vec<PrefetchEviction> = self
            .cores
            .iter_mut()
            .flat_map(|c| {
                let mut v = c.l1d.drain_prefetch_residue();
                v.extend(c.l2.drain_prefetch_residue());
                v
            })
            .chain(self.llc.drain_prefetch_residue())
            .collect();
        for ev in evs {
            self.attribute_prefetch_outcome(&ev);
        }
        self.dram.drain_ddrp_residue();
        let cores = self
            .cores
            .iter()
            .map(|c| CoreReport {
                workload: c.workload.clone(),
                core: c.core.stats.clone(),
                l1d: c.l1d.stats.clone(),
                l2: c.l2.stats.clone(),
                offchip: c.offchip_stats.clone(),
                l1_prefetch: c.l1_pf_stats.clone(),
                l2_prefetch: c.l2_pf_stats.clone(),
            })
            .collect();
        SimReport {
            cores,
            llc: self.llc.stats.clone(),
            dram: self.dram.stats.clone(),
            victim: self
                .victim
                .as_ref()
                .map(|vc| vc.stats.clone())
                .unwrap_or_default(),
            total_cycles: self.cycle - start,
        }
    }

    /// Advances the system: one cycle in [`EngineMode::Cycle`], straight
    /// to the next scheduled component wake-up in [`EngineMode::Event`].
    fn step(&mut self) {
        match self.mode {
            EngineMode::Cycle => self.tick_in::<false>(),
            EngineMode::Event => {
                let wake = self.next_wake();
                debug_assert!(wake > self.cycle, "wake-ups must move time forward");
                self.cycle = wake - 1;
                self.tick_in::<true>();
            }
        }
    }

    /// The earliest cycle at which any component may change state: every
    /// component reports a conservative wake-up and the engine folds the
    /// minimum directly. (An earlier version scheduled each wake-up into
    /// an event queue and popped it — but same-cycle wake-ups coalesce
    /// into one full tick anyway, so the popped minimum was the only
    /// thing ever consumed; the running min is exactly equivalent and
    /// skips the per-tick queue rebuild.) Components are consulted
    /// cheapest-first, and any wake-up due at the very next cycle returns
    /// immediately, so event mode falls through to plain stepping during
    /// busy phases. The cores contribute their cached wake-ups, refreshed
    /// after each executed core stage, so no pass walks a ROB. Falls back
    /// to the next cycle when nothing at all is scheduled but the run is
    /// not over (a simulator bug: single-stepping lets the watchdog
    /// produce its diagnosis).
    fn next_wake(&self) -> Cycle {
        let now = self.cycle;
        let soonest = now + 1;
        if self.work_due_next_cycle(now) {
            return soonest;
        }
        let mut wake = Cycle::MAX;
        if let Some(t) = self.dram.next_event(now) {
            if t <= soonest {
                return soonest;
            }
            wake = wake.min(t);
        }
        if let Some(t) = self.spec_pending.next_ready() {
            if t <= soonest {
                return soonest;
            }
            wake = wake.min(t);
        }
        if let Some(t) = self.llc.next_ready() {
            if t <= soonest {
                return soonest;
            }
            wake = wake.min(t);
        }
        for c in &self.cores {
            if let Some(t) = c.l2.next_ready() {
                if t <= soonest {
                    return soonest;
                }
                wake = wake.min(t);
            }
            if let Some(t) = c.l1d.next_ready() {
                if t <= soonest {
                    return soonest;
                }
                wake = wake.min(t);
            }
        }
        for c in &self.cores {
            if c.wake != Cycle::MAX {
                if c.wake <= soonest {
                    return soonest;
                }
                wake = wake.min(c.wake);
            }
        }
        if wake == Cycle::MAX {
            soonest
        } else {
            wake
        }
    }

    /// O(1) pre-pass of [`System::next_wake`]: true when some component
    /// is certain to have work on the very next cycle, in which case the
    /// full scheduling pass is pointless. On busy cycles — the
    /// overwhelming majority of executed ticks on compute-bound phases —
    /// this keeps event mode's scheduling cost to a few compares.
    fn work_due_next_cycle(&self, now: Cycle) -> bool {
        let soonest = now + 1;
        // Retries re-attempt the DRAM queues every cycle, and queued DRAM
        // transactions contend for the command bus every cycle.
        if !self.dram_retry.is_empty() || !self.wb_retry.is_empty() {
            return true;
        }
        if self.dram.read_queue_len() > 0 || self.dram.write_queue_len() > 0 {
            return true;
        }
        for c in &self.cores {
            if c.wake <= soonest
                || c.l1d.next_ready().is_some_and(|t| t <= soonest)
                || c.l2.next_ready().is_some_and(|t| t <= soonest)
            {
                return true;
            }
        }
        self.llc.next_ready().is_some_and(|t| t <= soonest)
            || self.spec_pending.next_ready().is_some_and(|t| t <= soonest)
    }

    /// Advances the system by one cycle.
    pub fn tick(&mut self) {
        match self.mode {
            EngineMode::Cycle => self.tick_in::<false>(),
            EngineMode::Event => self.tick_in::<true>(),
        }
    }

    /// The tick body, compiled once per engine mode. The cycle engine
    /// (`EVENT = false`) runs every stage every tick. The event engine
    /// also skips each core stage whose cached wake-up lies in the
    /// future: with no fill since the core's last executed stage, that
    /// stage cannot change state before then. Fills reach the core in
    /// the earlier stages of the same tick and reset its wake-up, so a
    /// core woken this tick still runs this tick.
    ///
    /// The stage helpers it calls are `#[inline(always)]`: with two
    /// callers each, the optimizer would keep them out of line, and each
    /// mode's body would lose the inlining the single tick body had.
    fn tick_in<const EVENT: bool>(&mut self) {
        self.cycle += 1;
        self.ticks_executed += 1;
        let now = self.cycle;
        // Timeline catch-up for window boundaries the event engine jumped
        // over: the skipped cycles were provably idle, so the counters at
        // those boundaries equal the counters right now — sampling them
        // here reproduces the cycle engine's zero windows bit-for-bit.
        if self
            .timeline
            .as_ref()
            .is_some_and(|tl| tl.window_due_before(now))
        {
            let (snap, rob, mshr) = self.timeline_observe();
            if let Some(tl) = &mut self.timeline {
                tl.sample_skipped(now, snap, rob, mshr);
            }
        }
        // 1. DRAM completions climb back up the hierarchy. The scratch
        // buffer is engine-owned: cleared after use, never freed, so the
        // steady-state tick performs no allocation here.
        let mut done = std::mem::take(&mut self.scratch.dram_done);
        self.dram.tick_into(now, &mut done);
        // Bank-service stamps for sampled reads scheduled this tick.
        while let Some((id, at)) = self.dram.pop_journey_mark() {
            if let Some(tl) = &mut self.timeline {
                tl.stamp(id, Stage::BankService, at);
            }
        }
        for req in &done {
            self.deliver_from_dram(req, now);
        }
        done.clear();
        self.scratch.dram_done = done;
        // 2. Retry DRAM-rejected traffic.
        self.drain_retries(now);
        // 3. Speculative requests whose predictor latency elapsed. The
        // queue keeps the two latency classes in separate FIFOs; popping
        // the minimum-sequence ready entry reproduces the old single
        // queue's in-place scan order exactly.
        while let Some(req) = self.spec_pending.pop_ready(now) {
            let _ = self.dram.push_speculative(req);
        }
        // 4. The cache hierarchy: LLC, then per-core L2 and L1D.
        self.tick_llc(now);
        for i in 0..self.cores.len() {
            self.tick_l2(i, now);
        }
        for i in 0..self.cores.len() {
            self.tick_l1d(i, now);
        }
        // 5. The cores themselves.
        for i in 0..self.cores.len() {
            if EVENT && self.cores[i].wake > now {
                let c = &mut self.cores[i];
                debug_assert_eq!(
                    c.core
                        .next_wake(now - 1, c.trace_exhausted)
                        .unwrap_or(Cycle::MAX),
                    c.wake,
                    "core{i} changed state at cycle {now} without clearing its wake-up"
                );
                c.stages_skipped += 1;
                continue;
            }
            self.tick_core(i, now);
            if EVENT {
                let c = &mut self.cores[i];
                c.wake = if c.core.wants_next_cycle(now, c.trace_exhausted) {
                    now + 1
                } else {
                    c.core
                        .next_wake(now, c.trace_exhausted)
                        .unwrap_or(Cycle::MAX)
                };
            }
        }
        // A window boundary landing exactly on this cycle is sampled with
        // the post-tick counters — identical in both engine modes, since
        // both execute this tick (a skipped core stage changes nothing).
        if self
            .timeline
            .as_ref()
            .is_some_and(|tl| tl.window_due_at(now))
        {
            let (snap, rob, mshr) = self.timeline_observe();
            if let Some(tl) = &mut self.timeline {
                tl.sample_at(now, snap, rob, mshr);
            }
        }
    }

    #[inline(always)]
    fn drain_retries(&mut self, _now: Cycle) {
        for _ in 0..self.dram_retry.len() {
            let Some(req) = self.dram_retry.pop_front() else {
                break;
            };
            // `push_read` hands the request back on rejection, so the
            // retry loop moves it in and out without ever cloning.
            if let Err(req) = self.dram.push_read(req) {
                self.dram_retry.push_front(req);
                break;
            }
        }
        for _ in 0..self.wb_retry.len() {
            let Some((paddr, core)) = self.wb_retry.pop_front() else {
                break;
            };
            if !self.dram.push_write(paddr, core) {
                self.wb_retry.push_front((paddr, core));
                break;
            }
        }
    }

    /// Wakes each distinct core with a waiter on an LLC fill, preserving
    /// first-waiter order. The dedup scratch lives on the engine so the
    /// per-fill `seen` list costs no allocation; the waiters themselves
    /// are borrowed, and the caller recycles their Vec afterwards.
    fn deliver_fill_waiters(&mut self, waiters: &[Request], line: u64, served: Level, now: Cycle) {
        let mut seen = std::mem::take(&mut self.scratch.seen_cores);
        for w in waiters {
            if !seen.contains(&w.core) {
                seen.push(w.core);
            }
        }
        for &c in &seen {
            self.deliver_to_core(c, line, served, now);
        }
        seen.clear();
        self.scratch.seen_cores = seen;
    }

    #[inline(always)]
    fn tick_llc(&mut self, now: Cycle) {
        let mut out = std::mem::take(&mut self.scratch.tick_out);
        out.clear();
        self.llc.tick_into(now, &mut out);
        for ev in out.pf_useful.drain(..) {
            self.attribute_prefetch_outcome(&ev);
        }
        for req in out.hits.drain(..) {
            self.deliver_to_core(req.core, req.line(), Level::Llc, now);
        }
        for req in out.forwards.drain(..) {
            // The victim cache (when configured) intercepts LLC misses:
            // a hit swaps the line back in without touching DRAM.
            if self
                .victim
                .as_mut()
                .is_some_and(|vc| vc.probe_remove(req.line()))
            {
                let line = req.line();
                let fill = self.llc.fill(line, Level::Llc, now);
                self.handle_llc_fill(
                    fill.writeback,
                    fill.evicted_prefetch,
                    fill.evicted_line,
                    req.core,
                    now,
                );
                self.deliver_fill_waiters(&fill.waiters, line, Level::Llc, now);
                self.llc.recycle_waiters(fill.waiters);
                continue;
            }
            self.forward_to_dram(req, now);
        }
        self.scratch.tick_out = out;
    }

    fn forward_to_dram(&mut self, req: Request, now: Cycle) {
        self.stamp_journey(req.journey, Stage::DramQueue, now);
        // Hermes semantics: a demand that reaches the LLC-miss path first
        // checks the DDRP buffer for a completed speculative fill.
        if req.kind.is_demand() && self.dram.take_ddrp(req.core, req.paddr) {
            let line = req.line();
            let fill = self.llc.fill(line, Level::Dram, now);
            self.handle_llc_fill(
                fill.writeback,
                fill.evicted_prefetch,
                fill.evicted_line,
                req.core,
                now,
            );
            self.deliver_fill_waiters(&fill.waiters, line, Level::Dram, now);
            self.llc.recycle_waiters(fill.waiters);
            return;
        }
        if let Err(req) = self.dram.push_read(req) {
            self.dram_retry.push_back(req);
        }
    }

    #[inline(always)]
    fn deliver_from_dram(&mut self, req: &Request, now: Cycle) {
        let line = req.line();
        let fill = self.llc.fill(line, Level::Dram, now);
        self.handle_llc_fill(
            fill.writeback,
            fill.evicted_prefetch,
            fill.evicted_line,
            req.core,
            now,
        );
        self.deliver_fill_waiters(&fill.waiters, line, Level::Dram, now);
        self.llc.recycle_waiters(fill.waiters);
    }

    fn handle_llc_fill(
        &mut self,
        writeback: Option<u64>,
        evicted: Option<PrefetchEviction>,
        evicted_line: Option<u64>,
        core: CoreId,
        _now: Cycle,
    ) {
        if let Some(paddr) = writeback {
            if !self.dram.push_write(paddr, core) {
                self.wb_retry.push_back((paddr, core));
            }
        }
        if let Some(line) = evicted_line {
            if let Some(vc) = &mut self.victim {
                vc.insert(line);
            }
        }
        if let Some(ev) = evicted {
            self.attribute_prefetch_outcome(&ev);
        }
    }

    /// Data for `line` is available at the LLC boundary for core `c`:
    /// resolve the L2 MSHR, then the L1 MSHR, then wake the core.
    fn deliver_to_core(&mut self, c: CoreId, line: u64, served: Level, now: Cycle) {
        let fill = self.cores[c].l2.fill(line, served, now);
        if let Some(paddr) = fill.writeback {
            self.writeback_from_l2(c, paddr);
        }
        if let Some(ev) = fill.evicted_prefetch {
            self.attribute_prefetch_outcome(&ev);
        }
        if fill.waiters.is_empty() {
            self.cores[c].l2.recycle_waiters(fill.waiters);
            return;
        }
        let any_demand = fill.waiters.iter().any(|w| w.kind.is_demand());
        let mut needs_l1 = false;
        for w in &fill.waiters {
            match w.kind {
                ReqKind::PrefetchL2 { .. } => {
                    self.finalize_l2_prefetch(c, w, any_demand);
                }
                _ => needs_l1 = true,
            }
        }
        self.cores[c].l2.recycle_waiters(fill.waiters);
        if needs_l1 {
            self.deliver_to_l1(c, line, served, now);
        }
    }

    /// Data for `line` is available at the L2 boundary: resolve the L1 MSHR
    /// and wake the core.
    fn deliver_to_l1(&mut self, c: CoreId, line: u64, served: Level, now: Cycle) {
        let fill = self.cores[c].l1d.fill(line, served, now);
        if let Some(paddr) = fill.writeback {
            self.writeback_from_l1(c, paddr);
        }
        if let Some(ev) = fill.evicted_prefetch {
            self.attribute_prefetch_outcome(&ev);
        }
        let any_demand = fill.waiters.iter().any(|w| w.kind.is_demand());
        for w in &fill.waiters {
            self.finalize_l1_waiter(c, w, any_demand, now);
        }
        self.cores[c].l1d.recycle_waiters(fill.waiters);
    }

    fn finalize_l1_waiter(&mut self, c: CoreId, w: &Request, any_demand: bool, now: Cycle) {
        let served = w.served_from.unwrap_or(Level::Dram);
        // Every L1 fill is visible to the prefetcher (Berti measures
        // demand-miss latency from these notifications).
        self.cores[c].l1_pf.on_fill(w.vaddr, now);
        match w.kind {
            ReqKind::Load => {
                self.complete_load(c, w, served, now);
            }
            ReqKind::Rfo => {} // dirty bit handled by the fill
            ReqKind::PrefetchL1 { .. } => {
                let frozen = self.cores[c].core.stats_frozen();
                if !frozen {
                    self.cores[c].l1_pf_stats.filled_by_level[served.index()] += 1;
                    if any_demand {
                        // Late prefetch: a demand merged into its MSHR.
                        self.cores[c].l1_pf_stats.useful_by_level[served.index()] += 1;
                    }
                }
                let cs = &mut self.cores[c];
                let (tpc, tva, tdec) =
                    w.pf_trigger
                        .unwrap_or((w.pc, w.vaddr, OffChipDecision::NoIssue));
                let ctx = L1FilterCtx {
                    core: c,
                    trigger_pc: tpc,
                    trigger_vaddr: tva,
                    pf_vaddr: w.vaddr,
                    pf_paddr: w.paddr,
                    trigger_tag: OffChipTag::from_decision(tdec),
                    cycle: now,
                };
                cs.l1_filter.train(&ctx, &w.filter, served);
            }
            _ => {}
        }
    }

    fn complete_load(&mut self, c: CoreId, w: &Request, served: Level, now: Cycle) {
        let Some(seq) = w.lq_seq else { return };
        let Some(done) = self.cores[c].core.complete_load(seq, now) else {
            return;
        };
        // The only input that changes a core's state outside its own
        // stage: the event engine must run that stage again.
        self.cores[c].wake = 0;
        // Journey completion: data delivered to the core this cycle.
        if w.journey != NO_JOURNEY {
            if let Some(tl) = &mut self.timeline {
                if w.filter.valid {
                    tl.stamp_filter(w.journey);
                }
                tl.finish(w.journey, now, served.index() as u64);
            }
        }
        let frozen = self.cores[c].core.stats_frozen();
        let ctx = LoadCtx {
            core: c,
            pc: done.pc,
            vaddr: done.vaddr,
            cycle: now,
        };
        let cs = &mut self.cores[c];
        cs.offchip.train_load(&ctx, &done.offchip, served);
        if done.offchip.valid && !frozen {
            let issued = done.offchip.decision == OffChipDecision::IssueNow || done.spec_issued;
            if issued {
                cs.offchip_stats.record_outcome(served);
            }
            if !done.offchip.predicted_offchip() {
                if served == Level::Dram {
                    cs.offchip_stats.missed_offchip += 1;
                } else {
                    cs.offchip_stats.correct_onchip += 1;
                }
            }
        }
    }

    fn finalize_l2_prefetch(&mut self, c: CoreId, w: &Request, any_demand: bool) {
        if self.cores[c].core.stats_frozen() {
            return;
        }
        let served = w.served_from.unwrap_or(Level::Dram);
        self.cores[c].l2_pf_stats.filled_by_level[served.index()] += 1;
        if any_demand {
            self.cores[c].l2_pf_stats.useful_by_level[served.index()] += 1;
        }
    }

    fn attribute_prefetch_outcome(&mut self, ev: &PrefetchEviction) {
        let c = ev.core.min(self.cores.len() - 1);
        if !ev.origin_l1 {
            let cs = &mut self.cores[c];
            if ev.was_useful {
                cs.l2_filter.on_useful(ev.paddr);
            } else {
                cs.l2_filter.on_useless(ev.paddr);
            }
        }
        // No frozen-window gate here: prefetch marks are cleared at the
        // warmup/measurement boundary, so every outcome that resolves —
        // whether by eviction (possibly after this core froze, under a
        // co-runner's cache pressure) or by the end-of-run residue sweep —
        // belongs to a measurement-window prefetch. Gating on frozen made
        // attribution depend on eviction timing.
        let stats = if ev.origin_l1 {
            &mut self.cores[c].l1_pf_stats
        } else {
            &mut self.cores[c].l2_pf_stats
        };
        if ev.was_useful {
            stats.useful_by_level[ev.served.index()] += 1;
        } else {
            stats.useless_by_level[ev.served.index()] += 1;
        }
    }

    fn writeback_from_l1(&mut self, c: CoreId, paddr: u64) {
        let out = self.cores[c].l2.writeback_arrive(paddr);
        if let Some(ev) = out.evicted_prefetch {
            self.attribute_prefetch_outcome(&ev);
        }
        if let Some(p) = out.writeback {
            self.writeback_from_l2(c, p);
        }
    }

    fn writeback_from_l2(&mut self, c: CoreId, paddr: u64) {
        let out = self.llc.writeback_arrive(paddr);
        if let Some(ev) = out.evicted_prefetch {
            self.attribute_prefetch_outcome(&ev);
        }
        if let Some(line) = out.evicted_line {
            if let Some(vc) = &mut self.victim {
                vc.insert(line);
            }
        }
        if let Some(p) = out.writeback {
            if !self.dram.push_write(p, c) {
                self.wb_retry.push_back((p, c));
            }
        }
    }

    #[inline(always)]
    fn tick_l2(&mut self, i: usize, now: Cycle) {
        let mut out = std::mem::take(&mut self.scratch.tick_out);
        out.clear();
        self.cores[i].l2.tick_into(now, &mut out);
        for paddr in out.demand_misses.drain(..) {
            self.cores[i].l2_filter.on_demand_miss(paddr);
        }
        for ev in out.pf_useful.drain(..) {
            self.attribute_prefetch_outcome(&ev);
        }
        for req in out.hits.drain(..) {
            self.stamp_journey(req.journey, Stage::L2Lookup, now);
            self.deliver_to_l1(req.core, req.line(), Level::L2, now);
        }
        for req in out.forwards.drain(..) {
            self.stamp_journey(req.journey, Stage::L2Lookup, now);
            self.llc.push_demand(req, now);
        }
        // SPP observes demand accesses and produces candidates; PPF filters.
        for (req, hit) in out.demand_accesses.drain(..) {
            // Covers loads that merged into an existing L2 MSHR (neither a
            // hit nor a forward); idempotent for the other two paths.
            self.stamp_journey(req.journey, Stage::L2Lookup, now);
            let acc = L2Access {
                core: i,
                pc: req.pc,
                paddr: req.paddr,
                hit,
                cycle: now,
            };
            let cs = &mut self.cores[i];
            cs.l2_pf.on_access(&acc, &mut cs.l2_pf_scratch);
            let frozen = cs.core.stats_frozen();
            let mut cands = std::mem::take(&mut cs.l2_pf_scratch);
            for cand in cands.drain(..) {
                self.issue_l2_prefetch(i, &acc, cand, frozen, now);
            }
            self.cores[i].l2_pf_scratch = cands;
        }
        self.scratch.tick_out = out;
    }

    fn issue_l2_prefetch(
        &mut self,
        i: usize,
        trigger: &L2Access,
        cand: L2PrefetchCandidate,
        frozen: bool,
        now: Cycle,
    ) {
        let cs = &mut self.cores[i];
        if !frozen {
            cs.l2_pf_stats.candidates += 1;
        }
        if cand.paddr / LINE_SIZE == trigger.paddr / LINE_SIZE
            || cs.l2.probe(cand.paddr)
            || cs.l2.has_mshr(cand.paddr)
        {
            if !frozen {
                cs.l2_pf_stats.dropped += 1;
            }
            return;
        }
        if !cs.l2_filter.filter(trigger, &cand) {
            if !frozen {
                cs.l2_pf_stats.filtered += 1;
            }
            return;
        }
        let id = self.fresh_id();
        let cs = &mut self.cores[i];
        let mut req = Request::rfo(id, i, trigger.pc, 0, cand.paddr, now);
        req.kind = ReqKind::PrefetchL2 {
            fill_llc_only: cand.fill_llc_only,
        };
        if cs.l2.push_prefetch(req, now) {
            if !frozen {
                cs.l2_pf_stats.issued += 1;
            }
        } else if !frozen {
            cs.l2_pf_stats.dropped += 1;
        }
    }

    #[inline(always)]
    fn tick_l1d(&mut self, i: usize, now: Cycle) {
        let mut out = std::mem::take(&mut self.scratch.tick_out);
        out.clear();
        self.cores[i].l1d.tick_into(now, &mut out);
        for ev in out.pf_useful.drain(..) {
            self.attribute_prefetch_outcome(&ev);
        }
        for req in out.hits.drain(..) {
            match req.kind {
                ReqKind::Load => {
                    // Stamp before completion: `complete_load` finishes the
                    // journey and retires its slot.
                    self.stamp_journey(req.journey, Stage::L1Lookup, now);
                    self.complete_load(i, &req, Level::L1d, now);
                }
                ReqKind::PrefetchL1 { .. } => {
                    // Forwarded prefetch that hit here cannot happen (L1 is
                    // the origin), but stay safe.
                }
                _ => {}
            }
        }
        for req in out.forwards.drain(..) {
            self.stamp_journey(req.journey, Stage::L1Lookup, now);
            // Selective delay: the tagged load missed in L1D, so issue the
            // speculative DRAM request now.
            if req.kind == ReqKind::Load && req.offchip.decision == OffChipDecision::IssueOnL1dMiss
            {
                if let Some(seq) = req.lq_seq {
                    self.cores[i].core.mark_spec_issued(seq);
                }
                if !self.cores[i].core.stats_frozen() {
                    self.cores[i].offchip_stats.delayed_issued += 1;
                }
                let id = self.fresh_id();
                let spec = Request::speculative(id, i, req.pc, req.vaddr, req.paddr, now);
                self.spec_pending.push_delayed(now + 1, spec);
            }
            self.cores[i].l2.push_demand(req, now);
        }
        // L1 prefetcher hooks.
        for (req, hit) in out.demand_accesses.drain(..) {
            // Covers loads that merged into an existing L1 MSHR; for hits
            // the journey already completed above, so this is a no-op.
            self.stamp_journey(req.journey, Stage::L1Lookup, now);
            let acc = DemandAccess {
                core: i,
                pc: req.pc,
                vaddr: req.vaddr,
                hit,
                is_store: req.kind == ReqKind::Rfo,
                cycle: now,
            };
            let cs = &mut self.cores[i];
            cs.l1_pf.on_access(&acc, &mut cs.pf_scratch);
            let frozen = cs.core.stats_frozen();
            let mut cands = std::mem::take(&mut cs.pf_scratch);
            for cand in cands.drain(..) {
                self.issue_l1_prefetch(i, &req, cand, frozen, now);
            }
            self.cores[i].pf_scratch = cands;
        }
        self.scratch.tick_out = out;
    }

    fn issue_l1_prefetch(
        &mut self,
        i: usize,
        trigger: &Request,
        cand: PrefetchCandidate,
        frozen: bool,
        now: Cycle,
    ) {
        if !frozen {
            self.cores[i].l1_pf_stats.candidates += 1;
        }
        if cand.vaddr / LINE_SIZE == trigger.vaddr / LINE_SIZE {
            if !frozen {
                self.cores[i].l1_pf_stats.dropped += 1;
            }
            return;
        }
        let paddr = {
            let cs = &mut self.cores[i];
            cs.mmu.translate_untimed(&mut self.pt, i, cand.vaddr)
        };
        let cs = &mut self.cores[i];
        if cs.l1d.probe(paddr) || cs.l1d.has_mshr(paddr) {
            if !frozen {
                cs.l1_pf_stats.dropped += 1;
            }
            return;
        }
        let ctx = L1FilterCtx {
            core: i,
            trigger_pc: trigger.pc,
            trigger_vaddr: trigger.vaddr,
            pf_vaddr: cand.vaddr,
            pf_paddr: paddr,
            trigger_tag: trigger.offchip,
            cycle: now,
        };
        let (issue, ftag) = cs.l1_filter.filter(&ctx);
        if !issue {
            if !frozen {
                cs.l1_pf_stats.filtered += 1;
            }
            return;
        }
        let id = self.fresh_id();
        let cs = &mut self.cores[i];
        let mut req = Request::rfo(id, i, trigger.pc, cand.vaddr, paddr, now);
        req.kind = ReqKind::PrefetchL1 {
            fill_l1: cand.fill_l1,
        };
        req.vaddr = cand.vaddr;
        req.filter = ftag;
        req.pf_trigger = Some((trigger.pc, trigger.vaddr, trigger.offchip.decision));
        if cs.l1d.push_prefetch(req, now) {
            if !frozen {
                cs.l1_pf_stats.issued += 1;
            }
        } else if !frozen {
            cs.l1_pf_stats.dropped += 1;
        }
    }

    #[inline(always)]
    fn tick_core(&mut self, i: usize, now: Cycle) {
        // Retire.
        let retired = self.cores[i].core.retire(now);
        if retired > 0 {
            self.last_retire = now;
        }
        // Dispatch (with off-chip prediction at load dispatch).
        {
            let cs = &mut self.cores[i];
            let mut hook = PredictHook {
                offchip: cs.offchip.as_mut(),
                stats: &mut cs.offchip_stats,
                frozen: cs.core.stats_frozen(),
                core: i,
            };
            let trace = cs.trace.as_mut();
            let mut feed = || trace.next_record();
            if !cs.core.dispatch(now, &mut feed, &mut hook) {
                cs.trace_exhausted = true;
            }
        }
        // Schedule ready instructions; issue loads to the L1D. A load whose
        // tag says IssueNow launches its speculative DRAM request here —
        // at address generation, in parallel with the L1D lookup, exactly
        // like Hermes (the address of a dependent load is not known at
        // dispatch).
        let mut loads = std::mem::take(&mut self.scratch.loads);
        self.cores[i].core.schedule_into(now, &mut loads);
        for &l in &loads {
            let id = self.fresh_id();
            let cs = &mut self.cores[i];
            let t = cs.mmu.translate(&mut self.pt, i, l.vaddr);
            if !cs.core.stats_frozen() {
                if t.dtlb_miss {
                    cs.core.stats.dtlb_misses += 1;
                }
                if t.stlb_miss {
                    cs.core.stats.stlb_misses += 1;
                }
            }
            let mut req =
                Request::demand_load(id, i, l.pc, l.vaddr, t.paddr, l.seq, l.offchip, now);
            if let Some(tl) = &mut self.timeline {
                req.journey = tl.begin_load(
                    i,
                    l.pc,
                    l.vaddr,
                    now,
                    offchip_code(l.offchip.decision),
                    l.offchip.valid,
                );
            }
            let cs = &mut self.cores[i];
            cs.l1d.push_demand(req, now + t.latency);
            if l.offchip.decision == OffChipDecision::IssueNow {
                let id = self.fresh_id();
                let spec = Request::speculative(id, i, l.pc, l.vaddr, t.paddr, now);
                self.spec_pending
                    .push_issued(now + self.cfg.core.offchip_predictor_latency, spec);
            }
        }
        loads.clear();
        self.scratch.loads = loads;
        // Drain one store per cycle through the L1D write port.
        if let Some(st) = self.cores[i].core.pop_store() {
            let id = self.fresh_id();
            let cs = &mut self.cores[i];
            let t = cs.mmu.translate(&mut self.pt, i, st.vaddr);
            if !cs.l1d.store_hit(t.paddr) {
                let req = Request::rfo(id, i, st.pc, st.vaddr, t.paddr, now);
                cs.l1d.push_demand(req, now + t.latency);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_trace::{Reg, TraceRecord, VecTrace};

    fn stream_trace(n: usize, stride: u64) -> VecTrace {
        let recs: Vec<TraceRecord> = (0..n)
            .map(|i| {
                TraceRecord::load(
                    0x400,
                    0x10_0000 + i as u64 * stride,
                    8,
                    Reg(1),
                    [None, None],
                )
            })
            .collect();
        VecTrace::new("stream", recs)
    }

    fn tiny_system(trace: VecTrace) -> System {
        let cfg = SystemConfig::test_tiny(1);
        System::new(cfg, vec![CoreSetup::new(Box::new(trace))])
    }

    #[test]
    fn runs_a_simple_load_stream_to_completion() {
        let mut sys = tiny_system(stream_trace(500, 64));
        let report = sys.run(0, 500);
        assert_eq!(report.cores[0].core.instructions, 500);
        assert!(report.cores[0].core.ipc() > 0.0);
        // Every line is cold: all loads miss everywhere, all from DRAM.
        assert_eq!(report.cores[0].l1d.demand_misses, 500);
        assert!(report.dram.reads >= 490);
    }

    #[test]
    fn repeated_accesses_hit_in_l1() {
        // 64-byte working set: everything hits after the first miss.
        let recs: Vec<TraceRecord> = (0..200)
            .map(|_| TraceRecord::load(0x400, 0x5000, 8, Reg(1), [None, None]))
            .collect();
        let mut sys = tiny_system(VecTrace::new("hot", recs));
        let report = sys.run(0, 200);
        // Independent same-line loads all issue before the first fill
        // returns; they merge into one MSHR, so DRAM sees exactly one read.
        assert_eq!(report.dram.reads, 1);
        assert_eq!(
            report.cores[0].l1d.demand_hits + report.cores[0].l1d.demand_misses,
            200
        );
        assert!(report.cores[0].l1d.demand_hits >= 100);
    }

    #[test]
    fn hits_are_faster_than_misses() {
        let hot: Vec<TraceRecord> = (0..400)
            .map(|_| TraceRecord::load(0x400, 0x5000, 8, Reg(1), [Some(Reg(1)), None]))
            .collect();
        let cold: Vec<TraceRecord> = (0..400)
            .map(|i| {
                TraceRecord::load(0x400, 0x10_0000 + i * 4096, 8, Reg(1), [Some(Reg(1)), None])
            })
            .collect();
        let ipc_hot = tiny_system(VecTrace::new("hot", hot)).run(0, 400).ipc();
        let ipc_cold = tiny_system(VecTrace::new("cold", cold)).run(0, 400).ipc();
        assert!(
            ipc_hot > 3.0 * ipc_cold,
            "dependent cold loads must be much slower: hot {ipc_hot} cold {ipc_cold}"
        );
    }

    #[test]
    fn stores_generate_rfos_and_writebacks() {
        let recs: Vec<TraceRecord> = (0..200)
            .map(|i| TraceRecord::store(0x400, 0x20_0000 + i * 64, 8, None, None))
            .collect();
        let mut sys = tiny_system(VecTrace::new("stores", recs));
        // Measure target beyond the trace length: the run ends when the
        // finite trace drains, so every post-retirement RFO completes.
        let report = sys.run(0, 100_000);
        assert_eq!(report.cores[0].core.stores, 200);
        assert!(report.dram.reads > 100, "store misses fetch lines (RFO)");
        // Dirty lines evicted from the tiny hierarchy reach DRAM as writes.
        assert!(report.dram.writes > 50, "writebacks must reach DRAM");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sys = tiny_system(stream_trace(1000, 192));
            let r = sys.run(100, 800);
            (
                r.total_cycles,
                r.dram.transactions(),
                r.cores[0].l1d.demand_misses,
            )
        };
        assert_eq!(run(), run());
    }

    /// A working set cycling just past the tiny LLC's capacity: without a
    /// victim cache every revisit goes to DRAM; with one, recent victims
    /// are recovered on chip.
    fn thrash_trace(rounds: usize, lines: u64) -> VecTrace {
        let mut recs = Vec::new();
        for _ in 0..rounds {
            for i in 0..lines {
                recs.push(TraceRecord::load(
                    0x400,
                    0x10_0000 + i * 64,
                    8,
                    Reg(1),
                    [None, None],
                ));
            }
        }
        VecTrace::new("thrash", recs)
    }

    #[test]
    fn victim_cache_reduces_dram_reads_under_conflicts() {
        // test_tiny LLC: 32 sets × 4 ways = 128 lines. 160 lines thrash it.
        let run = |vc_entries: usize| {
            let mut cfg = SystemConfig::test_tiny(1);
            cfg.victim_cache_entries = vc_entries;
            let mut sys = System::new(cfg, vec![CoreSetup::new(Box::new(thrash_trace(6, 160)))]);
            sys.run(0, 6 * 160)
        };
        let without = run(0);
        let with = run(64);
        assert_eq!(without.victim.hits, 0);
        assert!(with.victim.hits > 0, "victim cache must capture revisits");
        assert!(with.victim.insertions > 0);
        assert!(
            with.dram.reads < without.dram.reads,
            "victim hits must shave DRAM reads: {} !< {}",
            with.dram.reads,
            without.dram.reads
        );
    }

    #[test]
    fn victim_cache_is_inert_for_cache_resident_sets() {
        let mut cfg = SystemConfig::test_tiny(1);
        cfg.victim_cache_entries = 16;
        // 8 lines: resident in L1D after first touch, LLC never evicts.
        let recs: Vec<TraceRecord> = (0..200)
            .map(|i| TraceRecord::load(0x400, 0x9000 + (i % 8) * 64, 8, Reg(1), [None, None]))
            .collect();
        let mut sys = System::new(
            cfg,
            vec![CoreSetup::new(Box::new(VecTrace::new("s", recs)))],
        );
        let report = sys.run(0, 200);
        assert_eq!(report.victim.hits, 0);
    }

    #[test]
    fn non_lru_llc_still_runs_to_completion() {
        for kind in crate::replacement::ReplKind::ALL {
            let mut cfg = SystemConfig::test_tiny(1);
            cfg.llc_repl = kind;
            let mut sys = System::new(cfg, vec![CoreSetup::new(Box::new(stream_trace(400, 64)))]);
            let report = sys.run(0, 400);
            assert_eq!(
                report.cores[0].core.instructions,
                400,
                "policy {} broke the run",
                kind.name()
            );
        }
    }

    /// A predictor that always returns the same decision, for exercising
    /// the speculative path deterministically.
    struct FixedPredictor(OffChipDecision);

    impl crate::hooks::OffChipPredictor for FixedPredictor {
        fn predict_load(&mut self, _ctx: &crate::hooks::LoadCtx) -> OffChipTag {
            OffChipTag {
                decision: self.0,
                confidence: 0,
                indices: tlp_perceptron::FeatureIndices::empty(),
                valid: true,
            }
        }
        fn train_load(&mut self, _ctx: &crate::hooks::LoadCtx, _tag: &OffChipTag, _served: Level) {}
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    use crate::hooks::OffChipDecision;
    use crate::hooks::OffChipTag;

    #[test]
    fn issue_now_predictions_reach_dram_and_serve_demands() {
        // Cold dependent loads: every speculative request is correct.
        let recs: Vec<TraceRecord> = (0..300)
            .map(|i| {
                TraceRecord::load(0x400, 0x40_0000 + i * 4096, 8, Reg(1), [Some(Reg(1)), None])
            })
            .collect();
        let cfg = SystemConfig::test_tiny(1);
        let setup = CoreSetup::new(Box::new(VecTrace::new("cold", recs)))
            .with_offchip(Box::new(FixedPredictor(OffChipDecision::IssueNow)));
        let mut sys = System::new(cfg, vec![setup]);
        let r = sys.run(0, 300);
        assert!(r.dram.spec_reads > 0, "speculative reads must be scheduled");
        assert!(
            r.cores[0].offchip.issued_now > 250,
            "every load must be predicted off-chip"
        );
        assert!(
            r.dram.spec_consumed > 0,
            "cold demands must consume DDRP fills"
        );
    }

    #[test]
    fn wrong_speculation_on_hot_lines_is_wasted() {
        // One hot line: after the first touch every load hits in L1D, so
        // speculative DRAM fills expire unconsumed.
        let recs: Vec<TraceRecord> = (0..300)
            .map(|_| TraceRecord::load(0x400, 0x5000, 8, Reg(1), [None, None]))
            .collect();
        let cfg = SystemConfig::test_tiny(1);
        let setup = CoreSetup::new(Box::new(VecTrace::new("hot", recs)))
            .with_offchip(Box::new(FixedPredictor(OffChipDecision::IssueNow)));
        let mut sys = System::new(cfg, vec![setup]);
        let r = sys.run(0, 300);
        assert!(
            r.dram.spec_wasted > 0,
            "speculation for L1D-resident lines must expire unused"
        );
        // The waste shows up as extra DRAM transactions over the single
        // demand fill.
        assert!(r.dram.transactions() > 1);
    }

    #[test]
    fn delayed_predictions_do_not_issue_on_l1d_hits() {
        let recs: Vec<TraceRecord> = (0..300)
            .map(|_| TraceRecord::load(0x400, 0x5000, 8, Reg(1), [None, None]))
            .collect();
        let cfg = SystemConfig::test_tiny(1);
        let setup = CoreSetup::new(Box::new(VecTrace::new("hot", recs)))
            .with_offchip(Box::new(FixedPredictor(OffChipDecision::IssueOnL1dMiss)));
        let mut sys = System::new(cfg, vec![setup]);
        let r = sys.run(0, 300);
        let oc = &r.cores[0].offchip;
        assert!(oc.tagged_delayed > 250, "every load is tagged");
        assert_eq!(oc.issued_now, 0, "delayed mode never issues at the core");
        // Only the cold first touch (plus any loads issued before its fill
        // returns) can issue the delayed request.
        assert!(
            oc.delayed_issued < 50,
            "L1D hits must not trigger delayed requests: {}",
            oc.delayed_issued
        );
    }

    #[test]
    fn delayed_predictions_issue_on_l1d_misses() {
        let recs: Vec<TraceRecord> = (0..300)
            .map(|i| {
                TraceRecord::load(0x400, 0x40_0000 + i * 4096, 8, Reg(1), [Some(Reg(1)), None])
            })
            .collect();
        let cfg = SystemConfig::test_tiny(1);
        let setup = CoreSetup::new(Box::new(VecTrace::new("cold", recs)))
            .with_offchip(Box::new(FixedPredictor(OffChipDecision::IssueOnL1dMiss)));
        let mut sys = System::new(cfg, vec![setup]);
        let r = sys.run(0, 300);
        let oc = &r.cores[0].offchip;
        assert!(
            oc.delayed_issued > 250,
            "every cold miss must fire its delayed request: {}",
            oc.delayed_issued
        );
        assert!(r.dram.spec_reads > 0);
    }

    #[test]
    fn multi_core_shares_llc_and_dram() {
        let cfg = SystemConfig::test_tiny(2);
        let mut sys = System::new(
            cfg,
            vec![
                CoreSetup::new(Box::new(stream_trace(400, 64))),
                CoreSetup::new(Box::new(stream_trace(400, 64))),
            ],
        );
        let report = sys.run(0, 400);
        assert_eq!(report.cores.len(), 2);
        for c in &report.cores {
            assert_eq!(c.core.instructions, 400);
        }
        // Same virtual addresses on both cores map to distinct physical
        // lines, so DRAM sees both streams.
        assert!(report.dram.reads >= 700);
    }

    #[test]
    fn warmup_stats_are_discarded() {
        let mut sys = tiny_system(stream_trace(2000, 64));
        let report = sys.run(1000, 500);
        assert_eq!(report.cores[0].core.instructions, 500);
        assert!(report.cores[0].l1d.demand_misses <= 510);
    }

    #[test]
    #[should_panic(expected = "one CoreSetup per core")]
    fn setup_count_must_match() {
        let cfg = SystemConfig::test_tiny(2);
        let _ = System::new(cfg, vec![CoreSetup::new(Box::new(stream_trace(10, 64)))]);
    }

    #[test]
    fn finite_trace_ends_cleanly() {
        let mut sys = tiny_system(stream_trace(50, 64));
        let report = sys.run(0, 10_000);
        assert_eq!(report.cores[0].core.instructions, 50);
    }

    /// Dependent cold loads (a pointer-chase shape): the system spends
    /// most cycles fully stalled on DRAM, which is exactly where the
    /// event engine must both match the cycle engine bit-for-bit and
    /// skip a large share of the ticks.
    fn chase_trace(n: usize) -> VecTrace {
        let recs: Vec<TraceRecord> = (0..n as u64)
            .map(|i| {
                TraceRecord::load(0x400, 0x40_0000 + i * 4096, 8, Reg(1), [Some(Reg(1)), None])
            })
            .collect();
        VecTrace::new("chase", recs)
    }

    fn run_both(make: impl Fn() -> System, warmup: u64, measure: u64) -> (SimReport, SimReport) {
        let mut cyc = make();
        cyc.set_engine_mode(EngineMode::Cycle);
        let rc = cyc.run(warmup, measure);
        let mut evt = make();
        evt.set_engine_mode(EngineMode::Event);
        let re = evt.run(warmup, measure);
        assert_eq!(
            cyc.cycle(),
            evt.cycle(),
            "both engines must land on the same final cycle"
        );
        assert_eq!(
            cyc.ticks_executed(),
            cyc.cycle(),
            "cycle mode executes every cycle"
        );
        assert!(
            evt.ticks_executed() <= cyc.ticks_executed(),
            "event mode can never execute more ticks than cycle mode"
        );
        assert!(
            cyc.core_ticks_executed()
                .iter()
                .all(|&t| t == cyc.ticks_executed()),
            "cycle mode runs every core stage on every tick"
        );
        (rc, re)
    }

    #[test]
    fn event_mode_is_bit_identical_on_a_memory_bound_chase() {
        let (rc, re) = run_both(|| tiny_system(chase_trace(600)), 100, 500);
        assert_eq!(rc, re);
    }

    #[test]
    fn event_mode_skips_idle_cycles_on_a_memory_bound_chase() {
        let mut evt = tiny_system(chase_trace(600));
        evt.set_engine_mode(EngineMode::Event);
        let _ = evt.run(0, 600);
        assert!(
            evt.ticks_executed() * 2 < evt.cycle(),
            "a dependent chase must skip most cycles: executed {} of {}",
            evt.ticks_executed(),
            evt.cycle()
        );
    }

    #[test]
    fn event_mode_is_bit_identical_on_streams_and_hot_lines() {
        let (rc, re) = run_both(|| tiny_system(stream_trace(1000, 192)), 100, 800);
        assert_eq!(rc, re);
        let hot = || {
            let recs: Vec<TraceRecord> = (0..400)
                .map(|_| TraceRecord::load(0x400, 0x5000, 8, Reg(1), [Some(Reg(1)), None]))
                .collect();
            tiny_system(VecTrace::new("hot", recs))
        };
        let (rc, re) = run_both(hot, 50, 300);
        assert_eq!(rc, re);
    }

    #[test]
    fn event_mode_is_bit_identical_with_stores_and_thrashing() {
        let stores = || {
            let recs: Vec<TraceRecord> = (0..200)
                .map(|i| TraceRecord::store(0x400, 0x20_0000 + i * 64, 8, None, None))
                .collect();
            tiny_system(VecTrace::new("stores", recs))
        };
        let (rc, re) = run_both(stores, 0, 100_000);
        assert_eq!(rc, re);
        let (rc, re) = run_both(|| tiny_system(thrash_trace(6, 160)), 0, 6 * 160);
        assert_eq!(rc, re);
    }

    #[test]
    fn event_mode_is_bit_identical_with_speculative_predictors() {
        for decision in [
            OffChipDecision::IssueNow,
            OffChipDecision::IssueOnL1dMiss,
            OffChipDecision::NoIssue,
        ] {
            let make = || {
                let setup = CoreSetup::new(Box::new(chase_trace(300)))
                    .with_offchip(Box::new(FixedPredictor(decision)));
                System::new(SystemConfig::test_tiny(1), vec![setup])
            };
            let (rc, re) = run_both(make, 0, 300);
            assert_eq!(rc, re, "decision {decision:?} diverged");
        }
    }

    /// A compute-bound core keeps every cycle busy while a dependent
    /// chase sits blocked on DRAM: event mode skips no whole cycle, but
    /// it skips the chaser's core stage on almost every executed tick.
    #[test]
    fn event_mode_skips_a_blocked_cores_stage_inside_busy_ticks() {
        let make = || {
            let alu: Vec<TraceRecord> = (0..64)
                .map(|i| TraceRecord::alu(0x400 + i * 4, Some(Reg(2)), [None, None]))
                .collect();
            System::new(
                SystemConfig::test_tiny(2),
                vec![
                    CoreSetup::new(Box::new(VecTrace::looping("alu", alu))),
                    CoreSetup::new(Box::new(chase_trace(200))),
                ],
            )
        };
        let mut cyc = make().with_engine_mode(EngineMode::Cycle);
        let mut evt = make().with_engine_mode(EngineMode::Event);
        assert_eq!(cyc.run(0, 200), evt.run(0, 200));
        let ticks = evt.ticks_executed();
        assert_eq!(
            ticks,
            cyc.ticks_executed(),
            "the busy core leaves no cycle idle"
        );
        let stages = evt.core_ticks_executed();
        assert_eq!(stages[0], ticks, "the busy core runs its stage every tick");
        assert!(
            stages[1] * 10 < ticks,
            "the chaser ran its stage on {} of {ticks} ticks",
            stages[1]
        );
    }

    #[test]
    fn event_mode_is_bit_identical_multi_core() {
        let make = || {
            System::new(
                SystemConfig::test_tiny(2),
                vec![
                    CoreSetup::new(Box::new(stream_trace(400, 64))),
                    CoreSetup::new(Box::new(chase_trace(400))),
                ],
            )
        };
        let (rc, re) = run_both(make, 50, 350);
        assert_eq!(rc, re);
    }

    /// Mispredicted branches racing memory-blocked ROB heads in a tiny
    /// ROB: the shape where a stall-resolution wake-up gated on ROB
    /// space (dispatch resolves the stall even when the ROB is full)
    /// would let event mode skip the mispredict penalty cycle mode pays.
    #[test]
    fn event_mode_is_bit_identical_under_branch_stalls_with_full_rob() {
        let make_trace = || {
            let mut recs = Vec::new();
            let mut x = 0x1234_5678_9abc_def0u64;
            for i in 0..600u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Heads that resolve on-chip fast (hot line) or off-chip
                // slow (cold dependent), racing the mispredict penalty...
                let addr = if x & 4 == 0 {
                    0x5000
                } else {
                    0x40_0000 + i * 4096
                };
                recs.push(TraceRecord::load(
                    0x400,
                    addr,
                    8,
                    Reg(1),
                    [Some(Reg(1)), None],
                ));
                // ...chased by pseudo-random branches that keep
                // mispredicting and stalling fetch behind them.
                recs.push(TraceRecord::branch(0x410 + i * 8, x & 1 == 0, 0x400, None));
                recs.push(TraceRecord::alu(0x418, Some(Reg(2)), [None, None]));
                recs.push(TraceRecord::branch(0x420 + i * 8, x & 2 == 0, 0x400, None));
            }
            VecTrace::new("branchy", recs)
        };
        for rob in [4usize, 8, 16] {
            let make = || {
                let mut cfg = SystemConfig::test_tiny(1);
                cfg.core.rob = rob;
                cfg.core.load_queue = rob;
                cfg.core.store_queue = rob;
                // A penalty longer than an on-chip hit: resolving the
                // stall late (or never) visibly shifts fetch timing.
                cfg.core.mispredict_penalty = 30;
                System::new(cfg, vec![CoreSetup::new(Box::new(make_trace()))])
            };
            let (rc, re) = run_both(make, 100, 2000);
            assert_eq!(rc, re, "rob={rob} diverged");
        }
    }

    #[test]
    fn engine_mode_parses_and_displays() {
        assert_eq!("cycle".parse::<EngineMode>(), Ok(EngineMode::Cycle));
        assert_eq!("event".parse::<EngineMode>(), Ok(EngineMode::Event));
        assert!("evnet".parse::<EngineMode>().is_err());
        assert_eq!(EngineMode::Event.to_string(), "event");
        assert_eq!(EngineMode::default(), EngineMode::Event);
    }

    /// The trigger's *two-bit* off-chip decision must survive the trip
    /// through the stored prefetch metadata into the filter-training
    /// context. The predecessor (`from_offchip_bit`) collapsed the
    /// decision to one bit and always reconstructed `IssueOnL1dMiss`, so
    /// an `IssueNow` trigger trained the filter with the wrong decision.
    #[test]
    fn filter_training_sees_the_triggers_original_decision() {
        use std::sync::{Arc, Mutex};

        /// Predicts `IssueNow` for every load.
        struct AlwaysNow;
        impl OffChipPredictor for AlwaysNow {
            fn predict_load(&mut self, _ctx: &LoadCtx) -> OffChipTag {
                OffChipTag {
                    decision: OffChipDecision::IssueNow,
                    confidence: 0,
                    indices: tlp_perceptron::FeatureIndices::empty(),
                    valid: true,
                }
            }
            fn train_load(&mut self, _c: &LoadCtx, _t: &OffChipTag, _s: Level) {}
            fn name(&self) -> &'static str {
                "always-now"
            }
        }

        /// Next-line on every miss, so prefetches actually issue.
        struct MissNextLine;
        impl L1Prefetcher for MissNextLine {
            fn on_access(&mut self, a: &DemandAccess, out: &mut Vec<PrefetchCandidate>) {
                if !a.hit {
                    out.push(PrefetchCandidate {
                        vaddr: (a.vaddr & !(LINE_SIZE - 1)) + LINE_SIZE,
                        fill_l1: true,
                    });
                }
            }
            fn name(&self) -> &'static str {
                "miss-next-line"
            }
        }

        /// Pass-through filter recording every training decision.
        struct Recorder(Arc<Mutex<Vec<OffChipDecision>>>);
        impl L1PrefetchFilter for Recorder {
            fn filter(&mut self, _ctx: &L1FilterCtx) -> (bool, crate::hooks::FilterTag) {
                (true, crate::hooks::FilterTag::default())
            }
            fn train(&mut self, ctx: &L1FilterCtx, _t: &crate::hooks::FilterTag, _s: Level) {
                self.0
                    .lock()
                    .expect("recorder")
                    .push(ctx.trigger_tag.decision);
            }
            fn name(&self) -> &'static str {
                "recorder"
            }
        }

        let seen = Arc::new(Mutex::new(Vec::new()));
        let setup = CoreSetup::new(Box::new(stream_trace(400, 64)))
            .with_offchip(Box::new(AlwaysNow))
            .with_l1_prefetcher(Box::new(MissNextLine))
            .with_l1_filter(Box::new(Recorder(Arc::clone(&seen))));
        let mut sys = System::new(SystemConfig::test_tiny(1), vec![setup]);
        let _ = sys.run(0, 400);
        let seen = seen.lock().expect("recorder");
        assert!(
            !seen.is_empty(),
            "the stream must complete at least one prefetch"
        );
        assert!(
            seen.iter().all(|&d| d == OffChipDecision::IssueNow),
            "training contexts must carry the trigger's IssueNow decision, got {seen:?}"
        );
    }
}
