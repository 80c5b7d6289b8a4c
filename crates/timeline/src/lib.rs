//! Simulated-time telemetry for the TLP engine.
//!
//! Two instruments, both driven purely by *simulated* cycles so their output
//! is bit-identical across engine modes, thread counts, and cache
//! temperature:
//!
//! * **Windowed time-series** — every `window_cycles` simulated cycles the
//!   engine snapshots its monotone counters and the [`Recorder`] stores the
//!   per-window delta as a [`WindowSample`]. The hot loop only bumps counters
//!   it already maintains; the recorder touches them at window boundaries.
//! * **Sampled request journeys** — every `journey_every`-th demand load per
//!   core (deterministic modulus on the per-core load ordinal, never an RNG)
//!   carries a [`JourneyRecord`] collecting per-stage simulated-cycle
//!   timestamps from dispatch to fill delivery.
//!
//! Everything is preallocated at `Recorder::new` / `restart` time and every
//! hot-path push is capacity-guarded, preserving the engine's zero-steady-
//! state-allocation invariant (`tests/zero_alloc.rs`).

#![forbid(unsafe_code)]

/// Sentinel journey id meaning "this request is not sampled".
pub const JOURNEY_NONE: u32 = u32::MAX;

/// Journey ids pack a slot index in the low 8 bits and a wrapping
/// generation in the upper 24. Slots are capped below 255 so no live id
/// can ever collide with [`JOURNEY_NONE`].
const SLOT_BITS: u32 = 8;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;
const GEN_MASK: u32 = (1 << 24) - 1;
const MAX_SLOTS: usize = 128;

/// Configuration for a timeline capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineConfig {
    /// Simulated cycles per window sample.
    pub window_cycles: u64,
    /// Sample every K-th demand load per core (0 disables journeys).
    pub journey_every: u64,
    /// Hard cap on stored window samples; overflow is counted, not stored.
    pub max_windows: usize,
    /// Hard cap on stored journey records; overflow is counted, not stored.
    pub max_journeys: usize,
    /// In-flight journey slots (clamped to 128 so ids stay 8-bit).
    pub journey_slots: usize,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            window_cycles: 10_000,
            journey_every: 64,
            max_windows: 4096,
            max_journeys: 4096,
            journey_slots: 64,
        }
    }
}

/// Monotone counter snapshot taken from the engine. Windows store the
/// delta between two snapshots; the fields mirror what the simulator
/// already tracks, so snapshotting is a pure read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub instructions: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub llc_misses: u64,
    pub pf_issued: u64,
    pub pf_useful: u64,
    pub pf_useless: u64,
    pub pf_filtered: u64,
    pub offchip_issued: u64,
    pub offchip_accurate: u64,
    pub offchip_missed: u64,
    pub offchip_predicted_onchip: u64,
    pub offchip_correct_onchip: u64,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub dram_row_hits: u64,
    pub dram_row_conflicts: u64,
}

impl Counters {
    /// Per-window delta (`self` is the later snapshot). Saturating so a
    /// mid-run stats reset can never underflow.
    pub fn delta(&self, prev: &Counters) -> Counters {
        Counters {
            instructions: self.instructions.saturating_sub(prev.instructions),
            l1d_misses: self.l1d_misses.saturating_sub(prev.l1d_misses),
            l2_misses: self.l2_misses.saturating_sub(prev.l2_misses),
            llc_misses: self.llc_misses.saturating_sub(prev.llc_misses),
            pf_issued: self.pf_issued.saturating_sub(prev.pf_issued),
            pf_useful: self.pf_useful.saturating_sub(prev.pf_useful),
            pf_useless: self.pf_useless.saturating_sub(prev.pf_useless),
            pf_filtered: self.pf_filtered.saturating_sub(prev.pf_filtered),
            offchip_issued: self.offchip_issued.saturating_sub(prev.offchip_issued),
            offchip_accurate: self.offchip_accurate.saturating_sub(prev.offchip_accurate),
            offchip_missed: self.offchip_missed.saturating_sub(prev.offchip_missed),
            offchip_predicted_onchip: self
                .offchip_predicted_onchip
                .saturating_sub(prev.offchip_predicted_onchip),
            offchip_correct_onchip: self
                .offchip_correct_onchip
                .saturating_sub(prev.offchip_correct_onchip),
            dram_reads: self.dram_reads.saturating_sub(prev.dram_reads),
            dram_writes: self.dram_writes.saturating_sub(prev.dram_writes),
            dram_row_hits: self.dram_row_hits.saturating_sub(prev.dram_row_hits),
            dram_row_conflicts: self
                .dram_row_conflicts
                .saturating_sub(prev.dram_row_conflicts),
        }
    }
}

/// `num * 1000 / den`, 0 when the denominator is 0. All derived rates in
/// the timeline are integer milli-units so the artifact never contains a
/// float (the serial codec is integer-only, and floats would threaten
/// bit-identity).
pub fn ratio_milli(num: u64, den: u64) -> u64 {
    num.saturating_mul(1000).checked_div(den).unwrap_or(0)
}

/// One window of the time-series: counter deltas over
/// `[start_cycle, end_cycle)` plus end-of-window occupancy gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowSample {
    pub start_cycle: u64,
    pub end_cycle: u64,
    pub counters: Counters,
    pub rob_occupancy: u64,
    pub mshr_occupancy: u64,
}

impl WindowSample {
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }
    /// Instructions per cycle, in thousandths.
    pub fn ipc_milli(&self) -> u64 {
        ratio_milli(self.counters.instructions, self.cycles())
    }
    /// Misses per kilo-instruction, in thousandths (misses * 1e6 / insts).
    fn mpki_milli(misses: u64, insts: u64) -> u64 {
        misses
            .saturating_mul(1_000_000)
            .checked_div(insts)
            .unwrap_or(0)
    }
    pub fn l1d_mpki_milli(&self) -> u64 {
        Self::mpki_milli(self.counters.l1d_misses, self.counters.instructions)
    }
    pub fn l2_mpki_milli(&self) -> u64 {
        Self::mpki_milli(self.counters.l2_misses, self.counters.instructions)
    }
    pub fn llc_mpki_milli(&self) -> u64 {
        Self::mpki_milli(self.counters.llc_misses, self.counters.instructions)
    }
    /// Prefetch accuracy: useful / issued.
    pub fn pf_accuracy_milli(&self) -> u64 {
        ratio_milli(self.counters.pf_useful, self.counters.pf_issued)
    }
    /// Prefetch coverage proxy: useful / (useful + L1D demand misses).
    pub fn pf_coverage_milli(&self) -> u64 {
        ratio_milli(
            self.counters.pf_useful,
            self.counters.pf_useful + self.counters.l1d_misses,
        )
    }
    /// Off-chip predictor precision: accurate issues / issues.
    pub fn offchip_precision_milli(&self) -> u64 {
        ratio_milli(self.counters.offchip_accurate, self.counters.offchip_issued)
    }
    /// Off-chip predictor recall: accurate / (accurate + missed off-chip).
    pub fn offchip_recall_milli(&self) -> u64 {
        ratio_milli(
            self.counters.offchip_accurate,
            self.counters.offchip_accurate + self.counters.offchip_missed,
        )
    }
    /// Filter drop rate: filtered / (filtered + issued).
    pub fn filter_drop_milli(&self) -> u64 {
        ratio_milli(
            self.counters.pf_filtered,
            self.counters.pf_filtered + self.counters.pf_issued,
        )
    }
    /// DRAM read bandwidth: lines read per kilo-cycle.
    pub fn dram_read_bw_milli(&self) -> u64 {
        ratio_milli(self.counters.dram_reads, self.cycles())
    }
    /// DRAM row-buffer hit rate over reads+writes that touched a row.
    pub fn dram_row_hit_milli(&self) -> u64 {
        ratio_milli(
            self.counters.dram_row_hits,
            self.counters.dram_row_hits + self.counters.dram_row_conflicts,
        )
    }
}

/// Journey stages stamped between dispatch and completion. `Dispatch` and
/// the fill are implicit (`begin_load` / `finish`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Request reached the L1D lookup (hit or miss decided here).
    L1Lookup,
    /// Miss forwarded to / resolved in the L2.
    L2Lookup,
    /// Miss entered the DRAM read queue.
    DramQueue,
    /// DRAM bank began servicing the transaction.
    BankService,
}

/// Flight record for one sampled demand load. Stage timestamps are
/// absolute simulated cycles; 0 means "stage never reached" (a load that
/// hits in the L1 never sees the L2, a merged MSHR waiter never owns a
/// DRAM transaction). `served_level` is the `Level::index()` of the level
/// that satisfied the load, or [`JourneyRecord::SERVED_NONE`] for a
/// journey still in flight when the run ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JourneyRecord {
    pub core: u64,
    /// Per-core demand-load ordinal at sampling time (0, K, 2K, ...).
    pub ordinal: u64,
    pub pc: u64,
    pub vaddr: u64,
    pub dispatch: u64,
    pub l1_at: u64,
    pub l2_at: u64,
    pub dram_queue_at: u64,
    pub bank_at: u64,
    pub fill_at: u64,
    /// Off-chip prediction seen at dispatch: 0 NoIssue, 1 IssueOnL1dMiss,
    /// 2 IssueNow.
    pub offchip_decision: u64,
    pub offchip_valid: u64,
    /// 1 if a prefetch filter stamped a verdict on this request.
    pub filter_seen: u64,
    pub served_level: u64,
}

impl JourneyRecord {
    pub const SERVED_NONE: u64 = 4;
}

#[derive(Clone, Copy, Default)]
struct Slot {
    gen: u32,
    active: bool,
    /// Global begin ordinal, used to flush still-active journeys in a
    /// deterministic order at end of run.
    order: u64,
    rec: JourneyRecord,
}

/// Completed timeline artifact for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    pub window_cycles: u64,
    pub journey_every: u64,
    pub start_cycle: u64,
    pub end_cycle: u64,
    pub windows: Vec<WindowSample>,
    pub journeys: Vec<JourneyRecord>,
    pub windows_dropped: u64,
    pub journeys_dropped: u64,
}

impl Timeline {
    /// Render the window table as CSV (raw deltas plus derived milli-rates).
    pub fn windows_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(128 + self.windows.len() * 160);
        out.push_str(
            "start_cycle,end_cycle,instructions,l1d_misses,l2_misses,llc_misses,\
             pf_issued,pf_useful,pf_useless,pf_filtered,offchip_issued,\
             offchip_accurate,offchip_missed,dram_reads,dram_writes,\
             dram_row_hits,dram_row_conflicts,rob_occupancy,mshr_occupancy,\
             ipc_milli,l1d_mpki_milli,l2_mpki_milli,llc_mpki_milli,\
             pf_accuracy_milli,pf_coverage_milli,offchip_precision_milli,\
             offchip_recall_milli,filter_drop_milli,dram_read_bw_milli,\
             dram_row_hit_milli\n",
        );
        for w in &self.windows {
            let c = &w.counters;
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                w.start_cycle,
                w.end_cycle,
                c.instructions,
                c.l1d_misses,
                c.l2_misses,
                c.llc_misses,
                c.pf_issued,
                c.pf_useful,
                c.pf_useless,
                c.pf_filtered,
                c.offchip_issued,
                c.offchip_accurate,
                c.offchip_missed,
                c.dram_reads,
                c.dram_writes,
                c.dram_row_hits,
                c.dram_row_conflicts,
                w.rob_occupancy,
                w.mshr_occupancy,
                w.ipc_milli(),
                w.l1d_mpki_milli(),
                w.l2_mpki_milli(),
                w.llc_mpki_milli(),
                w.pf_accuracy_milli(),
                w.pf_coverage_milli(),
                w.offchip_precision_milli(),
                w.offchip_recall_milli(),
                w.filter_drop_milli(),
                w.dram_read_bw_milli(),
                w.dram_row_hit_milli(),
            );
        }
        out
    }
}

/// Live recorder owned by the engine while a timeline capture is armed.
pub struct Recorder {
    cfg: TimelineConfig,
    start: u64,
    last_sampled: u64,
    prev: Counters,
    windows: Vec<WindowSample>,
    windows_dropped: u64,
    slots: Vec<Slot>,
    free: Vec<u32>,
    journeys: Vec<JourneyRecord>,
    journeys_dropped: u64,
    loads_seen: Vec<u64>,
    begun: u64,
}

impl Recorder {
    pub fn new(mut cfg: TimelineConfig, cores: usize) -> Recorder {
        if cfg.window_cycles == 0 {
            cfg.window_cycles = TimelineConfig::default().window_cycles;
        }
        cfg.journey_slots = cfg.journey_slots.clamp(1, MAX_SLOTS);
        let slots = cfg.journey_slots;
        Recorder {
            cfg,
            start: 0,
            last_sampled: 0,
            prev: Counters::default(),
            windows: Vec::with_capacity(cfg.max_windows),
            windows_dropped: 0,
            slots: vec![Slot::default(); slots],
            // Pop order is highest-index-first; refilled in `restart`.
            free: (0..slots as u32).rev().collect(),
            journeys: Vec::with_capacity(cfg.max_journeys),
            journeys_dropped: 0,
            loads_seen: vec![0; cores.max(1)],
            begun: 0,
        }
    }

    pub fn config(&self) -> &TimelineConfig {
        &self.cfg
    }

    /// Re-arm at the start of the measured region. `snap` is the counter
    /// snapshot at `start`; everything recorded so far (warmup) is
    /// discarded.
    pub fn restart(&mut self, start: u64, snap: Counters) {
        self.start = start;
        self.last_sampled = start;
        self.prev = snap;
        self.windows.clear();
        self.windows_dropped = 0;
        self.journeys.clear();
        self.journeys_dropped = 0;
        self.begun = 0;
        for s in &mut self.slots {
            // Bump the generation so ids handed out before the restart
            // (warmup in-flight loads) can no longer stamp into slots.
            s.gen = (s.gen + 1) & GEN_MASK;
            s.active = false;
        }
        self.free.clear();
        for i in (0..self.slots.len() as u32).rev() {
            self.free.push(i);
        }
        for n in &mut self.loads_seen {
            *n = 0;
        }
    }

    /// True if at least one window boundary lies strictly before `now`
    /// and has not been sampled yet. Used by the event engine to catch up
    /// on boundaries skipped over during idle cycles.
    #[inline]
    pub fn window_due_before(&self, now: u64) -> bool {
        self.last_sampled + self.cfg.window_cycles < now
    }

    /// True if `now` is exactly the next window boundary.
    #[inline]
    pub fn window_due_at(&self, now: u64) -> bool {
        self.last_sampled + self.cfg.window_cycles == now
    }

    fn emit(&mut self, end: u64, snap: Counters, rob: u64, mshr: u64) {
        let sample = WindowSample {
            start_cycle: self.last_sampled,
            end_cycle: end,
            counters: snap.delta(&self.prev),
            rob_occupancy: rob,
            mshr_occupancy: mshr,
        };
        if self.windows.len() < self.cfg.max_windows {
            self.windows.push(sample);
        } else {
            self.windows_dropped += 1;
        }
        self.prev = snap;
        self.last_sampled = end;
    }

    /// Sample every boundary strictly before `now`. Correct to call with
    /// the *current* counters even though the boundaries are in the past:
    /// the engine only skips cycles it has proven idle, so the counters
    /// at those boundaries equal the counters now. The first boundary
    /// gets the real delta; later ones are zero windows — exactly what
    /// the cycle engine produces for idle windows.
    pub fn sample_skipped(&mut self, now: u64, snap: Counters, rob: u64, mshr: u64) {
        while self.last_sampled + self.cfg.window_cycles < now {
            let end = self.last_sampled + self.cfg.window_cycles;
            self.emit(end, snap, rob, mshr);
        }
    }

    /// Sample the boundary landing exactly on `now`, if any.
    pub fn sample_at(&mut self, now: u64, snap: Counters, rob: u64, mshr: u64) {
        if self.window_due_at(now) {
            self.emit(now, snap, rob, mshr);
        }
    }

    /// Account one demand load on `core`; returns a journey id if this is
    /// a sampled (every K-th) load, else [`JOURNEY_NONE`].
    #[allow(clippy::too_many_arguments)]
    pub fn begin_load(
        &mut self,
        core: usize,
        pc: u64,
        vaddr: u64,
        now: u64,
        offchip_decision: u64,
        offchip_valid: bool,
    ) -> u32 {
        if self.cfg.journey_every == 0 {
            return JOURNEY_NONE;
        }
        let Some(seen) = self.loads_seen.get_mut(core) else {
            return JOURNEY_NONE;
        };
        let ordinal = *seen;
        *seen += 1;
        if ordinal % self.cfg.journey_every != 0 {
            return JOURNEY_NONE;
        }
        let Some(slot) = self.free.pop() else {
            self.journeys_dropped += 1;
            return JOURNEY_NONE;
        };
        let s = &mut self.slots[slot as usize];
        s.gen = (s.gen + 1) & GEN_MASK;
        s.active = true;
        s.order = self.begun;
        self.begun += 1;
        s.rec = JourneyRecord {
            core: core as u64,
            ordinal,
            pc,
            vaddr,
            dispatch: now,
            offchip_decision,
            offchip_valid: offchip_valid as u64,
            served_level: JourneyRecord::SERVED_NONE,
            ..JourneyRecord::default()
        };
        slot | (s.gen << SLOT_BITS)
    }

    fn slot_for(&mut self, id: u32) -> Option<&mut Slot> {
        if id == JOURNEY_NONE {
            return None;
        }
        let slot = (id & SLOT_MASK) as usize;
        let gen = id >> SLOT_BITS;
        let s = self.slots.get_mut(slot)?;
        if s.active && s.gen == gen {
            Some(s)
        } else {
            None
        }
    }

    /// Record `stage` reached at cycle `at`. First stamp wins; stale ids
    /// (freed or recycled slots) are ignored.
    pub fn stamp(&mut self, id: u32, stage: Stage, at: u64) {
        let Some(s) = self.slot_for(id) else { return };
        let field = match stage {
            Stage::L1Lookup => &mut s.rec.l1_at,
            Stage::L2Lookup => &mut s.rec.l2_at,
            Stage::DramQueue => &mut s.rec.dram_queue_at,
            Stage::BankService => &mut s.rec.bank_at,
        };
        if *field == 0 {
            *field = at;
        }
    }

    /// Mark a sampled request as having seen a prefetch-filter verdict.
    pub fn stamp_filter(&mut self, id: u32) {
        if let Some(s) = self.slot_for(id) {
            s.rec.filter_seen = 1;
        }
    }

    /// Complete a journey: the load's data was delivered at `at` from
    /// `served_level` (a `Level::index()`).
    pub fn finish(&mut self, id: u32, at: u64, served_level: u64) {
        let slot = (id & SLOT_MASK) as usize;
        let Some(s) = self.slot_for(id) else { return };
        s.rec.fill_at = at;
        s.rec.served_level = served_level;
        s.active = false;
        let rec = s.rec;
        if self.journeys.len() < self.cfg.max_journeys {
            self.journeys.push(rec);
        } else {
            self.journeys_dropped += 1;
        }
        // `free` was allocated with capacity for every slot.
        self.free.push(slot as u32);
    }

    /// Finish the capture at `now`: emit the trailing partial window,
    /// flush still-in-flight journeys (in begin order), and return the
    /// artifact. The recorder is left reusable via `restart`.
    pub fn finish_run(&mut self, now: u64, snap: Counters, rob: u64, mshr: u64) -> Timeline {
        self.sample_skipped(now, snap, rob, mshr);
        if now > self.last_sampled {
            self.emit(now, snap, rob, mshr);
        }
        let mut active: Vec<(u64, JourneyRecord)> = self
            .slots
            .iter_mut()
            .filter(|s| s.active)
            .map(|s| {
                s.active = false;
                (s.order, s.rec)
            })
            .collect();
        active.sort_by_key(|(order, _)| *order);
        for (_, rec) in active {
            if self.journeys.len() < self.cfg.max_journeys {
                self.journeys.push(rec);
            } else {
                self.journeys_dropped += 1;
            }
        }
        self.free.clear();
        for i in (0..self.slots.len() as u32).rev() {
            self.free.push(i);
        }
        Timeline {
            window_cycles: self.cfg.window_cycles,
            journey_every: self.cfg.journey_every,
            start_cycle: self.start,
            end_cycle: now,
            windows: std::mem::take(&mut self.windows),
            journeys: std::mem::take(&mut self.journeys),
            windows_dropped: self.windows_dropped,
            journeys_dropped: self.journeys_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(instructions: u64, misses: u64) -> Counters {
        Counters {
            instructions,
            l1d_misses: misses,
            ..Counters::default()
        }
    }

    #[test]
    fn windows_are_deltas_between_snapshots() {
        let mut r = Recorder::new(
            TimelineConfig {
                window_cycles: 100,
                ..TimelineConfig::default()
            },
            1,
        );
        r.restart(1000, snap(50, 5));
        r.sample_at(1100, snap(90, 7), 10, 2);
        r.sample_at(1200, snap(140, 7), 12, 0);
        let t = r.finish_run(1200, snap(140, 7), 12, 0);
        assert_eq!(t.windows.len(), 2);
        assert_eq!(t.windows[0].start_cycle, 1000);
        assert_eq!(t.windows[0].end_cycle, 1100);
        assert_eq!(t.windows[0].counters.instructions, 40);
        assert_eq!(t.windows[0].counters.l1d_misses, 2);
        assert_eq!(t.windows[1].counters.instructions, 50);
        assert_eq!(t.windows[1].counters.l1d_misses, 0);
        assert_eq!(t.windows[1].rob_occupancy, 12);
        assert_eq!(t.start_cycle, 1000);
        assert_eq!(t.end_cycle, 1200);
    }

    #[test]
    fn skipped_boundaries_become_zero_windows() {
        let mut r = Recorder::new(
            TimelineConfig {
                window_cycles: 100,
                ..TimelineConfig::default()
            },
            1,
        );
        r.restart(0, snap(10, 0));
        // Event engine jumped from cycle 5 to cycle 350: boundaries 100,
        // 200, 300 are all strictly before `now`.
        r.sample_skipped(350, snap(25, 1), 3, 1);
        let t = r.finish_run(350, snap(25, 1), 3, 1);
        assert_eq!(t.windows.len(), 4);
        assert_eq!(t.windows[0].counters.instructions, 15);
        assert_eq!(t.windows[1].counters.instructions, 0);
        assert_eq!(t.windows[2].counters.instructions, 0);
        // Trailing partial window [300, 350).
        assert_eq!(t.windows[3].start_cycle, 300);
        assert_eq!(t.windows[3].end_cycle, 350);
        assert_eq!(t.windows[3].counters.instructions, 0);
    }

    #[test]
    fn every_kth_load_is_sampled_deterministically() {
        let cfg = TimelineConfig {
            journey_every: 4,
            ..TimelineConfig::default()
        };
        let mut r = Recorder::new(cfg, 2);
        r.restart(0, Counters::default());
        let mut sampled = Vec::new();
        for i in 0..10 {
            let id = r.begin_load(0, 0x400000 + i, 0x1000 * i, i, 0, false);
            if id != JOURNEY_NONE {
                sampled.push(i);
                r.finish(id, i + 10, 0);
            }
        }
        assert_eq!(sampled, vec![0, 4, 8]);
        // Core 1 has its own ordinal sequence.
        let id = r.begin_load(1, 0x99, 0x99, 50, 2, true);
        assert_ne!(id, JOURNEY_NONE);
        r.finish(id, 60, 3);
        let t = r.finish_run(100, Counters::default(), 0, 0);
        assert_eq!(t.journeys.len(), 4);
        assert_eq!(t.journeys[3].core, 1);
        assert_eq!(t.journeys[3].ordinal, 0);
        assert_eq!(t.journeys[3].offchip_decision, 2);
        assert_eq!(t.journeys[3].offchip_valid, 1);
        assert_eq!(t.journeys[3].served_level, 3);
    }

    #[test]
    fn stale_ids_never_stamp_recycled_slots() {
        let cfg = TimelineConfig {
            journey_every: 1,
            journey_slots: 1,
            ..TimelineConfig::default()
        };
        let mut r = Recorder::new(cfg, 1);
        r.restart(0, Counters::default());
        let a = r.begin_load(0, 1, 1, 10, 0, false);
        r.finish(a, 20, 0);
        let b = r.begin_load(0, 2, 2, 30, 0, false);
        // A late stamp carrying the dead id must not corrupt journey `b`.
        r.stamp(a, Stage::DramQueue, 999);
        r.finish(b, 40, 1);
        let t = r.finish_run(100, Counters::default(), 0, 0);
        assert_eq!(t.journeys.len(), 2);
        assert_eq!(t.journeys[1].dram_queue_at, 0);
    }

    #[test]
    fn restart_invalidates_warmup_journeys_and_resets_ordinals() {
        let cfg = TimelineConfig {
            journey_every: 2,
            ..TimelineConfig::default()
        };
        let mut r = Recorder::new(cfg, 1);
        r.restart(0, Counters::default());
        let warm = r.begin_load(0, 1, 1, 5, 0, false);
        assert_ne!(warm, JOURNEY_NONE);
        r.restart(1000, Counters::default());
        // The warmup id is dead after restart.
        r.stamp(warm, Stage::L1Lookup, 1001);
        r.finish(warm, 1002, 0);
        // Ordinals start over: the first post-restart load is sampled.
        let id = r.begin_load(0, 2, 2, 1005, 0, false);
        assert_ne!(id, JOURNEY_NONE);
        r.finish(id, 1010, 0);
        let t = r.finish_run(2000, Counters::default(), 0, 0);
        assert_eq!(t.journeys.len(), 1);
        assert_eq!(t.journeys[0].pc, 2);
    }

    #[test]
    fn slot_exhaustion_drops_instead_of_allocating() {
        let cfg = TimelineConfig {
            journey_every: 1,
            journey_slots: 2,
            ..TimelineConfig::default()
        };
        let mut r = Recorder::new(cfg, 1);
        r.restart(0, Counters::default());
        let a = r.begin_load(0, 1, 1, 1, 0, false);
        let b = r.begin_load(0, 2, 2, 2, 0, false);
        let c = r.begin_load(0, 3, 3, 3, 0, false);
        assert_ne!(a, JOURNEY_NONE);
        assert_ne!(b, JOURNEY_NONE);
        assert_eq!(c, JOURNEY_NONE);
        let t = r.finish_run(10, Counters::default(), 0, 0);
        assert_eq!(t.journeys_dropped, 1);
        // In-flight journeys flushed in begin order.
        assert_eq!(t.journeys.len(), 2);
        assert_eq!(t.journeys[0].pc, 1);
        assert_eq!(t.journeys[1].pc, 2);
        assert_eq!(t.journeys[0].served_level, JourneyRecord::SERVED_NONE);
    }

    #[test]
    fn window_overflow_is_counted() {
        let cfg = TimelineConfig {
            window_cycles: 10,
            max_windows: 2,
            ..TimelineConfig::default()
        };
        let mut r = Recorder::new(cfg, 1);
        r.restart(0, Counters::default());
        for now in [10u64, 20, 30, 40] {
            r.sample_at(now, Counters::default(), 0, 0);
        }
        let t = r.finish_run(40, Counters::default(), 0, 0);
        assert_eq!(t.windows.len(), 2);
        assert_eq!(t.windows_dropped, 2);
    }

    #[test]
    fn derived_rates_are_integer_milli_units() {
        let w = WindowSample {
            start_cycle: 0,
            end_cycle: 1000,
            counters: Counters {
                instructions: 2500,
                l1d_misses: 25,
                pf_issued: 10,
                pf_useful: 4,
                pf_filtered: 10,
                offchip_issued: 8,
                offchip_accurate: 6,
                offchip_missed: 2,
                dram_reads: 50,
                dram_row_hits: 30,
                dram_row_conflicts: 10,
                ..Counters::default()
            },
            rob_occupancy: 0,
            mshr_occupancy: 0,
        };
        assert_eq!(w.ipc_milli(), 2500);
        assert_eq!(w.l1d_mpki_milli(), 10_000);
        assert_eq!(w.pf_accuracy_milli(), 400);
        assert_eq!(w.filter_drop_milli(), 500);
        assert_eq!(w.offchip_precision_milli(), 750);
        assert_eq!(w.offchip_recall_milli(), 750);
        assert_eq!(w.dram_read_bw_milli(), 50);
        assert_eq!(w.dram_row_hit_milli(), 750);
        // Zero denominators never panic and never divide.
        let z = WindowSample::default();
        assert_eq!(z.ipc_milli(), 0);
        assert_eq!(z.pf_accuracy_milli(), 0);
        assert_eq!(z.dram_row_hit_milli(), 0);
    }

    #[test]
    fn csv_has_header_and_one_line_per_window() {
        let mut r = Recorder::new(
            TimelineConfig {
                window_cycles: 100,
                ..TimelineConfig::default()
            },
            1,
        );
        r.restart(0, Counters::default());
        r.sample_at(100, snap(100, 1), 5, 1);
        let t = r.finish_run(150, snap(120, 2), 0, 0);
        let csv = t.windows_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("start_cycle,end_cycle,instructions"));
        assert!(lines[1].starts_with("0,100,100,1,"));
        assert!(lines[2].starts_with("100,150,20,1,"));
    }
}
