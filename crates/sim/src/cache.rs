//! Set-associative cache with MSHRs, split demand/prefetch queues,
//! non-inclusive fills and per-line prefetch bookkeeping.
//!
//! The engine orchestrates levels explicitly: [`Cache::tick`] drains the
//! input queues and reports hits/misses; the engine routes misses
//! downstream and walks completions back up through [`Cache::fill`].

use std::collections::VecDeque;

use crate::config::CacheConfig;
use crate::replacement::{Lru, ReplCtx, ReplacementPolicy};
use crate::request::{ReqKind, Request};
use crate::stats::CacheStats;
use crate::types::{CoreId, Cycle, Level, LINE_SIZE};

/// State of one cache line.
#[derive(Debug, Clone, Copy)]
struct LineState {
    valid: bool,
    /// Full line address (not just the tag bits; simpler and equivalent).
    line: u64,
    dirty: bool,
    /// Filled by a prefetch and not yet referenced by a demand.
    prefetched: bool,
    pf_useful: bool,
    /// Level that served the prefetch fill.
    pf_served: Level,
    /// True when the prefetch was issued by an L1 prefetcher.
    pf_origin_l1: bool,
    /// Core whose prefetcher issued the fill (for shared-LLC attribution).
    pf_core: CoreId,
}

impl LineState {
    fn empty() -> Self {
        Self {
            valid: false,
            line: 0,
            dirty: false,
            prefetched: false,
            pf_useful: false,
            pf_served: Level::Dram,
            pf_origin_l1: false,
            pf_core: 0,
        }
    }
}

/// A miss-status holding register: one outstanding line with its waiters.
#[derive(Debug)]
struct Mshr {
    line: u64,
    waiters: Vec<Request>,
}

/// A prefetched line that left the cache (or the simulation ended) without
/// being referenced; feeds Figure 5 and the PPF training hooks.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchEviction {
    /// Physical line address (bytes).
    pub paddr: u64,
    /// Level that had served the prefetch.
    pub served: Level,
    /// True if issued by an L1 prefetcher, false for L2 (SPP).
    pub origin_l1: bool,
    /// Core that issued the prefetch.
    pub core: CoreId,
    /// True when the line was referenced by a demand before leaving.
    pub was_useful: bool,
}

/// Everything a [`Cache::tick`] produced, for the engine to route.
#[derive(Debug, Default)]
pub struct TickOutput {
    /// Requests served by this level (hit). `served_from` is set.
    pub hits: Vec<Request>,
    /// Requests that missed and must be forwarded downstream
    /// (an MSHR has been allocated here).
    pub forwards: Vec<Request>,
    /// Accesses observed for prefetcher training: demands at every level,
    /// plus forwarded prefetches at non-origin levels (ChampSim's
    /// `cache_operate` semantics — SPP must see the L1 prefetch stream).
    pub demand_accesses: Vec<(Request, bool)>,
    /// Demand hits on prefetched lines: (paddr, origin_l1, served, core).
    pub pf_useful: Vec<PrefetchEviction>,
    /// Demand misses (paddr) — PPF reject-table training.
    pub demand_misses: Vec<u64>,
    /// Prefetch requests that hit and were therefore dropped.
    pub pf_dropped_hit: u64,
}

impl TickOutput {
    /// Clears every field while keeping allocated capacity — the engine
    /// passes one reusable `TickOutput` to every component tick, so the
    /// steady-state hot loop never reallocates these vectors.
    pub fn clear(&mut self) {
        self.hits.clear();
        self.forwards.clear();
        self.demand_accesses.clear();
        self.pf_useful.clear();
        self.demand_misses.clear();
        self.pf_dropped_hit = 0;
    }
}

/// Result of a [`Cache::fill`].
#[derive(Debug, Default)]
pub struct FillOutput {
    /// Waiters released by the fill; `served_from` is set on each.
    pub waiters: Vec<Request>,
    /// Dirty victim that must be written back downstream (paddr).
    pub writeback: Option<u64>,
    /// Prefetched line evicted by this fill.
    pub evicted_prefetch: Option<PrefetchEviction>,
    /// Line address of any valid victim displaced by this fill (dirty or
    /// clean) — feeds the optional LLC victim cache.
    pub evicted_line: Option<u64>,
}

/// A set-associative, non-inclusive, write-back cache level.
pub struct Cache {
    name: String,
    level: Level,
    cfg: CacheConfig,
    lines: Vec<LineState>,
    repl: Box<dyn ReplacementPolicy>,
    mshrs: Vec<Mshr>,
    demand_q: VecDeque<(Cycle, Request)>,
    prefetch_q: VecDeque<(Cycle, Request)>,
    /// Recycled MSHR waiter buffers: resolved fills return their
    /// (cleared) `Vec<Request>` via [`Cache::recycle_waiters`] and fresh
    /// MSHRs reuse them, so steady-state misses allocate nothing.
    free_waiters: Vec<Vec<Request>>,
    /// Counters.
    pub stats: CacheStats,
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("name", &self.name)
            .field("level", &self.level)
            .field("mshrs_in_use", &self.mshrs.len())
            .finish_non_exhaustive()
    }
}

impl Cache {
    /// Creates a cache level with LRU replacement.
    #[must_use]
    pub fn new(name: impl Into<String>, level: Level, cfg: CacheConfig) -> Self {
        let repl = Box::new(Lru::new(cfg.sets, cfg.ways));
        Self::with_replacement(name, level, cfg, repl)
    }

    /// Creates a cache level with an explicit replacement policy.
    #[must_use]
    pub fn with_replacement(
        name: impl Into<String>,
        level: Level,
        cfg: CacheConfig,
        repl: Box<dyn ReplacementPolicy>,
    ) -> Self {
        Self {
            name: name.into(),
            level,
            cfg,
            lines: vec![LineState::empty(); cfg.sets * cfg.ways],
            repl,
            mshrs: Vec::with_capacity(cfg.mshrs),
            demand_q: VecDeque::new(),
            prefetch_q: VecDeque::new(),
            free_waiters: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The level this cache sits at.
    #[must_use]
    pub fn level(&self) -> Level {
        self.level
    }

    /// The cache's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line % self.cfg.sets as u64) as usize
    }

    fn way_of(&self, line: u64) -> Option<usize> {
        let set = self.set_of(line);
        let base = set * self.cfg.ways;
        (0..self.cfg.ways).find(|&w| {
            let l = &self.lines[base + w];
            l.valid && l.line == line
        })
    }

    /// True when `paddr`'s line is present.
    #[must_use]
    pub fn probe(&self, paddr: u64) -> bool {
        self.way_of(paddr / LINE_SIZE).is_some()
    }

    /// True when an MSHR is outstanding for `paddr`'s line.
    #[must_use]
    pub fn has_mshr(&self, paddr: u64) -> bool {
        let line = paddr / LINE_SIZE;
        self.mshrs.iter().any(|m| m.line == line)
    }

    /// Number of MSHRs in use.
    #[must_use]
    pub fn mshrs_in_use(&self) -> usize {
        self.mshrs.len()
    }

    /// Queue a demand (load/RFO) or writeback-driven access arriving `now`;
    /// it becomes visible after the lookup latency.
    pub fn push_demand(&mut self, req: Request, now: Cycle) {
        self.demand_q.push_back((now + self.cfg.latency, req));
    }

    /// Queue a prefetch request. Returns false (dropping the request) when
    /// the prefetch queue is full.
    pub fn push_prefetch(&mut self, req: Request, now: Cycle) -> bool {
        if self.prefetch_q.len() >= self.cfg.prefetch_queue {
            return false;
        }
        self.prefetch_q.push_back((now + self.cfg.latency, req));
        true
    }

    /// Processes all ready queue entries for this cycle. Allocating
    /// convenience wrapper around [`Cache::tick_into`] for tests and
    /// simple callers.
    pub fn tick(&mut self, now: Cycle) -> TickOutput {
        let mut out = TickOutput::default();
        self.tick_into(now, &mut out);
        out
    }

    /// Processes all ready queue entries for this cycle, appending to
    /// `out`. The engine passes one cleared, reusable scratch buffer so
    /// the per-cycle path never allocates here.
    pub fn tick_into(&mut self, now: Cycle, out: &mut TickOutput) {
        // Demands first, then prefetches, mirroring ChampSim's priority.
        self.drain_queue(now, /*demand=*/ true, out);
        self.drain_queue(now, /*demand=*/ false, out);
    }

    fn drain_queue(&mut self, now: Cycle, demand: bool, out: &mut TickOutput) {
        loop {
            let q = if demand {
                &mut self.demand_q
            } else {
                &mut self.prefetch_q
            };
            let Some(&(ready, _)) = q.front() else { break };
            if ready > now {
                break;
            }
            // Pop-then-commit: on MSHR exhaustion the lookup hands the
            // request back and it returns to the queue front for a retry
            // next cycle — head-of-line order preserved, nothing cloned.
            let (_, req) = q.pop_front().expect("checked nonempty");
            if let Err(req) = self.lookup(req, now, out) {
                self.stats.mshr_stalls += 1;
                let q = if demand {
                    &mut self.demand_q
                } else {
                    &mut self.prefetch_q
                };
                q.push_front((ready, req));
                break;
            }
        }
    }

    /// Looks up one request. Hands the request back (`Err`) when it could
    /// not be handled this cycle (MSHR pressure) and must be retried.
    #[allow(clippy::result_large_err)] // by-value retry handback, no boxing
    fn lookup(
        &mut self,
        mut req: Request,
        _now: Cycle,
        out: &mut TickOutput,
    ) -> Result<(), Request> {
        let line = req.line();
        let set = self.set_of(line);
        let is_demand = req.kind.is_demand();
        // A prefetch is "at its origin" in the cache level that issued it;
        // only there does a hit mean the prefetch is redundant. Forwarded
        // prefetches that hit at a lower level must respond upstream to
        // resolve the origin's MSHR.
        let at_origin = match req.kind {
            ReqKind::PrefetchL1 { .. } => self.level == Level::L1d,
            ReqKind::PrefetchL2 { .. } => self.level == Level::L2,
            _ => false,
        };
        if let Some(way) = self.way_of(line) {
            // Hit.
            self.repl
                .on_access_ctx(set, way, &ReplCtx { line, pc: req.pc });
            let l = &mut self.lines[set * self.cfg.ways + way];
            if is_demand {
                self.stats.demand_hits += 1;
                if req.kind == ReqKind::Rfo {
                    l.dirty = true;
                }
                if l.prefetched && !l.pf_useful {
                    l.pf_useful = true;
                    self.stats.prefetch_useful += 1;
                    out.pf_useful.push(PrefetchEviction {
                        paddr: line * LINE_SIZE,
                        served: l.pf_served,
                        origin_l1: l.pf_origin_l1,
                        core: l.pf_core,
                        was_useful: true,
                    });
                }
                req.served_from = Some(self.level);
                out.demand_accesses.push((req.clone(), true));
                out.hits.push(req);
            } else if at_origin {
                // Redundant prefetch: dropped silently.
                self.stats.prefetch_hits += 1;
                out.pf_dropped_hit += 1;
            } else {
                // Forwarded prefetch served here: respond upstream.
                self.stats.prefetch_hits += 1;
                req.served_from = Some(self.level);
                out.demand_accesses.push((req.clone(), true));
                out.hits.push(req);
            }
            return Ok(());
        }
        // Miss. Merge into an existing MSHR when possible. A merged request
        // did not initiate any downstream traffic — it is effectively
        // served by this level (this is the label off-chip predictors and
        // prefetch filters train on: "did this access require a new DRAM
        // transaction?").
        if let Some(m) = self.mshrs.iter_mut().find(|m| m.line == line) {
            if req.served_from.is_none() {
                req.served_from = Some(self.level);
            }
            if is_demand {
                self.stats.demand_misses += 1;
                out.demand_accesses.push((req.clone(), false));
                out.demand_misses.push(line * LINE_SIZE);
            } else {
                self.stats.prefetch_misses += 1;
                if !at_origin {
                    out.demand_accesses.push((req.clone(), false));
                }
            }
            m.waiters.push(req);
            return Ok(());
        }
        // Need a fresh MSHR.
        if self.mshrs.len() >= self.cfg.mshrs {
            return Err(req);
        }
        if is_demand {
            self.stats.demand_misses += 1;
            out.demand_accesses.push((req.clone(), false));
            out.demand_misses.push(line * LINE_SIZE);
        } else {
            self.stats.prefetch_misses += 1;
            if !at_origin {
                out.demand_accesses.push((req.clone(), false));
            }
        }
        let mut waiters = self.free_waiters.pop().unwrap_or_default();
        waiters.push(req.clone());
        self.mshrs.push(Mshr { line, waiters });
        out.forwards.push(req);
        Ok(())
    }

    /// Returns a consumed fill's waiter buffer to the MSHR freelist. The
    /// engine calls this after routing a [`FillOutput`]'s waiters so the
    /// next MSHR allocation reuses the capacity instead of allocating.
    pub fn recycle_waiters(&mut self, mut v: Vec<Request>) {
        if v.capacity() > 0 && self.free_waiters.len() < self.cfg.mshrs.max(8) {
            v.clear();
            self.free_waiters.push(v);
        }
    }

    /// Data for `line` arrived from downstream (`served_from` = providing
    /// level). Resolves the MSHR, inserts the line when a waiter wants a
    /// fill at this level, and releases the waiters.
    pub fn fill(&mut self, line: u64, served_from: Level, _now: Cycle) -> FillOutput {
        let mut out = FillOutput::default();
        let Some(pos) = self.mshrs.iter().position(|m| m.line == line) else {
            return out;
        };
        let mshr = self.mshrs.swap_remove(pos);
        let my_rank = self.level.index();
        let wants_fill = mshr
            .waiters
            .iter()
            .any(|w| w.kind.fill_level().index() <= my_rank);
        let any_demand = mshr.waiters.iter().any(|w| w.kind.is_demand());
        let make_dirty =
            mshr.waiters.iter().any(|w| w.kind == ReqKind::Rfo) && self.level == Level::L1d;
        if wants_fill {
            let pf_meta = if any_demand {
                None
            } else {
                mshr.waiters
                    .iter()
                    .find(|w| w.kind.is_prefetch())
                    .map(|w| (matches!(w.kind, ReqKind::PrefetchL1 { .. }), w.core))
            };
            // The filling PC (for signature-based replacement): prefer the
            // first demand waiter's PC.
            let fill_pc = mshr
                .waiters
                .iter()
                .find(|w| w.kind.is_demand())
                .or_else(|| mshr.waiters.first())
                .map_or(0, |w| w.pc);
            let (wb, ev, victim_line) =
                self.insert(line, served_from, make_dirty, pf_meta, fill_pc);
            out.writeback = wb;
            out.evicted_prefetch = ev;
            out.evicted_line = victim_line;
            if pf_meta.is_some() {
                self.stats.prefetch_fills += 1;
            }
        }
        out.waiters = mshr.waiters;
        for w in &mut out.waiters {
            if w.served_from.is_none() {
                w.served_from = Some(served_from);
            }
        }
        out
    }

    /// Inserts `line`; returns (writeback paddr, evicted-prefetch event,
    /// victim line address).
    fn insert(
        &mut self,
        line: u64,
        served_from: Level,
        dirty: bool,
        pf_meta: Option<(bool, CoreId)>,
        fill_pc: u64,
    ) -> (Option<u64>, Option<PrefetchEviction>, Option<u64>) {
        let set = self.set_of(line);
        let base = set * self.cfg.ways;
        let way = (0..self.cfg.ways)
            .find(|&w| !self.lines[base + w].valid)
            .unwrap_or_else(|| self.repl.victim(set, self.cfg.ways));
        let victim = self.lines[base + way];
        let mut writeback = None;
        let mut evicted = None;
        let mut victim_line = None;
        if victim.valid {
            victim_line = Some(victim.line);
            if victim.dirty {
                self.stats.writebacks += 1;
                writeback = Some(victim.line * LINE_SIZE);
            }
            if victim.prefetched && !victim.pf_useful {
                self.stats.prefetch_useless += 1;
                evicted = Some(PrefetchEviction {
                    paddr: victim.line * LINE_SIZE,
                    served: victim.pf_served,
                    origin_l1: victim.pf_origin_l1,
                    core: victim.pf_core,
                    was_useful: false,
                });
            }
        }
        self.lines[base + way] = LineState {
            valid: true,
            line,
            dirty,
            prefetched: pf_meta.is_some(),
            pf_useful: false,
            pf_served: served_from,
            pf_origin_l1: pf_meta.is_some_and(|(l1, _)| l1),
            pf_core: pf_meta.map_or(0, |(_, c)| c),
        };
        self.repl
            .on_fill_ctx(set, way, &ReplCtx { line, pc: fill_pc });
        (writeback, evicted, victim_line)
    }

    /// A writeback from upstream arrives with data: update in place on hit,
    /// otherwise insert the (dirty) line. Returns any cascaded writeback,
    /// prefetch eviction and victim line (waiters are always empty).
    pub fn writeback_arrive(&mut self, paddr: u64) -> FillOutput {
        let line = paddr / LINE_SIZE;
        if let Some(way) = self.way_of(line) {
            let set = self.set_of(line);
            self.repl.on_access(set, way);
            self.lines[set * self.cfg.ways + way].dirty = true;
            return FillOutput::default();
        }
        let (writeback, evicted_prefetch, evicted_line) =
            self.insert(line, Level::Dram, true, None, 0);
        FillOutput {
            waiters: Vec::new(),
            writeback,
            evicted_prefetch,
            evicted_line,
        }
    }

    /// Direct store hit attempt (L1D write path). Returns true when the
    /// line was present and marked dirty; false means an RFO is needed.
    pub fn store_hit(&mut self, paddr: u64) -> bool {
        let line = paddr / LINE_SIZE;
        if let Some(way) = self.way_of(line) {
            let set = self.set_of(line);
            self.repl.on_access(set, way);
            let l = &mut self.lines[set * self.cfg.ways + way];
            l.dirty = true;
            if l.prefetched && !l.pf_useful {
                l.pf_useful = true;
                self.stats.prefetch_useful += 1;
            }
            self.stats.demand_hits += 1;
            return true;
        }
        false
    }

    /// Forgets the prefetch provenance of every resident line. Called at
    /// the warmup/measurement boundary so that only prefetches filled
    /// inside the measured window can produce useful/useless outcomes.
    pub fn clear_prefetch_marks(&mut self) {
        for l in &mut self.lines {
            l.prefetched = false;
            l.pf_useful = false;
        }
    }

    /// Sweeps the array at end of simulation, reporting prefetched-but-
    /// never-used lines (they count as useless in Figures 5/12).
    pub fn drain_prefetch_residue(&mut self) -> Vec<PrefetchEviction> {
        let mut out = Vec::new();
        for l in &mut self.lines {
            if l.valid && l.prefetched && !l.pf_useful {
                self.stats.prefetch_useless += 1;
                out.push(PrefetchEviction {
                    paddr: l.line * LINE_SIZE,
                    served: l.pf_served,
                    origin_l1: l.pf_origin_l1,
                    core: l.pf_core,
                    was_useful: false,
                });
                l.prefetched = false;
            }
        }
        out
    }

    /// Number of pending queue entries (for quiescence detection).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.demand_q.len() + self.prefetch_q.len() + self.mshrs.len()
    }

    /// Queued demand accesses waiting out the lookup latency (or an MSHR
    /// stall), for deadlock diagnostics.
    #[must_use]
    pub fn demand_queue_len(&self) -> usize {
        self.demand_q.len()
    }

    /// Queued prefetch requests, for deadlock diagnostics.
    #[must_use]
    pub fn prefetch_queue_len(&self) -> usize {
        self.prefetch_q.len()
    }

    /// Conservative wake-up time for the event engine: the earliest cycle
    /// at which [`Cache::tick`] could process a queue entry. Each queue
    /// serves its front entry first (head-of-line order is part of the
    /// model), so the wake-up is the earlier of the two front ready
    /// times; a front entry stalled on MSHR pressure has a ready time in
    /// the past and retries every cycle. `None` means both queues are
    /// empty — outstanding MSHRs alone need no ticking, they resolve via
    /// [`Cache::fill`] when downstream data arrives.
    #[must_use]
    pub fn next_ready(&self) -> Option<Cycle> {
        let d = self.demand_q.front().map(|&(ready, _)| ready);
        let p = self.prefetch_q.front().map(|&(ready, _)| ready);
        match (d, p) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::hooks::OffChipTag;

    fn cache() -> Cache {
        let cfg = SystemConfig::test_tiny(1);
        Cache::new("L1D", Level::L1d, cfg.l1d)
    }

    fn load(id: u64, paddr: u64) -> Request {
        Request::demand_load(id, 0, 0x400, paddr, paddr, id, OffChipTag::none(), 0)
    }

    fn run_tick(c: &mut Cache, reqs: Vec<Request>, now: Cycle) -> TickOutput {
        for r in reqs {
            c.push_demand(r, now);
        }
        c.tick(now + 100)
    }

    #[test]
    fn cold_miss_allocates_mshr_and_forwards() {
        let mut c = cache();
        let out = run_tick(&mut c, vec![load(1, 0x1000)], 0);
        assert_eq!(out.forwards.len(), 1);
        assert_eq!(c.stats.demand_misses, 1);
        assert!(c.has_mshr(0x1000));
        assert_eq!(c.mshrs_in_use(), 1);
    }

    #[test]
    fn same_line_merges_into_mshr() {
        let mut c = cache();
        let out = run_tick(&mut c, vec![load(1, 0x1000), load(2, 0x1008)], 0);
        assert_eq!(out.forwards.len(), 1, "second miss should merge");
        assert_eq!(c.stats.demand_misses, 2);
        assert_eq!(c.mshrs_in_use(), 1);
    }

    #[test]
    fn fill_releases_all_waiters_and_inserts() {
        let mut c = cache();
        run_tick(&mut c, vec![load(1, 0x1000), load(2, 0x1010)], 0);
        let fill = c.fill(0x1000 / LINE_SIZE, Level::Dram, 50);
        assert_eq!(fill.waiters.len(), 2);
        // The MSHR creator is served by DRAM; the merged request initiated
        // no downstream traffic, so it is labeled as served by this level.
        assert_eq!(fill.waiters[0].served_from, Some(Level::Dram));
        assert_eq!(fill.waiters[1].served_from, Some(Level::L1d));
        assert!(c.probe(0x1000));
        assert_eq!(c.mshrs_in_use(), 0);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = cache();
        run_tick(&mut c, vec![load(1, 0x1000)], 0);
        c.fill(0x1000 / LINE_SIZE, Level::Dram, 50);
        let out = run_tick(&mut c, vec![load(3, 0x1020)], 100);
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].served_from, Some(Level::L1d));
        assert_eq!(c.stats.demand_hits, 1);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut c = cache(); // 10 MSHRs in test_tiny's L1D
        let reqs: Vec<Request> = (0..12).map(|i| load(i, 0x10_000 + i * 64)).collect();
        let out = run_tick(&mut c, reqs, 0);
        assert_eq!(out.forwards.len(), 10);
        assert_eq!(c.mshrs_in_use(), 10);
        assert!(c.stats.mshr_stalls > 0);
        assert_eq!(c.pending(), 10 + 2, "two requests remain queued");
        // Fill one line; the stalled requests proceed next tick.
        c.fill(0x10_000 / LINE_SIZE, Level::Dram, 200);
        let out2 = c.tick(300);
        assert_eq!(out2.forwards.len(), 1);
    }

    #[test]
    fn eviction_writes_back_dirty_victim() {
        let mut c = cache(); // 8 sets, 2 ways
                             // Two lines in the same set, both dirtied via RFO fills.
        let s0 = 0u64;
        let line = |i: u64| (s0 + i * 8) * LINE_SIZE; // same set each 8 lines (8 sets)
        for (i, id) in [(0u64, 1u64), (1, 2)] {
            let mut r = Request::rfo(id, 0, 0, line(i), line(i), 0);
            r.served_from = None;
            c.push_demand(r, 0);
        }
        c.tick(100);
        c.fill(line(0) / LINE_SIZE, Level::Dram, 100);
        c.fill(line(1) / LINE_SIZE, Level::Dram, 100);
        // Third line maps to the same set: evicts the LRU dirty line.
        let mut r = Request::rfo(3, 0, 0, line(2), line(2), 200);
        r.served_from = None;
        c.push_demand(r, 200);
        c.tick(300);
        let fill = c.fill(line(2) / LINE_SIZE, Level::Dram, 300);
        assert_eq!(fill.writeback, Some(line(0)), "LRU dirty line written back");
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn prefetch_hit_is_dropped() {
        let mut c = cache();
        run_tick(&mut c, vec![load(1, 0x1000)], 0);
        c.fill(0x1000 / LINE_SIZE, Level::Dram, 50);
        let mut pf = load(9, 0x1000);
        pf.kind = ReqKind::PrefetchL1 { fill_l1: true };
        assert!(c.push_prefetch(pf, 100));
        let out = c.tick(200);
        assert_eq!(out.pf_dropped_hit, 1);
        assert!(out.hits.is_empty());
    }

    #[test]
    fn prefetch_fill_then_demand_hit_marks_useful() {
        let mut c = cache();
        let mut pf = load(9, 0x2000);
        pf.kind = ReqKind::PrefetchL1 { fill_l1: true };
        pf.lq_seq = None;
        c.push_prefetch(pf, 0);
        let out = c.tick(100);
        assert_eq!(out.forwards.len(), 1);
        c.fill(0x2000 / LINE_SIZE, Level::Dram, 100);
        assert_eq!(c.stats.prefetch_fills, 1);
        let out = run_tick(&mut c, vec![load(10, 0x2008)], 200);
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.pf_useful.len(), 1);
        assert_eq!(out.pf_useful[0].served, Level::Dram);
        assert!(out.pf_useful[0].origin_l1);
        assert_eq!(c.stats.prefetch_useful, 1);
    }

    #[test]
    fn unused_prefetch_counts_useless_on_drain() {
        let mut c = cache();
        let mut pf = load(9, 0x2000);
        pf.kind = ReqKind::PrefetchL1 { fill_l1: true };
        c.push_prefetch(pf, 0);
        c.tick(100);
        c.fill(0x2000 / LINE_SIZE, Level::Llc, 100);
        let residue = c.drain_prefetch_residue();
        assert_eq!(residue.len(), 1);
        assert_eq!(residue[0].served, Level::Llc);
        assert_eq!(c.stats.prefetch_useless, 1);
    }

    #[test]
    fn l2_fill_skipped_for_llc_only_prefetch() {
        let cfg = SystemConfig::test_tiny(1);
        let mut l2 = Cache::new("L2", Level::L2, cfg.l2);
        let mut pf = load(9, 0x3000);
        pf.kind = ReqKind::PrefetchL2 {
            fill_llc_only: true,
        };
        l2.push_prefetch(pf, 0);
        let out = l2.tick(100);
        assert_eq!(out.forwards.len(), 1);
        let fill = l2.fill(0x3000 / LINE_SIZE, Level::Dram, 200);
        assert_eq!(fill.waiters.len(), 1);
        assert!(!l2.probe(0x3000), "LLC-only prefetch must not fill L2");
    }

    #[test]
    fn demand_merge_upgrades_prefetch_fill() {
        let mut c = cache();
        let mut pf = load(9, 0x4000);
        pf.kind = ReqKind::PrefetchL1 { fill_l1: false };
        c.push_prefetch(pf, 0);
        c.tick(100);
        // A demand merges into the prefetch MSHR.
        c.push_demand(load(10, 0x4000), 150);
        c.tick(250);
        let fill = c.fill(0x4000 / LINE_SIZE, Level::Dram, 300);
        assert_eq!(fill.waiters.len(), 2);
        assert!(c.probe(0x4000), "demand waiter forces the L1 fill");
    }

    #[test]
    fn writeback_arrival_inserts_dirty() {
        let cfg = SystemConfig::test_tiny(1);
        let mut l2 = Cache::new("L2", Level::L2, cfg.l2);
        let out = l2.writeback_arrive(0x8000);
        assert_eq!(out.writeback, None);
        assert!(l2.probe(0x8000));
        // Hitting it again just refreshes.
        let out2 = l2.writeback_arrive(0x8000);
        assert_eq!(out2.writeback, None);
        assert_eq!(out2.evicted_line, None);
    }

    #[test]
    fn fill_reports_clean_victim_line() {
        let mut c = cache(); // 8 sets, 2 ways
        let line = |i: u64| i * 8 * LINE_SIZE; // all in set 0
        for i in 0..2u64 {
            run_tick(&mut c, vec![load(i, line(i))], 0);
            c.fill(line(i) / LINE_SIZE, Level::Dram, 50);
        }
        // Third fill in the same set displaces a clean line.
        run_tick(&mut c, vec![load(9, line(2))], 100);
        let fill = c.fill(line(2) / LINE_SIZE, Level::Dram, 150);
        assert_eq!(fill.writeback, None, "clean victim: no writeback");
        assert_eq!(fill.evicted_line, Some(0), "victim line must be reported");
    }

    #[test]
    fn store_hit_dirties_line() {
        let mut c = cache();
        run_tick(&mut c, vec![load(1, 0x1000)], 0);
        c.fill(0x1000 / LINE_SIZE, Level::Dram, 50);
        assert!(c.store_hit(0x1008));
        assert!(!c.store_hit(0x0999_9000), "store to absent line must miss");
    }
}
