//! Banked DRAM controller with FR-FCFS scheduling, an explicitly-occupied
//! data bus (the bandwidth knob of Figure 16), and the DDRP buffer that
//! holds completed speculative fills for Hermes-style predictors.

use std::collections::VecDeque;

use crate::config::DramConfig;
use crate::request::{ReqKind, Request, NO_JOURNEY};
use crate::stats::DramStats;
use crate::types::{CoreId, Cycle, LINE_SIZE};

/// One in-flight or queued DRAM transaction.
#[derive(Debug)]
struct Txn {
    line: u64,
    core: CoreId,
    is_write: bool,
    is_spec: bool,
    /// Bank index, fixed by the line address. Computed once at enqueue:
    /// the FR-FCFS scan revisits every queued transaction every cycle,
    /// and `line % banks` / row division there would put two integer
    /// divisions per entry in the per-tick path.
    bank: usize,
    /// Row index, fixed by the line address (see `bank`).
    row: u64,
    /// Demand/prefetch requests waiting on this transaction.
    waiters: Vec<Request>,
    /// Completion cycle once scheduled.
    done_at: Option<Cycle>,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Cycle,
}

/// A completed speculative fill waiting to be claimed by its demand.
#[derive(Debug, Clone, Copy)]
struct DdrpEntry {
    line: u64,
    core: CoreId,
}

/// The DRAM controller.
pub struct Dram {
    cfg: DramConfig,
    burst: Cycle,
    read_q: VecDeque<Txn>,
    write_q: VecDeque<Txn>,
    in_flight: Vec<Txn>,
    banks: Vec<Bank>,
    bus_free_at: Cycle,
    /// Earliest `done_at` across `in_flight` (`Cycle::MAX` when empty):
    /// lets the completion scan be skipped on the many cycles where
    /// nothing can finish. Exact, not conservative — pushed down on
    /// issue, recomputed after completions are harvested.
    earliest_done: Cycle,
    ddrp: VecDeque<DdrpEntry>,
    draining_writes: bool,
    /// Recycled waiter buffers: completed transactions return their
    /// (cleared) `Vec<Request>` here and new read transactions reuse
    /// them, so a warmed-up controller allocates nothing per tick.
    free_waiters: Vec<Vec<Request>>,
    /// Bank-service timestamps for timeline-sampled waiters, drained by
    /// the engine each tick. Preallocated; overflow marks are dropped
    /// (journeys then simply miss their bank stamp).
    journey_marks: Vec<(u32, Cycle)>,
    /// Counters.
    pub stats: DramStats,
}

/// Bound on undrained journey marks. The engine drains every tick, so in
/// practice this holds one tick's worth of newly scheduled sampled reads.
const JOURNEY_MARKS_CAP: usize = 128;

/// Freelist bound: enough for every read-queue slot plus in-flight
/// transactions at realistic configs; beyond it buffers are dropped.
const FREE_WAITERS_CAP: usize = 128;

impl std::fmt::Debug for Dram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dram")
            .field("read_q", &self.read_q.len())
            .field("write_q", &self.write_q.len())
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

impl Dram {
    /// Creates a controller from its configuration.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        Self {
            burst: cfg.burst_cycles(),
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            in_flight: Vec::new(),
            banks: vec![
                Bank {
                    open_row: None,
                    busy_until: 0,
                };
                cfg.banks
            ],
            bus_free_at: 0,
            earliest_done: Cycle::MAX,
            ddrp: VecDeque::new(),
            draining_writes: false,
            free_waiters: Vec::new(),
            journey_marks: Vec::with_capacity(JOURNEY_MARKS_CAP),
            cfg,
            stats: DramStats::default(),
        }
    }

    /// Bus occupancy per transaction in cycles.
    #[must_use]
    pub fn burst_cycles(&self) -> Cycle {
        self.burst
    }

    fn bank_of(&self, line: u64) -> usize {
        (line % self.cfg.banks as u64) as usize
    }

    fn row_of(&self, line: u64) -> u64 {
        line * LINE_SIZE / self.cfg.row_bytes
    }

    /// Enqueues a demand/prefetch read. If a transaction (including a
    /// speculative one) for the same line is already queued or in flight,
    /// the request merges into it — this is how a demand "catches up with"
    /// its Hermes speculative request. When the read queue is full the
    /// request is handed back unchanged (`Err`), so the caller retries
    /// next cycle by moving the same value — no clone on the retry path.
    // The large Err is the point: the rejected request moves back to the
    // caller's retry queue by value. Boxing would put the retry storm on
    // the allocator, which tests/zero_alloc.rs forbids.
    #[allow(clippy::result_large_err)]
    pub fn push_read(&mut self, req: Request) -> Result<(), Request> {
        let line = req.line();
        let core = req.core;
        for t in self.in_flight.iter_mut().chain(self.read_q.iter_mut()) {
            if !t.is_write && t.line == line && t.core == core {
                if t.is_spec {
                    self.stats.spec_consumed += 1;
                    t.is_spec = false; // now carries a real demand
                }
                t.waiters.push(req);
                return Ok(());
            }
        }
        if self.read_q.len() >= self.cfg.read_queue {
            self.stats.read_queue_full += 1;
            return Err(req);
        }
        self.stats.reads += 1;
        let mut waiters = self.free_waiters.pop().unwrap_or_default();
        waiters.push(req);
        self.read_q.push_back(Txn {
            line,
            core,
            is_write: false,
            is_spec: false,
            bank: self.bank_of(line),
            row: self.row_of(line),
            waiters,
            done_at: None,
        });
        Ok(())
    }

    /// Enqueues a speculative (off-chip predictor) read. Handed back
    /// (`Err`) when the read queue is full or a transaction for the line
    /// already exists (the spec request would be redundant) — callers
    /// that don't retry simply drop the returned request.
    #[allow(clippy::result_large_err)] // by-value handback, see push_read
    pub fn push_speculative(&mut self, req: Request) -> Result<(), Request> {
        debug_assert_eq!(req.kind, ReqKind::Speculative);
        let line = req.line();
        let exists = self
            .in_flight
            .iter()
            .chain(self.read_q.iter())
            .any(|t| !t.is_write && t.line == line && t.core == req.core)
            || self
                .ddrp
                .iter()
                .any(|e| e.line == line && e.core == req.core);
        if exists {
            return Err(req);
        }
        if self.read_q.len() >= self.cfg.read_queue {
            self.stats.spec_dropped += 1;
            return Err(req);
        }
        self.stats.spec_reads += 1;
        self.read_q.push_back(Txn {
            line,
            core: req.core,
            is_write: false,
            is_spec: true,
            bank: self.bank_of(line),
            row: self.row_of(line),
            waiters: Vec::new(),
            done_at: None,
        });
        Ok(())
    }

    /// Enqueues a writeback. Returns false when the write queue is full.
    pub fn push_write(&mut self, paddr: u64, core: CoreId) -> bool {
        if self.write_q.len() >= self.cfg.write_queue {
            return false;
        }
        self.stats.writes += 1;
        let line = paddr / LINE_SIZE;
        self.write_q.push_back(Txn {
            line,
            core,
            is_write: true,
            is_spec: false,
            bank: self.bank_of(line),
            row: self.row_of(line),
            waiters: Vec::new(),
            done_at: None,
        });
        true
    }

    /// Claims a completed speculative fill for (`core`, line of `paddr`).
    /// Returns true when the DDRP buffer had the line — the caller treats
    /// the demand as served by DRAM with zero additional latency and no new
    /// transaction.
    pub fn take_ddrp(&mut self, core: CoreId, paddr: u64) -> bool {
        let line = paddr / LINE_SIZE;
        if let Some(pos) = self
            .ddrp
            .iter()
            .position(|e| e.line == line && e.core == core)
        {
            self.ddrp.remove(pos);
            self.stats.spec_consumed += 1;
            return true;
        }
        false
    }

    /// Advances the controller one cycle; returns requests whose data is
    /// now available. Allocating convenience wrapper around
    /// [`Dram::tick_into`] for tests and simple callers.
    pub fn tick(&mut self, now: Cycle) -> Vec<Request> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// Advances the controller one cycle, appending requests whose data
    /// is now available to `done` (in-flight spec fills park in the DDRP
    /// buffer instead). Completed transactions return their waiter
    /// buffers to the freelist, so the warmed-up hot loop is
    /// allocation-free.
    pub fn tick_into(&mut self, now: Cycle, done: &mut Vec<Request>) {
        self.schedule(now);
        // Nothing in flight can have finished yet: skip the scan.
        if self.earliest_done > now {
            return;
        }
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].done_at.is_some_and(|d| d <= now) {
                let mut t = self.in_flight.swap_remove(i);
                if t.is_spec {
                    if self.ddrp.len() >= self.cfg.ddrp_buffer {
                        self.ddrp.pop_front();
                        self.stats.spec_wasted += 1;
                    }
                    self.ddrp.push_back(DdrpEntry {
                        line: t.line,
                        core: t.core,
                    });
                } else {
                    done.append(&mut t.waiters);
                }
                self.recycle_waiters(t.waiters);
            } else {
                i += 1;
            }
        }
        self.earliest_done = self
            .in_flight
            .iter()
            .filter_map(|t| t.done_at)
            .min()
            .unwrap_or(Cycle::MAX);
    }

    /// Returns a consumed waiter buffer to the freelist. Zero-capacity
    /// buffers (spec/write transactions never gained a waiter) carry
    /// nothing worth keeping and are dropped.
    fn recycle_waiters(&mut self, mut v: Vec<Request>) {
        if v.capacity() > 0 && self.free_waiters.len() < FREE_WAITERS_CAP {
            v.clear();
            self.free_waiters.push(v);
        }
    }

    /// FR-FCFS with write draining: writes are serviced in bursts when the
    /// write queue fills up (or reads are absent), reads otherwise; within
    /// a queue, row-buffer hits go first, then the oldest entry.
    fn schedule(&mut self, now: Cycle) {
        // Hysteresis for write draining.
        if self.write_q.len() * 4 >= self.cfg.write_queue * 3 {
            self.draining_writes = true;
        }
        if self.write_q.is_empty() || self.write_q.len() * 4 <= self.cfg.write_queue {
            self.draining_writes = false;
        }
        // Issue at most one transaction per cycle (one command bus).
        let from_writes = self.draining_writes || self.read_q.is_empty();
        let q = if from_writes {
            &mut self.write_q
        } else {
            &mut self.read_q
        };
        if q.is_empty() {
            return;
        }
        // With every bank busy no entry is schedulable; the FR-FCFS scan
        // below would walk the whole queue to pick nothing.
        if !self.banks.iter().any(|b| b.busy_until <= now) {
            return;
        }
        // FR-FCFS pick: first row hit on a free bank, else oldest on a free
        // bank.
        let mut pick: Option<usize> = None;
        for (i, t) in q.iter().enumerate() {
            if self.banks[t.bank].busy_until > now {
                continue;
            }
            if self.banks[t.bank].open_row == Some(t.row) {
                pick = Some(i);
                break;
            }
            if pick.is_none() {
                pick = Some(i);
            }
        }
        let Some(idx) = pick else { return };
        let mut t = q.remove(idx).expect("index valid");
        let bank_idx = t.bank;
        let row = t.row;
        let bank = &mut self.banks[bank_idx];
        let start = now.max(bank.busy_until);
        let access = match bank.open_row {
            Some(r) if r == row => {
                self.stats.row_hits += 1;
                self.cfg.t_cas
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
            }
            None => self.cfg.t_rcd + self.cfg.t_cas,
        };
        bank.open_row = Some(row);
        // Timeline: the bank begins servicing this transaction at `start`.
        for w in &t.waiters {
            if w.journey != NO_JOURNEY && self.journey_marks.len() < JOURNEY_MARKS_CAP {
                self.journey_marks.push((w.journey, start));
            }
        }
        let data_ready = start + access;
        let xfer_start = data_ready.max(self.bus_free_at);
        let done = xfer_start + self.burst;
        self.bus_free_at = done;
        bank.busy_until = data_ready;
        t.done_at = Some(done);
        self.earliest_done = self.earliest_done.min(done);
        self.in_flight.push(t);
    }

    /// Drain one (journey id, bank-service-start cycle) mark recorded by
    /// the scheduler. The engine pulls these every tick and forwards them
    /// to the timeline recorder.
    #[inline]
    pub fn pop_journey_mark(&mut self) -> Option<(u32, Cycle)> {
        self.journey_marks.pop()
    }

    /// Outstanding work (for quiescence checks).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.read_q.len() + self.write_q.len() + self.in_flight.len()
    }

    /// Queued reads not yet issued to a bank (deadlock diagnostics).
    #[must_use]
    pub fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    /// Queued writebacks not yet issued to a bank (deadlock diagnostics).
    #[must_use]
    pub fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    /// Transactions issued to a bank and awaiting completion.
    #[must_use]
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Conservative wake-up time for the event engine: the earliest
    /// future cycle at which [`Dram::tick`] could change state. Queued
    /// transactions contend for the command bus every cycle (the FR-FCFS
    /// pick depends on bank state, so the controller must be consulted
    /// each cycle while a queue is occupied); otherwise the next event is
    /// the earliest in-flight completion. `None` means the controller is
    /// completely idle.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.read_q.is_empty() || !self.write_q.is_empty() {
            return Some(now + 1);
        }
        self.in_flight.iter().filter_map(|t| t.done_at).min()
    }

    /// Counts speculative fills still unclaimed in the DDRP buffer as
    /// wasted (end-of-simulation accounting).
    pub fn drain_ddrp_residue(&mut self) {
        self.stats.spec_wasted += self.ddrp.len() as u64;
        self.ddrp.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::hooks::OffChipTag;

    fn dram() -> Dram {
        Dram::new(SystemConfig::cascade_lake(1).dram)
    }

    fn read_req(id: u64, paddr: u64) -> Request {
        Request::demand_load(id, 0, 0, paddr, paddr, id, OffChipTag::none(), 0)
    }

    fn run_until_done(d: &mut Dram, mut now: Cycle, limit: Cycle) -> (Vec<Request>, Cycle) {
        let mut out = Vec::new();
        while now < limit {
            out.extend(d.tick(now));
            if !out.is_empty() && d.pending() == 0 {
                break;
            }
            now += 1;
        }
        (out, now)
    }

    #[test]
    fn read_completes_with_closed_row_timing() {
        let mut d = dram();
        assert!(d.push_read(read_req(1, 0x1000)).is_ok());
        let (done, when) = run_until_done(&mut d, 0, 10_000);
        assert_eq!(done.len(), 1);
        // tRCD + tCAS + burst = 24 + 24 + 19 = 67.
        assert_eq!(when, 67);
        assert_eq!(d.stats.reads, 1);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let mut d = dram();
        // Same bank (lines 8 apart with 8 banks), same row.
        d.push_read(read_req(1, 0x0)).unwrap();
        d.push_read(read_req(2, 8 * 64)).unwrap();
        let (done, when_hits) = run_until_done(&mut d, 0, 10_000);
        assert_eq!(done.len(), 2);
        assert!(d.stats.row_hits >= 1);

        // Same bank, different row → conflict.
        let mut d2 = dram();
        d2.push_read(read_req(1, 0x0)).unwrap();
        let banks = 8u64;
        let row_bytes = 8192u64;
        d2.push_read(read_req(2, row_bytes * banks)).unwrap(); // same bank 0, next row
        let (done2, when_conflict) = run_until_done(&mut d2, 0, 10_000);
        assert_eq!(done2.len(), 2);
        assert!(d2.stats.row_conflicts >= 1);
        assert!(when_conflict > when_hits, "conflict must be slower");
    }

    #[test]
    fn bus_serializes_bank_parallel_reads() {
        let mut d = dram();
        // Four different banks: bank latencies overlap, bus serializes.
        for i in 0..4u64 {
            d.push_read(read_req(i, i * 64)).unwrap();
        }
        let (done, when) = run_until_done(&mut d, 0, 10_000);
        assert_eq!(done.len(), 4);
        // Lower bound: one access latency + 4 bursts.
        assert!(when >= 48 + 4 * 19, "bus contention not modelled: {when}");
    }

    #[test]
    fn same_line_reads_merge() {
        let mut d = dram();
        d.push_read(read_req(1, 0x2000)).unwrap();
        d.push_read(read_req(2, 0x2008)).unwrap();
        assert_eq!(d.stats.reads, 1, "merged read must not double-count");
        let (done, _) = run_until_done(&mut d, 0, 10_000);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn read_queue_full_rejects() {
        let mut d = dram();
        let cap = SystemConfig::cascade_lake(1).dram.read_queue;
        for i in 0..cap as u64 {
            assert!(d.push_read(read_req(i, 0x10_0000 + i * 64)).is_ok());
        }
        assert!(d.push_read(read_req(999, 0x90_0000)).is_err());
        assert_eq!(d.stats.read_queue_full, 1);
    }

    #[test]
    fn speculative_fill_lands_in_ddrp_and_is_claimed() {
        let mut d = dram();
        let spec = Request::speculative(1, 0, 0x400, 0x3000, 0x3000, 0);
        d.push_speculative(spec).unwrap();
        assert_eq!(d.stats.spec_reads, 1);
        let (done, _) = run_until_done(&mut d, 0, 200);
        assert!(done.is_empty(), "spec fills park in the DDRP buffer");
        assert!(d.take_ddrp(0, 0x3000));
        assert!(!d.take_ddrp(0, 0x3000), "claimed entries disappear");
        assert_eq!(d.stats.spec_consumed, 1);
    }

    #[test]
    fn demand_merges_into_inflight_spec() {
        let mut d = dram();
        d.push_speculative(Request::speculative(1, 0, 0x400, 0x3000, 0x3000, 0))
            .unwrap();
        // Demand arrives while the spec is still pending.
        d.tick(0);
        d.push_read(read_req(2, 0x3000)).unwrap();
        assert_eq!(d.stats.reads, 0, "demand reuses the spec transaction");
        assert_eq!(d.stats.spec_consumed, 1);
        let (done, _) = run_until_done(&mut d, 1, 10_000);
        assert_eq!(done.len(), 1, "demand waiter completes");
        assert_eq!(d.stats.transactions(), 1);
    }

    #[test]
    fn spec_dedups_against_existing_traffic() {
        let mut d = dram();
        d.push_read(read_req(1, 0x4000)).unwrap();
        assert!(d
            .push_speculative(Request::speculative(2, 0, 0, 0x4000, 0x4000, 0))
            .is_err());
        assert_eq!(d.stats.spec_reads, 0, "redundant spec must be dropped");
    }

    #[test]
    fn writes_count_as_transactions() {
        let mut d = dram();
        assert!(d.push_write(0x5000, 0));
        let _ = run_until_done(&mut d, 0, 10_000);
        assert_eq!(d.stats.writes, 1);
        assert_eq!(d.stats.transactions(), 1);
    }

    #[test]
    fn write_drain_mode_kicks_in() {
        let mut d = dram();
        let cap = SystemConfig::cascade_lake(1).dram.write_queue;
        for i in 0..(cap * 3 / 4 + 1) as u64 {
            d.push_write(0x10_0000 + i * 64, 0);
        }
        d.push_read(read_req(1, 0x9000)).unwrap();
        // With draining active, the first scheduled transaction is a write.
        d.tick(0);
        assert!(
            d.in_flight.iter().any(|t| t.is_write),
            "write drain did not trigger"
        );
    }

    #[test]
    fn ddrp_residue_counts_wasted() {
        let mut d = dram();
        d.push_speculative(Request::speculative(1, 0, 0, 0x7000, 0x7000, 0))
            .unwrap();
        let _ = run_until_done(&mut d, 0, 200);
        d.drain_ddrp_residue();
        assert_eq!(d.stats.spec_wasted, 1);
    }

    /// The move-based rejection contract: a `push_read` refused because
    /// the queue is full hands back the *same* request, every field
    /// intact, so the engine's retry queue can resubmit it verbatim.
    #[test]
    fn rejected_push_read_returns_request_intact() {
        let mut d = dram();
        let cap = SystemConfig::cascade_lake(1).dram.read_queue;
        // Distinct lines so nothing merges; never tick, so nothing drains.
        for i in 0..cap as u64 {
            d.push_read(read_req(i, 0x10_0000 + i * 64)).unwrap();
        }
        let mut req = read_req(999, 0x90_0000);
        req.pc = 0x1234;
        req.vaddr = 0xdead_beef;
        let tag = req.offchip;
        let err = d.push_read(req).expect_err("queue is full");
        assert_eq!(err.id, 999);
        assert_eq!(err.pc, 0x1234);
        assert_eq!(err.vaddr, 0xdead_beef);
        assert_eq!(err.paddr, 0x90_0000);
        assert_eq!(err.lq_seq, Some(999));
        assert_eq!(err.kind, ReqKind::Load);
        assert_eq!(err.offchip.decision, tag.decision);
        assert!(err.served_from.is_none());
        assert_eq!(d.stats.read_queue_full, 1);
        // A rejected speculative push is handed back too.
        let spec = Request::speculative(1000, 0, 0x40, 0x8000, 0x8000, 5);
        let err = d.push_speculative(spec).expect_err("queue still full");
        assert_eq!(err.id, 1000);
        assert_eq!(err.born, 5);
        assert_eq!(d.stats.spec_dropped, 1);
    }
}
