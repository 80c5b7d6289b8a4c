//! The out-of-order core model: 4-wide fetch/issue/retire, a 224-entry ROB
//! with true register-dependency tracking, load/store queues,
//! store-to-load forwarding, and a hashed-perceptron branch predictor.
//!
//! The core communicates with the memory hierarchy through the engine:
//! [`Core::schedule`] emits ready loads, the engine translates and issues
//! them, and [`Core::complete_load`] wakes the dependent instructions when
//! the data returns.

pub mod branch;
mod robset;

use std::collections::VecDeque;

use tlp_trace::{Op, Reg, TraceRecord};

use crate::config::CoreConfig;
use crate::hooks::OffChipTag;
use crate::stats::CoreStats;
use crate::types::Cycle;

use branch::BranchPredictor;
use robset::RobSet;

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Dispatched, waiting for operands or structural resources.
    Waiting,
    /// Load issued to the memory hierarchy, waiting for data.
    WaitingMemory,
    /// Finished executing at `exec_done_at`.
    Done,
}

/// Producer-seq sentinel for "no dependency" (`seq` never reaches it).
/// Dispatch links an entry to its producers once; after that the deps
/// are read only by the debug builds' reference scan.
const NO_DEP: u64 = u64::MAX;

/// A link in a producer's consumer list: the consumer's seq times two,
/// plus which of its two sources the link belongs to.
type Link = u64;

/// The end of a consumer list.
const NO_LINK: Link = u64::MAX;

/// `repr(C)` pins the declared field order: what the wake-up and the
/// issue check touch — the state, the unfinished-producer count, the
/// ready time, the finish time and the consumer links, 48 bytes — leads
/// the entry, so waking a consumer or rejecting an armed entry touches
/// one cache line of it, not the whole ~170-byte entry.
#[derive(Debug, Clone)]
#[repr(C)]
struct RobEntry {
    state: EntryState,
    /// Set when the engine issued the delayed speculative DRAM request.
    spec_issued: bool,
    /// Branch mispredicted at dispatch.
    mispredicted: bool,
    /// Producers not yet Done: one per distinct in-flight source at
    /// dispatch, counted down as each finishes. Zero arms the entry.
    unfinished: u8,
    /// Earliest cycle the operands allow issue: the cycle after
    /// dispatch, raised to each producer's `exec_done_at` as it is
    /// folded in (at dispatch for a finished producer, when it finishes
    /// otherwise). Exact once `unfinished` is zero.
    ready_at: Cycle,
    exec_done_at: Cycle,
    /// Head of the list of entries waiting on this one to finish.
    consumers: Link,
    /// This entry's successors in its producers' consumer lists, one per
    /// source.
    next_consumer: [Link; 2],
    dispatched_at: Cycle,
    deps: [u64; 2],
    seq: u64,
    rec: TraceRecord,
    /// Off-chip prediction tag (loads).
    offchip: OffChipTag,
}

/// A load the core wants to send to the L1D this cycle.
#[derive(Debug, Clone, Copy)]
pub struct LoadIssue {
    /// ROB sequence number (the completion handle).
    pub seq: u64,
    /// Load PC.
    pub pc: u64,
    /// Virtual address.
    pub vaddr: u64,
    /// Off-chip prediction tag attached at dispatch.
    pub offchip: OffChipTag,
}

/// A store leaving the store buffer toward the L1D write port.
#[derive(Debug, Clone, Copy)]
pub struct StoreIssue {
    /// Store PC.
    pub pc: u64,
    /// Virtual address.
    pub vaddr: u64,
}

/// Completion details handed back to the engine for predictor training.
#[derive(Debug, Clone, Copy)]
pub struct CompletedLoad {
    /// Load PC.
    pub pc: u64,
    /// Virtual address.
    pub vaddr: u64,
    /// The tag the off-chip predictor produced at dispatch.
    pub offchip: OffChipTag,
    /// Whether a speculative DRAM request was actually issued for this load
    /// (immediately or via the selective-delay path).
    pub spec_issued: bool,
}

/// What dispatch needs from the engine for each new load: a consult of the
/// off-chip predictor.
pub trait DispatchHooks {
    /// Consult the off-chip predictor for a load dispatched now.
    fn predict_load(&mut self, pc: u64, vaddr: u64, cycle: Cycle) -> OffChipTag;
}

/// The out-of-order core.
pub struct Core {
    cfg: CoreConfig,
    rob: VecDeque<RobEntry>,
    next_seq: u64,
    /// Sequence number of the oldest un-retired entry.
    front_seq: u64,
    rename: [Option<u64>; Reg::COUNT],
    /// Loads in flight (LQ occupancy).
    lq_used: usize,
    /// Stores between dispatch and retirement (SQ occupancy).
    sq_used: usize,
    /// Retired stores waiting for the L1D write port.
    store_buffer: VecDeque<StoreIssue>,
    /// In-ROB stores as `(seq, word address)`, FIFO by seq: the
    /// store-to-load-forwarding check scans these few entries instead of
    /// the whole ROB prefix. Pushed at dispatch, popped at retirement
    /// (stores retire in order, so the front is always the oldest).
    store_words: VecDeque<(u64, u64)>,
    /// ROB positions of the entries in [`EntryState::Waiting`]. Entries
    /// enter Waiting only at dispatch and leave it only inside
    /// [`Core::schedule_into`]; the set bounds the scheduling window (the
    /// first `sched_window` members) by popcount.
    waiting: RobSet,
    /// The Waiting entries whose producers have all finished: the only
    /// ones the issue stage and [`Core::next_wake`] examine. Dispatch
    /// arms an entry with no unfinished producer; a producer turning
    /// Done arms each consumer it was the last unfinished producer of.
    armed: RobSet,
    /// Debug builds' reference scan writes the Waiting set it expects
    /// after each [`Core::schedule_into`] here (kept allocated, so the
    /// check allocates nothing).
    expected_waiting: RobSet,
    branch: BranchPredictor,
    /// Dispatch is stalled until this branch seq resolves.
    stall_on_branch: Option<u64>,
    /// Earliest cycle fetch may resume after a redirect.
    fetch_resume_at: Cycle,
    /// A fetched record waiting out a structural hazard (LQ/SQ full).
    pending_rec: Option<TraceRecord>,
    /// Counters.
    pub stats: CoreStats,
    stats_frozen: bool,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("rob", &self.rob.len())
            .field("next_seq", &self.next_seq)
            .field("lq_used", &self.lq_used)
            .field("sq_used", &self.sq_used)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates an idle core.
    #[must_use]
    pub fn new(cfg: CoreConfig) -> Self {
        Self {
            cfg,
            rob: VecDeque::with_capacity(cfg.rob),
            next_seq: 0,
            front_seq: 0,
            rename: [None; Reg::COUNT],
            lq_used: 0,
            sq_used: 0,
            store_buffer: VecDeque::new(),
            store_words: VecDeque::new(),
            waiting: RobSet::new(cfg.rob),
            armed: RobSet::new(cfg.rob),
            expected_waiting: RobSet::new(cfg.rob),
            branch: BranchPredictor::new(),
            stall_on_branch: None,
            fetch_resume_at: 0,
            pending_rec: None,
            stats: CoreStats::default(),
            stats_frozen: false,
        }
    }

    /// Total instructions retired since construction (not reset by
    /// [`Core::reset_stats`]).
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.front_seq
    }

    /// Current ROB occupancy (timeline gauge).
    #[must_use]
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Zeroes the measurement counters (end of warmup). Microarchitectural
    /// state (ROB, predictors, queues) is preserved.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
        self.stats_frozen = false;
    }

    /// Freezes the counters (this core finished its measured window).
    pub fn freeze_stats(&mut self) {
        self.stats_frozen = true;
    }

    /// True when the counters are frozen.
    #[must_use]
    pub fn stats_frozen(&self) -> bool {
        self.stats_frozen
    }

    fn entry_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        if seq < self.front_seq {
            return None;
        }
        let idx = (seq - self.front_seq) as usize;
        self.rob.get_mut(idx)
    }

    fn entry(&self, seq: u64) -> Option<&RobEntry> {
        if seq < self.front_seq {
            return None;
        }
        let idx = (seq - self.front_seq) as usize;
        self.rob.get(idx)
    }

    /// Dispatches up to `fetch_width` instructions from the trace.
    /// Returns false when the trace is exhausted.
    pub fn dispatch(
        &mut self,
        now: Cycle,
        trace: &mut dyn FnMut() -> Option<TraceRecord>,
        hooks: &mut dyn DispatchHooks,
    ) -> bool {
        if now < self.fetch_resume_at {
            return true;
        }
        // A pending mispredicted branch blocks fetch until it resolves.
        if let Some(bseq) = self.stall_on_branch {
            if let Some(e) = self.entry_mut(bseq) {
                if e.state == EntryState::Done {
                    let resume = e.exec_done_at + self.cfg.mispredict_penalty;
                    self.fetch_resume_at = resume;
                    self.stall_on_branch = None;
                }
            } else {
                self.stall_on_branch = None;
            }
            if self.stall_on_branch.is_some() || now < self.fetch_resume_at {
                return true;
            }
        }
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob {
                break;
            }
            // Use the hazard-stalled record first; never drop instructions.
            let rec = match self.pending_rec.take() {
                Some(r) => r,
                None => match trace() {
                    None => return false,
                    Some(r) => r,
                },
            };
            let blocked = match rec.op {
                Op::Load => self.lq_used >= self.cfg.load_queue,
                Op::Store => self.sq_used >= self.cfg.store_queue,
                _ => false,
            };
            if blocked {
                self.pending_rec = Some(rec);
                break;
            }
            if !self.dispatch_one(rec, now, hooks) {
                break;
            }
        }
        true
    }

    /// Dispatches one record (capacity already checked). Returns false when
    /// dispatch must stop for this cycle (mispredicted branch).
    fn dispatch_one(
        &mut self,
        rec: TraceRecord,
        now: Cycle,
        hooks: &mut dyn DispatchHooks,
    ) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        let deps = [
            rec.src1
                .and_then(|r| self.rename[r.index()])
                .unwrap_or(NO_DEP),
            rec.src2
                .and_then(|r| self.rename[r.index()])
                .unwrap_or(NO_DEP),
        ];
        // Link to each distinct unfinished producer; a finished one just
        // bounds the ready time, and one that left the ROB had finished.
        let mut unfinished = 0;
        let mut ready_at = now + 1;
        let mut next_consumer = [NO_LINK; 2];
        for (src, &dep) in deps.iter().enumerate() {
            if dep == NO_DEP || (src == 1 && dep == deps[0]) {
                continue;
            }
            let Some(p) = self.entry_mut(dep) else {
                continue;
            };
            if p.state == EntryState::Done {
                ready_at = ready_at.max(p.exec_done_at);
            } else {
                next_consumer[src] = p.consumers;
                p.consumers = seq * 2 + src as u64;
                unfinished += 1;
            }
        }
        let mut entry = RobEntry {
            seq,
            rec,
            state: EntryState::Waiting,
            unfinished,
            ready_at,
            exec_done_at: 0,
            consumers: NO_LINK,
            next_consumer,
            deps,
            dispatched_at: now,
            offchip: OffChipTag::none(),
            spec_issued: false,
            mispredicted: false,
        };
        match rec.op {
            Op::Load => {
                self.lq_used += 1;
                entry.offchip = hooks.predict_load(rec.pc, rec.addr, now);
            }
            Op::Store => {
                self.sq_used += 1;
                self.store_words.push_back((seq, rec.addr & !7));
            }
            Op::Branch => {
                let predicted = self.branch.predict_and_train(rec.pc, rec.taken);
                if predicted != rec.taken {
                    entry.mispredicted = true;
                    self.stall_on_branch = Some(seq);
                    if !self.stats_frozen {
                        self.stats.mispredicts += 1;
                    }
                }
            }
            _ => {}
        }
        if let Some(dst) = rec.dst {
            self.rename[dst.index()] = Some(seq);
        }
        let idx = self.rob.len();
        self.waiting.insert(idx);
        if unfinished == 0 {
            self.armed.insert(idx);
        }
        self.rob.push_back(entry);
        // Stop dispatching past a mispredicted branch this cycle.
        self.stall_on_branch.is_none()
    }

    /// Starts execution of ready instructions (up to `issue_width`, with at
    /// most `l1d_ports` loads sent to memory). Returns the loads the engine
    /// must translate and issue; store-to-load-forwarded loads complete
    /// internally. Allocating convenience wrapper around
    /// [`Core::schedule_into`] for tests and simple callers.
    pub fn schedule(&mut self, now: Cycle) -> Vec<LoadIssue> {
        let mut out = Vec::new();
        self.schedule_into(now, &mut out);
        out
    }

    /// As [`Core::schedule`], appending issued loads to a caller-provided
    /// buffer — the engine reuses one scratch `Vec` across cores and
    /// cycles so the per-cycle path allocates nothing here.
    ///
    /// The scheduling window is the first `sched_window` Waiting entries
    /// as they stand when the call starts. Inside it the call visits only
    /// the armed entries, oldest first: an entry with an unfinished
    /// producer cannot issue. A producer finishing during the call arms
    /// its consumers at once, so one whose result is ready the same cycle
    /// (a zero-latency unit) lets them issue in this call too.
    pub fn schedule_into(&mut self, now: Cycle, out: &mut Vec<LoadIssue>) {
        if cfg!(debug_assertions) {
            let mut expected = std::mem::take(&mut self.expected_waiting);
            self.reference_scan(now, &mut expected);
            self.expected_waiting = expected;
        }
        let window_end = self.waiting.end_of_first(self.cfg.sched_window);
        let mut issued = 0;
        let mut loads_issued = 0;
        let mut next = 0;
        while issued < self.cfg.issue_width {
            let Some(idx) = self.armed.next_in(next, window_end) else {
                break;
            };
            next = idx + 1;
            let port_free = loads_issued < self.cfg.l1d_ports;
            if let Some(to_memory) = self.try_issue(idx, now, port_free, out) {
                self.waiting.remove(idx);
                self.armed.remove(idx);
                issued += 1;
                loads_issued += usize::from(to_memory);
            }
        }
        debug_assert!(
            self.waiting == self.expected_waiting,
            "cycle {now}: the armed walk must issue what the reference scan issues"
        );
    }

    /// The reference the armed walk is checked against, read-only: it
    /// walks the ROB's first `sched_window` Waiting entries in order,
    /// probing each producer's state, under the same width, port and
    /// forwarding rules, and writes to `kept` the Waiting set it would
    /// leave. On the way it asserts that the Waiting and armed sets match
    /// the ROB.
    fn reference_scan(&self, now: Cycle, kept: &mut RobSet) {
        kept.clear();
        let (mut seen, mut issued, mut loads_issued) = (0, 0, 0);
        for (idx, e) in self.rob.iter().enumerate() {
            let waiting = e.state == EntryState::Waiting;
            assert_eq!(self.waiting.contains(idx), waiting, "seq {}", e.seq);
            assert_eq!(
                self.armed.contains(idx),
                waiting && e.unfinished == 0,
                "seq {}",
                e.seq
            );
            if !waiting {
                continue;
            }
            kept.insert(idx);
            if seen == self.cfg.sched_window || issued == self.cfg.issue_width {
                continue;
            }
            seen += 1;
            // A producer issued earlier in this scan has finished by now
            // only if it executes in zero cycles.
            let dep_ready = |dep: u64| {
                let Some(p) = self.entry(dep) else {
                    return true;
                };
                match p.state {
                    EntryState::Done => p.exec_done_at <= now,
                    EntryState::Waiting => {
                        let at = (dep - self.front_seq) as usize;
                        !kept.contains(at) && p.rec.op == Op::Fp && self.cfg.fp_latency == 0
                    }
                    EntryState::WaitingMemory => false,
                }
            };
            if e.dispatched_at >= now || !e.deps.iter().all(|&d| d == NO_DEP || dep_ready(d)) {
                continue;
            }
            let is_load = e.rec.op == Op::Load;
            if is_load && loads_issued == self.cfg.l1d_ports {
                continue;
            }
            let to_memory = is_load && !self.older_store_matches(e.seq, e.rec.addr);
            issued += 1;
            loads_issued += usize::from(to_memory);
            kept.remove(idx);
        }
    }

    /// Issues the armed entry at ROB position `idx` if it may start at
    /// `now`. Returns `None` when it stays Waiting, `Some(true)` for a
    /// load sent to memory (appended to `out`), and `Some(false)` for an
    /// entry that executes in the core (store-to-load-forwarded loads
    /// included).
    fn try_issue(
        &mut self,
        idx: usize,
        now: Cycle,
        port_free: bool,
        out: &mut Vec<LoadIssue>,
    ) -> Option<bool> {
        let e = &self.rob[idx];
        if e.ready_at > now {
            return None;
        }
        let (seq, rec) = (e.seq, e.rec);
        let done_at = match rec.op {
            // A store generates its address here; the write happens
            // post-retirement.
            Op::Alu | Op::Branch | Op::Store => now + 1,
            Op::Fp => now + self.cfg.fp_latency,
            Op::Load if !port_free => return None,
            // Store-to-load forwarding: an older in-flight store to the
            // same 8-byte word supplies the data directly.
            Op::Load if self.older_store_matches(seq, rec.addr) => {
                self.lq_used -= 1;
                if !self.stats_frozen {
                    self.stats.store_forwards += 1;
                }
                now + 1
            }
            Op::Load => {
                let e = &mut self.rob[idx];
                e.state = EntryState::WaitingMemory;
                out.push(LoadIssue {
                    seq,
                    pc: rec.pc,
                    vaddr: rec.addr,
                    offchip: e.offchip,
                });
                return Some(true);
            }
        };
        self.finish(idx, done_at);
        Some(false)
    }

    /// Marks the entry at ROB position `idx` Done at `done_at` and folds
    /// that into each consumer's ready time, arming those it leaves with
    /// no unfinished producer.
    fn finish(&mut self, idx: usize, done_at: Cycle) {
        let e = &mut self.rob[idx];
        e.state = EntryState::Done;
        e.exec_done_at = done_at;
        let mut link = std::mem::replace(&mut e.consumers, NO_LINK);
        while link != NO_LINK {
            let at = (link / 2 - self.front_seq) as usize;
            let c = &mut self.rob[at];
            c.ready_at = c.ready_at.max(done_at);
            c.unfinished -= 1;
            if c.unfinished == 0 {
                self.armed.insert(at);
            }
            link = c.next_consumer[(link % 2) as usize];
        }
    }

    fn older_store_matches(&self, load_seq: u64, addr: u64) -> bool {
        let word = addr & !7;
        // In-ROB older stores: `store_words` holds exactly the in-ROB
        // stores in seq order, so this scans a handful of stores instead
        // of the whole ROB prefix. Entries at or past the load are not
        // "older" — stop there.
        for &(seq, w) in &self.store_words {
            if seq >= load_seq {
                break;
            }
            if w == word {
                return true;
            }
        }
        // Retired stores still in the store buffer.
        self.store_buffer.iter().any(|s| s.vaddr & !7 == word)
    }

    /// The engine reports that the load `seq` has its data.
    pub fn complete_load(&mut self, seq: u64, now: Cycle) -> Option<CompletedLoad> {
        let e = self.entry(seq)?;
        if e.state != EntryState::WaitingMemory {
            return None;
        }
        let done = CompletedLoad {
            pc: e.rec.pc,
            vaddr: e.rec.addr,
            offchip: e.offchip,
            spec_issued: e.spec_issued,
        };
        self.finish((seq - self.front_seq) as usize, now);
        self.lq_used -= 1;
        Some(done)
    }

    /// Marks that the engine issued the delayed speculative DRAM request
    /// for load `seq` (selective-delay bookkeeping).
    pub fn mark_spec_issued(&mut self, seq: u64) {
        if let Some(e) = self.entry_mut(seq) {
            e.spec_issued = true;
        }
    }

    /// Retires completed instructions in order (up to `retire_width`).
    /// Returns the number retired; stores move to the store buffer.
    pub fn retire(&mut self, now: Cycle) -> usize {
        let mut retired = 0;
        while retired < self.cfg.retire_width {
            let Some(e) = self.rob.front() else { break };
            if e.state != EntryState::Done || e.exec_done_at > now {
                break;
            }
            if e.rec.op == Op::Store && self.store_buffer.len() >= self.cfg.store_queue {
                break; // store buffer full: stall retirement
            }
            let e = self.rob.pop_front().expect("checked front");
            self.front_seq = e.seq + 1;
            if let Some(dst) = e.rec.dst {
                if self.rename[dst.index()] == Some(e.seq) {
                    self.rename[dst.index()] = None;
                }
            }
            if e.rec.op == Op::Store {
                self.sq_used -= 1;
                let popped = self.store_words.pop_front();
                debug_assert_eq!(popped.map(|(s, _)| s), Some(e.seq));
                self.store_buffer.push_back(StoreIssue {
                    pc: e.rec.pc,
                    vaddr: e.rec.addr,
                });
            }
            if !self.stats_frozen {
                self.stats.instructions += 1;
                match e.rec.op {
                    Op::Load => self.stats.loads += 1,
                    Op::Store => self.stats.stores += 1,
                    Op::Branch => self.stats.branches += 1,
                    _ => {}
                }
            }
            retired += 1;
        }
        if retired > 0 {
            self.waiting.pop_front(retired);
            self.armed.pop_front(retired);
        }
        retired
    }

    /// Pops one store from the store buffer (the L1D write port drain).
    pub fn pop_store(&mut self) -> Option<StoreIssue> {
        self.store_buffer.pop_front()
    }

    /// Outstanding work: in-flight ROB entries plus buffered stores and any
    /// hazard-stalled fetched record.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.rob.len() + self.store_buffer.len() + usize::from(self.pending_rec.is_some())
    }

    /// O(1) front-half of [`Core::next_wake`]: true when the core is
    /// certain to have work on the very next cycle (a store to drain, a
    /// retirable head, or an unobstructed fetch). The event engine asks
    /// this before paying for the armed-entry walk — on busy cycles it
    /// almost always answers the scheduling question by itself.
    #[must_use]
    pub fn wants_next_cycle(&self, now: Cycle, trace_done: bool) -> bool {
        if !self.store_buffer.is_empty() {
            return true;
        }
        if let Some(e) = self.rob.front() {
            if e.state == EntryState::Done && e.exec_done_at <= now + 1 {
                return true;
            }
        }
        if self.fetch_resume_at <= now + 1 {
            match self.stall_on_branch {
                // Stall resolution happens on the next dispatch call
                // regardless of ROB occupancy (dispatch checks the stall
                // before the capacity-gated fetch loop).
                Some(bseq) if self.entry(bseq).is_none_or(|e| e.state == EntryState::Done) => {
                    return true;
                }
                Some(_) => {}
                None if self.rob.len() < self.cfg.rob => {
                    let hazard_blocked = match &self.pending_rec {
                        Some(r) => match r.op {
                            Op::Load => self.lq_used >= self.cfg.load_queue,
                            Op::Store => self.sq_used >= self.cfg.store_queue,
                            _ => false,
                        },
                        None => false,
                    };
                    if (self.pending_rec.is_some() || !trace_done) && !hazard_blocked {
                        return true;
                    }
                }
                None => {}
            }
        }
        false
    }

    /// Conservative wake-up time for the event engine: the earliest
    /// future cycle at which one of the core's per-cycle stages
    /// ([`Core::retire`], [`Core::dispatch`], [`Core::schedule`], the
    /// store-buffer drain) could change state with **no external input**
    /// (no cache fill, no [`Core::complete_load`]). `None` means the core
    /// is fully blocked on memory: every runnable path waits on a load in
    /// flight, so only a fill can make it runnable again.
    ///
    /// The contract is the one [`Cache::next_ready`](crate::cache::Cache::next_ready)
    /// and [`Dram::next_event`](crate::dram::Dram::next_event) keep: waking
    /// too early is a harmless no-op tick, waking too late would change
    /// simulated behavior, so every internal state transition below is
    /// accounted for. `trace_done` is the engine's trace-exhaustion flag
    /// (the core itself cannot probe the trace without consuming it).
    #[must_use]
    pub fn next_wake(&self, now: Cycle, trace_done: bool) -> Option<Cycle> {
        let soonest = now + 1;
        // The store buffer drains one store per cycle unconditionally.
        if !self.store_buffer.is_empty() {
            return Some(soonest);
        }
        let mut wake = Cycle::MAX;
        // Retirement: the ROB head finished executing at a known time.
        if let Some(e) = self.rob.front() {
            if e.state == EntryState::Done {
                wake = wake.min(e.exec_done_at.max(soonest));
            }
        }
        // Dispatch. Mutation paths: resolving a completed mispredicted
        // branch, and fetching from the trace / the hazard-stalled record.
        if wake > soonest {
            match self.stall_on_branch {
                // The next dispatch call at/after `fetch_resume_at`
                // clears the stall once the branch has executed (its
                // state flips to Done the cycle it is scheduled) or left
                // the ROB — **regardless of ROB occupancy**: dispatch
                // checks the stall before the capacity-gated fetch loop,
                // so a full ROB must not suppress this wake-up (the
                // resolution stamps `fetch_resume_at` with the mispredict
                // penalty; deferring it past the branch's retirement
                // would skip the penalty). A still-waiting branch is
                // covered by the scheduler scan below.
                Some(bseq) if self.entry(bseq).is_none_or(|e| e.state == EntryState::Done) => {
                    wake = wake.min(self.fetch_resume_at.max(soonest));
                }
                Some(_) => {}
                None if self.rob.len() < self.cfg.rob => {
                    let hazard_blocked = match &self.pending_rec {
                        Some(r) => match r.op {
                            Op::Load => self.lq_used >= self.cfg.load_queue,
                            Op::Store => self.sq_used >= self.cfg.store_queue,
                            _ => false,
                        },
                        None => false,
                    };
                    let can_fetch = self.pending_rec.is_some() || !trace_done;
                    if can_fetch && !hazard_blocked {
                        wake = wake.min(self.fetch_resume_at.max(soonest));
                    }
                }
                None => {}
            }
        }
        // Scheduler: an armed entry (every producer finished) may issue
        // at its ready time. An entry with a producer still waiting (on
        // operands or memory) yields no candidate here — when that
        // producer executes, the tick re-computes the wake-up. Width
        // limits are ignored: they only make a wake-up a no-op, never
        // late. The pass is bounded to the scheduling window exactly like
        // [`Core::schedule`]: entries past the first `sched_window`
        // Waiting entries cannot issue until the Waiting set shrinks,
        // which only happens inside an executed tick — after which this
        // wake-up is recomputed. So it reads the ready times of the armed
        // entries in the window and walks no producer.
        let window_end = self.waiting.end_of_first(self.cfg.sched_window);
        let mut next = 0;
        while wake > soonest {
            let Some(idx) = self.armed.next_in(next, window_end) else {
                break;
            };
            next = idx + 1;
            wake = wake.min(self.rob[idx].ready_at.max(soonest));
        }
        (wake != Cycle::MAX).then_some(wake)
    }

    /// Dispatch cycle of the oldest un-retired instruction (deadlock
    /// diagnostics: the core whose head has waited longest is stalled).
    #[must_use]
    pub fn oldest_dispatch_cycle(&self) -> Option<Cycle> {
        self.rob.front().map(|e| e.dispatched_at)
    }

    /// Human-readable description of the oldest un-retired instruction,
    /// for deadlock diagnostics.
    #[must_use]
    pub fn oldest_inflight(&self) -> Option<String> {
        self.rob.front().map(|e| {
            let state = match e.state {
                EntryState::Waiting => "waiting on operands",
                EntryState::WaitingMemory => "waiting on memory",
                EntryState::Done => "done, not yet retired",
            };
            format!(
                "seq {} {:?} pc {:#x} addr {:#x} — {state}, dispatched at cycle {}",
                e.seq, e.rec.op, e.rec.pc, e.rec.addr, e.dispatched_at
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    struct NoHooks;
    impl DispatchHooks for NoHooks {
        fn predict_load(&mut self, _pc: u64, _vaddr: u64, _cycle: Cycle) -> OffChipTag {
            OffChipTag::none()
        }
    }

    fn core() -> Core {
        Core::new(SystemConfig::cascade_lake(1).core)
    }

    fn drive(core: &mut Core, recs: &[TraceRecord], cycles: u64) -> u64 {
        drive_range(core, recs, 0, cycles)
    }

    fn drive_range(core: &mut Core, recs: &[TraceRecord], start: u64, end: u64) -> u64 {
        let mut it = recs.iter().copied();
        let mut retired = 0;
        for now in start..end {
            retired += core.retire(now) as u64;
            let mut f = || it.next();
            core.dispatch(now, &mut f, &mut NoHooks);
            let loads = core.schedule(now);
            // Memory model: every load completes 10 cycles later.
            for l in loads {
                // Tests complete loads immediately at +10 by re-calling below;
                // store seq for a tiny completion queue.
                COMPLETIONS.with(|c| c.borrow_mut().push((now + 10, l.seq)));
            }
            COMPLETIONS.with(|c| {
                let mut q = c.borrow_mut();
                let mut i = 0;
                while i < q.len() {
                    if q[i].0 <= now {
                        let (_, seq) = q.remove(i);
                        core.complete_load(seq, now);
                    } else {
                        i += 1;
                    }
                }
            });
        }
        retired
    }

    thread_local! {
        static COMPLETIONS: std::cell::RefCell<Vec<(Cycle, u64)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    fn alu_chain(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord::alu(0x100 + i as u64 * 4, Some(Reg(1)), [Some(Reg(1)), None]))
            .collect()
    }

    fn independent_alus(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                TraceRecord::alu(
                    0x100 + i as u64 * 4,
                    Some(Reg((i % 32) as u8)),
                    [None, None],
                )
            })
            .collect()
    }

    #[test]
    fn independent_alus_retire_at_full_width() {
        COMPLETIONS.with(|c| c.borrow_mut().clear());
        let mut c = core();
        let retired = drive(&mut c, &independent_alus(400), 250);
        // 4-wide: 400 instructions in ~100 cycles plus pipeline fill.
        assert_eq!(retired, 400);
        assert!(c.stats.instructions == 400);
    }

    #[test]
    fn dependent_chain_is_serialized() {
        COMPLETIONS.with(|c| c.borrow_mut().clear());
        let mut c = core();
        let n = 100;
        let retired = drive(&mut c, &alu_chain(n), 60);
        // A true dependency chain runs at ~1 IPC, so only ~60 can retire.
        assert!(
            retired < 70,
            "dependency chain retired {retired} in 60 cycles"
        );
    }

    #[test]
    fn loads_wait_for_memory() {
        COMPLETIONS.with(|c| c.borrow_mut().clear());
        let mut c = core();
        let recs = vec![
            TraceRecord::load(0x100, 0x1000, 8, Reg(1), [None, None]),
            TraceRecord::alu(0x104, Some(Reg(2)), [Some(Reg(1)), None]),
        ];
        let retired = drive(&mut c, &recs, 9);
        assert_eq!(retired, 0, "load takes 10 cycles; nothing retires at 9");
        let retired = drive_range(&mut c, &[], 9, 30);
        assert_eq!(retired, 2, "both retire once the load returns");
    }

    #[test]
    fn store_to_load_forwarding() {
        COMPLETIONS.with(|c| c.borrow_mut().clear());
        let mut c = core();
        let recs = vec![
            TraceRecord::store(0x100, 0x2000, 8, Some(Reg(1)), None),
            TraceRecord::load(0x104, 0x2000, 8, Reg(2), [None, None]),
        ];
        drive(&mut c, &recs, 20);
        assert_eq!(c.stats.store_forwards, 1);
        assert_eq!(c.stats.instructions, 2);
    }

    #[test]
    fn stores_enter_store_buffer_at_retire() {
        COMPLETIONS.with(|c| c.borrow_mut().clear());
        let mut c = core();
        let recs = vec![TraceRecord::store(0x100, 0x3000, 8, None, None)];
        drive(&mut c, &recs, 20);
        let s = c.pop_store().expect("store buffered");
        assert_eq!(s.vaddr, 0x3000);
        assert!(c.pop_store().is_none());
    }

    #[test]
    fn mispredicted_branch_stalls_fetch() {
        COMPLETIONS.with(|c| c.borrow_mut().clear());
        let mut c = core();
        // Untrained predictor predicts not-taken (sum==0 → taken); feed a
        // pattern it has never seen: alternate so some predictions miss.
        let mut recs = Vec::new();
        let mut x = 7u64;
        for i in 0..200u64 {
            x ^= x << 13;
            x ^= x >> 7;
            recs.push(TraceRecord::branch(0x100 + i * 8, x & 1 == 0, 0x100, None));
            recs.push(TraceRecord::alu(0x104 + i * 8, None, [None, None]));
        }
        // 400 instructions at 4-wide would take ~100 cycles unimpeded; with
        // ~50% mispredicts each costing a resolve + redirect, far fewer
        // retire in 150 cycles.
        let retired = drive(&mut c, &recs, 150);
        assert!(c.stats.mispredicts > 10, "random branches must mispredict");
        assert!(
            retired < 300,
            "mispredicts must slow the pipeline: {retired}"
        );
    }

    #[test]
    fn rob_capacity_limits_inflight() {
        COMPLETIONS.with(|c| c.borrow_mut().clear());
        let mut c = core();
        // Loads that never complete fill the ROB/LQ.
        let recs: Vec<TraceRecord> = (0..300)
            .map(|i| TraceRecord::load(0x100, 0x1000 + i * 64, 8, Reg(1), [None, None]))
            .collect();
        let mut it = recs.iter().copied();
        for now in 0..300 {
            c.retire(now);
            let mut f = || it.next();
            c.dispatch(now, &mut f, &mut NoHooks);
            let _ = c.schedule(now);
        }
        // LQ is 96: dispatch stalls there (no completions ever arrive).
        assert!(c.pending() <= 96 + 1, "LQ overflow: {}", c.pending());
    }

    /// Dispatches `recs` at cycles 0, 1, … (fetch width per cycle) with no
    /// other stage running; returns the first cycle after the last one.
    fn dispatch_all(core: &mut Core, recs: &[TraceRecord]) -> Cycle {
        let mut it = recs.iter().copied().peekable();
        let mut now = 0;
        while it.peek().is_some() {
            let mut f = || it.next();
            core.dispatch(now, &mut f, &mut NoHooks);
            now += 1;
        }
        now
    }

    fn states(core: &Core) -> Vec<EntryState> {
        core.rob.iter().map(|e| e.state).collect()
    }

    #[test]
    fn a_chain_behind_a_load_issues_its_first_link_when_the_data_returns() {
        use EntryState::{Done, Waiting, WaitingMemory};
        let mut c = core();
        let recs = [
            TraceRecord::load(0x100, 0x1000, 8, Reg(1), [None, None]),
            TraceRecord::alu(0x104, Some(Reg(2)), [Some(Reg(1)), None]),
            TraceRecord::alu(0x108, Some(Reg(3)), [Some(Reg(2)), None]),
            TraceRecord::alu(0x10c, Some(Reg(4)), [Some(Reg(3)), None]),
        ];
        assert_eq!(dispatch_all(&mut c, &recs), 1);
        let loads = c.schedule(1);
        assert_eq!(loads.iter().map(|l| l.seq).collect::<Vec<_>>(), [0]);
        for now in 2..10 {
            assert!(c.schedule(now).is_empty());
            assert_eq!(states(&c), [WaitingMemory, Waiting, Waiting, Waiting]);
        }
        assert!(c.complete_load(0, 10).is_some());
        assert!(c.schedule(10).is_empty());
        assert_eq!(states(&c), [Done, Done, Waiting, Waiting]);
        assert_eq!(c.rob[1].exec_done_at, 11);
    }

    #[test]
    fn a_consumer_naming_one_producer_twice_issues_once() {
        let mut c = core();
        let recs = [
            TraceRecord::alu(0x100, Some(Reg(1)), [None, None]),
            TraceRecord::load(0x104, 0x2000, 8, Reg(2), [Some(Reg(1)), Some(Reg(1))]),
        ];
        dispatch_all(&mut c, &recs);
        let mut issued = Vec::new();
        for now in 1..20 {
            issued.extend(c.schedule(now).iter().map(|l| (now, l.seq)));
        }
        // The producer executes at cycle 1 and finishes at 2.
        assert_eq!(issued, [(2, 1)]);
    }

    #[test]
    fn an_operand_ready_entry_past_the_window_waits_for_the_window() {
        let mut c = core();
        let window = c.cfg.sched_window;
        // Two loads, then one consumer of the second and `window - 1` of
        // the first: once the loads issue, these fill the window, and the
        // independent entry behind them is the first one past it.
        let mut recs = vec![
            TraceRecord::load(0x100, 0x1000, 8, Reg(1), [None, None]),
            TraceRecord::load(0x104, 0x2000, 8, Reg(2), [None, None]),
            TraceRecord::alu(0x108, Some(Reg(3)), [Some(Reg(2)), None]),
        ];
        recs.extend(
            (0..window as u64 - 1)
                .map(|i| TraceRecord::alu(0x200 + i * 4, Some(Reg(4)), [Some(Reg(1)), None])),
        );
        recs.push(TraceRecord::alu(0x400, Some(Reg(5)), [None, None]));
        let independent = recs.len() - 1;
        let start = dispatch_all(&mut c, &recs);
        assert_eq!(c.schedule(start).len(), 2, "both loads issue");
        for now in start + 1..start + 20 {
            assert!(c.schedule(now).is_empty());
            assert_eq!(c.rob[independent].state, EntryState::Waiting);
        }
        // The second load's data frees the oldest Waiting entry; the
        // window moves past the independent entry only on the next call.
        let now = start + 20;
        assert!(c.complete_load(1, now).is_some());
        assert!(c.schedule(now).is_empty());
        assert_eq!(c.rob[2].state, EntryState::Done);
        assert_eq!(c.rob[independent].state, EntryState::Waiting);
        assert!(c.schedule(now + 1).is_empty());
        assert_eq!(c.rob[independent].state, EntryState::Done);
        assert_eq!(c.rob[independent].exec_done_at, now + 2);
    }

    #[test]
    fn a_zero_latency_producer_lets_its_dependent_issue_the_same_cycle() {
        let mut cfg = SystemConfig::cascade_lake(1).core;
        cfg.fp_latency = 0;
        let mut c = Core::new(cfg);
        let recs = [
            TraceRecord::fp(0x100, Some(Reg(1)), [None, None]),
            TraceRecord::alu(0x104, Some(Reg(2)), [Some(Reg(1)), None]),
        ];
        dispatch_all(&mut c, &recs);
        assert!(c.schedule(1).is_empty());
        assert_eq!(states(&c), [EntryState::Done; 2]);
        assert_eq!(c.rob[0].exec_done_at, 1);
        assert_eq!(c.rob[1].exec_done_at, 2);
    }

    /// A random mix of every op over eight registers (so sources often
    /// name one producer twice) and 32 words (so loads often forward).
    fn random_trace(n: usize, mut x: u64) -> Vec<TraceRecord> {
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n as u64)
            .map(|i| {
                let pc = 0x100 + i * 4;
                let [a, b, c] = [next(), next(), next()].map(|r| Reg((r % 8) as u8));
                let addr = 0x1000 + (next() % 32) * 8;
                match next() % 6 {
                    0 => TraceRecord::load(pc, addr, 8, a, [Some(b), None]),
                    1 => TraceRecord::store(pc, addr, 8, Some(a), Some(b)),
                    2 => TraceRecord::fp(pc, Some(a), [Some(b), Some(c)]),
                    3 => TraceRecord::branch(pc, next() % 4 == 0, 0x100, Some(a)),
                    _ => TraceRecord::alu(pc, Some(a), [Some(b), Some(c)]),
                }
            })
            .collect()
    }

    /// Core shapes off the default: a ROB that is not a whole number of
    /// 64-bit words, windows of one and three entries, one port, one-wide
    /// issue and a zero-latency FP unit. Debug builds check every
    /// schedule call against the reference scan, so this runs the wake-up
    /// lists through window, width and port limits the default shape
    /// rarely reaches; every instruction must still retire.
    #[test]
    fn every_core_shape_issues_what_the_reference_scan_issues() {
        let base = SystemConfig::cascade_lake(1).core;
        let shapes = [
            (100, 1, 4, 2, 3),
            (100, 3, 1, 1, 0),
            (130, 64, 4, 1, 0),
            (224, 64, 2, 2, 3),
        ];
        for (seed, &(rob, window, width, ports, fp)) in shapes.iter().enumerate() {
            let mut c = Core::new(CoreConfig {
                rob,
                sched_window: window,
                issue_width: width,
                l1d_ports: ports,
                fp_latency: fp,
                ..base
            });
            let recs = random_trace(3000, 0x9e37_79b9 + seed as u64);
            let mut it = recs.iter().copied();
            let mut inflight = VecDeque::new();
            let mut retired = 0;
            for now in 0..40_000 {
                retired += c.retire(now);
                c.pop_store();
                c.dispatch(now, &mut || it.next(), &mut NoHooks);
                inflight.extend(c.schedule(now).iter().map(|l| (now + 10, l.seq)));
                while inflight.front().is_some_and(|&(at, _)| at <= now) {
                    let (_, seq) = inflight.pop_front().expect("checked front");
                    c.complete_load(seq, now);
                }
            }
            assert_eq!(retired, 3000, "rob {rob} window {window} width {width}");
        }
    }

    #[test]
    fn complete_load_is_idempotent() {
        COMPLETIONS.with(|c| c.borrow_mut().clear());
        let mut c = core();
        let recs = [TraceRecord::load(0x100, 0x1000, 8, Reg(1), [None, None])];
        let mut it = recs.iter().copied();
        let mut f = || it.next();
        c.dispatch(0, &mut f, &mut NoHooks);
        let loads = c.schedule(1);
        assert_eq!(loads.len(), 1);
        assert!(c.complete_load(loads[0].seq, 5).is_some());
        assert!(c.complete_load(loads[0].seq, 6).is_none());
    }
}
