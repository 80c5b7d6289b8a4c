//! Berti: a local-delta L1D prefetcher selected by *timeliness*
//! (Navarro-Torres et al., MICRO 2022) — the paper's second L1D prefetcher.
//!
//! Berti's insight: for each load IP, learn the set of address deltas that
//! would have produced a *timely* prefetch (one that completes before the
//! demand arrives), by replaying the IP's recent access history when a miss
//! resolves and its latency becomes known. Deltas with high coverage are
//! prefetched into L1; medium-coverage deltas into L2 only.

use std::collections::VecDeque;

use tlp_sim::hooks::{DemandAccess, L1Prefetcher, PrefetchCandidate};
use tlp_sim::types::{Cycle, LINE_SIZE};

const IP_TABLE_SIZE: usize = 64;
const HISTORY_LEN: usize = 16;
const MAX_DELTAS: usize = 16;
const PENDING_LEN: usize = 64;
/// Coverage (percent) above which a delta prefetches into L1.
const L1_COVERAGE: u32 = 65;
/// Coverage (percent) above which a delta prefetches into L2.
const L2_COVERAGE: u32 = 35;
/// Occurrences needed before a delta is trusted.
const MIN_OCCURRENCES: u32 = 4;

#[derive(Debug, Clone, Copy, Default)]
struct DeltaInfo {
    delta: i32,
    occurrences: u32,
    timely: u32,
}

impl DeltaInfo {
    fn coverage(&self) -> u32 {
        (self.timely * 100)
            .checked_div(self.occurrences)
            .unwrap_or(0)
    }
}

#[derive(Debug, Clone, Default)]
struct IpEntry {
    valid: bool,
    tag: u64,
    /// Recent (line, cycle) accesses of this IP.
    history: VecDeque<(u64, Cycle)>,
    deltas: Vec<DeltaInfo>,
}

#[derive(Debug, Clone, Copy)]
struct PendingMiss {
    line: u64,
    ip_idx: usize,
    issue_cycle: Cycle,
}

/// The Berti prefetcher.
#[derive(Debug)]
pub struct Berti {
    table: Vec<IpEntry>,
    pending: VecDeque<PendingMiss>,
    max_degree: usize,
}

impl Berti {
    /// Creates Berti with default geometry.
    #[must_use]
    pub fn new() -> Self {
        Self::with_scale(1)
    }

    /// Creates Berti with its IP table enlarged by a power-of-two `scale`
    /// (the Figure-17 "+7 KB storage" design).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a power of two.
    #[must_use]
    pub fn with_scale(scale: usize) -> Self {
        assert!(scale.is_power_of_two(), "scale must be a power of two");
        Self {
            table: vec![IpEntry::default(); IP_TABLE_SIZE * scale],
            pending: VecDeque::with_capacity(PENDING_LEN),
            max_degree: 4,
        }
    }

    fn ip_index(&self, pc: u64) -> usize {
        ((pc >> 2) ^ (pc >> 9)) as usize & (self.table.len() - 1)
    }

    fn credit_deltas(&mut self, pend: PendingMiss, latency: Cycle) {
        let entry = &mut self.table[pend.ip_idx];
        if !entry.valid {
            return;
        }
        // A prefetch issued at a history access would have completed at
        // (history cycle + latency); it is timely iff that is no later than
        // the demand itself.
        let cutoff = pend.issue_cycle.saturating_sub(latency);
        for &(hline, hcycle) in &entry.history {
            if hline == pend.line {
                continue;
            }
            let delta = pend.line as i64 - hline as i64;
            if delta == 0 || delta.unsigned_abs() > 4096 {
                continue;
            }
            let delta = delta as i32;
            let timely = hcycle <= cutoff;
            if let Some(d) = entry.deltas.iter_mut().find(|d| d.delta == delta) {
                d.occurrences += 1;
                if timely {
                    d.timely += 1;
                }
            } else if entry.deltas.len() < MAX_DELTAS {
                entry.deltas.push(DeltaInfo {
                    delta,
                    occurrences: 1,
                    timely: u32::from(timely),
                });
            } else {
                // Replace the weakest delta.
                if let Some(w) = entry
                    .deltas
                    .iter_mut()
                    .min_by_key(|d| (d.coverage(), d.occurrences))
                {
                    *w = DeltaInfo {
                        delta,
                        occurrences: 1,
                        timely: u32::from(timely),
                    };
                }
            }
        }
    }
}

impl Default for Berti {
    fn default() -> Self {
        Self::new()
    }
}

impl L1Prefetcher for Berti {
    fn on_access(&mut self, access: &DemandAccess, out: &mut Vec<PrefetchCandidate>) {
        let line = access.vaddr / LINE_SIZE;
        let idx = self.ip_index(access.pc);
        let e = &mut self.table[idx];
        if !e.valid || e.tag != access.pc {
            // A new IP: empty the victim's buffers and keep their storage.
            e.valid = true;
            e.tag = access.pc;
            e.history.clear();
            e.deltas.clear();
        }
        // Issue prefetches from trusted deltas (best coverage first). The
        // slice sort is stable, so equal coverages keep table order.
        let mut ranked = [DeltaInfo::default(); MAX_DELTAS];
        let mut n = 0;
        for d in &e.deltas {
            if d.occurrences >= MIN_OCCURRENCES && d.coverage() >= L2_COVERAGE {
                ranked[n] = *d;
                n += 1;
            }
        }
        let ranked = &mut ranked[..n];
        ranked.sort_by_key(|d| std::cmp::Reverse(d.coverage()));
        for d in ranked.iter().take(self.max_degree) {
            let target = line as i64 + i64::from(d.delta);
            if target > 0 {
                out.push(PrefetchCandidate {
                    vaddr: target as u64 * LINE_SIZE,
                    fill_l1: d.coverage() >= L1_COVERAGE,
                });
            }
        }
        // Record the access and, on a miss, a pending entry for latency
        // measurement.
        if e.history.len() >= HISTORY_LEN {
            e.history.pop_front();
        }
        e.history.push_back((line, access.cycle));
        if !access.hit {
            if self.pending.len() >= PENDING_LEN {
                self.pending.pop_front();
            }
            self.pending.push_back(PendingMiss {
                line,
                ip_idx: idx,
                issue_cycle: access.cycle,
            });
        }
    }

    fn on_fill(&mut self, vaddr: u64, cycle: Cycle) {
        let line = vaddr / LINE_SIZE;
        if let Some(pos) = self.pending.iter().position(|p| p.line == line) {
            let pend = self.pending.remove(pos).expect("position valid");
            let latency = cycle.saturating_sub(pend.issue_cycle);
            self.credit_deltas(pend, latency);
        }
    }

    fn name(&self) -> &'static str {
        "berti"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(pc: u64, vaddr: u64, cycle: Cycle, hit: bool) -> DemandAccess {
        DemandAccess {
            core: 0,
            pc,
            vaddr,
            hit,
            is_store: false,
            cycle,
        }
    }

    /// Drives a strided miss stream with `latency`-cycle fills.
    fn drive_stream(
        p: &mut Berti,
        stride: u64,
        n: u64,
        gap: Cycle,
        latency: Cycle,
    ) -> Vec<PrefetchCandidate> {
        let mut out = Vec::new();
        let mut last = Vec::new();
        for i in 0..n {
            let t = i * gap;
            let va = 0x100_0000 + i * stride * LINE_SIZE;
            last.clear();
            p.on_access(&access(0x400, va, t, false), &mut last);
            p.on_fill(va, t + latency);
            out.extend(last.iter().copied());
        }
        last
    }

    #[test]
    fn learns_timely_delta_on_strided_misses() {
        let mut p = Berti::new();
        // Accesses every 20 cycles, fills take 100 cycles: a delta of ≥5
        // strides is timely; the (cumulative) large deltas dominate.
        let last = drive_stream(&mut p, 1, 40, 20, 100);
        assert!(
            !last.is_empty(),
            "Berti must eventually prefetch on a steady stream"
        );
        // Targets must be ahead of the access.
        let va = 0x100_0000 + 39 * LINE_SIZE;
        assert!(last.iter().all(|c| c.vaddr > va));
    }

    #[test]
    fn high_coverage_deltas_fill_l1() {
        let mut p = Berti::new();
        let last = drive_stream(&mut p, 2, 60, 50, 80);
        assert!(!last.is_empty());
        assert!(
            last.iter().any(|c| c.fill_l1),
            "steady timely deltas must reach L1 coverage"
        );
    }

    #[test]
    fn slow_fills_suppress_short_deltas() {
        // With fills slower than the reuse distance of small deltas, only
        // long deltas qualify as timely.
        let mut p = Berti::new();
        let _ = drive_stream(&mut p, 1, 40, 10, 1000);
        let e = &p.table[p.ip_index(0x400)];
        let timely_small = e
            .deltas
            .iter()
            .find(|d| d.delta == 1)
            .map_or(0, DeltaInfo::coverage);
        assert!(
            timely_small < L1_COVERAGE,
            "delta 1 cannot be timely under 1000-cycle fills: {timely_small}"
        );
    }

    #[test]
    fn random_accesses_learn_nothing() {
        let mut p = Berti::new();
        let mut out = Vec::new();
        let mut x = 777u64;
        for i in 0..100 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let va = (x % (1 << 30)) & !(LINE_SIZE - 1);
            p.on_access(&access(0x400, va, i * 30, false), &mut out);
            p.on_fill(va, i * 30 + 90);
        }
        assert!(
            out.len() < 20,
            "random stream must stay mostly quiet: {}",
            out.len()
        );
    }

    #[test]
    fn fills_without_pending_are_ignored() {
        let mut p = Berti::new();
        p.on_fill(0x0dea_d000, 100); // must not panic
    }
}
