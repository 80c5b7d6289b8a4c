//! Virtual memory: per-core page tables with randomized first-touch frame
//! allocation, and a two-level TLB hierarchy with a fixed-latency walker.
//!
//! Each core gets its own address space (the paper's multi-core mixes are
//! independent processes), so identical virtual addresses on different
//! cores map to distinct physical frames.

use std::collections::HashMap;

use crate::config::TlbConfig;
use crate::types::{CoreId, Cycle, PAGE_SIZE};

/// Physical frame bits (2^22 frames × 4 KB = 16 GB, Table III's DRAM size).
const FRAME_BITS: u32 = 22;
const FRAME_MASK: u64 = (1 << FRAME_BITS) - 1;

/// Per-core page table with deterministic, scattered frame allocation.
///
/// Frames are assigned by a bijective odd-multiplier permutation of an
/// allocation counter, so consecutive virtual pages land on unrelated
/// DRAM rows — mirroring ChampSim's randomized `vmem`.
#[derive(Debug)]
pub struct PageTable {
    maps: Vec<HashMap<u64, u64>>,
    next: u64,
}

impl PageTable {
    /// Creates page tables for `cores` address spaces.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        Self {
            maps: vec![HashMap::new(); cores],
            next: 1, // frame 0 reserved
        }
    }

    /// Translates a virtual address, allocating a frame on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or physical memory is exhausted.
    pub fn translate(&mut self, core: CoreId, vaddr: u64) -> u64 {
        let vpage = vaddr / PAGE_SIZE;
        let next = &mut self.next;
        let frame = *self.maps[core].entry(vpage).or_insert_with(|| {
            let f = (next.wrapping_mul(0x9e37_79b1)) & FRAME_MASK;
            *next += 1;
            assert!(*next < (1 << FRAME_BITS), "physical memory exhausted");
            f
        });
        frame * PAGE_SIZE + vaddr % PAGE_SIZE
    }
}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    valid: bool,
    vpage: u64,
    frame: u64,
    stamp: u64,
}

/// A set-associative TLB with LRU replacement.
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    entries: Vec<TlbEntry>,
    clock: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two.
    #[must_use]
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(
            cfg.sets.is_power_of_two(),
            "TLB sets must be a power of two"
        );
        Self {
            cfg,
            entries: vec![
                TlbEntry {
                    valid: false,
                    vpage: 0,
                    frame: 0,
                    stamp: 0,
                };
                cfg.sets * cfg.ways
            ],
            clock: 0,
        }
    }

    /// Hit latency of this TLB.
    #[must_use]
    pub fn latency(&self) -> Cycle {
        self.cfg.latency
    }

    fn set_of(&self, vpage: u64) -> usize {
        (vpage % self.cfg.sets as u64) as usize
    }

    /// Looks up `vpage`; returns the frame on a hit.
    pub fn lookup(&mut self, vpage: u64) -> Option<u64> {
        self.clock += 1;
        let base = self.set_of(vpage) * self.cfg.ways;
        for w in 0..self.cfg.ways {
            let e = &mut self.entries[base + w];
            if e.valid && e.vpage == vpage {
                e.stamp = self.clock;
                return Some(e.frame);
            }
        }
        None
    }

    /// Installs a translation, evicting the LRU way.
    pub fn fill(&mut self, vpage: u64, frame: u64) {
        self.clock += 1;
        let base = self.set_of(vpage) * self.cfg.ways;
        let way = (0..self.cfg.ways)
            .min_by_key(|&w| {
                let e = &self.entries[base + w];
                if e.valid {
                    e.stamp
                } else {
                    0
                }
            })
            .expect("nonzero ways");
        self.entries[base + way] = TlbEntry {
            valid: true,
            vpage,
            frame,
            stamp: self.clock,
        };
    }
}

/// The result of one translation: the physical address plus the latency the
/// TLB hierarchy added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical byte address.
    pub paddr: u64,
    /// Cycles spent in DTLB/STLB/page walker.
    pub latency: Cycle,
    /// True when the DTLB missed.
    pub dtlb_miss: bool,
    /// True when the STLB also missed (a page walk happened).
    pub stlb_miss: bool,
}

/// Per-core MMU: DTLB + STLB in front of the shared page table.
#[derive(Debug)]
pub struct Mmu {
    dtlb: Tlb,
    stlb: Tlb,
    walk_latency: Cycle,
}

impl Mmu {
    /// Creates the MMU from TLB configs and a fixed page-walk latency.
    #[must_use]
    pub fn new(dtlb: TlbConfig, stlb: TlbConfig, walk_latency: Cycle) -> Self {
        Self {
            dtlb: Tlb::new(dtlb),
            stlb: Tlb::new(stlb),
            walk_latency,
        }
    }

    /// Translates `vaddr` for `core`, modelling the TLB hierarchy latency.
    pub fn translate(&mut self, pt: &mut PageTable, core: CoreId, vaddr: u64) -> Translation {
        let vpage = vaddr / PAGE_SIZE;
        let off = vaddr % PAGE_SIZE;
        if let Some(frame) = self.dtlb.lookup(vpage) {
            return Translation {
                paddr: frame * PAGE_SIZE + off,
                latency: self.dtlb.latency(),
                dtlb_miss: false,
                stlb_miss: false,
            };
        }
        if let Some(frame) = self.stlb.lookup(vpage) {
            self.dtlb.fill(vpage, frame);
            return Translation {
                paddr: frame * PAGE_SIZE + off,
                latency: self.dtlb.latency() + self.stlb.latency(),
                dtlb_miss: true,
                stlb_miss: false,
            };
        }
        let paddr = pt.translate(core, vaddr);
        let frame = paddr / PAGE_SIZE;
        self.stlb.fill(vpage, frame);
        self.dtlb.fill(vpage, frame);
        Translation {
            paddr,
            latency: self.dtlb.latency() + self.stlb.latency() + self.walk_latency,
            dtlb_miss: true,
            stlb_miss: true,
        }
    }

    /// Translates without touching TLB state or charging latency
    /// (prefetch-address translation, as with ChampSim's `va_prefetch`).
    pub fn translate_untimed(&self, pt: &mut PageTable, core: CoreId, vaddr: u64) -> u64 {
        pt.translate(core, vaddr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn mmu() -> Mmu {
        let cfg = SystemConfig::cascade_lake(1);
        Mmu::new(cfg.dtlb, cfg.stlb, cfg.core.page_walk_latency)
    }

    #[test]
    fn translation_is_stable() {
        let mut pt = PageTable::new(1);
        let a = pt.translate(0, 0x1234_5678);
        let b = pt.translate(0, 0x1234_5678);
        assert_eq!(a, b);
        assert_eq!(a % PAGE_SIZE, 0x678);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut pt = PageTable::new(1);
        let mut frames = std::collections::HashSet::new();
        for p in 0..1000u64 {
            let pa = pt.translate(0, p * PAGE_SIZE);
            assert!(frames.insert(pa / PAGE_SIZE), "frame reuse at page {p}");
        }
    }

    #[test]
    fn cores_have_separate_address_spaces() {
        let mut pt = PageTable::new(2);
        let a = pt.translate(0, 0x8000);
        let b = pt.translate(1, 0x8000);
        assert_ne!(a, b);
    }

    #[test]
    fn frames_are_scattered() {
        let mut pt = PageTable::new(1);
        let a = pt.translate(0, 0) / PAGE_SIZE;
        let b = pt.translate(0, PAGE_SIZE) / PAGE_SIZE;
        assert!(
            a.abs_diff(b) > 1,
            "consecutive vpages map to adjacent frames"
        );
    }

    #[test]
    fn tlb_hits_after_fill() {
        let mut mmu = mmu();
        let mut pt = PageTable::new(1);
        let t1 = mmu.translate(&mut pt, 0, 0x4_2000);
        assert!(t1.stlb_miss, "cold access must walk");
        let t2 = mmu.translate(&mut pt, 0, 0x4_2008);
        assert!(!t2.dtlb_miss);
        assert_eq!(t2.latency, 1);
        assert_eq!(t2.paddr, t1.paddr + 8);
    }

    #[test]
    fn dtlb_capacity_eviction_falls_to_stlb() {
        let mut mmu = mmu();
        let mut pt = PageTable::new(1);
        // 64-entry DTLB: touch 256 pages, then revisit the first.
        for p in 0..256u64 {
            mmu.translate(&mut pt, 0, p * PAGE_SIZE);
        }
        let t = mmu.translate(&mut pt, 0, 0);
        assert!(t.dtlb_miss, "page 0 must have been evicted from the DTLB");
        assert!(!t.stlb_miss, "page 0 must still be in the 1536-entry STLB");
    }

    #[test]
    fn untimed_translation_matches_timed() {
        let mut mmu = mmu();
        let mut pt = PageTable::new(1);
        let t = mmu.translate(&mut pt, 0, 0x9000);
        let pa = mmu.translate_untimed(&mut pt, 0, 0x9010);
        assert_eq!(pa, t.paddr + 0x10);
    }
}
