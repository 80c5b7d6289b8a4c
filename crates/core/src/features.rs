//! The program features of Table I, shared by FLP, SLP and Hermes.
//!
//! | feature | components |
//! |---------|------------|
//! | 1 | PC ⊕ cache-line offset (within the page) |
//! | 2 | PC ⊕ byte offset (within the line) |
//! | 3 | PC + first access |
//! | 4 | Cache-line offset + first access |
//! | 5 | Last-4 load PCs |
//! | 6 (SLP only) | FLP prediction + cache-line offset (the leveling feature) |
//!
//! "First access" is tracked by a small page buffer: a 64-entry LRU table
//! of recently-touched pages with one touched-bit per cache line
//! (64 × (16-bit tag + 64-bit bitmap) = 0.63 KB, matching Table II).

use tlp_perceptron::{combine, mix64};

/// Number of base features (Table I's "legacy Hermes features").
pub const NUM_BASE_FEATURES: usize = 5;

/// Copies the hashes of the enabled features, in feature order, to the
/// front of `out` and returns how many there are. The per-access paths
/// select into a stack array, so predicting allocates nothing.
pub(crate) fn select_enabled(
    hashes: &[u64; NUM_BASE_FEATURES],
    enabled: &[bool; NUM_BASE_FEATURES],
    out: &mut [u64],
) -> usize {
    let mut n = 0;
    for (&h, &e) in hashes.iter().zip(enabled) {
        if e {
            out[n] = h;
            n += 1;
        }
    }
    n
}

/// Page size used for feature extraction (4 KB).
const PAGE_SIZE: u64 = 4096;
const LINE_SIZE: u64 = 64;

#[derive(Debug, Clone, Copy, Default)]
struct PageEntry {
    valid: bool,
    page: u64,
    touched: u64,
    stamp: u64,
}

/// The first-access tracker: per recently-seen page, which cache lines have
/// been touched.
#[derive(Debug, Clone)]
pub struct PageBuffer {
    entries: Vec<PageEntry>,
    clock: u64,
}

impl PageBuffer {
    /// Table II geometry: 64 entries.
    pub const ENTRIES: usize = 64;
    /// Page-tag bits modelled for the storage budget.
    pub const TAG_BITS: usize = 16;

    /// Creates an empty page buffer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: vec![PageEntry::default(); Self::ENTRIES],
            clock: 0,
        }
    }

    /// Returns true when `addr`'s cache line is touched for the first time
    /// within its (tracked) page, and records the touch. Pages evicted from
    /// the buffer restart cold, exactly like the hardware structure.
    pub fn first_access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let page = addr / PAGE_SIZE;
        let bit = 1u64 << ((addr % PAGE_SIZE) / LINE_SIZE);
        if let Some(e) = self.entries.iter_mut().find(|e| e.valid && e.page == page) {
            e.stamp = self.clock;
            let first = e.touched & bit == 0;
            e.touched |= bit;
            return first;
        }
        let slot = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.stamp } else { 0 })
            .map(|(i, _)| i)
            .expect("buffer is non-empty");
        self.entries[slot] = PageEntry {
            valid: true,
            page,
            touched: bit,
            stamp: self.clock,
        };
        true
    }

    /// Storage in bits (Table II: 0.63 KB).
    #[must_use]
    pub fn storage_bits() -> usize {
        Self::ENTRIES * (Self::TAG_BITS + 64)
    }
}

impl Default for PageBuffer {
    fn default() -> Self {
        Self::new()
    }
}

/// Rolling feature state: the last-4 load-PC history plus the page buffer.
#[derive(Debug, Clone)]
pub struct FeatureState {
    last_pcs: [u64; 4],
    page_buffer: PageBuffer,
}

impl FeatureState {
    /// Creates empty state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            last_pcs: [0; 4],
            page_buffer: PageBuffer::new(),
        }
    }

    /// Consults the page buffer for `addr` (recording the touch).
    pub fn first_access(&mut self, addr: u64) -> bool {
        self.page_buffer.first_access(addr)
    }

    /// Pushes `pc` into the last-4 history (call once per load, after
    /// prediction).
    pub fn observe_pc(&mut self, pc: u64) {
        self.last_pcs.rotate_right(1);
        self.last_pcs[0] = pc;
    }

    /// Computes the five Table-I feature hashes for (`pc`, `addr`) with the
    /// given first-access bit. `addr` is virtual for FLP, physical for SLP.
    #[must_use]
    pub fn base_hashes(&self, pc: u64, addr: u64, first: bool) -> [u64; NUM_BASE_FEATURES] {
        let line_off = (addr % PAGE_SIZE) / LINE_SIZE;
        let byte_off = addr % LINE_SIZE;
        let f = u64::from(first);
        let last4 = self
            .last_pcs
            .iter()
            .fold(0u64, |acc, &p| mix64(acc ^ p.rotate_left(17)));
        [
            combine(pc, line_off),
            combine(pc, byte_off.rotate_left(32)),
            combine(pc, 0x8000_0000 | f),
            combine(line_off, 0x4000_0000 | f),
            last4,
        ]
    }

    /// The SLP leveling feature: FLP output bit + cache-line offset.
    #[must_use]
    pub fn leveling_hash(flp_predicted_offchip: bool, addr: u64) -> u64 {
        let line_off = (addr % PAGE_SIZE) / LINE_SIZE;
        combine(u64::from(flp_predicted_offchip) << 8, line_off)
    }
}

impl Default for FeatureState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_buffer_tracks_first_access_per_line() {
        let mut pb = PageBuffer::new();
        assert!(pb.first_access(0x1000)); // line 0 of page 1
        assert!(!pb.first_access(0x1008)); // same line
        assert!(pb.first_access(0x1040)); // next line
        assert!(pb.first_access(0x2000)); // other page
        assert!(!pb.first_access(0x1000)); // still tracked
    }

    #[test]
    fn page_buffer_evicts_lru_and_restarts_cold() {
        let mut pb = PageBuffer::new();
        pb.first_access(0x0);
        // Touch 64 more pages: page 0 is evicted.
        for p in 1..=64u64 {
            pb.first_access(p * PAGE_SIZE);
        }
        assert!(
            pb.first_access(0x0),
            "evicted page must look first-access again"
        );
    }

    #[test]
    fn page_buffer_storage_matches_table_ii() {
        // 64 × 80 bits = 5120 bits = 0.625 KB ≈ the paper's 0.63 KB.
        assert_eq!(PageBuffer::storage_bits(), 5120);
    }

    #[test]
    fn hashes_differ_across_features_and_inputs() {
        let mut fs = FeatureState::new();
        let first = fs.first_access(0x1234_5678);
        let h = fs.base_hashes(0x400, 0x1234_5678, first);
        let set: std::collections::HashSet<u64> = h.iter().copied().collect();
        assert_eq!(set.len(), h.len(), "feature hashes must not collide");
        let h2 = fs.base_hashes(0x404, 0x1234_5678, first);
        assert_ne!(h[0], h2[0]);
    }

    #[test]
    fn first_access_bit_changes_features() {
        let fs = FeatureState::new();
        let a = fs.base_hashes(0x400, 0x9000, true);
        let b = fs.base_hashes(0x400, 0x9000, false);
        assert_ne!(a[2], b[2]);
        assert_ne!(a[3], b[3]);
        assert_eq!(a[0], b[0], "offset features ignore the first bit");
    }

    #[test]
    fn pc_history_changes_last4_feature() {
        let mut fs = FeatureState::new();
        let before = fs.base_hashes(0x400, 0x9000, false)[4];
        fs.observe_pc(0x1234);
        let after = fs.base_hashes(0x400, 0x9000, false)[4];
        assert_ne!(before, after);
    }

    #[test]
    fn leveling_feature_depends_on_bit_and_offset() {
        let a = FeatureState::leveling_hash(true, 0x40);
        let b = FeatureState::leveling_hash(false, 0x40);
        let c = FeatureState::leveling_hash(true, 0x80);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
