//! Cache replacement policies.
//!
//! The paper's configuration uses LRU everywhere (Table III); the other
//! policies (SRRIP, DRRIP, SHiP-lite, Random) support the extension
//! ablation that checks TLP's gains are not an artifact of the LLC
//! replacement policy (the paper's §VII argues TLP is orthogonal to
//! replacement and bypassing work).

/// Insertion/access context for context-sensitive policies (SHiP signs
/// lines by the PC of the filling request).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplCtx {
    /// Line address (paddr / 64).
    pub line: u64,
    /// PC of the request that caused the access/fill (0 when unknown,
    /// e.g. writebacks).
    pub pc: u64,
}

/// A replacement policy for one cache: chooses victims and observes
/// accesses. State is per-(set, way), owned by the policy.
pub trait ReplacementPolicy: Send {
    /// Called on every hit or fill to `(set, way)`.
    fn on_access(&mut self, set: usize, way: usize);

    /// Called when a line is filled into `(set, way)`.
    fn on_fill(&mut self, set: usize, way: usize);

    /// Context-carrying variant of [`ReplacementPolicy::on_access`];
    /// defaults to the context-free hook.
    fn on_access_ctx(&mut self, set: usize, way: usize, ctx: &ReplCtx) {
        let _ = ctx;
        self.on_access(set, way);
    }

    /// Context-carrying variant of [`ReplacementPolicy::on_fill`];
    /// defaults to the context-free hook.
    fn on_fill_ctx(&mut self, set: usize, way: usize, ctx: &ReplCtx) {
        let _ = ctx;
        self.on_fill(set, way);
    }

    /// Chooses a victim way within `set` among `ways` candidates
    /// (all valid).
    fn victim(&mut self, set: usize, ways: usize) -> usize;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Which replacement policy a cache level uses (configuration knob for the
/// replacement-ablation experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplKind {
    /// True least-recently-used (the paper's Table III setting).
    Lru,
    /// Static re-reference interval prediction, 2-bit RRPVs.
    Srrip,
    /// Dynamic RRIP: SRRIP vs. BRRIP chosen by set-dueling.
    Drrip,
    /// SHiP-lite: signature-based hit prediction over SRRIP.
    ShipLite,
    /// Pseudo-random (deterministic xorshift).
    Random,
}

impl ReplKind {
    /// Every selectable policy, in report order.
    pub const ALL: [ReplKind; 5] = [
        ReplKind::Lru,
        ReplKind::Srrip,
        ReplKind::Drrip,
        ReplKind::ShipLite,
        ReplKind::Random,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReplKind::Lru => "lru",
            ReplKind::Srrip => "srrip",
            ReplKind::Drrip => "drrip",
            ReplKind::ShipLite => "ship",
            ReplKind::Random => "random",
        }
    }

    /// Builds the policy for a `sets × ways` cache.
    #[must_use]
    pub fn build(self, sets: usize, ways: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            ReplKind::Lru => Box::new(Lru::new(sets, ways)),
            ReplKind::Srrip => Box::new(Srrip::new(sets, ways)),
            ReplKind::Drrip => Box::new(Drrip::new(sets, ways)),
            ReplKind::ShipLite => Box::new(ShipLite::new(sets, ways)),
            ReplKind::Random => Box::new(RandomRepl::new(0x9e37_79b9)),
        }
    }
}

// Not derived via attribute: the default must stay pinned to the paper's
// Table III setting even if variant order changes.
#[allow(clippy::derivable_impls)]
impl Default for ReplKind {
    fn default() -> Self {
        ReplKind::Lru
    }
}

/// True least-recently-used replacement.
#[derive(Debug)]
pub struct Lru {
    stamp: Vec<u64>,
    ways: usize,
    clock: u64,
}

impl Lru {
    /// Creates LRU state for `sets × ways` lines.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            stamp: vec![0; sets * ways],
            ways,
            clock: 0,
        }
    }
}

impl ReplacementPolicy for Lru {
    fn on_access(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamp[set * self.ways + way] = self.clock;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.on_access(set, way);
    }

    fn victim(&mut self, set: usize, ways: usize) -> usize {
        let base = set * self.ways;
        (0..ways)
            .min_by_key(|&w| self.stamp[base + w])
            .expect("ways must be nonzero")
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

/// Static re-reference interval prediction (SRRIP), 2-bit RRPVs.
#[derive(Debug)]
pub struct Srrip {
    rrpv: Vec<u8>,
    ways: usize,
}

impl Srrip {
    const MAX: u8 = 3;

    /// Creates SRRIP state for `sets × ways` lines.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            rrpv: vec![Self::MAX; sets * ways],
            ways,
        }
    }
}

/// Shared RRIP victim search: evict the first way at RRPV max, aging the
/// whole set until one exists.
fn rrip_victim(rrpv: &mut [u8], base: usize, ways: usize, max: u8) -> usize {
    loop {
        for w in 0..ways {
            if rrpv[base + w] == max {
                return w;
            }
        }
        for w in 0..ways {
            rrpv[base + w] += 1;
        }
    }
}

impl ReplacementPolicy for Srrip {
    fn on_access(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = Self::MAX - 1;
    }

    fn victim(&mut self, set: usize, ways: usize) -> usize {
        rrip_victim(&mut self.rrpv, set * self.ways, ways, Self::MAX)
    }

    fn name(&self) -> &'static str {
        "srrip"
    }
}

/// Dynamic RRIP (Jaleel et al., ISCA 2010): set-dueling between SRRIP
/// insertion (RRPV = max−1) and bimodal BRRIP insertion (RRPV = max most of
/// the time, max−1 rarely). Leader sets train a PSEL counter; follower sets
/// use the winning policy.
#[derive(Debug)]
pub struct Drrip {
    rrpv: Vec<u8>,
    ways: usize,
    sets: usize,
    /// Saturating policy selector: ≥ 0 favours BRRIP, < 0 favours SRRIP.
    psel: i32,
    /// Deterministic counter implementing BRRIP's 1/32 long-insertion duty
    /// cycle.
    brrip_ctr: u32,
}

impl Drrip {
    const MAX: u8 = 3;
    const PSEL_BOUND: i32 = 512;
    /// One in `BRRIP_PERIOD` BRRIP insertions uses the long (max−1) RRPV.
    const BRRIP_PERIOD: u32 = 32;
    /// Every `LEADER_STRIDE`-th set leads for SRRIP; the next one for BRRIP.
    const LEADER_STRIDE: usize = 32;

    /// Creates DRRIP state for `sets × ways` lines.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            rrpv: vec![Self::MAX; sets * ways],
            ways,
            sets,
            psel: 0,
            brrip_ctr: 0,
        }
    }

    /// Leader-set roles: `Some(true)` = SRRIP leader, `Some(false)` = BRRIP
    /// leader, `None` = follower.
    fn leader(&self, set: usize) -> Option<bool> {
        if self.sets < 2 * Self::LEADER_STRIDE {
            // Tiny caches: first set leads SRRIP, second BRRIP.
            return match set {
                0 => Some(true),
                1 => Some(false),
                _ => None,
            };
        }
        match set % Self::LEADER_STRIDE {
            0 => Some(true),
            1 => Some(false),
            _ => None,
        }
    }

    fn use_srrip(&self, set: usize) -> bool {
        match self.leader(set) {
            Some(role) => role,
            None => self.psel < 0,
        }
    }

    /// The policy currently preferred by the selector (`true` = SRRIP).
    #[must_use]
    pub fn prefers_srrip(&self) -> bool {
        self.psel < 0
    }
}

impl ReplacementPolicy for Drrip {
    fn on_access(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        // A fill is a miss: leader sets charge their policy.
        match self.leader(set) {
            Some(true) => self.psel = (self.psel + 1).min(Self::PSEL_BOUND),
            Some(false) => self.psel = (self.psel - 1).max(-Self::PSEL_BOUND),
            None => {}
        }
        let rrpv = if self.use_srrip(set) {
            Self::MAX - 1
        } else {
            self.brrip_ctr = self.brrip_ctr.wrapping_add(1);
            if self.brrip_ctr.is_multiple_of(Self::BRRIP_PERIOD) {
                Self::MAX - 1
            } else {
                Self::MAX
            }
        };
        self.rrpv[set * self.ways + way] = rrpv;
    }

    fn victim(&mut self, set: usize, ways: usize) -> usize {
        rrip_victim(&mut self.rrpv, set * self.ways, ways, Self::MAX)
    }

    fn name(&self) -> &'static str {
        "drrip"
    }
}

/// SHiP-lite (Wu et al., MICRO 2011): a signature history counter table
/// (SHCT) predicts whether lines filled by a given PC signature are ever
/// re-referenced. Fills from "dead" signatures insert at distant RRPV;
/// re-references train the signature up, unreused evictions train it down.
#[derive(Debug)]
pub struct ShipLite {
    rrpv: Vec<u8>,
    /// Signature of the fill, per line.
    sig: Vec<u16>,
    /// Whether the line has been re-referenced since its fill.
    reused: Vec<bool>,
    /// 2-bit saturating counters indexed by signature.
    shct: Vec<u8>,
    ways: usize,
}

impl ShipLite {
    const MAX: u8 = 3;
    const SHCT_ENTRIES: usize = 16 * 1024;
    const SHCT_MAX: u8 = 3;

    /// Creates SHiP state for `sets × ways` lines.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            rrpv: vec![Self::MAX; sets * ways],
            sig: vec![0; sets * ways],
            reused: vec![false; sets * ways],
            // Start weakly "live" so cold signatures behave like SRRIP.
            shct: vec![1; Self::SHCT_ENTRIES],
            ways,
        }
    }

    fn signature(pc: u64) -> u16 {
        // Fold the PC down to the SHCT index width.
        let x = pc ^ (pc >> 14) ^ (pc >> 28);
        (x as usize % Self::SHCT_ENTRIES) as u16
    }

    /// The SHCT counter for a PC (test hook).
    #[must_use]
    pub fn counter_for(&self, pc: u64) -> u8 {
        self.shct[Self::signature(pc) as usize]
    }
}

impl ReplacementPolicy for ShipLite {
    fn on_access(&mut self, set: usize, way: usize) {
        self.on_access_ctx(set, way, &ReplCtx::default());
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.on_fill_ctx(set, way, &ReplCtx::default());
    }

    fn on_access_ctx(&mut self, set: usize, way: usize, _ctx: &ReplCtx) {
        let i = set * self.ways + way;
        self.rrpv[i] = 0;
        if !self.reused[i] {
            self.reused[i] = true;
            let s = self.sig[i] as usize;
            self.shct[s] = (self.shct[s] + 1).min(Self::SHCT_MAX);
        }
    }

    fn on_fill_ctx(&mut self, set: usize, way: usize, ctx: &ReplCtx) {
        let i = set * self.ways + way;
        // The previous occupant leaves now: an unreused line trains its
        // signature toward "dead".
        if !self.reused[i] && self.rrpv[i] != Self::MAX {
            let s = self.sig[i] as usize;
            self.shct[s] = self.shct[s].saturating_sub(1);
        }
        let sig = Self::signature(ctx.pc);
        self.sig[i] = sig;
        self.reused[i] = false;
        self.rrpv[i] = if self.shct[sig as usize] == 0 {
            Self::MAX
        } else {
            Self::MAX - 1
        };
    }

    fn victim(&mut self, set: usize, ways: usize) -> usize {
        rrip_victim(&mut self.rrpv, set * self.ways, ways, Self::MAX)
    }

    fn name(&self) -> &'static str {
        "ship"
    }
}

/// Pseudo-random replacement (xorshift; deterministic).
#[derive(Debug)]
pub struct RandomRepl {
    state: u64,
}

impl RandomRepl {
    /// Creates the policy with a fixed seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed | 1 }
    }
}

impl ReplacementPolicy for RandomRepl {
    fn on_access(&mut self, _set: usize, _way: usize) {}

    fn on_fill(&mut self, _set: usize, _way: usize) {}

    fn victim(&mut self, _set: usize, ways: usize) -> usize {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state % ways as u64) as usize
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = Lru::new(2, 4);
        for w in 0..4 {
            p.on_fill(1, w);
        }
        p.on_access(1, 0); // way 1 now the oldest
        assert_eq!(p.victim(1, 4), 1);
        p.on_access(1, 1);
        assert_eq!(p.victim(1, 4), 2);
    }

    #[test]
    fn lru_sets_are_independent() {
        let mut p = Lru::new(2, 2);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        p.on_fill(1, 1);
        p.on_fill(1, 0);
        assert_eq!(p.victim(0, 2), 0);
        assert_eq!(p.victim(1, 2), 1);
    }

    #[test]
    fn srrip_prefers_distant_lines() {
        let mut p = Srrip::new(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        p.on_access(0, 2); // rrpv 0
        let v = p.victim(0, 4);
        assert_ne!(v, 2, "freshly reused line evicted");
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let mut a = RandomRepl::new(9);
        let mut b = RandomRepl::new(9);
        for _ in 0..100 {
            let (x, y) = (a.victim(0, 8), b.victim(0, 8));
            assert_eq!(x, y);
            assert!(x < 8);
        }
    }

    #[test]
    fn drrip_leader_misses_move_psel() {
        let mut p = Drrip::new(64, 4);
        assert_eq!(p.psel, 0);
        // Misses in an SRRIP-leader set charge SRRIP (psel rises: BRRIP
        // preferred by followers).
        for _ in 0..10 {
            p.on_fill(0, 0);
        }
        assert!(p.psel > 0);
        assert!(!p.prefers_srrip());
        // Heavier miss pressure in the BRRIP leader flips the selector.
        for _ in 0..30 {
            p.on_fill(1, 0);
        }
        assert!(p.psel < 0);
        assert!(p.prefers_srrip());
    }

    #[test]
    fn drrip_psel_saturates() {
        let mut p = Drrip::new(64, 4);
        for _ in 0..2000 {
            p.on_fill(0, 0);
        }
        assert_eq!(p.psel, Drrip::PSEL_BOUND);
        for _ in 0..5000 {
            p.on_fill(1, 0);
        }
        assert_eq!(p.psel, -Drrip::PSEL_BOUND);
    }

    #[test]
    fn drrip_brrip_mostly_inserts_distant() {
        let mut p = Drrip::new(64, 4);
        // Force followers to BRRIP.
        for _ in 0..600 {
            p.on_fill(0, 0);
        }
        // Insert into a follower set many times; most must land at MAX.
        let mut distant = 0;
        for i in 0..64 {
            p.on_fill(5, i % 4);
            if p.rrpv[5 * 4 + i % 4] == Drrip::MAX {
                distant += 1;
            }
        }
        assert!(
            distant > 48,
            "BRRIP must mostly insert at distant RRPV: {distant}"
        );
    }

    #[test]
    fn drrip_follower_tracks_psel_sign() {
        let mut p = Drrip::new(64, 4);
        for _ in 0..100 {
            p.on_fill(1, 0); // BRRIP leader misses → SRRIP wins
        }
        assert!(p.use_srrip(7), "follower must use SRRIP when psel < 0");
        for _ in 0..300 {
            p.on_fill(0, 0); // SRRIP leader misses → BRRIP wins
        }
        assert!(!p.use_srrip(7));
    }

    #[test]
    fn drrip_tiny_cache_has_both_leaders() {
        let p = Drrip::new(8, 2);
        assert_eq!(p.leader(0), Some(true));
        assert_eq!(p.leader(1), Some(false));
        assert_eq!(p.leader(2), None);
    }

    #[test]
    fn ship_dead_signature_inserts_distant() {
        let mut p = ShipLite::new(4, 2);
        let dead_pc = 0xdead_0000;
        let ctx = |pc: u64| ReplCtx { line: 0, pc };
        // Fill and overwrite without reuse until the signature trains dead.
        for _ in 0..4 {
            p.on_fill_ctx(0, 0, &ctx(dead_pc));
        }
        assert_eq!(p.counter_for(dead_pc), 0);
        p.on_fill_ctx(0, 1, &ctx(dead_pc));
        assert_eq!(
            p.rrpv[1],
            ShipLite::MAX,
            "dead signature must insert at MAX"
        );
    }

    #[test]
    fn ship_reuse_trains_signature_live() {
        let mut p = ShipLite::new(4, 2);
        let pc = 0x400;
        let ctx = ReplCtx { line: 0, pc };
        p.on_fill_ctx(0, 0, &ctx);
        let before = p.counter_for(pc);
        p.on_access_ctx(0, 0, &ctx);
        assert_eq!(p.counter_for(pc), before + 1);
        // Repeated accesses to the same fill train only once.
        p.on_access_ctx(0, 0, &ctx);
        assert_eq!(p.counter_for(pc), before + 1);
    }

    #[test]
    fn ship_live_signature_inserts_near() {
        let mut p = ShipLite::new(4, 2);
        let pc = 0x800;
        let ctx = ReplCtx { line: 0, pc };
        // Train the signature live.
        for w in [0usize, 1] {
            p.on_fill_ctx(1, w, &ctx);
            p.on_access_ctx(1, w, &ctx);
        }
        p.on_fill_ctx(1, 0, &ctx);
        assert_eq!(p.rrpv[2], ShipLite::MAX - 1);
    }

    #[test]
    fn repl_kind_builds_every_policy_with_unique_names() {
        let mut names = std::collections::HashSet::new();
        for k in ReplKind::ALL {
            let p = k.build(16, 4);
            assert_eq!(p.name(), k.name());
            assert!(names.insert(k.name()));
        }
        assert_eq!(ReplKind::default(), ReplKind::Lru);
    }

    #[test]
    fn every_policy_returns_valid_victims() {
        for k in ReplKind::ALL {
            let mut p = k.build(8, 4);
            for set in 0..8 {
                for way in 0..4 {
                    p.on_fill(set, way);
                }
            }
            for set in 0..8 {
                for _ in 0..20 {
                    let v = p.victim(set, 4);
                    assert!(v < 4, "{}: victim out of range", k.name());
                }
            }
        }
    }
}
