//! SPEC-CPU-like synthetic workloads.
//!
//! The paper's SPEC set is the 24 SPEC CPU 2006/2017 benchmarks whose
//! baseline LLC MPKI exceeds 1. We model each by a parameterized pattern
//! engine reproducing the benchmark's dominant memory behaviour:
//!
//! | engine | behaviour | representative benchmarks |
//! |--------|-----------|----------------------------|
//! | [`PatternKind::PointerChase`] | dependent-load linked traversal | mcf, omnetpp, xalancbmk, astar |
//! | [`PatternKind::Stream`] | unit-stride multi-array streaming | lbm, libquantum, bwaves, leslie3d |
//! | [`PatternKind::Stencil`] | 2-D multi-point stencil sweeps | cactus, zeusmp, GemsFDTD, wrf, roms, fotonik3d |
//! | [`PatternKind::SpMV`] | CSR sparse matrix–vector product | soplex, milc(sparse phases) |
//! | [`PatternKind::Strided`] | constant non-unit stride | milc, gems(strided phases) |
//! | [`PatternKind::RandomAccess`] | uniform random table lookups | gcc, xz, sphinx3 hash phases |
//! | [`PatternKind::BranchyMixed`] | data-dependent branches over a working set | gcc, perl-like control flow |
//!
//! Working-set sizes are chosen so the footprint exceeds the simulated LLC
//! (putting the workload in the paper's "LLC MPKI > 1" regime) while staying
//! fast to generate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::emit::{regs, Emitter, Suite, Workload};
use crate::sink::TraceSink;

/// Scale factor applied to working-set sizes (shared with the GAP scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecScale {
    /// Minimal footprints for unit tests.
    Tiny,
    /// Test/bench footprints (a few MB, larger than the 1-core LLC).
    Quick,
    /// Full-run footprints (tens of MB).
    Full,
}

impl SpecScale {
    fn factor(self) -> u64 {
        match self {
            SpecScale::Tiny => 1,
            SpecScale::Quick => 16,
            SpecScale::Full => 128,
        }
    }
}

/// The memory-behaviour engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Linked-list traversal: every load's address depends on the previous
    /// load's value.
    PointerChase,
    /// `a[i] = b[i] op c[i]` streaming over large arrays.
    Stream,
    /// 5-point 2-D stencil sweep (row-strided reuse).
    Stencil,
    /// CSR sparse matrix–vector product: sequential index loads feeding
    /// random x[] gathers.
    SpMV,
    /// Constant-stride scan with a non-unit stride.
    Strided,
    /// Uniform random lookups into a large table.
    RandomAccess,
    /// Random control flow over a moderate working set.
    BranchyMixed,
}

/// One SPEC-like workload: a pattern engine plus footprint/mix parameters.
pub struct SpecWorkload {
    name: String,
    kind: PatternKind,
    /// Number of 8-byte elements in the primary working set.
    elems: u64,
    /// Independent ALU ops inserted per memory access (ILP padding).
    alu_per_mem: u32,
    seed: u64,
}

/// Virtual-address bases for the SPEC engines (distinct from the GAP bases).
mod layout {
    pub const CODE: u64 = 0x0010_0000;
    pub const ARRAY_A: u64 = 0x0011_0000_0000;
    pub const ARRAY_B: u64 = 0x0012_0000_0000;
    pub const ARRAY_C: u64 = 0x0013_0000_0000;
    pub const TABLE: u64 = 0x0014_0000_0000;
    pub const INDEX: u64 = 0x0015_0000_0000;
}

impl SpecWorkload {
    /// Creates a workload; `elems` is the primary working-set size in
    /// 8-byte elements.
    ///
    /// # Panics
    ///
    /// Panics if `elems` is zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        kind: PatternKind,
        elems: u64,
        alu_per_mem: u32,
        seed: u64,
    ) -> Self {
        assert!(elems > 0, "working set must be non-empty");
        Self {
            name: name.into(),
            kind,
            elems,
            alu_per_mem,
            seed,
        }
    }

    /// The engine driving this workload.
    #[must_use]
    pub fn kind(&self) -> PatternKind {
        self.kind
    }

    /// Working-set size in bytes.
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        self.elems * 8
    }

    fn code_base(&self) -> u64 {
        // Distinct text segment per workload so PCs never collide between
        // co-running workloads in a multi-core mix.
        layout::CODE + (self.seed & 0xff) * 0x1_0000
    }
}

impl std::fmt::Debug for SpecWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecWorkload")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("elems", &self.elems)
            .finish()
    }
}

impl Workload for SpecWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn suite(&self) -> Suite {
        Suite::Spec
    }

    fn generate(&self, pass: u64, sink: &mut dyn TraceSink) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ pass.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let mut e = Emitter::new(sink, self.code_base());
        match self.kind {
            PatternKind::PointerChase => {
                pointer_chase(&mut e, self.elems, self.alu_per_mem, &mut rng)
            }
            PatternKind::Stream => stream(&mut e, self.elems, self.alu_per_mem),
            PatternKind::Stencil => stencil(&mut e, self.elems, self.alu_per_mem),
            PatternKind::SpMV => spmv(&mut e, self.elems, self.alu_per_mem, &mut rng),
            PatternKind::Strided => strided(&mut e, self.elems, self.alu_per_mem),
            PatternKind::RandomAccess => {
                random_access(&mut e, self.elems, self.alu_per_mem, &mut rng)
            }
            PatternKind::BranchyMixed => branchy(&mut e, self.elems, self.alu_per_mem, &mut rng),
        }
    }
}

/// Multiplicative-hash permutation step used to lay out pointer-chase rings:
/// successive elements land on unrelated cache lines, defeating stride
/// prefetchers exactly like mcf's arc lists do.
///
/// The multiplier must be coprime to every catalog `elems` (prime factors
/// 2, 3 and 5) so the map stays a permutation; the golden-ratio constant
/// used elsewhere is divisible by 5 and would shrink 5-divisible working
/// sets to a fifth of their size.
#[inline]
fn scatter(i: u64, elems: u64) -> u64 {
    i.wrapping_mul(0xbf58_476d_1ce4_e5b9) % elems
}

fn pointer_chase(e: &mut Emitter<'_>, elems: u64, alu: u32, rng: &mut StdRng) {
    let mut cursor = rng.gen_range(0..elems);
    for step in 0..elems {
        // load next = node[cursor].next — dependent on the previous load.
        let addr = layout::TABLE + scatter(cursor, elems) * 8;
        if !e.load(0, addr, regs::PTR, [Some(regs::PTR), None]) {
            return;
        }
        e.alu_burst(1, alu);
        // Occasionally update a payload (mcf writes arc flows).
        if step % 16 == 0 {
            e.store(2, addr + 8, Some(regs::VAL), Some(regs::PTR));
        }
        e.loop_branch(3, step + 1 < elems, 0);
        // Full-period LCG walk (Hull–Dobell holds for every catalog `elems`,
        // whose prime factors are 2, 3, 5): the ring visits the whole
        // working set before repeating. scatter() above de-correlates the
        // resulting address deltas so stride prefetchers stay defeated.
        cursor = (cursor.wrapping_mul(61).wrapping_add(7)) % elems;
    }
}

fn stream(e: &mut Emitter<'_>, elems: u64, alu: u32) {
    for i in 0..elems {
        let off = i * 8;
        if !e.load(0, layout::ARRAY_A + off, regs::VAL, [Some(regs::IDX), None]) {
            return;
        }
        e.load(
            1,
            layout::ARRAY_B + off,
            regs::VAL2,
            [Some(regs::IDX), None],
        );
        e.fp(2, Some(regs::ACC), [Some(regs::VAL), Some(regs::VAL2)]);
        e.alu_burst(3, alu);
        e.store(4, layout::ARRAY_C + off, Some(regs::ACC), Some(regs::IDX));
        e.loop_branch(5, i + 1 < elems, 0);
    }
}

fn stencil(e: &mut Emitter<'_>, elems: u64, alu: u32) {
    // Square grid of 8-byte cells.
    let side = (elems as f64).sqrt() as u64;
    if side < 3 {
        return stream(e, elems, alu);
    }
    for y in 1..side - 1 {
        for x in 1..side - 1 {
            let at = |yy: u64, xx: u64| layout::ARRAY_A + (yy * side + xx) * 8;
            if !e.load(0, at(y, x), regs::VAL, [Some(regs::IDX), None]) {
                return;
            }
            e.load(1, at(y, x - 1), regs::VAL2, [Some(regs::IDX), None]);
            e.load(2, at(y, x + 1), regs::VAL2, [Some(regs::IDX), None]);
            e.load(3, at(y - 1, x), regs::ACC, [Some(regs::IDX), None]);
            e.load(4, at(y + 1, x), regs::ACC, [Some(regs::IDX), None]);
            e.fp(5, Some(regs::ACC), [Some(regs::VAL), Some(regs::VAL2)]);
            e.alu_burst(6, alu);
            e.store(
                7,
                layout::ARRAY_B + (y * side + x) * 8,
                Some(regs::ACC),
                Some(regs::IDX),
            );
            e.loop_branch(8, x + 2 < side, 0);
        }
    }
}

fn spmv(e: &mut Emitter<'_>, elems: u64, alu: u32, rng: &mut StdRng) {
    let rows = (elems / 8).max(1);
    let nnz_per_row = 8u64;
    let mut nz = 0u64;
    for row in 0..rows {
        // Row-pointer loads (sequential).
        if !e.load_sized(0, layout::INDEX + row * 4, 4, regs::BEG, [None, None]) {
            return;
        }
        for _ in 0..nnz_per_row {
            // Column index: sequential; x[col]: random gather, dependent.
            e.load_sized(
                1,
                layout::INDEX + 0x1000_0000 + nz * 4,
                4,
                regs::NBR,
                [Some(regs::BEG), None],
            );
            let col = rng.gen_range(0..elems);
            e.load(
                2,
                layout::ARRAY_A + col * 8,
                regs::VAL,
                [Some(regs::NBR), None],
            );
            e.load(
                3,
                layout::ARRAY_B + nz * 8,
                regs::VAL2,
                [Some(regs::BEG), None],
            );
            e.fp(4, Some(regs::ACC), [Some(regs::VAL), Some(regs::VAL2)]);
            e.alu_burst(5, alu);
            nz += 1;
        }
        e.store(6, layout::ARRAY_C + row * 8, Some(regs::ACC), None);
        e.loop_branch(7, row + 1 < rows, 0);
    }
}

fn strided(e: &mut Emitter<'_>, elems: u64, alu: u32) {
    let stride = 24u64; // 3 cache lines: defeats next-line, catchable by stride
    let mut i = 0u64;
    while i < elems {
        if !e.load(
            0,
            layout::ARRAY_A + i * 8,
            regs::VAL,
            [Some(regs::IDX), None],
        ) {
            return;
        }
        e.fp(1, Some(regs::ACC), [Some(regs::VAL), Some(regs::ACC)]);
        e.alu_burst(2, alu);
        e.loop_branch(3, i + stride < elems, 0);
        i += stride;
    }
}

fn random_access(e: &mut Emitter<'_>, elems: u64, alu: u32, rng: &mut StdRng) {
    let accesses = elems / 2;
    for k in 0..accesses {
        // The index computation itself (an LCG) is a short ALU chain.
        e.alu(0, Some(regs::IDX), [Some(regs::IDX), None]);
        let idx = rng.gen_range(0..elems);
        if !e.load(
            1,
            layout::TABLE + idx * 8,
            regs::VAL,
            [Some(regs::IDX), None],
        ) {
            return;
        }
        e.alu_burst(2, alu);
        if k % 4 == 0 {
            e.store(3, layout::TABLE + idx * 8, Some(regs::VAL), Some(regs::IDX));
        }
        e.loop_branch(4, k + 1 < accesses, 0);
    }
}

fn branchy(e: &mut Emitter<'_>, elems: u64, alu: u32, rng: &mut StdRng) {
    let iters = elems;
    for k in 0..iters {
        let idx = rng.gen_range(0..elems);
        if !e.load(
            0,
            layout::TABLE + idx * 8,
            regs::VAL,
            [Some(regs::IDX), None],
        ) {
            return;
        }
        // Data-dependent, poorly-predictable branch (gcc-style dispatch).
        let t = rng.gen_bool(0.4);
        e.branch(1, t, 5, Some(regs::VAL));
        if t {
            e.alu_burst(2, alu + 1);
            e.load(
                3,
                layout::ARRAY_A + (idx % (elems / 2).max(1)) * 8,
                regs::VAL2,
                [Some(regs::VAL), None],
            );
        } else {
            e.alu_burst(4, alu);
        }
        e.loop_branch(5, k + 1 < iters, 0);
    }
}

/// The 24 SPEC-like workloads (benchmarks whose baseline LLC MPKI > 1 in the
/// paper's setup), with engine and footprint assignments.
#[must_use]
pub fn spec_workloads(scale: SpecScale) -> Vec<SpecWorkload> {
    let f = scale.factor();
    let k = 1024u64;
    // (name, engine, elems, alu_per_mem, seed)
    let defs: [(&str, PatternKind, u64, u32, u64); 24] = [
        ("spec.mcf_06", PatternKind::PointerChase, 96 * k * f, 6, 11),
        ("spec.mcf_17", PatternKind::PointerChase, 128 * k * f, 7, 12),
        (
            "spec.omnetpp_06",
            PatternKind::PointerChase,
            48 * k * f,
            7,
            13,
        ),
        (
            "spec.omnetpp_17",
            PatternKind::PointerChase,
            64 * k * f,
            7,
            14,
        ),
        (
            "spec.xalancbmk_06",
            PatternKind::PointerChase,
            32 * k * f,
            8,
            15,
        ),
        (
            "spec.xalancbmk_17",
            PatternKind::PointerChase,
            40 * k * f,
            8,
            16,
        ),
        (
            "spec.astar_06",
            PatternKind::PointerChase,
            24 * k * f,
            7,
            17,
        ),
        ("spec.lbm_06", PatternKind::Stream, 160 * k * f, 6, 18),
        ("spec.lbm_17", PatternKind::Stream, 192 * k * f, 6, 19),
        (
            "spec.libquantum_06",
            PatternKind::Stream,
            128 * k * f,
            6,
            20,
        ),
        ("spec.bwaves_06", PatternKind::Stream, 96 * k * f, 7, 21),
        ("spec.bwaves_17", PatternKind::Stream, 112 * k * f, 7, 22),
        ("spec.leslie3d_06", PatternKind::Stream, 80 * k * f, 7, 23),
        ("spec.milc_06", PatternKind::Strided, 96 * k * f, 7, 24),
        ("spec.gemsfdtd_06", PatternKind::Strided, 80 * k * f, 7, 25),
        ("spec.soplex_06", PatternKind::SpMV, 64 * k * f, 6, 26),
        ("spec.cactusadm_06", PatternKind::Stencil, 64 * k * f, 7, 27),
        ("spec.cactubssn_17", PatternKind::Stencil, 96 * k * f, 7, 28),
        ("spec.zeusmp_06", PatternKind::Stencil, 48 * k * f, 7, 29),
        ("spec.wrf_17", PatternKind::Stencil, 56 * k * f, 8, 30),
        ("spec.roms_17", PatternKind::Stencil, 72 * k * f, 7, 31),
        ("spec.fotonik3d_17", PatternKind::Stencil, 88 * k * f, 6, 32),
        (
            "spec.sphinx3_06",
            PatternKind::RandomAccess,
            48 * k * f,
            7,
            33,
        ),
        ("spec.xz_17", PatternKind::BranchyMixed, 64 * k * f, 7, 34),
    ];
    defs.into_iter()
        .map(|(name, kind, elems, alu, seed)| SpecWorkload::new(name, kind, elems, alu, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountingSink;
    use crate::source::capture;

    #[test]
    fn twenty_four_workloads_with_unique_names() {
        let ws = spec_workloads(SpecScale::Tiny);
        assert_eq!(ws.len(), 24);
        let names: std::collections::HashSet<&str> = ws.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 24, "duplicate workload names");
        assert!(ws.iter().all(|w| w.suite() == Suite::Spec));
    }

    #[test]
    fn every_engine_emits_and_terminates() {
        for w in spec_workloads(SpecScale::Tiny) {
            let recs = capture(&w, 5_000);
            assert_eq!(recs.len(), 5_000, "{} under-emitted", w.name());
            assert!(
                recs.iter().any(|r| r.op.is_load()),
                "{} emits no loads",
                w.name()
            );
        }
    }

    #[test]
    fn pointer_chase_loads_are_dependent() {
        let w = SpecWorkload::new("t", PatternKind::PointerChase, 4096, 1, 1);
        let recs = capture(&w, 2_000);
        let chases: Vec<_> = recs
            .iter()
            .filter(|r| r.op.is_load() && r.src1 == Some(regs::PTR) && r.dst == Some(regs::PTR))
            .collect();
        assert!(
            chases.len() > 100,
            "expected dependent chase loads, got {}",
            chases.len()
        );
    }

    #[test]
    fn stream_addresses_are_sequential() {
        let w = SpecWorkload::new("t", PatternKind::Stream, 4096, 1, 1);
        let recs = capture(&w, 1_000);
        let a_loads: Vec<u64> = recs
            .iter()
            .filter(|r| r.op.is_load() && r.addr >= layout::ARRAY_A && r.addr < layout::ARRAY_B)
            .map(|r| r.addr)
            .collect();
        assert!(a_loads.len() > 10);
        assert!(
            a_loads.windows(2).all(|w| w[1] == w[0] + 8),
            "stream is not unit-stride"
        );
    }

    #[test]
    fn strided_addresses_have_constant_stride() {
        let w = SpecWorkload::new("t", PatternKind::Strided, 65536, 1, 1);
        let recs = capture(&w, 1_000);
        let loads: Vec<u64> = recs
            .iter()
            .filter(|r| r.op.is_load())
            .map(|r| r.addr)
            .collect();
        let deltas: std::collections::HashSet<i64> = loads
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        assert_eq!(deltas.len(), 1, "strided engine drifted: {deltas:?}");
    }

    #[test]
    fn generation_is_deterministic_per_pass() {
        let a = capture(
            &SpecWorkload::new("t", PatternKind::BranchyMixed, 8192, 1, 7),
            3_000,
        );
        let b = capture(
            &SpecWorkload::new("t", PatternKind::BranchyMixed, 8192, 1, 7),
            3_000,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn branchy_engine_emits_unbiased_branches() {
        let w = SpecWorkload::new("t", PatternKind::BranchyMixed, 8192, 1, 3);
        let mut sink = CountingSink::with_budget(10_000);
        let mut pass = 0;
        while !sink.is_closed() {
            w.generate(pass, &mut sink);
            pass += 1;
        }
        assert!(sink.branches() * 100 / sink.total() > 10);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_working_set_rejected() {
        let _ = SpecWorkload::new("t", PatternKind::Stream, 0, 1, 1);
    }
}
