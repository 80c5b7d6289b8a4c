//! The [`Workload`] trait and the [`Emitter`] helper that generators use to
//! produce well-formed instruction streams.

use crate::record::{Reg, TraceRecord};
use crate::sink::TraceSink;

/// Benchmark suite a workload belongs to (drives the SPEC/GAP grouping the
/// paper uses in every figure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU 2006/2017-like workloads.
    Spec,
    /// GAP graph-analytics workloads.
    Gap,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::Spec => write!(f, "SPEC"),
            Suite::Gap => write!(f, "GAP"),
        }
    }
}

/// A deterministic, restartable workload generator.
///
/// `generate` runs one numbered pass of the workload (e.g. one BFS from
/// the pass's root) and must return promptly once the sink closes. A pass
/// is a pure function of the workload and its index: [`crate::capture`]
/// runs passes 0, 1, 2, … until its budget is met, so capturing the same
/// workload twice, on any thread, records the same trace. A pass does not
/// need to be longer than the natural length of the kernel.
pub trait Workload: Send + Sync {
    /// Stable, unique workload name (e.g. `"bfs.kron"` or `"spec.mcf_06"`).
    fn name(&self) -> &str;

    /// Which suite the workload belongs to.
    fn suite(&self) -> Suite;

    /// Runs pass `pass`, pushing records into `sink`.
    fn generate(&self, pass: u64, sink: &mut dyn TraceSink);

    /// For workloads backed by an on-disk trace file (the `trace:` plugin
    /// namespace), the path to stream records from instead of generating.
    ///
    /// Generator-backed catalog workloads return `None` (the default); the
    /// harness then captures via [`generate`](Self::generate) as usual.
    fn trace_path(&self) -> Option<&std::path::Path> {
        None
    }
}

/// Convenience wrapper every generator uses to emit records.
///
/// The emitter
/// * derives stable per-site PCs from a per-workload code base address
///   (each call site passes a small `site` id, modelling a static
///   instruction),
/// * tracks liveness so kernels can cheaply bail out when the sink closes,
/// * provides shorthand for the common "load–use", "loop branch" and
///   "ALU padding" idioms.
pub struct Emitter<'a> {
    sink: &'a mut dyn TraceSink,
    code_base: u64,
    live: bool,
    emitted: u64,
}

impl<'a> Emitter<'a> {
    /// Wraps a sink; `code_base` is the base virtual address of the
    /// workload's (pseudo) text segment.
    pub fn new(sink: &'a mut dyn TraceSink, code_base: u64) -> Self {
        let live = !sink.is_closed();
        Self {
            sink,
            code_base,
            live,
            emitted: 0,
        }
    }

    /// PC of static instruction `site`.
    #[inline]
    #[must_use]
    pub fn pc(&self, site: u32) -> u64 {
        self.code_base + u64::from(site) * 4
    }

    /// True while the sink still accepts records.
    #[inline]
    #[must_use]
    pub fn live(&self) -> bool {
        self.live
    }

    /// Number of records emitted through this emitter.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    #[inline]
    fn push(&mut self, rec: TraceRecord) -> bool {
        if self.live {
            self.live = self.sink.emit(rec);
            self.emitted += 1;
        }
        self.live
    }

    /// Emits a load of 8 bytes (the dominant GAP/SPEC access size is 4 or 8;
    /// use [`Emitter::load_sized`] for other widths).
    #[inline]
    pub fn load(&mut self, site: u32, addr: u64, dst: Reg, srcs: [Option<Reg>; 2]) -> bool {
        self.load_sized(site, addr, 8, dst, srcs)
    }

    /// Emits a load of `size` bytes.
    #[inline]
    pub fn load_sized(
        &mut self,
        site: u32,
        addr: u64,
        size: u8,
        dst: Reg,
        srcs: [Option<Reg>; 2],
    ) -> bool {
        let pc = self.pc(site);
        self.push(TraceRecord::load(pc, addr, size, dst, srcs))
    }

    /// Emits an 8-byte store.
    #[inline]
    pub fn store(
        &mut self,
        site: u32,
        addr: u64,
        data: Option<Reg>,
        addr_reg: Option<Reg>,
    ) -> bool {
        self.store_sized(site, addr, 8, data, addr_reg)
    }

    /// Emits a store of `size` bytes.
    #[inline]
    pub fn store_sized(
        &mut self,
        site: u32,
        addr: u64,
        size: u8,
        data: Option<Reg>,
        addr_reg: Option<Reg>,
    ) -> bool {
        let pc = self.pc(site);
        self.push(TraceRecord::store(pc, addr, size, data, addr_reg))
    }

    /// Emits one integer ALU op.
    #[inline]
    pub fn alu(&mut self, site: u32, dst: Option<Reg>, srcs: [Option<Reg>; 2]) -> bool {
        let pc = self.pc(site);
        self.push(TraceRecord::alu(pc, dst, srcs))
    }

    /// Emits one floating-point op.
    #[inline]
    pub fn fp(&mut self, site: u32, dst: Option<Reg>, srcs: [Option<Reg>; 2]) -> bool {
        let pc = self.pc(site);
        self.push(TraceRecord::fp(pc, dst, srcs))
    }

    /// Emits `n` independent ALU ops (instruction-mix padding).
    pub fn alu_burst(&mut self, site: u32, n: u32) -> bool {
        for _ in 0..n {
            if !self.alu(site, None, [None, None]) {
                return false;
            }
        }
        self.live
    }

    /// Emits a conditional branch at `site` targeting `target_site`.
    #[inline]
    pub fn branch(&mut self, site: u32, taken: bool, target_site: u32, src: Option<Reg>) -> bool {
        let pc = self.pc(site);
        let target = self.pc(target_site);
        self.push(TraceRecord::branch(pc, taken, target, src))
    }

    /// Emits the classic loop-closing branch: taken while `more` holds.
    #[inline]
    pub fn loop_branch(&mut self, site: u32, more: bool, head_site: u32) -> bool {
        self.branch(site, more, head_site, None)
    }

    /// Emits a raw record (escape hatch for unusual shapes).
    pub fn raw(&mut self, rec: TraceRecord) -> bool {
        self.push(rec)
    }
}

impl std::fmt::Debug for Emitter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Emitter")
            .field("code_base", &self.code_base)
            .field("live", &self.live)
            .field("emitted", &self.emitted)
            .finish()
    }
}

/// Register conventions shared by the generators, so that independent code
/// sites do not accidentally serialize on the same register.
pub mod regs {
    use crate::record::Reg;

    /// Loop induction variable.
    pub const IDX: Reg = Reg(1);
    /// Pointer/cursor for dependent (pointer-chase) loads.
    pub const PTR: Reg = Reg(2);
    /// Data value loaded from memory.
    pub const VAL: Reg = Reg(3);
    /// Secondary data value.
    pub const VAL2: Reg = Reg(4);
    /// Accumulator.
    pub const ACC: Reg = Reg(5);
    /// Address scratch register.
    pub const ADDR: Reg = Reg(6);
    /// Comparison/flag register feeding branches.
    pub const FLAG: Reg = Reg(7);
    /// Neighbor-index register (graph kernels).
    pub const NBR: Reg = Reg(8);
    /// Offset-begin register (graph kernels).
    pub const BEG: Reg = Reg(9);
    /// Offset-end register (graph kernels).
    pub const END: Reg = Reg(10);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RecorderSink;

    #[test]
    fn emitter_assigns_site_pcs() {
        let mut sink = RecorderSink::new(16);
        let mut e = Emitter::new(&mut sink, 0x10_000);
        e.load(0, 0x1000, regs::VAL, [None, None]);
        e.alu(1, Some(regs::ACC), [Some(regs::VAL), Some(regs::ACC)]);
        e.loop_branch(2, true, 0);
        let recs = sink.into_records();
        assert_eq!(recs[0].pc, 0x10_000);
        assert_eq!(recs[1].pc, 0x10_004);
        assert_eq!(recs[2].pc, 0x10_008);
        assert_eq!(recs[2].target, 0x10_000);
    }

    #[test]
    fn emitter_goes_dead_when_sink_closes() {
        let mut sink = RecorderSink::new(2);
        let mut e = Emitter::new(&mut sink, 0);
        assert!(e.alu(0, None, [None, None]));
        assert!(!e.alu(0, None, [None, None]));
        assert!(!e.live());
        // Further emissions are silently dropped.
        e.alu(0, None, [None, None]);
        assert_eq!(e.emitted(), 2);
    }

    #[test]
    fn alu_burst_counts() {
        let mut sink = RecorderSink::new(100);
        let mut e = Emitter::new(&mut sink, 0);
        e.alu_burst(5, 7);
        assert_eq!(e.emitted(), 7);
    }
}
