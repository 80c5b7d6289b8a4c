//! The instruction record: the unit of communication between workload
//! generators and the CPU model.

/// An architectural register name.
///
/// The simulator models a flat namespace of 64 registers; workload
/// generators use fixed conventions (e.g. a pointer-chase keeps its cursor
/// in one register so that successive loads are truly dependent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// Number of architectural registers the simulator models.
    pub const COUNT: usize = 64;

    /// Creates a register, panicking when out of range.
    ///
    /// # Panics
    ///
    /// Panics if `r >= Reg::COUNT`.
    #[must_use]
    pub fn new(r: u8) -> Self {
        assert!((r as usize) < Self::COUNT, "register {r} out of range");
        Self(r)
    }

    /// Index into register-file-shaped arrays.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Instruction class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Memory load; `addr`/`size` are valid, result lands in `dst`.
    Load,
    /// Memory store; `addr`/`size` are valid, data comes from `src1`.
    Store,
    /// Integer ALU operation (1-cycle latency).
    Alu,
    /// Floating-point operation (multi-cycle latency).
    Fp,
    /// Conditional branch; `taken`/`target` are valid.
    Branch,
}

impl Op {
    /// True for [`Op::Load`].
    #[inline]
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, Op::Load)
    }

    /// True for [`Op::Store`].
    #[inline]
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(self, Op::Store)
    }

    /// True for loads and stores.
    #[inline]
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, Op::Load | Op::Store)
    }

    /// True for [`Op::Branch`].
    #[inline]
    #[must_use]
    pub fn is_branch(self) -> bool {
        matches!(self, Op::Branch)
    }
}

/// One dynamic instruction, in the spirit of a ChampSim trace entry but with
/// named register operands so that dependency chains are explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Program counter of this instruction.
    pub pc: u64,
    /// Instruction class.
    pub op: Op,
    /// Destination register (loads, ALU, FP).
    pub dst: Option<Reg>,
    /// First source register.
    pub src1: Option<Reg>,
    /// Second source register.
    pub src2: Option<Reg>,
    /// Virtual address for memory operations; 0 otherwise.
    pub addr: u64,
    /// Access size in bytes for memory operations; 0 otherwise.
    pub size: u8,
    /// Branch outcome (valid for branches).
    pub taken: bool,
    /// Branch target (valid for branches).
    pub target: u64,
}

impl TraceRecord {
    /// A load of `size` bytes at `addr` into `dst`, addressed by `srcs`.
    #[must_use]
    pub fn load(pc: u64, addr: u64, size: u8, dst: Reg, srcs: [Option<Reg>; 2]) -> Self {
        Self {
            pc,
            op: Op::Load,
            dst: Some(dst),
            src1: srcs[0],
            src2: srcs[1],
            addr,
            size,
            taken: false,
            target: 0,
        }
    }

    /// A store of `size` bytes at `addr`, data from `data`, address from `addr_reg`.
    #[must_use]
    pub fn store(pc: u64, addr: u64, size: u8, data: Option<Reg>, addr_reg: Option<Reg>) -> Self {
        Self {
            pc,
            op: Op::Store,
            dst: None,
            src1: data,
            src2: addr_reg,
            addr,
            size,
            taken: false,
            target: 0,
        }
    }

    /// An integer ALU op writing `dst`, reading `srcs`.
    #[must_use]
    pub fn alu(pc: u64, dst: Option<Reg>, srcs: [Option<Reg>; 2]) -> Self {
        Self {
            pc,
            op: Op::Alu,
            dst,
            src1: srcs[0],
            src2: srcs[1],
            addr: 0,
            size: 0,
            taken: false,
            target: 0,
        }
    }

    /// A floating-point op writing `dst`, reading `srcs`.
    #[must_use]
    pub fn fp(pc: u64, dst: Option<Reg>, srcs: [Option<Reg>; 2]) -> Self {
        Self {
            op: Op::Fp,
            ..Self::alu(pc, dst, srcs)
        }
    }

    /// A conditional branch with outcome `taken` and target `target`,
    /// conditioned on `src`.
    #[must_use]
    pub fn branch(pc: u64, taken: bool, target: u64, src: Option<Reg>) -> Self {
        Self {
            pc,
            op: Op::Branch,
            dst: None,
            src1: src,
            src2: None,
            addr: 0,
            size: 0,
            taken,
            target,
        }
    }

    /// Cache-line address (64-byte lines) for memory operations.
    #[inline]
    #[must_use]
    pub fn line_addr(&self) -> u64 {
        self.addr >> 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_operands() {
        let l = TraceRecord::load(0x400, 0x1000, 8, Reg(2), [Some(Reg(1)), None]);
        assert!(l.op.is_load() && l.op.is_mem());
        assert_eq!(l.dst, Some(Reg(2)));
        assert_eq!(l.src1, Some(Reg(1)));

        let s = TraceRecord::store(0x404, 0x2000, 4, Some(Reg(3)), Some(Reg(4)));
        assert!(s.op.is_store());
        assert_eq!(s.dst, None);

        let b = TraceRecord::branch(0x408, true, 0x400, Some(Reg(5)));
        assert!(b.op.is_branch() && b.taken);
        assert_eq!(b.target, 0x400);
    }

    #[test]
    fn line_addr_strips_offset() {
        let l = TraceRecord::load(0, 0x1043, 4, Reg(0), [None, None]);
        assert_eq!(l.line_addr(), 0x41);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_new_validates() {
        let _ = Reg::new(64);
    }
}
