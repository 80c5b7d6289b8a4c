//! ChampSim trace import: the paper's evaluation traces are ChampSim
//! SimPoints (three Zenodo volumes); this module reads that record layout
//! and converts it into [`TraceRecord`] streams so external traces become
//! first-class workloads (the `trace:` namespace).
//!
//! A ChampSim x86 trace is a flat array of 64-byte `input_instr` records
//! (typically xz-compressed on disk; this importer reads the decompressed
//! form):
//!
//! ```text
//! ip                      u64 le
//! is_branch               u8
//! branch_taken            u8
//! destination_registers   2 × u8   (0 = invalid)
//! source_registers        4 × u8   (0 = invalid)
//! destination_memory      2 × u64 le (0 = none)
//! source_memory           4 × u64 le (0 = none)
//! ```
//!
//! The layout carries no branch target, so the importer runs one
//! instruction of lookahead: a taken branch's target is the next
//! instruction's `ip` (that is where the traced execution went), a
//! not-taken branch targets its fall-through. Memory operands fan out
//! into one load/store record each, sharing the instruction's `ip`, which
//! matches how the simulator's front end counts instructions.

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

use tlp_trace::{Reg, TraceRecord};

use crate::v2::ReadTraceError;

/// Encoded size of one ChampSim `input_instr`.
pub const CHAMPSIM_RECORD_LEN: usize = 64;

/// One decoded ChampSim instruction (the on-disk `input_instr` layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChampSimInstr {
    /// Instruction pointer.
    pub ip: u64,
    /// Nonzero for branches.
    pub is_branch: u8,
    /// Nonzero for taken branches.
    pub branch_taken: u8,
    /// Destination registers (0 = invalid).
    pub destination_registers: [u8; 2],
    /// Source registers (0 = invalid).
    pub source_registers: [u8; 4],
    /// Store addresses (0 = none).
    pub destination_memory: [u64; 2],
    /// Load addresses (0 = none).
    pub source_memory: [u64; 4],
}

impl ChampSimInstr {
    /// Decodes one 64-byte record.
    #[must_use]
    pub fn decode(buf: &[u8; CHAMPSIM_RECORD_LEN]) -> Self {
        let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().expect("8 bytes"));
        Self {
            ip: u64_at(0),
            is_branch: buf[8],
            branch_taken: buf[9],
            destination_registers: [buf[10], buf[11]],
            source_registers: [buf[12], buf[13], buf[14], buf[15]],
            destination_memory: [u64_at(16), u64_at(24)],
            source_memory: [u64_at(32), u64_at(40), u64_at(48), u64_at(56)],
        }
    }

    /// Encodes into the 64-byte on-disk layout (for synthesizing test
    /// traces; real traces come from ChampSim's tracer).
    #[must_use]
    pub fn encode(&self) -> [u8; CHAMPSIM_RECORD_LEN] {
        let mut out = [0u8; CHAMPSIM_RECORD_LEN];
        out[0..8].copy_from_slice(&self.ip.to_le_bytes());
        out[8] = self.is_branch;
        out[9] = self.branch_taken;
        out[10..12].copy_from_slice(&self.destination_registers);
        out[12..16].copy_from_slice(&self.source_registers);
        for (i, m) in self.destination_memory.iter().enumerate() {
            out[16 + i * 8..24 + i * 8].copy_from_slice(&m.to_le_bytes());
        }
        for (i, m) in self.source_memory.iter().enumerate() {
            out[32 + i * 8..40 + i * 8].copy_from_slice(&m.to_le_bytes());
        }
        out
    }
}

/// ChampSim register 0 is "invalid"; everything else folds into the
/// simulator's 64-register namespace.
fn reg(r: u8) -> Option<Reg> {
    if r == 0 {
        None
    } else {
        Some(Reg(r % Reg::COUNT as u8))
    }
}

/// Converts one instruction into its [`TraceRecord`] fan-out, given the
/// next instruction's `ip` (the taken-branch target).
fn convert(instr: &ChampSimInstr, next_ip: u64, out: &mut Vec<TraceRecord>) {
    let dst = instr.destination_registers.iter().copied().find_map(reg);
    let srcs = {
        let mut it = instr.source_registers.iter().copied().filter_map(reg);
        [it.next(), it.next()]
    };
    let mut emitted_mem = false;
    for &addr in &instr.source_memory {
        if addr != 0 {
            out.push(TraceRecord::load(
                instr.ip,
                addr,
                8,
                dst.unwrap_or(Reg(0)),
                srcs,
            ));
            emitted_mem = true;
        }
    }
    for &addr in &instr.destination_memory {
        if addr != 0 {
            out.push(TraceRecord::store(instr.ip, addr, 8, srcs[0], srcs[1]));
            emitted_mem = true;
        }
    }
    if instr.is_branch != 0 {
        let taken = instr.branch_taken != 0;
        let target = if taken {
            next_ip
        } else {
            instr.ip.wrapping_add(4)
        };
        out.push(TraceRecord::branch(instr.ip, taken, target, srcs[0]));
    } else if !emitted_mem {
        out.push(TraceRecord::alu(instr.ip, dst, srcs));
    }
}

/// Reads a (decompressed) ChampSim trace file into [`TraceRecord`]s.
///
/// # Errors
///
/// Returns [`ReadTraceError::Io`] on read failure and
/// [`ReadTraceError::Corrupt`] when the file is empty or not a whole
/// number of 64-byte records.
pub fn read_champsim(path: impl AsRef<Path>) -> Result<Vec<TraceRecord>, ReadTraceError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut out = Vec::new();
    let mut prev: Option<ChampSimInstr> = None;
    let mut buf = [0u8; CHAMPSIM_RECORD_LEN];
    loop {
        // read_exact would error mid-record without telling us how much it
        // consumed; fill manually so a trailing partial record is detected.
        let mut filled = 0;
        while filled < CHAMPSIM_RECORD_LEN {
            let n = r.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        if filled == 0 {
            break;
        }
        if filled < CHAMPSIM_RECORD_LEN {
            return Err(ReadTraceError::Corrupt("truncated champsim record"));
        }
        let instr = ChampSimInstr::decode(&buf);
        if let Some(p) = prev {
            convert(&p, instr.ip, &mut out);
        }
        prev = Some(instr);
    }
    match prev {
        // The last instruction has no successor; a taken branch there
        // falls back to its fall-through as the best available target.
        Some(p) => {
            let next_ip = p.ip.wrapping_add(4);
            convert(&p, next_ip, &mut out);
        }
        None => return Err(ReadTraceError::Corrupt("empty trace")),
    }
    Ok(out)
}

/// Writes instructions in the ChampSim on-disk layout (testing/CI helper).
///
/// # Errors
///
/// Returns the underlying I/O error on failure.
pub fn write_champsim(path: impl AsRef<Path>, instrs: &[ChampSimInstr]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(File::create(path)?);
    for i in instrs {
        f.write_all(&i.encode())?;
    }
    f.flush()
}

/// Synthesizes a deterministic ChampSim instruction stream: a pointer-
/// chase-flavoured loop with loads, stores, ALU filler and a loop branch.
/// Used by tests and the CI import smoke; `seed` varies the address
/// stream.
#[must_use]
pub fn synthetic_champsim(n: usize, seed: u64) -> Vec<ChampSimInstr> {
    let mut out = Vec::with_capacity(n);
    let mut x = seed | 1;
    let base = 0x0040_0000u64;
    for i in 0..n {
        // xorshift64 keeps the stream deterministic and irregular.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let site = (i % 8) as u64;
        let ip = base + site * 4;
        let instr = match i % 8 {
            0 | 3 | 5 => ChampSimInstr {
                ip,
                destination_registers: [3, 0],
                source_registers: [1, 0, 0, 0],
                source_memory: [0x1000_0000 + (x % 0x10_0000) * 64, 0, 0, 0],
                ..Default::default()
            },
            6 => ChampSimInstr {
                ip,
                source_registers: [3, 2, 0, 0],
                destination_memory: [0x2000_0000 + (x % 0x1000) * 64, 0],
                ..Default::default()
            },
            7 => ChampSimInstr {
                ip,
                is_branch: 1,
                branch_taken: u8::from(i + 1 < n),
                source_registers: [4, 0, 0, 0],
                ..Default::default()
            },
            _ => ChampSimInstr {
                ip,
                destination_registers: [5, 0],
                source_registers: [3, 5, 0, 0],
                ..Default::default()
            },
        };
        out.push(instr);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_trace::Op;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tlp-champsim-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("trace.champsim")
    }

    #[test]
    fn instr_encode_decode_roundtrip() {
        let instrs = synthetic_champsim(100, 7);
        for i in &instrs {
            assert_eq!(ChampSimInstr::decode(&i.encode()), *i);
        }
    }

    #[test]
    fn import_maps_every_operand_class() {
        let path = tmp("map");
        write_champsim(&path, &synthetic_champsim(4000, 42)).expect("write");
        let recs = read_champsim(&path).expect("import");
        assert!(!recs.is_empty());
        let count = |op: Op| recs.iter().filter(|r| r.op == op).count();
        assert!(count(Op::Load) > 0, "loads must survive import");
        assert!(count(Op::Store) > 0, "stores must survive import");
        assert!(count(Op::Alu) > 0, "alu filler must survive import");
        assert!(count(Op::Branch) > 0, "branches must survive import");
        for r in &recs {
            if r.op.is_mem() {
                assert!(r.addr != 0 && r.size == 8);
            } else {
                assert_eq!((r.addr, r.size), (0, 0));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn taken_branch_targets_next_instruction_ip() {
        let path = tmp("lookahead");
        let instrs = vec![
            ChampSimInstr {
                ip: 0x400,
                is_branch: 1,
                branch_taken: 1,
                ..Default::default()
            },
            ChampSimInstr {
                ip: 0x9000,
                is_branch: 1,
                branch_taken: 0,
                ..Default::default()
            },
        ];
        write_champsim(&path, &instrs).expect("write");
        let recs = read_champsim(&path).expect("import");
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].taken, recs[0].target), (true, 0x9000));
        // Not-taken branches target their fall-through.
        assert_eq!((recs[1].taken, recs[1].target), (false, 0x9004));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated_and_empty_files() {
        let path = tmp("truncated");
        std::fs::write(&path, [0u8; CHAMPSIM_RECORD_LEN + 17]).expect("write");
        assert!(matches!(
            read_champsim(&path),
            Err(ReadTraceError::Corrupt("truncated champsim record"))
        ));
        std::fs::write(&path, []).expect("write");
        assert!(matches!(
            read_champsim(&path),
            Err(ReadTraceError::Corrupt("empty trace"))
        ));
        std::fs::remove_file(&path).ok();
    }
}
