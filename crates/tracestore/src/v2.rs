//! TLPT v2: the compressed, block-structured, streamable trace format.
//!
//! The retired v1 format was a flat array of fixed 29-byte records behind
//! an 18-byte header — simple, but ~6× larger than it needs to be and only
//! usable by materializing the whole trace in memory. Its size survives as
//! the baseline [`v1_bytes`] that compression ratios are quoted against; a
//! v1 file itself is refused with [`ReadTraceError::BadVersion`]. v2 keeps
//! the record model and fixes both:
//!
//! ```text
//! magic   "TLP2"                          4 bytes
//! version u16 le = 2                      2 bytes
//! flags   u16 le (bit 0: looping)         2 bytes
//! name    u16 le length + UTF-8           2 + n bytes
//! blocks  (≤ 65 536 records each; delta state resets per block)
//!   per record:
//!     flags   u8   (op code | taken << 7)
//!     dst/src1/src2  3 × u8 (0xff = none)
//!     Δpc     zigzag LEB128 vs previous record's pc
//!     [mem]   Δaddr zigzag LEB128 + size u8
//!     [branch] Δtarget zigzag LEB128
//! footer
//!   block_count u64 le
//!   per block: offset, byte_len, records, fnv1a checksum (4 × u64 le)
//!   total_records u64 le
//!   bbv_interval u64 le                   (SimPoint interval length)
//!   simpoint_count u64 le
//!   per simpoint: interval u64 le, weight f64 bits u64 le
//! footer_len u64 le                       (bytes of the footer section)
//! magic   "TLPF"                          4 bytes
//! ```
//!
//! The trailing `footer_len + "TLPF"` makes the footer discoverable by
//! seeking from the end, so a reader never scans the record area to find
//! the block index. Every block is independently decodable (the delta
//! state starts from zero at each block boundary) and carries an FNV-1a
//! checksum, verified once at open — [`StreamTrace`] then replays with a
//! single reused block buffer and zero per-record allocation.
//!
//! Fields an op does not carry (e.g. `addr` on an ALU record) are encoded
//! as their canonical zero values, exactly as the [`TraceRecord`]
//! constructors produce them, so capture → v2 → replay is bit-identical.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use tlp_trace::simpoint::SimPoint;
use tlp_trace::{Op, Reg, TraceRecord, TraceSource};

use crate::store::{fnv1a, FNV_OFFSET};

/// Records per block; the delta coder restarts at every block boundary.
pub const BLOCK_RECORDS: usize = 65_536;

const MAGIC2: &[u8; 4] = b"TLP2";
const FOOTER_MAGIC: &[u8; 4] = b"TLPF";
const FLAG_LOOPING: u16 = 1;
const VERSION2: u16 = 2;

/// Worst-case encoded record: flags + 3 regs + three 10-byte varints + size.
const MAX_RECORD_LEN: usize = 1 + 3 + 10 + 10 + 1 + 10;

/// Errors arising when reading a trace file.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with a TLPT magic.
    BadMagic,
    /// The file's format version is not supported.
    BadVersion(u16),
    /// The header or records are truncated or malformed.
    Corrupt(&'static str),
}

impl std::fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ReadTraceError::BadMagic => write!(f, "not a TLPT trace file"),
            ReadTraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            ReadTraceError::Corrupt(what) => write!(f, "corrupt trace file: {what}"),
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

/// Bytes the retired flat v1 format needs for `records` records of
/// workload `name`: an 18-byte header, the name, then 29 bytes per record.
/// The baseline that [`TraceInfo::compression_ratio`] is quoted against.
#[must_use]
pub fn v1_bytes(name: &str, records: u64) -> u64 {
    18 + name.len() as u64 + records * 29
}

fn op_code(op: Op) -> u8 {
    match op {
        Op::Load => 0,
        Op::Store => 1,
        Op::Alu => 2,
        Op::Fp => 3,
        Op::Branch => 4,
    }
}

fn op_from_code(c: u8) -> Option<Op> {
    Some(match c {
        0 => Op::Load,
        1 => Op::Store,
        2 => Op::Alu,
        3 => Op::Fp,
        4 => Op::Branch,
        _ => return None,
    })
}

fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None; // over-long varint
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Per-block delta-coder state; starts from zero at every block boundary.
#[derive(Default, Clone, Copy)]
struct DeltaState {
    pc: u64,
    addr: u64,
    target: u64,
}

fn put_delta(out: &mut Vec<u8>, cur: u64, prev: u64) {
    put_varint(out, zigzag(cur.wrapping_sub(prev) as i64));
}

fn get_delta(buf: &[u8], pos: &mut usize, prev: u64) -> Option<u64> {
    Some(prev.wrapping_add(unzigzag(get_varint(buf, pos)?) as u64))
}

fn reg_byte(r: Option<Reg>) -> u8 {
    r.map_or(0xff, |r| r.0)
}

fn reg_from_byte(b: u8) -> Option<Reg> {
    if b == 0xff {
        None
    } else {
        Some(Reg(b))
    }
}

fn encode_record(out: &mut Vec<u8>, r: &TraceRecord, st: &mut DeltaState) {
    debug_assert!(
        r.op.is_mem() || (r.addr == 0 && r.size == 0),
        "non-memory record with addr/size set is not canonical"
    );
    debug_assert!(
        r.op.is_branch() || r.target == 0,
        "non-branch record with target set is not canonical"
    );
    let mut flags = op_code(r.op);
    if r.taken {
        flags |= 0x80;
    }
    out.push(flags);
    out.push(reg_byte(r.dst));
    out.push(reg_byte(r.src1));
    out.push(reg_byte(r.src2));
    put_delta(out, r.pc, st.pc);
    st.pc = r.pc;
    if r.op.is_mem() {
        put_delta(out, r.addr, st.addr);
        st.addr = r.addr;
        out.push(r.size);
    }
    if r.op.is_branch() {
        put_delta(out, r.target, st.target);
        st.target = r.target;
    }
}

fn decode_record(buf: &[u8], pos: &mut usize, st: &mut DeltaState) -> Option<TraceRecord> {
    let flags = *buf.get(*pos)?;
    *pos += 1;
    let op = op_from_code(flags & 0x7f)?;
    let dst = reg_from_byte(*buf.get(*pos)?);
    let src1 = reg_from_byte(*buf.get(*pos + 1)?);
    let src2 = reg_from_byte(*buf.get(*pos + 2)?);
    *pos += 3;
    let pc = get_delta(buf, pos, st.pc)?;
    st.pc = pc;
    let (mut addr, mut size) = (0u64, 0u8);
    if op.is_mem() {
        addr = get_delta(buf, pos, st.addr)?;
        st.addr = addr;
        size = *buf.get(*pos)?;
        *pos += 1;
    }
    let mut target = 0u64;
    if op.is_branch() {
        target = get_delta(buf, pos, st.target)?;
        st.target = target;
    }
    Some(TraceRecord {
        pc,
        op,
        dst,
        src1,
        src2,
        addr,
        size,
        taken: flags & 0x80 != 0,
        target,
    })
}

/// One entry of the footer's block index.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    /// Byte offset of the block from the start of the file.
    offset: u64,
    /// Encoded length in bytes.
    byte_len: u64,
    /// Records in the block.
    records: u64,
    /// FNV-1a 64 of the encoded bytes.
    checksum: u64,
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let bytes: [u8; 8] = buf.get(*pos..*pos + 8)?.try_into().ok()?;
    *pos += 8;
    Some(u64::from_le_bytes(bytes))
}

/// Serializes a trace into the v2 binary representation.
///
/// `simpoints` and `bbv_interval` land in the footer (pass an empty slice
/// and 0 when phase analysis was not run).
///
/// # Panics
///
/// Panics if `records` is empty or `name` exceeds `u16::MAX` bytes.
#[must_use]
pub fn encode_trace_v2(
    name: &str,
    looping: bool,
    records: &[TraceRecord],
    simpoints: &[SimPoint],
    bbv_interval: usize,
) -> Vec<u8> {
    assert!(!records.is_empty(), "empty trace");
    let name_bytes = name.as_bytes();
    assert!(
        name_bytes.len() <= u16::MAX as usize,
        "workload name too long"
    );
    let mut out = Vec::with_capacity(10 + name_bytes.len() + records.len() * 8);
    out.extend_from_slice(MAGIC2);
    out.extend_from_slice(&VERSION2.to_le_bytes());
    out.extend_from_slice(&(if looping { FLAG_LOOPING } else { 0u16 }).to_le_bytes());
    out.extend_from_slice(&(name_bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(name_bytes);

    let mut blocks: Vec<BlockMeta> = Vec::new();
    for chunk in records.chunks(BLOCK_RECORDS) {
        let offset = out.len() as u64;
        let start = out.len();
        let mut st = DeltaState::default();
        for r in chunk {
            encode_record(&mut out, r, &mut st);
        }
        blocks.push(BlockMeta {
            offset,
            byte_len: (out.len() - start) as u64,
            records: chunk.len() as u64,
            checksum: fnv1a(FNV_OFFSET, &out[start..]),
        });
    }

    let footer_start = out.len();
    put_u64(&mut out, blocks.len() as u64);
    for b in &blocks {
        put_u64(&mut out, b.offset);
        put_u64(&mut out, b.byte_len);
        put_u64(&mut out, b.records);
        put_u64(&mut out, b.checksum);
    }
    put_u64(&mut out, records.len() as u64);
    put_u64(&mut out, bbv_interval as u64);
    put_u64(&mut out, simpoints.len() as u64);
    for sp in simpoints {
        put_u64(&mut out, sp.interval as u64);
        put_u64(&mut out, sp.weight.to_bits());
    }
    let footer_len = (out.len() - footer_start) as u64;
    put_u64(&mut out, footer_len);
    out.extend_from_slice(FOOTER_MAGIC);
    out
}

/// Writes a v2 trace file to `path`, returning the bytes written.
///
/// # Errors
///
/// Returns the underlying I/O error on failure.
///
/// # Panics
///
/// Panics if `records` is empty.
pub fn write_trace_v2(
    path: impl AsRef<Path>,
    name: &str,
    looping: bool,
    records: &[TraceRecord],
    simpoints: &[SimPoint],
    bbv_interval: usize,
) -> std::io::Result<u64> {
    let bytes = encode_trace_v2(name, looping, records, simpoints, bbv_interval);
    let mut f = File::create(path)?;
    f.write_all(&bytes)?;
    f.flush()?;
    Ok(bytes.len() as u64)
}

/// A v2 trace streamed from disk: one reusable block buffer, zero
/// per-record allocation, [`TraceSource`] for direct use in the engine.
///
/// Block checksums are verified once at open, so the steady-state decode
/// path never fails; replay wraps to the first block when the looping flag
/// is set.
pub struct StreamTrace {
    name: String,
    looping: bool,
    file: File,
    blocks: Vec<BlockMeta>,
    total_records: u64,
    bbv_interval: u64,
    simpoints: Vec<SimPoint>,
    file_bytes: u64,
    /// Reused block buffer, sized to the largest block at open.
    buf: Vec<u8>,
    cur_block: usize,
    cur_len: usize,
    pos: usize,
    remaining_in_block: u64,
    st: DeltaState,
}

impl StreamTrace {
    /// Opens a v2 trace file, parsing the footer and verifying every
    /// block's checksum (one streaming pass; replay itself never
    /// re-validates).
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] when the file is not a well-formed v2
    /// trace: wrong magic or version, inconsistent footer, or a block
    /// whose checksum does not match.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ReadTraceError> {
        let mut file = File::open(path)?;
        let file_bytes = file.seek(SeekFrom::End(0))?;

        // Header: magic, version, flags, name.
        let mut header = [0u8; 10];
        if file_bytes < (header.len() + 12) as u64 {
            return Err(ReadTraceError::Corrupt("short header"));
        }
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut header)?;
        if &header[0..4] != MAGIC2 {
            if &header[0..4] == b"TLPT" {
                return Err(ReadTraceError::BadVersion(1));
            }
            return Err(ReadTraceError::BadMagic);
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != VERSION2 {
            return Err(ReadTraceError::BadVersion(version));
        }
        let flags = u16::from_le_bytes([header[6], header[7]]);
        let name_len = u16::from_le_bytes([header[8], header[9]]) as usize;
        let body_start = (header.len() + name_len) as u64;
        if file_bytes < body_start + 12 {
            return Err(ReadTraceError::Corrupt("truncated name"));
        }
        let mut name_bytes = vec![0u8; name_len];
        file.read_exact(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| ReadTraceError::Corrupt("name is not UTF-8"))?;

        // Tail: footer_len + "TLPF", then the footer itself.
        let mut tail = [0u8; 12];
        file.seek(SeekFrom::End(-12))?;
        file.read_exact(&mut tail)?;
        if &tail[8..12] != FOOTER_MAGIC {
            return Err(ReadTraceError::Corrupt("missing footer magic"));
        }
        let footer_len = u64::from_le_bytes(tail[0..8].try_into().expect("8 bytes"));
        let footer_start = (file_bytes - 12)
            .checked_sub(footer_len)
            .filter(|&s| s >= body_start)
            .ok_or(ReadTraceError::Corrupt("footer length out of range"))?;
        let mut footer = vec![0u8; footer_len as usize];
        file.seek(SeekFrom::Start(footer_start))?;
        file.read_exact(&mut footer)?;

        let p = &mut 0usize;
        let bad = || ReadTraceError::Corrupt("truncated footer");
        let block_count = get_u64(&footer, p).ok_or_else(bad)? as usize;
        // A block holds at least one record at one byte each; cap the
        // index size so a corrupt count can't trigger a huge allocation.
        if block_count as u64 > file_bytes {
            return Err(ReadTraceError::Corrupt("block count out of range"));
        }
        let mut blocks = Vec::with_capacity(block_count);
        for _ in 0..block_count {
            let b = BlockMeta {
                offset: get_u64(&footer, p).ok_or_else(bad)?,
                byte_len: get_u64(&footer, p).ok_or_else(bad)?,
                records: get_u64(&footer, p).ok_or_else(bad)?,
                checksum: get_u64(&footer, p).ok_or_else(bad)?,
            };
            let in_body = b.offset >= body_start
                && b.byte_len > 0
                && b.offset
                    .checked_add(b.byte_len)
                    .is_some_and(|end| end <= footer_start);
            let sane = b.records > 0
                && b.records <= BLOCK_RECORDS as u64
                && b.byte_len <= (BLOCK_RECORDS * MAX_RECORD_LEN) as u64;
            if !in_body || !sane {
                return Err(ReadTraceError::Corrupt("block index out of range"));
            }
            blocks.push(b);
        }
        let total_records = get_u64(&footer, p).ok_or_else(bad)?;
        let bbv_interval = get_u64(&footer, p).ok_or_else(bad)?;
        let simpoint_count = get_u64(&footer, p).ok_or_else(bad)? as usize;
        if simpoint_count as u64 > file_bytes {
            return Err(ReadTraceError::Corrupt("simpoint count out of range"));
        }
        let mut simpoints = Vec::with_capacity(simpoint_count);
        for _ in 0..simpoint_count {
            let interval = get_u64(&footer, p).ok_or_else(bad)? as usize;
            let weight = f64::from_bits(get_u64(&footer, p).ok_or_else(bad)?);
            if !weight.is_finite() || weight < 0.0 {
                return Err(ReadTraceError::Corrupt("simpoint weight not finite"));
            }
            simpoints.push(SimPoint { interval, weight });
        }
        if *p != footer.len() {
            return Err(ReadTraceError::Corrupt("trailing bytes in footer"));
        }
        if total_records == 0 || blocks.is_empty() {
            return Err(ReadTraceError::Corrupt("empty trace"));
        }
        if blocks.iter().map(|b| b.records).sum::<u64>() != total_records {
            return Err(ReadTraceError::Corrupt("block records disagree with total"));
        }

        let max_len = blocks.iter().map(|b| b.byte_len).max().expect("non-empty") as usize;
        let mut t = Self {
            name,
            looping: flags & FLAG_LOOPING != 0,
            file,
            blocks,
            total_records,
            bbv_interval,
            simpoints,
            file_bytes,
            buf: vec![0u8; max_len],
            cur_block: 0,
            cur_len: 0,
            pos: 0,
            remaining_in_block: 0,
            st: DeltaState::default(),
        };
        // One verification pass: every block's bytes must match its
        // checksum and decode into exactly `records` records. After this,
        // replay cannot hit corruption and decodes infallibly.
        for i in 0..t.blocks.len() {
            t.load_block(i).map_err(ReadTraceError::Io)?;
            if fnv1a(FNV_OFFSET, &t.buf[..t.cur_len]) != t.blocks[i].checksum {
                return Err(ReadTraceError::Corrupt("block checksum mismatch"));
            }
            let mut st = DeltaState::default();
            let mut pos = 0usize;
            for _ in 0..t.blocks[i].records {
                if decode_record(&t.buf[..t.cur_len], &mut pos, &mut st).is_none() {
                    return Err(ReadTraceError::Corrupt("invalid record"));
                }
            }
            if pos != t.cur_len {
                return Err(ReadTraceError::Corrupt("trailing bytes in block"));
            }
        }
        t.load_block(0).map_err(ReadTraceError::Io)?;
        Ok(t)
    }

    fn load_block(&mut self, i: usize) -> std::io::Result<()> {
        let b = self.blocks[i];
        self.file.seek(SeekFrom::Start(b.offset))?;
        let len = b.byte_len as usize;
        self.file.read_exact(&mut self.buf[..len])?;
        self.cur_block = i;
        self.cur_len = len;
        self.pos = 0;
        self.remaining_in_block = b.records;
        self.st = DeltaState::default();
        Ok(())
    }

    /// Rewinds replay to the first record.
    pub fn rewind(&mut self) {
        self.load_block(0)
            .expect("trace file readable after open-time verification");
    }

    /// Total records in the file (one full pass before looping).
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Number of blocks in the file.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// On-disk size in bytes.
    #[must_use]
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Whether replay wraps at the end of the trace.
    #[must_use]
    pub fn looping(&self) -> bool {
        self.looping
    }

    /// SimPoints recorded in the footer at capture time (may be empty).
    #[must_use]
    pub fn simpoints(&self) -> &[SimPoint] {
        &self.simpoints
    }

    /// The BBV interval length the footer's SimPoints were computed with.
    #[must_use]
    pub fn bbv_interval(&self) -> u64 {
        self.bbv_interval
    }

    /// Decodes the whole trace into memory (for SimPoint slicing), leaving
    /// the stream rewound to the first record.
    #[must_use]
    pub fn read_records(&mut self) -> Vec<TraceRecord> {
        self.rewind();
        let mut out = Vec::with_capacity(self.total_records as usize);
        for _ in 0..self.total_records {
            out.push(self.decode_next().expect("verified trace decodes fully"));
        }
        self.rewind();
        out
    }

    /// One decode step without looping (None at end of last block).
    fn decode_next(&mut self) -> Option<TraceRecord> {
        if self.remaining_in_block == 0 {
            let next = self.cur_block + 1;
            if next >= self.blocks.len() {
                return None;
            }
            self.load_block(next)
                .expect("trace file readable after open-time verification");
        }
        let r = decode_record(&self.buf[..self.cur_len], &mut self.pos, &mut self.st)
            .expect("checksummed block decodes");
        self.remaining_in_block -= 1;
        Some(r)
    }
}

impl TraceSource for StreamTrace {
    fn next_record(&mut self) -> Option<TraceRecord> {
        match self.decode_next() {
            Some(r) => Some(r),
            None => {
                if !self.looping {
                    return None;
                }
                self.rewind();
                self.decode_next()
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for StreamTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamTrace")
            .field("name", &self.name)
            .field("records", &self.total_records)
            .field("blocks", &self.blocks.len())
            .finish_non_exhaustive()
    }
}

/// Header/footer summary of a trace file, for `--trace-info`.
#[derive(Debug, Clone)]
pub struct TraceInfo {
    /// Workload name recorded at capture time.
    pub name: String,
    /// Whether replay loops.
    pub looping: bool,
    /// Total records before looping.
    pub records: u64,
    /// Blocks in the file.
    pub blocks: usize,
    /// On-disk size in bytes.
    pub file_bytes: u64,
    /// Size the same records occupy in the flat v1 encoding ([`v1_bytes`]).
    pub v1_bytes: u64,
    /// SimPoints in the footer (empty when phase analysis was not run).
    pub simpoints: Vec<SimPoint>,
    /// BBV interval the SimPoints were computed with (0 when none were).
    pub bbv_interval: u64,
}

impl TraceInfo {
    /// v1-equivalent size over actual size (how much smaller v2 is).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        self.v1_bytes as f64 / self.file_bytes as f64
    }
}

/// Reads the header/footer summary of a v2 trace file.
///
/// # Errors
///
/// Returns [`ReadTraceError`] when the file cannot be read or parsed; a
/// v1 file is [`ReadTraceError::BadVersion`]`(1)`.
pub fn trace_info(path: impl AsRef<Path>) -> Result<TraceInfo, ReadTraceError> {
    let t = StreamTrace::open(path)?;
    Ok(TraceInfo {
        v1_bytes: v1_bytes(t.name(), t.total_records()),
        name: t.name().to_owned(),
        looping: t.looping(),
        records: t.total_records(),
        blocks: t.blocks(),
        file_bytes: t.file_bytes(),
        simpoints: t.simpoints().to_vec(),
        bbv_interval: t.bbv_interval(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tlp-v2-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("trace.tlpt")
    }

    /// A retired v1 file: magic "TLPT", version 1, then zeroed flags,
    /// record count and name length, padded past the 22-byte short-header
    /// check so the magic and version are what gets judged.
    fn v1_file() -> Vec<u8> {
        let mut bytes = b"TLPT\x01\x00".to_vec();
        bytes.resize(32, 0);
        bytes
    }

    /// A mixed record stream exercising every op and delta polarity.
    fn mixed_records(n: usize) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(n);
        let mut addr = 0x10_0000u64;
        for i in 0..n {
            let pc = 0x400 + (i as u64 % 13) * 4;
            match i % 5 {
                0 => out.push(TraceRecord::load(pc, addr, 8, Reg(3), [Some(Reg(1)), None])),
                1 => out.push(TraceRecord::store(pc, addr ^ 0xfff0, 4, Some(Reg(2)), None)),
                2 => out.push(TraceRecord::alu(
                    pc,
                    Some(Reg(5)),
                    [Some(Reg(3)), Some(Reg(5))],
                )),
                3 => out.push(TraceRecord::fp(pc, Some(Reg(9)), [None, Some(Reg(9))])),
                _ => out.push(TraceRecord::branch(pc, i % 2 == 0, 0x400, Some(Reg(7)))),
            }
            // Wander both up and down so deltas change sign.
            addr = addr.wrapping_add(if i % 3 == 0 { 0x40 } else { u64::MAX - 0x17 });
            if i % 97 == 0 {
                addr = addr.wrapping_mul(0x9e37_79b9_7f4a_7c15); // occasional big jump
            }
        }
        out
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, 64, 300, -300, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v, "zigzag {v}");
        }
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn roundtrip_is_bit_exact_across_blocks() {
        // More than one block so per-block delta resets are exercised.
        let recs = mixed_records(BLOCK_RECORDS + 1234);
        let path = tmp("roundtrip");
        let sps = vec![SimPoint {
            interval: 3,
            weight: 1.0,
        }];
        write_trace_v2(&path, "mixed", true, &recs, &sps, 10_000).expect("write");
        let mut t = StreamTrace::open(&path).expect("open");
        assert_eq!(t.name(), "mixed");
        assert!(t.looping());
        assert_eq!(t.total_records(), recs.len() as u64);
        assert_eq!(t.blocks(), 2);
        assert_eq!(t.simpoints(), &sps[..]);
        assert_eq!(t.bbv_interval(), 10_000);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(t.next_record().as_ref(), Some(r), "record {i}");
        }
        // Looping wraps back to record 0 with reset delta state.
        assert_eq!(t.next_record().as_ref(), Some(&recs[0]));
        assert_eq!(t.next_record().as_ref(), Some(&recs[1]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_records_materializes_and_rewinds() {
        let recs = mixed_records(5000);
        let path = tmp("materialize");
        write_trace_v2(&path, "m", false, &recs, &[], 0).expect("write");
        let mut t = StreamTrace::open(&path).expect("open");
        assert_eq!(t.read_records(), recs);
        // Still replays from the start afterwards.
        assert_eq!(t.next_record().as_ref(), Some(&recs[0]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_looping_stream_ends() {
        let recs = mixed_records(100);
        let path = tmp("finite");
        write_trace_v2(&path, "f", false, &recs, &[], 0).expect("write");
        let mut t = StreamTrace::open(&path).expect("open");
        for _ in 0..100 {
            assert!(t.next_record().is_some());
        }
        assert!(t.next_record().is_none());
        assert!(t.next_record().is_none(), "stays exhausted");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_info_reports_both_generations() {
        let recs = mixed_records(400);
        let dir = tmp("info");
        let v1 = dir.with_file_name("info1.tlpt");
        let v2 = dir.with_file_name("info2.tlpt");
        std::fs::write(&v1, v1_file()).expect("v1 write");
        let sps = vec![SimPoint {
            interval: 0,
            weight: 1.0,
        }];
        write_trace_v2(&v2, "w", true, &recs, &sps, 100).expect("v2 write");
        // v1 is refused by name; v2 is summarized against v1's flat size.
        let e = trace_info(&v1).expect_err("v1 is not readable");
        assert!(matches!(e, ReadTraceError::BadVersion(1)));
        assert_eq!(e.to_string(), "unsupported trace version 1");
        let i2 = trace_info(&v2).expect("info v2");
        assert_eq!((i2.name.as_str(), i2.looping, i2.records), ("w", true, 400));
        assert_eq!((i2.blocks, i2.bbv_interval), (1, 100));
        assert_eq!(i2.simpoints, sps);
        assert_eq!(i2.v1_bytes, 18 + 1 + 400 * 29);
        assert_eq!(i2.file_bytes, std::fs::metadata(&v2).expect("stat").len());
        assert!(
            i2.compression_ratio() > 1.5,
            "even adversarial mixed records compress: {:.2}",
            i2.compression_ratio()
        );
        std::fs::remove_file(&v1).ok();
        std::fs::remove_file(&v2).ok();
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let recs = mixed_records(2000);
        let bytes = encode_trace_v2("c", true, &recs, &[], 0);
        let path = tmp("fuzz");
        // Deterministic fuzz smoke: truncations and single-byte flips at
        // positions spread over the whole file must never panic, and
        // payload damage must be detected (header/name damage may also
        // surface as BadMagic/BadVersion, which is fine — it must only
        // never succeed with different records).
        let mut lcg = 0x1234_5678_9abc_def0u64;
        for i in 0..64 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let cut = (lcg as usize) % bytes.len();
            std::fs::write(&path, &bytes[..cut]).expect("write truncated");
            assert!(StreamTrace::open(&path).is_err(), "truncation {i} at {cut}");

            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let flip = (lcg as usize) % bytes.len();
            let mut mutated = bytes.clone();
            mutated[flip] ^= 0x01 << (lcg >> 60 & 0x7);
            if mutated[flip] == bytes[flip] {
                continue;
            }
            std::fs::write(&path, &mutated).expect("write mutated");
            match StreamTrace::open(&path) {
                Err(_) => {}
                Ok(mut t) => {
                    // A flip inside the name or flags can still parse; the
                    // records themselves must then be untouched.
                    let got: Vec<TraceRecord> = (0..recs.len())
                        .map(|_| t.next_record().expect("len"))
                        .collect();
                    assert_eq!(got, recs, "flip {i} at {flip} silently altered records");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_magic_with_right_error() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOPE-not-a-trace-file-at-all....").expect("write");
        assert!(matches!(
            StreamTrace::open(&path),
            Err(ReadTraceError::BadMagic)
        ));
        // A v1 file handed to the v2 opener names the version.
        std::fs::write(&path, v1_file()).expect("v1 write");
        assert!(matches!(
            StreamTrace::open(&path),
            Err(ReadTraceError::BadVersion(1))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = StreamTrace::open("/nonexistent/path/trace.tlpt").unwrap_err();
        assert!(matches!(err, ReadTraceError::Io(_)));
        assert!(err.to_string().contains("i/o error"));
    }

    #[test]
    fn error_display_is_meaningful() {
        assert!(ReadTraceError::BadMagic.to_string().contains("TLPT"));
        assert!(ReadTraceError::BadVersion(7).to_string().contains('7'));
        assert!(ReadTraceError::Corrupt("short header")
            .to_string()
            .contains("short header"));
    }
}
