//! Lossless (de)serialization of [`SimReport`] for the harness's on-disk
//! result cache.
//!
//! The workspace builds offline with no serialization framework, so this
//! module hand-rolls the JSON codec. The format is what a derived
//! `serde_json` encoding would look like:
//! one object per struct, field names as keys, `[u64; 4]` arrays as JSON
//! arrays. Every counter in a report is a `u64` and round-trips exactly;
//! there are no floats in the format, so the codec is lossless by
//! construction (pinned by `report_roundtrip` property tests).
//!
//! The generic [`Value`] layer ([`parse_value`], [`escape`],
//! [`report_from_value`]) is public: `tlp-serve` builds its
//! length-prefixed protocol payloads (requests, per-cell result frames,
//! summaries) on this same codec instead of inventing a second wire
//! format.

use std::fmt;

use crate::stats::{
    CacheStats, CoreReport, CoreStats, DramStats, OffChipStats, PrefetchStats, SimReport,
};
use crate::victim::VictimStats;

/// A malformed cache file: where parsing stopped and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerialError {
    /// Byte offset the parser had reached.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SerialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for SerialError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Escapes `s` as a JSON string literal (including the surrounding
/// quotes) — the building block for hand-assembled payloads.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    esc(s, &mut out);
    out
}

fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Incremental JSON-object writer (fields in declaration order).
struct ObjWriter {
    out: String,
    first: bool,
}

impl ObjWriter {
    fn new() -> Self {
        Self {
            out: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        esc(name, &mut self.out);
        self.out.push(':');
    }

    fn num(&mut self, name: &str, v: u64) {
        self.key(name);
        self.out.push_str(&v.to_string());
    }

    fn arr4(&mut self, name: &str, v: &[u64; 4]) {
        self.key(name);
        self.out.push('[');
        for (i, x) in v.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(&x.to_string());
        }
        self.out.push(']');
    }

    fn raw(&mut self, name: &str, v: &str) {
        self.key(name);
        self.out.push_str(v);
    }

    fn str_field(&mut self, name: &str, v: &str) {
        self.key(name);
        esc(v, &mut self.out);
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

fn cache_stats_json(s: &CacheStats) -> String {
    let mut o = ObjWriter::new();
    o.num("demand_hits", s.demand_hits);
    o.num("demand_misses", s.demand_misses);
    o.num("prefetch_hits", s.prefetch_hits);
    o.num("prefetch_misses", s.prefetch_misses);
    o.num("prefetch_fills", s.prefetch_fills);
    o.num("prefetch_useful", s.prefetch_useful);
    o.num("prefetch_useless", s.prefetch_useless);
    o.num("writebacks", s.writebacks);
    o.num("mshr_stalls", s.mshr_stalls);
    o.finish()
}

fn dram_stats_json(s: &DramStats) -> String {
    let mut o = ObjWriter::new();
    o.num("reads", s.reads);
    o.num("spec_reads", s.spec_reads);
    o.num("writes", s.writes);
    o.num("row_hits", s.row_hits);
    o.num("row_conflicts", s.row_conflicts);
    o.num("read_queue_full", s.read_queue_full);
    o.num("spec_dropped", s.spec_dropped);
    o.num("spec_consumed", s.spec_consumed);
    o.num("spec_wasted", s.spec_wasted);
    o.finish()
}

fn offchip_stats_json(s: &OffChipStats) -> String {
    let mut o = ObjWriter::new();
    o.num("issued_now", s.issued_now);
    o.num("tagged_delayed", s.tagged_delayed);
    o.num("delayed_issued", s.delayed_issued);
    o.num("predicted_onchip", s.predicted_onchip);
    o.arr4("issued_outcome", &s.issued_outcome);
    o.num("missed_offchip", s.missed_offchip);
    o.num("correct_onchip", s.correct_onchip);
    o.finish()
}

fn prefetch_stats_json(s: &PrefetchStats) -> String {
    let mut o = ObjWriter::new();
    o.num("candidates", s.candidates);
    o.num("filtered", s.filtered);
    o.num("dropped", s.dropped);
    o.num("issued", s.issued);
    o.arr4("filled_by_level", &s.filled_by_level);
    o.arr4("useful_by_level", &s.useful_by_level);
    o.arr4("useless_by_level", &s.useless_by_level);
    o.finish()
}

fn core_stats_json(s: &CoreStats) -> String {
    let mut o = ObjWriter::new();
    o.num("instructions", s.instructions);
    o.num("cycles", s.cycles);
    o.num("loads", s.loads);
    o.num("stores", s.stores);
    o.num("branches", s.branches);
    o.num("mispredicts", s.mispredicts);
    o.num("dtlb_misses", s.dtlb_misses);
    o.num("stlb_misses", s.stlb_misses);
    o.num("store_forwards", s.store_forwards);
    o.finish()
}

fn victim_stats_json(s: &VictimStats) -> String {
    let mut o = ObjWriter::new();
    o.num("hits", s.hits);
    o.num("misses", s.misses);
    o.num("insertions", s.insertions);
    o.finish()
}

fn core_report_json(c: &CoreReport) -> String {
    let mut o = ObjWriter::new();
    o.str_field("workload", &c.workload);
    o.raw("core", &core_stats_json(&c.core));
    o.raw("l1d", &cache_stats_json(&c.l1d));
    o.raw("l2", &cache_stats_json(&c.l2));
    o.raw("offchip", &offchip_stats_json(&c.offchip));
    o.raw("l1_prefetch", &prefetch_stats_json(&c.l1_prefetch));
    o.raw("l2_prefetch", &prefetch_stats_json(&c.l2_prefetch));
    o.finish()
}

/// Encodes a report as JSON (the on-disk cache format).
#[must_use]
pub fn report_to_json(r: &SimReport) -> String {
    let mut o = ObjWriter::new();
    let cores: Vec<String> = r.cores.iter().map(core_report_json).collect();
    o.raw("cores", &format!("[{}]", cores.join(",")));
    o.raw("llc", &cache_stats_json(&r.llc));
    o.raw("dram", &dram_stats_json(&r.dram));
    o.raw("victim", &victim_stats_json(&r.victim));
    o.num("total_cycles", r.total_cycles);
    o.finish()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A parsed JSON value (only the shapes the cache and service formats
/// use: unsigned integers, strings, arrays, objects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An unsigned integer.
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source order.
    Obj(Vec<(String, Value)>),
}

/// Parses one JSON value, requiring the whole input to be consumed.
///
/// # Errors
///
/// Returns [`SerialError`] on malformed input or trailing data.
pub fn parse_value(text: &str) -> Result<Value, SerialError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing data after value");
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &str) -> Result<T, SerialError> {
        Err(SerialError {
            offset: self.pos,
            message: message.to_owned(),
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), SerialError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Value, SerialError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn number(&mut self) -> Result<Value, SerialError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        match text.parse::<u64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => self.err("integer out of u64 range"),
        }
    }

    fn string(&mut self) -> Result<String, SerialError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'/') => out.push('/'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| SerialError {
                            offset: self.pos,
                            message: "invalid UTF-8".to_owned(),
                        })?
                        .chars()
                        .next()
                        .expect("non-empty checked above");
                    out.push(s);
                    self.pos += s.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, SerialError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, SerialError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

fn missing(field: &str) -> SerialError {
    SerialError {
        offset: 0,
        message: format!("missing or mistyped field '{field}'"),
    }
}

impl Value {
    /// The fields of an object value.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] when `self` is not an object.
    pub fn obj(&self) -> Result<&[(String, Value)], SerialError> {
        match self {
            Value::Obj(f) => Ok(f),
            _ => Err(missing("<object>")),
        }
    }

    /// Looks up `name` in an object value.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] when `self` is not an object or lacks the
    /// field.
    pub fn field<'a>(&'a self, name: &str) -> Result<&'a Value, SerialError> {
        self.obj()?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| missing(name))
    }

    /// An integer field of an object value.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] when the field is absent or not a number.
    pub fn u64_field(&self, name: &str) -> Result<u64, SerialError> {
        match self.field(name)? {
            Value::Num(n) => Ok(*n),
            _ => Err(missing(name)),
        }
    }

    /// A string field of an object value.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] when the field is absent or not a string.
    pub fn str_field(&self, name: &str) -> Result<String, SerialError> {
        match self.field(name)? {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(missing(name)),
        }
    }

    /// An array field of an object value.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] when the field is absent or not an array.
    pub fn arr_field<'a>(&'a self, name: &str) -> Result<&'a [Value], SerialError> {
        match self.field(name)? {
            Value::Arr(items) => Ok(items),
            _ => Err(missing(name)),
        }
    }

    /// Renders the value back to JSON text (round-trips through
    /// [`parse_value`]).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Num(n) => out.push_str(&n.to_string()),
            Value::Str(s) => esc(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    esc(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    fn arr4_field(&self, name: &str) -> Result<[u64; 4], SerialError> {
        let Value::Arr(items) = self.field(name)? else {
            return Err(missing(name));
        };
        if items.len() != 4 {
            return Err(missing(name));
        }
        let mut out = [0u64; 4];
        for (slot, item) in out.iter_mut().zip(items) {
            match item {
                Value::Num(n) => *slot = *n,
                _ => return Err(missing(name)),
            }
        }
        Ok(out)
    }
}

fn cache_stats_from(v: &Value) -> Result<CacheStats, SerialError> {
    Ok(CacheStats {
        demand_hits: v.u64_field("demand_hits")?,
        demand_misses: v.u64_field("demand_misses")?,
        prefetch_hits: v.u64_field("prefetch_hits")?,
        prefetch_misses: v.u64_field("prefetch_misses")?,
        prefetch_fills: v.u64_field("prefetch_fills")?,
        prefetch_useful: v.u64_field("prefetch_useful")?,
        prefetch_useless: v.u64_field("prefetch_useless")?,
        writebacks: v.u64_field("writebacks")?,
        mshr_stalls: v.u64_field("mshr_stalls")?,
    })
}

fn dram_stats_from(v: &Value) -> Result<DramStats, SerialError> {
    Ok(DramStats {
        reads: v.u64_field("reads")?,
        spec_reads: v.u64_field("spec_reads")?,
        writes: v.u64_field("writes")?,
        row_hits: v.u64_field("row_hits")?,
        row_conflicts: v.u64_field("row_conflicts")?,
        read_queue_full: v.u64_field("read_queue_full")?,
        spec_dropped: v.u64_field("spec_dropped")?,
        spec_consumed: v.u64_field("spec_consumed")?,
        spec_wasted: v.u64_field("spec_wasted")?,
    })
}

fn offchip_stats_from(v: &Value) -> Result<OffChipStats, SerialError> {
    Ok(OffChipStats {
        issued_now: v.u64_field("issued_now")?,
        tagged_delayed: v.u64_field("tagged_delayed")?,
        delayed_issued: v.u64_field("delayed_issued")?,
        predicted_onchip: v.u64_field("predicted_onchip")?,
        issued_outcome: v.arr4_field("issued_outcome")?,
        missed_offchip: v.u64_field("missed_offchip")?,
        correct_onchip: v.u64_field("correct_onchip")?,
    })
}

fn prefetch_stats_from(v: &Value) -> Result<PrefetchStats, SerialError> {
    Ok(PrefetchStats {
        candidates: v.u64_field("candidates")?,
        filtered: v.u64_field("filtered")?,
        dropped: v.u64_field("dropped")?,
        issued: v.u64_field("issued")?,
        filled_by_level: v.arr4_field("filled_by_level")?,
        useful_by_level: v.arr4_field("useful_by_level")?,
        useless_by_level: v.arr4_field("useless_by_level")?,
    })
}

fn core_stats_from(v: &Value) -> Result<CoreStats, SerialError> {
    Ok(CoreStats {
        instructions: v.u64_field("instructions")?,
        cycles: v.u64_field("cycles")?,
        loads: v.u64_field("loads")?,
        stores: v.u64_field("stores")?,
        branches: v.u64_field("branches")?,
        mispredicts: v.u64_field("mispredicts")?,
        dtlb_misses: v.u64_field("dtlb_misses")?,
        stlb_misses: v.u64_field("stlb_misses")?,
        store_forwards: v.u64_field("store_forwards")?,
    })
}

fn victim_stats_from(v: &Value) -> Result<VictimStats, SerialError> {
    Ok(VictimStats {
        hits: v.u64_field("hits")?,
        misses: v.u64_field("misses")?,
        insertions: v.u64_field("insertions")?,
    })
}

fn core_report_from(v: &Value) -> Result<CoreReport, SerialError> {
    Ok(CoreReport {
        workload: v.str_field("workload")?,
        core: core_stats_from(v.field("core")?)?,
        l1d: cache_stats_from(v.field("l1d")?)?,
        l2: cache_stats_from(v.field("l2")?)?,
        offchip: offchip_stats_from(v.field("offchip")?)?,
        l1_prefetch: prefetch_stats_from(v.field("l1_prefetch")?)?,
        l2_prefetch: prefetch_stats_from(v.field("l2_prefetch")?)?,
    })
}

/// Decodes a report from the on-disk cache format.
///
/// # Errors
///
/// Returns [`SerialError`] when the input is not well-formed JSON or lacks
/// a required field (e.g. a cache file written by an incompatible
/// version).
pub fn report_from_json(text: &str) -> Result<SimReport, SerialError> {
    report_from_value(&parse_value(text)?)
}

/// Decodes a report from an already-parsed [`Value`] (e.g. one embedded
/// in a `tlp-serve` result frame).
///
/// # Errors
///
/// Returns [`SerialError`] when the value lacks a required field.
pub fn report_from_value(root: &Value) -> Result<SimReport, SerialError> {
    let Value::Arr(core_values) = root.field("cores")? else {
        return Err(missing("cores"));
    };
    let cores = core_values
        .iter()
        .map(core_report_from)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SimReport {
        cores,
        llc: cache_stats_from(root.field("llc")?)?,
        dram: dram_stats_from(root.field("dram")?)?,
        victim: victim_stats_from(root.field("victim")?)?,
        total_cycles: root.u64_field("total_cycles")?,
    })
}

// ---------------------------------------------------------------------------
// Timeline artifacts
// ---------------------------------------------------------------------------

use tlp_timeline::{Counters, JourneyRecord, Timeline, WindowSample};

fn counters_value(c: &Counters) -> Value {
    Value::Obj(vec![
        ("instructions".into(), Value::Num(c.instructions)),
        ("l1d_misses".into(), Value::Num(c.l1d_misses)),
        ("l2_misses".into(), Value::Num(c.l2_misses)),
        ("llc_misses".into(), Value::Num(c.llc_misses)),
        ("pf_issued".into(), Value::Num(c.pf_issued)),
        ("pf_useful".into(), Value::Num(c.pf_useful)),
        ("pf_useless".into(), Value::Num(c.pf_useless)),
        ("pf_filtered".into(), Value::Num(c.pf_filtered)),
        ("offchip_issued".into(), Value::Num(c.offchip_issued)),
        ("offchip_accurate".into(), Value::Num(c.offchip_accurate)),
        ("offchip_missed".into(), Value::Num(c.offchip_missed)),
        (
            "offchip_predicted_onchip".into(),
            Value::Num(c.offchip_predicted_onchip),
        ),
        (
            "offchip_correct_onchip".into(),
            Value::Num(c.offchip_correct_onchip),
        ),
        ("dram_reads".into(), Value::Num(c.dram_reads)),
        ("dram_writes".into(), Value::Num(c.dram_writes)),
        ("dram_row_hits".into(), Value::Num(c.dram_row_hits)),
        (
            "dram_row_conflicts".into(),
            Value::Num(c.dram_row_conflicts),
        ),
    ])
}

fn counters_from(v: &Value) -> Result<Counters, SerialError> {
    Ok(Counters {
        instructions: v.u64_field("instructions")?,
        l1d_misses: v.u64_field("l1d_misses")?,
        l2_misses: v.u64_field("l2_misses")?,
        llc_misses: v.u64_field("llc_misses")?,
        pf_issued: v.u64_field("pf_issued")?,
        pf_useful: v.u64_field("pf_useful")?,
        pf_useless: v.u64_field("pf_useless")?,
        pf_filtered: v.u64_field("pf_filtered")?,
        offchip_issued: v.u64_field("offchip_issued")?,
        offchip_accurate: v.u64_field("offchip_accurate")?,
        offchip_missed: v.u64_field("offchip_missed")?,
        offchip_predicted_onchip: v.u64_field("offchip_predicted_onchip")?,
        offchip_correct_onchip: v.u64_field("offchip_correct_onchip")?,
        dram_reads: v.u64_field("dram_reads")?,
        dram_writes: v.u64_field("dram_writes")?,
        dram_row_hits: v.u64_field("dram_row_hits")?,
        dram_row_conflicts: v.u64_field("dram_row_conflicts")?,
    })
}

fn window_value(w: &WindowSample) -> Value {
    Value::Obj(vec![
        ("start_cycle".into(), Value::Num(w.start_cycle)),
        ("end_cycle".into(), Value::Num(w.end_cycle)),
        ("counters".into(), counters_value(&w.counters)),
        ("rob_occupancy".into(), Value::Num(w.rob_occupancy)),
        ("mshr_occupancy".into(), Value::Num(w.mshr_occupancy)),
    ])
}

fn window_from(v: &Value) -> Result<WindowSample, SerialError> {
    Ok(WindowSample {
        start_cycle: v.u64_field("start_cycle")?,
        end_cycle: v.u64_field("end_cycle")?,
        counters: counters_from(v.field("counters")?)?,
        rob_occupancy: v.u64_field("rob_occupancy")?,
        mshr_occupancy: v.u64_field("mshr_occupancy")?,
    })
}

fn journey_value(j: &JourneyRecord) -> Value {
    Value::Obj(vec![
        ("core".into(), Value::Num(j.core)),
        ("ordinal".into(), Value::Num(j.ordinal)),
        ("pc".into(), Value::Num(j.pc)),
        ("vaddr".into(), Value::Num(j.vaddr)),
        ("dispatch".into(), Value::Num(j.dispatch)),
        ("l1_at".into(), Value::Num(j.l1_at)),
        ("l2_at".into(), Value::Num(j.l2_at)),
        ("dram_queue_at".into(), Value::Num(j.dram_queue_at)),
        ("bank_at".into(), Value::Num(j.bank_at)),
        ("fill_at".into(), Value::Num(j.fill_at)),
        ("offchip_decision".into(), Value::Num(j.offchip_decision)),
        ("offchip_valid".into(), Value::Num(j.offchip_valid)),
        ("filter_seen".into(), Value::Num(j.filter_seen)),
        ("served_level".into(), Value::Num(j.served_level)),
    ])
}

fn journey_from(v: &Value) -> Result<JourneyRecord, SerialError> {
    Ok(JourneyRecord {
        core: v.u64_field("core")?,
        ordinal: v.u64_field("ordinal")?,
        pc: v.u64_field("pc")?,
        vaddr: v.u64_field("vaddr")?,
        dispatch: v.u64_field("dispatch")?,
        l1_at: v.u64_field("l1_at")?,
        l2_at: v.u64_field("l2_at")?,
        dram_queue_at: v.u64_field("dram_queue_at")?,
        bank_at: v.u64_field("bank_at")?,
        fill_at: v.u64_field("fill_at")?,
        offchip_decision: v.u64_field("offchip_decision")?,
        offchip_valid: v.u64_field("offchip_valid")?,
        filter_seen: v.u64_field("filter_seen")?,
        served_level: v.u64_field("served_level")?,
    })
}

/// Encodes a timeline as a [`Value`] (for embedding in harness artifacts
/// and `tlp-serve` frames).
#[must_use]
pub fn timeline_value(t: &Timeline) -> Value {
    Value::Obj(vec![
        ("window_cycles".into(), Value::Num(t.window_cycles)),
        ("journey_every".into(), Value::Num(t.journey_every)),
        ("start_cycle".into(), Value::Num(t.start_cycle)),
        ("end_cycle".into(), Value::Num(t.end_cycle)),
        ("windows_dropped".into(), Value::Num(t.windows_dropped)),
        ("journeys_dropped".into(), Value::Num(t.journeys_dropped)),
        (
            "windows".into(),
            Value::Arr(t.windows.iter().map(window_value).collect()),
        ),
        (
            "journeys".into(),
            Value::Arr(t.journeys.iter().map(journey_value).collect()),
        ),
    ])
}

/// Encodes a timeline as JSON (the on-disk blob-cache format).
#[must_use]
pub fn timeline_to_json(t: &Timeline) -> String {
    timeline_value(t).render()
}

/// Decodes a timeline from an already-parsed [`Value`].
///
/// # Errors
///
/// Returns [`SerialError`] when the value lacks a required field.
pub fn timeline_from_value(root: &Value) -> Result<Timeline, SerialError> {
    let windows = root
        .arr_field("windows")?
        .iter()
        .map(window_from)
        .collect::<Result<Vec<_>, _>>()?;
    let journeys = root
        .arr_field("journeys")?
        .iter()
        .map(journey_from)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Timeline {
        window_cycles: root.u64_field("window_cycles")?,
        journey_every: root.u64_field("journey_every")?,
        start_cycle: root.u64_field("start_cycle")?,
        end_cycle: root.u64_field("end_cycle")?,
        windows,
        journeys,
        windows_dropped: root.u64_field("windows_dropped")?,
        journeys_dropped: root.u64_field("journeys_dropped")?,
    })
}

/// Decodes a timeline from its JSON blob-cache format.
///
/// # Errors
///
/// Returns [`SerialError`] on malformed input (e.g. a truncated blob).
pub fn timeline_from_json(text: &str) -> Result<Timeline, SerialError> {
    timeline_from_value(&parse_value(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_report() -> SimReport {
        let mut r = SimReport {
            total_cycles: u64::MAX,
            ..SimReport::default()
        };
        r.dram.reads = 123_456_789;
        r.victim.hits = 7;
        let mut c = CoreReport {
            workload: "spec.mcf_06 \"quoted\"\nline".to_owned(),
            ..CoreReport::default()
        };
        c.core.instructions = 1_000_000;
        c.core.cycles = 2_500_000;
        c.offchip.issued_outcome = [1, 2, 3, u64::MAX - 1];
        c.l1_prefetch.useful_by_level = [9, 8, 7, 6];
        c.l1d.demand_misses = 42;
        r.cores.push(c);
        r
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let r = busy_report();
        let json = report_to_json(&r);
        let back = report_from_json(&json).expect("decodes");
        assert_eq!(r, back);
    }

    #[test]
    fn roundtrip_of_default_and_multicore() {
        let r = SimReport::default();
        assert_eq!(r, report_from_json(&report_to_json(&r)).expect("decodes"));
        let mut multi = SimReport::default();
        for i in 0..4 {
            multi.cores.push(CoreReport {
                workload: format!("w{i}"),
                ..CoreReport::default()
            });
        }
        let back = report_from_json(&report_to_json(&multi)).expect("decodes");
        assert_eq!(multi, back);
        assert_eq!(back.cores.len(), 4);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(report_from_json("").is_err());
        assert!(report_from_json("{").is_err());
        assert!(report_from_json("{}").is_err());
        assert!(report_from_json("[1,2]").is_err());
        let good = report_to_json(&SimReport::default());
        assert!(report_from_json(&format!("{good}x")).is_err());
        // A truncated file (e.g. a crashed writer) must not decode.
        assert!(report_from_json(&good[..good.len() - 5]).is_err());
    }

    #[test]
    fn rejects_missing_fields() {
        let good = report_to_json(&busy_report());
        let bad = good.replace("\"total_cycles\"", "\"total_cyclez\"");
        let err = report_from_json(&bad).expect_err("must fail");
        assert!(err.to_string().contains("total_cycles"), "{err}");
    }

    #[test]
    fn timeline_roundtrip_preserves_every_field() {
        let t = Timeline {
            window_cycles: 10_000,
            journey_every: 64,
            start_cycle: 123,
            end_cycle: 98_765,
            windows: vec![
                WindowSample {
                    start_cycle: 123,
                    end_cycle: 10_123,
                    counters: Counters {
                        instructions: u64::MAX,
                        l1d_misses: 42,
                        offchip_missed: 7,
                        dram_row_conflicts: 9,
                        ..Counters::default()
                    },
                    rob_occupancy: 17,
                    mshr_occupancy: 3,
                },
                WindowSample::default(),
            ],
            journeys: vec![JourneyRecord {
                core: 1,
                ordinal: 128,
                pc: 0x400_1234,
                vaddr: 0xdead_beef,
                dispatch: 200,
                l1_at: 204,
                l2_at: 0,
                dram_queue_at: 250,
                bank_at: 260,
                fill_at: 400,
                offchip_decision: 2,
                offchip_valid: 1,
                filter_seen: 0,
                served_level: 3,
            }],
            windows_dropped: 5,
            journeys_dropped: 1,
        };
        let json = timeline_to_json(&t);
        let back = timeline_from_json(&json).expect("decodes");
        assert_eq!(t, back);
        // Empty artifact round-trips too.
        let empty = Timeline::default();
        let back = timeline_from_json(&timeline_to_json(&empty)).expect("decodes");
        assert_eq!(empty, back);
    }

    #[test]
    fn timeline_rejects_malformed_input() {
        assert!(timeline_from_json("").is_err());
        assert!(timeline_from_json("{}").is_err());
        let good = timeline_to_json(&Timeline::default());
        assert!(timeline_from_json(&good[..good.len() - 3]).is_err());
        // A report blob is not a timeline blob.
        let report = report_to_json(&SimReport::default());
        assert!(timeline_from_json(&report).is_err());
    }

    #[test]
    fn json_is_whitespace_tolerant() {
        let json = report_to_json(&busy_report());
        let spaced = json.replace(',', " ,\n ").replace(':', " : ");
        assert_eq!(
            report_from_json(&spaced).expect("decodes"),
            busy_report(),
            "pretty-printed cache files decode identically"
        );
    }
}
