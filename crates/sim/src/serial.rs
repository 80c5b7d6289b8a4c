//! The workspace's one JSON codec. The result cache's report and
//! timeline entries, `tlp-serve`'s protocol payloads and the `--profile`
//! artifact are all [`Value`] trees parsed by [`parse_value`] and written
//! by [`Value::render`].
//!
//! The workspace builds offline with no serialization framework, so the
//! codec is hand-rolled, and each serialized type states its format in
//! one place: [`codec!`](crate::codec!) lists a struct's fields once, in
//! the order they are written, and derives both directions of the
//! [`Codec`] trait from that list. The format is what a derived
//! `serde_json` encoding would look like: one object per struct, field
//! names as keys, `Vec`s and fixed-size arrays as JSON arrays. Every
//! counter in a report is a `u64` and round-trips exactly; there are no
//! floats in the format, so the codec is lossless by construction
//! (pinned by round-trip property tests, and byte for byte by the
//! `codec_golden` fixtures).
//!
//! Decoding looks fields up by name, so an object may carry fields its
//! type does not read; a missing or mistyped field is a [`SerialError`]
//! naming it.

use std::fmt;

use crate::stats::{
    CacheStats, CoreReport, CoreStats, DramStats, OffChipStats, PrefetchStats, SimReport,
};
use crate::victim::VictimStats;
use tlp_timeline::{Counters, JourneyRecord, Timeline, WindowSample};

/// A malformed cache file or payload: where parsing stopped and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerialError {
    /// Byte offset the parser had reached (0 for a well-formed document
    /// of the wrong shape).
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

/// An error in a well-formed document's shape.
fn shape_error(message: String) -> SerialError {
    SerialError { offset: 0, message }
}

fn missing(field: &str) -> SerialError {
    shape_error(format!("missing or mistyped field '{field}'"))
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// Escapes `s` as a JSON string literal (including the surrounding
/// quotes).
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

/// Deepest array/object nesting [`parse_value`] accepts. The parser
/// recurses once per level, so a bound keeps hostile input (a cache entry
/// or protocol frame of nothing but `[`) from overflowing the stack; the
/// documents the codecs write nest fewer than ten levels.
const MAX_DEPTH: usize = 64;

/// Parses one JSON value, requiring the whole input to be consumed.
///
/// # Errors
///
/// Returns [`SerialError`] on malformed input, trailing data, or arrays
/// and objects nested more than 64 deep.
pub fn parse_value(text: &str) -> Result<Value, SerialError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing data after value");
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
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
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    /// Parses one array or object a level deeper, refusing to open more
    /// than [`MAX_DEPTH`] levels.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, SerialError>,
    ) -> Result<Value, SerialError> {
        if self.depth == MAX_DEPTH {
            return self.err(&format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Value, SerialError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        match self.text[start..self.pos].parse::<u64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => self.err("integer out of u64 range"),
        }
    }

    fn string(&mut self) -> Result<String, SerialError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // backslash in one step. Both are ASCII, so the run ends on a
            // character boundary of the (already valid UTF-8) input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.bytes.get(self.pos).copied() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash.
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
                                .text
                                .get(self.pos + 1..self.pos + 5)
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
        decode_field(self, name)
    }

    /// A string field of an object value.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] when the field is absent or not a string.
    pub fn str_field(&self, name: &str) -> Result<String, SerialError> {
        decode_field(self, name)
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
}

// ---------------------------------------------------------------------------
// Typed codecs
// ---------------------------------------------------------------------------

/// A type with a JSON form: [`Codec::to_value`] and [`Codec::from_value`]
/// are inverses. Structs get both from one field list with
/// [`codec!`](crate::codec!).
pub trait Codec: Sized {
    /// The value's JSON tree.
    fn to_value(&self) -> Value;

    /// Rebuilds a value from its JSON tree.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] when `v` does not have this type's shape.
    fn from_value(v: &Value) -> Result<Self, SerialError>;
}

impl Codec for u64 {
    fn to_value(&self) -> Value {
        Value::Num(*self)
    }

    fn from_value(v: &Value) -> Result<Self, SerialError> {
        match v {
            Value::Num(n) => Ok(*n),
            _ => Err(shape_error("expected an integer".to_owned())),
        }
    }
}

impl Codec for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn from_value(v: &Value) -> Result<Self, SerialError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(shape_error("expected a string".to_owned())),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Codec::to_value).collect())
    }

    fn from_value(v: &Value) -> Result<Self, SerialError> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            _ => Err(shape_error("expected an array".to_owned())),
        }
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Codec::to_value).collect())
    }

    fn from_value(v: &Value) -> Result<Self, SerialError> {
        Vec::<T>::from_value(v)?
            .try_into()
            .map_err(|_| shape_error(format!("expected an array of {N}")))
    }
}

/// Decodes field `name` of object `v`; an error inside the field names
/// it.
///
/// # Errors
///
/// Returns [`SerialError`] when the field is absent or does not decode.
pub fn decode_field<T: Codec>(v: &Value, name: &str) -> Result<T, SerialError> {
    T::from_value(v.field(name)?).map_err(|e| shape_error(format!("in '{name}': {}", e.message)))
}

/// Implements [`Codec`] for each listed struct from one list of its
/// fields, in the order they are written: `codec! { Point { x, y } }`
/// encodes as `{"x":..,"y":..}` and decodes each field by name with its
/// own [`Codec`]. A list must name every field of its struct, or the
/// decoder's struct literal does not compile.
#[macro_export]
macro_rules! codec {
    ($($ty:ty { $($field:ident),+ $(,)? })+) => {$(
        impl $crate::serial::Codec for $ty {
            fn to_value(&self) -> $crate::serial::Value {
                $crate::serial::Value::Obj(vec![$((
                    stringify!($field).to_owned(),
                    $crate::serial::Codec::to_value(&self.$field),
                )),+])
            }

            fn from_value(
                v: &$crate::serial::Value,
            ) -> ::std::result::Result<Self, $crate::serial::SerialError> {
                Ok(Self {
                    $($field: $crate::serial::decode_field(v, stringify!($field))?,)+
                })
            }
        }
    )+};
}

// The result cache's report and timeline formats.
codec! {
    SimReport { cores, llc, dram, victim, total_cycles }
    CoreReport { workload, core, l1d, l2, offchip, l1_prefetch, l2_prefetch }
    CoreStats {
        instructions, cycles, loads, stores, branches, mispredicts, dtlb_misses, stlb_misses,
        store_forwards,
    }
    CacheStats {
        demand_hits, demand_misses, prefetch_hits, prefetch_misses, prefetch_fills,
        prefetch_useful, prefetch_useless, writebacks, mshr_stalls,
    }
    OffChipStats {
        issued_now, tagged_delayed, delayed_issued, predicted_onchip, issued_outcome,
        missed_offchip, correct_onchip,
    }
    PrefetchStats {
        candidates, filtered, dropped, issued, filled_by_level, useful_by_level, useless_by_level,
    }
    DramStats {
        reads, spec_reads, writes, row_hits, row_conflicts, read_queue_full, spec_dropped,
        spec_consumed, spec_wasted,
    }
    VictimStats { hits, misses, insertions }

    Timeline {
        window_cycles, journey_every, start_cycle, end_cycle, windows_dropped, journeys_dropped,
        windows, journeys,
    }
    WindowSample { start_cycle, end_cycle, counters, rob_occupancy, mshr_occupancy }
    Counters {
        instructions, l1d_misses, l2_misses, llc_misses, pf_issued, pf_useful, pf_useless,
        pf_filtered, offchip_issued, offchip_accurate, offchip_missed, offchip_predicted_onchip,
        offchip_correct_onchip, dram_reads, dram_writes, dram_row_hits, dram_row_conflicts,
    }
    JourneyRecord {
        core, ordinal, pc, vaddr, dispatch, l1_at, l2_at, dram_queue_at, bank_at, fill_at,
        offchip_decision, offchip_valid, filter_seen, served_level,
    }
}

/// Encodes a report as JSON (the on-disk cache format).
#[must_use]
pub fn report_to_json(r: &SimReport) -> String {
    r.to_value().render()
}

/// Decodes a report from the on-disk cache format.
///
/// # Errors
///
/// Returns [`SerialError`] when the input is not well-formed JSON or lacks
/// a required field (e.g. a cache file written by an incompatible
/// version).
pub fn report_from_json(text: &str) -> Result<SimReport, SerialError> {
    SimReport::from_value(&parse_value(text)?)
}

/// Encodes a timeline as JSON (the on-disk blob-cache format).
#[must_use]
pub fn timeline_to_json(t: &Timeline) -> String {
    t.to_value().render()
}

/// Decodes a timeline from its JSON blob-cache format.
///
/// # Errors
///
/// Returns [`SerialError`] on malformed input (e.g. a truncated blob).
pub fn timeline_from_json(text: &str) -> Result<Timeline, SerialError> {
    Timeline::from_value(&parse_value(text)?)
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
    fn nesting_deeper_than_the_bound_is_an_error() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_value(&nested(MAX_DEPTH)).is_ok());
        let err = parse_value(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.to_string().contains("nesting"), "{err}");
        // Far past the bound the parser stops at the bound: an error, not
        // a stack overflow.
        assert!(parse_value(&"[".repeat(100_000)).is_err());
        assert!(parse_value(&"{\"k\":".repeat(100_000)).is_err());
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
    fn long_strings_parse_in_linear_time() {
        // 1 MiB of mixed one-, two-, three- and four-byte characters and
        // escapes. A parser that re-validated the rest of the input for
        // each character took 4.7 minutes on this in a debug build (2-vCPU
        // x86-64 host).
        let piece = "plain ascii é→😀 \"quoted\" back\\slash\n\u{1}";
        let big = piece.repeat((1 << 20) / piece.len());
        let text = escape(&big);
        let t0 = std::time::Instant::now();
        let parsed = parse_value(&text).expect("parses");
        let took = t0.elapsed();
        assert_eq!(parsed, Value::Str(big));
        assert!(took.as_secs_f64() < 1.0, "1 MiB string took {took:?}");
        // `\uXXXX` escapes decode to their character, multi-byte or not.
        assert_eq!(
            parse_value("\"\\u00e9\\u2192\\u0001x\"").expect("parses"),
            Value::Str("é→\u{1}x".to_owned())
        );
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
