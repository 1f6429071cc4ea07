//! Newline-delimited JSON (NDJSON) codec for operation streams.
//!
//! The streaming pipeline exchanges operations as one JSON object per
//! line, each tagging the register (`key`) it acts on:
//!
//! ```text
//! {"key":0,"kind":"write","value":1,"start":0,"finish":10,"weight":1}
//! {"key":0,"kind":"read","value":1,"start":12,"finish":20}
//! ```
//!
//! Field reference (see also the README's schema section):
//!
//! * `key` — register identifier; optional, defaults to `0`. Verification
//!   is per key (§II-B locality), so records of different keys are fully
//!   independent.
//! * `kind` — `"read"` or `"write"`.
//! * `value` — value written or returned. Every write of a key must store
//!   a distinct value.
//! * `start` / `finish` — invocation and response times, `start < finish`;
//!   dimensionless ticks (only their order matters).
//! * `weight` — positive k-WAV weight; optional, defaults to `1`.
//! * `client` — issuing client (session) id for session-aware consistency
//!   models; optional, defaults to `0` (untagged — no session
//!   information). Untagged records serialise without the field, so
//!   pre-session streams round-trip byte-identically.
//!
//! Records of the same key must appear in strictly increasing `finish`
//! order (completion order); different keys may interleave arbitrarily.
//! Blank lines are ignored.

use crate::fxhash::Fingerprint;
use crate::refill::Units;
use crate::{OpKind, Operation, Time, Value, Weight, UNTAGGED_CLIENT};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{BufRead, Read};
use std::path::Path;

/// One line of an NDJSON operation stream: an operation plus its register.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct StreamRecord {
    /// Register the operation acts on (defaults to `0`).
    #[serde(default)]
    pub key: u64,
    /// Read or write.
    pub kind: OpKind,
    /// Value written or returned.
    pub value: Value,
    /// Invocation time.
    pub start: Time,
    /// Response time; must be strictly greater than `start`.
    pub finish: Time,
    /// k-WAV weight (defaults to `1`).
    #[serde(default)]
    pub weight: Weight,
    /// Issuing client (session) id; `0` (untagged) when absent. Untagged
    /// records omit the field on the wire.
    #[serde(default, skip_serializing_if = "client_is_untagged")]
    pub client: u64,
}

/// Serialisation predicate: untagged records omit the `client` field.
fn client_is_untagged(client: &u64) -> bool {
    *client == UNTAGGED_CLIENT
}

impl StreamRecord {
    /// Tags `op` with the register `key`.
    pub fn new(key: u64, op: Operation) -> Self {
        StreamRecord {
            key,
            kind: op.kind,
            value: op.value,
            start: op.start,
            finish: op.finish,
            weight: op.weight,
            client: op.client,
        }
    }

    /// The record's operation, without the key tag.
    pub fn op(&self) -> Operation {
        Operation {
            kind: self.kind,
            value: self.value,
            start: self.start,
            finish: self.finish,
            weight: self.weight,
            client: self.client,
        }
    }
}

/// Error reading an NDJSON stream.
#[derive(Debug)]
pub enum NdjsonError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed record, with its 1-based line number.
    Parse {
        /// Line the record occupies in the input.
        line: usize,
        /// What was wrong with it.
        source: serde_json::Error,
    },
}

impl fmt::Display for NdjsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NdjsonError::Io(e) => write!(f, "i/o error: {e}"),
            NdjsonError::Parse { line, source } => {
                write!(f, "line {line}: invalid stream record: {source}")
            }
        }
    }
}

impl Error for NdjsonError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NdjsonError::Io(e) => Some(e),
            NdjsonError::Parse { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for NdjsonError {
    fn from(e: std::io::Error) -> Self {
        NdjsonError::Io(e)
    }
}

/// Parses one NDJSON line.
///
/// # Errors
///
/// Returns the underlying JSON error on malformed input.
///
/// # Examples
///
/// ```
/// use kav_history::ndjson;
/// use kav_history::Value;
///
/// let record =
///     ndjson::parse_line(r#"{"kind":"write","value":7,"start":0,"finish":3}"#)?;
/// assert_eq!(record.key, 0);
/// assert_eq!(record.value, Value(7));
/// # Ok::<(), serde_json::Error>(())
/// ```
pub fn parse_line(line: &str) -> Result<StreamRecord, serde_json::Error> {
    serde_json::from_str(line)
}

// ---------------------------------------------------------------------------
// Zero-copy byte-slice decoder
// ---------------------------------------------------------------------------

/// Maximum JSON nesting depth, matching the reference parser's recursion
/// limit (serde_json's default of 128).
const MAX_DEPTH: usize = 128;

/// Decoded name/tag scratch: sized for every known field name and `kind`
/// tag; longer content cannot match any of them and is tracked as
/// overflow (while the string is still fully validated).
struct SmallBuf {
    data: [u8; 24],
    len: usize,
    overflow: bool,
}

impl SmallBuf {
    fn new() -> Self {
        SmallBuf { data: [0; 24], len: 0, overflow: false }
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        if end > self.data.len() {
            self.overflow = true;
            return;
        }
        self.data[self.len..end].copy_from_slice(bytes);
        self.len = end;
    }

    fn push_char(&mut self, c: char) {
        let mut utf8 = [0u8; 4];
        self.push_bytes(c.encode_utf8(&mut utf8).as_bytes());
    }

    /// The decoded content, or `None` if it outgrew the buffer.
    fn as_bytes(&self) -> Option<&[u8]> {
        if self.overflow {
            None
        } else {
            Some(&self.data[..self.len])
        }
    }
}

/// Outcome of scanning one JSON number token.
enum Num {
    /// Carried a decimal point or exponent.
    Float,
    /// `-`-prefixed integer in `i64` range (so `-0` is `Neg(0)`).
    Neg(i64),
    /// Non-negative integer in `u64` range.
    Pos(u64),
}

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Scanner<'_> {
    fn err(&self, message: &str) -> serde_json::Error {
        serde::DeError::custom(message).into()
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

    fn expect(&mut self, b: u8) -> Result<(), serde_json::Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Scans one number token with the reference grammar, applying the
    /// same parse-time range checks (integer overflow errors even inside
    /// skipped fields, exactly as the reference parser errors while
    /// building its value tree).
    fn scan_number(&mut self) -> Result<Num, serde_json::Error> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        match self.bytes.get(self.pos) {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zeros are not allowed"));
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("expected digit")),
        }
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            is_float = true;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected digit after decimal point"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected digit in exponent"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if is_float {
            // The grammar above never fails an `f64` parse; keep the check
            // so the two decoders cannot diverge.
            text.parse::<f64>().map_err(|_| self.err("invalid number"))?;
            Ok(Num::Float)
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Num::Neg).map_err(|_| self.err("number out of range"))
        } else {
            text.parse::<u64>().map(Num::Pos).map_err(|_| self.err("number out of range"))
        }
    }

    /// Parses the 4 hex digits after `\u`, leaving `pos` on the last
    /// digit (reference parser mechanics).
    fn hex4(&mut self) -> Result<u32, serde_json::Error> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let text =
            std::str::from_utf8(digits).map_err(|_| self.err("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(text, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Scans one string token, validating escapes exactly like the
    /// reference parser; when `out` is given, the *decoded* content is
    /// appended (field names and `kind` tags match on decoded content, so
    /// `"key"` is the `key` field there too).
    fn scan_string(&mut self, mut out: Option<&mut SmallBuf>) -> Result<(), serde_json::Error> {
        self.expect(b'"')?;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let decoded = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 2) != Some(&b'u')
                                {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => c,
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    if let Some(buf) = out.as_deref_mut() {
                        buf.push_char(decoded);
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(self.err("control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar's worth of bytes.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    if let Some(buf) = out.as_deref_mut() {
                        buf.push_bytes(&self.bytes[start..self.pos]);
                    }
                }
            }
        }
    }

    fn scan_keyword(&mut self, word: &str) -> Result<(), serde_json::Error> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Validates and skips one JSON value of any shape, mirroring the
    /// reference grammar (depth limit, string escapes, number range
    /// checks) without building a value tree. Used for unknown fields and
    /// for later duplicates of known ones (first occurrence wins, like
    /// the reference decoder's `Value::get`).
    fn scan_value(&mut self, depth: usize) -> Result<(), serde_json::Error> {
        if depth >= MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => {
                self.pos += 1;
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected object key"));
                    }
                    self.scan_string(None)?;
                    self.expect(b':')?;
                    self.scan_value(depth + 1)?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.scan_value(depth + 1)?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'"') => self.scan_string(None),
            Some(b't') => self.scan_keyword("true"),
            Some(b'f') => self.scan_keyword("false"),
            Some(b'n') => self.scan_keyword("null"),
            Some(b'-' | b'0'..=b'9') => self.scan_number().map(|_| ()),
            Some(_) => Err(self.err("expected value")),
        }
    }

    /// Scans one `u64` field value (`key`, `value`, `start`, `finish`):
    /// the reference decoder accepts a non-negative integer (including
    /// `-0`) and rejects floats, negatives and non-numbers.
    fn scan_u64_field(&mut self) -> Result<u64, serde_json::Error> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => match self.scan_number()? {
                Num::Pos(u) => Ok(u),
                Num::Neg(i) => u64::try_from(i)
                    .map_err(|_| self.err(&format!("invalid value {i} for unsigned integer"))),
                Num::Float => Err(self.err("expected an unsigned integer")),
            },
            _ => Err(self.err("expected an unsigned integer")),
        }
    }

    /// Scans the `weight` field: a `u64` additionally bounded to `u32`.
    fn scan_u32_field(&mut self) -> Result<u32, serde_json::Error> {
        let raw = self.scan_u64_field()?;
        u32::try_from(raw).map_err(|_| self.err(&format!("integer {raw} out of range for u32")))
    }

    /// Scans the `kind` field: a string whose decoded content is `read`
    /// or `write` (the reference decoder matches unit variants on the
    /// decoded string, so escapes like `"read"` are accepted).
    fn scan_kind_field(&mut self) -> Result<OpKind, serde_json::Error> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected enum OpKind"));
        }
        let mut tag = SmallBuf::new();
        self.scan_string(Some(&mut tag))?;
        match tag.as_bytes() {
            Some(b"read") => Ok(OpKind::Read),
            Some(b"write") => Ok(OpKind::Write),
            _ => Err(self.err("unknown variant of OpKind")),
        }
    }
}

/// Parses one NDJSON line directly from bytes — the zero-copy hot path.
///
/// A hand-rolled field scanner over `&[u8]`: no intermediate `String` or
/// `serde_json::Value` is built. It accepts exactly the records
/// [`parse_line`] accepts and rejects exactly the lines it rejects —
/// including duplicate-field, unknown-field, escape, depth-limit and
/// number-range behavior (property-tested in
/// `tests/decoder_equivalence.rs`). Error *messages* may differ; verdicts
/// never do. [`parse_line`] remains the reference decoder.
///
/// # Errors
///
/// Returns a JSON error on malformed input, exactly when the reference
/// decoder would.
///
/// # Examples
///
/// ```
/// use kav_history::ndjson;
/// use kav_history::Value;
///
/// let record = ndjson::parse_line_bytes(
///     br#"{"kind":"write","value":7,"start":0,"finish":3}"#,
/// )?;
/// assert_eq!(record.key, 0);
/// assert_eq!(record.value, Value(7));
/// # Ok::<(), serde_json::Error>(())
/// ```
pub fn parse_line_bytes(bytes: &[u8]) -> Result<StreamRecord, serde_json::Error> {
    let mut s = Scanner { bytes, pos: 0 };
    match s.peek() {
        Some(b'{') => {}
        // A line whose top-level value is anything else is an error on the
        // reference path too (a syntax error or "expected struct"), so
        // classification alone decides the verdict.
        Some(_) => return Err(s.err("expected struct StreamRecord")),
        None => return Err(s.err("unexpected end of input")),
    }
    s.pos += 1;
    let mut key: Option<u64> = None;
    let mut kind: Option<OpKind> = None;
    let mut value: Option<u64> = None;
    let mut start: Option<u64> = None;
    let mut finish: Option<u64> = None;
    let mut weight: Option<u32> = None;
    let mut client: Option<u64> = None;
    if s.peek() == Some(b'}') {
        s.pos += 1;
    } else {
        loop {
            if s.peek() != Some(b'"') {
                return Err(s.err("expected object key"));
            }
            let mut name = SmallBuf::new();
            s.scan_string(Some(&mut name))?;
            s.expect(b':')?;
            match name.as_bytes() {
                Some(b"key") if key.is_none() => key = Some(s.scan_u64_field()?),
                Some(b"kind") if kind.is_none() => kind = Some(s.scan_kind_field()?),
                Some(b"value") if value.is_none() => value = Some(s.scan_u64_field()?),
                Some(b"start") if start.is_none() => start = Some(s.scan_u64_field()?),
                Some(b"finish") if finish.is_none() => finish = Some(s.scan_u64_field()?),
                Some(b"weight") if weight.is_none() => weight = Some(s.scan_u32_field()?),
                Some(b"client") if client.is_none() => client = Some(s.scan_u64_field()?),
                // Unknown fields and later duplicates are validated and
                // skipped; field values sit at nesting depth 1.
                _ => s.scan_value(1)?,
            }
            match s.peek() {
                Some(b',') => s.pos += 1,
                Some(b'}') => {
                    s.pos += 1;
                    break;
                }
                _ => return Err(s.err("expected `,` or `}`")),
            }
        }
    }
    s.skip_ws();
    if s.pos != bytes.len() {
        return Err(s.err("trailing characters"));
    }
    let missing = |field: &str| -> serde_json::Error {
        serde::DeError::custom(format!("missing field `{field}`")).into()
    };
    Ok(StreamRecord {
        key: key.unwrap_or(0),
        kind: kind.ok_or_else(|| missing("kind"))?,
        value: Value(value.ok_or_else(|| missing("value"))?),
        start: Time(start.ok_or_else(|| missing("start"))?),
        finish: Time(finish.ok_or_else(|| missing("finish"))?),
        weight: weight.map_or(Weight::UNIT, Weight),
        client: client.unwrap_or(UNTAGGED_CLIENT),
    })
}

/// Serialises one record as a single NDJSON line (no trailing newline).
///
/// Allocates a fresh `String` per call; the hot write path is
/// [`StreamWriter`], which reuses one buffer and produces byte-identical
/// lines.
pub fn to_line(record: &StreamRecord) -> String {
    serde_json::to_string(record).expect("StreamRecord serialisation is infallible")
}

/// Appends one record to `out` as a single NDJSON line (no trailing
/// newline), byte-identical to [`to_line`] without allocating.
pub fn write_line_into(record: &StreamRecord, out: &mut String) {
    out.push_str("{\"key\":");
    push_u64(out, record.key);
    out.push_str(",\"kind\":");
    out.push_str(match record.kind {
        OpKind::Read => "\"read\"",
        OpKind::Write => "\"write\"",
    });
    out.push_str(",\"value\":");
    push_u64(out, record.value.0);
    out.push_str(",\"start\":");
    push_u64(out, record.start.0);
    out.push_str(",\"finish\":");
    push_u64(out, record.finish.0);
    out.push_str(",\"weight\":");
    push_u64(out, u64::from(record.weight.0));
    if record.client != UNTAGGED_CLIENT {
        out.push_str(",\"client\":");
        push_u64(out, record.client);
    }
    out.push('}');
}

/// Appends the decimal form of `n` without going through `fmt`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("decimal digits are ASCII"));
}

/// Buffered NDJSON writer reusing one line buffer across records — the
/// write-side twin of the zero-copy decoder. `kav gen --out`,
/// `kav simulate --out` and [`write_stream`] route through it; the output
/// is byte-for-byte what writing [`to_line`] plus `\n` per record yields.
pub struct StreamWriter<W: std::io::Write> {
    out: W,
    buf: String,
}

impl<W: std::io::Write> StreamWriter<W> {
    /// Wraps `out`; call [`finish`](StreamWriter::finish) when done to
    /// flush.
    pub fn new(out: W) -> Self {
        StreamWriter { out, buf: String::with_capacity(128) }
    }

    /// Writes one record plus the line terminator.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_record(&mut self, record: &StreamRecord) -> std::io::Result<()> {
        self.buf.clear();
        write_line_into(record, &mut self.buf);
        self.buf.push('\n');
        self.out.write_all(self.buf.as_bytes())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streaming reader over any [`BufRead`], yielding records with 1-based
/// line numbers attached to errors. Blank lines are skipped.
///
/// This is the reference decoder: it reads through `read_line` and
/// [`parse_line`] (serde), and the equivalence suites hold
/// [`LineStream`] to it. Production ingest goes through [`LineStream`].
///
/// For checkpointable audits the reader can also maintain a running
/// [`Fingerprint`] of every *raw line* it consumes (including blank and
/// malformed ones): a resumed audit re-reads the already-processed prefix
/// with [`skip_raw_lines`](Reader::skip_raw_lines) and compares digests to
/// prove it is continuing the same input.
pub struct Reader<R> {
    input: R,
    line: u64,
    buf: String,
    fingerprint: Option<Fingerprint>,
}

impl<R: BufRead> Reader<R> {
    /// Wraps a buffered reader (no fingerprinting).
    pub fn new(input: R) -> Self {
        Reader { input, line: 0, buf: String::new(), fingerprint: None }
    }

    /// Wraps a buffered reader and fingerprints every consumed line —
    /// pass [`Fingerprint::new`] for a fresh stream, or a digest carried
    /// over from a checkpoint to continue its chain.
    pub fn with_fingerprint(input: R, fingerprint: Fingerprint) -> Self {
        Reader { input, line: 0, buf: String::new(), fingerprint: Some(fingerprint) }
    }

    /// Lines consumed so far (blank and malformed lines included).
    pub fn lines_read(&self) -> u64 {
        self.line
    }

    /// The running digest of all consumed lines, when fingerprinting.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint.as_ref().map(Fingerprint::value)
    }

    /// Consumes up to `n` raw lines without parsing them (they still count
    /// toward [`lines_read`](Reader::lines_read) and the fingerprint).
    /// Returns how many lines were actually available before end of input.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying reader.
    pub fn skip_raw_lines(&mut self, n: u64) -> std::io::Result<u64> {
        let mut skipped = 0;
        while skipped < n {
            self.buf.clear();
            if self.input.read_line(&mut self.buf)? == 0 {
                break;
            }
            self.consume_line();
            skipped += 1;
        }
        Ok(skipped)
    }

    /// Counts and fingerprints the line currently in `buf`.
    fn consume_line(&mut self) {
        self.line += 1;
        if let Some(fp) = &mut self.fingerprint {
            fp.update(self.buf.as_bytes());
        }
    }
}

impl<R: BufRead> Iterator for Reader<R> {
    type Item = Result<StreamRecord, NdjsonError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buf.clear();
            match self.input.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(e.into())),
            }
            self.consume_line();
            let text = self.buf.trim();
            if text.is_empty() {
                continue;
            }
            return Some(parse_line(text).map_err(|source| NdjsonError::Parse {
                line: self.line as usize,
                source,
            }));
        }
    }
}

/// Streaming NDJSON reader over any [`Read`] — a file, stdin, a pipe, a
/// byte slice — decoding through [`parse_line_bytes`]. This is the reader
/// `kav stream` and `kav serve` ingest NDJSON with; [`Reader`] is its
/// serde-backed test oracle.
///
/// Input is read in chunks into a refill buffer, and each line is decoded
/// in place once it is whole, however the chunks fell. Line accounting,
/// blank-line handling, UTF-8 handling, parse verdicts, 1-based error
/// lines and the [`Fingerprint`] chain are identical to [`Reader`] over
/// the same bytes (property-tested with sources that yield a few bytes
/// per read), so checkpoints written against one reader resume against
/// the other.
pub struct LineStream<R> {
    units: Units<R>,
}

/// [`LineStream`] over an in-memory byte slice.
pub type SliceReader<'a> = LineStream<&'a [u8]>;

impl<R: Read> LineStream<R> {
    /// Wraps a reader (no fingerprinting).
    pub fn new(input: R) -> Self {
        LineStream { units: Units::new(input, None) }
    }

    /// Wraps a reader and fingerprints every consumed line — pass
    /// [`Fingerprint::new`] for a fresh stream, or a digest carried over
    /// from a checkpoint to continue its chain.
    pub fn with_fingerprint(input: R, fingerprint: Fingerprint) -> Self {
        LineStream { units: Units::new(input, Some(fingerprint)) }
    }

    /// Lines consumed so far (blank and malformed lines included).
    pub fn lines_read(&self) -> u64 {
        self.units.units()
    }

    /// The running digest of all consumed lines, when fingerprinting.
    pub fn fingerprint(&self) -> Option<u64> {
        self.units.fingerprint()
    }

    /// Consumes up to `n` raw lines without parsing them (they still
    /// count toward [`lines_read`](LineStream::lines_read) and the
    /// fingerprint). Returns how many lines were actually available.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and rejects invalid UTF-8, like
    /// [`Reader::skip_raw_lines`].
    pub fn skip_raw_lines(&mut self, n: u64) -> std::io::Result<u64> {
        let mut skipped = 0;
        while skipped < n && self.units.next_line()?.is_some() {
            skipped += 1;
        }
        Ok(skipped)
    }
}

impl<R: Read> Iterator for LineStream<R> {
    type Item = Result<StreamRecord, NdjsonError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (line, text) = match self.units.next_line() {
                Ok(Some(line)) => line,
                Ok(None) => return None,
                Err(e) => return Some(Err(e.into())),
            };
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            return Some(
                parse_line_bytes(text.as_bytes())
                    .map_err(|source| NdjsonError::Parse { line: line as usize, source }),
            );
        }
    }
}

/// Reads a whole NDJSON file into memory.
///
/// # Errors
///
/// Returns [`NdjsonError`] on I/O failure or the first malformed record.
pub fn read_stream(path: impl AsRef<Path>) -> Result<Vec<StreamRecord>, NdjsonError> {
    LineStream::new(fs::File::open(path)?).collect()
}

/// Writes records as NDJSON, one per line.
///
/// # Errors
///
/// Returns [`NdjsonError::Io`] on I/O failure.
pub fn write_stream<'a>(
    path: impl AsRef<Path>,
    records: impl IntoIterator<Item = &'a StreamRecord>,
) -> Result<(), NdjsonError> {
    let mut writer = StreamWriter::new(std::io::BufWriter::new(fs::File::create(path)?));
    for record in records {
        writer.write_record(record)?;
    }
    writer.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<StreamRecord> {
        vec![
            StreamRecord::new(0, Operation::write(Value(1), Time(0), Time(10))),
            StreamRecord::new(3, Operation::read(Value(1), Time(12), Time(20))),
            StreamRecord::new(
                0,
                Operation::weighted_write(Value(2), Time(14), Time(30), Weight(5)),
            ),
        ]
    }

    #[test]
    fn line_roundtrip_preserves_records() {
        for record in sample() {
            let line = to_line(&record);
            assert_eq!(parse_line(&line).unwrap(), record);
        }
    }

    #[test]
    fn key_and_weight_default_when_omitted() {
        let record =
            parse_line(r#"{"kind":"read","value":9,"start":1,"finish":4}"#).unwrap();
        assert_eq!(record.key, 0);
        assert_eq!(record.weight, Weight::UNIT);
        assert_eq!(record.op(), Operation::read(Value(9), Time(1), Time(4)));
    }

    #[test]
    fn reader_skips_blanks_and_numbers_errors() {
        let text = "\n{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":2}\n\n{ bad\n";
        let mut reader = Reader::new(text.as_bytes());
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        match err {
            NdjsonError::Parse { line, .. } => assert_eq!(line, 4),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(reader.next().is_none());
    }

    #[test]
    fn fingerprinted_skip_matches_fingerprinted_read() {
        let text = "\n{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":2}\n{ bad\n";
        // Read everything, fingerprinting as we go.
        let mut full = Reader::with_fingerprint(text.as_bytes(), Fingerprint::new());
        assert!(full.next().unwrap().is_ok());
        assert!(full.next().unwrap().is_err());
        assert!(full.next().is_none());
        assert_eq!(full.lines_read(), 3);
        // Skipping the same three raw lines yields the same digest.
        let mut skip = Reader::with_fingerprint(text.as_bytes(), Fingerprint::new());
        assert_eq!(skip.skip_raw_lines(3).unwrap(), 3);
        assert_eq!(skip.lines_read(), 3);
        assert_eq!(skip.fingerprint(), full.fingerprint());
        assert!(skip.fingerprint().is_some());
        // A diverging prefix yields a different digest.
        let other = "\n{\"kind\":\"write\",\"value\":9,\"start\":0,\"finish\":2}\n{ bad\n";
        let mut diverged = Reader::with_fingerprint(other.as_bytes(), Fingerprint::new());
        diverged.skip_raw_lines(3).unwrap();
        assert_ne!(diverged.fingerprint(), full.fingerprint());
        // Skipping past the end reports the shortfall; plain readers have
        // no fingerprint at all.
        let mut short = Reader::with_fingerprint(text.as_bytes(), Fingerprint::new());
        assert_eq!(short.skip_raw_lines(10).unwrap(), 3);
        assert_eq!(Reader::new(text.as_bytes()).fingerprint(), None);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("kav_history_ndjson_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ops.ndjson");
        let records = sample();
        write_stream(&path, &records).unwrap();
        assert_eq!(read_stream(&path).unwrap(), records);
        fs::remove_file(path).ok();
    }

    #[test]
    fn missing_required_field_is_an_error() {
        assert!(parse_line(r#"{"kind":"write","value":1,"start":0}"#).is_err());
        assert!(parse_line("").is_err());
    }

    #[test]
    fn write_line_into_matches_the_reference_encoder() {
        let mut buf = String::new();
        for record in sample() {
            buf.clear();
            write_line_into(&record, &mut buf);
            assert_eq!(buf, to_line(&record));
        }
        // Extremes of every numeric field.
        let record = StreamRecord {
            key: u64::MAX,
            kind: OpKind::Read,
            value: Value(0),
            start: Time(u64::MAX - 1),
            finish: Time(u64::MAX),
            weight: Weight(u32::MAX),
            client: u64::MAX,
        };
        buf.clear();
        write_line_into(&record, &mut buf);
        assert_eq!(buf, to_line(&record));
        // Client-tagged records carry the field; untagged ones omit it.
        let tagged =
            StreamRecord::new(1, Operation::write(Value(3), Time(0), Time(5)).with_client(9));
        buf.clear();
        write_line_into(&tagged, &mut buf);
        assert_eq!(buf, to_line(&tagged));
        assert!(buf.contains("\"client\":9"), "missing client field: {buf}");
        let untagged = StreamRecord::new(1, Operation::write(Value(3), Time(0), Time(5)));
        buf.clear();
        write_line_into(&untagged, &mut buf);
        assert_eq!(buf, to_line(&untagged));
        assert!(!buf.contains("client"), "untagged record leaked a client field: {buf}");
    }

    #[test]
    fn stream_writer_output_is_byte_identical_to_to_line() {
        let mut writer = StreamWriter::new(Vec::new());
        let mut expected = String::new();
        for record in sample() {
            writer.write_record(&record).unwrap();
            expected.push_str(&to_line(&record));
            expected.push('\n');
        }
        assert_eq!(writer.finish().unwrap(), expected.into_bytes());
    }

    #[test]
    fn byte_decoder_accepts_what_the_reference_accepts() {
        for line in [
            r#"{"kind":"write","value":7,"start":0,"finish":3}"#,
            r#"{"key":9,"kind":"read","value":7,"start":0,"finish":3,"weight":2}"#,
            r#"{"kind":"read","value":7,"start":0,"finish":3,"client":12}"#,
            r#"{"kind":"read","value":7,"start":0,"finish":3,"client":5,"client":6}"#,
            // Escaped field names and tags decode before matching:
            // `\u006b` is `k`, so this sets `key` and a `kind` of "read".
            "{\"\\u006bey\":5,\"kind\":\"re\\u0061d\",\"value\":1,\"start\":0,\"finish\":1}",
            // Unknown fields of any shape are skipped.
            r#"{"kind":"read","value":1,"start":0,"finish":1,"x":[{"y":null},1.5,"s"]}"#,
            // Duplicate fields: first occurrence wins.
            r#"{"kind":"read","kind":"write","value":1,"value":2,"start":0,"finish":1}"#,
            // `-0` is an in-range unsigned integer.
            r#"{"kind":"read","value":-0,"start":0,"finish":1}"#,
            " {\t\"kind\" : \"read\", \"value\":1, \"start\":0, \"finish\":1 } ",
        ] {
            let by_str = parse_line(line).unwrap();
            let by_bytes = parse_line_bytes(line.as_bytes()).unwrap();
            assert_eq!(by_str, by_bytes, "decoders disagree on {line:?}");
        }
    }

    #[test]
    fn byte_decoder_rejects_what_the_reference_rejects() {
        for line in [
            "",
            "null",
            "[]",
            r#"{"kind":"write","value":1,"start":0}"#,
            r#"{"kind":"write","value":1,"start":0,"finish":2} extra"#,
            r#"{"kind":"writ","value":1,"start":0,"finish":2}"#,
            r#"{"kind":"write","value":1.5,"start":0,"finish":2}"#,
            r#"{"kind":"write","value":-1,"start":0,"finish":2}"#,
            r#"{"kind":"write","value":01,"start":0,"finish":2}"#,
            r#"{"kind":"write","value":18446744073709551616,"start":0,"finish":2}"#,
            r#"{"kind":"write","value":1,"start":0,"finish":2,"weight":4294967296}"#,
            // Range checks apply inside skipped fields too.
            r#"{"kind":"write","value":1,"start":0,"finish":2,"x":18446744073709551616}"#,
            r#"{"kind":"write","value":1,"start":0,"finish":2,"x":"\ud800"}"#,
            r#"{"kind":"write","value":1,"start":0,"finish":2,}"#,
            r#"{"kind":"write","value":1,"start":0,"finish":2"#,
        ] {
            assert!(parse_line(line).is_err(), "reference accepted {line:?}");
            assert!(parse_line_bytes(line.as_bytes()).is_err(), "bytes accepted {line:?}");
        }
        // The recursion limit matches: 127 nested arrays in an unknown
        // field pass (the field value sits at depth 1), 128 do not — on
        // both decoders.
        let nest = |n: usize| {
            format!(
                "{{\"kind\":\"read\",\"value\":1,\"start\":0,\"finish\":1,\"x\":{}0{}}}",
                "[".repeat(n),
                "]".repeat(n)
            )
        };
        assert!(parse_line(&nest(126)).is_ok());
        assert!(parse_line_bytes(nest(126).as_bytes()).is_ok());
        assert_eq!(
            parse_line(&nest(127)).is_ok(),
            parse_line_bytes(nest(127).as_bytes()).is_ok()
        );
        assert!(parse_line(&nest(200)).is_err());
        assert!(parse_line_bytes(nest(200).as_bytes()).is_err());
    }

    #[test]
    fn slice_reader_matches_reader_on_records_errors_and_fingerprints() {
        let text = "\n{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":2}\n\n{ bad\n{\"kind\":\"read\",\"value\":1,\"start\":3,\"finish\":4}";
        let mut by_io = Reader::with_fingerprint(text.as_bytes(), Fingerprint::new());
        let mut by_slice = SliceReader::with_fingerprint(text.as_bytes(), Fingerprint::new());
        loop {
            match (by_io.next(), by_slice.next()) {
                (None, None) => break,
                (Some(Ok(a)), Some(Ok(b))) => assert_eq!(a, b),
                (Some(Err(NdjsonError::Parse { line: a, .. })), Some(Err(NdjsonError::Parse { line: b, .. }))) => {
                    assert_eq!(a, b)
                }
                (a, b) => panic!("readers diverged: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(by_io.lines_read(), by_slice.lines_read());
        assert_eq!(by_io.fingerprint(), by_slice.fingerprint());
        assert!(by_io.fingerprint().is_some());
        // Cross-path skip: Reader fingerprints a prefix, SliceReader
        // continues the chain, and vice versa.
        let mut skip_io = Reader::with_fingerprint(text.as_bytes(), Fingerprint::new());
        assert_eq!(skip_io.skip_raw_lines(5).unwrap(), 5);
        let mut skip_slice = SliceReader::with_fingerprint(text.as_bytes(), Fingerprint::new());
        assert_eq!(skip_slice.skip_raw_lines(5).unwrap(), 5);
        assert_eq!(skip_io.fingerprint(), skip_slice.fingerprint());
        assert_eq!(skip_io.fingerprint(), by_io.fingerprint());
    }
}
