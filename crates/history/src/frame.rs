//! Compact binary op frames: the fixed-width twin of the NDJSON codec.
//!
//! One operation is one little-endian frame. The v1 layout
//! ([`FRAME_MAGIC`], 37 bytes) has no session information; the v2 layout
//! ([`FRAME_MAGIC_V2`], 45 bytes) appends the issuing client id:
//!
//! ```text
//! offset  size  field
//!      0     8  key     (u64 LE)
//!      8     8  value   (u64 LE)
//!     16     8  start   (u64 LE)
//!     24     8  finish  (u64 LE)
//!     32     4  weight  (u32 LE)
//!     36     1  kind    (0 = read, 1 = write)
//!     37     8  client  (u64 LE, v2 only; 0 = untagged)
//! ```
//!
//! [`FrameStream`] sniffs the leading magic and decodes either version;
//! writers pick one explicitly ([`FrameWriter::new`] for v1, which rejects
//! client-tagged records rather than silently dropping the tag, and
//! [`FrameWriter::new_v2`] for v2).
//!
//! Frames exist only where bytes cross a file or process boundary; inside
//! a process operations travel as plain [`Operation`]s. The format serves
//! two roles:
//!
//! * **On disk** — a stream file is the 8-byte magic [`FRAME_MAGIC`]
//!   followed by consecutive frames (`kav gen --format binary`, `kav
//!   stream --format binary`). [`FrameStream`] mirrors the NDJSON
//!   readers' accounting: frames take the place of lines in checkpoint
//!   positions, and the resume [`Fingerprint`] chain digests one chunk per
//!   frame — so a checkpoint records which format produced it, and
//!   cross-format resume fails the fingerprint check instead of silently
//!   mixing formats.
//! * **On the wire** — the fleet coordinator buffers each key range's
//!   frames in a [`FrameBatch`] and sends them to the range's worker
//!   process as [`encode_routed_batch`] payloads; the worker decodes each
//!   frame once with [`decode_routed_batch`].

use crate::fxhash::Fingerprint;
use crate::ndjson::{NdjsonError, StreamRecord};
use crate::refill::Units;
use crate::{OpKind, Operation, Time, Value, Weight, UNTAGGED_CLIENT};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io::Read;
use std::path::Path;

/// Leading magic of a v1 binary stream file (37-byte frames, no client).
pub const FRAME_MAGIC: [u8; 8] = *b"KAVF0001";

/// Leading magic of a v2 binary stream file (45-byte frames with client).
pub const FRAME_MAGIC_V2: [u8; 8] = *b"KAVF0002";

/// Size of one encoded v1 frame in bytes.
pub const FRAME_LEN: usize = 37;

/// Size of one encoded v2 frame in bytes (v1 plus the client id).
pub const FRAME_LEN_V2: usize = 45;

/// Leading magic of a routed frame batch (the coordinator↔worker wire
/// payload, see [`encode_routed_batch`]); also versions that layout.
/// `KVB2` batches carry 45-byte v2 frames.
pub const BATCH_MAGIC: [u8; 4] = *b"KVB2";

/// Byte length of the routed-batch header: magic, range, payload length.
pub const BATCH_HEADER_LEN: usize = 20;

const KIND_READ: u8 = 0;
const KIND_WRITE: u8 = 1;

/// Appends one operation as a 37-byte v1 frame. The client tag, if any,
/// is not representable in v1; callers that may carry one go through
/// [`encode_frame_v2`] or a v1 [`FrameWriter`] (which rejects tags).
pub fn encode_frame(key: u64, op: &Operation, out: &mut Vec<u8>) {
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&op.value.0.to_le_bytes());
    out.extend_from_slice(&op.start.0.to_le_bytes());
    out.extend_from_slice(&op.finish.0.to_le_bytes());
    out.extend_from_slice(&op.weight.0.to_le_bytes());
    out.push(match op.kind {
        OpKind::Read => KIND_READ,
        OpKind::Write => KIND_WRITE,
    });
}

/// Appends one operation as a 45-byte v2 frame (v1 plus the client id).
pub fn encode_frame_v2(key: u64, op: &Operation, out: &mut Vec<u8>) {
    encode_frame(key, op, out);
    out.extend_from_slice(&op.client.to_le_bytes());
}

/// Decodes one 37-byte v1 frame; `Err` carries the offending kind byte.
fn decode_frame(frame: &[u8]) -> Result<(u64, Operation), u8> {
    let u64_at = |off: usize| {
        u64::from_le_bytes(frame[off..off + 8].try_into().expect("8-byte slice"))
    };
    let kind = match frame[36] {
        KIND_READ => OpKind::Read,
        KIND_WRITE => OpKind::Write,
        bad => return Err(bad),
    };
    Ok((
        u64_at(0),
        Operation {
            kind,
            value: Value(u64_at(8)),
            start: Time(u64_at(16)),
            finish: Time(u64_at(24)),
            weight: Weight(u32::from_le_bytes(frame[32..36].try_into().expect("4-byte slice"))),
            client: UNTAGGED_CLIENT,
        },
    ))
}

/// Decodes one 45-byte v2 frame written by [`encode_frame_v2`]; `Err`
/// carries the offending kind byte. `frame` must be [`FRAME_LEN_V2`] bytes.
pub fn decode_frame_v2(frame: &[u8]) -> Result<(u64, Operation), u8> {
    let (key, mut op) = decode_frame(&frame[..FRAME_LEN])?;
    op.client = u64::from_le_bytes(frame[37..45].try_into().expect("8-byte slice"));
    Ok((key, op))
}

/// A write-side buffer of v2 frames: the fleet coordinator's per-range
/// wire buffer, sent as [`encode_routed_batch`] payloads.
#[derive(Clone, Debug, Default)]
pub struct FrameBatch {
    bytes: Vec<u8>,
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> Self {
        FrameBatch::default()
    }

    /// Appends one keyed operation.
    pub fn push(&mut self, key: u64, op: &Operation) {
        encode_frame_v2(key, op, &mut self.bytes);
    }

    /// Number of frames in the batch.
    pub fn len(&self) -> usize {
        self.bytes.len() / FRAME_LEN_V2
    }

    /// Whether the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Empties the batch, keeping its allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
    }

    /// Drops the first `frames` frames, keeping the rest in order.
    pub fn drain_front(&mut self, frames: usize) {
        self.bytes.drain(..frames * FRAME_LEN_V2);
    }

    /// The bytes of the frames from index `first` on.
    pub fn frames_from(&self, first: usize) -> &[u8] {
        &self.bytes[first * FRAME_LEN_V2..]
    }
}

/// The raw frame bytes (no magic, no header): `len() * FRAME_LEN_V2`
/// bytes of consecutive v2 frames.
impl AsRef<[u8]> for FrameBatch {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

/// A bit-prefix slice of the hashed key space — the unit the fleet
/// coordinator assigns, hands off and splits.
///
/// A range covers every key whose multiplicative hash has `prefix` as its
/// top `bits` bits. Unlike `shard_of`'s modulus, prefixes **nest**:
/// [`split`](KeyRange::split) yields two children that exactly tile the
/// parent, so a hot shard can be split without re-hashing anything else in
/// the fleet, and any set of ranges produced by repeated splits of
/// [`KeyRange::ALL`] tiles the key space with no overlap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KeyRange {
    /// How many leading hash bits the prefix pins (0 = the whole space).
    pub bits: u32,
    /// The pinned leading bits, right-aligned (`prefix < 2^bits`).
    pub prefix: u64,
}

/// The multiplier behind both `shard_of` and [`KeyRange`]: keys are
/// compared by the bits of `key * KEY_HASH_MULTIPLIER`.
const KEY_HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl KeyRange {
    /// The whole key space (the one range a single-worker fleet owns).
    pub const ALL: KeyRange = KeyRange { bits: 0, prefix: 0 };

    /// Splits can nest at most this deep (far beyond any real fleet, but
    /// it keeps `prefix` shifts well-defined).
    pub const MAX_BITS: u32 = 32;

    /// Whether the pair is internally consistent: `bits` within
    /// [`MAX_BITS`](KeyRange::MAX_BITS) and `prefix` inside `2^bits`.
    /// Deserialized ranges must pass this before use.
    pub fn is_valid(&self) -> bool {
        self.bits <= Self::MAX_BITS && (self.bits == 0 || self.prefix >> self.bits == 0)
    }

    /// Whether `key` hashes into this range.
    pub fn contains(&self, key: u64) -> bool {
        if self.bits == 0 {
            return true;
        }
        key.wrapping_mul(KEY_HASH_MULTIPLIER) >> (64 - self.bits) == self.prefix
    }

    /// The two child ranges that exactly tile this one (next hash bit 0
    /// and 1) — the hot-shard split.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_BITS`](KeyRange::MAX_BITS) levels of nesting.
    pub fn split(&self) -> (KeyRange, KeyRange) {
        assert!(self.bits < Self::MAX_BITS, "key range split past {} bits", Self::MAX_BITS);
        let bits = self.bits + 1;
        (
            KeyRange { bits, prefix: self.prefix << 1 },
            KeyRange { bits, prefix: (self.prefix << 1) | 1 },
        )
    }

    /// The smallest uniform partition with at least `workers` ranges:
    /// `2^ceil(log2(workers))` ranges of equal width, in prefix order.
    /// Dealt round-robin they give every worker of a fresh fleet one or
    /// two ranges.
    pub fn partition(workers: usize) -> Vec<KeyRange> {
        let workers = workers.clamp(1, 1usize << Self::MAX_BITS);
        let bits = usize::BITS - (workers - 1).leading_zeros();
        (0..1u64 << bits).map(|prefix| KeyRange { bits, prefix }).collect()
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits == 0 {
            write!(f, "*/0")
        } else {
            write!(f, "{:0width$b}/{}", self.prefix, self.bits, width = self.bits as usize)
        }
    }
}

/// Why routed-batch bytes were rejected (see [`decode_routed_batch`]).
///
/// Every variant is an input-protocol fault, never a verdict: the fleet
/// surfaces these as exit-2 diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// The header does not start with [`BATCH_MAGIC`].
    BadMagic([u8; 4]),
    /// Fewer than [`BATCH_HEADER_LEN`] header bytes arrived.
    TruncatedHeader {
        /// Bytes actually present.
        bytes: usize,
    },
    /// The declared range fails [`KeyRange::is_valid`].
    BadRange(KeyRange),
    /// The payload is shorter than the header declared.
    TruncatedPayload {
        /// Payload bytes the header declared.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The payload length is not a whole number of frames.
    TruncatedFrames {
        /// Payload length in bytes.
        bytes: usize,
    },
    /// A frame's kind byte is neither read (0) nor write (1).
    BadKind {
        /// 1-based frame number within the batch.
        frame: usize,
        /// The offending byte.
        kind: u8,
    },
    /// A frame's key hashes outside the declared routing range.
    ForeignKey {
        /// 1-based frame number within the batch.
        frame: usize,
        /// The misrouted key.
        key: u64,
        /// The range the header declared.
        range: KeyRange,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::BadMagic(got) => {
                write!(f, "bad batch magic {got:?} (expected {BATCH_MAGIC:?})")
            }
            BatchError::TruncatedHeader { bytes } => {
                write!(f, "truncated batch header: {bytes} bytes (need {BATCH_HEADER_LEN})")
            }
            BatchError::BadRange(range) => {
                write!(f, "malformed key range {range:?} in batch header")
            }
            BatchError::TruncatedPayload { declared, actual } => {
                write!(f, "truncated batch payload: header declared {declared} bytes, got {actual}")
            }
            BatchError::TruncatedFrames { bytes } => {
                write!(
                    f,
                    "batch payload of {bytes} bytes is not whole frames ({FRAME_LEN_V2} bytes each)"
                )
            }
            BatchError::BadKind { frame, kind } => {
                write!(f, "frame {frame}: invalid kind byte {kind} (0 = read, 1 = write)")
            }
            BatchError::ForeignKey { frame, key, range } => {
                write!(f, "frame {frame}: key {key} routed outside its declared range {range}")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// Encodes consecutive v2 frames (a [`FrameBatch`], or a slice of its
/// bytes) with their routing header for the coordinator↔worker wire:
/// [`BATCH_MAGIC`], the owning [`KeyRange`] (`bits` u32 LE, `prefix` u64
/// LE), the payload length (u32 LE), then the raw frames.
///
/// The explicit length prefix is what lets the reader distinguish a short
/// read (connection died mid-batch) from a complete batch, and the range
/// header is what lets the receiving worker reject misrouted keys instead
/// of silently auditing someone else's shard.
pub fn encode_routed_batch(range: KeyRange, frames: &(impl AsRef<[u8]> + ?Sized)) -> Vec<u8> {
    let payload = frames.as_ref();
    let mut out = Vec::with_capacity(BATCH_HEADER_LEN + payload.len());
    out.extend_from_slice(&BATCH_MAGIC);
    out.extend_from_slice(&range.bits.to_le_bytes());
    out.extend_from_slice(&range.prefix.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes and fully validates routed-batch bytes: magic, header
/// completeness, declared vs actual payload length, whole frames, legal
/// kind bytes, and **every key inside the declared range**. Each frame is
/// decoded once, into the keyed operations in batch order.
///
/// # Errors
///
/// One [`BatchError`] per fault class. When a batch has several faults,
/// a payload of partial frames wins over a bad kind byte, and the first
/// bad kind byte wins over the first foreign key. A valid batch
/// round-trips [`encode_routed_batch`] exactly.
pub fn decode_routed_batch(
    bytes: &[u8],
) -> Result<(KeyRange, Vec<(u64, Operation)>), BatchError> {
    if bytes.len() < BATCH_HEADER_LEN {
        if bytes.len() >= BATCH_MAGIC.len() && bytes[..BATCH_MAGIC.len()] != BATCH_MAGIC {
            let mut got = [0u8; 4];
            got.copy_from_slice(&bytes[..4]);
            return Err(BatchError::BadMagic(got));
        }
        return Err(BatchError::TruncatedHeader { bytes: bytes.len() });
    }
    if bytes[..BATCH_MAGIC.len()] != BATCH_MAGIC {
        let mut got = [0u8; 4];
        got.copy_from_slice(&bytes[..4]);
        return Err(BatchError::BadMagic(got));
    }
    let range = KeyRange {
        bits: u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice")),
        prefix: u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice")),
    };
    if !range.is_valid() {
        return Err(BatchError::BadRange(range));
    }
    let declared = u32::from_le_bytes(bytes[16..20].try_into().expect("4-byte slice")) as usize;
    let payload = &bytes[BATCH_HEADER_LEN..];
    if payload.len() != declared {
        return Err(BatchError::TruncatedPayload { declared, actual: payload.len() });
    }
    if !payload.len().is_multiple_of(FRAME_LEN_V2) {
        return Err(BatchError::TruncatedFrames { bytes: payload.len() });
    }
    let mut ops = Vec::with_capacity(payload.len() / FRAME_LEN_V2);
    let mut foreign = None;
    for (i, frame) in payload.chunks_exact(FRAME_LEN_V2).enumerate() {
        let (key, op) =
            decode_frame_v2(frame).map_err(|kind| BatchError::BadKind { frame: i + 1, kind })?;
        if foreign.is_none() && !range.contains(key) {
            foreign = Some(BatchError::ForeignKey { frame: i + 1, key, range });
        }
        ops.push((key, op));
    }
    match foreign {
        Some(err) => Err(err),
        None => Ok((range, ops)),
    }
}

/// Streaming writer for the on-disk frame format: magic first, then one
/// frame per record, through a reused buffer.
///
/// [`new`](FrameWriter::new) writes the v1 layout and rejects
/// client-tagged records (the tag has no v1 encoding — dropping it
/// silently would change verdicts under session-aware models);
/// [`new_v2`](FrameWriter::new_v2) writes the v2 layout, which carries
/// the tag.
pub struct FrameWriter<W: std::io::Write> {
    out: W,
    buf: Vec<u8>,
    wrote_magic: bool,
    v2: bool,
}

impl<W: std::io::Write> FrameWriter<W> {
    /// Wraps `out` as a v1 stream; the magic goes out with the first
    /// record (or [`finish`](FrameWriter::finish), so empty streams are
    /// valid too).
    pub fn new(out: W) -> Self {
        FrameWriter { out, buf: Vec::with_capacity(FRAME_LEN_V2), wrote_magic: false, v2: false }
    }

    /// Wraps `out` as a v2 stream (45-byte frames carrying the client id).
    pub fn new_v2(out: W) -> Self {
        FrameWriter { out, buf: Vec::with_capacity(FRAME_LEN_V2), wrote_magic: false, v2: true }
    }

    fn magic(&mut self) -> std::io::Result<()> {
        if !self.wrote_magic {
            self.out.write_all(if self.v2 { &FRAME_MAGIC_V2 } else { &FRAME_MAGIC })?;
            self.wrote_magic = true;
        }
        Ok(())
    }

    /// Writes one record as a frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer; a v1 writer
    /// additionally rejects client-tagged records with
    /// [`std::io::ErrorKind::InvalidInput`].
    pub fn write_record(&mut self, record: &StreamRecord) -> std::io::Result<()> {
        if !self.v2 && record.client != UNTAGGED_CLIENT {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "client-tagged record (client {}) cannot be encoded as a v1 frame; \
                     use the v2 frame format",
                    record.client
                ),
            ));
        }
        self.magic()?;
        self.buf.clear();
        if self.v2 {
            encode_frame_v2(record.key, &record.op(), &mut self.buf);
        } else {
            encode_frame(record.key, &record.op(), &mut self.buf);
        }
        self.out.write_all(&self.buf)
    }

    /// Flushes (writing the magic if nothing else was) and returns the
    /// underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.magic()?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writes records as a binary frame stream file, picking the layout by
/// content: v1 when no record carries a client tag (byte-identical to
/// pre-session streams), v2 as soon as any record does.
///
/// # Errors
///
/// Returns [`NdjsonError::Io`] on I/O failure.
pub fn write_frames<'a>(
    path: impl AsRef<Path>,
    records: impl IntoIterator<Item = &'a StreamRecord> + Clone,
) -> Result<(), NdjsonError> {
    let tagged = records.clone().into_iter().any(|r| r.client != UNTAGGED_CLIENT);
    let out = std::io::BufWriter::new(fs::File::create(path)?);
    let mut writer = if tagged { FrameWriter::new_v2(out) } else { FrameWriter::new(out) };
    for record in records {
        writer.write_record(record)?;
    }
    writer.finish()?;
    Ok(())
}

/// Reader over a binary frame stream from any [`Read`] — a file, stdin, a
/// pipe, a byte slice — and the frame-format peer of
/// [`LineStream`](crate::ndjson::LineStream), sharing its refill buffer.
///
/// Frames take the place of lines: [`frames_read`](FrameStream::frames_read)
/// is the checkpoint position unit, errors carry the 1-based frame number,
/// and the resume [`Fingerprint`] chain digests one chunk per consumed
/// frame (malformed ones included, like malformed NDJSON lines) however
/// the input was chunked.
pub struct FrameStream<R> {
    units: Units<R>,
    frame_len: usize,
}

/// [`FrameStream`] over an in-memory byte slice.
pub type FrameReader<'a> = FrameStream<&'a [u8]>;

impl<R: Read> FrameStream<R> {
    /// Wraps a frame stream (no fingerprinting), sniffing the leading
    /// magic to pick the v1 or v2 layout.
    ///
    /// # Errors
    ///
    /// Rejects input that begins with neither [`FRAME_MAGIC`] nor
    /// [`FRAME_MAGIC_V2`], and propagates I/O errors reading it.
    pub fn new(input: R) -> Result<Self, NdjsonError> {
        Self::open(input, None)
    }

    /// Wraps a frame stream and fingerprints every consumed frame.
    ///
    /// # Errors
    ///
    /// Rejects input that begins with neither [`FRAME_MAGIC`] nor
    /// [`FRAME_MAGIC_V2`], and propagates I/O errors reading it.
    pub fn with_fingerprint(input: R, fingerprint: Fingerprint) -> Result<Self, NdjsonError> {
        Self::open(input, Some(fingerprint))
    }

    fn open(input: R, fingerprint: Option<Fingerprint>) -> Result<Self, NdjsonError> {
        let mut units = Units::new(input, fingerprint);
        let frame_len = match units.header(FRAME_MAGIC.len())? {
            magic if magic == FRAME_MAGIC => FRAME_LEN,
            magic if magic == FRAME_MAGIC_V2 => FRAME_LEN_V2,
            _ => {
                return Err(NdjsonError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "not a kav binary frame stream (bad magic; expected KAVF0001 or KAVF0002)",
                )))
            }
        };
        Ok(FrameStream { units, frame_len })
    }

    /// Frames consumed so far (malformed ones included) — the position
    /// unit checkpoints record for binary ingest, as `lines_read` is for
    /// NDJSON.
    pub fn frames_read(&self) -> u64 {
        self.units.units()
    }

    /// The running digest of all consumed frames, when fingerprinting.
    pub fn fingerprint(&self) -> Option<u64> {
        self.units.fingerprint()
    }

    /// Consumes up to `n` raw frames without decoding them (they still
    /// count toward [`frames_read`](FrameStream::frames_read) and the
    /// fingerprint; a truncated tail counts as one frame). Returns how
    /// many frames were actually available.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying reader.
    pub fn skip_raw_frames(&mut self, n: u64) -> std::io::Result<u64> {
        let mut skipped = 0;
        while skipped < n && self.units.next_fixed(self.frame_len)?.is_some() {
            skipped += 1;
        }
        Ok(skipped)
    }
}

impl<R: Read> Iterator for FrameStream<R> {
    type Item = Result<StreamRecord, NdjsonError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (frame, raw) = match self.units.next_fixed(self.frame_len) {
            Ok(Some(frame)) => frame,
            Ok(None) => return None,
            Err(e) => return Some(Err(e.into())),
        };
        let parse_error = |message: String| NdjsonError::Parse {
            line: frame as usize,
            source: serde::DeError::custom(message).into(),
        };
        if raw.len() < self.frame_len {
            return Some(Err(parse_error(format!(
                "truncated frame: {} trailing bytes (frames are {} bytes)",
                raw.len(),
                self.frame_len
            ))));
        }
        let decoded =
            if self.frame_len == FRAME_LEN_V2 { decode_frame_v2(raw) } else { decode_frame(raw) };
        Some(match decoded {
            Ok((key, op)) => Ok(StreamRecord::new(key, op)),
            Err(bad) => Err(parse_error(format!("invalid kind byte {bad} (0 = read, 1 = write)"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<StreamRecord> {
        vec![
            StreamRecord::new(0, Operation::write(Value(1), Time(0), Time(10))),
            StreamRecord::new(3, Operation::read(Value(1), Time(12), Time(20))),
            StreamRecord::new(
                u64::MAX,
                Operation::weighted_write(Value(u64::MAX), Time(14), Time(30), Weight(u32::MAX)),
            ),
        ]
    }

    #[test]
    fn frame_roundtrip_preserves_records() {
        let mut writer = FrameWriter::new(Vec::new());
        for record in sample() {
            writer.write_record(&record).unwrap();
        }
        let bytes = writer.finish().unwrap();
        assert_eq!(bytes.len(), FRAME_MAGIC.len() + sample().len() * FRAME_LEN);
        let decoded: Vec<_> =
            FrameReader::new(&bytes).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(decoded, sample());
    }

    #[test]
    fn batch_roundtrip_preserves_push_order() {
        let decode = |frames: &[u8]| -> Vec<StreamRecord> {
            let bytes = encode_routed_batch(KeyRange::ALL, frames);
            let (_, ops) = decode_routed_batch(&bytes).unwrap();
            ops.into_iter().map(|(k, op)| StreamRecord::new(k, op)).collect()
        };
        let mut batch = FrameBatch::new();
        assert!(batch.is_empty());
        for record in sample() {
            batch.push(record.key, &record.op());
        }
        assert_eq!(batch.len(), 3);
        assert_eq!(decode(batch.as_ref()), sample());
        assert_eq!(decode(batch.frames_from(2)), sample()[2..]);
        batch.drain_front(1);
        assert_eq!(decode(batch.as_ref()), sample()[1..]);
        batch.clear();
        assert!(batch.is_empty());
        assert!(decode(batch.as_ref()).is_empty());
    }

    #[test]
    fn bad_magic_truncation_and_bad_kind_are_rejected() {
        assert!(matches!(FrameReader::new(b"NOPE"), Err(NdjsonError::Io(_))));
        assert!(matches!(FrameReader::new(b"KAVF9999AAAA"), Err(NdjsonError::Io(_))));

        // An empty stream is just the magic.
        let empty = FrameWriter::new(Vec::new()).finish().unwrap();
        assert_eq!(empty, FRAME_MAGIC);
        assert_eq!(FrameReader::new(&empty).unwrap().count(), 0);

        // Truncated tail: one good frame then half a frame.
        let mut writer = FrameWriter::new(Vec::new());
        writer.write_record(&sample()[0]).unwrap();
        writer.write_record(&sample()[1]).unwrap();
        let mut bytes = writer.finish().unwrap();
        bytes.truncate(FRAME_MAGIC.len() + FRAME_LEN + 10);
        let mut reader = FrameReader::new(&bytes).unwrap();
        assert_eq!(reader.next().unwrap().unwrap(), sample()[0]);
        match reader.next().unwrap().unwrap_err() {
            NdjsonError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(reader.next().is_none());

        // A flipped kind byte errors with the frame number and skips on.
        let mut writer = FrameWriter::new(Vec::new());
        for record in sample() {
            writer.write_record(&record).unwrap();
        }
        let mut bytes = writer.finish().unwrap();
        bytes[FRAME_MAGIC.len() + FRAME_LEN + 36] = 7;
        let mut reader = FrameReader::new(&bytes).unwrap();
        assert!(reader.next().unwrap().is_ok());
        match reader.next().unwrap().unwrap_err() {
            NdjsonError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert_eq!(reader.next().unwrap().unwrap(), sample()[2]);
    }

    #[test]
    fn v2_frames_carry_the_client_tag() {
        let records = vec![
            StreamRecord::new(0, Operation::write(Value(1), Time(0), Time(10)).with_client(3)),
            StreamRecord::new(1, Operation::read(Value(1), Time(12), Time(20))),
            StreamRecord::new(
                2,
                Operation::write(Value(2), Time(30), Time(40)).with_client(u64::MAX),
            ),
        ];
        let mut writer = FrameWriter::new_v2(Vec::new());
        for record in &records {
            writer.write_record(record).unwrap();
        }
        let bytes = writer.finish().unwrap();
        assert_eq!(&bytes[..8], &FRAME_MAGIC_V2);
        assert_eq!(bytes.len(), FRAME_MAGIC_V2.len() + records.len() * FRAME_LEN_V2);
        let decoded: Vec<_> =
            FrameReader::new(&bytes).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(decoded, records);

        // An empty v2 stream is just the v2 magic.
        let empty = FrameWriter::new_v2(Vec::<u8>::new()).finish().unwrap();
        assert_eq!(empty, FRAME_MAGIC_V2);
        assert_eq!(FrameReader::new(&empty).unwrap().count(), 0);

        // A v1 writer refuses to drop the tag.
        let mut v1 = FrameWriter::new(Vec::new());
        let err = v1.write_record(&records[0]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // Untagged records still encode in v1 — byte-identical streams.
        v1.write_record(&records[1]).unwrap();
        assert_eq!(v1.finish().unwrap().len(), FRAME_MAGIC.len() + FRAME_LEN);

        // Routed batches (always v2) preserve the tag too.
        let mut batch = FrameBatch::new();
        for record in &records {
            batch.push(record.key, &record.op());
        }
        let bytes = encode_routed_batch(KeyRange::ALL, &batch);
        let (_, decoded) = decode_routed_batch(&bytes).unwrap();
        let decoded: Vec<_> =
            decoded.into_iter().map(|(k, op)| StreamRecord::new(k, op)).collect();
        assert_eq!(decoded, records);
    }

    #[test]
    fn write_frames_picks_the_layout_by_content() {
        let dir = std::env::temp_dir().join("kav_history_frame_v2_test");
        fs::create_dir_all(&dir).unwrap();
        let untagged = sample();
        let path = dir.join("v1.bin");
        write_frames(&path, &untagged).unwrap();
        assert_eq!(&fs::read(&path).unwrap()[..8], &FRAME_MAGIC);
        let tagged = vec![StreamRecord::new(
            0,
            Operation::write(Value(1), Time(0), Time(10)).with_client(5),
        )];
        let path2 = dir.join("v2.bin");
        write_frames(&path2, &tagged).unwrap();
        let bytes = fs::read(&path2).unwrap();
        assert_eq!(&bytes[..8], &FRAME_MAGIC_V2);
        let decoded: Vec<_> =
            FrameReader::new(&bytes).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(decoded, tagged);
        fs::remove_file(path).ok();
        fs::remove_file(path2).ok();
    }

    #[test]
    fn key_ranges_nest_and_tile() {
        assert!(KeyRange::ALL.is_valid());
        for key in [0u64, 1, 7, 42, 0xDEAD_BEEF, u64::MAX] {
            assert!(KeyRange::ALL.contains(key));
        }
        // Children exactly tile the parent: every key lands in one child.
        let (zero, one) = KeyRange::ALL.split();
        let (zz, zo) = zero.split();
        for key in 0..10_000u64 {
            assert!(KeyRange::ALL.contains(key));
            assert_ne!(zero.contains(key), one.contains(key));
            if zero.contains(key) {
                assert_ne!(zz.contains(key), zo.contains(key));
            } else {
                assert!(!zz.contains(key) && !zo.contains(key));
            }
        }
        // partition(n) tiles the space with the smallest power of two >= n.
        for workers in 1..=9usize {
            let ranges = KeyRange::partition(workers);
            assert!(ranges.len() >= workers && ranges.len() < workers * 2);
            assert!(ranges.len().is_power_of_two());
            for key in (0..50_000u64).step_by(97) {
                assert_eq!(ranges.iter().filter(|r| r.contains(key)).count(), 1);
            }
        }
        assert!(!KeyRange { bits: 2, prefix: 4 }.is_valid());
        assert!(!KeyRange { bits: KeyRange::MAX_BITS + 1, prefix: 0 }.is_valid());
        assert_eq!(KeyRange::ALL.to_string(), "*/0");
        assert_eq!(KeyRange { bits: 3, prefix: 0b010 }.to_string(), "010/3");
    }

    #[test]
    fn routed_batch_roundtrip_and_rejections() {
        let (left, right) = KeyRange::ALL.split();
        let mut batch = FrameBatch::new();
        let mut in_left = Vec::new();
        for record in sample() {
            if left.contains(record.key) {
                batch.push(record.key, &record.op());
                in_left.push(record);
            }
        }
        let bytes = encode_routed_batch(left, &batch);
        let (range, decoded) = decode_routed_batch(&bytes).unwrap();
        assert_eq!(range, left);
        let decoded: Vec<_> =
            decoded.into_iter().map(|(k, op)| StreamRecord::new(k, op)).collect();
        assert_eq!(decoded, in_left);

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_routed_batch(&bad), Err(BatchError::BadMagic(_))));
        // Truncated header.
        assert!(matches!(
            decode_routed_batch(&bytes[..BATCH_HEADER_LEN - 1]),
            Err(BatchError::TruncatedHeader { .. })
        ));
        // Truncated payload (declared length no longer matches).
        if !batch.is_empty() {
            assert!(matches!(
                decode_routed_batch(&bytes[..bytes.len() - 1]),
                Err(BatchError::TruncatedPayload { .. })
            ));
        }
        // Malformed range header.
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&200u32.to_le_bytes());
        assert!(matches!(decode_routed_batch(&bad), Err(BatchError::BadRange(_))));
        // A key routed to the wrong shard is rejected, not audited.
        let misrouted = encode_routed_batch(right, &batch);
        if !batch.is_empty() {
            assert!(matches!(
                decode_routed_batch(&misrouted),
                Err(BatchError::ForeignKey { .. })
            ));
        }
        // A corrupted kind byte inside the payload is rejected. In a v2
        // frame the kind byte sits 9 bytes from the end (before the
        // 8-byte client id).
        if !batch.is_empty() {
            let mut bad = bytes.clone();
            let kind_at = bad.len() - 9;
            bad[kind_at] = 9;
            assert!(matches!(decode_routed_batch(&bad), Err(BatchError::BadKind { .. })));
        }

        // Several faults in one batch: whole frames are checked first, then
        // the first bad kind, then the first foreign key.
        let foreign = (0..).find(|key| right.contains(*key)).unwrap();
        let mut multi = FrameBatch::new();
        for v in 1..=3 {
            multi.push(foreign, &Operation::write(Value(v), Time(10 * v), Time(10 * v + 5)));
        }
        let mut bad = encode_routed_batch(left, &multi);
        bad[BATCH_HEADER_LEN + 2 * FRAME_LEN_V2 + 36] = 9;
        assert_eq!(
            decode_routed_batch(&bad).unwrap_err(),
            BatchError::BadKind { frame: 3, kind: 9 }
        );
        bad.extend_from_slice(&[0; 5]);
        let payload = (bad.len() - BATCH_HEADER_LEN) as u32;
        bad[16..20].copy_from_slice(&payload.to_le_bytes());
        assert_eq!(
            decode_routed_batch(&bad).unwrap_err(),
            BatchError::TruncatedFrames { bytes: 3 * FRAME_LEN_V2 + 5 }
        );
    }

    #[test]
    fn fingerprinted_skip_matches_fingerprinted_read() {
        let mut writer = FrameWriter::new(Vec::new());
        for record in sample() {
            writer.write_record(&record).unwrap();
        }
        let bytes = writer.finish().unwrap();

        let mut full = FrameReader::with_fingerprint(&bytes, Fingerprint::new()).unwrap();
        assert_eq!(full.by_ref().filter_map(Result::ok).count(), 3);
        assert_eq!(full.frames_read(), 3);

        let mut skip = FrameReader::with_fingerprint(&bytes, Fingerprint::new()).unwrap();
        assert_eq!(skip.skip_raw_frames(3).unwrap(), 3);
        assert_eq!(skip.fingerprint(), full.fingerprint());
        assert!(skip.fingerprint().is_some());

        // Different bytes, different digest; skipping past the end
        // reports the shortfall.
        let mut writer = FrameWriter::new(Vec::new());
        writer.write_record(&sample()[1]).unwrap();
        let other = writer.finish().unwrap();
        let mut diverged = FrameReader::with_fingerprint(&other, Fingerprint::new()).unwrap();
        assert_eq!(diverged.skip_raw_frames(10).unwrap(), 1);
        assert_ne!(diverged.fingerprint(), full.fingerprint());
    }
}
