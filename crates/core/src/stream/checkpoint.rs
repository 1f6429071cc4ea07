//! Atomic, versioned checkpoint files for long-running audits.
//!
//! A checkpoint is a [`PipelineSnapshot`] (the complete verification
//! state) wrapped in an envelope that records *where in the input* the
//! snapshot was taken — the number of consumed lines, a running
//! [fingerprint](kav_history::fxhash::Fingerprint) of those lines, and the
//! malformed-record tally. On resume the driver re-reads the input prefix,
//! recomputes the fingerprint and compares: a match proves the resumed
//! audit continues exactly the stream the checkpoint summarised (the
//! *unbroken chain* a certified YES requires — see
//! [`StreamReport::resumed_uncertified`](super::StreamReport::resumed_uncertified)).
//!
//! [`CheckpointWriter`] overwrites a single path **atomically** — the new
//! checkpoint is written to a sibling temp file, synced, then renamed over
//! the previous one — so a crash mid-write leaves the last complete
//! checkpoint intact, never a torn file. Versions are monotone: every
//! write embeds a strictly increasing `version`, and resuming hands the
//! last version back to [`CheckpointWriter::starting_at`] so the chain
//! keeps counting across processes.
//!
//! # File layout (format 2)
//!
//! Every write is a full snapshot, so a checkpoint costs what the
//! resident state costs: the bulk of a snapshot is each key's buffered
//! operations and retirement ring, and those are stored as fixed-width
//! binary columns rather than JSON.
//!
//! ```text
//! offset  size  field
//!      0     8  magic "KAVCKPT2"
//!      8     8  envelope length E (u64 LE)
//!     16     E  envelope (JSON)
//!   16+E     C  column section (C bytes, recorded in the envelope)
//! ```
//!
//! The envelope holds `format`, `version`, `source`, the column
//! section's byte length and [`Fingerprint`] (`columns`), and the
//! `pipeline` snapshot with every key's `builder.buffer` and
//! `builder.retired_recent` emptied; all other fields stay JSON. The
//! column section has one entry per key, in the envelope's `states`
//! order: a u64 op count, that many ops as 45-byte v2 frames (see
//! [`kav_history::frame`]; the client id survives for causal audits),
//! then a u64 ring length and that many u64 values, all little-endian.
//!
//! [`read_checkpoint`] distrusts the columns: it checks the length and
//! checksum first, and every count against the bytes that remain before
//! allocating for it. The decoded snapshot then goes through the same
//! `resume` validation as any other snapshot.
//!
//! # Format 1
//!
//! Earlier builds wrote one JSON document (a file starting with `{`): the
//! last full snapshot plus up to eight per-key *delta* hops. Deltas did
//! not pay off — any key whose state changed at all was re-shipped in
//! full, so on a multi-key stream each delta was as large as a full
//! snapshot — and this build no longer writes them. [`read_checkpoint`]
//! still reads such files, resolving their deltas (and rejecting
//! inconsistent chains), so old checkpoints keep resuming.
//!
//! # Examples
//!
//! ```
//! use kav_core::{Checkpoint, CheckpointWriter, Fzf, PipelineConfig, SourcePosition,
//!                StreamPipeline};
//! use kav_history::{Operation, Time, Value};
//!
//! let dir = std::env::temp_dir().join("kav_checkpoint_doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("audit.ckpt");
//!
//! let mut pipeline = StreamPipeline::new(Fzf, PipelineConfig::default());
//! pipeline.push(7, Operation::write(Value(1), Time(0), Time(10)));
//!
//! let mut writer = CheckpointWriter::new(&path);
//! let source = SourcePosition { lines: 1, fingerprint: 42, ..Default::default() };
//! let version = writer.write(source, pipeline.snapshot()).unwrap();
//! assert_eq!(version, 1);
//!
//! let checkpoint: Checkpoint = kav_core::read_checkpoint(&path).unwrap();
//! assert_eq!(checkpoint.version, 1);
//! assert_eq!(checkpoint.source.lines, 1);
//! assert_eq!(checkpoint.pipeline.ops_routed, 1);
//! # std::fs::remove_file(&path).ok();
//! ```

use super::pipeline::{KeyError, KeyReport, KeySnapshot, PipelineSnapshot};
use super::OnlineSnapshot;
use kav_history::frame::{decode_frame_v2, encode_frame_v2, KeyRange, FRAME_LEN_V2};
use kav_history::fxhash::Fingerprint;
use kav_history::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::mem;
use std::path::{Path, PathBuf};

/// Version of the checkpoint file format itself (not of any one file):
/// bumped when the layout changes incompatibly, so a reader can reject
/// files written by a different era instead of mis-parsing them.
pub const CHECKPOINT_FORMAT: u32 = 2;

/// The JSON format earlier builds wrote; still read, never written.
const LEGACY_FORMAT: u32 = 1;

/// Leading bytes of a format-2 checkpoint file.
const MAGIC: [u8; 8] = *b"KAVCKPT2";

/// Width of one retirement-ring entry in the column section.
const RING_ENTRY_LEN: usize = 8;

/// Default checkpoint cadence, in ingested operations. Chosen so that at
/// typical single-core end-to-end throughput (~1-2M ops/s) the audit
/// checkpoints about every half second to a second. perfbench's
/// `ckpt-wide` workload measures what one checkpoint costs (the
/// `core.stream.checkpoint.*` layers); `docs/OPERATIONS.md` ("The
/// checkpoint budget") turns that into an overhead for a cadence.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1_000_000;

/// Where in the input stream a checkpoint was taken.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SourcePosition {
    /// Raw input lines consumed (blank and malformed lines included).
    pub lines: u64,
    /// Running fingerprint of those lines
    /// ([`kav_history::fxhash::Fingerprint`], one chunk per line).
    pub fingerprint: u64,
    /// Malformed records skipped so far.
    pub malformed: u64,
    /// Sample messages for the first few malformed records.
    #[serde(default)]
    pub malformed_samples: Vec<String>,
}

/// One complete, self-describing checkpoint, as [`read_checkpoint`]
/// returns it.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The format the file was written in: [`CHECKPOINT_FORMAT`], or 1
    /// for a file from an earlier build.
    pub format: u32,
    /// Monotonically increasing version of this audit's checkpoint chain,
    /// starting at 1.
    pub version: u64,
    /// Input position the snapshot corresponds to.
    pub source: SourcePosition,
    /// The verification state at that position.
    pub pipeline: PipelineSnapshot,
}

/// A checkpoint file that cannot be used.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading the file failed.
    Io(io::Error),
    /// The file is not a checkpoint (or is torn despite atomic replace —
    /// e.g. copied while being written).
    Parse(String),
    /// The file was written by an incompatible format era.
    Format(u32),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "cannot read checkpoint: {e}"),
            CheckpointError::Parse(e) => write!(f, "not a valid checkpoint: {e}"),
            CheckpointError::Format(v) => write!(
                f,
                "checkpoint format {v} is not supported (this build reads formats \
                 {CHECKPOINT_FORMAT} and {LEGACY_FORMAT})"
            ),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn invalid(e: impl ToString) -> CheckpointError {
    CheckpointError::Parse(e.to_string())
}

/// Byte length and checksum of a format-2 file's column section.
#[derive(Serialize, Deserialize)]
struct ColumnsDigest {
    bytes: u64,
    /// [`Fingerprint`] of the whole section as one chunk.
    fingerprint: u64,
}

impl ColumnsDigest {
    fn of(columns: &[u8]) -> Self {
        let mut fingerprint = Fingerprint::new();
        fingerprint.update(columns);
        ColumnsDigest { bytes: columns.len() as u64, fingerprint: fingerprint.value() }
    }
}

/// The JSON head of a format-2 file (see the module docs).
#[derive(Serialize, Deserialize)]
struct Envelope {
    format: u32,
    version: u64,
    source: SourcePosition,
    columns: ColumnsDigest,
    pipeline: PipelineSnapshot,
}

/// Reads and validates a checkpoint file of either readable format. A
/// format-1 file's delta hops are resolved into one snapshot.
///
/// # Errors
///
/// [`CheckpointError`] when the file is unreadable, unparseable, from an
/// incompatible format era, carries version 0 (never written), has a
/// damaged column section, or (format 1) its delta chain is inconsistent.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
    parse_checkpoint(&fs::read(path)?)
}

fn parse_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    if bytes.first() == Some(&b'{') {
        return parse_legacy(bytes);
    }
    let Some(rest) = bytes.strip_prefix(&MAGIC) else {
        return Err(invalid("unrecognised leading bytes (neither format 2 nor format 1)"));
    };
    let Some((len, rest)) = rest.split_first_chunk::<8>() else {
        return Err(invalid("truncated before the envelope length"));
    };
    let len = u64::from_le_bytes(*len);
    if len > rest.len() as u64 {
        return Err(invalid(format!(
            "envelope of {len} bytes, but only {} bytes follow",
            rest.len()
        )));
    }
    let (head, columns) = rest.split_at(len as usize);
    let envelope: Envelope = parse_json(head, CHECKPOINT_FORMAT)?;
    if envelope.version == 0 {
        return Err(invalid("checkpoint version 0"));
    }
    let digest = ColumnsDigest::of(columns);
    if digest.bytes != envelope.columns.bytes {
        return Err(invalid(format!(
            "column section is {} bytes, the envelope records {}",
            digest.bytes, envelope.columns.bytes
        )));
    }
    if digest.fingerprint != envelope.columns.fingerprint {
        return Err(invalid("column section fails its checksum"));
    }
    let mut pipeline = envelope.pipeline;
    decode_columns(&mut pipeline, columns)?;
    Ok(Checkpoint {
        format: CHECKPOINT_FORMAT,
        version: envelope.version,
        source: envelope.source,
        pipeline,
    })
}

/// Parses a JSON document whose `format` field must equal `format`;
/// the format is checked first, so a file from another era is reported
/// as such rather than as a schema mismatch.
fn parse_json<T: Deserialize>(bytes: &[u8], format: u32) -> Result<T, CheckpointError> {
    let text = std::str::from_utf8(bytes).map_err(invalid)?;
    let value: serde_json::Value = serde_json::from_str(text).map_err(invalid)?;
    let found = value.get("format").map(u32::from_value).transpose().map_err(invalid)?;
    match found {
        None => Err(invalid("missing field `format`")),
        Some(found) if found != format => Err(CheckpointError::Format(found)),
        Some(_) => T::from_value(&value).map_err(invalid),
    }
}

/// Moves every key's buffer and retirement ring out of `pipeline` into
/// a column section (see the module docs).
fn encode_columns(pipeline: &mut PipelineSnapshot) -> Vec<u8> {
    let (ops, ring) = pipeline.states.iter().fold((0, 0), |(ops, ring), entry| {
        let builder = &entry.state.builder;
        (ops + builder.buffer.len(), ring + builder.retired_recent.len())
    });
    let mut out = Vec::with_capacity(
        ops * FRAME_LEN_V2 + ring * RING_ENTRY_LEN + pipeline.states.len() * 16,
    );
    for entry in &mut pipeline.states {
        let builder = &mut entry.state.builder;
        let buffer = mem::take(&mut builder.buffer);
        out.extend_from_slice(&(buffer.len() as u64).to_le_bytes());
        for op in &buffer {
            encode_frame_v2(entry.key, op, &mut out);
        }
        let ring = mem::take(&mut builder.retired_recent);
        out.extend_from_slice(&(ring.len() as u64).to_le_bytes());
        for value in &ring {
            out.extend_from_slice(&value.0.to_le_bytes());
        }
    }
    out
}

/// The inverse of [`encode_columns`], on untrusted bytes.
fn decode_columns(
    pipeline: &mut PipelineSnapshot,
    mut columns: &[u8],
) -> Result<(), CheckpointError> {
    for entry in &mut pipeline.states {
        let key = entry.key;
        let builder = &mut entry.state.builder;
        if !builder.buffer.is_empty() || !builder.retired_recent.is_empty() {
            return Err(invalid(format!("key {key}: envelope carries inline operations")));
        }
        let ops = take_count(&mut columns, FRAME_LEN_V2, key, "operations")?;
        let (frames, rest) = columns.split_at(ops * FRAME_LEN_V2);
        columns = rest;
        builder.buffer.reserve_exact(ops);
        for frame in frames.chunks_exact(FRAME_LEN_V2) {
            match decode_frame_v2(frame) {
                Ok((frame_key, op)) if frame_key == key => builder.buffer.push(op),
                Ok((other, _)) => {
                    return Err(invalid(format!("key {key}: column holds a frame of key {other}")))
                }
                Err(kind) => return Err(invalid(format!("key {key}: invalid kind byte {kind}"))),
            }
        }
        let ring = take_count(&mut columns, RING_ENTRY_LEN, key, "retired values")?;
        if let Some(horizon) = builder.horizon.filter(|&horizon| ring > horizon) {
            return Err(invalid(format!(
                "key {key}: {ring} retired values exceed the horizon {horizon}"
            )));
        }
        let (values, rest) = columns.split_at(ring * RING_ENTRY_LEN);
        columns = rest;
        builder.retired_recent = values
            .as_chunks::<RING_ENTRY_LEN>()
            .0
            .iter()
            .map(|bytes| Value(u64::from_le_bytes(*bytes)))
            .collect();
    }
    if !columns.is_empty() {
        return Err(invalid(format!("{} bytes after the last key's columns", columns.len())));
    }
    Ok(())
}

/// Takes a u64 element count off the front of `columns`, checking that
/// that many `width`-byte elements fit in what remains — before anything
/// is allocated for them.
fn take_count(
    columns: &mut &[u8],
    width: usize,
    key: u64,
    what: &str,
) -> Result<usize, CheckpointError> {
    let Some((count, rest)) = columns.split_first_chunk::<8>() else {
        return Err(invalid(format!("key {key}: column section truncated")));
    };
    let count = u64::from_le_bytes(*count);
    if count > (rest.len() / width) as u64 {
        return Err(invalid(format!(
            "key {key}: {count} {what} claimed, but only {} bytes remain",
            rest.len()
        )));
    }
    *columns = rest;
    Ok(count as usize)
}

/// A format-1 file: one JSON document, the last full snapshot plus the
/// delta hops written since.
#[derive(Deserialize)]
#[cfg_attr(test, derive(Serialize, Clone))]
struct LegacyCheckpoint {
    format: u32,
    version: u64,
    /// Input position of the latest state (base plus deltas).
    source: SourcePosition,
    /// The delta base.
    pipeline: PipelineSnapshot,
    /// Hops since `pipeline`, oldest first; absent in the earliest files.
    #[serde(default)]
    deltas: Vec<LegacyDelta>,
}

/// One format-1 delta hop: what changed since the previous version.
#[derive(Deserialize)]
#[cfg_attr(test, derive(Serialize, Clone))]
struct LegacyDelta {
    /// The chain version this hop advanced the checkpoint to.
    version: u64,
    ops_routed: u64,
    uncertified: bool,
    /// The shard map the hop was produced under; must match the base's.
    #[serde(default)]
    partition: Option<KeyRange>,
    /// Keys whose live state changed or first appeared, in full.
    changed: Vec<KeySnapshot>,
    /// Keys whose live state disappeared (they finalised).
    removed: Vec<u64>,
    new_reports: Vec<KeyReport>,
    new_errors: Vec<KeyError>,
}

fn parse_legacy(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let checkpoint: LegacyCheckpoint = parse_json(bytes, LEGACY_FORMAT)?;
    if checkpoint.version == 0 {
        return Err(invalid("checkpoint version 0"));
    }
    resolve_deltas(checkpoint)
}

/// Folds a format-1 checkpoint's delta hops into its base snapshot.
fn resolve_deltas(checkpoint: LegacyCheckpoint) -> Result<Checkpoint, CheckpointError> {
    let LegacyCheckpoint { format, version, source, mut pipeline, deltas } = checkpoint;
    let resolved = |pipeline| Ok(Checkpoint { format, version, source, pipeline });
    if deltas.is_empty() {
        return resolved(pipeline);
    }
    let mut states: BTreeMap<u64, OnlineSnapshot> =
        pipeline.states.drain(..).map(|entry| (entry.key, entry.state)).collect();
    let mut last_version = 0u64;
    for delta in deltas {
        if delta.version <= last_version {
            return Err(invalid(format!(
                "delta version {} does not ascend past {last_version}",
                delta.version
            )));
        }
        last_version = delta.version;
        if delta.partition != pipeline.partition {
            return Err(invalid(format!(
                "delta version {} was produced under shard map {:?} but its base snapshot \
                 covers {:?} — the checkpoint mixes states from different partitions",
                delta.version, delta.partition, pipeline.partition
            )));
        }
        for entry in delta.changed {
            states.insert(entry.key, entry.state);
        }
        for key in &delta.removed {
            if states.remove(key).is_none() {
                return Err(invalid(format!("delta removes unknown key {key}")));
            }
        }
        pipeline.reports.extend(delta.new_reports);
        pipeline.errors.extend(delta.new_errors);
        pipeline.ops_routed = delta.ops_routed;
        pipeline.uncertified = delta.uncertified;
    }
    if last_version != version {
        return Err(invalid(format!(
            "last delta version {last_version} disagrees with checkpoint version {version}"
        )));
    }
    pipeline.states = states.into_iter().map(|(key, state)| KeySnapshot { key, state }).collect();
    // Keys are sorted so the resolved snapshot is the one a full write of
    // the same state would contain; duplicate finalised keys (corruption)
    // are left in place for the resume validation to reject.
    pipeline.reports.sort_by_key(|entry| entry.key);
    pipeline.errors.sort_by_key(|entry| entry.key);
    resolved(pipeline)
}

/// Writes an audit's checkpoint chain to a single path, atomically and
/// with monotone versions; every write is a full format-2 snapshot (see
/// the module docs).
#[derive(Debug)]
pub struct CheckpointWriter {
    path: PathBuf,
    tmp: PathBuf,
    version: u64,
}

impl CheckpointWriter {
    /// A writer for a fresh audit: the first write produces version 1.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointWriter::starting_at(path, 0)
    }

    /// A writer continuing an existing chain: the next write produces
    /// `last_version + 1`. Pass the version of the checkpoint the audit
    /// resumed from.
    pub fn starting_at(path: impl Into<PathBuf>, last_version: u64) -> Self {
        let path = path.into();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        CheckpointWriter { path, tmp: PathBuf::from(tmp), version: last_version }
    }

    /// The version of the last checkpoint written (0 before the first).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The path checkpoints are written to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Persists one checkpoint: encode, write to the sibling temp file,
    /// sync, rename over `path`. Returns the new version.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the previous checkpoint (if any) is still
    /// intact, and the writer's version unchanged, on every error path.
    pub fn write(
        &mut self,
        source: SourcePosition,
        mut pipeline: PipelineSnapshot,
    ) -> io::Result<u64> {
        let version = self.version + 1;
        let columns = encode_columns(&mut pipeline);
        let envelope = Envelope {
            format: CHECKPOINT_FORMAT,
            version,
            source,
            columns: ColumnsDigest::of(&columns),
            pipeline,
        };
        let head = serde_json::to_string(&envelope)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut file = fs::File::create(&self.tmp)?;
        file.write_all(&MAGIC)?;
        file.write_all(&(head.len() as u64).to_le_bytes())?;
        file.write_all(head.as_bytes())?;
        file.write_all(&columns)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&self.tmp, &self.path)?;
        self.version = version;
        Ok(version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{PipelineConfig, StreamPipeline};
    use crate::Fzf;
    use kav_history::{Operation, Time};

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("kav_checkpoint_tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn small_snapshot() -> PipelineSnapshot {
        let mut pipeline = StreamPipeline::new(
            Fzf,
            PipelineConfig { shards: 1, window: 4, ..Default::default() },
        );
        pipeline.push(1, Operation::write(Value(1), Time(0), Time(10)));
        pipeline.push(1, Operation::read(Value(1), Time(12), Time(20)));
        pipeline.snapshot()
    }

    /// The format-1 delta hop from `prev` to `next`, diffed per key the
    /// way the format-1 writer did.
    fn legacy_delta(prev: &PipelineSnapshot, next: &PipelineSnapshot, version: u64) -> LegacyDelta {
        let state_of = |snapshot: &PipelineSnapshot, key: u64| {
            snapshot.states.iter().find(|entry| entry.key == key).map(|entry| entry.state.clone())
        };
        LegacyDelta {
            version,
            ops_routed: next.ops_routed,
            uncertified: next.uncertified,
            partition: next.partition,
            changed: next
                .states
                .iter()
                .filter(|entry| state_of(prev, entry.key).as_ref() != Some(&entry.state))
                .cloned()
                .collect(),
            removed: prev
                .states
                .iter()
                .map(|entry| entry.key)
                .filter(|&key| state_of(next, key).is_none())
                .collect(),
            new_reports: next
                .reports
                .iter()
                .filter(|entry| prev.reports.iter().all(|old| old.key != entry.key))
                .cloned()
                .collect(),
            new_errors: next
                .errors
                .iter()
                .filter(|entry| prev.errors.iter().all(|old| old.key != entry.key))
                .cloned()
                .collect(),
        }
    }

    /// A format-1 document: `chain[0]` as the base, one delta hop per
    /// later snapshot, versions counting on from `base_version`.
    fn legacy_file(
        base_version: u64,
        source: SourcePosition,
        chain: &[PipelineSnapshot],
    ) -> LegacyCheckpoint {
        let deltas: Vec<LegacyDelta> = chain
            .windows(2)
            .zip(base_version + 1..)
            .map(|(pair, version)| legacy_delta(&pair[0], &pair[1], version))
            .collect();
        LegacyCheckpoint {
            format: LEGACY_FORMAT,
            version: base_version + deltas.len() as u64,
            source,
            pipeline: chain[0].clone(),
            deltas,
        }
    }

    /// What two writes of the same state left in a format-1 file: the
    /// base and one (empty) delta.
    fn two_write_chain() -> LegacyCheckpoint {
        legacy_file(1, SourcePosition::default(), &[small_snapshot(), small_snapshot()])
    }

    fn write_legacy(path: &Path, checkpoint: &LegacyCheckpoint) {
        fs::write(path, serde_json::to_string(checkpoint).unwrap() + "\n").unwrap();
    }

    #[test]
    fn versions_are_monotone_and_roundtrip() {
        let path = temp_path("monotone.ckpt");
        let mut writer = CheckpointWriter::new(&path);
        assert_eq!(writer.version(), 0);
        let snapshot = small_snapshot();
        assert_eq!(writer.write(SourcePosition::default(), snapshot.clone()).unwrap(), 1);
        assert_eq!(
            writer
                .write(SourcePosition { lines: 2, ..Default::default() }, snapshot.clone())
                .unwrap(),
            2
        );
        let read = read_checkpoint(&path).unwrap();
        assert_eq!(read.version, 2);
        assert_eq!(read.source.lines, 2);
        assert_eq!(read.pipeline, snapshot);
        // Continuing the chain after a resume keeps counting.
        let mut resumed = CheckpointWriter::starting_at(&path, read.version);
        assert_eq!(resumed.write(read.source, read.pipeline).unwrap(), 3);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn replace_is_atomic_no_temp_file_left_behind() {
        let path = temp_path("atomic.ckpt");
        let mut writer = CheckpointWriter::new(&path);
        writer.write(SourcePosition::default(), small_snapshot()).unwrap();
        assert!(path.exists());
        assert!(!writer.tmp.exists(), "temp file must be renamed away");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn delta_writes_resolve_to_the_latest_state() {
        // Format-1 files as the delta writer left them: a full base every
        // ninth version (eight deltas between re-bases).
        let path = temp_path("delta.ckpt");
        let config = PipelineConfig { shards: 2, window: 4, batch: 1, ..Default::default() };
        let mut pipeline = StreamPipeline::new(Fzf, config);
        let mut chain: Vec<PipelineSnapshot> = Vec::new();
        let mut base_version = 1;
        for v in 1..=20u64 {
            pipeline.push(v % 3, Operation::write(Value(v), Time(10 * v), Time(10 * v + 5)));
            let snapshot = pipeline.snapshot();
            if chain.len() > 8 {
                chain.clear();
                base_version = v;
            }
            chain.push(snapshot.clone());
            let source = SourcePosition { lines: v, ..Default::default() };
            write_legacy(&path, &legacy_file(base_version, source, &chain));
            let read = read_checkpoint(&path).unwrap();
            assert_eq!(read.format, LEGACY_FORMAT);
            assert_eq!(read.version, v);
            assert_eq!(read.source.lines, v, "source tracks the latest write");
            assert_eq!(read.pipeline, snapshot, "write {v}");
        }
        // A key that fails mid-chain crosses the delta as removed state
        // plus a new report and error.
        pipeline.push(0, Operation::write(Value(99), Time(1), Time(2)));
        let snapshot = pipeline.snapshot();
        chain.push(snapshot.clone());
        let file = legacy_file(base_version, SourcePosition::default(), &chain);
        let last = file.deltas.last().unwrap();
        assert_eq!((last.removed.len(), last.new_reports.len(), last.new_errors.len()), (1, 1, 1));
        write_legacy(&path, &file);
        let read = read_checkpoint(&path).unwrap();
        assert_eq!(read.pipeline, snapshot);
        assert_eq!(read.pipeline.errors.len(), 1);
        assert_eq!(read.pipeline.reports.len(), 1);
        pipeline.finish();
        fs::remove_file(&path).ok();
    }

    #[test]
    fn delta_every_zero_always_writes_full_snapshots() {
        // A format-1 file with no deltas is its base snapshot...
        let path = temp_path("nodelta.ckpt");
        let snapshot = small_snapshot();
        let file = legacy_file(3, SourcePosition::default(), std::slice::from_ref(&snapshot));
        write_legacy(&path, &file);
        assert!(fs::read_to_string(&path).unwrap().contains("\"deltas\":[]"));
        assert_eq!(read_checkpoint(&path).unwrap().pipeline, snapshot);
        // ...and every format-2 write is full: the file depends only on
        // its version, source and snapshot, never on earlier writes.
        let mut writer = CheckpointWriter::new(&path);
        let fresh = temp_path("nodelta-fresh.ckpt");
        for v in 1..=3u64 {
            writer.write(SourcePosition::default(), snapshot.clone()).unwrap();
            CheckpointWriter::starting_at(&fresh, v - 1)
                .write(SourcePosition::default(), snapshot.clone())
                .unwrap();
            assert_eq!(fs::read(&path).unwrap(), fs::read(&fresh).unwrap(), "write {v}");
        }
        fs::remove_file(&path).ok();
        fs::remove_file(&fresh).ok();
    }

    #[test]
    fn inconsistent_delta_chains_are_rejected() {
        let path = temp_path("badchain.ckpt");
        let parsed = two_write_chain();
        assert_eq!(parsed.deltas.len(), 1, "second write is a delta");
        let reject = |mutate: &dyn Fn(&mut LegacyCheckpoint)| {
            let mut bad = parsed.clone();
            mutate(&mut bad);
            write_legacy(&path, &bad);
            assert!(matches!(read_checkpoint(&path), Err(CheckpointError::Parse(_))));
        };
        // Non-ascending delta version.
        reject(&|c| c.deltas[0].version = 0);
        // Delta chain that stops short of the envelope version.
        reject(&|c| c.deltas[0].version = 7);
        // Removal of a key that is not live.
        reject(&|c| c.deltas[0].removed.push(12345));
        // The untampered file still reads.
        write_legacy(&path, &parsed);
        assert!(read_checkpoint(&path).is_ok());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn mixed_partition_delta_chains_are_rejected() {
        // Regression: a delta produced under one shard map used to resolve
        // silently onto a base snapshot taken under another. The chain is
        // tagged and the mix is a parse error.
        let path = temp_path("mixedpartition.ckpt");
        let parsed = two_write_chain();
        assert_eq!(parsed.deltas.len(), 1, "second write is a delta");

        // Hand-splice a foreign shard map into the delta: rejected.
        let mut bad = parsed.clone();
        bad.deltas[0].partition = Some(KeyRange::ALL.split().0);
        write_legacy(&path, &bad);
        match read_checkpoint(&path) {
            Err(CheckpointError::Parse(msg)) => {
                assert!(msg.contains("different partitions"), "diagnostic names the fault: {msg}")
            }
            other => panic!("mixed-partition chain must be rejected, got {other:?}"),
        }

        // A real partition change goes through the writer, whose every
        // write is a full snapshot under the new shard map.
        let mut writer = CheckpointWriter::new(&path);
        writer.write(SourcePosition::default(), small_snapshot()).unwrap();
        let mut moved = small_snapshot();
        moved.partition = Some(KeyRange::ALL.split().1);
        writer.write(SourcePosition::default(), moved.clone()).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().pipeline, moved);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn unusable_files_are_rejected() {
        assert!(matches!(
            read_checkpoint(temp_path("missing.ckpt")),
            Err(CheckpointError::Io(_))
        ));
        let garbled = temp_path("garbled.ckpt");
        fs::write(&garbled, "{ not a checkpoint").unwrap();
        assert!(matches!(read_checkpoint(&garbled), Err(CheckpointError::Parse(_))));
        fs::write(&garbled, "KAVF0002 binary frames, not a checkpoint").unwrap();
        assert!(matches!(read_checkpoint(&garbled), Err(CheckpointError::Parse(_))));
        // A future era is named as such, in either container.
        let future = temp_path("future.ckpt");
        let mut writer = CheckpointWriter::new(&future);
        writer.write(SourcePosition::default(), small_snapshot()).unwrap();
        let bytes = fs::read(&future).unwrap();
        let (envelope, columns) = split(&bytes);
        let bumped = String::from_utf8(envelope.to_vec()).unwrap().replacen(
            "\"format\":2",
            "\"format\":999",
            1,
        );
        fs::write(&future, assemble(&bumped, columns)).unwrap();
        assert!(matches!(read_checkpoint(&future), Err(CheckpointError::Format(999))));
        let mut legacy = legacy_file(1, SourcePosition::default(), &[small_snapshot()]);
        legacy.format = 999;
        write_legacy(&future, &legacy);
        let err = read_checkpoint(&future).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(999)));
        let message = err.to_string();
        assert!(message.contains("formats 2 and 1"), "names both readable formats: {message}");
        fs::remove_file(&garbled).ok();
        fs::remove_file(&future).ok();
    }

    // --- Hostile format-2 files -------------------------------------------

    /// Splits a format-2 file into its envelope text and column section.
    fn split(bytes: &[u8]) -> (&[u8], &[u8]) {
        let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        bytes[16..].split_at(len)
    }

    fn assemble(envelope: &str, columns: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&(envelope.len() as u64).to_le_bytes());
        out.extend_from_slice(envelope.as_bytes());
        out.extend_from_slice(columns);
        out
    }

    /// A written checkpoint (version 1, two keys, a non-empty retirement
    /// ring on key 1) as bytes.
    fn written() -> Vec<u8> {
        let mut pipeline = StreamPipeline::new(
            Fzf,
            PipelineConfig { shards: 1, window: 2, horizon: Some(3), ..Default::default() },
        );
        for v in 1..=8u64 {
            pipeline.push(1, Operation::write(Value(v), Time(10 * v), Time(10 * v + 5)));
        }
        pipeline.push(2, Operation::write(Value(1), Time(0), Time(5)));
        let snapshot = pipeline.snapshot();
        assert!(!snapshot.states[0].state.builder.retired_recent.is_empty());
        let path = temp_path(&format!("hostile-{:?}.ckpt", std::thread::current().id()));
        CheckpointWriter::new(&path).write(SourcePosition::default(), snapshot).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::remove_file(&path).ok();
        assert!(parse_checkpoint(&bytes).is_ok());
        bytes
    }

    /// Rewrites the column section with `edit` and re-seals the envelope's
    /// length and checksum, so only the structural checks stand between
    /// the forged columns and the decoder.
    fn forge(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let (envelope, columns) = split(bytes);
        let mut envelope: Envelope =
            serde_json::from_str(std::str::from_utf8(envelope).unwrap()).unwrap();
        let mut columns = columns.to_vec();
        edit(&mut columns);
        envelope.columns = ColumnsDigest::of(&columns);
        assemble(&serde_json::to_string(&envelope).unwrap(), &columns)
    }

    fn assert_parse_error(bytes: &[u8], needle: &str) {
        match parse_checkpoint(bytes) {
            Err(CheckpointError::Parse(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected a parse error naming {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn truncated_files_are_parse_errors() {
        let bytes = written();
        for len in 0..bytes.len() {
            assert!(
                matches!(parse_checkpoint(&bytes[..len]), Err(CheckpointError::Parse(_))),
                "truncated to {len} of {} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn flipped_column_bytes_fail_the_checksum() {
        let bytes = written();
        let columns_at = bytes.len() - split(&bytes).1.len();
        for at in columns_at..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert_parse_error(&bad, "checksum");
        }
    }

    #[test]
    fn huge_op_counts_are_rejected_before_allocating() {
        let bad = forge(&written(), |columns| {
            columns[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        });
        assert_parse_error(&bad, "18446744073709551615 operations claimed");
    }

    #[test]
    fn rings_longer_than_the_horizon_are_rejected() {
        // Key 1's ring sits right after its buffer: grow it past the
        // horizon (3), with the extra values really present.
        let bytes = written();
        let ops = u64::from_le_bytes(split(&bytes).1[..8].try_into().unwrap()) as usize;
        let ring_at = 8 + ops * FRAME_LEN_V2;
        let bad = forge(&bytes, |columns| {
            let ring = u64::from_le_bytes(columns[ring_at..ring_at + 8].try_into().unwrap());
            columns[ring_at..ring_at + 8].copy_from_slice(&4u64.to_le_bytes());
            let values_end = ring_at + 8 + ring as usize * RING_ENTRY_LEN;
            let extra: Vec<u8> = (100..104 - ring).flat_map(u64::to_le_bytes).collect();
            columns.splice(values_end..values_end, extra);
        });
        assert_parse_error(&bad, "exceed the horizon 3");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let bytes = written();
        assert_parse_error(&forge(&bytes, |columns| columns.push(0)), "1 bytes after");
        // Unsealed trailing bytes disagree with the recorded length.
        let mut bad = bytes;
        bad.extend_from_slice(&[0; 8]);
        assert_parse_error(&bad, "the envelope records");
    }
}
