//! The coordinator↔worker wire protocol of the audit fleet.
//!
//! One coordinator process owns ingest and routing; N worker processes
//! each own a set of key ranges, one [`StreamPipeline`] per range. The
//! two speak a length-prefixed message stream over any byte pipe
//! (`kav serve` uses the spawned workers' stdin/stdout; tests use Unix
//! socket pairs):
//!
//! ```text
//! coordinator → worker        worker → coordinator
//! ───────────────────         ────────────────────
//! COORDINATOR_MAGIC           WORKER_MAGIC          (stream preambles)
//! ASSIGN   {Assignment}
//! BATCH    routed frames      (no reply — ingest is pipelined)
//! SNAPSHOT                    SNAPSHOT_REPLY {SnapshotReply}
//! RETIRE   {KeyRange}         RETIRE_REPLY   {RangeSnapshot}
//! FINISH                      FINISH_REPLY   {FinishReply}, then exit
//!                             ERROR    diagnostic text, then exit 2
//! ```
//!
//! Every message is `tag u8 | length u32 LE | payload`; BATCH payloads
//! are [`encode_routed_batch`] bytes (magic, key-range routing header,
//! length-prefixed frames), everything else is JSON of the types below.
//!
//! **Validation discipline**: every fault — a truncated frame, a wrong
//! magic, a key routed or reported outside its declared range, a
//! non-ascending snapshot version, a duplicate assignment — is a
//! [`ProtocolError`], which drivers surface as an exit-2 diagnostic. A
//! protocol fault is *unusable input*, never evidence about the store: no
//! code path turns one into a verdict.
//!
//! The request/reply shape is deliberately strict — a worker writes only
//! in reply to a request, and the coordinator reads a reply immediately
//! after each request — so the synchronous pipes cannot deadlock: at any
//! moment at most one side is writing while the other reads.
//!
//! [`StreamPipeline`]: super::StreamPipeline
//! [`encode_routed_batch`]: kav_history::frame::encode_routed_batch

use super::pipeline::{KeyError, KeyReport, PipelineConfig, PipelineSnapshot, StreamPipeline};
use super::SnapshotError;
use crate::models::ModelId;
use crate::Verifier;
use kav_history::frame::{decode_routed_batch, BatchError, KeyRange};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// Preamble the coordinator writes before its first message; a worker
/// reading anything else refuses the stream.
pub const COORDINATOR_MAGIC: [u8; 8] = *b"KAVC0001";

/// Preamble a worker answers with; the coordinator likewise refuses a
/// stream that starts with anything else.
pub const WORKER_MAGIC: [u8; 8] = *b"KAVW0001";

/// Upper bound on one message's payload, a backstop against a corrupt
/// length prefix allocating unbounded memory.
pub const MAX_MESSAGE_LEN: u32 = 256 * 1024 * 1024;

/// Message tags (the `tag u8` of the wire framing).
pub mod tag {
    /// Coordinator → worker: take ownership of a key range ([`Assignment`](super::Assignment)).
    pub const ASSIGN: u8 = 1;
    /// Coordinator → worker: a routed frame batch.
    pub const BATCH: u8 = 2;
    /// Coordinator → worker: snapshot every owned range.
    pub const SNAPSHOT: u8 = 3;
    /// Coordinator → worker: give up a range, replying with its final snapshot.
    pub const RETIRE: u8 = 4;
    /// Coordinator → worker: finish every pipeline and reply with reports.
    pub const FINISH: u8 = 5;
    /// Worker → coordinator: reply to SNAPSHOT.
    pub const SNAPSHOT_REPLY: u8 = 6;
    /// Worker → coordinator: reply to RETIRE.
    pub const RETIRE_REPLY: u8 = 7;
    /// Worker → coordinator: reply to FINISH.
    pub const FINISH_REPLY: u8 = 8;
    /// Worker → coordinator: a fatal worker-side diagnostic (UTF-8 text).
    pub const ERROR: u8 = 9;
}

/// Hands a worker ownership of one key range.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// The range the worker now owns; batches for it follow.
    pub range: KeyRange,
    /// [`Verifier::name`] the fleet runs — the worker refuses a mismatch
    /// with its own verifier rather than mixing algorithms.
    pub algo: String,
    /// The consistency model the fleet audits (absent = k-atomic);
    /// refused on mismatch like `algo`/`k`, so one fleet never mixes
    /// verdict semantics.
    #[serde(default, skip_serializing_if = "ModelId::is_k_atomic")]
    pub model: ModelId,
    /// The `k` the fleet decides; likewise refused on mismatch.
    pub k: u64,
    /// Per-key sliding-window width.
    pub window: usize,
    /// Per-key retirement horizon (`None` = default).
    pub horizon: Option<usize>,
    /// Worker-internal thread shards for this range's pipeline.
    pub shards: usize,
    /// Worker-internal channel batch size.
    pub batch: usize,
    /// Resume state from a checkpoint hand-off (`None` = fresh range).
    /// Must be tagged with exactly `range` — a snapshot produced under a
    /// different shard map is refused.
    pub snapshot: Option<PipelineSnapshot>,
    /// The coordinator's claim that everything since `snapshot`'s cut
    /// will be replayed exactly once (it re-sends its replay buffer).
    /// `false` taints every key of the range: YES degrades to UNKNOWN,
    /// sticky, exactly as an unverified single-process resume.
    pub prefix_verified: bool,
}

/// One range's snapshot inside a reply.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RangeSnapshot {
    /// The range the snapshot covers (also tagged inside the snapshot).
    pub range: KeyRange,
    /// The range's pipeline state at the probe's consistent cut.
    pub snapshot: PipelineSnapshot,
}

impl RangeSnapshot {
    /// Every key the snapshot carries a live state, report or error for.
    pub(super) fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        let snapshot = &self.snapshot;
        (snapshot.states.iter().map(|entry| entry.key))
            .chain(snapshot.reports.iter().map(|entry| entry.key))
            .chain(snapshot.errors.iter().map(|entry| entry.key))
    }
}

/// A worker's answer to SNAPSHOT: all its ranges at one consistent cut.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SnapshotReply {
    /// Strictly ascending per worker; the coordinator refuses a version
    /// that does not ascend (a duplicate betrays a confused or replayed
    /// worker whose cut cannot be trusted).
    pub version: u64,
    /// One entry per owned range, sorted by range.
    pub ranges: Vec<RangeSnapshot>,
}

/// One range's finished output inside a [`FinishReply`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RangeOutput {
    /// The range the reports cover.
    pub range: KeyRange,
    /// Per-key reports, sorted by key.
    pub keys: Vec<KeyReport>,
    /// Per-key stream errors, sorted by key.
    pub errors: Vec<KeyError>,
}

impl RangeOutput {
    /// Every key the output carries a report or error for.
    pub(super) fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        (self.keys.iter().map(|entry| entry.key)).chain(self.errors.iter().map(|entry| entry.key))
    }
}

/// A worker's answer to FINISH: every range's final reports. The worker
/// exits cleanly after sending it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FinishReply {
    /// One entry per owned range, sorted by range.
    pub ranges: Vec<RangeOutput>,
}

/// Why a protocol stream is unusable (either side). Fleet drivers map
/// every variant to exit 2 with the diagnostic — never to a verdict.
#[derive(Debug)]
pub enum ProtocolError {
    /// Reading or writing the transport failed (includes a peer dying:
    /// EOF mid-message, broken pipe).
    Io(io::Error),
    /// The stream ended cleanly where a message was required.
    Disconnected,
    /// The stream preamble was not the expected magic.
    BadPreamble {
        /// What the preamble should have been.
        expected: [u8; 8],
        /// What actually arrived.
        got: [u8; 8],
    },
    /// A message tag neither side defines.
    UnknownTag(u8),
    /// A length prefix beyond [`MAX_MESSAGE_LEN`].
    Oversized(u32),
    /// A JSON payload that does not parse as its message type.
    Json(String),
    /// A BATCH payload rejected by frame validation.
    Batch(BatchError),
    /// An ASSIGN for a range the worker already owns.
    DuplicateAssignment(KeyRange),
    /// A BATCH or RETIRE for a range the worker does not own, or a reply
    /// covering a range other than those the worker was assigned.
    UnassignedRange(KeyRange),
    /// A reply carrying a state, report or error for a key outside the
    /// range it is filed under — merging it could report the key twice.
    KeyOutsideRange {
        /// The foreign key.
        key: u64,
        /// The range the reply filed it under.
        range: KeyRange,
    },
    /// An ASSIGN whose algorithm, `k` or consistency model disagrees
    /// with the worker's verifier.
    VerifierMismatch(String),
    /// An ASSIGN whose resume snapshot is tagged with a different
    /// partition than the assigned range — state from one shard map must
    /// not silently continue under another.
    PartitionMismatch {
        /// The range being assigned.
        range: KeyRange,
        /// The partition the snapshot was tagged with.
        snapshot: Option<KeyRange>,
    },
    /// An ASSIGN whose resume snapshot failed pipeline validation.
    Snapshot(SnapshotError),
    /// A SNAPSHOT_REPLY version that does not ascend past the previous.
    SnapshotVersion {
        /// The version the reply carried.
        got: u64,
        /// The highest version already seen from that worker.
        last: u64,
    },
    /// The peer reported a fatal diagnostic (an ERROR message).
    Peer(String),
    /// A reply with the wrong tag for the outstanding request.
    UnexpectedReply {
        /// The tag the request called for.
        expected: u8,
        /// The tag that arrived.
        got: u8,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "fleet transport failed: {e}"),
            ProtocolError::Disconnected => {
                write!(f, "fleet peer disconnected mid-protocol")
            }
            ProtocolError::BadPreamble { expected, got } => write!(
                f,
                "bad fleet preamble {:?} (expected {:?})",
                String::from_utf8_lossy(got),
                String::from_utf8_lossy(expected)
            ),
            ProtocolError::UnknownTag(tag) => write!(f, "unknown fleet message tag {tag}"),
            ProtocolError::Oversized(len) => write!(
                f,
                "fleet message of {len} bytes exceeds the {MAX_MESSAGE_LEN}-byte bound"
            ),
            ProtocolError::Json(e) => write!(f, "malformed fleet message payload: {e}"),
            ProtocolError::Batch(e) => write!(f, "bad frame batch: {e}"),
            ProtocolError::DuplicateAssignment(range) => {
                write!(f, "range {range} assigned twice to the same worker")
            }
            ProtocolError::UnassignedRange(range) => {
                write!(f, "message for range {range}, which this worker does not own")
            }
            ProtocolError::KeyOutsideRange { key, range } => {
                write!(f, "reply files key {key} under range {range}, which does not contain it")
            }
            ProtocolError::VerifierMismatch(msg) => {
                write!(f, "assignment disagrees with the worker's verifier: {msg}")
            }
            ProtocolError::PartitionMismatch { range, snapshot } => write!(
                f,
                "assignment for range {range} carries a snapshot tagged {} — refusing to \
                 resume state from a different shard map",
                match snapshot {
                    Some(r) => r.to_string(),
                    None => "with no partition".to_string(),
                }
            ),
            ProtocolError::Snapshot(e) => write!(f, "hand-off snapshot rejected: {e}"),
            ProtocolError::SnapshotVersion { got, last } => write!(
                f,
                "snapshot version {got} does not ascend past {last} — duplicate or replayed \
                 snapshot, the cut cannot be trusted"
            ),
            ProtocolError::Peer(msg) => write!(f, "fleet peer failed: {msg}"),
            ProtocolError::UnexpectedReply { expected, got } => {
                write!(f, "expected reply tag {expected}, got {got}")
            }
        }
    }
}

impl Error for ProtocolError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Batch(e) => Some(e),
            ProtocolError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<BatchError> for ProtocolError {
    fn from(e: BatchError) -> Self {
        ProtocolError::Batch(e)
    }
}

impl From<SnapshotError> for ProtocolError {
    fn from(e: SnapshotError) -> Self {
        ProtocolError::Snapshot(e)
    }
}

/// Writes one framed message (tag, length, payload). The caller flushes
/// when the write must become visible to the peer.
///
/// # Errors
///
/// Propagates transport I/O errors (a dead peer surfaces here as a
/// broken pipe).
pub fn write_message(out: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    out.write_all(&[tag])?;
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(payload)
}

/// Reads one framed message.
///
/// # Errors
///
/// [`ProtocolError::Disconnected`] on clean EOF at a message boundary,
/// [`ProtocolError::Io`] on EOF mid-message or transport failure,
/// [`ProtocolError::Oversized`] on a corrupt length prefix.
pub fn read_message(input: &mut impl Read) -> Result<(u8, Vec<u8>), ProtocolError> {
    let mut tag = [0u8; 1];
    // Distinguish "peer closed between messages" from "message torn".
    if input.read(&mut tag)? == 0 {
        return Err(ProtocolError::Disconnected);
    }
    let mut len = [0u8; 4];
    input.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_MESSAGE_LEN {
        return Err(ProtocolError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    input.read_exact(&mut payload)?;
    Ok((tag[0], payload))
}

/// Reads and checks a stream preamble.
///
/// # Errors
///
/// [`ProtocolError::BadPreamble`] when the magic differs, I/O errors
/// when the stream dies first.
pub fn expect_preamble(input: &mut impl Read, expected: [u8; 8]) -> Result<(), ProtocolError> {
    let mut got = [0u8; 8];
    input.read_exact(&mut got)?;
    if got != expected {
        return Err(ProtocolError::BadPreamble { expected, got });
    }
    Ok(())
}

fn parse_json<T: Deserialize>(payload: &[u8]) -> Result<T, ProtocolError> {
    let text =
        std::str::from_utf8(payload).map_err(|e| ProtocolError::Json(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| ProtocolError::Json(e.to_string()))
}

fn to_json<T: Serialize>(value: &T) -> Result<Vec<u8>, ProtocolError> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| ProtocolError::Json(e.to_string()))
}

/// One owned range inside a worker.
struct OwnedRange {
    range: KeyRange,
    pipeline: StreamPipeline,
}

/// Runs one fleet worker over a transport until FINISH or a fault: reads
/// the coordinator's preamble, answers with its own, then serves the
/// message loop — hosting one [`StreamPipeline`] per assigned range,
/// each verifying with a clone of `verifier`.
///
/// On a fault the worker best-effort sends an ERROR diagnostic before
/// returning, and the driver exits 2; it never fabricates a verdict.
///
/// # Errors
///
/// Every protocol violation described on [`ProtocolError`]; `Ok(())`
/// only after a complete FINISH exchange.
pub fn worker_loop<V: Verifier + Clone + Send + 'static>(
    verifier: V,
    mut input: impl Read,
    mut output: impl Write,
) -> Result<(), ProtocolError> {
    let result = worker_loop_inner(verifier, &mut input, &mut output);
    if let Err(e) = &result {
        // Give the coordinator the diagnostic; it is already unwinding if
        // the transport is what failed, hence best-effort.
        let _ = write_message(&mut output, tag::ERROR, e.to_string().as_bytes());
        let _ = output.flush();
    }
    result
}

fn worker_loop_inner<V: Verifier + Clone + Send + 'static>(
    verifier: V,
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<(), ProtocolError> {
    expect_preamble(input, COORDINATOR_MAGIC)?;
    output.write_all(&WORKER_MAGIC)?;
    output.flush()?;

    let mut owned: Vec<OwnedRange> = Vec::new();
    let mut snapshot_version = 0u64;
    loop {
        let (tag, payload) = read_message(input)?;
        match tag {
            tag::ASSIGN => {
                let assignment: Assignment = parse_json(&payload)?;
                if !assignment.range.is_valid() {
                    return Err(ProtocolError::Batch(BatchError::BadRange(assignment.range)));
                }
                if assignment.algo != verifier.name()
                    || assignment.k != verifier.k()
                    || assignment.model != verifier.model()
                {
                    return Err(ProtocolError::VerifierMismatch(format!(
                        "fleet runs {}/k={}/model={}, worker runs {}/k={}/model={}",
                        assignment.algo,
                        assignment.k,
                        assignment.model,
                        verifier.name(),
                        verifier.k(),
                        verifier.model()
                    )));
                }
                if owned.iter().any(|o| o.range == assignment.range) {
                    return Err(ProtocolError::DuplicateAssignment(assignment.range));
                }
                let config = PipelineConfig {
                    shards: assignment.shards,
                    window: assignment.window,
                    horizon: assignment.horizon,
                    batch: assignment.batch,
                    checkpoint_every: 0, // the coordinator owns the cadence
                };
                let mut pipeline = match &assignment.snapshot {
                    Some(snapshot) => {
                        if snapshot.partition != Some(assignment.range) {
                            return Err(ProtocolError::PartitionMismatch {
                                range: assignment.range,
                                snapshot: snapshot.partition,
                            });
                        }
                        StreamPipeline::resume(
                            verifier.clone(),
                            config,
                            snapshot,
                            assignment.prefix_verified,
                        )?
                    }
                    None => {
                        let mut fresh = StreamPipeline::new(verifier.clone(), config);
                        if !assignment.prefix_verified {
                            // A fresh range whose history is unverifiable
                            // (e.g. a hand-off that lost its replay before
                            // any snapshot existed): resume an empty
                            // snapshot unverified so every key is tainted.
                            let mut empty = fresh.snapshot();
                            empty.partition = Some(assignment.range);
                            fresh = StreamPipeline::resume(
                                verifier.clone(),
                                config,
                                &empty,
                                false,
                            )?;
                        }
                        fresh
                    }
                };
                pipeline.set_partition(Some(assignment.range));
                owned.push(OwnedRange { range: assignment.range, pipeline });
                owned.sort_by_key(|o| o.range);
            }
            tag::BATCH => {
                let (range, ops) = decode_routed_batch(&payload)?;
                let slot = owned
                    .iter_mut()
                    .find(|o| o.range == range)
                    .ok_or(ProtocolError::UnassignedRange(range))?;
                for (key, op) in ops {
                    slot.pipeline.push(key, op);
                }
            }
            tag::SNAPSHOT => {
                snapshot_version += 1;
                let ranges = owned
                    .iter_mut()
                    .map(|o| RangeSnapshot { range: o.range, snapshot: o.pipeline.snapshot() })
                    .collect();
                let reply = SnapshotReply { version: snapshot_version, ranges };
                write_message(output, tag::SNAPSHOT_REPLY, &to_json(&reply)?)?;
                output.flush()?;
            }
            tag::RETIRE => {
                let range: KeyRange = parse_json(&payload)?;
                let pos = owned
                    .iter()
                    .position(|o| o.range == range)
                    .ok_or(ProtocolError::UnassignedRange(range))?;
                let mut retired = owned.remove(pos);
                let reply =
                    RangeSnapshot { range, snapshot: retired.pipeline.snapshot() };
                write_message(output, tag::RETIRE_REPLY, &to_json(&reply)?)?;
                output.flush()?;
                // Drop the retired pipeline without reports: its state
                // lives on in the reply the coordinator re-assigns.
                drop(retired);
            }
            tag::FINISH => {
                let ranges = owned
                    .drain(..)
                    .map(|o| {
                        let finished = o.pipeline.finish();
                        RangeOutput {
                            range: o.range,
                            keys: finished
                                .keys
                                .into_iter()
                                .map(|(key, report)| KeyReport { key, report })
                                .collect(),
                            errors: finished
                                .errors
                                .into_iter()
                                .map(|(key, error)| KeyError { key, error })
                                .collect(),
                        }
                    })
                    .collect();
                let reply = FinishReply { ranges };
                write_message(output, tag::FINISH_REPLY, &to_json(&reply)?)?;
                output.flush()?;
                return Ok(());
            }
            other => return Err(ProtocolError::UnknownTag(other)),
        }
    }
}

/// Parses a JSON reply payload (shared by the coordinator's reply
/// readers and protocol tests).
pub(super) fn parse_reply<T: Deserialize>(
    payload: &[u8],
) -> Result<T, ProtocolError> {
    parse_json(payload)
}

/// Serializes a JSON message payload (shared by the coordinator's
/// request writers and protocol tests).
pub(super) fn encode_payload<T: Serialize>(value: &T) -> Result<Vec<u8>, ProtocolError> {
    to_json(value)
}
