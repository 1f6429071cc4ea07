//! The auditor's layers driven from outside, the way `kav stream` and
//! `kav serve` drive them: once plainly (the untraced in-process
//! baseline) and once with a span around each call into a layer's public
//! function.
//!
//! Per-operation calls are timed a chunk at a time — decode [`CHUNK`]
//! records, then push them — because a clock read per call would cost
//! more than a frame decode. Checkpoint cadence still falls exactly on a
//! chunk boundary, so snapshots see the same cut the CLI's do.

use crate::spans::Trace;
use kav_core::protocol::COORDINATOR_MAGIC;
use kav_core::{
    worker_loop, CheckpointWriter, FleetConfig, FleetCoordinator, Fzf, OnlineVerifier,
    PipelineConfig, PipelineOutput, ProtocolError, SourcePosition, StreamPipeline, Verdict,
    Verifier, WorkerLink, DEFAULT_CHECKPOINT_EVERY, DEFAULT_REPLAY_CAP,
};
use kav_history::frame::FrameReader;
use kav_history::fxhash::Fingerprint;
use kav_history::ndjson::{NdjsonError, Reader, SliceReader, StreamRecord};
use kav_history::{History, Operation};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::error::Error;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Records decoded, or operations pushed, per span.
pub const CHUNK: usize = 256;
/// `kav stream` / `kav serve` default `--window`.
const WINDOW: usize = 1024;

/// Phase roots: the workload's own command path, the single-threaded
/// replay, and probes of the layers the command path does not reach.
pub const PATH: &str = "phase.path";
pub const REPLAY: &str = "phase.replay";
pub const PROBE: &str = "phase.probe";

/// Encoding of a workload's input file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Binary,
    Ndjson,
}

/// Where `kav stream --checkpoint` writes, and its `--checkpoint-every`.
#[derive(Clone, Debug)]
pub struct CheckpointPlan {
    pub path: PathBuf,
    pub every: u64,
}

/// The `kav` command a workload runs, reproduced in process.
#[derive(Clone, Debug)]
pub enum Command {
    /// `kav stream --shards N [--checkpoint ...] FILE`.
    Stream {
        shards: usize,
        checkpoint: Option<CheckpointPlan>,
    },
    /// `kav serve --workers N -`, the file on stdin.
    Serve { workers: usize },
}

/// A workload's input file, read whole (kav maps it; the bytes are the same).
pub struct Input {
    pub path: PathBuf,
    pub bytes: Vec<u8>,
    pub format: Format,
}

/// Generated operations per key: what every report must count.
pub type Expected = BTreeMap<u64, u64>;

/// Operations that did not come back with a YES from a key whose count
/// matches the generator's. A key the generator never made fails them all.
pub fn failed_ops(expected: &Expected, output: &PipelineOutput) -> u64 {
    let total: u64 = expected.values().sum();
    if output
        .keys
        .iter()
        .any(|(key, _)| !expected.contains_key(key))
    {
        return total;
    }
    let reports: BTreeMap<u64, _> = output.keys.iter().map(|(key, r)| (*key, r)).collect();
    expected
        .iter()
        .filter(|(key, ops)| {
            let errored = output.errors.iter().any(|(k, _)| k == *key);
            !matches!(reports.get(*key),
                Some(r) if !errored && r.ops == **ops && r.k_atomic() == Some(true))
        })
        .map(|(_, ops)| ops)
        .sum()
}

/// The three ingest paths of the CLI behind one cursor.
enum Source<'a> {
    Frames(FrameReader<'a>),
    Slice(SliceReader<'a>),
    Stdin(Reader<Box<dyn BufRead>>),
}

impl<'a> Source<'a> {
    /// The zero-copy reader for the file's format, as `kav stream FILE`.
    fn file(input: &'a Input, fingerprinted: bool) -> Res<Self> {
        let fingerprint = fingerprinted.then(Fingerprint::new);
        Ok(match (input.format, fingerprint) {
            (Format::Binary, None) => Source::Frames(FrameReader::new(&input.bytes)?),
            (Format::Binary, Some(f)) => {
                Source::Frames(FrameReader::with_fingerprint(&input.bytes, f)?)
            }
            (Format::Ndjson, None) => Source::Slice(SliceReader::new(&input.bytes)),
            (Format::Ndjson, Some(f)) => {
                Source::Slice(SliceReader::with_fingerprint(&input.bytes, f))
            }
        })
    }

    /// The serde reader over a buffered file, as `kav serve - < FILE`.
    fn stdin(path: &Path) -> Res<Self> {
        let file: Box<dyn BufRead> = Box::new(BufReader::new(std::fs::File::open(path)?));
        Ok(Source::Stdin(Reader::new(file)))
    }

    fn layer(&self) -> &'static str {
        match self {
            Source::Frames(_) => "history.frame.decode",
            Source::Slice(_) => "history.ndjson.decode",
            Source::Stdin(_) => "history.ndjson.reader",
        }
    }

    fn next_record(&mut self) -> Option<Result<StreamRecord, NdjsonError>> {
        match self {
            Source::Frames(r) => r.next(),
            Source::Slice(r) => r.next(),
            Source::Stdin(r) => r.next(),
        }
    }

    /// The resume position a checkpoint written now records.
    fn position(&self) -> SourcePosition {
        let (lines, fingerprint) = match self {
            Source::Frames(r) => (r.frames_read(), r.fingerprint()),
            Source::Slice(r) => (r.lines_read(), r.fingerprint()),
            Source::Stdin(r) => (r.lines_read(), r.fingerprint()),
        };
        SourcePosition {
            lines,
            fingerprint: fingerprint.unwrap_or(0),
            ..Default::default()
        }
    }
}

/// Decodes up to `want` records into `chunk` inside one decode span.
fn decode_chunk(
    trace: &Trace,
    source: &mut Source<'_>,
    chunk: &mut Vec<(u64, Operation)>,
    want: usize,
) -> Res<()> {
    chunk.clear();
    let span = trace.span(source.layer(), 0);
    while chunk.len() < want {
        match source.next_record() {
            Some(record) => {
                let record = record?;
                chunk.push((record.key, record.op()));
            }
            None => break,
        }
    }
    span.set_ops(chunk.len() as u64);
    Ok(())
}

fn pipeline_config(shards: usize, checkpoint: Option<&CheckpointPlan>) -> PipelineConfig {
    PipelineConfig {
        shards,
        window: WINDOW,
        checkpoint_every: checkpoint.map_or(DEFAULT_CHECKPOINT_EVERY, |plan| plan.every),
        ..PipelineConfig::default()
    }
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        window: WINDOW,
        worker_shards: 1,
        replay_cap: DEFAULT_REPLAY_CAP,
        ..FleetConfig::default()
    }
}

/// Checkpoints written by one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckpointStats {
    pub writes: u64,
    /// File size after each write, summed.
    pub bytes: u64,
    /// Buffered operations in each snapshot, summed.
    pub resident_ops: u64,
}

fn checkpoint_once(
    trace: &Trace,
    pipeline: &mut StreamPipeline,
    writer: &mut CheckpointWriter,
    position: SourcePosition,
    stats: &mut CheckpointStats,
) -> Res<()> {
    let snapshot = {
        let _span = trace.span("core.stream.pipeline.snapshot", 0);
        pipeline.snapshot()
    };
    let resident: usize = snapshot
        .states
        .iter()
        .map(|s| s.state.builder.buffer.len())
        .sum();
    {
        let _span = trace.span("core.stream.checkpoint.write", 0);
        writer.write(position, snapshot)?;
    }
    stats.writes += 1;
    stats.bytes += std::fs::metadata(writer.path())?.len();
    stats.resident_ops += resident as u64;
    Ok(())
}

/// Bytes and whole messages on the fleet wire, both directions.
#[derive(Debug, Default)]
pub struct WireStats {
    pub bytes: AtomicU64,
    pub messages: AtomicU64,
}

/// A worker transport that counts what crosses it, following the wire
/// framing (an 8-byte preamble, then tag byte + u32 length + payload).
struct Counted<T> {
    inner: T,
    wire: Arc<WireStats>,
    preamble_left: usize,
    header: [u8; 5],
    header_len: usize,
    payload_left: u64,
}

impl<T> Counted<T> {
    fn new(inner: T, wire: Arc<WireStats>) -> Self {
        Counted {
            inner,
            wire,
            preamble_left: COORDINATOR_MAGIC.len(),
            header: [0; 5],
            header_len: 0,
            payload_left: 0,
        }
    }

    fn observe(&mut self, mut bytes: &[u8]) {
        self.wire
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        while !bytes.is_empty() {
            let skip = if self.preamble_left > 0 {
                let n = self.preamble_left.min(bytes.len());
                self.preamble_left -= n;
                n
            } else if self.payload_left > 0 {
                let n = self.payload_left.min(bytes.len() as u64);
                self.payload_left -= n;
                n as usize
            } else {
                self.header[self.header_len] = bytes[0];
                self.header_len += 1;
                if self.header_len == self.header.len() {
                    self.header_len = 0;
                    let len: [u8; 4] = self.header[1..].try_into().expect("4-byte length");
                    self.payload_left = u64::from(u32::from_le_bytes(len));
                    self.wire.messages.fetch_add(1, Ordering::Relaxed);
                }
                1
            };
            bytes = &bytes[skip..];
        }
    }
}

impl<W: Write> Write for Counted<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.observe(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.observe(&buf[..n]);
        Ok(n)
    }
}

/// In-process fleet workers: `worker_loop` threads on socket pairs, each
/// buffered on both ends as `kav serve` buffers its children's pipes.
struct Fleet {
    links: Vec<WorkerLink>,
    handles: Vec<JoinHandle<Result<(), ProtocolError>>>,
    wire: Arc<WireStats>,
}

impl Fleet {
    fn spawn(workers: usize) -> Res<Fleet> {
        let wire = Arc::new(WireStats::default());
        let mut links = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (coordinator, worker) = UnixStream::pair()?;
            let worker_in = BufReader::new(worker.try_clone()?);
            handles.push(std::thread::spawn(move || {
                worker_loop(Fzf, worker_in, BufWriter::new(worker))
            }));
            links.push(WorkerLink {
                writer: Box::new(BufWriter::new(Counted::new(
                    coordinator.try_clone()?,
                    wire.clone(),
                ))),
                reader: Box::new(BufReader::new(Counted::new(coordinator, wire.clone()))),
            });
        }
        Ok(Fleet {
            links,
            handles,
            wire,
        })
    }

    fn join(handles: Vec<JoinHandle<Result<(), ProtocolError>>>) -> Res<()> {
        for handle in handles {
            handle
                .join()
                .map_err(|_| "fleet worker thread panicked")??;
        }
        Ok(())
    }
}

/// What one run of a workload's command path produced.
#[derive(Debug, Default)]
pub struct PathOutcome {
    pub output: PipelineOutput,
    pub checkpoints: CheckpointStats,
    /// Wire traffic, for `kav serve`.
    pub wire_bytes: u64,
    pub wire_messages: u64,
}

/// The command path with no spans: the loops of `kav stream` and
/// `kav serve`, record by record.
pub fn run_plain(command: &Command, input: &Input) -> Res<PathOutcome> {
    match command {
        Command::Stream { shards, checkpoint } => {
            let mut source = Source::file(input, checkpoint.is_some())?;
            let mut pipeline =
                StreamPipeline::new(Fzf, pipeline_config(*shards, checkpoint.as_ref()));
            let mut writer = checkpoint
                .as_ref()
                .map(|plan| CheckpointWriter::new(&plan.path));
            while let Some(record) = source.next_record() {
                let record = record?;
                pipeline.push(record.key, record.op());
                if let Some(writer) = &mut writer {
                    if pipeline.checkpoint_due() {
                        let snapshot = pipeline.snapshot();
                        writer.write(source.position(), snapshot)?;
                    }
                }
            }
            Ok(PathOutcome {
                output: pipeline.finish(),
                ..Default::default()
            })
        }
        Command::Serve { workers } => {
            let fleet = Fleet::spawn(*workers)?;
            let mut source = Source::stdin(&input.path)?;
            let mut coordinator = FleetCoordinator::new(fleet_config(), fleet.links)?;
            while let Some(record) = source.next_record() {
                let record = record?;
                coordinator.push(record.key, record.op())?;
            }
            let (output, _) = coordinator.finish()?;
            Fleet::join(fleet.handles)?;
            Ok(PathOutcome {
                output,
                ..Default::default()
            })
        }
    }
}

/// The command path with spans, under the [`PATH`] phase.
pub fn run_traced(trace: &Trace, command: &Command, input: &Input) -> Res<PathOutcome> {
    let _phase = trace.span(PATH, 0);
    let mut chunk = Vec::with_capacity(CHUNK);
    match command {
        Command::Stream { shards, checkpoint } => {
            let mut source = Source::file(input, checkpoint.is_some())?;
            let mut pipeline = {
                let _span = trace.span("core.stream.pipeline.new", 0);
                StreamPipeline::new(Fzf, pipeline_config(*shards, checkpoint.as_ref()))
            };
            let mut writer = checkpoint
                .as_ref()
                .map(|plan| CheckpointWriter::new(&plan.path));
            let mut checkpoints = CheckpointStats::default();
            let every = checkpoint.as_ref().map_or(0, |plan| plan.every);
            let mut since_snapshot = 0u64;
            loop {
                // Stop decoding where a checkpoint falls due, so the
                // snapshot's source position is the one the CLI records.
                let want = if every > 0 {
                    CHUNK.min((every - since_snapshot) as usize)
                } else {
                    CHUNK
                };
                decode_chunk(trace, &mut source, &mut chunk, want)?;
                if chunk.is_empty() {
                    break;
                }
                {
                    let _span = trace.span("core.stream.pipeline.push", chunk.len() as u64);
                    for &(key, op) in &chunk {
                        pipeline.push(key, op);
                    }
                }
                since_snapshot += chunk.len() as u64;
                if let Some(writer) = &mut writer {
                    if pipeline.checkpoint_due() {
                        let position = source.position();
                        checkpoint_once(trace, &mut pipeline, writer, position, &mut checkpoints)?;
                        since_snapshot = 0;
                    }
                }
            }
            let output = {
                let _span = trace.span("core.stream.pipeline.finish", 0);
                pipeline.finish()
            };
            Ok(PathOutcome {
                output,
                checkpoints,
                ..Default::default()
            })
        }
        Command::Serve { workers } => {
            let fleet = {
                let _span = trace.span("fleet.spawn", 0);
                Fleet::spawn(*workers)?
            };
            let mut source = Source::stdin(&input.path)?;
            let mut coordinator = {
                let _span = trace.span("core.stream.coordinator.new", 0);
                FleetCoordinator::new(fleet_config(), fleet.links)?
            };
            loop {
                decode_chunk(trace, &mut source, &mut chunk, CHUNK)?;
                if chunk.is_empty() {
                    break;
                }
                let _span = trace.span("core.stream.coordinator.push", chunk.len() as u64);
                for &(key, op) in &chunk {
                    coordinator.push(key, op)?;
                }
            }
            let (output, _) = {
                let _span = trace.span("core.stream.coordinator.finish", 0);
                coordinator.finish()?
            };
            {
                let _span = trace.span("fleet.join", 0);
                Fleet::join(fleet.handles)?;
            }
            Ok(PathOutcome {
                output,
                wire_bytes: fleet.wire.bytes.load(Ordering::Relaxed),
                wire_messages: fleet.wire.messages.load(Ordering::Relaxed),
                ..Default::default()
            })
        }
    }
}

/// FZF behind a span per call, counting decided verdicts.
#[derive(Clone, Copy)]
struct TimedFzf<'t> {
    trace: &'t Trace,
    decided: &'t Cell<u64>,
}

impl Verifier for TimedFzf<'_> {
    fn k(&self) -> u64 {
        Fzf.k()
    }

    fn name(&self) -> &'static str {
        Fzf.name()
    }

    fn verify(&self, history: &History) -> Verdict {
        let _span = self.trace.span("core.fzf.verify", history.len() as u64);
        let verdict = Fzf.verify(history);
        if verdict.decided().is_some() {
            self.decided.set(self.decided.get() + 1);
        }
        verdict
    }
}

/// What the single-threaded replay saw.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayStats {
    pub ops: u64,
    pub failed: u64,
    pub segments: u64,
    /// Per-key buffer high-water marks, summed over keys.
    pub peak_resident_ops: u64,
    /// Per-key retired-metadata high-water marks, summed over keys.
    pub peak_retired: u64,
    pub decided: u64,
}

/// Keys the replay's dense per-key table accepts.
const MAX_REPLAY_KEYS: u64 = 1 << 20;

/// One `OnlineVerifier` per key on this thread alone — the single-thread
/// baseline, and the only place builder and verifier time separate
/// cleanly (verifier spans nest inside push spans).
pub fn replay(trace: &Trace, input: &Input, expected: &Expected) -> Res<ReplayStats> {
    let _phase = trace.span(REPLAY, 0);
    let decided = Cell::new(0);
    let verifier = TimedFzf {
        trace,
        decided: &decided,
    };
    let mut source = Source::file(input, false)?;
    let mut keys: Vec<Option<OnlineVerifier<TimedFzf<'_>>>> = Vec::new();
    let mut errored = Vec::new();
    let mut chunk = Vec::with_capacity(CHUNK);
    let mut stats = ReplayStats::default();
    loop {
        decode_chunk(trace, &mut source, &mut chunk, CHUNK)?;
        if chunk.is_empty() {
            break;
        }
        let _span = trace.span("core.stream.online.push", chunk.len() as u64);
        for &(key, op) in &chunk {
            if key >= MAX_REPLAY_KEYS {
                return Err(format!("key {key} is too large for the replay table").into());
            }
            let slot = key as usize;
            if slot >= keys.len() {
                keys.resize_with(slot + 1, || None);
            }
            let online = keys[slot].get_or_insert_with(|| OnlineVerifier::new(verifier, WINDOW));
            if online.push(op).is_err() {
                errored.push(key);
            }
        }
        stats.ops += chunk.len() as u64;
    }
    let mut output = PipelineOutput::default();
    {
        let _span = trace.span("core.stream.online.freeze", 0);
        for (key, online) in keys.into_iter().enumerate() {
            let Some(online) = online else { continue };
            match online.freeze() {
                Ok(report) => output.keys.push((key as u64, report)),
                Err(e) => output.errors.push((key as u64, e.to_string())),
            }
        }
    }
    output
        .errors
        .extend(errored.into_iter().map(|key| (key, "rejected".to_string())));
    for (_, report) in &output.keys {
        stats.segments += report.segments as u64;
        stats.peak_resident_ops += report.peak_resident as u64;
        stats.peak_retired += report.peak_retired as u64;
    }
    stats.failed = failed_ops(expected, &output);
    stats.decided = decided.get();
    Ok(stats)
}

/// A small complete stream, pre-encoded in both formats, for the layers
/// a workload's command path does not reach.
pub struct ProbeInput {
    pub records: Vec<StreamRecord>,
    pub frames: Vec<u8>,
    pub ndjson: Vec<u8>,
    pub expected: Expected,
    pub checkpoint: PathBuf,
}

/// What the probes produced.
#[derive(Debug, Default)]
pub struct ProbeOutcome {
    pub failed: u64,
    pub checkpoints: CheckpointStats,
    pub wire_bytes: u64,
    pub wire_messages: u64,
}

fn count_records(
    trace: &Trace,
    name: &'static str,
    records: impl Iterator<Item = Result<StreamRecord, NdjsonError>>,
) -> Res<u64> {
    let span = trace.span(name, 0);
    let mut n = 0u64;
    for record in records {
        std::hint::black_box(record?);
        n += 1;
    }
    span.set_ops(n);
    Ok(n)
}

/// Every layer once over the probe stream, under the [`PROBE`] phase:
/// the three decoders, a `kav stream` pipeline with one checkpoint, and
/// a fleet.
pub fn probe(
    trace: &Trace,
    input: &ProbeInput,
    shards: usize,
    workers: usize,
) -> Res<ProbeOutcome> {
    let _phase = trace.span(PROBE, 0);
    let total = input.records.len() as u64;
    let mut outcome = ProbeOutcome::default();
    let decoded = [
        count_records(
            trace,
            "history.frame.decode",
            FrameReader::new(&input.frames)?,
        )?,
        count_records(
            trace,
            "history.ndjson.decode",
            SliceReader::new(&input.ndjson),
        )?,
        count_records(
            trace,
            "history.ndjson.reader",
            Reader::new(std::io::Cursor::new(&input.ndjson[..])),
        )?,
    ];
    if decoded.iter().any(|&n| n != total) {
        outcome.failed += total;
    }

    let mut pipeline = {
        let _span = trace.span("core.stream.pipeline.new", 0);
        StreamPipeline::new(Fzf, pipeline_config(shards, None))
    };
    {
        let _span = trace.span("core.stream.pipeline.push", total);
        for record in &input.records {
            pipeline.push(record.key, record.op());
        }
    }
    let mut writer = CheckpointWriter::new(&input.checkpoint);
    let position = SourcePosition {
        lines: total,
        ..Default::default()
    };
    checkpoint_once(
        trace,
        &mut pipeline,
        &mut writer,
        position,
        &mut outcome.checkpoints,
    )?;
    let output = {
        let _span = trace.span("core.stream.pipeline.finish", 0);
        pipeline.finish()
    };
    outcome.failed += failed_ops(&input.expected, &output);

    let fleet = {
        let _span = trace.span("fleet.spawn", 0);
        Fleet::spawn(workers)?
    };
    let mut coordinator = {
        let _span = trace.span("core.stream.coordinator.new", 0);
        FleetCoordinator::new(fleet_config(), fleet.links)?
    };
    {
        let _span = trace.span("core.stream.coordinator.push", total);
        for record in &input.records {
            coordinator.push(record.key, record.op())?;
        }
    }
    let (output, _) = {
        let _span = trace.span("core.stream.coordinator.finish", 0);
        coordinator.finish()?
    };
    {
        let _span = trace.span("fleet.join", 0);
        Fleet::join(fleet.handles)?;
    }
    outcome.failed += failed_ops(&input.expected, &output);
    outcome.wire_bytes = fleet.wire.bytes.load(Ordering::Relaxed);
    outcome.wire_messages = fleet.wire.messages.load(Ordering::Relaxed);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kav_core::protocol::{tag, write_message};

    #[test]
    fn counted_follows_the_framing_across_split_writes() {
        let wire = Arc::new(WireStats::default());
        let mut bytes = COORDINATOR_MAGIC.to_vec();
        write_message(&mut bytes, tag::ASSIGN, b"hello").expect("vec write");
        write_message(&mut bytes, tag::FINISH, b"").expect("vec write");
        let mut counted = Counted::new(Vec::new(), wire.clone());
        for piece in bytes.chunks(3) {
            counted.write_all(piece).expect("vec write");
        }
        assert_eq!(wire.bytes.load(Ordering::Relaxed), bytes.len() as u64);
        assert_eq!(wire.messages.load(Ordering::Relaxed), 2);
    }
}
