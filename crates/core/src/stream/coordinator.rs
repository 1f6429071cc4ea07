//! The fleet coordinator: one process routing a multi-register stream
//! over worker processes, each auditing a slice of the key space.
//!
//! §II-B makes k-AV embarrassingly parallel across keys, and the
//! in-process [`StreamPipeline`] already exploits that with threads; the
//! coordinator lifts the same decomposition across *processes*. Keys are
//! partitioned by [`KeyRange`] (bit prefixes of the shard hash, so ranges
//! nest and split cleanly), ingest fans out as routed frame batches, and
//! per-range [`PipelineSnapshot`]s flow back at checkpoint cadence to be
//! [merged](super::merge) into one ordinary checkpoint.
//!
//! # Hand-off: death is a resume
//!
//! The rebalancing mechanism *is* the checkpoint mechanism. For every
//! range the coordinator keeps the last snapshot a worker acknowledged
//! plus one frame buffer holding every frame routed since — those already
//! sent to the owner and those waiting for the next batch — so each
//! operation is encoded once. When a worker dies (any transport error),
//! each of its ranges is re-assigned to the survivor owning the fewest
//! ranges: the survivor resumes the acked snapshot and the coordinator
//! re-sends the whole buffer — an exactly-once hand-off, so the fleet
//! report is the one an undisturbed run produces.
//! Work the dead worker did past the snapshot is deliberately lost and
//! redone; work is never double-counted.
//!
//! If the buffer overflowed ([`FleetConfig::replay_cap`]) the
//! chain between snapshot and present cannot be re-fed, and per-key
//! streams now have a **gap** — feeding later frames across it could
//! prove violations that never happened. So an unverifiable hand-off
//! *stops the range's audit*: the survivor resumes the acked snapshot
//! unverified (proven violations survive; its keys are tainted, YES
//! degrades to UNKNOWN, sticky), every later frame for the range is
//! dropped and counted in [`FleetSummary::frames_dropped`], and
//! [`fleet_verdict`](super::merge::fleet_verdict) refuses to certify the
//! fleet. Soundness is never traded for liveness. Size `replay_cap` at or
//! above the checkpoint cadence and the buffer never overflows between
//! acks.
//!
//! A hot range splits by the same move in reverse: the owner retires the
//! range (replying with its snapshot), the snapshot is
//! [partitioned](super::merge::partition_snapshot) into the two child
//! ranges, and each child resumes on its new owner with a verified chain.
//!
//! [`StreamPipeline`]: super::StreamPipeline

use super::merge::{
    merge_snapshots, partition_snapshot, split_ops_share, FleetSummary, MergeError,
};
use super::pipeline::{PipelineOutput, PipelineSnapshot};
use crate::models::ModelId;
use super::protocol::{
    encode_payload, expect_preamble, parse_reply, read_message, tag, write_message,
    Assignment, FinishReply, ProtocolError, RangeSnapshot, SnapshotReply,
    COORDINATOR_MAGIC, WORKER_MAGIC,
};
use kav_history::frame::{encode_routed_batch, FrameBatch, KeyRange};
use kav_history::Operation;
use std::io::{Read, Write};

/// Default bound on the per-range replay buffer, in frames. At 45 bytes a
/// `KVB2` frame this caps hand-off memory near 47 MB per range while
/// covering many checkpoint cadences' worth of traffic.
pub const DEFAULT_REPLAY_CAP: usize = 1 << 20;

/// One worker's transport, as the coordinator sees it. `kav serve` wraps
/// a child's stdin/stdout; tests wrap socket pairs.
pub struct WorkerLink {
    /// Coordinator → worker byte stream.
    pub writer: Box<dyn Write + Send>,
    /// Worker → coordinator byte stream.
    pub reader: Box<dyn Read + Send>,
}

/// Fleet-wide configuration. The coordinator never runs a verifier — it
/// only names one, and every worker refuses an assignment that disagrees
/// with the verifier it was started with.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// [`Verifier::name`](crate::Verifier::name) the fleet runs.
    pub algo: String,
    /// The consistency model the fleet audits; stamped into every
    /// assignment so no worker can join under different semantics.
    pub model: ModelId,
    /// The `k` the fleet decides.
    pub k: u64,
    /// Per-key sliding-window width.
    pub window: usize,
    /// Per-key retirement horizon (`None` = default).
    pub horizon: Option<usize>,
    /// Thread shards inside each worker's per-range pipeline.
    pub worker_shards: usize,
    /// Frames per routed batch on the wire (and per worker-internal
    /// channel batch).
    pub batch: usize,
    /// Checkpoint cadence in routed operations (0 = never due).
    pub checkpoint_every: u64,
    /// Replay-buffer bound per range, in frames; past it a hand-off of
    /// that range degrades to an unverified resume.
    pub replay_cap: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            algo: "fzf".into(),
            model: ModelId::KAtomic,
            k: 2,
            window: 1024,
            horizon: None,
            worker_shards: 1,
            batch: 256,
            checkpoint_every: super::DEFAULT_CHECKPOINT_EVERY,
            replay_cap: DEFAULT_REPLAY_CAP,
        }
    }
}

/// A worker slot: its transport while alive, its snapshot-version high
/// water mark.
struct WorkerSlot {
    link: Option<WorkerLink>,
    last_snapshot_version: u64,
    /// True once the worker answered FINISH: its reports are final, so it
    /// may never adopt another range (though its link stays usable).
    retired: bool,
}

impl WorkerSlot {
    fn alive(&self) -> bool {
        self.link.is_some()
    }

    /// Eligible to adopt a range: alive and not yet finished.
    fn adoptable(&self) -> bool {
        self.alive() && !self.retired
    }
}

/// Everything the coordinator knows about one key range.
struct RangeState {
    range: KeyRange,
    /// Index into the worker table.
    worker: usize,
    /// Every frame routed since `snapshot` was acknowledged — the
    /// hand-off replay — while `replay_intact`; once the replay overflowed,
    /// only the frames not yet sent.
    frames: FrameBatch,
    /// How many leading `frames` the owner has already been sent; the
    /// rest go out with the next batch.
    sent: usize,
    /// False once the replay overflowed [`FleetConfig::replay_cap`]: the
    /// chain from `snapshot` to the present is no longer re-feedable.
    replay_intact: bool,
    /// True once an unverifiable hand-off stopped this range's audit:
    /// its per-key streams have a gap, so feeding later frames could
    /// prove violations that never happened. The range keeps its (tainted)
    /// acked snapshot; everything after the break is dropped and counted.
    broken: bool,
    /// Last snapshot the owner acknowledged (`None` until the first
    /// checkpoint probe).
    snapshot: Option<PipelineSnapshot>,
    /// Frames routed to this range since it was created (split-heat
    /// signal, and the `ops_routed` share for fresh assignments).
    routed: u64,
}

impl RangeState {
    fn new(
        range: KeyRange,
        worker: usize,
        snapshot: Option<PipelineSnapshot>,
        routed: u64,
    ) -> Self {
        RangeState {
            range,
            worker,
            frames: FrameBatch::new(),
            sent: 0,
            replay_intact: true,
            broken: false,
            snapshot,
            routed,
        }
    }

    /// Forgets the frames already sent: an ack superseded them, or the
    /// replay overflowed and they can no longer be re-fed anyway.
    fn drop_sent(&mut self) {
        self.frames.drain_front(self.sent);
        self.sent = 0;
    }
}

/// The coordinator end of an audit fleet (see the module docs).
///
/// Drive it like a [`StreamPipeline`](super::StreamPipeline):
/// [`push`](Self::push) every
/// operation, consult [`checkpoint_due`](Self::checkpoint_due) /
/// [`snapshot_fleet`](Self::snapshot_fleet) at cadence, then
/// [`finish`](Self::finish) for the merged output. Worker death at any
/// point is handled inside those calls by checkpoint hand-off.
pub struct FleetCoordinator {
    config: FleetConfig,
    workers: Vec<WorkerSlot>,
    ranges: Vec<RangeState>,
    ops_routed: u64,
    ops_at_last_snapshot: u64,
    summary: FleetSummary,
}

impl FleetCoordinator {
    /// Starts a fresh fleet over `links`: exchanges preambles, carves the
    /// key space into [`KeyRange::partition`]`(links.len())` ranges and
    /// deals them round-robin.
    ///
    /// # Errors
    ///
    /// Any preamble or assignment failure ([`ProtocolError`]); a fleet
    /// that cannot start assigns no work.
    pub fn new(config: FleetConfig, links: Vec<WorkerLink>) -> Result<Self, ProtocolError> {
        Self::with_base(config, links, None, true)
    }

    /// Starts a fleet resuming a merged checkpoint: the base snapshot is
    /// [partitioned](partition_snapshot) over the initial ranges, so any
    /// fleet size can resume any checkpoint — including one written by a
    /// single-process `kav stream` run, and vice versa.
    ///
    /// `prefix_verified` is the caller's claim that the input will be
    /// re-fed from exactly the checkpoint's cut (fingerprint-proven);
    /// `false` taints every key, as in [`StreamPipeline::resume`].
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on transport/assignment failure, or when `base`
    /// disagrees with `config` on algorithm, `k`, window or horizon.
    ///
    /// [`StreamPipeline::resume`]: super::StreamPipeline::resume
    pub fn resume(
        config: FleetConfig,
        links: Vec<WorkerLink>,
        base: &PipelineSnapshot,
        prefix_verified: bool,
    ) -> Result<Self, ProtocolError> {
        Self::with_base(config, links, Some(base), prefix_verified)
    }

    fn with_base(
        config: FleetConfig,
        links: Vec<WorkerLink>,
        base: Option<&PipelineSnapshot>,
        prefix_verified: bool,
    ) -> Result<Self, ProtocolError> {
        if let Some(base) = base {
            if base.algo != config.algo || base.k != config.k {
                return Err(ProtocolError::VerifierMismatch(format!(
                    "checkpoint was taken with {}/k={}, fleet runs {}/k={}",
                    base.algo, base.k, config.algo, config.k
                )));
            }
            let horizon = config.horizon.unwrap_or_else(|| {
                config.window.max(1).saturating_mul(super::DEFAULT_HORIZON_WINDOWS)
            });
            if base.window != config.window.max(1) || base.horizon != horizon {
                return Err(ProtocolError::VerifierMismatch(format!(
                    "checkpoint used window {}/horizon {}, fleet config resolves to \
                     window {}/horizon {horizon}",
                    base.window,
                    base.horizon,
                    config.window.max(1)
                )));
            }
        }
        let mut workers: Vec<WorkerSlot> = Vec::with_capacity(links.len());
        for mut link in links {
            link.writer.write_all(&COORDINATOR_MAGIC)?;
            link.writer.flush()?;
            expect_preamble(&mut link.reader, WORKER_MAGIC)?;
            workers.push(WorkerSlot { link: Some(link), last_snapshot_version: 0, retired: false });
        }
        if workers.is_empty() {
            return Err(ProtocolError::Disconnected);
        }
        let partition = KeyRange::partition(workers.len());
        let mut fleet = FleetCoordinator {
            ops_routed: base.map_or(0, |b| b.ops_routed),
            ops_at_last_snapshot: base.map_or(0, |b| b.ops_routed),
            summary: FleetSummary {
                workers: workers.len(),
                workers_alive: workers.len(),
                ranges: partition.len(),
                ..Default::default()
            },
            config,
            workers,
            ranges: Vec::with_capacity(partition.len()),
        };
        let mut remaining = base.map_or(0, |b| b.ops_routed);
        let last = partition.len() - 1;
        for (i, range) in partition.into_iter().enumerate() {
            let snapshot = base.map(|b| {
                // Conserve the fleet-wide ops_routed sum: each slice takes
                // its accepted ops, the last takes the remainder (pushes
                // to failed keys are not attributable to a slice).
                let share =
                    if i == last { remaining } else { split_ops_share(b, range).min(remaining) };
                remaining -= share;
                partition_snapshot(b, range, share)
            });
            let routed = snapshot.as_ref().map_or(0, |s| s.ops_routed);
            fleet.ranges.push(RangeState::new(range, i % fleet.workers.len(), snapshot, routed));
            fleet.assign(i, prefix_verified)?;
        }
        Ok(fleet)
    }

    /// Operations routed into the fleet so far (across resumes).
    pub fn ops_routed(&self) -> u64 {
        self.ops_routed
    }

    /// The fleet's topology and hand-off counters so far.
    pub fn summary(&self) -> &FleetSummary {
        &self.summary
    }

    /// True once [`FleetConfig::checkpoint_every`] operations have been
    /// routed since the last [`snapshot_fleet`](Self::snapshot_fleet).
    pub fn checkpoint_due(&self) -> bool {
        self.config.checkpoint_every > 0
            && self.ops_routed - self.ops_at_last_snapshot >= self.config.checkpoint_every
    }

    /// Routes one operation to its range's owner, flushing a full batch
    /// across the wire. A dead owner triggers hand-off; the operation is
    /// never lost.
    ///
    /// # Errors
    ///
    /// Only when no worker is left alive to own the range.
    pub fn push(&mut self, key: u64, op: Operation) -> Result<(), ProtocolError> {
        self.ops_routed += 1;
        let idx = self
            .ranges
            .iter()
            .position(|state| state.range.contains(key))
            .expect("split ranges tile the key space");
        let state = &mut self.ranges[idx];
        state.routed += 1;
        if state.broken {
            // The range's audit stopped at an unverifiable hand-off:
            // feeding across the gap could prove violations that never
            // happened, so later frames are dropped — loudly counted, and
            // the fleet verdict never certifies (see `fleet_verdict`).
            self.summary.frames_dropped += 1;
            return Ok(());
        }
        if state.replay_intact && state.frames.len() >= self.config.replay_cap {
            state.replay_intact = false;
            state.drop_sent();
        }
        state.frames.push(key, &op);
        if state.frames.len() - state.sent >= self.config.batch {
            self.flush_range(idx)?;
        }
        Ok(())
    }

    /// Sends range `idx`'s unsent frames as one batch, handing the range
    /// off (and retrying on the new owner) if its worker died.
    fn flush_range(&mut self, idx: usize) -> Result<(), ProtocolError> {
        if self.ranges[idx].sent == self.ranges[idx].frames.len() {
            return Ok(());
        }
        loop {
            let state = &self.ranges[idx];
            let worker = state.worker;
            let payload = encode_routed_batch(state.range, state.frames.frames_from(state.sent));
            match self.write_to(worker, tag::BATCH, &payload) {
                Ok(()) => {
                    let state = &mut self.ranges[idx];
                    state.sent = state.frames.len();
                    if !state.replay_intact {
                        state.drop_sent();
                    }
                    return Ok(());
                }
                Err(_) => {
                    // The owner died mid-stream. Hand its ranges off; the
                    // hand-off re-sends the whole buffer — this batch
                    // included — so nothing is left unsent afterwards.
                    self.handle_worker_death(worker)?;
                }
            }
        }
    }

    /// Writes one message to a worker, flushing.
    fn write_to(&mut self, worker: usize, tag: u8, payload: &[u8]) -> Result<(), ProtocolError> {
        let link = self.workers[worker].link.as_mut().ok_or(ProtocolError::Disconnected)?;
        write_message(&mut link.writer, tag, payload)?;
        link.writer.flush()?;
        Ok(())
    }

    /// Reads one reply from a worker, expecting `expected`; an ERROR
    /// message surfaces as [`ProtocolError::Peer`].
    fn read_reply(&mut self, worker: usize, expected: u8) -> Result<Vec<u8>, ProtocolError> {
        let link = self.workers[worker].link.as_mut().ok_or(ProtocolError::Disconnected)?;
        let (got, payload) = read_message(&mut link.reader)?;
        if got == tag::ERROR {
            return Err(ProtocolError::Peer(String::from_utf8_lossy(&payload).into_owned()));
        }
        if got != expected {
            return Err(ProtocolError::UnexpectedReply { expected, got });
        }
        Ok(payload)
    }

    /// Sends range `idx`'s assignment to its owner.
    fn assign(&mut self, idx: usize, prefix_verified: bool) -> Result<(), ProtocolError> {
        let state = &self.ranges[idx];
        let worker = state.worker;
        let assignment = Assignment {
            range: state.range,
            algo: self.config.algo.clone(),
            model: self.config.model,
            k: self.config.k,
            window: self.config.window,
            horizon: self.config.horizon,
            shards: self.config.worker_shards,
            batch: self.config.batch,
            snapshot: state.snapshot.clone(),
            prefix_verified,
        };
        let payload = encode_payload(&assignment)?;
        self.write_to(worker, tag::ASSIGN, &payload)
    }

    /// Buries a dead worker and re-homes each of its ranges on the
    /// survivor owning the fewest, resuming from the last acked snapshot
    /// and re-sending the range's frame buffer (see the module docs). Survivors dying
    /// during the hand-off are buried the same way, recursively.
    ///
    /// # Errors
    ///
    /// Only when no worker is left alive.
    fn handle_worker_death(&mut self, dead: usize) -> Result<(), ProtocolError> {
        self.workers[dead].link = None;
        self.summary.workers_alive = self.workers.iter().filter(|w| w.alive()).count();
        loop {
            let Some(idx) = self.ranges.iter().position(|state| {
                !self.workers[state.worker].alive()
            }) else {
                return Ok(());
            };
            let Some(survivor) = (0..self.workers.len())
                .filter(|w| self.workers[*w].adoptable())
                .min_by_key(|w| self.ranges.iter().filter(|r| r.worker == *w).count())
            else {
                // Nobody left: the audit cannot continue. This is a
                // transport failure (exit 2), never a verdict.
                return Err(ProtocolError::Disconnected);
            };
            self.summary.hand_offs += 1;
            let state = &mut self.ranges[idx];
            let verified = state.replay_intact;
            state.worker = survivor;
            if !verified {
                self.summary.uncertified_hand_offs += 1;
                state.broken = true;
                // Unsent frames past an overflowed replay cannot follow
                // the gap either.
                state.frames.clear();
                state.sent = 0;
            }
            let outcome: Result<(), ProtocolError> = (|| {
                self.assign(idx, verified)?;
                let state = &self.ranges[idx];
                if !state.frames.is_empty() {
                    let payload = encode_routed_batch(state.range, &state.frames);
                    self.write_to(survivor, tag::BATCH, &payload)?;
                }
                let state = &mut self.ranges[idx];
                state.sent = state.frames.len();
                Ok(())
            })();
            match outcome {
                Ok(()) => {}
                Err(ProtocolError::Io(_)) | Err(ProtocolError::Disconnected) => {
                    // The survivor died too; bury it and loop — the range
                    // is still homed on a dead worker, so it is picked up
                    // again with its replay intact.
                    self.workers[survivor].link = None;
                    self.summary.workers_alive =
                        self.workers.iter().filter(|w| w.alive()).count();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Flushes every range and collects one consistent fleet-wide cut,
    /// merged into a whole-key-space [`PipelineSnapshot`] — the fleet
    /// checkpoint, interchangeable with a single-process one. Also
    /// re-arms [`checkpoint_due`](Self::checkpoint_due) and clears the
    /// replay buffers of every acked range (the new snapshot supersedes
    /// them).
    ///
    /// A worker dying mid-probe is handed off and the probe retried, so
    /// the returned cut is always consistent.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] when the fleet dies entirely or a reply violates
    /// the protocol (non-ascending snapshot version, wrong ranges,
    /// mismatched partition tags — each a diagnostic, never a verdict).
    pub fn snapshot_fleet(&mut self) -> Result<PipelineSnapshot, ProtocolError> {
        'retry: loop {
            for idx in 0..self.ranges.len() {
                self.flush_range(idx)?;
            }
            // One probe per live worker that owns ranges; replies arrive
            // in request order.
            let probed: Vec<usize> = (0..self.workers.len())
                .filter(|w| {
                    self.workers[*w].alive()
                        && self.ranges.iter().any(|state| state.worker == *w)
                })
                .collect();
            let mut replies: Vec<(usize, SnapshotReply)> = Vec::with_capacity(probed.len());
            for worker in probed {
                if self.write_to(worker, tag::SNAPSHOT, &[]).is_err() {
                    self.handle_worker_death(worker)?;
                    continue 'retry;
                }
                match self.read_reply(worker, tag::SNAPSHOT_REPLY) {
                    Ok(payload) => replies.push((worker, parse_reply(&payload)?)),
                    Err(ProtocolError::Io(_)) | Err(ProtocolError::Disconnected) => {
                        self.handle_worker_death(worker)?;
                        continue 'retry;
                    }
                    Err(e) => return Err(e),
                }
            }
            let mut parts: Vec<PipelineSnapshot> = Vec::with_capacity(self.ranges.len());
            for (worker, reply) in replies {
                if reply.version <= self.workers[worker].last_snapshot_version {
                    return Err(ProtocolError::SnapshotVersion {
                        got: reply.version,
                        last: self.workers[worker].last_snapshot_version,
                    });
                }
                self.workers[worker].last_snapshot_version = reply.version;
                let mut owned: Vec<KeyRange> = self
                    .ranges
                    .iter()
                    .filter(|state| state.worker == worker)
                    .map(|state| state.range)
                    .collect();
                owned.sort();
                let mut got: Vec<KeyRange> = reply.ranges.iter().map(|r| r.range).collect();
                got.sort();
                if owned != got {
                    return Err(ProtocolError::UnassignedRange(
                        got.into_iter().find(|r| !owned.contains(r)).unwrap_or(KeyRange::ALL),
                    ));
                }
                for RangeSnapshot { range, snapshot } in reply.ranges {
                    if snapshot.partition != Some(range) {
                        return Err(ProtocolError::PartitionMismatch {
                            range,
                            snapshot: snapshot.partition,
                        });
                    }
                    let state = self
                        .ranges
                        .iter_mut()
                        .find(|state| state.range == range)
                        .expect("validated against the owned set");
                    // The ack supersedes the replay: hand-offs now resume
                    // from this snapshot. A broken range stays broken —
                    // its gap does not heal, it only gets re-acked.
                    state.snapshot = Some(snapshot.clone());
                    state.drop_sent();
                    state.replay_intact = !state.broken;
                    parts.push(snapshot);
                }
            }
            self.ops_at_last_snapshot = self.ops_routed;
            return merge_snapshots(&parts).map_err(|e: MergeError| {
                ProtocolError::Json(format!("fleet snapshots do not merge: {e}"))
            });
        }
    }

    /// Splits the hottest range (most routed frames since creation) in
    /// two: the owner retires it at a consistent cut, the snapshot is
    /// partitioned between the two children, and the busier half stays
    /// put while the other re-homes on the least-loaded worker — all with
    /// verified chains, so splitting never costs certification.
    ///
    /// # Errors
    ///
    /// Transport or protocol failure; the split is abandoned (and the
    /// fleet continues or dies) exactly as a hand-off would.
    pub fn split_hottest(&mut self) -> Result<(), ProtocolError> {
        let Some(idx) = (0..self.ranges.len())
            .filter(|i| self.ranges[*i].range.bits < KeyRange::MAX_BITS)
            .max_by_key(|i| self.ranges[*i].routed)
        else {
            return Ok(());
        };
        self.flush_range(idx)?;
        let owner = self.ranges[idx].worker;
        let range = self.ranges[idx].range;
        let payload = encode_payload(&range)?;
        if self.write_to(owner, tag::RETIRE, &payload).is_err() {
            // The owner died before retiring: plain hand-off instead.
            return self.handle_worker_death(owner);
        }
        let retired: RangeSnapshot = match self.read_reply(owner, tag::RETIRE_REPLY) {
            Ok(payload) => parse_reply(&payload)?,
            Err(ProtocolError::Io(_)) | Err(ProtocolError::Disconnected) => {
                return self.handle_worker_death(owner);
            }
            Err(e) => return Err(e),
        };
        if retired.range != range || retired.snapshot.partition != Some(range) {
            return Err(ProtocolError::PartitionMismatch {
                range,
                snapshot: retired.snapshot.partition,
            });
        }
        let (low, high) = range.split();
        let low_share = split_ops_share(&retired.snapshot, low);
        let parent_routed = self.ranges[idx].routed;
        let parent_ops = retired.snapshot.ops_routed;
        // Heat resets proportionally so the split halves do not
        // immediately win the next split election.
        let make_state = |child: KeyRange, ops: u64, worker: usize| {
            let snapshot = partition_snapshot(&retired.snapshot, child, ops);
            RangeState::new(child, worker, Some(snapshot), parent_routed / 2)
        };
        let other = (0..self.workers.len())
            .filter(|w| self.workers[*w].adoptable())
            .min_by_key(|w| self.ranges.iter().filter(|r| r.worker == *w).count())
            .ok_or(ProtocolError::Disconnected)?;
        let low_state = make_state(low, low_share.min(parent_ops), owner);
        let high_state = make_state(high, parent_ops - low_share.min(parent_ops), other);
        self.ranges.swap_remove(idx);
        for state in [low_state, high_state] {
            let worker = state.worker;
            self.ranges.push(state);
            match self.assign(self.ranges.len() - 1, true) {
                Ok(()) => {}
                Err(ProtocolError::Io(_)) | Err(ProtocolError::Disconnected) => {
                    self.handle_worker_death(worker)?;
                }
                Err(e) => return Err(e),
            }
        }
        self.summary.splits += 1;
        self.summary.ranges = self.ranges.len();
        Ok(())
    }

    /// Finishes the fleet: flushes everything, collects every worker's
    /// final reports and merges them into the single-process
    /// [`PipelineOutput`] shape. Workers dying before replying are handed
    /// off to unfinished survivors and those are re-finished, so one
    /// crash at the finish line does not cost the audit.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] when the whole fleet dies or a reply violates
    /// the protocol.
    pub fn finish(mut self) -> Result<(PipelineOutput, FleetSummary), ProtocolError> {
        for idx in 0..self.ranges.len() {
            self.flush_range(idx)?;
        }
        let mut outputs: Vec<PipelineOutput> = Vec::new();
        'drain: while let Some(worker) =
            (0..self.workers.len()).find(|w| self.workers[*w].adoptable())
        {
            if !self.ranges.iter().any(|state| state.worker == worker) {
                // Nothing assigned (every range handed off elsewhere);
                // still finish it so the process exits cleanly.
                let _ = self.write_to(worker, tag::FINISH, &[]);
                let _ = self.read_reply(worker, tag::FINISH_REPLY);
                self.workers[worker].retired = true;
                continue;
            }
            if self.write_to(worker, tag::FINISH, &[]).is_err() {
                // A retired survivor's reports are final, so the dead
                // worker's ranges may only move to unfinished workers —
                // which is exactly what the adoptable() election enforces.
                self.handle_worker_death(worker)?;
                continue 'drain;
            }
            let reply: FinishReply = match self.read_reply(worker, tag::FINISH_REPLY) {
                Ok(payload) => parse_reply(&payload)?,
                Err(ProtocolError::Io(_)) | Err(ProtocolError::Disconnected) => {
                    self.handle_worker_death(worker)?;
                    continue 'drain;
                }
                Err(e) => return Err(e),
            };
            let mut owned: Vec<KeyRange> = self
                .ranges
                .iter()
                .filter(|state| state.worker == worker)
                .map(|state| state.range)
                .collect();
            owned.sort();
            let mut got: Vec<KeyRange> = reply.ranges.iter().map(|r| r.range).collect();
            got.sort();
            if owned != got {
                return Err(ProtocolError::UnassignedRange(
                    got.into_iter().find(|r| !owned.contains(r)).unwrap_or(KeyRange::ALL),
                ));
            }
            for range_output in reply.ranges {
                outputs.push(PipelineOutput {
                    keys: range_output
                        .keys
                        .into_iter()
                        .map(|entry| (entry.key, entry.report))
                        .collect(),
                    errors: range_output
                        .errors
                        .into_iter()
                        .map(|entry| (entry.key, entry.error))
                        .collect(),
                });
            }
            self.workers[worker].retired = true;
        }
        if self.ranges.iter().any(|state| !self.workers[state.worker].retired) {
            // Some range's owner died and no unfinished survivor was left
            // to adopt it: the audit is incomplete — an input/transport
            // failure, never a partial verdict.
            return Err(ProtocolError::Disconnected);
        }
        self.summary.workers_alive = self.workers.iter().filter(|w| w.alive()).count();
        Ok((super::merge::merge_reports(outputs), self.summary))
    }
}
