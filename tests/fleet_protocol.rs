//! Adversarial wire-protocol tests: a coordinator or worker fed a
//! malformed, truncated, misrouted or replayed stream must fail loudly
//! with a diagnostic ([`ProtocolError`] → exit 2 in the CLI) and **never**
//! produce a wrong verdict. Every rejection path of the framing layer is
//! exercised from outside, speaking raw bytes.
//!
//! [`ProtocolError`]: k_atomicity::verify::ProtocolError

use k_atomicity::history::frame::{encode_routed_batch, FrameBatch, KeyRange};
use k_atomicity::history::{Operation, Time, Value};
use k_atomicity::verify::protocol::{
    expect_preamble, read_message, tag, write_message, Assignment, FinishReply, RangeOutput,
    RangeSnapshot, SnapshotReply, COORDINATOR_MAGIC, WORKER_MAGIC,
};
use k_atomicity::verify::{
    worker_loop, FleetConfig, FleetCoordinator, Fzf, KeyError, KeyReport, ModelId,
    PipelineConfig, PipelineSnapshot, ProtocolError, StreamPipeline, WorkerLink,
};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;

// ---------------------------------------------------------------------------
// Worker-side rejections: a test driver plays coordinator over raw bytes.
// ---------------------------------------------------------------------------

/// Spawns one `worker_loop` (Fzf, k = 2) and returns the driver-side
/// socket plus the handle resolving to the loop's exit.
fn spawn_worker() -> (UnixStream, JoinHandle<Result<(), ProtocolError>>) {
    let (driver, worker) = UnixStream::pair().expect("socketpair");
    let handle = std::thread::spawn(move || {
        let input = worker.try_clone().expect("clone");
        worker_loop(Fzf, input, worker)
    });
    (driver, handle)
}

/// Completes the preamble exchange as a well-behaved coordinator would.
fn handshake(driver: &mut UnixStream) {
    driver.write_all(&COORDINATOR_MAGIC).unwrap();
    driver.flush().unwrap();
    expect_preamble(driver, WORKER_MAGIC).expect("worker announces itself");
}

/// Sends a valid assignment of `range` to the worker.
fn assign(driver: &mut UnixStream, range: KeyRange) {
    let assignment = Assignment {
        range,
        algo: "fzf".to_owned(),
        model: ModelId::KAtomic,
        k: 2,
        window: 8,
        horizon: None,
        shards: 1,
        batch: 4,
        snapshot: None,
        prefix_verified: true,
    };
    let payload = serde_json::to_string(&assignment).unwrap().into_bytes();
    write_message(driver, tag::ASSIGN, &payload).unwrap();
    driver.flush().unwrap();
}

/// Drains the worker's ERROR reply (its best-effort diagnostic before
/// dying) and asserts the diagnostic mentions `needle`.
fn expect_error_reply(driver: &mut UnixStream, needle: &str) {
    let (got, payload) = read_message(driver).expect("a diagnostic, not silence");
    assert_eq!(got, tag::ERROR, "the worker must flag the fault");
    let text = String::from_utf8_lossy(&payload).into_owned();
    assert!(
        text.contains(needle),
        "diagnostic {text:?} should mention {needle:?}"
    );
}

fn one_frame_batch(key: u64) -> FrameBatch {
    let mut batch = FrameBatch::new();
    batch.push(key, &Operation::write(Value(1), Time(0), Time(5)));
    batch
}

#[test]
fn worker_rejects_a_bad_preamble() {
    let (mut driver, handle) = spawn_worker();
    driver.write_all(b"KAVX9999").unwrap();
    driver.flush().unwrap();
    let exit = handle.join().unwrap();
    assert!(
        matches!(exit, Err(ProtocolError::BadPreamble { .. })),
        "got {exit:?}"
    );
    drop(driver);
}

#[test]
fn worker_rejects_a_batch_with_bad_magic() {
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    assign(&mut driver, KeyRange::ALL);
    let mut payload = encode_routed_batch(KeyRange::ALL, &one_frame_batch(1));
    payload[..4].copy_from_slice(b"XXXX");
    write_message(&mut driver, tag::BATCH, &payload).unwrap();
    driver.flush().unwrap();
    expect_error_reply(&mut driver, "magic");
    assert!(matches!(handle.join().unwrap(), Err(ProtocolError::Batch(_))));
}

#[test]
fn worker_rejects_truncated_frames() {
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    assign(&mut driver, KeyRange::ALL);
    // Chop the payload mid-frame: the declared length no longer matches.
    let full = encode_routed_batch(KeyRange::ALL, &one_frame_batch(1));
    write_message(&mut driver, tag::BATCH, &full[..full.len() - 7]).unwrap();
    driver.flush().unwrap();
    expect_error_reply(&mut driver, "truncated");
    assert!(matches!(handle.join().unwrap(), Err(ProtocolError::Batch(_))));
}

#[test]
fn worker_rejects_keys_routed_outside_the_range() {
    let (low, high) = KeyRange::ALL.split();
    let high_key = (0u64..).find(|k| high.contains(*k)).unwrap();

    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    assign(&mut driver, low);
    // A batch *tagged* with the assigned range but smuggling a foreign
    // key: the frame-level validation must catch the mismatch before
    // the key is ever audited under the wrong shard.
    let payload = encode_routed_batch(low, &one_frame_batch(high_key));
    write_message(&mut driver, tag::BATCH, &payload).unwrap();
    driver.flush().unwrap();
    expect_error_reply(&mut driver, "outside");
    assert!(matches!(handle.join().unwrap(), Err(ProtocolError::Batch(_))));
}

#[test]
fn worker_rejects_batches_for_unassigned_ranges() {
    let (low, high) = KeyRange::ALL.split();
    let high_key = (0u64..).find(|k| high.contains(*k)).unwrap();
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    assign(&mut driver, low);
    // Correctly self-consistent batch, but for a range nobody gave us.
    let mut batch = FrameBatch::new();
    batch.push(high_key, &Operation::write(Value(1), Time(0), Time(5)));
    let payload = encode_routed_batch(high, &batch);
    write_message(&mut driver, tag::BATCH, &payload).unwrap();
    driver.flush().unwrap();
    expect_error_reply(&mut driver, "does not own");
    assert!(matches!(
        handle.join().unwrap(),
        Err(ProtocolError::UnassignedRange(_))
    ));
}

#[test]
fn worker_rejects_duplicate_assignments() {
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    assign(&mut driver, KeyRange::ALL);
    assign(&mut driver, KeyRange::ALL);
    expect_error_reply(&mut driver, "twice");
    assert!(matches!(
        handle.join().unwrap(),
        Err(ProtocolError::DuplicateAssignment(_))
    ));
}

#[test]
fn worker_rejects_a_mismatched_verifier() {
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    let assignment = Assignment {
        range: KeyRange::ALL,
        algo: "genk".to_owned(), // the worker runs fzf
        model: ModelId::KAtomic,
        k: 2,
        window: 8,
        horizon: None,
        shards: 1,
        batch: 4,
        snapshot: None,
        prefix_verified: true,
    };
    let payload = serde_json::to_string(&assignment).unwrap().into_bytes();
    write_message(&mut driver, tag::ASSIGN, &payload).unwrap();
    driver.flush().unwrap();
    expect_error_reply(&mut driver, "genk");
    assert!(matches!(
        handle.join().unwrap(),
        Err(ProtocolError::VerifierMismatch(_))
    ));
}

#[test]
fn worker_rejects_unknown_tags_and_oversized_lengths() {
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    write_message(&mut driver, 250, b"whatever").unwrap();
    driver.flush().unwrap();
    expect_error_reply(&mut driver, "tag");
    assert!(matches!(handle.join().unwrap(), Err(ProtocolError::UnknownTag(_))));

    // A corrupt length prefix must be refused before allocation.
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    driver.write_all(&[tag::BATCH]).unwrap();
    driver.write_all(&u32::MAX.to_le_bytes()).unwrap();
    driver.flush().unwrap();
    let exit = handle.join().unwrap();
    assert!(matches!(exit, Err(ProtocolError::Oversized(_))), "got {exit:?}");
}

#[test]
fn worker_treats_a_torn_message_as_a_transport_fault() {
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    // A message header promising more bytes than ever arrive.
    driver.write_all(&[tag::BATCH]).unwrap();
    driver.write_all(&100u32.to_le_bytes()).unwrap();
    driver.write_all(b"short").unwrap();
    driver.flush().unwrap();
    drop(driver); // EOF mid-message
    let exit = handle.join().unwrap();
    assert!(
        matches!(exit, Err(ProtocolError::Io(_))),
        "mid-message EOF is a torn transport, got {exit:?}"
    );
}

// ---------------------------------------------------------------------------
// Coordinator-side rejections: a fake worker plays back corrupt replies.
// ---------------------------------------------------------------------------

/// A scripted fake worker: answers the preamble, consumes assignments and
/// batches, and answers SNAPSHOT, RETIRE and FINISH with the reply
/// `script` returns for the request's tag and its 1-based position among
/// those requests — allowing replayed versions, mis-tagged partitions and
/// foreign keys. It exits after answering FINISH.
fn scripted_worker(
    mut script: impl FnMut(u8, u64) -> (u8, String) + Send + 'static,
) -> (WorkerLink, JoinHandle<()>) {
    let (coordinator_side, mut worker_side) = UnixStream::pair().expect("socketpair");
    let handle = std::thread::spawn(move || {
        let mut requests = 0u64;
        if expect_preamble(&mut worker_side, COORDINATOR_MAGIC).is_err() {
            return;
        }
        worker_side.write_all(&WORKER_MAGIC).unwrap();
        worker_side.flush().unwrap();
        loop {
            let Ok((got, _payload)) = read_message(&mut worker_side) else {
                return;
            };
            match got {
                tag::ASSIGN | tag::BATCH => {}
                tag::SNAPSHOT | tag::RETIRE | tag::FINISH => {
                    requests += 1;
                    let (reply, payload) = script(got, requests);
                    // The coordinator may already have hung up.
                    if write_message(&mut worker_side, reply, payload.as_bytes()).is_err()
                        || worker_side.flush().is_err()
                        || got == tag::FINISH
                    {
                        return;
                    }
                }
                _ => return,
            }
        }
    });
    let link = WorkerLink {
        writer: Box::new(coordinator_side.try_clone().expect("clone")),
        reader: Box::new(coordinator_side),
    };
    (link, handle)
}

/// A script answering every SNAPSHOT probe with `reply(probe number)`.
fn snapshot_script(
    mut reply: impl FnMut(u64) -> SnapshotReply + Send + 'static,
) -> impl FnMut(u8, u64) -> (u8, String) + Send + 'static {
    move |_, probes| (tag::SNAPSHOT_REPLY, serde_json::to_string(&reply(probes)).unwrap())
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        algo: "fzf".to_owned(),
        model: ModelId::KAtomic,
        k: 2,
        window: 8,
        horizon: None,
        worker_shards: 1,
        batch: 4,
        checkpoint_every: 0,
        replay_cap: 1 << 16,
    }
}

/// A well-formed per-range snapshot for [`KeyRange::ALL`].
fn tagged_snapshot() -> PipelineSnapshot {
    snapshot_with_keys(KeyRange::ALL, &[])
}

/// A snapshot tagged `range` holding live state for each of `keys`,
/// whether or not the range contains them.
fn snapshot_with_keys(range: KeyRange, keys: &[u64]) -> PipelineSnapshot {
    let mut pipeline = StreamPipeline::new(
        Fzf,
        PipelineConfig { shards: 1, window: 8, ..Default::default() },
    );
    for &key in keys {
        pipeline.push(key, Operation::write(Value(1), Time(0), Time(5)));
    }
    pipeline.set_partition(Some(range));
    pipeline.snapshot()
}

/// The smallest key `range` contains.
fn key_in(range: KeyRange) -> u64 {
    (0..).find(|key| range.contains(*key)).expect("every range holds some key")
}

#[test]
fn coordinator_rejects_replayed_snapshot_versions() {
    // The fake worker answers every probe with version 1: the second
    // probe's reply must be refused (a replayed cut cannot be trusted).
    let (link, handle) = scripted_worker(snapshot_script(|_probes| SnapshotReply {
        version: 1,
        ranges: vec![RangeSnapshot { range: KeyRange::ALL, snapshot: tagged_snapshot() }],
    }));
    let mut fleet = FleetCoordinator::new(fleet_config(), vec![link]).expect("fleet start");
    fleet.snapshot_fleet().expect("the first probe is fine");
    let err = fleet.snapshot_fleet().expect_err("a replayed version must be refused");
    assert!(
        matches!(err, ProtocolError::SnapshotVersion { got: 1, last: 1 }),
        "got {err:?}"
    );
    assert!(
        !err.to_string().is_empty(),
        "the refusal carries a diagnostic for exit 2"
    );
    drop(fleet);
    handle.join().unwrap();
}

#[test]
fn coordinator_rejects_mistagged_partition_snapshots() {
    // Replies are versioned correctly but the snapshot claims a foreign
    // partition: certification discipline must refuse the merge.
    let (link, handle) = scripted_worker(snapshot_script(|probes| {
        let mut snapshot = tagged_snapshot();
        snapshot.partition = Some(KeyRange::ALL.split().1); // wrong tag
        SnapshotReply {
            version: probes,
            ranges: vec![RangeSnapshot { range: KeyRange::ALL, snapshot }],
        }
    }));
    let mut fleet = FleetCoordinator::new(fleet_config(), vec![link]).expect("fleet start");
    let err = fleet.snapshot_fleet().expect_err("a mis-tagged snapshot must be refused");
    assert!(matches!(err, ProtocolError::PartitionMismatch { .. }), "got {err:?}");
    drop(fleet);
    handle.join().unwrap();
}

#[test]
fn coordinator_rejects_replies_for_unowned_ranges() {
    let (link, handle) = scripted_worker(snapshot_script(|probes| {
        let (low, _high) = KeyRange::ALL.split();
        let mut snapshot = tagged_snapshot();
        snapshot.partition = Some(low);
        SnapshotReply {
            version: probes,
            ranges: vec![RangeSnapshot { range: low, snapshot }], // owns ALL, reports low
        }
    }));
    let mut fleet = FleetCoordinator::new(fleet_config(), vec![link]).expect("fleet start");
    let err = fleet.snapshot_fleet().expect_err("reporting foreign ranges must be refused");
    assert!(matches!(err, ProtocolError::UnassignedRange(_)), "got {err:?}");
    drop(fleet);
    handle.join().unwrap();
}

/// Two scripted workers over `KeyRange::partition(2)`: worker 0 owns the
/// low half and answers with `low_script`; worker 1 owns the high half
/// and answers snapshot probes and FINISH well-formed, with no keys.
fn two_worker_fleet(
    low_script: impl FnMut(u8, u64) -> (u8, String) + Send + 'static,
) -> (FleetCoordinator, Vec<JoinHandle<()>>) {
    let high = KeyRange::ALL.split().1;
    let (low_link, low_handle) = scripted_worker(low_script);
    let (high_link, high_handle) = scripted_worker(move |request, probes| {
        if request == tag::FINISH {
            let ranges = vec![RangeOutput { range: high, keys: vec![], errors: vec![] }];
            return (tag::FINISH_REPLY, serde_json::to_string(&FinishReply { ranges }).unwrap());
        }
        let ranges = vec![RangeSnapshot { range: high, snapshot: snapshot_with_keys(high, &[]) }];
        let reply = SnapshotReply { version: probes, ranges };
        (tag::SNAPSHOT_REPLY, serde_json::to_string(&reply).unwrap())
    });
    let fleet = FleetCoordinator::new(fleet_config(), vec![low_link, high_link])
        .expect("fleet start");
    (fleet, vec![low_handle, high_handle])
}

#[test]
fn coordinator_rejects_replies_that_file_foreign_keys() {
    // The low worker files a high key's live state, final report or error
    // under its own range: merged, the key would be audited and reported
    // by two owners at once.
    let (low, high) = KeyRange::ALL.split();
    let foreign = key_in(high);
    let write = Operation::write(Value(1), Time(0), Time(5));
    let state = RangeSnapshot { range: low, snapshot: snapshot_with_keys(low, &[foreign]) };
    let mut pipeline = StreamPipeline::new(Fzf, PipelineConfig::default());
    pipeline.push(foreign, write);
    let report = KeyReport { key: foreign, report: pipeline.finish().keys.remove(0).1 };
    let error = KeyError { key: foreign, error: "bad record".to_owned() };
    let finish =
        |keys, errors| FinishReply { ranges: vec![RangeOutput { range: low, keys, errors }] };
    let probe = SnapshotReply { version: 1, ranges: vec![state.clone()] };
    let replies = [
        (tag::SNAPSHOT_REPLY, serde_json::to_string(&probe)),
        (tag::RETIRE_REPLY, serde_json::to_string(&state)),
        (tag::FINISH_REPLY, serde_json::to_string(&finish(vec![report], vec![]))),
        (tag::FINISH_REPLY, serde_json::to_string(&finish(vec![], vec![error]))),
    ];
    for (reply, payload) in replies {
        let payload = payload.unwrap();
        let (err, handles) = {
            let (mut fleet, handles) = two_worker_fleet(move |_, _| (reply, payload.clone()));
            // Traffic makes the low range the hottest, so a split retires it.
            fleet.push(key_in(low), write).unwrap();
            let outcome = match reply {
                tag::SNAPSHOT_REPLY => fleet.snapshot_fleet().map(drop),
                tag::RETIRE_REPLY => fleet.split_hottest(),
                _ => fleet.finish().map(drop),
            };
            (outcome.expect_err("a foreign key must be refused"), handles)
        };
        let ProtocolError::KeyOutsideRange { key, range } = err else {
            panic!("reply tag {reply}: expected a key outside its range, got {err:?}");
        };
        assert_eq!((key, range), (foreign, low), "reply tag {reply}");
        let text = err.to_string();
        assert!(text.contains(&format!("key {foreign} under range {low}")), "{text}");
        handles.into_iter().for_each(|h| h.join().unwrap());
    }
}

#[test]
fn coordinator_refuses_a_bad_worker_preamble() {
    let (coordinator_side, mut worker_side) = UnixStream::pair().expect("socketpair");
    let handle = std::thread::spawn(move || {
        let mut preamble = [0u8; 8];
        worker_side.read_exact(&mut preamble).unwrap();
        worker_side.write_all(b"NOTMAGIC").unwrap();
        worker_side.flush().unwrap();
    });
    let link = WorkerLink {
        writer: Box::new(coordinator_side.try_clone().expect("clone")),
        reader: Box::new(coordinator_side),
    };
    let err = FleetCoordinator::new(fleet_config(), vec![link])
        .err()
        .expect("a fleet must not start over a bad preamble");
    assert!(matches!(err, ProtocolError::BadPreamble { .. }), "got {err:?}");
    handle.join().unwrap();
}
