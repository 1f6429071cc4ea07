//! Checkpoint files round-trip: whatever pipeline state the writer is
//! handed, `read_checkpoint` returns exactly that snapshot — client-tagged
//! operations, orphaned reads, retirement rings, finalised reports, key
//! errors, the unverified-resume taint and the fleet's partition tag
//! included. The binary column section must lose nothing the JSON
//! envelope does not carry.

use k_atomicity::history::frame::KeyRange;
use k_atomicity::history::ndjson::StreamRecord;
use k_atomicity::history::{OpKind, Operation, Time, Value};
use k_atomicity::verify::{
    read_checkpoint, CausalVerifier, CheckpointWriter, Fzf, PipelineConfig, PipelineSnapshot,
    SourcePosition, StreamPipeline,
};
use k_atomicity::workloads::{
    causal_violation_stream, streaming_workload, CausalStreamConfig, StreamingWorkloadConfig,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// One random pipeline state.
#[derive(Clone, Copy, Debug)]
struct Case {
    seed: u64,
    keys: u64,
    /// `causal-stream` records (client-tagged) under `--model causal`,
    /// else `streaming_workload` records under FZF.
    causal: bool,
    window: usize,
    horizon: usize,
    /// Every `orphan_every`-th read asks for a value no write produces
    /// (0 = none), so it expires as an orphan.
    orphan_every: usize,
    /// Break completion order on key 0 at the cut, finalising it with a
    /// report and an error.
    fail: bool,
    cut_permille: usize,
    /// Tag the snapshot as fleet range `index` of `partition(workers)`.
    partition: Option<(usize, usize)>,
    uncertified: bool,
}

fn records(case: Case) -> Vec<StreamRecord> {
    let mut records = if case.causal {
        causal_violation_stream(CausalStreamConfig {
            keys: case.keys,
            gadgets_per_key: 12,
            seed: case.seed,
        })
    } else {
        streaming_workload(StreamingWorkloadConfig {
            keys: case.keys,
            ops_per_key: 60,
            k: 2,
            seed: case.seed,
            ..Default::default()
        })
    };
    if case.orphan_every > 0 {
        let reads = records.iter_mut().filter(|record| record.kind == OpKind::Read);
        for (i, read) in reads.enumerate().filter(|(i, _)| i % case.orphan_every == 0) {
            read.value = Value(u64::MAX - i as u64);
        }
    }
    records
}

fn snapshot(case: Case) -> PipelineSnapshot {
    let config = PipelineConfig {
        shards: 2,
        window: case.window,
        horizon: Some(case.horizon),
        ..Default::default()
    };
    let mut pipeline = if case.causal {
        StreamPipeline::new(CausalVerifier::new(), config)
    } else {
        StreamPipeline::new(Fzf, config)
    };
    let records = records(case);
    let cut = records.len() * case.cut_permille / 1000;
    for record in &records[..cut] {
        pipeline.push(record.key, record.op());
    }
    if case.fail && cut > 0 {
        pipeline.push(0, Operation::write(Value(u64::MAX), Time(0), Time(1)));
    }
    let mut snapshot = pipeline.snapshot();
    drop(pipeline);
    snapshot.partition = case.partition.map(|(workers, index)| KeyRange::partition(workers)[index]);
    snapshot.uncertified = case.uncertified;
    snapshot
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kav_checkpoint_format");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{:?}.ckpt", std::thread::current().id()))
}

/// Writes `snapshot` through a fresh writer and reads it back.
fn round_trip(name: &str, snapshot: &PipelineSnapshot) -> PipelineSnapshot {
    let path = temp_path(name);
    let source = SourcePosition {
        lines: 17,
        fingerprint: 0xfeed,
        malformed: 2,
        malformed_samples: vec!["line 3: bad".into()],
    };
    let mut writer = CheckpointWriter::new(&path);
    let version = writer.write(source.clone(), snapshot.clone()).unwrap();
    let read = read_checkpoint(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!((read.format, read.version, &read.source), (2, version, &source));
    read.pipeline
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (0u64..500, 1u64..5, any::<bool>(), 2usize..12, 1usize..24),
        (0usize..6, any::<bool>(), 0usize..=1000, 0usize..3, any::<bool>()),
    )
        .prop_map(
            |(
                (seed, keys, causal, window, horizon),
                (orphan_every, fail, cut_permille, workers, uncertified),
            )| Case {
                seed,
                keys,
                causal,
                window,
                horizon,
                orphan_every,
                fail,
                cut_permille,
                partition: (workers > 0).then(|| (workers * 2, seed as usize % (workers * 2))),
                uncertified,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `read_checkpoint(write(snapshot)).pipeline == snapshot` for random
    /// pipelines.
    #[test]
    fn written_snapshots_read_back_unchanged(case in case_strategy()) {
        let snapshot = snapshot(case);
        prop_assert_eq!(round_trip("prop", &snapshot), snapshot);
    }
}

/// The property's generator really reaches every part of a snapshot the
/// column section carries or sits next to: a sweep of fixed cases
/// round-trips each and checks that, between them, they hold
/// client-tagged and untagged operations, orphaned reads, non-empty
/// retirement rings, finalised reports with key errors, a model tag and
/// a partition tag.
#[test]
fn round_trips_cover_every_snapshot_part() {
    let mut seen = [false; 7];
    for seed in 0..24u64 {
        let case = Case {
            seed,
            keys: 1 + seed % 4,
            causal: seed % 3 == 0,
            window: 2 + (seed as usize % 5),
            horizon: 1 + (seed as usize % 7),
            orphan_every: seed as usize % 4,
            fail: seed % 2 == 1,
            cut_permille: 300 + (seed as usize * 37) % 700,
            partition: (seed % 4 == 2).then_some((4, seed as usize % 4)),
            uncertified: seed % 5 == 0,
        };
        let snapshot = snapshot(case);
        assert_eq!(round_trip("sweep", &snapshot), snapshot, "{case:?}");
        let builders = || snapshot.states.iter().map(|entry| &entry.state.builder);
        seen[0] |= builders().any(|b| b.buffer.iter().any(|op| op.client != 0));
        seen[1] |= builders().any(|b| b.buffer.iter().any(|op| op.client == 0));
        seen[2] |= builders().any(|b| !b.orphaned.is_empty());
        seen[3] |= builders().any(|b| !b.retired_recent.is_empty());
        seen[4] |= !snapshot.reports.is_empty() && !snapshot.errors.is_empty();
        seen[5] |= snapshot.states.iter().any(|entry| !entry.state.model.is_k_atomic());
        seen[6] |= snapshot.partition.is_some();
    }
    assert_eq!(seen, [true; 7], "client, untagged, orphan, ring, finalised, model, partition");
}
