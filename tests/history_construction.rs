//! `History::from_raw` builds every index with one value map, two sorts
//! and one normalising merge. This suite pins it to the construction it
//! replaced, kept below verbatim as a test-only reference: a full
//! `validate()`, a normalisation that sorts all `2n` endpoint keys, then
//! separate sorts for the start order, the finish order, each write's
//! dictated reads and the write-concurrency events.
//!
//! The two must agree on every accessor for valid input, and return the
//! identical `ValidationError` (same anomalies, same order) otherwise.
//! CI runs the properties with `PROPTEST_CASES=2000` in release.

use k_atomicity::history::stream::StreamBuilder;
use k_atomicity::history::{
    Anomaly, History, OpId, OpKind, Operation, RawHistory, Time, ValidationError, Value, Weight,
};
use k_atomicity::workloads::{streaming_workload, StreamingWorkloadConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;

/// Every index a [`History`] exposes, as plain data.
#[derive(Debug, PartialEq)]
struct Indexes {
    ops: Vec<Operation>,
    sorted_by_start: Vec<OpId>,
    sorted_by_finish: Vec<OpId>,
    writes_by_finish: Vec<OpId>,
    reads: Vec<OpId>,
    dictating: Vec<Option<OpId>>,
    dictated: Vec<Vec<OpId>>,
    max_concurrent_writes: usize,
}

/// The indexes of `h`, read back through its public accessors.
fn indexes(h: &History) -> Indexes {
    Indexes {
        ops: h.ops().to_vec(),
        sorted_by_start: h.sorted_by_start().to_vec(),
        sorted_by_finish: h.sorted_by_finish().to_vec(),
        writes_by_finish: h.writes_by_finish().to_vec(),
        reads: h.reads().to_vec(),
        dictating: h.ids().map(|id| h.dictating_write(id)).collect(),
        dictated: h.ids().map(|id| h.dictated_reads(id).to_vec()).collect(),
        max_concurrent_writes: h.max_concurrent_writes(),
    }
}

/// The five-sort construction `History::from_raw` used to run.
fn reference(raw: RawHistory) -> Result<Indexes, ValidationError> {
    raw.validate().into_result()?;

    // Dictating map on raw indices (write values are unique once valid).
    let mut write_of_value: HashMap<Value, usize> = HashMap::new();
    for (i, op) in raw.ops.iter().enumerate() {
        if op.is_write() {
            write_of_value.insert(op.value, i);
        }
    }
    let dictating_raw: Vec<Option<usize>> = raw
        .ops
        .iter()
        .map(|op| if op.is_read() { write_of_value.get(&op.value).copied() } else { None })
        .collect();

    let ops = reference_normalize(&raw, &dictating_raw);
    let n = ops.len();

    let mut sorted_by_start: Vec<OpId> = (0..n).map(OpId).collect();
    sorted_by_start.sort_unstable_by_key(|id| ops[id.index()].start);
    let mut sorted_by_finish: Vec<OpId> = (0..n).map(OpId).collect();
    sorted_by_finish.sort_unstable_by_key(|id| ops[id.index()].finish);

    let writes_by_finish: Vec<OpId> = sorted_by_finish
        .iter()
        .copied()
        .filter(|id| ops[id.index()].is_write())
        .collect();
    let reads: Vec<OpId> = (0..n).map(OpId).filter(|id| ops[id.index()].is_read()).collect();

    let dictating: Vec<Option<OpId>> = dictating_raw.iter().map(|d| d.map(OpId)).collect();
    let mut dictated: Vec<Vec<OpId>> = vec![Vec::new(); n];
    for (i, d) in dictating.iter().enumerate() {
        if let Some(w) = d {
            dictated[w.index()].push(OpId(i));
        }
    }
    for list in &mut dictated {
        list.sort_unstable_by_key(|id| ops[id.index()].start);
    }

    let max_concurrent_writes = max_concurrent(&ops, OpKind::Write);

    Ok(Indexes {
        ops,
        sorted_by_start,
        sorted_by_finish,
        writes_by_finish,
        reads,
        dictating,
        dictated,
        max_concurrent_writes,
    })
}

/// Sort key for one endpoint during re-ranking. `phase == 0` places a
/// shortened write finish immediately *below* the read finish it attaches
/// to; original endpoints use `phase == 1`.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct EndpointKey {
    time: Time,
    phase: u8,
    op: usize,
    is_finish: bool,
}

/// The old `normalize`: write shortening and re-ranking by one sort of
/// all `2n` endpoint keys.
fn reference_normalize(raw: &RawHistory, dictating: &[Option<usize>]) -> Vec<Operation> {
    let n = raw.ops.len();

    // Minimum finish among each write's dictated reads.
    let mut min_read_finish: Vec<Option<Time>> = vec![None; n];
    for (i, op) in raw.ops.iter().enumerate() {
        if let Some(w) = dictating[i] {
            let slot = &mut min_read_finish[w];
            *slot = Some(match *slot {
                Some(t) => t.min(op.finish),
                None => op.finish,
            });
        }
    }

    let mut keys: Vec<EndpointKey> = Vec::with_capacity(2 * n);
    for (i, op) in raw.ops.iter().enumerate() {
        keys.push(EndpointKey { time: op.start, phase: 1, op: i, is_finish: false });
        let finish_key = match min_read_finish[i] {
            // Shorten: park the finish just below the earliest dictated-read
            // finish. (Equality is impossible: endpoints are distinct.)
            Some(min_rf) if op.finish > min_rf => {
                EndpointKey { time: min_rf, phase: 0, op: i, is_finish: true }
            }
            _ => EndpointKey { time: op.finish, phase: 1, op: i, is_finish: true },
        };
        keys.push(finish_key);
    }

    keys.sort_unstable();

    let mut ops = raw.ops.clone();
    for (rank, key) in keys.iter().enumerate() {
        let op = &mut ops[key.op];
        if key.is_finish {
            op.finish = Time(rank as u64);
        } else {
            op.start = Time(rank as u64);
        }
    }
    ops
}

/// Maximum number of simultaneously active operations of the given kind,
/// by sweeping endpoints in time order.
fn max_concurrent(ops: &[Operation], kind: OpKind) -> usize {
    let mut events: Vec<(Time, i32)> = Vec::new();
    for op in ops {
        if op.kind == kind {
            events.push((op.start, 1));
            events.push((op.finish, -1));
        }
    }
    events.sort_unstable();
    let mut active = 0i32;
    let mut max = 0i32;
    for (_, delta) in events {
        active += delta;
        max = max.max(active);
    }
    max as usize
}

/// Builds `raw` both ways; they must agree on every index or on the
/// error. Returns `from_raw`'s result.
fn both_ways(raw: RawHistory) -> Result<Result<History, ValidationError>, TestCaseError> {
    let expected = reference(raw.clone());
    let actual = History::from_raw(raw);
    match (&actual, &expected) {
        (Ok(h), Ok(reference)) => prop_assert_eq!(&indexes(h), reference),
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        (a, b) => prop_assert!(
            false,
            "from_raw is_ok = {}, reference is_ok = {}",
            a.is_ok(),
            b.is_ok()
        ),
    }
    Ok(actual)
}

/// [`both_ways`] for the fixed cases below.
fn build(raw: RawHistory) -> Result<History, ValidationError> {
    both_ways(raw).unwrap_or_else(|e| panic!("{e:?}"))
}

/// The anomalies of an input both constructions reject.
fn anomalies(raw: RawHistory) -> Vec<Anomaly> {
    build(raw).expect_err("anomalous history").anomalies().to_vec()
}

/// Completely arbitrary operation soup — may contain every anomaly.
fn arb_soup() -> impl Strategy<Value = RawHistory> {
    prop::collection::vec(
        (any::<bool>(), 0u64..6, 0u64..120, 0u64..40, 0u32..4),
        0..25,
    )
    .prop_map(|ops| {
        ops.into_iter()
            .map(|(is_read, value, start, len, weight)| Operation {
                kind: if is_read { OpKind::Read } else { OpKind::Write },
                value: Value(value),
                start: Time(start),
                finish: Time(start + len), // len 0 => empty interval anomaly
                weight: Weight(weight),    // 0 => zero-weight anomaly
                client: 0,
            })
            .collect()
    })
}

/// Anomaly-free histories with short writes, weighted `1..max_weight`.
fn arb_clean(max_weight: u32) -> impl Strategy<Value = RawHistory> {
    let writes = prop::collection::vec((0u64..200, 1u64..50, 1..max_weight.max(2)), 1..12);
    let reads = prop::collection::vec((any::<prop::sample::Index>(), 0u64..80, 1u64..40), 0..16);
    (writes, reads).prop_map(|(writes, reads)| {
        let mut raw = RawHistory::new();
        for (i, &(s, l, weight)) in writes.iter().enumerate() {
            let value = Value(i as u64 + 1);
            raw.push(Operation::weighted_write(value, Time(s), Time(s + l), Weight(weight)));
        }
        for (which, off, l) in reads {
            let w = which.index(writes.len());
            let s = writes[w].0 + off;
            raw.push(Operation::read(Value(w as u64 + 1), Time(s), Time(s + l)));
        }
        raw.make_endpoints_distinct();
        raw
    })
}

/// Long, overlapping writes whose reads finish well inside them, so most
/// writes need shortening — often several below neighbouring reads.
fn arb_long_writes() -> impl Strategy<Value = RawHistory> {
    let writes = prop::collection::vec((0u64..100, 150u64..400), 1..8);
    let reads = prop::collection::vec((any::<prop::sample::Index>(), 1u64..60, 1u64..60), 0..20);
    (writes, reads).prop_map(|(writes, reads)| {
        let mut raw = RawHistory::new();
        for (i, &(s, l)) in writes.iter().enumerate() {
            raw.write(Value(i as u64 + 1), Time(s), Time(s + l));
        }
        for (which, off, l) in reads {
            let w = which.index(writes.len());
            let s = writes[w].0 + off;
            raw.read(Value(w as u64 + 1), Time(s), Time(s + l));
        }
        raw.make_endpoints_distinct();
        raw
    })
}

/// The segments per-key [`StreamBuilder`]s seal from a completion-ordered
/// `streaming_workload`, sealing as `OnlineVerifier` does at `window`,
/// then flushing each key's tail.
fn sealed_segments(keys: u64, ops_per_key: usize, seed: u64, window: usize) -> Vec<RawHistory> {
    let records = streaming_workload(StreamingWorkloadConfig {
        keys,
        ops_per_key,
        seed,
        ..Default::default()
    });
    let mut builders: Vec<StreamBuilder> = (0..keys).map(|_| StreamBuilder::new()).collect();
    let mut segments = Vec::new();
    for record in &records {
        let builder = &mut builders[record.key as usize];
        builder.push(record.op()).expect("generated records are well-formed");
        if builder.resident() > 2 * window {
            segments.extend(builder.try_seal(window));
        }
    }
    segments.extend(builders.iter_mut().map(StreamBuilder::flush));
    segments
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_raw_matches_reference_on_clean_histories(raw in arb_clean(2)) {
        both_ways(raw)?.expect("clean");
    }

    #[test]
    fn from_raw_matches_reference_on_weighted_writes(raw in arb_clean(9)) {
        both_ways(raw)?.expect("clean");
    }

    #[test]
    fn from_raw_matches_reference_on_long_writes(raw in arb_long_writes()) {
        both_ways(raw)?.expect("clean");
    }

    #[test]
    fn from_raw_matches_reference_on_sealed_segments(
        keys in 1u64..4,
        ops_per_key in 20usize..240,
        seed in 0u64..100_000,
        window in 4usize..48,
    ) {
        for segment in sealed_segments(keys, ops_per_key, seed, window) {
            both_ways(segment)?.expect("generated segments validate");
        }
    }

    #[test]
    fn from_raw_matches_reference_on_soup(raw in arb_soup()) {
        let _either = both_ways(raw)?;
    }
}

#[test]
fn empty_interval_is_reported() {
    let mut raw = RawHistory::new();
    raw.write(Value(1), Time(5), Time(5));
    // A zero-length interval's start and finish also coincide.
    assert_eq!(
        anomalies(raw),
        [
            Anomaly::EmptyInterval { op: OpId(0) },
            Anomaly::DuplicateEndpoint { time: Time(5), first: OpId(0), second: OpId(0) },
        ]
    );
}

#[test]
fn zero_weight_is_reported() {
    let mut raw = RawHistory::new();
    raw.push(Operation::weighted_write(Value(1), Time(0), Time(1), Weight(0)));
    assert_eq!(anomalies(raw), [Anomaly::ZeroWeight { op: OpId(0) }]);
}

#[test]
fn start_shared_with_a_start_is_reported() {
    let mut raw = RawHistory::new();
    raw.write(Value(1), Time(0), Time(4)).write(Value(2), Time(0), Time(6));
    assert_eq!(
        anomalies(raw),
        [Anomaly::DuplicateEndpoint { time: Time(0), first: OpId(0), second: OpId(1) }]
    );
}

#[test]
fn start_shared_with_another_finish_is_reported() {
    let mut raw = RawHistory::new();
    raw.write(Value(1), Time(0), Time(4)).read(Value(1), Time(4), Time(6));
    assert_eq!(
        anomalies(raw),
        [Anomaly::DuplicateEndpoint { time: Time(4), first: OpId(0), second: OpId(1) }]
    );
}

#[test]
fn finish_shared_with_a_finish_is_reported() {
    let mut raw = RawHistory::new();
    raw.write(Value(1), Time(0), Time(6)).write(Value(2), Time(2), Time(6));
    assert_eq!(
        anomalies(raw),
        [Anomaly::DuplicateEndpoint { time: Time(6), first: OpId(0), second: OpId(1) }]
    );
}

#[test]
fn duplicate_write_value_is_reported() {
    let mut raw = RawHistory::new();
    raw.write(Value(1), Time(0), Time(2)).write(Value(1), Time(3), Time(5));
    assert_eq!(
        anomalies(raw),
        [Anomaly::DuplicateWriteValue { value: Value(1), first: OpId(0), second: OpId(1) }]
    );
}

#[test]
fn missing_dictating_write_is_reported() {
    let mut raw = RawHistory::new();
    raw.write(Value(1), Time(0), Time(2)).read(Value(2), Time(3), Time(5));
    assert_eq!(
        anomalies(raw),
        [Anomaly::MissingDictatingWrite { read: OpId(1), value: Value(2) }]
    );
}

#[test]
fn read_preceding_its_write_is_reported() {
    let mut raw = RawHistory::new();
    raw.read(Value(1), Time(0), Time(2)).write(Value(1), Time(3), Time(5));
    assert_eq!(
        anomalies(raw),
        [Anomaly::ReadPrecedesDictatingWrite { read: OpId(0), write: OpId(1) }]
    );
}

#[test]
fn every_anomaly_is_reported_in_validate_order() {
    let mut raw = RawHistory::new();
    raw.write(Value(1), Time(0), Time(10))
        .write(Value(1), Time(10), Time(12)) // duplicate value and endpoint
        .read(Value(3), Time(20), Time(20)) // empty, and no write of v3
        .push(Operation::weighted_write(Value(4), Time(30), Time(31), Weight(0)));
    assert_eq!(anomalies(raw.clone()), raw.validate().anomalies());
}

#[test]
fn empty_history_builds() {
    let h = build(RawHistory::new()).unwrap();
    assert!(h.is_empty());
    assert_eq!(h.max_concurrent_writes(), 0);
}

#[test]
fn single_op_builds() {
    let mut raw = RawHistory::new();
    raw.write(Value(1), Time(7), Time(9));
    let h = build(raw).unwrap();
    assert_eq!((h.op(OpId(0)).start, h.op(OpId(0)).finish), (Time(0), Time(1)));
    assert_eq!(h.max_concurrent_writes(), 1);
    assert!(h.dictated_reads(OpId(0)).is_empty());
}

#[test]
fn writes_shorten_below_adjacent_read_finishes() {
    // Both writes span everything; their reads finish back to back, so the
    // two shortened finishes land in consecutive gaps: w1 r1 w2 r2.
    let mut raw = RawHistory::new();
    raw.write(Value(1), Time(0), Time(100))
        .write(Value(2), Time(1), Time(101))
        .read(Value(1), Time(2), Time(10))
        .read(Value(2), Time(3), Time(11));
    let h = build(raw).unwrap();
    let finish = |i| h.op(OpId(i)).finish;
    assert_eq!([finish(0), finish(2), finish(1), finish(3)], [4, 5, 6, 7].map(Time));
    assert_eq!(h.sorted_by_finish(), [0, 2, 1, 3].map(OpId));
    assert_eq!(h.writes_by_finish(), [OpId(0), OpId(1)]);
    assert_eq!(h.max_concurrent_writes(), 2);
}
