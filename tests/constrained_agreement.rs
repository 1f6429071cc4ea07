//! The gate for the constrained-search escalation tier: on every history
//! small enough for the exhaustive oracle to decide (≤ 128 ops), the
//! production [`ConstrainedSearch`] engine must agree with the oracle for
//! k ∈ 1..=5, its YES verdicts must carry independently checked
//! witnesses, and its node budget must degrade to `Inconclusive` only —
//! never flip a verdict. Past the oracle's ceiling, a regression case
//! pins the removed 128-op cliff, and a streaming case pins that GenK
//! certifies deep-stale streams at k ≥ 3 with no UNKNOWN segment.

use k_atomicity::history::{History, HistoryBuilder, Operation, RawHistory, Time, Value};
use k_atomicity::verify::{
    check_witness, ConstrainedSearch, ExhaustiveSearch, GenK, PipelineConfig, StreamPipeline,
    Verdict, Verifier, DEFAULT_GAP_BUDGET, MAX_SEARCH_OPS,
};
use k_atomicity::workloads::{deep_stale, deep_stale_stream, DeepStaleConfig};
use proptest::prelude::*;

/// Generates an arbitrary anomaly-free history, as in
/// `cross_verifier_agreement.rs`: up to 7 writes with random intervals and
/// up to 8 reads, each referencing some write and starting no earlier than
/// that write starts. Endpoint collisions are repaired toward concurrency.
fn arb_history() -> impl Strategy<Value = History> {
    let writes = prop::collection::vec((0u64..500, 1u64..80), 1..7);
    let reads = prop::collection::vec((any::<prop::sample::Index>(), 0u64..150, 1u64..60), 0..8);
    (writes, reads).prop_map(|(writes, reads)| {
        let mut raw = RawHistory::new();
        for (i, &(start, len)) in writes.iter().enumerate() {
            raw.push(Operation::write(
                Value(i as u64 + 1),
                Time(start),
                Time(start + len),
            ));
        }
        for (which, offset, len) in reads {
            let w = which.index(writes.len());
            let (wstart, _) = writes[w];
            let start = wstart + offset;
            raw.push(Operation::read(
                Value(w as u64 + 1),
                Time(start),
                Time(start + len),
            ));
        }
        raw.make_endpoints_distinct();
        raw.into_history().expect("constructed histories are anomaly-free")
    })
}

fn checked(history: &History, verdict: &Verdict, k: u64, who: &str) -> bool {
    match verdict {
        Verdict::KAtomic { witness } => {
            check_witness(history, witness, k)
                .unwrap_or_else(|e| panic!("{who} produced a bad witness: {e}"));
            true
        }
        Verdict::NotKAtomic => false,
        Verdict::Inconclusive => panic!("{who} must be decisive here"),
        Verdict::Consistent => panic!("{who} must carry a witness, not a bare Consistent"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random histories: the constrained engine and the oracle are two
    /// structurally different exact searches; they must never disagree.
    #[test]
    fn constrained_matches_oracle_on_random_histories(h in arb_history()) {
        for k in 1..=5u64 {
            let got = checked(&h, &ConstrainedSearch::new(k).verify(&h), k, "constrained");
            let oracle = checked(&h, &ExhaustiveSearch::new(k).verify(&h), k, "oracle");
            prop_assert_eq!(got, oracle, "constrained disagrees at k = {}", k);
        }
    }

    /// Deep-stale workloads (true staleness forced to k) around the cliff
    /// — the shapes genk actually escalates in production.
    #[test]
    fn constrained_matches_oracle_on_deep_stale_histories(
        seed in 0u64..500,
        k in 1u64..=5,
    ) {
        let h = deep_stale(DeepStaleConfig {
            ops_per_key: 20,
            k,
            gadget_every: 8,
            seed,
            ..Default::default()
        });
        prop_assert!(h.len() <= MAX_SEARCH_OPS, "oracle must stay exact");
        for probe in [k.saturating_sub(1).max(1), k, k + 1] {
            let got =
                checked(&h, &ConstrainedSearch::new(probe).verify(&h), probe, "constrained");
            let oracle =
                checked(&h, &ExhaustiveSearch::new(probe).verify(&h), probe, "oracle");
            prop_assert_eq!(got, oracle, "k = {}, probe = {}", k, probe);
        }
    }

    /// A node budget only ever degrades the answer to `Inconclusive`; a
    /// budgeted run that *does* decide must match the unbounded one.
    #[test]
    fn budget_never_flips_a_verdict(h in arb_history(), budget in 0u64..200, k in 1u64..=4) {
        let exact = ConstrainedSearch::new(k).verify(&h).is_k_atomic();
        match ConstrainedSearch::with_node_budget(k, budget).verify(&h) {
            Verdict::KAtomic { witness } => {
                check_witness(&h, &witness, k)
                    .unwrap_or_else(|e| panic!("budgeted run produced a bad witness: {e}"));
                prop_assert!(exact, "budgeted YES contradicts the unbounded search");
            }
            Verdict::NotKAtomic => prop_assert!(!exact, "budgeted NO contradicts"),
            Verdict::Inconclusive => {} // the only permitted degradation
            Verdict::Consistent => {
                panic!("budgeted run must carry a witness, not a bare Consistent")
            }
        }
    }
}

/// Regression for the removed op-count cliff: a >128-op history must be
/// decided (both YES and NO sides) by the constrained engine under a
/// generous finite budget, where the oracle can only shrug.
#[test]
fn decides_above_the_oracle_ceiling() {
    // The straddling gadget (true k = 4) plus 97 serial write/read pairs:
    // 201 ops in one segment.
    let mut b = HistoryBuilder::new()
        .write(1, 0, 100)
        .write(2, 2, 102)
        .write(3, 4, 104)
        .write(4, 110, 120)
        .read(1, 122, 130)
        .read(3, 132, 140)
        .read(2, 142, 150);
    let mut t = 1000u64;
    for v in 10..107u64 {
        b = b.write(v, t, t + 5).read(v, t + 10, t + 15);
        t += 20;
    }
    let h = b.build().unwrap();
    assert!(h.len() > MAX_SEARCH_OPS);
    assert_eq!(
        ExhaustiveSearch::new(4).verify(&h),
        Verdict::Inconclusive,
        "the oracle's ceiling is the point of this test"
    );

    let generous = 10_000_000;
    let no = ConstrainedSearch::with_node_budget(3, generous).verify(&h);
    assert_eq!(no, Verdict::NotKAtomic);
    let yes = ConstrainedSearch::with_node_budget(4, generous).verify(&h);
    let Verdict::KAtomic { witness } = yes else {
        panic!("201-op segment must certify at k = 4, got {yes:?}");
    };
    check_witness(&h, &witness, 4).expect("witness must check");
}

/// Shape of the deep-stale streams below: 32 registers of ~1000 ops,
/// under a second in a debug build.
const KEYS: u64 = 32;
const OPS_PER_KEY: usize = 1000;

/// The open case of the paper (k ≥ 3, no known polynomial algorithm):
/// streamed deep-stale workloads, whose true staleness is exactly k, must
/// be certified on every key with zero UNKNOWN segments. The budget-1 run
/// pins that GenK's bound sandwich closes these shapes on its own: a
/// one-node escalation decides nothing, so every segment's witness upper
/// bound must already meet k.
#[test]
fn genk_certifies_deep_stale_streams_with_no_unknown() {
    for k in [3u64, 4, 5] {
        let records = deep_stale_stream(DeepStaleConfig {
            keys: KEYS,
            ops_per_key: OPS_PER_KEY,
            k,
            seed: 11,
            ..Default::default()
        });
        for budget in [Some(DEFAULT_GAP_BUDGET), Some(1)] {
            let config =
                PipelineConfig { shards: 4, window: 64, batch: 256, ..Default::default() };
            let mut pipeline = StreamPipeline::new(GenK::with_gap_budget(k, budget), config);
            for record in &records {
                pipeline.push(record.key, record.op());
            }
            let output = pipeline.finish();
            let at = format!("k = {k}, gap budget {budget:?}");
            assert!(output.errors.is_empty(), "{at}: key errors {:?}", output.errors);
            assert_eq!(output.keys.len(), KEYS as usize, "{at}: a key is missing");
            for (key, report) in &output.keys {
                assert_eq!(report.inconclusive, 0, "{at}: key {key} has UNKNOWN segments");
                assert_eq!(report.k_atomic(), Some(true), "{at}: key {key} is not YES");
            }
        }
    }
}
