//! Property tests at the verifier level: determinism, invariance under
//! order-preserving relabellings, workload-corpus agreement, and report
//! sanity. (The oracle-agreement battery lives in the workspace-level
//! `tests/cross_verifier_agreement.rs`.)

use kav_core::{
    check_witness, diagnose, staleness_upper_bound, CandidateOrder, Fzf, GkOneAv,
    Lbt, LbtConfig, SearchStrategy, Verdict, Verifier,
};
use kav_history::transform;
use kav_workloads::{ladder, random_k_atomic, staircase, zone_twins, RandomHistoryConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All verifiers are deterministic functions of the history.
    #[test]
    fn verifiers_are_deterministic(seed in 0u64..5000, ops in 5usize..60) {
        let h = random_k_atomic(RandomHistoryConfig {
            ops,
            k: 1 + seed % 3,
            seed,
            ..Default::default()
        });
        prop_assert_eq!(GkOneAv.verify(&h), GkOneAv.verify(&h));
        prop_assert_eq!(Fzf.verify(&h), Fzf.verify(&h));
        prop_assert_eq!(Lbt::new().verify(&h), Lbt::new().verify(&h));
    }

    /// Verdicts are invariant under shifting and dilating timestamps.
    #[test]
    fn verdicts_survive_affine_relabelling(
        seed in 0u64..2000,
        shift in 1u64..10_000,
        factor in 2u64..8,
    ) {
        let h = random_k_atomic(RandomHistoryConfig {
            ops: 40,
            k: 1 + seed % 3,
            seed,
            ..Default::default()
        });
        let relabelled = transform::shift(&transform::dilate(&h.to_raw(), factor), shift)
            .into_history()
            .expect("affine relabelling preserves validity");
        for (a, b) in [
            (GkOneAv.verify(&h), GkOneAv.verify(&relabelled)),
            (Fzf.verify(&h), Fzf.verify(&relabelled)),
            (Lbt::new().verify(&h), Lbt::new().verify(&relabelled)),
        ] {
            prop_assert_eq!(a.is_k_atomic(), b.is_k_atomic());
        }
    }

    /// The finish-order bound dominates the diagnosis staleness.
    #[test]
    fn diagnosis_is_internally_consistent(seed in 0u64..1000) {
        let h = random_k_atomic(RandomHistoryConfig {
            ops: 25,
            k: 1 + seed % 3,
            seed,
            read_fraction: 0.6,
            ..Default::default()
        });
        let d = diagnose(&h, Some(500_000));
        prop_assert!(d.staleness.lower_bound() >= 1);
        if let Some(exact) = d.staleness.exact() {
            prop_assert!(exact <= staleness_upper_bound(&h));
            prop_assert_eq!(exact == 1, d.atomicity_violation.is_none());
            prop_assert_eq!(exact <= 2, d.failing_chunk_writes.is_none());
        }
    }
}

/// A fixed corpus every verifier must agree on, with expected verdicts.
#[test]
fn corpus_agreement() {
    let lbt_configs: Vec<Lbt> = [
        (SearchStrategy::Naive, CandidateOrder::IncreasingFinish),
        (SearchStrategy::Naive, CandidateOrder::DecreasingFinish),
        (SearchStrategy::IterativeDeepening, CandidateOrder::IncreasingFinish),
        (SearchStrategy::IterativeDeepening, CandidateOrder::DecreasingFinish),
    ]
    .into_iter()
    .map(|(strategy, candidate_order)| {
        Lbt::with_config(LbtConfig { strategy, candidate_order })
    })
    .collect();

    let (twin_yes, twin_no) = zone_twins();
    let corpus: Vec<(kav_history::History, bool)> = vec![
        (ladder(1), true),
        (ladder(2), true),
        (ladder(3), false),
        (staircase(30), true),
        (kav_workloads::figure3(), false),
        (twin_yes, true),
        (twin_no, false),
        (kav_workloads::serial(50), true),
    ];

    for (i, (h, expected)) in corpus.iter().enumerate() {
        let fzf = Fzf.verify(h);
        assert_eq!(fzf.is_k_atomic(), *expected, "fzf on corpus[{i}]");
        if let Verdict::KAtomic { witness } = &fzf {
            check_witness(h, witness, 2).unwrap();
        }
        for lbt in &lbt_configs {
            let v = lbt.verify(h);
            assert_eq!(v.is_k_atomic(), *expected, "lbt {:?} on corpus[{i}]", lbt.config());
            if let Verdict::KAtomic { witness } = &v {
                check_witness(h, witness, 2).unwrap();
            }
        }
    }
}

/// LBT work counters respect their documented bounds on the corpus.
#[test]
fn lbt_reports_respect_bounds() {
    for (name, h) in [
        ("staircase", staircase(100)),
        (
            "random",
            random_k_atomic(RandomHistoryConfig { ops: 2_000, k: 2, seed: 1, ..Default::default() }),
        ),
    ] {
        let (verdict, report) = Lbt::new().verify_detailed(&h);
        assert!(verdict.is_k_atomic(), "{name}");
        assert!(
            report.max_candidate_set <= h.max_concurrent_writes(),
            "{name}: |C| = {} exceeds c = {}",
            report.max_candidate_set,
            h.max_concurrent_writes()
        );
        assert!(report.epochs <= h.num_writes(), "{name}: more epochs than writes");
        assert!(
            report.ops_removed as usize >= h.len(),
            "{name}: every op must be placed at least once"
        );
    }
}
