//! Criterion benches for the verification algorithms (EXPERIMENTS.md
//! E2–E5, E9): LBT and FZF scaling on practical and adversarial inputs,
//! the GK 1-AV baseline, and general-k verification (GenK against a
//! budgeted exhaustive search) on deep-stale inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kav_core::{
    CandidateOrder, ExhaustiveSearch, Fzf, GenK, GkOneAv, Lbt, LbtConfig, OnlineVerifier,
    Verifier,
};
use kav_history::Operation;
use kav_workloads::{deep_stale, random_k_atomic, staircase, DeepStaleConfig, RandomHistoryConfig};

fn practical(ops: usize) -> kav_history::History {
    random_k_atomic(RandomHistoryConfig {
        ops,
        k: 2,
        spread: 3,
        seed: 42,
        ..Default::default()
    })
}

/// E2: LBT on practical histories (small c) — expected quasilinear.
fn bench_lbt_practical(c: &mut Criterion) {
    let mut group = c.benchmark_group("lbt_practical");
    group.sample_size(10);
    for ops in [1_000, 4_000, 16_000] {
        let h = practical(ops);
        group.bench_with_input(BenchmarkId::from_parameter(ops), &h, |b, h| {
            b.iter(|| {
                assert!(Lbt::new().verify(h).is_k_atomic());
            })
        });
    }
    group.finish();
}

/// E3: LBT on the adversarial staircase — quadratic for the default
/// (increasing-finish) candidate order.
fn bench_lbt_staircase(c: &mut Criterion) {
    let mut group = c.benchmark_group("lbt_staircase");
    group.sample_size(10);
    for steps in [250, 500, 1_000] {
        let h = staircase(steps);
        group.bench_with_input(BenchmarkId::new("increasing", steps), &h, |b, h| {
            b.iter(|| assert!(Lbt::new().verify(h).is_k_atomic()))
        });
        let dec = Lbt::with_config(LbtConfig {
            candidate_order: CandidateOrder::DecreasingFinish,
            ..LbtConfig::default()
        });
        group.bench_with_input(BenchmarkId::new("decreasing", steps), &h, |b, h| {
            b.iter(|| assert!(dec.verify(h).is_k_atomic()))
        });
    }
    group.finish();
}

/// E4: FZF on both input families — quasilinear everywhere (Theorem 4.6).
fn bench_fzf(c: &mut Criterion) {
    let mut group = c.benchmark_group("fzf");
    group.sample_size(10);
    for ops in [1_000, 4_000, 16_000] {
        let h = practical(ops);
        group.bench_with_input(BenchmarkId::new("practical", ops), &h, |b, h| {
            b.iter(|| assert!(Fzf.verify(h).is_k_atomic()))
        });
    }
    for steps in [500, 2_000, 8_000] {
        let h = staircase(steps);
        group.bench_with_input(BenchmarkId::new("staircase", steps), &h, |b, h| {
            b.iter(|| assert!(Fzf.verify(h).is_k_atomic()))
        });
    }
    group.finish();
}

/// E9: the GK 1-AV zone test as the solved-baseline comparison.
fn bench_gk(c: &mut Criterion) {
    let mut group = c.benchmark_group("gk_one_av");
    group.sample_size(10);
    for ops in [1_000, 4_000, 16_000] {
        let h = random_k_atomic(RandomHistoryConfig {
            ops,
            k: 1,
            spread: 2,
            seed: 11,
            ..Default::default()
        });
        group.bench_with_input(BenchmarkId::from_parameter(ops), &h, |b, h| {
            b.iter(|| assert!(GkOneAv.verify(h).is_k_atomic()))
        });
    }
    group.finish();
}

/// Streams `ops` through a 64-op sliding window of `verifier` and returns
/// the number of UNKNOWN segments. The window keeps every sealed segment
/// within `MAX_SEARCH_OPS`, so the search rows measure search effort, not
/// instant give-ups.
fn windowed(verifier: impl Verifier, ops: &[Operation]) -> usize {
    let mut online = OnlineVerifier::new(verifier, 64);
    for op in ops {
        online.push(*op).expect("deep-stale ops arrive in completion order");
    }
    online.freeze().expect("deep-stale streams are anomaly-free").inconclusive
}

/// General k: GenK's bound sandwich against a node-budgeted exhaustive
/// search on the same windows of a deep-stale register (true staleness
/// exactly k). GenK's edge over the search is the bound gap it never has
/// to search.
fn bench_genk_deep_stale(c: &mut Criterion) {
    let mut group = c.benchmark_group("genk_deep_stale");
    group.sample_size(10);
    for k in [2u64, 3, 4] {
        let history = deep_stale(DeepStaleConfig { k, ops_per_key: 250, ..Default::default() });
        let mut ops = history.ops().to_vec();
        ops.sort_by_key(|op| op.finish);
        group.bench_with_input(BenchmarkId::new("genk", k), &ops, |b, ops| {
            b.iter(|| assert_eq!(windowed(GenK::new(k), ops), 0))
        });
        group.bench_with_input(BenchmarkId::new("search", k), &ops, |b, ops| {
            b.iter(|| windowed(ExhaustiveSearch::with_node_budget(k, 20_000), ops))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lbt_practical,
    bench_lbt_staircase,
    bench_fzf,
    bench_gk,
    bench_genk_deep_stale
);
criterion_main!(benches);
