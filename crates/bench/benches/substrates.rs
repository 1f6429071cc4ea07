//! Criterion benches for the substrates: history validation and
//! normalisation, zone/chunk computation, the quorum simulator, the exact
//! search oracle, and bin packing (EXPERIMENTS.md E6–E8 support).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kav_core::ExhaustiveSearch;
use kav_core::Verifier;
use kav_history::stream::StreamBuilder;
use kav_history::{chunk_set, clusters, zones, HistoryStats, RawHistory};
use kav_sim::{SimConfig, Simulation};
use kav_weighted::{reduce_bin_packing, BinPacking};
use kav_workloads::{
    ladder, random_k_atomic, streaming_workload, RandomHistoryConfig, StreamingWorkloadConfig,
};

/// The first segment a `StreamBuilder` seals at the default window (1024)
/// from one key of a `streaming_workload`: completion-ordered, ~1k ops,
/// the shape `kav stream` builds a `History` from on every seal.
fn sealed_segment() -> RawHistory {
    const WINDOW: usize = 1024;
    let records = streaming_workload(StreamingWorkloadConfig {
        keys: 1,
        ops_per_key: 4 * WINDOW,
        seed: 5,
        ..Default::default()
    });
    let mut builder = StreamBuilder::new();
    for record in &records {
        builder.push(record.op()).expect("generated records are well-formed");
        if builder.resident() > 2 * WINDOW {
            if let Some(segment) = builder.try_seal(WINDOW) {
                return segment;
            }
        }
    }
    panic!("four windows of ops seal a segment")
}

fn bench_history_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("history_pipeline");
    group.sample_size(10);
    for ops in [1_000, 8_000] {
        let raw = random_k_atomic(RandomHistoryConfig { ops, seed: 5, ..Default::default() })
            .to_raw();
        group.bench_with_input(BenchmarkId::new("validate_index", ops), &raw, |b, raw| {
            b.iter(|| raw.clone().into_history().unwrap())
        });
        let history = raw.clone().into_history().unwrap();
        group.bench_with_input(BenchmarkId::new("zones_chunks", ops), &history, |b, h| {
            b.iter(|| {
                let cs = clusters(h);
                let zs = zones(h, &cs);
                chunk_set(&zs)
            })
        });
        group.bench_with_input(BenchmarkId::new("stats", ops), &history, |b, h| {
            b.iter(|| HistoryStats::of(h))
        });
    }
    let segment = sealed_segment();
    group.bench_with_input(
        BenchmarkId::new("validate_index", format!("sealed_segment_{}", segment.len())),
        &segment,
        |b, raw| b.iter(|| raw.clone().into_history().unwrap()),
    );
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    for ops in [500, 2_000] {
        let config = SimConfig { clients: 8, ops_per_client: ops / 8, seed: 1, ..Default::default() };
        group.bench_with_input(BenchmarkId::from_parameter(ops), &config, |b, cfg| {
            b.iter(|| Simulation::new(*cfg).unwrap().run())
        });
    }
    group.finish();
}

/// E7 shape: the exact oracle explodes exponentially with ladder height
/// plus concurrent decoys, while polynomial 2-AV stays flat.
fn bench_search_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_oracle");
    group.sample_size(10);
    for k in [3, 5, 7] {
        let h = ladder(k);
        group.bench_with_input(BenchmarkId::new("ladder_exact_k", k), &h, |b, h| {
            b.iter(|| assert!(ExhaustiveSearch::new(k).verify(h).is_k_atomic()))
        });
    }
    group.finish();
}

fn bench_binpacking(c: &mut Criterion) {
    let mut group = c.benchmark_group("binpacking");
    group.sample_size(10);
    for items in [6, 9] {
        let bp = BinPacking::random(items, 3, 8, 7);
        group.bench_with_input(BenchmarkId::new("exact", items), &bp, |b, bp| {
            b.iter(|| bp.solve_exact())
        });
        group.bench_with_input(BenchmarkId::new("reduce", items), &bp, |b, bp| {
            b.iter(|| reduce_bin_packing(bp))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_history_pipeline,
    bench_simulator,
    bench_search_oracle,
    bench_binpacking
);
criterion_main!(benches);
