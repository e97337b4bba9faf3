//! Ablation benches for the design choices called out in `DESIGN.md`
//! (extensions beyond the paper's figures):
//!
//! * **reordering early abandoning** — verification cost with and without the
//!   UCR-style reordering (§3.2);
//! * **bulk loading** — the TS-Index built by the top-down loader vs the
//!   paper's §5.2 tree grown window by window through `on_append`: build
//!   time and query time;
//! * **parallel query** — sequential Algorithm 1 vs the multi-threaded
//!   traversal;
//! * **batch scaling** — per-query sequential `Engine::search` vs
//!   `Engine::search_batch` fan-out and the parallel TS-Index traversal at
//!   1/2/4 threads on the Figure-4 workload;
//! * **shard scaling** — `ShardedEngine::search_batch_threads` over a
//!   1/2/4-shard × 1/2/4-thread grid (the `exp_scaling` binary emits the
//!   same grid as `BENCH_scaling.json`);
//! * **TS-Index node capacity** — query time across (µ_c, M_c) choices,
//!   justifying the paper's (10, 30) default.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ts_bench::{generate, HarnessOptions};
use twin_search::{
    Dataset, Engine, EngineConfig, InMemorySeries, MaintainableSearcher, Method, Normalization,
    QueryWorkload, SeriesStore, ShardedEngine, Sweepline, TsIndex, TsIndexConfig, TwinQuery,
};

fn options() -> HarnessOptions {
    HarnessOptions {
        scale: 32,
        queries: 5,
    }
}

fn prepared_store() -> InMemorySeries {
    let series = generate(Dataset::Insect, &options());
    InMemorySeries::new_znormalized(&series).unwrap()
}

fn bench_reordering(c: &mut Criterion) {
    let store = prepared_store();
    let len = 100;
    let eps = Dataset::Insect.default_epsilon_normalized();
    let workload = QueryWorkload::sample(&store, len, 3, 11, Normalization::WholeSeries).unwrap();

    let mut group = c.benchmark_group("ablation_reordering");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (name, sweep) in [
        ("reordered", Sweepline::new()),
        ("sequential", Sweepline::without_reordering()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut total = 0usize;
                for query in workload.iter() {
                    total += sweep.count(&store, black_box(query), eps).unwrap();
                }
                black_box(total)
            });
        });
    }
    group.finish();
}

/// The §5.2 tree: a one-window base grown by insertion over the rest.
fn grown_by_on_append(store: &InMemorySeries, config: TsIndexConfig) -> TsIndex {
    let first_window = store.read(0, config.subsequence_len).unwrap();
    let mut index = TsIndex::build(&InMemorySeries::new(first_window).unwrap(), config).unwrap();
    index.on_append(store).unwrap();
    index
}

fn bench_bulk_load(c: &mut Criterion) {
    let store = prepared_store();
    let len = 100;
    let config = TsIndexConfig::new(len).unwrap();

    let mut group = c.benchmark_group("ablation_bulk_load");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("grown_by_on_append", |b| {
        b.iter(|| black_box(grown_by_on_append(&store, config).indexed_count()));
    });
    group.bench_function("built", |b| {
        b.iter(|| black_box(TsIndex::build(&store, config).unwrap().indexed_count()));
    });
    group.finish();

    // Query-time effect of the different grouping.
    let grown = grown_by_on_append(&store, config);
    let built = TsIndex::build(&store, config).unwrap();
    let workload = QueryWorkload::sample(&store, len, 5, 12, Normalization::WholeSeries).unwrap();
    let eps = Dataset::Insect.default_epsilon_normalized();
    let mut group = c.benchmark_group("ablation_bulk_load_query");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (name, index) in [("grown_by_on_append", &grown), ("built", &built)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut total = 0usize;
                for query in workload.iter() {
                    total += index.search(&store, black_box(query), eps).unwrap().len();
                }
                black_box(total)
            });
        });
    }
    group.finish();
}

fn bench_parallel_query(c: &mut Criterion) {
    let store = prepared_store();
    let len = 100;
    let index = TsIndex::build(&store, TsIndexConfig::new(len).unwrap()).unwrap();
    let workload = QueryWorkload::sample(&store, len, 5, 13, Normalization::WholeSeries).unwrap();
    let eps = *Dataset::Insect.epsilons_normalized().last().unwrap();

    let mut group = c.benchmark_group("ablation_parallel_query");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| {
                let mut total = 0usize;
                for query in workload.iter() {
                    total += index
                        .search_parallel(&store, black_box(query), eps, t)
                        .unwrap()
                        .len();
                }
                black_box(total)
            });
        });
    }
    group.finish();
}

fn bench_batch_scaling(c: &mut Criterion) {
    // The Figure-4 setting: Insect-like data, l = 100, default epsilon,
    // whole-series z-normalisation, TS-Index.
    let series = generate(Dataset::Insect, &options());
    let len = 100;
    let eps = Dataset::Insect.default_epsilon_normalized();
    let engine = Engine::build(&series, EngineConfig::new(Method::TsIndex, len)).unwrap();
    let workload =
        QueryWorkload::sample(engine.store(), len, 8, 15, Normalization::WholeSeries).unwrap();
    let queries: Vec<TwinQuery> = workload
        .iter()
        .map(|q| TwinQuery::new(q.to_vec(), eps))
        .collect();

    let mut group = c.benchmark_group("ablation_batch_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // Baseline: one engine.search call per query, single-threaded.
    group.bench_function("sequential_search", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for query in workload.iter() {
                total += engine.search(black_box(query), eps).unwrap().len();
            }
            black_box(total)
        });
    });
    // Fan the whole workload out across 1/2/4 batch workers.
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("search_batch", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let outcomes = engine.search_batch_threads(black_box(&queries), t).unwrap();
                    black_box(outcomes.iter().map(|o| o.match_count).sum::<usize>())
                });
            },
        );
    }
    // One query at a time, parallel *inside* the TS-Index traversal.
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("parallel_traversal", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let mut total = 0usize;
                    for query in workload.iter() {
                        let q = TwinQuery::new(black_box(query).to_vec(), eps).parallel(t);
                        total += engine.execute(&q).unwrap().match_count;
                    }
                    black_box(total)
                });
            },
        );
    }
    group.finish();
}

fn bench_shard_scaling(c: &mut Criterion) {
    // The Figure-4 setting, sharded: one TS-Index per shard, the query
    // workload fanned out across (query, shard) pairs on the work-stealing
    // pool.  `exp_scaling` emits the same grid as BENCH_scaling.json.
    let series = generate(Dataset::Insect, &options());
    let len = 100;
    let eps = Dataset::Insect.default_epsilon_normalized();
    let workload = {
        let probe = Engine::build(&series, EngineConfig::new(Method::TsIndex, len)).unwrap();
        QueryWorkload::sample(probe.store(), len, 8, 16, Normalization::WholeSeries).unwrap()
    };
    let queries: Vec<TwinQuery> = workload
        .iter()
        .map(|q| TwinQuery::new(q.to_vec(), eps).count_only())
        .collect();

    let mut group = c.benchmark_group("ablation_shard_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for shards in [1usize, 2, 4] {
        let engine = ShardedEngine::build(
            &series,
            EngineConfig::new(Method::TsIndex, len).with_shards(shards),
        )
        .unwrap();
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("shards_{shards}"), threads),
                &threads,
                |b, &t| {
                    b.iter(|| {
                        let outcomes = engine.search_batch_threads(black_box(&queries), t).unwrap();
                        black_box(outcomes.iter().map(|o| o.match_count).sum::<usize>())
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_node_capacity(c: &mut Criterion) {
    let store = prepared_store();
    let len = 100;
    let eps = Dataset::Insect.default_epsilon_normalized();
    let workload = QueryWorkload::sample(&store, len, 5, 14, Normalization::WholeSeries).unwrap();

    let mut group = c.benchmark_group("ablation_node_capacity");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (min, max) in [(5usize, 10usize), (10, 30), (25, 60), (50, 120)] {
        let config = TsIndexConfig::new(len)
            .unwrap()
            .with_capacities(min, max)
            .unwrap();
        let index = TsIndex::build(&store, config).unwrap();
        group.bench_with_input(
            BenchmarkId::new("capacity", format!("{min}-{max}")),
            &index,
            |b, index| {
                b.iter(|| {
                    let mut total = 0usize;
                    for query in workload.iter() {
                        total += index.search(&store, black_box(query), eps).unwrap().len();
                    }
                    black_box(total)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_reordering,
    bench_bulk_load,
    bench_parallel_query,
    bench_batch_scaling,
    bench_shard_scaling,
    bench_node_capacity
);
criterion_main!(benches);
