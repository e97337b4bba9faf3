//! Criterion bench for Figure 5: query time vs subsequence length l at the
//! default ε, whole-series z-normalised data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ts_bench::{build_engines, generate, HarnessOptions};
use twin_search::{Dataset, Method, Normalization, ParameterGrid, QueryWorkload};

fn bench_fig5(c: &mut Criterion) {
    let options = HarnessOptions {
        scale: 32,
        queries: 5,
    };
    let normalization = Normalization::WholeSeries;
    // One dataset is enough for the bench; the binary sweeps both.
    let dataset = Dataset::Insect;
    let series = generate(dataset, &options);
    let epsilon = dataset.default_epsilon_normalized();

    let mut group = c.benchmark_group(format!("fig5_length/{}", dataset.name()));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &len in &ParameterGrid::SUBSEQUENCE_LENGTHS {
        let engines = build_engines(&series, &Method::ALL, len, normalization);
        let workload =
            QueryWorkload::sample(engines[0].store(), len, options.queries, 5, normalization)
                .expect("valid workload");
        for engine in &engines {
            group.bench_with_input(
                BenchmarkId::new(engine.method().name(), len),
                &len,
                |b, _| {
                    b.iter(|| {
                        let mut total = 0usize;
                        for query in workload.iter() {
                            total += engine.count(black_box(query), epsilon).unwrap();
                        }
                        black_box(total)
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
