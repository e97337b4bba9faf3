//! Criterion bench for Figure 7: query time vs ε on raw (non-normalised)
//! values, all four methods.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ts_bench::{build_engines, generate, HarnessOptions};
use twin_search::{Dataset, Method, Normalization, QueryWorkload};

fn bench_fig7(c: &mut Criterion) {
    let options = HarnessOptions {
        scale: 32,
        queries: 5,
    };
    let normalization = Normalization::None;
    let len = 100;
    // One dataset keeps the sweep short; the binary covers both.
    let dataset = Dataset::Eeg;
    let series = generate(dataset, &options);
    let engines = build_engines(&series, &Method::ALL, len, normalization);
    let workload =
        QueryWorkload::sample(engines[0].store(), len, options.queries, 7, normalization)
            .expect("valid workload");

    let mut group = c.benchmark_group(format!("fig7_raw/{}", dataset.name()));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    // Raw-value thresholds of Table 1 are calibrated to the real data's value
    // range; use thresholds proportional to the synthetic data's spread so
    // the bench exercises both selective and permissive queries.
    for &epsilon in &[0.5_f64, 2.0, 5.0] {
        for engine in &engines {
            group.bench_with_input(
                BenchmarkId::new(engine.method().name(), epsilon),
                &epsilon,
                |b, &eps| {
                    b.iter(|| {
                        let mut total = 0usize;
                        for query in workload.iter() {
                            total += engine.count(black_box(query), eps).unwrap();
                        }
                        black_box(total)
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
