//! Criterion bench for Figure 6: query time vs ε when every subsequence is
//! z-normalised individually (iSAX vs TS-Index; KV-Index is inapplicable).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ts_bench::{build_engines, generate, HarnessOptions};
use twin_search::{Dataset, Method, Normalization, QueryWorkload};

fn bench_fig6(c: &mut Criterion) {
    let options = HarnessOptions {
        scale: 32,
        queries: 5,
    };
    let normalization = Normalization::PerSubsequence;
    let len = 100;
    let methods = [Method::Isax, Method::TsIndex];

    for dataset in Dataset::ALL {
        let series = generate(dataset, &options);
        let engines = build_engines(&series, &methods, len, normalization);
        let workload =
            QueryWorkload::sample(engines[0].store(), len, options.queries, 6, normalization)
                .expect("valid workload");

        let mut group = c.benchmark_group(format!("fig6_znorm_subsequence/{}", dataset.name()));
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(500));
        group.measurement_time(std::time::Duration::from_secs(2));
        for &epsilon in &[
            dataset.epsilons_normalized()[0],
            dataset.default_epsilon_normalized(),
            *dataset.epsilons_normalized().last().unwrap(),
        ] {
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
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
