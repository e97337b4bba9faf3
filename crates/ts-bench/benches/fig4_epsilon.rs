//! Criterion bench for Figure 4: query time vs ε on whole-series z-normalised
//! data, all four methods, both (scaled-down) datasets.
//!
//! The reporting binary `exp_fig4` prints the full paper-style table; this
//! bench gives statistically robust per-method timings for the default and
//! extreme ε of Table 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ts_bench::{build_engines, generate, HarnessOptions};
use twin_search::{Dataset, Method, Normalization, QueryWorkload};

/// Keep bench datasets small so a full `cargo bench` stays in minutes.
fn bench_options() -> HarnessOptions {
    HarnessOptions {
        scale: 32,
        queries: 5,
    }
}

fn bench_fig4(c: &mut Criterion) {
    let options = bench_options();
    let normalization = Normalization::WholeSeries;
    let len = 100;

    for dataset in Dataset::ALL {
        let series = generate(dataset, &options);
        let engines = build_engines(&series, &Method::ALL, len, normalization);
        let workload =
            QueryWorkload::sample(engines[0].store(), len, options.queries, 4, normalization)
                .expect("valid workload");

        let mut group = c.benchmark_group(format!("fig4_epsilon/{}", dataset.name()));
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

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
