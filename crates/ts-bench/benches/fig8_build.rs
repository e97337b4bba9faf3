//! Criterion bench for Figure 8b: index construction time per method.
//! (Figure 8a — memory footprint — is not a timing quantity; the reporting
//! binary `exp_fig8` prints it alongside these build times.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ts_bench::{generate, HarnessOptions};
use twin_search::{Dataset, Engine, EngineConfig, Method, Normalization};

fn bench_fig8_build(c: &mut Criterion) {
    let options = HarnessOptions {
        scale: 64,
        queries: 1,
    };
    let len = 100;

    for dataset in Dataset::ALL {
        let series = generate(dataset, &options);
        let mut group = c.benchmark_group(format!("fig8_build/{}", dataset.name()));
        group.sample_size(10);
        for method in Method::INDEXED {
            group.bench_with_input(
                BenchmarkId::new(method.name(), series.len()),
                &series,
                |b, series| {
                    b.iter(|| {
                        let config = EngineConfig::new(method, len)
                            .with_normalization(Normalization::WholeSeries);
                        let engine = Engine::build(black_box(series), config).unwrap();
                        black_box(engine.index_memory_bytes())
                    });
                },
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_fig8_build);
criterion_main!(benches);
