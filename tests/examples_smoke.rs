//! Smoke tests exercising each root example's core path at reduced scale.
//!
//! The examples themselves are wired into the `twin-search` package via
//! explicit `[[example]]` entries, so `cargo test` already *compiles* them;
//! these tests additionally *run* the same API sequences so a behavioural
//! regression (not just a compile break) in an example path fails CI.

use twin_search::{
    compare_chebyshev_euclidean, Engine, EngineConfig, LiveBackend, LiveEngine, Method,
    Normalization, QueryWorkload, SeriesStore,
};

/// Core path of `examples/quickstart.rs`: build a TS-Index engine over a
/// synthetic series and run a self-query that must find itself.
#[test]
fn quickstart_path() {
    let series = ts_data::generators::insect_like(ts_data::GeneratorConfig::new(2_000, 7));
    let len = 100;
    let engine =
        Engine::build(&series, EngineConfig::new(Method::TsIndex, len)).expect("series is valid");
    assert_eq!(
        engine.store().subsequence_count(len),
        series.len() - len + 1
    );
    let query = engine.store().read(500, len).expect("in bounds");
    let twins = engine.search(&query, 0.5).expect("query is valid");
    assert!(twins.contains(&500), "self-match must be in the result");
    assert!(engine.index_memory_bytes() > 0);
}

/// Core path of `examples/eeg_anomaly.rs`: the Chebyshev result set is a
/// subset of the no-false-negative Euclidean range query's result set.
#[test]
fn eeg_anomaly_path() {
    let series = ts_data::generators::eeg_like(ts_data::GeneratorConfig::new(6_000, 11));
    let len = 100;
    let epsilon = 0.3;
    let engine =
        Engine::build(&series, EngineConfig::new(Method::TsIndex, len)).expect("valid series");
    let store = engine.store();

    let query = store.read(store.len() / 2, len).expect("in bounds");
    let twins = engine.search(&query, epsilon).expect("valid query");

    let cmp = compare_chebyshev_euclidean(store, &query, epsilon).expect("valid query");
    assert_eq!(cmp.twin_count(), twins.len(), "engine and sweep must agree");
    assert!(
        cmp.twin_count() + cmp.false_positives().len() == cmp.euclidean_count(),
        "Euclidean matches split exactly into twins and false positives"
    );
}

/// Core path of `examples/traffic_patterns.rs`: per-subsequence normalisation
/// finds shape-similar windows regardless of amplitude.
#[test]
fn traffic_patterns_path() {
    // Two days of identical shape at very different amplitudes, plus noise-free
    // flat padding; per-subsequence z-normalisation must match them anyway.
    let day = 144;
    let mut series = Vec::with_capacity(4 * day);
    for amplitude in [1.0_f64, 50.0, 1.0, 50.0] {
        for s in 0..day {
            let hour = s as f64 * 24.0 / day as f64;
            let d = (hour - 8.0) / 1.2;
            series.push(amplitude * (-0.5 * d * d).exp() + 0.001 * (s as f64).sin());
        }
    }
    let window = 36;
    let config = EngineConfig::new(Method::TsIndex, window)
        .with_normalization(Normalization::PerSubsequence);
    let engine = Engine::build(&series, config).expect("valid series");
    let morning = 6 * day / 24;
    let query = engine.store().read(morning, window).expect("in bounds");
    let matches = engine.search(&query, 0.6).expect("valid query");
    // The same-shaped rush must be found on every day, big or small.
    for d in 0..4 {
        assert!(
            matches
                .iter()
                .any(|&p| (p as i64 - (d * day + morning) as i64).abs() <= 6),
            "day {d} morning rush not matched; matches = {matches:?}"
        );
    }
}

/// Core path of `examples/streaming_monitor.rs`: append a chunk, query,
/// repeat — and the incrementally grown engine matches a bulk build.
#[test]
fn streaming_monitor_path() {
    let stream = ts_data::generators::eeg_like(ts_data::GeneratorConfig::new(6_000, 99));
    let len = 100;
    let config = EngineConfig::new(Method::TsIndex, len).with_normalization(Normalization::None);
    let engine =
        LiveEngine::build(&stream[..1_500], config, LiveBackend::Memory).expect("valid prefix");
    let pattern = engine.read(400, len).expect("in bounds");

    let mut seen = engine.len();
    let mut last_count = 0usize;
    while seen < stream.len() {
        let end = (seen + 1_000).min(stream.len());
        (seen, _) = engine.append(&stream[seen..end]).expect("valid chunk");
        assert_eq!(seen, end, "the ack carries the post-append length");
        let count = engine.search(&pattern, 0.4).expect("valid query").len();
        assert!(count >= last_count, "matches only ever accumulate");
        last_count = count;
    }
    let stats = engine.ingest_stats();
    assert_eq!(stats.points_appended, stream.len() - 1_500);
    assert_eq!(stats.windows_indexed, stats.points_appended);

    let bulk = Engine::build(&stream, config).expect("valid stream");
    assert_eq!(
        engine.search(&pattern, 0.4).expect("valid query"),
        bulk.search(&pattern, 0.4).expect("valid query"),
        "live == bulk"
    );
}

/// Core path of `examples/index_comparison.rs`: every method, disk-backed,
/// returns the same counts on the same workload.
#[test]
fn index_comparison_path() {
    let series = ts_data::generators::insect_like(ts_data::GeneratorConfig::new(2_000, 42));
    let len = 100;
    let epsilon = 1.0;
    let queries = 3;

    let mut counts_per_method = Vec::new();
    for method in Method::ALL {
        let config = EngineConfig::new(method, len).with_disk_backing(true);
        let engine = Engine::build(&series, config).expect("valid series");
        let workload =
            QueryWorkload::sample(engine.store(), len, queries, 7, Normalization::WholeSeries)
                .expect("valid workload");
        let counts: Vec<usize> = workload
            .iter()
            .map(|q| engine.count(q, epsilon).expect("valid query"))
            .collect();
        counts_per_method.push((method.name(), counts));
    }
    let (first_name, first_counts) = &counts_per_method[0];
    for (name, counts) in &counts_per_method[1..] {
        assert_eq!(
            counts, first_counts,
            "{name} disagrees with {first_name} on disk-backed counts"
        );
    }
}
