//! Streaming monitor: ingest a live stream chunk by chunk while repeatedly
//! querying for a reference pattern — the append-a-chunk / query / repeat
//! loop a long-lived monitoring service runs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example streaming_monitor
//! ```

use twin_search::{
    Engine, EngineConfig, LiveBackend, LiveEngine, Method, Normalization, TwinQuery,
};

fn main() {
    // 1. The "stream": an EEG-like trace.  A real deployment would read
    //    these values from a device or socket; here the whole signal exists
    //    up front and is replayed in chunks.
    let stream = ts_data::generators::eeg_like(ts_data::GeneratorConfig::new(30_000, 99));
    let subsequence_len = 100;
    let chunk_size = 2_000;

    // 2. Build a live engine over the first stretch of the stream.  Live
    //    engines index raw values (normalisation regimes that depend on the
    //    whole series cannot be maintained under appends).
    let initial = &stream[..4_000];
    let config =
        EngineConfig::new(Method::TsIndex, subsequence_len).with_normalization(Normalization::None);
    let engine =
        LiveEngine::build(initial, config, LiveBackend::Memory).expect("stream prefix is valid");

    // 3. The pattern to monitor for: a window of the initial data (any
    //    `Vec<f64>` of the right length works, e.g. a known seizure motif).
    let pattern = engine.read(1_200, subsequence_len).expect("in bounds");
    let epsilon = 0.4;
    let query = TwinQuery::new(pattern.clone(), epsilon);
    println!(
        "monitoring a {subsequence_len}-point pattern (epsilon = {epsilon}) \
         over a stream of {} points\n",
        stream.len()
    );

    // 4. The monitoring loop: append a chunk, query, repeat.  Every append
    //    indexes exactly the windows the chunk completed, so each query sees
    //    the stream as ingested so far.
    let mut seen = engine.len();
    while seen < stream.len() {
        let end = (seen + chunk_size).min(stream.len());
        (seen, _) = engine.append(&stream[seen..end]).expect("chunk is valid");
        let outcome = engine.execute(&query).expect("query is valid");
        println!(
            "ingested {:>6} / {} points | {:>3} matches | query took {:?}",
            seen,
            stream.len(),
            outcome.match_count,
            outcome.query_time
        );
    }

    // 5. Ingestion accounting: how much time went into storing values vs
    //    maintaining the index, and the sustained append throughput.
    let stats = engine.ingest_stats();
    println!(
        "\ningested {} points in {} appends ({} windows indexed)",
        stats.points_appended, stats.append_calls, stats.windows_indexed
    );
    println!(
        "store {:?}, index maintenance {:?} ({:.0} points/s)",
        stats.store_time,
        stats.maintain_time,
        stats.append_points_per_sec()
    );

    // 6. Sanity check a service would not need: the incrementally grown
    //    engine answers exactly like an index bulk-built over everything.
    let bulk = Engine::build(&stream, config).expect("stream is valid");
    let live_hits = engine.search(&pattern, epsilon).expect("query is valid");
    let bulk_hits = bulk.search(&pattern, epsilon).expect("query is valid");
    assert_eq!(live_hits, bulk_hits);
    println!(
        "\nlive == bulk: {} matches either way — appends lost nothing",
        live_hits.len()
    );
}
