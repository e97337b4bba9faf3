//! Integration tests for the public `Engine` API: workloads, statistics,
//! extensions (top-k, parallel query, bulk load) and the paper's qualitative
//! claims at a small scale.

use ts_data::generators::{eeg_like, insect_like, GeneratorConfig};
use twin_search::{
    Engine, EngineConfig, Method, Normalization, ParameterGrid, QueryWorkload, SeriesStore,
    TwinQuery,
};

#[test]
fn workload_protocol_runs_for_every_method() {
    let values = insect_like(GeneratorConfig::new(2_500, 300));
    let len = 100;
    for method in Method::ALL {
        let engine = Engine::build(
            &values,
            EngineConfig::new(method, len)
                .with_isax_leaf_capacity(64)
                .with_tsindex_capacities(4, 12),
        )
        .unwrap();
        let workload =
            QueryWorkload::sample(engine.store(), len, 10, 7, Normalization::WholeSeries).unwrap();
        assert_eq!(workload.count(), 10);
        let mut total = 0usize;
        for query in workload.iter() {
            total += engine.count(query, 1.0).unwrap();
        }
        // Every query matches at least itself.
        assert!(total >= workload.count(), "{method}");
    }
}

#[test]
fn tsindex_pruning_beats_isax_and_kv_on_candidates() {
    // The paper's performance argument (§6.2): TS-Index generates far fewer
    // false positives than the adapted indices.  Timing is machine-dependent,
    // but the candidate counts that drive it are not.
    let values = eeg_like(GeneratorConfig::new(5_000, 12));
    let len = 100;
    let eps = 0.3;

    let ts_engine = Engine::build(
        &values,
        EngineConfig::new(Method::TsIndex, len).with_tsindex_capacities(10, 30),
    )
    .unwrap();
    let store = ts_engine.store();
    let query = store.read(2_345, len).unwrap();

    let stats_query = TwinQuery::new(query, eps).collect_stats();
    let ts = ts_engine
        .ts_index()
        .unwrap()
        .execute(store, &stats_query)
        .unwrap();

    let kv = twin_search::KvIndex::build(store, twin_search::KvIndexConfig::new(len))
        .unwrap()
        .execute(store, &stats_query)
        .unwrap();

    let isax = twin_search::IsaxIndex::build(
        store,
        twin_search::IsaxConfig::for_normalized(len)
            .unwrap()
            .with_leaf_capacity(256),
    )
    .unwrap()
    .execute(store, &stats_query)
    .unwrap();

    let candidates = |outcome: &twin_search::SearchOutcome| {
        outcome.stats.expect("stats requested").candidates_generated
    };
    assert_eq!(ts.match_count, kv.match_count);
    assert_eq!(ts.match_count, isax.match_count);
    assert!(
        candidates(&ts) <= candidates(&kv),
        "TS-Index candidates ({}) should not exceed KV-Index candidates ({})",
        candidates(&ts),
        candidates(&kv)
    );
    assert!(
        candidates(&ts) <= candidates(&isax),
        "TS-Index candidates ({}) should not exceed iSAX candidates ({})",
        candidates(&ts),
        candidates(&isax)
    );
}

#[test]
fn chebyshev_result_sets_are_much_smaller_than_euclidean_threshold_sets() {
    // Scaled-down version of the introduction's experiment.
    let values = eeg_like(GeneratorConfig::new(4_000, 31));
    let engine = Engine::build(&values, EngineConfig::new(Method::Sweepline, 100)).unwrap();
    let store = engine.store();
    let query = store.read(1_500, 100).unwrap();
    let cmp = twin_search::compare_chebyshev_euclidean(store, &query, 0.3).unwrap();
    assert!(cmp.twin_count() >= 1);
    assert!(
        cmp.euclidean_count() >= cmp.twin_count(),
        "Euclidean threshold search must be a superset"
    );
}

#[test]
fn paper_parameter_grids_are_exposed() {
    assert_eq!(ParameterGrid::SUBSEQUENCE_LENGTHS.len(), 5);
    assert_eq!(ParameterGrid::SEGMENT_COUNTS.len(), 5);
    assert_eq!(ParameterGrid::QUERIES_PER_WORKLOAD, 100);
    for dataset in twin_search::Dataset::ALL {
        assert_eq!(dataset.epsilons_normalized().len(), 5);
        assert_eq!(dataset.epsilons_raw().len(), 5);
    }
}

#[test]
fn extensions_are_consistent_with_the_baseline_search() {
    let values = insect_like(GeneratorConfig::new(3_000, 88));
    let len = 100;
    let engine = Engine::build(
        &values,
        EngineConfig::new(Method::TsIndex, len).with_tsindex_capacities(4, 12),
    )
    .unwrap();
    let store = engine.store();
    let index = engine.ts_index().unwrap();
    let query = store.read(1_000, len).unwrap();

    let sequential = index.search(store, &query, 0.8).unwrap();
    let parallel = index.search_parallel(store, &query, 0.8, 4).unwrap();
    assert_eq!(sequential, parallel);

    // Top-k distances bound the threshold results: if the k-th best distance
    // is d, then a search with epsilon = d returns at least k results.
    let top = index.top_k(store, &query, 5).unwrap();
    assert_eq!(top.len(), 5);
    let eps = top.last().unwrap().distance;
    let at_eps = index.search(store, &query, eps).unwrap();
    assert!(at_eps.len() >= 5);
    // And every top-k member is in that result set.
    for m in &top {
        assert!(at_eps.contains(&m.position));
    }
}

#[test]
fn query_outcome_api_is_uniform_across_methods() {
    // Every method answers through TwinSearcher::execute: same positions,
    // consistent stats, and the options compose identically.
    let values = insect_like(GeneratorConfig::new(3_000, 51));
    let len = 100;
    let engines: Vec<Engine> = Method::ALL
        .iter()
        .map(|&m| {
            Engine::build(
                &values,
                EngineConfig::new(m, len)
                    .with_isax_leaf_capacity(64)
                    .with_tsindex_capacities(4, 12),
            )
            .unwrap()
        })
        .collect();
    let query_values = engines[0].store().read(800, len).unwrap();
    let expected = engines[0].search(&query_values, 0.6).unwrap();
    assert!(!expected.is_empty());

    for engine in &engines {
        let outcome = engine
            .execute(&TwinQuery::new(query_values.clone(), 0.6).collect_stats())
            .unwrap();
        assert_eq!(outcome.positions, expected, "{}", engine.method());
        assert_eq!(outcome.method, engine.method().name());
        assert!(outcome.stats_consistent(), "{}", engine.method());

        // limit caps to the smallest matching positions for every method.
        let cap = expected.len().min(2);
        let limited = engine
            .execute(&TwinQuery::new(query_values.clone(), 0.6).limit(cap))
            .unwrap();
        assert_eq!(limited.positions, expected[..cap], "{}", engine.method());

        // count_only carries the count without positions.
        let counted = engine
            .execute(&TwinQuery::new(query_values.clone(), 0.6).count_only())
            .unwrap();
        assert!(counted.positions.is_empty());
        assert_eq!(counted.match_count, expected.len(), "{}", engine.method());

        // Batch execution matches, in query order.
        let batch_queries: Vec<TwinQuery> = [200usize, 800, 1_500]
            .iter()
            .map(|&p| TwinQuery::new(engine.store().read(p, len).unwrap(), 0.6))
            .collect();
        let outcomes = engine.search_batch(&batch_queries).unwrap();
        for (q, o) in batch_queries.iter().zip(&outcomes) {
            assert_eq!(
                o.positions,
                engine.search(q.values(), 0.6).unwrap(),
                "{}",
                engine.method()
            );
        }
    }
}

#[test]
fn index_metadata_is_reported() {
    let values = insect_like(GeneratorConfig::new(2_000, 19));
    let len = 100;
    for method in Method::ALL {
        let engine = Engine::build(
            &values,
            EngineConfig::new(method, len)
                .with_isax_leaf_capacity(64)
                .with_tsindex_capacities(4, 12),
        )
        .unwrap();
        if method.is_indexed() {
            assert!(engine.index_memory_bytes() > 0, "{method}");
        } else {
            assert_eq!(engine.index_memory_bytes(), 0);
        }
    }
}
