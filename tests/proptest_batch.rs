//! Property-based tests for the Query/Outcome API: for random series and
//! thresholds, `Engine::search_batch` returns exactly the per-query
//! sequential answers for all four methods, and every collected
//! [`twin_search::SearchStats`] is internally consistent
//! (matches ≤ candidates verified ≤ candidates generated) on every store
//! backend — memory, readahead disk, the sharded block cache and the memory
//! map — under both random and sequential query mixes.

use proptest::collection::vec;
use proptest::prelude::*;

use twin_search::{Engine, EngineConfig, Method, SeriesStore, StoreKind, TwinQuery};

/// A strategy producing a series of 200–500 smooth-ish values (random walk
/// steps bounded to keep Chebyshev thresholds meaningful).
fn series_strategy() -> impl Strategy<Value = Vec<f64>> {
    (200usize..500, vec(-1.0_f64..1.0, 500)).prop_map(|(n, steps)| {
        let mut x = 0.0;
        steps
            .into_iter()
            .take(n)
            .map(|s| {
                x += s;
                x
            })
            .collect()
    })
}

/// Builds one engine per method over `values` (whole-series normalisation,
/// small index parameters so trees actually branch at this scale).
fn engines(values: &[f64], len: usize, store: StoreKind) -> Vec<Engine> {
    Method::ALL
        .iter()
        .map(|&m| {
            let config = EngineConfig::new(m, len)
                .with_isax_leaf_capacity(16)
                .with_tsindex_capacities(2, 6)
                .with_store(store);
            Engine::build(values, config).expect("valid build")
        })
        .collect()
}

/// The shared property: batch answers equal sequential answers and stats are
/// internally consistent for every method, for a query mix holding both
/// sequential windows (adjacent starts) and random jumps (`random_frac`
/// positions scattered over the series).
fn check_batch_and_stats(
    values: &[f64],
    len_frac: f64,
    eps: f64,
    random_frac: f64,
    store: StoreKind,
) -> Result<(), TestCaseError> {
    let n = values.len();
    let len = ((n as f64 * len_frac) as usize).clamp(4, n / 2);
    let max_start = n - len;
    for engine in engines(values, len, store) {
        prop_assert_eq!(engine.store().is_disk_backed(), store.is_disk_backed());
        prop_assert_eq!(engine.store().store_kind(), store);
        // A mixed workload: two sequential neighbours (the readahead-friendly
        // pattern) plus random jumps (the tree-ordered verification pattern).
        let random_start = ((max_start as f64) * random_frac) as usize;
        let starts = [
            0,
            1.min(max_start),
            random_start.min(max_start),
            (n / 3).min(max_start),
            max_start,
        ];
        let queries: Vec<TwinQuery> = starts
            .iter()
            .map(|&p| {
                TwinQuery::new(engine.store().read(p, len).unwrap(), eps)
                    .parallel(2)
                    .collect_stats()
            })
            .collect();
        let batch = engine.search_batch(&queries).unwrap();
        prop_assert_eq!(batch.len(), queries.len());
        for ((&start, query), outcome) in starts.iter().zip(&queries).zip(&batch) {
            let sequential = engine.search(query.values(), eps).unwrap();
            prop_assert_eq!(
                &outcome.positions,
                &sequential,
                "{} on {} disagrees between batch and sequential",
                engine.method(),
                store
            );
            prop_assert!(outcome.positions.contains(&start), "self-match");
            prop_assert_eq!(outcome.match_count, sequential.len());
            // The documented stats invariants.
            prop_assert!(outcome.stats_consistent(), "{}", engine.method());
            let stats = outcome.stats.expect("stats requested");
            prop_assert!(stats.candidates_verified <= stats.candidates_generated);
            prop_assert!(outcome.match_count <= stats.candidates_verified);
            prop_assert!(stats.nodes_pruned <= stats.nodes_visited);
        }
        // `parallel(n)` is the TS-Index traversal / fan-out width and
        // nothing else: the other methods answer on one thread regardless.
        if engine.method() != Method::TsIndex {
            let one = engine.execute(&queries[2].clone().parallel(1)).unwrap();
            let four = engine.execute(&queries[2].clone().parallel(4)).unwrap();
            prop_assert_eq!(&four.positions, &one.positions, "{}", engine.method());
            prop_assert_eq!(four.threads_used, 1, "{}", engine.method());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_equals_sequential_on_memory_stores(
        values in series_strategy(),
        len_frac in 0.05_f64..0.3,
        eps in 0.05_f64..2.0,
        random_frac in 0.0_f64..1.0,
    ) {
        check_batch_and_stats(&values, len_frac, eps, random_frac, StoreKind::Memory)?;
    }
}

proptest! {
    // Disk-backed cases write real temp files; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn batch_equals_sequential_on_disk_stores(
        values in series_strategy(),
        len_frac in 0.05_f64..0.3,
        eps in 0.05_f64..2.0,
        random_frac in 0.0_f64..1.0,
    ) {
        check_batch_and_stats(&values, len_frac, eps, random_frac, StoreKind::Disk)?;
    }

    #[test]
    fn batch_equals_sequential_on_block_cached_stores(
        values in series_strategy(),
        len_frac in 0.05_f64..0.3,
        eps in 0.05_f64..2.0,
        random_frac in 0.0_f64..1.0,
    ) {
        check_batch_and_stats(&values, len_frac, eps, random_frac, StoreKind::DiskCached)?;
    }

    #[test]
    fn batch_equals_sequential_on_mmap_stores(
        values in series_strategy(),
        len_frac in 0.05_f64..0.3,
        eps in 0.05_f64..2.0,
        random_frac in 0.0_f64..1.0,
    ) {
        check_batch_and_stats(&values, len_frac, eps, random_frac, StoreKind::Mmap)?;
    }
}
