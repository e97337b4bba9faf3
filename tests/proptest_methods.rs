//! Property-based cross-method tests: for random series, random queries and
//! random thresholds, every index returns exactly the sweepline's answer, and
//! the answer satisfies the twin definition.

use proptest::collection::vec;
use proptest::prelude::*;

use twin_search::{
    are_twins, InMemorySeries, IsaxConfig, IsaxIndex, KvIndex, KvIndexConfig, MaintainableSearcher,
    SeriesStore, Sweepline, TsIndex, TsIndexConfig,
};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_indices_agree_with_sweepline(
        values in series_strategy(),
        len_frac in 0.05_f64..0.3,
        query_frac in 0.0_f64..1.0,
        eps in 0.05_f64..2.0,
    ) {
        let n = values.len();
        let len = ((n as f64 * len_frac) as usize).clamp(4, n / 2);
        let store = InMemorySeries::new_znormalized(&values).unwrap();
        let max_start = store.len() - len;
        let q_start = (query_frac * max_start as f64) as usize;
        let query = store.read(q_start, len).unwrap();

        let expected = Sweepline::new().search(&store, &query, eps).unwrap();
        prop_assert!(expected.contains(&q_start));

        let kv = KvIndex::build(&store, KvIndexConfig::new(len)).unwrap();
        prop_assert_eq!(kv.search(&store, &query, eps).unwrap(), expected.clone());

        let isax = IsaxIndex::build(
            &store,
            IsaxConfig::for_normalized(len).unwrap().with_leaf_capacity(16),
        )
        .unwrap();
        prop_assert_eq!(isax.search(&store, &query, eps).unwrap(), expected.clone());

        let ts = TsIndex::build(
            &store,
            TsIndexConfig::new(len).unwrap().with_capacities(2, 6).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(ts.check_invariants(), None);
        let ts_hits = ts.search(&store, &query, eps).unwrap();
        prop_assert_eq!(ts_hits.clone(), expected.clone());

        // Soundness of the answer against the twin definition.
        for &p in &ts_hits {
            let cand = store.read(p, len).unwrap();
            prop_assert!(are_twins(&query, &cand, eps));
        }
    }

    /// The bulk-built tree, the §5.2 tree grown window by window, and a
    /// brute-force scan return the same answer.
    #[test]
    fn tsindex_bulk_and_incremental_agree(
        values in series_strategy(),
        eps in 0.1_f64..1.5,
    ) {
        let len = 32.min(values.len() / 3).max(4);
        let store = InMemorySeries::new_znormalized(&values).unwrap();
        let query = store.read(values.len() / 2, len).unwrap();
        let config = TsIndexConfig::new(len).unwrap().with_capacities(2, 6).unwrap();
        let bulk = TsIndex::build(&store, config).unwrap();
        prop_assert_eq!(bulk.check_invariants(), None);
        let first_window = InMemorySeries::new(store.read(0, len).unwrap()).unwrap();
        let mut incremental = TsIndex::build(&first_window, config).unwrap();
        incremental.on_append(&store).unwrap();
        prop_assert_eq!(incremental.check_invariants(), None);
        prop_assert_eq!(incremental.indexed_count(), bulk.indexed_count());

        let expected: Vec<usize> = (0..store.subsequence_count(len))
            .filter(|&p| are_twins(&query, &store.read(p, len).unwrap(), eps))
            .collect();
        prop_assert_eq!(bulk.search(&store, &query, eps).unwrap(), expected.clone());
        prop_assert_eq!(incremental.search(&store, &query, eps).unwrap(), expected);
    }

    #[test]
    fn monotonicity_in_epsilon(
        values in series_strategy(),
        eps_small in 0.05_f64..0.5,
        eps_extra in 0.05_f64..1.0,
    ) {
        let len = 24.min(values.len() / 4).max(4);
        let store = InMemorySeries::new_znormalized(&values).unwrap();
        let query = store.read(7, len).unwrap();
        let ts = TsIndex::build(
            &store,
            TsIndexConfig::new(len).unwrap().with_capacities(2, 6).unwrap(),
        )
        .unwrap();
        let small = ts.search(&store, &query, eps_small).unwrap();
        let large = ts.search(&store, &query, eps_small + eps_extra).unwrap();
        prop_assert!(small.len() <= large.len());
        for p in &small {
            prop_assert!(large.contains(p));
        }
    }
}
