//! # ts-sweep
//!
//! The **Sweepline** baseline (§3.2): scan the input series with a sliding
//! window of length `|Q|`, treating every one of the `|T| − |Q| + 1`
//! subsequences as a candidate, and verify each with early abandoning.
//!
//! The crate also implements the **Euclidean-threshold** subsequence search
//! used by the paper's introductory experiment: to retrieve every twin with a
//! Euclidean range query without false negatives one must use
//! `ε' = ε · √|Q|`, which on the EEG dataset blows the result set up from
//! 1 034 twins to 127 887 Euclidean matches.  [`compare_chebyshev_euclidean`]
//! reproduces that comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use ts_core::distance::euclidean_within;
use ts_core::pipeline::{finish_outcome, CandidateSet, Pipeline, Scratch, VerifyOptions};
use ts_core::query::{SearchOutcome, SearchStats, TwinQuery};
use ts_core::twin::euclidean_threshold_for;
use ts_core::verify::Verifier;
use ts_storage::{plan_verify_options, Result, SeriesStore};

/// The sweepline twin searcher.
///
/// It holds no state beyond configuration: every query re-scans the store.
/// This is exactly the paper's strawman and the reference implementation the
/// index-based methods are validated against in the integration tests.
#[derive(Debug, Clone, Copy)]
pub struct Sweepline {
    /// If `true` (default), use reordering early abandoning during
    /// verification; if `false`, compare positions left-to-right.
    pub reorder: bool,
}

impl Default for Sweepline {
    fn default() -> Self {
        Self::new()
    }
}

impl Sweepline {
    /// Creates a sweepline searcher with reordering early abandoning enabled.
    #[must_use]
    pub fn new() -> Self {
        Self { reorder: true }
    }

    /// Creates a sweepline searcher that verifies left-to-right (used by the
    /// reordering ablation bench).
    #[must_use]
    pub fn without_reordering() -> Self {
        Self { reorder: false }
    }

    /// Finds every subsequence of `store` that is a twin of `query` w.r.t.
    /// `epsilon`, returning the starting positions in increasing order.
    ///
    /// # Errors
    ///
    /// Propagates storage read failures.
    pub fn search<S: SeriesStore + Sync>(
        &self,
        store: &S,
        query: &[f64],
        epsilon: f64,
    ) -> Result<Vec<usize>> {
        Ok(self
            .execute(store, &TwinQuery::new(query.to_vec(), epsilon))?
            .positions)
    }

    /// Answers a [`TwinQuery`]: the uniform, instrumented entry point.
    ///
    /// The sweepline has no filter step, so every subsequence position is a
    /// candidate; the dense candidate set coalesces into maximal runs and the
    /// unified pipeline (`ts_core::pipeline`) verifies each run out of one
    /// contiguous **raw** store read ([`plan_verify_options`] turns on
    /// in-pipeline rolling normalisation for per-window-normalising stores).
    /// Because verification proceeds in increasing position order, a
    /// [`TwinQuery::limit`] stops the scan as soon as enough twins are found.
    /// The scan is single-threaded whatever [`TwinQuery::parallel`] asks for.
    ///
    /// # Errors
    ///
    /// Propagates storage read failures.
    pub fn execute<S: SeriesStore + Sync>(
        &self,
        store: &S,
        query: &TwinQuery,
    ) -> Result<SearchOutcome> {
        let started = Instant::now();
        let len = query.values().len();
        let candidates = store.subsequence_count(len);
        let verifier = if self.reorder {
            Verifier::new(query.values())
        } else {
            Verifier::new_sequential(query.values())
        };
        let pipeline = Pipeline::from_verifier(verifier, query.epsilon());
        let mut candidate_set = CandidateSet::dense(candidates);
        let mut positions = Vec::new();
        let options = plan_verify_options(store, VerifyOptions::from_query(query));
        let read = |start: usize, buf: &mut [f64]| store.read_raw_range_into(start, buf);
        let report = pipeline.verify_into(&mut candidate_set, read, options, &mut positions)?;
        let stats = SearchStats {
            candidates_generated: candidates,
            candidates_verified: report.verified,
            nodes_visited: 0,
            nodes_pruned: 0,
            filter_time: Duration::ZERO,
            verify_time: report.verify_time,
        };
        Ok(finish_outcome(
            "Sweepline",
            started,
            query,
            positions,
            report.matches,
            1,
            stats,
        ))
    }

    /// Counts the twins of `query` without materialising the result list.
    ///
    /// # Errors
    ///
    /// Propagates storage read failures.
    pub fn count<S: SeriesStore + Sync>(
        &self,
        store: &S,
        query: &[f64],
        epsilon: f64,
    ) -> Result<usize> {
        Ok(self
            .execute(store, &TwinQuery::new(query.to_vec(), epsilon).count_only())?
            .match_count)
    }
}

// The sweepline keeps no state: every query re-scans the store, so appended
// values are visible immediately and maintenance indexes nothing.
impl<S: SeriesStore> ts_core::MaintainableSearcher<S> for Sweepline {
    type Error = ts_storage::StorageError;

    fn on_append(&mut self, _store: &S) -> Result<usize> {
        Ok(0)
    }
}

/// Finds every subsequence whose **Euclidean** distance to `query` is at most
/// `threshold`, returning starting positions in increasing order.
///
/// This is the comparison method of the introduction: with
/// `threshold = ε·√|Q|` it is guaranteed to contain every twin (no false
/// negatives) but typically returns far more matches.
///
/// # Errors
///
/// Propagates storage read failures.
pub fn euclidean_search<S: SeriesStore>(
    store: &S,
    query: &[f64],
    threshold: f64,
) -> Result<Vec<usize>> {
    let len = query.len();
    let mut results = Vec::new();
    let mut buf = Scratch::take(len);
    for start in 0..store.subsequence_count(len) {
        store.read_into(start, &mut buf)?;
        if euclidean_within(query, &buf, threshold) {
            results.push(start);
        }
    }
    Ok(results)
}

/// Result of the introduction's Chebyshev-vs-Euclidean comparison for one
/// query.
#[derive(Debug, Clone, PartialEq)]
pub struct ChebyshevEuclideanComparison {
    /// The Chebyshev threshold `ε` used.
    pub epsilon: f64,
    /// The derived Euclidean threshold `ε' = ε·√|Q|`.
    pub euclidean_threshold: f64,
    /// Positions of the twin subsequences (Chebyshev matches).
    pub twin_positions: Vec<usize>,
    /// Positions of the Euclidean matches under `ε'`.
    pub euclidean_positions: Vec<usize>,
}

impl ChebyshevEuclideanComparison {
    /// Number of twins found.
    #[must_use]
    pub fn twin_count(&self) -> usize {
        self.twin_positions.len()
    }

    /// Number of Euclidean matches found.
    #[must_use]
    pub fn euclidean_count(&self) -> usize {
        self.euclidean_positions.len()
    }

    /// Euclidean matches that are *not* twins — the false positives that
    /// motivate the twin-search problem (Figure 1).
    #[must_use]
    pub fn false_positives(&self) -> Vec<usize> {
        self.euclidean_positions
            .iter()
            .copied()
            .filter(|p| self.twin_positions.binary_search(p).is_err())
            .collect()
    }
}

/// Runs both searches for `query` and packages the comparison (the paper's
/// introductory experiment).
///
/// # Errors
///
/// Propagates storage read failures.
pub fn compare_chebyshev_euclidean<S: SeriesStore + Sync>(
    store: &S,
    query: &[f64],
    epsilon: f64,
) -> Result<ChebyshevEuclideanComparison> {
    let sweep = Sweepline::new();
    let twin_positions = sweep.search(store, query, epsilon)?;
    let threshold = euclidean_threshold_for(epsilon, query.len());
    let euclidean_positions = euclidean_search(store, query, threshold)?;
    Ok(ChebyshevEuclideanComparison {
        epsilon,
        euclidean_threshold: threshold,
        twin_positions,
        euclidean_positions,
    })
}

#[cfg(test)]
mod maintain_tests {
    use super::*;
    use ts_core::MaintainableSearcher;
    use ts_storage::{AppendableStore, InMemorySeries};

    #[test]
    fn on_append_is_a_no_op_and_appends_are_visible_immediately() {
        let mut store =
            InMemorySeries::new((0..200).map(|i| (i as f64 * 0.2).sin()).collect()).unwrap();
        let mut sweep = Sweepline::new();
        let query = store.read(150, 50).unwrap();
        let before = sweep.search(&store, &query, 0.05).unwrap();
        assert!(before.contains(&150));

        store.append(&query).unwrap();
        assert_eq!(sweep.on_append(&store).unwrap(), 0);
        let after = sweep.search(&store, &query, 0.05).unwrap();
        assert!(after.contains(&200), "the appended copy is found");
        assert!(after.len() > before.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_core::distance::chebyshev;
    use ts_storage::InMemorySeries;

    fn store() -> InMemorySeries {
        let values: Vec<f64> = (0..2_000)
            .map(|i| (i as f64 * 0.05).sin() * 2.0 + ((i / 200) % 3) as f64)
            .collect();
        InMemorySeries::new(values).unwrap()
    }

    #[test]
    fn self_query_always_matches_itself() {
        let s = store();
        let query = s.read(100, 64).unwrap();
        let sweep = Sweepline::new();
        let hits = sweep.search(&s, &query, 0.0).unwrap();
        assert!(hits.contains(&100));
    }

    #[test]
    fn matches_are_exactly_the_brute_force_set() {
        let s = store();
        let query = s.read(500, 50).unwrap();
        let eps = 0.4;
        let sweep = Sweepline::new();
        let hits = sweep.search(&s, &query, eps).unwrap();
        // Brute-force cross-check.
        let mut expected = Vec::new();
        for p in 0..s.subsequence_count(50) {
            let cand = s.read(p, 50).unwrap();
            if chebyshev(&query, &cand).unwrap() <= eps {
                expected.push(p);
            }
        }
        assert_eq!(hits, expected);
        assert!(
            hits.windows(2).all(|w| w[0] < w[1]),
            "sorted, unique output"
        );
    }

    #[test]
    fn reordering_does_not_change_results() {
        let s = store();
        let query = s.read(321, 80).unwrap();
        for eps in [0.1, 0.5, 1.0] {
            let a = Sweepline::new().search(&s, &query, eps).unwrap();
            let b = Sweepline::without_reordering()
                .search(&s, &query, eps)
                .unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn stats_and_count() {
        let s = store();
        let query = s.read(0, 100).unwrap();
        let sweep = Sweepline::new();
        let outcome = sweep
            .execute(&s, &TwinQuery::new(query.clone(), 0.2).collect_stats())
            .unwrap();
        let stats = outcome.stats.unwrap();
        assert_eq!(stats.candidates_verified, s.subsequence_count(100));
        assert_eq!(outcome.match_count, outcome.positions.len());
        assert_eq!(sweep.count(&s, &query, 0.2).unwrap(), outcome.match_count);
    }

    #[test]
    fn execute_limit_and_count_only() {
        let s = store();
        let query = s.read(0, 100).unwrap();
        let sweep = Sweepline::new();
        let all = sweep.search(&s, &query, 0.5).unwrap();
        assert!(all.len() >= 2, "test premise: several matches");

        // limit returns the matches with the smallest positions and stops
        // the scan early.
        let limited = sweep
            .execute(
                &s,
                &TwinQuery::new(query.clone(), 0.5).limit(2).collect_stats(),
            )
            .unwrap();
        assert_eq!(limited.positions, all[..2]);
        assert_eq!(limited.match_count, 2);
        let stats = limited.stats.unwrap();
        assert!(stats.candidates_verified < stats.candidates_generated);
        assert!(limited.stats_consistent());

        // count_only reports the count without materialising positions.
        let counted = sweep
            .execute(&s, &TwinQuery::new(query, 0.5).count_only())
            .unwrap();
        assert!(counted.positions.is_empty());
        assert_eq!(counted.match_count, all.len());
        assert_eq!(counted.method, "Sweepline");
        assert_eq!(counted.threads_used, 1);
    }

    #[test]
    fn larger_epsilon_never_shrinks_results() {
        let s = store();
        let query = s.read(777, 60).unwrap();
        let sweep = Sweepline::new();
        let small = sweep.search(&s, &query, 0.2).unwrap();
        let large = sweep.search(&s, &query, 0.8).unwrap();
        assert!(small.len() <= large.len());
        for p in &small {
            assert!(large.contains(p));
        }
    }

    #[test]
    fn euclidean_threshold_search_is_superset_of_twins() {
        let s = store();
        let query = s.read(900, 40).unwrap();
        let eps = 0.5;
        let cmp = compare_chebyshev_euclidean(&s, &query, eps).unwrap();
        assert!((cmp.euclidean_threshold - eps * (40.0_f64).sqrt()).abs() < 1e-12);
        // Every twin must appear among the Euclidean matches (no false negatives).
        for p in &cmp.twin_positions {
            assert!(cmp.euclidean_positions.contains(p));
        }
        assert!(cmp.euclidean_count() >= cmp.twin_count());
        assert_eq!(
            cmp.false_positives().len(),
            cmp.euclidean_count() - cmp.twin_count()
        );
    }

    #[test]
    fn query_longer_than_series_returns_empty() {
        let s = InMemorySeries::new(vec![1.0, 2.0, 3.0]).unwrap();
        let query = vec![0.0; 10];
        assert!(Sweepline::new().search(&s, &query, 1.0).unwrap().is_empty());
        assert!(euclidean_search(&s, &query, 1.0).unwrap().is_empty());
    }

    #[test]
    fn default_is_reordering() {
        assert!(Sweepline::default().reorder);
        assert!(Sweepline::new().reorder);
        assert!(!Sweepline::without_reordering().reorder);
    }
}
