//! The query/outcome vocabulary of the public search API.
//!
//! Every search method answers a [`TwinQuery`] with a [`SearchOutcome`]:
//! the matching positions plus, on request, a [`SearchStats`] record of how
//! the answer was reached (candidates generated and verified, index nodes
//! visited and pruned, and the filter-vs-verify wall-clock split).  The
//! paper's whole evaluation (§6, Figures 4–8) is about exactly these
//! quantities, so they are first-class here rather than a side channel.

use std::time::Duration;

/// A twin subsequence query: the query values, the Chebyshev threshold ε,
/// and execution options.
///
/// Built with [`TwinQuery::new`] and refined with the chainable options:
///
/// ```
/// use ts_core::query::TwinQuery;
///
/// let q = TwinQuery::new(vec![0.0, 0.5, 1.0], 0.25)
///     .parallel(4)
///     .limit(10)
///     .collect_stats();
/// // The thread request is clamped to what the machine can actually run.
/// assert_eq!(q.threads(), 4.min(ts_core::exec::available_parallelism()));
/// assert_eq!(q.result_limit(), Some(10));
/// assert!(q.wants_stats());
/// assert!(!q.is_count_only());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TwinQuery {
    values: Vec<f64>,
    epsilon: f64,
    threads: usize,
    limit: Option<usize>,
    count_only: bool,
    collect_stats: bool,
}

impl TwinQuery {
    /// Creates a query with the default options: sequential execution, no
    /// result limit, full result materialisation, no statistics.
    #[must_use]
    pub fn new(values: Vec<f64>, epsilon: f64) -> Self {
        Self {
            values,
            epsilon,
            threads: 1,
            limit: None,
            count_only: false,
            collect_stats: false,
        }
    }

    /// Sets the width, in worker threads, of the TS-Index traversal and of
    /// the shard and batch fan-out — and of nothing else: Sweepline,
    /// KV-Index and iSAX answer a single query on one thread whatever is
    /// asked for here.
    ///
    /// The requested count is clamped to the machine's
    /// [`crate::exec::available_parallelism`] (never below 1), so a query
    /// built on a 4-core box never asks an executor for 64 workers;
    /// [`TwinQuery::threads`] returns the clamped value and the outcome's
    /// [`SearchOutcome::threads_used`] reports what actually happened.
    #[must_use]
    pub fn parallel(mut self, threads: usize) -> Self {
        self.threads = crate::exec::clamp_threads(threads);
        self
    }

    /// Caps the result at the `n` matches with the smallest positions.
    ///
    /// Scan-ordered methods (Sweepline, KV-Index) stop early once the cap is
    /// reached; tree methods cap after the traversal.
    #[must_use]
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Requests the match count only: the outcome's position list stays
    /// empty, [`SearchOutcome::match_count`] carries the answer.
    #[must_use]
    pub fn count_only(mut self) -> Self {
        self.count_only = true;
        self
    }

    /// Requests execution statistics in the outcome.
    #[must_use]
    pub fn collect_stats(mut self) -> Self {
        self.collect_stats = true;
        self
    }

    /// The query values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The Chebyshev threshold ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of traversal threads the query will be answered with (1 =
    /// sequential; already clamped to the available parallelism by
    /// [`TwinQuery::parallel`]).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The result cap, if any.
    #[must_use]
    pub fn result_limit(&self) -> Option<usize> {
        self.limit
    }

    /// `true` when only the match count is wanted.
    #[must_use]
    pub fn is_count_only(&self) -> bool {
        self.count_only
    }

    /// `true` when execution statistics are wanted.
    #[must_use]
    pub fn wants_stats(&self) -> bool {
        self.collect_stats
    }
}

/// Execution statistics of one answered [`TwinQuery`].
///
/// Invariants (asserted by the workspace property tests):
/// `matches ≤ candidates_verified ≤ candidates_generated`, and
/// `nodes_pruned ≤ nodes_visited`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidate positions produced by the filter step (for the index-free
    /// sweepline: every subsequence position).
    pub candidates_generated: usize,
    /// Candidates actually run through exact verification (smaller than
    /// `candidates_generated` when a result limit stops the scan early).
    pub candidates_verified: usize,
    /// Index nodes whose summary was compared against the query (mean-value
    /// buckets for KV-Index, tree nodes for iSAX and TS-Index; 0 for the
    /// sweepline).
    pub nodes_visited: usize,
    /// Index nodes pruned without descending / expanding.
    pub nodes_pruned: usize,
    /// Wall-clock spent in the filter side: index traversal and candidate
    /// generation.  Summed across workers on a parallel traversal.
    pub filter_time: Duration,
    /// Wall-clock spent verifying candidates against the store.  Summed
    /// across workers on a parallel traversal.
    pub verify_time: Duration,
}

impl SearchStats {
    /// Merges the statistics of another partial execution into `self`.
    ///
    /// This is the single merge point for every multi-part execution in the
    /// workspace: per-worker statistics of the parallel TS-Index traversal,
    /// per-shard statistics of a sharded search, and workload aggregation in
    /// the bench harness all fold through here, so the counter invariants
    /// (`matches ≤ candidates_verified ≤ candidates_generated`,
    /// `nodes_pruned ≤ nodes_visited`) are preserved by construction.
    pub fn merge(&mut self, other: Self) {
        self.candidates_generated += other.candidates_generated;
        self.candidates_verified += other.candidates_verified;
        self.nodes_visited += other.nodes_visited;
        self.nodes_pruned += other.nodes_pruned;
        self.filter_time += other.filter_time;
        self.verify_time += other.verify_time;
    }

    /// By-value form of [`SearchStats::merge`], convenient in folds.
    #[must_use]
    pub fn merged(mut self, other: Self) -> Self {
        self.merge(other);
        self
    }
}

/// The answer to a [`TwinQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Human-readable name of the method that answered (matches the paper's
    /// figure legends).
    pub method: &'static str,
    /// Matching starting positions in increasing order; empty when the query
    /// asked for [`TwinQuery::count_only`].
    pub positions: Vec<usize>,
    /// Number of matches found (equals `positions.len()` unless the query
    /// was count-only).
    pub match_count: usize,
    /// Number of worker threads the traversal actually used.
    pub threads_used: usize,
    /// Total wall-clock time answering the query (always recorded).
    pub query_time: Duration,
    /// Execution statistics, present when the query asked for them via
    /// [`TwinQuery::collect_stats`].
    pub stats: Option<SearchStats>,
}

impl SearchOutcome {
    /// Consumes the outcome and returns the matching positions.
    #[must_use]
    pub fn into_positions(self) -> Vec<usize> {
        self.positions
    }

    /// `true` when the recorded statistics satisfy the documented invariants
    /// (vacuously true when no statistics were collected).
    #[must_use]
    pub fn stats_consistent(&self) -> bool {
        self.stats.is_none_or(|s| {
            self.match_count <= s.candidates_verified
                && s.candidates_verified <= s.candidates_generated
                && s.nodes_pruned <= s.nodes_visited
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_options() {
        let q = TwinQuery::new(vec![1.0, 2.0], 0.5);
        assert_eq!(q.values(), &[1.0, 2.0]);
        assert_eq!(q.epsilon(), 0.5);
        assert_eq!(q.threads(), 1);
        assert_eq!(q.result_limit(), None);
        assert!(!q.is_count_only());
        assert!(!q.wants_stats());

        let q = q.parallel(0).limit(3).count_only().collect_stats();
        assert_eq!(q.threads(), 1, "thread counts are clamped to >= 1");
        assert_eq!(q.result_limit(), Some(3));
        assert!(q.is_count_only());
        assert!(q.wants_stats());

        // Oversized requests are clamped to the available parallelism.
        let q = TwinQuery::new(vec![1.0], 0.1).parallel(usize::MAX);
        assert_eq!(q.threads(), crate::exec::available_parallelism());
    }

    #[test]
    fn stats_merge_adds_fields() {
        let a = SearchStats {
            candidates_generated: 10,
            candidates_verified: 8,
            nodes_visited: 5,
            nodes_pruned: 2,
            filter_time: Duration::from_millis(1),
            verify_time: Duration::from_millis(2),
        };
        let b = SearchStats {
            candidates_generated: 1,
            candidates_verified: 1,
            nodes_visited: 1,
            nodes_pruned: 1,
            filter_time: Duration::from_millis(10),
            verify_time: Duration::from_millis(20),
        };
        let m = a.merged(b);
        assert_eq!(m.candidates_generated, 11);
        assert_eq!(m.candidates_verified, 9);
        assert_eq!(m.nodes_visited, 6);
        assert_eq!(m.nodes_pruned, 3);
        assert_eq!(m.filter_time, Duration::from_millis(11));
        assert_eq!(m.verify_time, Duration::from_millis(22));
    }

    #[test]
    fn outcome_consistency_check() {
        let mut outcome = SearchOutcome {
            method: "test",
            positions: vec![1, 2],
            match_count: 2,
            threads_used: 1,
            query_time: Duration::ZERO,
            stats: None,
        };
        assert!(
            outcome.stats_consistent(),
            "no stats is vacuously consistent"
        );
        outcome.stats = Some(SearchStats {
            candidates_generated: 5,
            candidates_verified: 3,
            nodes_visited: 4,
            nodes_pruned: 1,
            ..SearchStats::default()
        });
        assert!(outcome.stats_consistent());
        outcome.stats = Some(SearchStats {
            candidates_generated: 2,
            candidates_verified: 3,
            ..SearchStats::default()
        });
        assert!(!outcome.stats_consistent(), "verified > generated");
        assert_eq!(outcome.clone().into_positions(), vec![1, 2]);
    }
}
