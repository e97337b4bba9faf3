//! # ts-kv
//!
//! The **KV-Index** baseline (§4.1), adapted to twin subsequence search.
//!
//! KV-Index summarises every subsequence of a pre-defined length `l` by the
//! pair `(p, μ)` of its starting position and its mean value, and builds an
//! inverted index whose keys are ranges of mean values and whose posting
//! lists contain *intervals of positions*.
//!
//! The adaptation to twin search rests on the observation that if two
//! sequences are twins w.r.t. `ε`, their means cannot differ by more than
//! `ε`.  A query with mean `μ_q` therefore only needs to look at the keys
//! whose mean range intersects `[μ_q − ε, μ_q + ε]`; everything else is
//! pruned.  The surviving candidates are verified against the raw series.
//!
//! As the paper notes, the filter is useless when each subsequence is
//! z-normalised individually (all means are 0), so the index refuses to be
//! built under that regime only in the sense that it degenerates to a full
//! scan — exactly the behaviour reported in §6.2.3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use ts_core::pipeline::{finish_outcome, CandidateSet, Pipeline, VerifyOptions};
use ts_core::query::{SearchOutcome, SearchStats, TwinQuery};
use ts_core::stats::rolling_mean;
use ts_storage::{plan_verify_options, Result, SeriesStore, StorageError};

/// A compressed run of consecutive subsequence starting positions
/// `[start, end]` (inclusive) stored in a posting list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PositionInterval {
    /// First position of the run.
    pub start: u32,
    /// Last position of the run (inclusive).
    pub end: u32,
}

impl PositionInterval {
    /// Number of positions covered.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize + 1
    }

    /// Intervals are never empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Construction parameters for [`KvIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvIndexConfig {
    /// Subsequence length `l` the index is built for.
    pub subsequence_len: usize,
    /// Number of mean-value buckets (keys).  Each key covers an equal-width
    /// slice of the observed mean range.
    pub buckets: usize,
}

impl KvIndexConfig {
    /// Creates a configuration with the given subsequence length and the
    /// default number of buckets (256).
    #[must_use]
    pub fn new(subsequence_len: usize) -> Self {
        Self {
            subsequence_len,
            buckets: 256,
        }
    }

    /// Overrides the number of mean-value buckets.
    #[must_use]
    pub fn with_buckets(mut self, buckets: usize) -> Self {
        self.buckets = buckets.max(1);
        self
    }
}

/// The KV-Index: an inverted index from mean-value buckets to intervals of
/// subsequence starting positions.
#[derive(Debug, Clone)]
pub struct KvIndex {
    config: KvIndexConfig,
    /// Lower edge of bucket 0.
    min_mean: f64,
    /// Width of each bucket in mean-value units.
    bucket_width: f64,
    /// `posting[k]` holds the position intervals whose subsequence means fall
    /// in bucket `k`.
    postings: Vec<Vec<PositionInterval>>,
    /// Total number of indexed subsequences.
    indexed: usize,
    /// Smallest subsequence mean actually indexed.  Equal to `min_mean` at
    /// build time, but streaming appends may push it lower: those entries
    /// are clamped into bucket 0, which then covers `[observed_min, …)`.
    observed_min: f64,
    /// Largest subsequence mean actually indexed (the last bucket covers up
    /// to it after appends overflow the build-time grid).
    observed_max: f64,
}

impl KvIndex {
    /// Builds the index over every `config.subsequence_len`-length
    /// subsequence of `store`.
    ///
    /// # Errors
    ///
    /// Returns an error if the store is shorter than the subsequence length
    /// or the subsequence length is zero, and propagates storage failures.
    pub fn build<S: SeriesStore>(store: &S, config: KvIndexConfig) -> Result<Self> {
        let len = config.subsequence_len;
        if len == 0 {
            return Err(StorageError::Core(ts_core::TsError::InvalidParameter(
                "subsequence length must be positive".into(),
            )));
        }
        let count = store.subsequence_count(len);
        if count == 0 {
            return Err(StorageError::Core(ts_core::TsError::InvalidParameter(
                format!(
                    "series of length {} has no subsequences of length {len}",
                    store.len()
                ),
            )));
        }
        // The rolling mean needs the raw values once; read them in one pass.
        let values = store.read(0, store.len())?;
        let means = rolling_mean(&values, len);
        debug_assert_eq!(means.len(), count);

        let (mut min_mean, mut max_mean) = (f64::INFINITY, f64::NEG_INFINITY);
        for &m in &means {
            min_mean = min_mean.min(m);
            max_mean = max_mean.max(m);
        }
        let span = (max_mean - min_mean).max(f64::MIN_POSITIVE);
        let buckets = config.buckets.max(1);
        let bucket_width = span / buckets as f64;

        let mut postings: Vec<Vec<PositionInterval>> = vec![Vec::new(); buckets];
        for (p, &m) in means.iter().enumerate() {
            let mut k = ((m - min_mean) / bucket_width) as usize;
            if k >= buckets {
                k = buckets - 1;
            }
            let p = p as u32;
            match postings[k].last_mut() {
                Some(interval) if interval.end + 1 == p => interval.end = p,
                _ => postings[k].push(PositionInterval { start: p, end: p }),
            }
        }
        Ok(Self {
            config,
            min_mean,
            bucket_width,
            postings,
            indexed: count,
            observed_min: min_mean,
            observed_max: max_mean,
        })
    }

    /// The configuration the index was built with.
    #[must_use]
    pub fn config(&self) -> &KvIndexConfig {
        &self.config
    }

    /// Number of subsequences indexed.
    #[must_use]
    pub fn indexed_count(&self) -> usize {
        self.indexed
    }

    /// Number of stored position intervals across all posting lists.
    #[must_use]
    pub fn interval_count(&self) -> usize {
        self.postings.iter().map(Vec::len).sum()
    }

    /// The `[lower, upper)` mean range covered by bucket `k`.
    #[must_use]
    pub fn bucket_range(&self, k: usize) -> (f64, f64) {
        let lo = self.min_mean + k as f64 * self.bucket_width;
        (lo, lo + self.bucket_width)
    }

    /// Approximate heap memory used by the index structure, in bytes.
    ///
    /// Matches the paper's Figure 8a notion of memory footprint: the keys and
    /// the posting lists, not the raw data file.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let postings: usize = self
            .postings
            .iter()
            .map(|list| list.capacity() * std::mem::size_of::<PositionInterval>())
            .sum();
        postings
            + self.postings.capacity() * std::mem::size_of::<Vec<PositionInterval>>()
            + std::mem::size_of::<Self>()
    }

    /// Generates the candidate positions for a query with mean `query_mean`
    /// and threshold `epsilon` (the filter step only, no verification).
    #[must_use]
    pub fn candidates(&self, query_mean: f64, epsilon: f64) -> (Vec<u32>, usize) {
        let (set, probed) = self.candidate_set(query_mean, epsilon);
        (set.into_sorted_positions(), probed)
    }

    /// The filter step as a [`CandidateSet`]: posting intervals of every
    /// bucket intersecting `[μ_q − ε, μ_q + ε]`, plus the probed-bucket
    /// count.  Sorting/dedup is deferred to the verification pipeline.
    fn candidate_set(&self, query_mean: f64, epsilon: f64) -> (CandidateSet, usize) {
        let lo = query_mean - epsilon;
        let hi = query_mean + epsilon;
        let buckets = self.postings.len();
        // No bucket can intersect a range that lies entirely outside the
        // observed mean span.  The *observed* bounds matter here, not the
        // bucket grid: appended subsequences whose means overflow the
        // build-time grid are clamped into the edge buckets, so those
        // buckets cover the full observed overhang.
        if hi < self.observed_min || lo > self.observed_max {
            return (CandidateSet::new(), 0);
        }
        // Bucket index range intersecting [lo, hi].
        let first = if lo <= self.min_mean {
            0
        } else {
            (((lo - self.min_mean) / self.bucket_width) as usize).min(buckets - 1)
        };
        let last = if hi <= self.min_mean {
            0
        } else {
            (((hi - self.min_mean) / self.bucket_width) as usize).min(buckets - 1)
        };
        let mut set = CandidateSet::new();
        let mut probed = 0usize;
        for list in &self.postings[first..=last] {
            probed += 1;
            for interval in list {
                set.push_range(interval.start, interval.end);
            }
        }
        (set, probed)
    }

    /// Twin subsequence search: returns the starting positions of every
    /// subsequence whose Chebyshev distance to `query` is at most `epsilon`,
    /// in increasing order.
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if `query.len()` differs from the
    /// indexed subsequence length, and propagates storage failures.
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
    /// The filter step considers every mean-value bucket (reported as
    /// visited nodes) and prunes those outside `[μ_q − ε, μ_q + ε]`; the
    /// candidates of the surviving buckets are verified in increasing
    /// position order, so a [`TwinQuery::limit`] stops verification early.
    /// Filter and verification are single-threaded whatever
    /// [`TwinQuery::parallel`] asks for.
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if the query length differs from the
    /// indexed subsequence length, and propagates storage failures.
    pub fn execute<S: SeriesStore + Sync>(
        &self,
        store: &S,
        query: &TwinQuery,
    ) -> Result<SearchOutcome> {
        let started = Instant::now();
        let len = self.config.subsequence_len;
        if query.values().len() != len {
            return Err(StorageError::Core(ts_core::TsError::LengthMismatch {
                left: query.values().len(),
                right: len,
            }));
        }
        let query_mean = ts_core::stats::mean(query.values());
        let (mut candidate_set, buckets_probed) = self.candidate_set(query_mean, query.epsilon());
        let generated = candidate_set.len();

        let pipeline = Pipeline::for_query(query);
        let mut positions = Vec::new();
        let options = plan_verify_options(store, VerifyOptions::from_query(query));
        let read = |start: usize, buf: &mut [f64]| store.read_raw_range_into(start, buf);
        let report = pipeline.verify_into(&mut candidate_set, read, options, &mut positions)?;
        let stats = SearchStats {
            candidates_generated: generated,
            candidates_verified: report.verified,
            nodes_visited: self.postings.len(),
            nodes_pruned: self.postings.len() - buckets_probed,
            filter_time: Duration::ZERO, // derived by `finish_outcome`
            verify_time: report.verify_time,
        };
        Ok(finish_outcome(
            "KV-Index",
            started,
            query,
            positions,
            report.matches,
            1,
            stats,
        ))
    }

    /// The bucket a subsequence mean falls into, clamping means outside the
    /// build-time grid into the edge buckets.
    fn bucket_for(&self, mean: f64) -> usize {
        if mean <= self.min_mean {
            return 0;
        }
        (((mean - self.min_mean) / self.bucket_width) as usize).min(self.postings.len() - 1)
    }
}

// Streaming maintenance: appending `k` points creates `k` new sliding
// windows; their rolling means extend the posting lists exactly like the
// build pass does.  Means outside the build-time grid land in the edge
// buckets, and the observed mean bounds grow with them so the query-time
// quick-reject stays sound (the bucket *grid* is never re-fitted — queries
// over the overhang probe one oversized edge bucket, trading filter
// selectivity for not rebuilding).
impl<S: SeriesStore> ts_core::MaintainableSearcher<S> for KvIndex {
    type Error = StorageError;

    fn on_append(&mut self, store: &S) -> Result<usize> {
        let len = self.config.subsequence_len;
        let new_count = store.subsequence_count(len);
        // Windows are indexed densely in position order, so the indexed
        // count is the resume point (making this call retry-safe).
        let old_count = self.indexed;
        if new_count <= old_count {
            return Ok(0);
        }
        // The new windows start at positions old_count..new_count and span
        // values [old_count, store.len()): one tail read serves them all.
        let tail = store.read(old_count, store.len() - old_count)?;
        let means = rolling_mean(&tail, len);
        debug_assert_eq!(means.len(), new_count - old_count);
        for (i, &m) in means.iter().enumerate() {
            let p = (old_count + i) as u32;
            self.observed_min = self.observed_min.min(m);
            self.observed_max = self.observed_max.max(m);
            let k = self.bucket_for(m);
            match self.postings[k].last_mut() {
                Some(interval) if interval.end + 1 == p => interval.end = p,
                _ => self.postings[k].push(PositionInterval { start: p, end: p }),
            }
        }
        self.indexed = new_count;
        Ok(new_count - old_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_data::generators::{insect_like, GeneratorConfig};
    use ts_storage::InMemorySeries;
    use ts_sweep::Sweepline;

    fn store() -> InMemorySeries {
        InMemorySeries::new_znormalized(&insect_like(GeneratorConfig::new(4_000, 21))).unwrap()
    }

    #[test]
    fn build_validates_parameters() {
        let s = InMemorySeries::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert!(KvIndex::build(&s, KvIndexConfig::new(0)).is_err());
        assert!(KvIndex::build(&s, KvIndexConfig::new(10)).is_err());
        assert!(KvIndex::build(&s, KvIndexConfig::new(3)).is_ok());
    }

    #[test]
    fn config_builder() {
        let c = KvIndexConfig::new(100).with_buckets(0);
        assert_eq!(c.buckets, 1);
        assert_eq!(KvIndexConfig::new(100).buckets, 256);
    }

    #[test]
    fn indexes_every_subsequence_exactly_once() {
        let s = store();
        let idx = KvIndex::build(&s, KvIndexConfig::new(64)).unwrap();
        assert_eq!(idx.indexed_count(), s.subsequence_count(64));
        // Sum of interval lengths over all buckets = number of subsequences.
        let total: usize = idx
            .postings
            .iter()
            .flat_map(|list| list.iter().map(PositionInterval::len))
            .sum();
        assert_eq!(total, idx.indexed_count());
        assert!(idx.interval_count() >= 1);
        assert!(idx.memory_bytes() > 0);
        assert_eq!(idx.config().subsequence_len, 64);
    }

    #[test]
    fn bucket_ranges_partition_the_mean_span() {
        let s = store();
        let idx = KvIndex::build(&s, KvIndexConfig::new(32).with_buckets(10)).unwrap();
        for k in 0..9 {
            let (_, hi) = idx.bucket_range(k);
            let (lo_next, _) = idx.bucket_range(k + 1);
            assert!((hi - lo_next).abs() < 1e-12);
        }
    }

    #[test]
    fn results_match_sweepline_exactly() {
        let s = store();
        let len = 100;
        let idx = KvIndex::build(&s, KvIndexConfig::new(len)).unwrap();
        let sweep = Sweepline::new();
        for (start, eps) in [(11usize, 0.5), (500, 1.0), (2_000, 1.5), (3_500, 0.75)] {
            let query = s.read(start, len).unwrap();
            let expected = sweep.search(&s, &query, eps).unwrap();
            let got = idx.search(&s, &query, eps).unwrap();
            assert_eq!(got, expected, "start={start} eps={eps}");
        }
    }

    #[test]
    fn filter_is_sound_candidates_superset_of_matches() {
        let s = store();
        let len = 80;
        let idx = KvIndex::build(&s, KvIndexConfig::new(len)).unwrap();
        let query = s.read(123, len).unwrap();
        let outcome = idx
            .execute(&s, &TwinQuery::new(query.clone(), 0.8).collect_stats())
            .unwrap();
        let stats = outcome.stats.unwrap();
        assert_eq!(outcome.match_count, outcome.positions.len());
        assert!(stats.candidates_generated >= outcome.match_count);
        assert!(
            stats.nodes_visited - stats.nodes_pruned >= 1,
            "at least one bucket probed"
        );
        // Every reported match really is a twin.
        for &p in &outcome.positions {
            let cand = s.read(p, len).unwrap();
            assert!(ts_core::are_twins(&query, &cand, 0.8));
        }
    }

    #[test]
    fn rejects_query_of_wrong_length() {
        let s = store();
        let idx = KvIndex::build(&s, KvIndexConfig::new(50)).unwrap();
        assert!(idx.search(&s, &vec![0.0; 49], 0.5).is_err());
    }

    #[test]
    fn filter_prunes_far_away_queries() {
        let s = store();
        let len = 100;
        let idx = KvIndex::build(&s, KvIndexConfig::new(len)).unwrap();
        // A query far above every value in the (z-normalised) series.
        let query = vec![100.0; len];
        let (positions, _) = idx.candidates(ts_core::stats::mean(&query), 0.5);
        assert!(positions.is_empty(), "no bucket should intersect the range");
        assert!(idx.search(&s, &query, 0.5).unwrap().is_empty());
    }

    #[test]
    fn execute_options_and_stats() {
        let s = store();
        let len = 80;
        let idx = KvIndex::build(&s, KvIndexConfig::new(len)).unwrap();
        let query = s.read(123, len).unwrap();
        // Grow epsilon until the query has several twins (the z-normalised
        // series is bounded, so this terminates quickly).
        let mut eps = 0.5;
        let mut all = idx.search(&s, &query, eps).unwrap();
        while all.len() < 2 {
            eps *= 1.6;
            all = idx.search(&s, &query, eps).unwrap();
        }

        let limited = idx
            .execute(
                &s,
                &TwinQuery::new(query.clone(), eps).limit(1).collect_stats(),
            )
            .unwrap();
        assert_eq!(limited.positions, all[..1]);
        assert!(limited.stats_consistent());

        let counted = idx
            .execute(&s, &TwinQuery::new(query, eps).count_only().collect_stats())
            .unwrap();
        assert!(counted.positions.is_empty());
        assert_eq!(counted.match_count, all.len());
        let stats = counted.stats.unwrap();
        assert_eq!(stats.nodes_visited, idx.config().buckets);
        assert!(
            stats.nodes_visited - stats.nodes_pruned >= 1,
            "at least one bucket must survive the filter"
        );
        assert_eq!(counted.method, "KV-Index");
    }

    #[test]
    fn more_buckets_never_hurt_correctness() {
        let s = store();
        let len = 60;
        let query = s.read(700, len).unwrap();
        let eps = 1.0;
        let expected = Sweepline::new().search(&s, &query, eps).unwrap();
        for buckets in [1, 4, 64, 1024] {
            let idx = KvIndex::build(&s, KvIndexConfig::new(len).with_buckets(buckets)).unwrap();
            assert_eq!(idx.search(&s, &query, eps).unwrap(), expected);
        }
    }

    #[test]
    fn position_interval_len() {
        let i = PositionInterval { start: 3, end: 7 };
        assert_eq!(i.len(), 5);
        assert!(!i.is_empty());
    }

    #[test]
    fn on_append_matches_bulk_build() {
        use ts_core::MaintainableSearcher;
        use ts_storage::AppendableStore;

        let full = insect_like(GeneratorConfig::new(3_000, 77));
        let len = 64;
        let split = 2_000;

        let mut store = InMemorySeries::new(full[..split].to_vec()).unwrap();
        let mut idx = KvIndex::build(&store, KvIndexConfig::new(len)).unwrap();
        // Absorb the suffix in two chunks.
        for chunk in full[split..].chunks(600) {
            store.append(chunk).unwrap();
            let windows = idx.on_append(&store).unwrap();
            assert_eq!(windows, chunk.len());
        }
        assert_eq!(idx.indexed_count(), store.subsequence_count(len));

        let bulk = KvIndex::build(&store, KvIndexConfig::new(len)).unwrap();
        let sweep = Sweepline::new();
        for (start, eps) in [(10usize, 30.0), (1_990, 60.0), (2_500, 90.0)] {
            let query = store.read(start, len).unwrap();
            let expected = sweep.search(&store, &query, eps).unwrap();
            assert_eq!(idx.search(&store, &query, eps).unwrap(), expected);
            assert_eq!(bulk.search(&store, &query, eps).unwrap(), expected);
        }
        // A repeated call with nothing new to index is a no-op.
        assert_eq!(idx.on_append(&store).unwrap(), 0);
    }

    #[test]
    fn on_append_handles_means_outside_the_build_time_grid() {
        use ts_core::MaintainableSearcher;
        use ts_storage::AppendableStore;

        // Build over a low-amplitude prefix, then append a plateau far above
        // every mean the grid was fitted to: the new windows clamp into the
        // last bucket and must still be findable.
        let len = 16;
        let prefix: Vec<f64> = (0..200).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut store = InMemorySeries::new(prefix).unwrap();
        let mut idx = KvIndex::build(&store, KvIndexConfig::new(len).with_buckets(32)).unwrap();

        let plateau = vec![50.0_f64; 80];
        store.append(&plateau).unwrap();
        idx.on_append(&store).unwrap();

        let query = vec![50.0_f64; len];
        let expected = Sweepline::new().search(&store, &query, 0.5).unwrap();
        assert!(!expected.is_empty(), "the plateau must match itself");
        assert_eq!(idx.search(&store, &query, 0.5).unwrap(), expected);
        // Low-range queries still answer exactly.
        let low_query = store.read(50, len).unwrap();
        assert_eq!(
            idx.search(&store, &low_query, 0.4).unwrap(),
            Sweepline::new().search(&store, &low_query, 0.4).unwrap()
        );
    }
}
