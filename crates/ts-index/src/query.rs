//! Query execution: Algorithm 1 (threshold search), a top-k extension, and a
//! work-stealing multi-threaded traversal.
//!
//! The parallel traversal runs on the shared [`ts_core::exec::Executor`]:
//! tree nodes become tasks, and internal nodes near the top of the tree (or
//! whenever the pool is close to starving) are split into one task per child
//! instead of being traversed inline — see [`SplitPolicy::DepthAdaptive`].
//! This keeps every worker busy on *skewed* trees, where the one-level
//! root-children split (retained as [`SplitPolicy::RootChildren`], the
//! baseline measured by the scaling ablation) leaves all but one worker idle
//! as soon as a single subtree dominates.

use std::time::Instant;

use ts_storage::{Result, SeriesStore, StorageError};

use crate::index::TsIndex;
use crate::node::{NodeId, NodeKind};
use ts_core::exec::{Executor, TaskContext};
use ts_core::mbts::packed;
use ts_core::pipeline::{
    finish_outcome, split_filter_time, CandidateSet, Pipeline, Scratch, VerifyOptions,
};
use ts_core::query::{SearchOutcome, SearchStats, TwinQuery};
use ts_core::verify::Verifier;

/// How the multi-threaded traversal turns subtrees into executor tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Split only the root's children into tasks (the pre-work-stealing
    /// behaviour).  On a skewed tree one subtree dominates and all but one
    /// worker go idle; kept as the measured baseline of the
    /// `ablation_shard_scaling` bench.
    RootChildren,
    /// Split internal nodes into per-child tasks while the node is shallow
    /// (`depth < 2`) **or** the pool is close to starving (fewer pending
    /// tasks than twice the worker count), up to a maximum split depth of
    /// 16.  Deeper or well-fed subtrees are traversed inline, so task
    /// bookkeeping stays amortised while skewed trees keep splitting until
    /// every worker has work to steal.
    DepthAdaptive,
}

/// Nodes shallower than this always split (one task per child).
const SPLIT_MIN_DEPTH: u32 = 2;
/// Nodes at or below this depth never split, whatever the queue pressure.
const SPLIT_MAX_DEPTH: u32 = 16;

/// The outcome of one multi-threaded traversal: unsorted matches, exactly
/// merged per-worker statistics, and scheduling telemetry.
#[derive(Debug, Clone)]
pub struct ParallelTraversal {
    /// Matching positions, **unsorted** (workers finish in scheduling
    /// order; callers sort once at the end).
    pub positions: Vec<usize>,
    /// Per-worker statistics merged through [`SearchStats::merge`]: every
    /// node is processed by exactly one task, so `nodes_visited` /
    /// `nodes_pruned` / candidate counters equal the sequential traversal's
    /// exactly.  The filter/verify times are summed across workers
    /// (aggregate CPU time, not wall-clock).
    pub stats: SearchStats,
    /// Worker count of the pool that ran the traversal (1 when the tree was
    /// too small to split or a single worker was requested).
    pub threads_used: usize,
    /// Number of executor tasks the traversal was split into (1 on the
    /// sequential path).  On a skewed tree this is the direct measure of
    /// how much deeper than the root the split reached.
    pub tasks_executed: usize,
}

/// Per-worker state of the parallel traversal: result/statistics
/// accumulators plus the pending candidate set and verification pipeline.
struct TraverseAcc<'q> {
    results: Vec<usize>,
    stats: SearchStats,
    /// Leaf positions collected since the last flush; drained (capacity
    /// kept) by [`TraverseAcc::flush`], so one worker reuses the same
    /// allocation across all its tasks.
    pending: CandidateSet,
    pipeline: Pipeline<'q>,
    /// Scratch stack for inline subtree traversal.
    stack: Vec<NodeId>,
}

impl<'q> TraverseAcc<'q> {
    fn new(query: &'q [f64], epsilon: f64, stack: Vec<NodeId>) -> Self {
        Self {
            results: Vec::new(),
            stats: SearchStats::default(),
            pending: CandidateSet::new(),
            pipeline: Pipeline::new(query, epsilon),
            stack,
        }
    }

    /// Verifies every pending candidate through the pipeline, appending
    /// matches to `results` and folding the verification counters/timing
    /// into `stats`.
    ///
    /// Always exhaustive (no limit-driven early stop): the parallel
    /// traversal's counters must merge to exactly the sequential totals,
    /// so limits are applied by the caller after the sorted merge.
    fn flush<S: SeriesStore>(&mut self, store: &S, collect: bool) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let report = self.pipeline.verify_into(
            &mut self.pending,
            |start, buf| store.read_raw_range_into(start, buf),
            ts_storage::plan_verify_options(store, VerifyOptions::exhaustive(collect)),
            &mut self.results,
        )?;
        self.stats.candidates_verified += report.verified;
        self.stats.verify_time += report.verify_time;
        Ok(())
    }
}

/// One result of a top-k twin query: the subsequence position and its exact
/// Chebyshev distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKMatch {
    /// Starting position of the subsequence.
    pub position: usize,
    /// Chebyshev distance to the query.
    pub distance: f64,
}

impl TsIndex {
    /// Twin subsequence search (Algorithm 1): returns the starting positions
    /// of every subsequence whose Chebyshev distance to `query` is at most
    /// `epsilon`, in increasing order.
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if `query.len()` differs from the
    /// indexed subsequence length, and propagates storage failures.
    pub fn search<S: SeriesStore>(
        &self,
        store: &S,
        query: &[f64],
        epsilon: f64,
    ) -> Result<Vec<usize>> {
        self.validate_query(query)?;
        let Some(root) = self.root else {
            return Ok(Vec::new());
        };
        // Algorithm 1 initialises the candidate list with the root's
        // children; starting from the root itself is equivalent (its check
        // can never prune anything its children would not).  Only the
        // timing split needs `collect`, so this path stays free of clock
        // reads.
        let (mut results, _) = self.traverse(store, query, epsilon, &[root], false)?;
        results.sort_unstable();
        Ok(results)
    }

    /// Counts the twins of `query` without materialising the result list.
    ///
    /// # Errors
    ///
    /// Same as [`TsIndex::search`].
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

    /// Depth-first Algorithm 1 traversal of the subtrees rooted at `roots`:
    /// prune with the MBTS lower bound (Lemma 1, early abandoning), verify
    /// surviving leaf positions.  Returns unsorted matches plus statistics
    /// (timing recorded only when `collect` is set, so the cheap path stays
    /// free of clock reads).
    fn traverse<S: SeriesStore>(
        &self,
        store: &S,
        query: &[f64],
        epsilon: f64,
        roots: &[NodeId],
        collect: bool,
    ) -> Result<(Vec<usize>, SearchStats)> {
        let started = collect.then(Instant::now);
        let mut acc = TraverseAcc::new(query, epsilon, roots.to_vec());
        self.traverse_into(query, epsilon, &mut acc);
        acc.flush(store, collect)?;
        let TraverseAcc {
            results, mut stats, ..
        } = acc;
        if let Some(t) = started {
            stats.filter_time = split_filter_time(t.elapsed(), stats.verify_time);
        }
        Ok((results, stats))
    }

    /// Lemma 1 with early abandoning: `true` as soon as one block of
    /// timestamps escapes the node's envelope by more than `epsilon`, so no
    /// subsequence below the node can be a twin of `query`.
    #[inline]
    fn prunes(&self, node_id: NodeId, query: &[f64], epsilon: f64) -> bool {
        packed::bounded_distance(query, self.envelope(node_id), epsilon).is_none()
    }

    /// The traversal core shared by the sequential path and the inline
    /// (non-splitting) branch of the parallel tasks: drains `acc.stack`,
    /// pruning with the MBTS lower bound and collecting surviving leaf
    /// positions into `acc.pending`.  Pure tree walking — no store access;
    /// the caller flushes the pending set through the pipeline afterwards
    /// (so candidates from every leaf of the subtree coalesce into runs
    /// together) and attributes the filter/verify times.
    fn traverse_into(&self, query: &[f64], epsilon: f64, acc: &mut TraverseAcc<'_>) {
        while let Some(node_id) = acc.stack.pop() {
            acc.stats.nodes_visited += 1;
            if self.prunes(node_id, query, epsilon) {
                acc.stats.nodes_pruned += 1;
                continue;
            }
            match &self.nodes[node_id].kind {
                NodeKind::Internal { children } => acc.stack.extend(children.iter().copied()),
                NodeKind::Leaf { positions } => {
                    acc.stats.candidates_generated += positions.len();
                    acc.pending.extend_from_slice(positions);
                }
            }
        }
    }

    /// Multi-threaded variant of [`TsIndex::search`]: the traversal is run
    /// on a work-stealing pool of (up to) `threads` workers, recursively
    /// splitting subtrees into tasks so skewed trees keep every worker busy
    /// ([`SplitPolicy::DepthAdaptive`]).
    ///
    /// The requested count is clamped to the machine's available
    /// parallelism.  This is an extension beyond the paper (in the spirit of
    /// the ParIS / MESSI line of work cited in §2); results are identical to
    /// the sequential query.
    ///
    /// # Errors
    ///
    /// Same as [`TsIndex::search`].
    pub fn search_parallel<S: SeriesStore + Sync>(
        &self,
        store: &S,
        query: &[f64],
        epsilon: f64,
        threads: usize,
    ) -> Result<Vec<usize>> {
        let mut traversal = self.traverse_with(
            store,
            query,
            epsilon,
            &Executor::new(threads),
            SplitPolicy::DepthAdaptive,
            false,
        )?;
        traversal.positions.sort_unstable();
        Ok(traversal.positions)
    }

    /// The work-stealing traversal behind [`TsIndex::search_parallel`] and
    /// [`TsIndex::execute`], with the pool and split policy chosen by the
    /// caller (the scaling ablation and the executor tests construct
    /// [`Executor::exact`] pools to compare policies and to exercise
    /// multi-worker scheduling on machines with few cores).
    ///
    /// Falls back to the sequential traversal (reported as `threads_used ==
    /// 1`) for single-worker pools, empty trees and leaf-only trees.  See
    /// [`ParallelTraversal`] for the exactness guarantees.
    ///
    /// # Errors
    ///
    /// Same as [`TsIndex::search`].
    pub fn traverse_with<S: SeriesStore + Sync>(
        &self,
        store: &S,
        query: &[f64],
        epsilon: f64,
        pool: &Executor,
        policy: SplitPolicy,
        collect: bool,
    ) -> Result<ParallelTraversal> {
        self.validate_query(query)?;
        let Some(root) = self.root else {
            return Ok(ParallelTraversal {
                positions: Vec::new(),
                stats: SearchStats::default(),
                threads_used: 1,
                tasks_executed: 0,
            });
        };
        if pool.threads() <= 1 || matches!(self.nodes[root].kind, NodeKind::Leaf { .. }) {
            let (positions, stats) = self.traverse(store, query, epsilon, &[root], collect)?;
            return Ok(ParallelTraversal {
                positions,
                stats,
                threads_used: 1,
                tasks_executed: 1,
            });
        }

        let init = || TraverseAcc::new(query, epsilon, Vec::new());
        let process = |(node_id, depth): (NodeId, u32),
                       ctx: &mut TaskContext<'_, (NodeId, u32)>,
                       acc: &mut TraverseAcc<'_>|
         -> Result<()> {
            let started = collect.then(Instant::now);
            let verify_before = acc.stats.verify_time;
            acc.stats.nodes_visited += 1;
            if self.prunes(node_id, query, epsilon) {
                acc.stats.nodes_pruned += 1;
            } else {
                match &self.nodes[node_id].kind {
                    NodeKind::Leaf { positions } => {
                        acc.stats.candidates_generated += positions.len();
                        acc.pending.extend_from_slice(positions);
                    }
                    NodeKind::Internal { children } => {
                        let split = match policy {
                            // Baseline: only the root (depth 0) fans out.
                            SplitPolicy::RootChildren => depth == 0,
                            SplitPolicy::DepthAdaptive => {
                                depth < SPLIT_MIN_DEPTH
                                    || (depth < SPLIT_MAX_DEPTH
                                        && ctx.pending() < ctx.threads() * 2)
                            }
                        };
                        if split {
                            for &child in children {
                                ctx.spawn((child, depth + 1));
                            }
                        } else {
                            debug_assert!(acc.stack.is_empty());
                            acc.stack.extend(children.iter().copied());
                            self.traverse_into(query, epsilon, acc);
                        }
                    }
                }
            }
            // Flush the candidates this task collected before the timing
            // attribution, so its verify share lands inside the task.
            acc.flush(store, collect)?;
            if let Some(t) = started {
                // This task's filter share: everything it spent outside leaf
                // verification (summed across workers — aggregate CPU time).
                let verify_delta = acc.stats.verify_time.saturating_sub(verify_before);
                acc.stats.filter_time += split_filter_time(t.elapsed(), verify_delta);
            }
            Ok(())
        };
        let traversal = pool.traverse(vec![(root, 0u32)], init, process)?;

        let mut positions = Vec::new();
        let mut stats = SearchStats::default();
        for acc in traversal.accumulators {
            positions.extend(acc.results);
            stats.merge(acc.stats);
        }
        Ok(ParallelTraversal {
            positions,
            stats,
            threads_used: traversal.threads,
            tasks_executed: traversal.tasks_executed,
        })
    }

    /// Answers a [`TwinQuery`]: the uniform, instrumented entry point.
    ///
    /// A query carrying [`TwinQuery::parallel`] with more than one (clamped)
    /// thread is routed through the work-stealing traversal
    /// ([`SplitPolicy::DepthAdaptive`]); the outcome's
    /// [`SearchOutcome::threads_used`] reports the pool's worker count (1
    /// when the tree was too small to split or only one worker was
    /// available).
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
        let collect = query.wants_stats();
        let traversal = self.traverse_with(
            store,
            query.values(),
            query.epsilon(),
            &Executor::new(query.threads()),
            SplitPolicy::DepthAdaptive,
            collect,
        )?;
        let ParallelTraversal {
            mut positions,
            stats,
            threads_used,
            ..
        } = traversal;
        // A count-only query without a limit needs neither order nor the
        // positions themselves — skip the sort.
        if query.result_limit().is_some() || !query.is_count_only() {
            positions.sort_unstable();
        }
        if let Some(limit) = query.result_limit() {
            positions.truncate(limit);
        }
        let match_count = positions.len();
        if query.is_count_only() {
            positions = Vec::new();
        }
        // `finish_outcome` derives the sequential filter split; the parallel
        // path keeps the summed per-worker times already in `stats` (which
        // can exceed wall-clock by design).
        Ok(finish_outcome(
            "TS-Index",
            started,
            query,
            positions,
            match_count,
            threads_used,
            stats,
        ))
    }

    /// Returns the `k` subsequences closest to `query` under Chebyshev
    /// distance (ties broken by position), ordered by increasing distance.
    ///
    /// This is an extension beyond the paper: the same MBTS lower bound that
    /// drives Algorithm 1 is used to prune subtrees that cannot improve the
    /// current k-th best distance.
    ///
    /// # Errors
    ///
    /// Same as [`TsIndex::search`].
    pub fn top_k<S: SeriesStore>(
        &self,
        store: &S,
        query: &[f64],
        k: usize,
    ) -> Result<Vec<TopKMatch>> {
        self.validate_query(query)?;
        if k == 0 {
            return Ok(Vec::new());
        }
        let Some(root) = self.root else {
            return Ok(Vec::new());
        };
        let verifier = Verifier::new(query);
        let mut buf = Scratch::take(query.len());
        // Max-heap on distance keeps the k best seen so far.
        let mut best: Vec<TopKMatch> = Vec::with_capacity(k + 1);
        let mut bound = f64::INFINITY;
        // Depth-first traversal ordered by MBTS distance (closest child
        // first) so the bound tightens quickly.
        let mut stack: Vec<(f64, NodeId)> = vec![(0.0, root)];
        while let Some((lower_bound, node_id)) = stack.pop() {
            if lower_bound > bound {
                continue;
            }
            match &self.nodes[node_id].kind {
                NodeKind::Internal { children } => {
                    let mut ordered: Vec<(f64, NodeId)> = children
                        .iter()
                        .filter_map(|&c| {
                            packed::bounded_distance(query, self.envelope(c), bound).map(|d| (d, c))
                        })
                        .collect();
                    // Push the farthest first so the closest is popped next.
                    ordered
                        .sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
                    stack.extend(ordered);
                }
                NodeKind::Leaf { positions } => {
                    for &p in positions {
                        store.read_into(p as usize, &mut buf)?;
                        let d = verifier.chebyshev(&buf);
                        if d < bound || best.len() < k {
                            best.push(TopKMatch {
                                position: p as usize,
                                distance: d,
                            });
                            best.sort_by(|a, b| {
                                a.distance
                                    .partial_cmp(&b.distance)
                                    .unwrap_or(std::cmp::Ordering::Equal)
                                    .then(a.position.cmp(&b.position))
                            });
                            best.truncate(k);
                            if best.len() == k {
                                bound = best[k - 1].distance;
                            }
                        }
                    }
                }
            }
        }
        Ok(best)
    }

    fn validate_query(&self, query: &[f64]) -> Result<()> {
        if query.len() != self.config.subsequence_len {
            return Err(StorageError::Core(ts_core::TsError::LengthMismatch {
                left: query.len(),
                right: self.config.subsequence_len,
            }));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TsIndexConfig;
    use ts_data::generators::{eeg_like, insect_like, GeneratorConfig};
    use ts_storage::{InMemorySeries, PerSubsequenceNormalized};
    use ts_sweep::Sweepline;

    fn store(n: usize) -> InMemorySeries {
        InMemorySeries::new_znormalized(&insect_like(GeneratorConfig::new(n, 23))).unwrap()
    }

    fn config(len: usize) -> TsIndexConfig {
        TsIndexConfig::new(len)
            .unwrap()
            .with_capacities(4, 10)
            .unwrap()
    }

    #[test]
    fn results_match_sweepline_exactly() {
        let s = store(3_000);
        let len = 100;
        let idx = TsIndex::build(&s, config(len)).unwrap();
        let sweep = Sweepline::new();
        for (start, eps) in [(7usize, 0.5), (800, 1.0), (2_500, 1.5), (1_600, 0.75)] {
            let query = s.read(start, len).unwrap();
            let expected = sweep.search(&s, &query, eps).unwrap();
            let got = idx.search(&s, &query, eps).unwrap();
            assert_eq!(got, expected, "start={start} eps={eps}");
            assert!(got.contains(&start), "self-match must be found");
        }
    }

    #[test]
    fn matches_sweepline_on_eeg_like_data() {
        let s = InMemorySeries::new_znormalized(&eeg_like(GeneratorConfig::new(4_000, 3))).unwrap();
        let len = 100;
        let idx = TsIndex::build(&s, config(len)).unwrap();
        let query = s.read(2_000, len).unwrap();
        for eps in [0.1, 0.3, 0.5] {
            assert_eq!(
                idx.search(&s, &query, eps).unwrap(),
                Sweepline::new().search(&s, &query, eps).unwrap()
            );
        }
    }

    #[test]
    fn works_under_per_subsequence_normalization() {
        let raw = InMemorySeries::new(insect_like(GeneratorConfig::new(2_000, 31))).unwrap();
        let norm = PerSubsequenceNormalized::new(raw);
        let len = 80;
        let idx = TsIndex::build(&norm, config(len)).unwrap();
        let query = norm.read(444, len).unwrap();
        for eps in [0.2, 0.5] {
            assert_eq!(
                idx.search(&norm, &query, eps).unwrap(),
                Sweepline::new().search(&norm, &query, eps).unwrap()
            );
        }
    }

    #[test]
    fn works_on_raw_values() {
        let s = InMemorySeries::new(insect_like(GeneratorConfig::new(2_500, 7))).unwrap();
        let len = 100;
        let idx = TsIndex::build(&s, config(len)).unwrap();
        let query = s.read(1_000, len).unwrap();
        for eps in [0.5, 2.0] {
            assert_eq!(
                idx.search(&s, &query, eps).unwrap(),
                Sweepline::new().search(&s, &query, eps).unwrap()
            );
        }
    }

    #[test]
    fn stats_are_consistent_and_pruning_happens() {
        let s = store(4_000);
        let len = 100;
        let idx = TsIndex::build(&s, config(len)).unwrap();
        let query = s.read(50, len).unwrap();
        let outcome = idx
            .execute(&s, &TwinQuery::new(query.clone(), 0.5).collect_stats())
            .unwrap();
        let stats = outcome.stats.unwrap();
        assert_eq!(outcome.match_count, outcome.positions.len());
        assert!(stats.candidates_generated >= outcome.match_count);
        assert!(
            stats.candidates_generated < s.subsequence_count(len),
            "must prune"
        );
        assert!(stats.nodes_pruned > 0);
        assert_eq!(idx.count(&s, &query, 0.5).unwrap(), outcome.match_count);
    }

    #[test]
    fn empty_threshold_still_finds_self() {
        let s = store(1_000);
        let len = 60;
        let idx = TsIndex::build(&s, config(len)).unwrap();
        let query = s.read(123, len).unwrap();
        let hits = idx.search(&s, &query, 0.0).unwrap();
        assert!(hits.contains(&123));
    }

    #[test]
    fn rejects_wrong_query_length() {
        let s = store(500);
        let idx = TsIndex::build(&s, config(50)).unwrap();
        assert!(idx.search(&s, &vec![0.0; 49], 0.5).is_err());
        assert!(idx.top_k(&s, &vec![0.0; 49], 3).is_err());
        assert!(idx.search_parallel(&s, &vec![0.0; 49], 0.5, 2).is_err());
    }

    #[test]
    fn parallel_matches_sequential() {
        let s = store(5_000);
        let len = 100;
        let idx = TsIndex::build(&s, config(len)).unwrap();
        for start in [10usize, 2_000, 4_000] {
            let query = s.read(start, len).unwrap();
            let sequential = idx.search(&s, &query, 1.0).unwrap();
            for threads in [1, 2, 4, 16] {
                assert_eq!(
                    idx.search_parallel(&s, &query, 1.0, threads).unwrap(),
                    sequential
                );
            }
        }
    }

    #[test]
    fn execute_routes_parallel_and_reports_stats() {
        let s = store(5_000);
        let len = 100;
        let idx = TsIndex::build(&s, config(len)).unwrap();
        let query = s.read(2_000, len).unwrap();
        let sequential = idx.search(&s, &query, 1.0).unwrap();

        let outcome = idx
            .execute(
                &s,
                &TwinQuery::new(query.clone(), 1.0)
                    .parallel(4)
                    .collect_stats(),
            )
            .unwrap();
        assert_eq!(outcome.positions, sequential);
        assert_eq!(outcome.match_count, sequential.len());
        assert_eq!(
            outcome.threads_used,
            ts_core::exec::clamp_threads(4),
            "the outcome reports the clamped pool width (1 on a 1-core box)"
        );
        assert!(outcome.stats_consistent());
        let stats = outcome.stats.unwrap();
        assert!(stats.nodes_pruned > 0);
        assert_eq!(outcome.method, "TS-Index");

        // Options compose with the parallel path.
        let limited = idx
            .execute(&s, &TwinQuery::new(query.clone(), 1.0).parallel(4).limit(3))
            .unwrap();
        assert_eq!(limited.positions, sequential[..3.min(sequential.len())]);
        let counted = idx
            .execute(&s, &TwinQuery::new(query, 1.0).count_only())
            .unwrap();
        assert!(counted.positions.is_empty());
        assert_eq!(counted.match_count, sequential.len());
    }

    /// A deliberately unbalanced series (see
    /// [`ts_data::generators::skewed_like`]): the one-level root split
    /// serialises on the dominant child here; the depth-adaptive split keeps
    /// splitting inside it.
    fn skewed_store(n: usize) -> InMemorySeries {
        InMemorySeries::new(ts_data::generators::skewed_like(
            GeneratorConfig::new(n, 0x5EED),
            0.15,
        ))
        .unwrap()
    }

    #[test]
    fn work_stealing_matches_sequential_on_skewed_tree() {
        let s = skewed_store(6_000);
        let len = 100;
        let idx = TsIndex::build(&s, config(len)).unwrap();
        for start in [50usize, 3_000, 5_500] {
            let query = s.read(start, len).unwrap();
            for eps in [0.05, 0.5, 5.0] {
                let outcome = idx
                    .execute(&s, &TwinQuery::new(query.clone(), eps).collect_stats())
                    .unwrap();
                let (sequential, seq_stats) = (outcome.positions, outcome.stats.unwrap());
                // `Executor::exact` bypasses the clamp so multi-worker
                // stealing is exercised even on a single-core container.
                for threads in [2usize, 3, 4, 8] {
                    for policy in [SplitPolicy::RootChildren, SplitPolicy::DepthAdaptive] {
                        let mut traversal = idx
                            .traverse_with(&s, &query, eps, &Executor::exact(threads), policy, true)
                            .unwrap();
                        traversal.positions.sort_unstable();
                        assert_eq!(
                            traversal.positions, sequential,
                            "{policy:?} at {threads} threads (start={start}, eps={eps})"
                        );
                        assert_eq!(traversal.threads_used, threads);
                        // Exact stats merge: node counters must equal the
                        // sequential traversal's exactly.
                        assert_eq!(traversal.stats.nodes_visited, seq_stats.nodes_visited);
                        assert_eq!(traversal.stats.nodes_pruned, seq_stats.nodes_pruned);
                        assert_eq!(
                            traversal.stats.candidates_generated,
                            seq_stats.candidates_generated
                        );
                        assert_eq!(
                            traversal.stats.candidates_verified,
                            traversal.stats.candidates_generated
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn depth_split_engages_more_workers_than_root_split_on_skewed_tree() {
        let s = skewed_store(8_000);
        let len = 100;
        let idx = TsIndex::build(&s, config(len)).unwrap();
        let query = s.read(1_000, len).unwrap();
        let eps = 1.0;
        let pool = Executor::exact(4);

        let root = idx
            .traverse_with(&s, &query, eps, &pool, SplitPolicy::RootChildren, false)
            .unwrap();
        let depth = idx
            .traverse_with(&s, &query, eps, &pool, SplitPolicy::DepthAdaptive, false)
            .unwrap();

        // The satellite assertion: a deliberately unbalanced tree still
        // reports a multi-worker traversal.
        assert!(
            depth.threads_used > 1,
            "threads_used = {}",
            depth.threads_used
        );
        assert_eq!(depth.threads_used, 4);

        // Root-split produces exactly (1 + root children) tasks; the
        // depth-adaptive policy must split strictly deeper than that, which
        // is what lets idle workers steal inside the dominant subtree.
        assert!(
            depth.tasks_executed > root.tasks_executed,
            "depth-adaptive split produced {} tasks vs root-split {}",
            depth.tasks_executed,
            root.tasks_executed
        );

        let mut a = root.positions.clone();
        let mut b = depth.positions.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "both policies agree on the result set");

        // Wall-clock superiority needs real cores; only measurable where
        // the machine actually has them.
        if ts_core::exec::available_parallelism() >= 4 {
            let best = |policy: SplitPolicy| {
                (0..3)
                    .map(|_| {
                        let started = std::time::Instant::now();
                        idx.traverse_with(&s, &query, eps, &pool, policy, false)
                            .unwrap();
                        started.elapsed()
                    })
                    .min()
                    .unwrap()
            };
            let root_best = best(SplitPolicy::RootChildren);
            let depth_best = best(SplitPolicy::DepthAdaptive);
            assert!(
                depth_best < root_best.mul_f64(1.25),
                "depth split must not lose to root split on a skewed tree \
                 ({depth_best:?} vs {root_best:?})"
            );
        }
    }

    #[test]
    fn top_k_matches_brute_force() {
        let s = store(2_000);
        let len = 50;
        let idx = TsIndex::build(&s, config(len)).unwrap();
        let query = s.read(700, len).unwrap();
        for k in [1usize, 5, 20] {
            let got = idx.top_k(&s, &query, k).unwrap();
            assert_eq!(got.len(), k.min(s.subsequence_count(len)));
            // Brute force.
            let mut all: Vec<TopKMatch> = (0..s.subsequence_count(len))
                .map(|p| {
                    let cand = s.read(p, len).unwrap();
                    TopKMatch {
                        position: p,
                        distance: ts_core::distance::chebyshev(&query, &cand).unwrap(),
                    }
                })
                .collect();
            all.sort_by(|a, b| {
                a.distance
                    .partial_cmp(&b.distance)
                    .unwrap()
                    .then(a.position.cmp(&b.position))
            });
            for (g, e) in got.iter().zip(all.iter().take(k)) {
                assert!((g.distance - e.distance).abs() < 1e-12);
            }
            // Distances are non-decreasing.
            assert!(got.windows(2).all(|w| w[0].distance <= w[1].distance));
            // k=1 must be the query itself at distance 0.
            if k == 1 {
                assert_eq!(got[0].position, 700);
                assert_eq!(got[0].distance, 0.0);
            }
        }
        assert!(idx.top_k(&s, &query, 0).unwrap().is_empty());
    }

    #[test]
    fn larger_epsilon_is_superset() {
        let s = store(2_500);
        let len = 100;
        let idx = TsIndex::build(&s, config(len)).unwrap();
        let query = s.read(1_111, len).unwrap();
        let small = idx.search(&s, &query, 0.4).unwrap();
        let large = idx.search(&s, &query, 1.4).unwrap();
        for p in &small {
            assert!(large.contains(p));
        }
        assert!(small.len() <= large.len());
    }
}
