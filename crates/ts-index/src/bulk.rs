//! Top-down bulk loading: how a TS-Index is built from a series.
//!
//! The paper grows the tree by inserting one window after the other (§5.2).
//! Consecutive windows overlap in `l − 1` points, so that order packs
//! near-identical envelopes into siblings and the internal levels prune
//! little (at ε = 0.2 on z-normalised EEG, level 3 cuts 23 % of the nodes a
//! query visits there and 70 % of all leaves are checked).  [`TsIndex::build`]
//! therefore sees the whole window set at once and partitions it top-down,
//! in the k-d / top-down-greedy family of R-tree bulk loaders (the paper's
//! own §2 points at iSAX 2.0's bulk loading):
//!
//! 1. **Grouping values.**  The series is fetched once
//!    (`read_raw_range_into(0, ..)`); window `p` at timestamp `t` is
//!    `series[p + t]`, or its rolling z-score when the store normalises each
//!    window.  No per-window read; the values steer the grouping only and
//!    may be approximate.
//! 2. **Partition.**  A group of more than `M_c` windows is split at the
//!    median of the timestamp whose values vary most over a fixed stride
//!    sample of the group, at a count that leaves both halves a whole number
//!    of leaves; a group of at most `M_c` is a leaf.  `O(n log n)`, no
//!    randomness, `⌈n / M_c⌉` leaves all within the capacity bounds whatever
//!    the values are (`f64::total_cmp` orders `NaN` and `±∞` too).
//! 3. **Envelopes.**  Leaf envelopes are the union of the **exact** windows
//!    `read_into` returns, visited in position order so a block-cached store
//!    reads sequentially.
//! 4. **Upper levels.**  Leaves, in recursion order, are packed under parents
//!    in balanced runs of at most `M_c` until one root remains, so siblings
//!    are neighbours in the envelope arena.
//!
//! The same windows give half the nodes of the inserted tree, level 3 prunes
//! 63 %, a query checks 30 % of the leaves, and the build is an order of
//! magnitude faster.  §5.2 insertion is the maintenance path
//! (`on_append`): a live index is a bulk-built base that grows by insertion.
//! The `ablations` bench of `ts-bench` measures built against grown.

use std::ops::Range;

use ts_core::mbts::packed;
use ts_core::normalize::MIN_STD_DEV;
use ts_core::pipeline::Scratch;
use ts_core::stats::rolling_mean_std_into;
use ts_storage::{Result, SeriesStore, StorageError};

use crate::config::TsIndexConfig;
use crate::index::TsIndex;
use crate::node::Node;

/// Most group members the split-timestamp choice looks at.
const VARIANCE_SAMPLE: usize = 256;

impl TsIndex {
    /// Builds the index over every `config.subsequence_len`-length
    /// subsequence of `store` by top-down bulk loading (see the module
    /// docs): the tree is valid under [`TsIndex::check_invariants`], answers
    /// exactly like one grown by §5.2 insertion, and two builds of one input
    /// are identical.
    ///
    /// Transient memory is 16 bytes per value of the series (its copy, the
    /// position array and a window-to-leaf table) plus 16 more when the
    /// store normalises per window (rolling statistics).
    ///
    /// # Errors
    ///
    /// Returns an error when the store has no subsequence of the configured
    /// length (or more than `u32::MAX`) and propagates storage failures.
    pub fn build<S: SeriesStore>(store: &S, config: TsIndexConfig) -> Result<Self> {
        let len = config.subsequence_len;
        let count = store.subsequence_count(len);
        if count == 0 || u32::try_from(count).is_err() {
            return Err(StorageError::Core(ts_core::TsError::InvalidParameter(
                format!(
                    "series of length {} has {count} subsequences of length {len}",
                    store.len()
                ),
            )));
        }
        let mut index = Self::empty(config);
        index.entries = count;

        // Partition the windows into leaves (envelopes come later).
        let mut leaf_of = vec![0_u32; count];
        let mut positions: Vec<u32> = (0..count as u32).collect();
        Windows::fetch(store, len)?.partition(
            &mut positions,
            config.max_capacity,
            &mut |members| {
                let leaf = index.nodes.len() as u32;
                for &p in members {
                    leaf_of[p as usize] = leaf;
                }
                index.nodes.push(Node::leaf(None, members.to_vec()));
            },
        );

        // Leaf envelopes from the exact windows, in position order: the
        // first member of a leaf sets its slot, the others expand it.
        let leaves = index.nodes.len();
        let stride = index.stride();
        index.envelopes.resize(leaves * stride, 0.0);
        let mut started = vec![false; leaves];
        let mut buf = Scratch::take(len);
        for (position, &leaf) in leaf_of.iter().enumerate() {
            store.read_into(position, &mut buf)?;
            let leaf = leaf as usize;
            let slot = &mut index.envelopes[leaf * stride..(leaf + 1) * stride];
            if std::mem::replace(&mut started[leaf], true) {
                packed::expand_with_sequence(slot, &buf);
            } else {
                packed::pack_sequence(&buf, slot);
            }
        }

        // Pack each level (a contiguous id range) under parents until one
        // node remains.
        let mut level = 0..leaves;
        while level.len() > 1 {
            for chunk in partition_sizes(level.len(), config.max_capacity) {
                index
                    .push_parent_of((level.start + chunk.start..level.start + chunk.end).collect());
            }
            level = level.end..index.nodes.len();
        }
        index.root = Some(level.start);
        index.release_slack();
        Ok(index)
    }
}

/// The grouping values of every window of a series: window `p` at timestamp
/// `t` is `(series[p + t] − shift) · scale`.
struct Windows {
    series: Vec<f64>,
    /// Per-window `[shift, scale]` pairs (mean and reciprocal standard
    /// deviation) when the store z-normalises each window; `None` reads the
    /// series as it is.
    norm: Option<Vec<f64>>,
    len: usize,
}

impl Windows {
    fn fetch<S: SeriesStore>(store: &S, len: usize) -> Result<Self> {
        let mut series = vec![0.0; store.len()];
        store.read_raw_range_into(0, &mut series)?;
        let norm = store.normalizes_per_window().then(|| {
            let mut norm = vec![0.0; 2 * (series.len() - len + 1)];
            rolling_mean_std_into(&series, len, &mut norm);
            // Centre-only below the z-normalisation's own floor.
            for pair in norm.chunks_exact_mut(2) {
                pair[1] = if pair[1] < MIN_STD_DEV {
                    1.0
                } else {
                    1.0 / pair[1]
                };
            }
            norm
        });
        Ok(Self { series, norm, len })
    }

    #[inline]
    fn shift_scale(&self, p: u32) -> (f64, f64) {
        match &self.norm {
            Some(norm) => (norm[2 * p as usize], norm[2 * p as usize + 1]),
            None => (0.0, 1.0),
        }
    }

    #[inline]
    fn value(&self, p: u32, t: usize) -> f64 {
        let (shift, scale) = self.shift_scale(p);
        (self.series[p as usize + t] - shift) * scale
    }

    /// Reorders `group` so every leaf's members are contiguous and hands
    /// each leaf to `leaf`, left to right.
    fn partition(&self, group: &mut [u32], max: usize, leaf: &mut impl FnMut(&[u32])) {
        let n = group.len();
        if n <= max {
            leaf(group);
            return;
        }
        // `n > (leaves − 1) · max`, so each half is again more than
        // `(its leaves − 1) · max` and at most `its leaves · max` windows:
        // no leaf ends up above `max` or (as `2 · min ≤ max`) below `min`.
        let leaves = n.div_ceil(max);
        let mid = n * (leaves / 2) / leaves;
        let t = self.widest_timestamp(group);
        group.select_nth_unstable_by(mid, |&a, &b| self.value(a, t).total_cmp(&self.value(b, t)));
        let (left, right) = group.split_at_mut(mid);
        self.partition(left, max, leaf);
        self.partition(right, max, leaf);
    }

    /// The timestamp at which the windows of `group` vary most, judged on
    /// every `⌈n / 256⌉`-th member (sums are taken around the first sampled
    /// window, so a large common offset does not cancel the variance away).
    fn widest_timestamp(&self, group: &[u32]) -> usize {
        let len = self.len;
        let window = |p: u32| &self.series[p as usize..p as usize + len];

        let (shift, scale) = self.shift_scale(group[0]);
        let pivot: Vec<f64> = window(group[0])
            .iter()
            .map(|&v| (v - shift) * scale)
            .collect();
        let mut sum = vec![0.0; len];
        let mut squares = vec![0.0; len];
        let step = group.len().div_ceil(VARIANCE_SAMPLE);
        let sampled = group.len().div_ceil(step) as f64;
        for &p in group.iter().step_by(step) {
            let (shift, scale) = self.shift_scale(p);
            for (((sum, square), &pivot), &v) in sum
                .iter_mut()
                .zip(squares.iter_mut())
                .zip(&pivot)
                .zip(window(p))
            {
                let d = (v - shift) * scale - pivot;
                *sum += d;
                *square += d * d;
            }
        }
        let spread = |t: usize| squares[t] - sum[t] * sum[t] / sampled;
        (0..len)
            .max_by(|&a, &b| spread(a).total_cmp(&spread(b)))
            .unwrap_or(0)
    }
}

/// Splits `count` items into `⌈count / max⌉` contiguous runs whose lengths
/// differ by at most one: none longer than `max`, and none shorter than
/// `max / 2` when there is more than one.
fn partition_sizes(count: usize, max: usize) -> impl Iterator<Item = Range<usize>> {
    let runs = count.div_ceil(max);
    (0..runs).map(move |i| i * count / runs..(i + 1) * count / runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_core::query::TwinQuery;
    use ts_core::MaintainableSearcher;
    use ts_data::generators::{eeg_like, insect_like, GeneratorConfig};
    use ts_storage::{InMemorySeries, PerSubsequenceNormalized};
    use ts_sweep::Sweepline;

    fn store(n: usize) -> InMemorySeries {
        InMemorySeries::new_znormalized(&insect_like(GeneratorConfig::new(n, 41))).unwrap()
    }

    fn capacities(len: usize, min: usize, max: usize) -> TsIndexConfig {
        TsIndexConfig::new(len)
            .unwrap()
            .with_capacities(min, max)
            .unwrap()
    }

    fn config(len: usize) -> TsIndexConfig {
        capacities(len, 4, 10)
    }

    /// The §5.2 tree: every window inserted in position order.
    fn grown<S: SeriesStore>(store: &S, config: TsIndexConfig) -> TsIndex {
        let mut index = TsIndex::empty(config);
        index.on_append(store).unwrap();
        index
    }

    #[test]
    fn partition_sizes_respects_bounds() {
        for (count, max, min) in [
            (100usize, 10usize, 4usize),
            (7, 10, 4),
            (23, 10, 4),
            (101, 30, 10),
            (11, 10, 4),
            (31, 30, 15),
            (9, 8, 3),
        ] {
            let chunks: Vec<_> = partition_sizes(count, max).collect();
            assert_eq!(chunks.len(), count.div_ceil(max));
            let mut expected_start = 0;
            for c in &chunks {
                assert_eq!(c.start, expected_start, "chunks must be contiguous");
                expected_start = c.end;
                assert!(c.len() <= max);
                if count >= min {
                    assert!(c.len() >= min, "chunk {c:?} below min for count={count}");
                }
            }
            assert_eq!(expected_start, count);
        }
        assert_eq!(partition_sizes(0, 10).count(), 0);
        assert_eq!(partition_sizes(3, 10).collect::<Vec<_>>(), vec![0..3]);
    }

    #[test]
    fn bulk_build_indexes_everything_and_keeps_invariants() {
        let s = store(3_000);
        let idx = TsIndex::build(&s, config(60)).unwrap();
        assert_eq!(idx.indexed_count(), s.subsequence_count(60));
        assert_eq!(idx.check_invariants(), None);
        assert!(idx.height() > 1);
        // The fewest leaves the capacity allows.
        assert_eq!(idx.stats().leaves, s.subsequence_count(60).div_ceil(10));
    }

    #[test]
    fn bulk_build_answers_queries_identically_to_incremental() {
        let s = store(2_500);
        let len = 100;
        let incremental = grown(&s, config(len));
        let bulk = TsIndex::build(&s, config(len)).unwrap();
        let sweep = Sweepline::new();
        for (start, eps) in [(5usize, 0.5), (1_200, 1.0), (2_300, 1.5)] {
            let query = s.read(start, len).unwrap();
            let expected = sweep.search(&s, &query, eps).unwrap();
            assert_eq!(incremental.search(&s, &query, eps).unwrap(), expected);
            assert_eq!(bulk.search(&s, &query, eps).unwrap(), expected);
        }
    }

    #[test]
    fn bulk_build_single_leaf_case() {
        let s = store(70);
        let idx = TsIndex::build(&s, TsIndexConfig::new(50).unwrap()).unwrap();
        assert_eq!(idx.height(), 1);
        assert_eq!(idx.check_invariants(), None);
        let q = s.read(3, 50).unwrap();
        assert!(idx.search(&s, &q, 0.1).unwrap().contains(&3));
    }

    #[test]
    fn every_count_around_a_leaf_boundary_gives_a_valid_tree() {
        let len = 20;
        let values = insect_like(GeneratorConfig::new(len + 2 * 30, 9));
        for (min, max) in [(3usize, 8usize), (4, 10), (10, 30)] {
            let config = capacities(len, min, max);
            for count in [1, max, max + 1, 2 * max + 1] {
                let s = InMemorySeries::new(values[..len + count - 1].to_vec()).unwrap();
                let idx = TsIndex::build(&s, config).unwrap();
                let what = format!("capacities ({min}, {max}), {count} windows");
                assert_eq!(idx.indexed_count(), count, "{what}");
                assert_eq!(idx.check_invariants(), None, "{what}");
                assert_eq!(idx.stats().leaves, count.div_ceil(max), "{what}");
                assert_eq!(idx.height(), if count > max { 2 } else { 1 }, "{what}");
            }
        }
    }

    /// A store that takes any `f64`, as a file-backed store does
    /// (`InMemorySeries` rejects non-finite values at construction).
    struct Unchecked(Vec<f64>);

    impl SeriesStore for Unchecked {
        fn len(&self) -> usize {
            self.0.len()
        }

        fn read_into(&self, start: usize, buf: &mut [f64]) -> Result<()> {
            buf.copy_from_slice(&self.0[start..start + buf.len()]);
            Ok(())
        }
    }

    /// Brute-force answer by the definition the verifier uses: a window is
    /// a twin unless some timestamp differs by more than `eps` (a `NaN`
    /// difference never does).
    fn scan<S: SeriesStore>(store: &S, query: &[f64], eps: f64) -> Vec<usize> {
        (0..store.subsequence_count(query.len()))
            .filter(|&p| {
                let window = store.read(p, query.len()).unwrap();
                !query.iter().zip(&window).any(|(q, w)| (q - w).abs() > eps)
            })
            .collect()
    }

    #[test]
    fn degenerate_and_hostile_values_cannot_unbalance_the_loader() {
        let len = 16;
        let n = 700;
        let walk = insect_like(GeneratorConfig::new(n, 3));
        let constant = vec![2.5; n];
        let two_valued: Vec<f64> = (0..n).map(|i| f64::from(i % 7 < 3)).collect();
        let mut infinite = walk.clone();
        infinite[100..140].fill(f64::INFINITY);
        infinite[400..420].fill(f64::NEG_INFINITY);
        for (what, values) in [
            ("constant", &constant),
            ("two-valued", &two_valued),
            ("±∞ stretches", &infinite),
        ] {
            for (min, max) in [(3usize, 8usize), (10, 30)] {
                let config = capacities(len, min, max);
                let raw = Unchecked(values.clone());
                let built = TsIndex::build(&raw, config).unwrap();
                assert_eq!(built.check_invariants(), None, "{what}");
                assert_eq!(built.stats().leaves, (n - len + 1).div_ceil(max), "{what}");
                let incremental = grown(&raw, config);
                for start in [0usize, 95, 130, 333, 410, n - len] {
                    let query = raw.read(start, len).unwrap();
                    for eps in [0.0, 0.3, 5.0] {
                        let expected = scan(&raw, &query, eps);
                        assert_eq!(built.search(&raw, &query, eps).unwrap(), expected);
                        assert_eq!(incremental.search(&raw, &query, eps).unwrap(), expected);
                    }
                }
                // The per-window regime takes the rolling-statistics path.
                let per_window = PerSubsequenceNormalized::new(raw);
                let built = TsIndex::build(&per_window, config).unwrap();
                assert_eq!(built.check_invariants(), None, "{what}, per window");
            }
        }
    }

    #[test]
    fn nan_stretches_neither_panic_nor_break_the_tree() {
        // A `NaN` inside an indexed window is outside the envelope contract:
        // a `NaN` member never widens a bound while the verifier lets a
        // `NaN` difference pass, so which `NaN`-holding windows a tree
        // reaches depends on its grouping — for the grown tree as for the
        // built one (and the pipeline's rolling statistics carry a `NaN`
        // down the rest of a run).  What the loader owes on such input is no
        // panic and a valid tree, on a plain store only true twins; with
        // `NaN` in the query alone, the exact answer.
        #[derive(PartialEq)]
        enum Expect {
            NoPanic,
            Sound,
            Exact,
        }
        fn check<S: SeriesStore>(store: &S, config: TsIndexConfig, expect: Expect) {
            let len = config.subsequence_len;
            let built = TsIndex::build(store, config).unwrap();
            assert_eq!(built.check_invariants(), None);
            let incremental = grown(store, config);
            for start in [0usize, 50, 95, 200, 300, 395, 500, 684] {
                let mut query = store.read(start, len).unwrap();
                if expect == Expect::Exact {
                    query[3] = f64::NAN;
                }
                for eps in [0.1, 0.5, 2.0] {
                    let twins = scan(store, &query, eps);
                    for index in [&built, &incremental] {
                        let hits = index.search(store, &query, eps).unwrap();
                        match expect {
                            Expect::NoPanic => {}
                            Expect::Sound => assert!(hits.iter().all(|p| twins.contains(p))),
                            Expect::Exact => assert_eq!(hits, twins),
                        }
                    }
                }
            }
        }

        let len = 16;
        let clean = insect_like(GeneratorConfig::new(700, 3));
        let mut hostile = clean.clone();
        hostile[100..112].fill(f64::NAN);
        hostile[400] = f64::NAN;
        check(&Unchecked(hostile.clone()), config(len), Expect::Sound);
        let per_window = PerSubsequenceNormalized::new(Unchecked(hostile));
        check(&per_window, config(len), Expect::NoPanic);
        check(&Unchecked(clean.clone()), config(len), Expect::Exact);
        let per_window = PerSubsequenceNormalized::new(Unchecked(clean));
        check(&per_window, config(len), Expect::Exact);
    }

    /// The reason the loader exists, in exact counts: on z-normalised EEG at
    /// a selective threshold the built tree answers with at most half the
    /// node visits of the grown tree (here 5 534 against 13 654 over the 25
    /// queries) and no candidate blow-up although its leaves are twice as
    /// full (29 842 against 33 158).  A split rule that loses this has lost
    /// the tree.
    #[test]
    fn built_tree_visits_at_most_half_the_nodes_of_the_grown_tree() {
        let s =
            InMemorySeries::new_znormalized(&eeg_like(GeneratorConfig::new(12_000, 1))).unwrap();
        let len = 100;
        let eps = 0.2;
        let config = TsIndexConfig::new(len).unwrap();
        let built = TsIndex::build(&s, config).unwrap();
        let incremental = grown(&s, config);
        let (mut built_work, mut grown_work) = ((0, 0), (0, 0));
        for start in (0..s.subsequence_count(len)).step_by(493) {
            let query = TwinQuery::new(s.read(start, len).unwrap(), eps).collect_stats();
            let expected = scan(&s, query.values(), eps);
            for (index, work) in [(&built, &mut built_work), (&incremental, &mut grown_work)] {
                let outcome = index.execute(&s, &query).unwrap();
                assert_eq!(outcome.positions, expected);
                let stats = outcome.stats.unwrap();
                work.0 += stats.nodes_visited;
                work.1 += stats.candidates_generated;
            }
        }
        assert!(
            2 * built_work.0 <= grown_work.0,
            "nodes visited: built {} vs grown {}",
            built_work.0,
            grown_work.0
        );
        assert!(
            2 * built_work.1 <= 3 * grown_work.1,
            "candidates: built {} vs grown {}",
            built_work.1,
            grown_work.1
        );
    }
}
