//! Bottom-up bulk loading.
//!
//! The paper builds the TS-Index by sequential insertion.  Bulk loading is a
//! natural extension (iSAX 2.0 / iSAX2+ add it to the iSAX family, §2): sort
//! the subsequences once by a cheap 1-D key (their mean value), pack sorted
//! runs into fully filled leaves, and then pack nodes level by level until a
//! single root remains.  Construction touches every subsequence once and
//! performs no splits, which makes it substantially faster than repeated
//! top-down insertion; the ablation bench `ablation_bulk` quantifies both the
//! build-time gain and the query-time effect of the different packing.

use ts_core::mbts::packed;
use ts_core::pipeline::Scratch;
use ts_core::stats::rolling_mean;
use ts_storage::{Result, SeriesStore, StorageError};

use crate::config::TsIndexConfig;
use crate::index::TsIndex;
use crate::node::{Node, NodeId};

impl TsIndex {
    /// Builds the index bottom-up by sorting subsequences on their mean value
    /// and packing them into full leaves.
    ///
    /// The resulting tree answers exactly the same queries as one built with
    /// [`TsIndex::build`]; only the grouping of subsequences into nodes (and
    /// hence pruning efficiency and build time) differs.
    ///
    /// # Errors
    ///
    /// Returns an error when the store has no subsequence of the configured
    /// length and propagates storage failures.
    pub fn build_bulk<S: SeriesStore>(store: &S, config: TsIndexConfig) -> Result<Self> {
        let len = config.subsequence_len;
        let count = store.subsequence_count(len);
        if count == 0 {
            return Err(StorageError::Core(ts_core::TsError::InvalidParameter(
                format!(
                    "series of length {} has no subsequences of length {len}",
                    store.len()
                ),
            )));
        }

        // Sort positions by subsequence mean (one rolling pass over the data).
        let values = store.read(0, store.len())?;
        let means = rolling_mean(&values, len);
        let mut order: Vec<u32> = (0..count as u32).collect();
        order.sort_by(|&a, &b| {
            means[a as usize]
                .partial_cmp(&means[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut index = Self::empty(config);
        index.entries = count;

        // Pack sorted positions into leaves.
        let mut buf = Scratch::take(len);
        let mut envelope = Scratch::take(index.stride());
        let mut level: Vec<NodeId> = Vec::new();
        for chunk in partition_sizes(count, config.max_capacity, config.min_capacity) {
            let members = &order[chunk];
            for (i, &p) in members.iter().enumerate() {
                store.read_into(p as usize, &mut buf)?;
                if i == 0 {
                    packed::pack_sequence(&buf, &mut envelope);
                } else {
                    packed::expand_with_sequence(&mut envelope, &buf);
                }
            }
            level.push(index.push_node(Node::leaf(None, members.to_vec()), &envelope));
        }

        // Pack levels upward until a single node remains.
        while level.len() > 1 {
            let mut next_level = Vec::new();
            for chunk in partition_sizes(level.len(), config.max_capacity, config.min_capacity) {
                next_level.push(index.push_parent_of(level[chunk].to_vec()));
            }
            level = next_level;
        }
        index.root = level.first().copied();
        index.release_slack();
        Ok(index)
    }
}

/// Splits `count` items into contiguous chunks of at most `max` items each,
/// making sure that (when `count >= min`) no chunk is smaller than `min`.
fn partition_sizes(count: usize, max: usize, min: usize) -> Vec<std::ops::Range<usize>> {
    if count == 0 {
        return Vec::new();
    }
    if count <= max {
        return std::iter::once(0..count).collect();
    }
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < count {
        let remaining = count - start;
        let take = if remaining <= max {
            remaining
        } else if remaining - max < min {
            // Taking a full chunk would leave a runt below the minimum
            // capacity; balance the final two chunks instead.
            remaining - min
        } else {
            max
        };
        chunks.push(start..start + take);
        start += take;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_data::generators::{insect_like, GeneratorConfig};
    use ts_storage::InMemorySeries;
    use ts_sweep::Sweepline;

    fn store(n: usize) -> InMemorySeries {
        InMemorySeries::new_znormalized(&insect_like(GeneratorConfig::new(n, 41))).unwrap()
    }

    fn config(len: usize) -> TsIndexConfig {
        TsIndexConfig::new(len)
            .unwrap()
            .with_capacities(4, 10)
            .unwrap()
    }

    #[test]
    fn partition_sizes_respects_bounds() {
        for (count, max, min) in [
            (100usize, 10usize, 4usize),
            (7, 10, 4),
            (23, 10, 4),
            (101, 30, 10),
            (11, 10, 4),
        ] {
            let chunks = partition_sizes(count, max, min);
            let total: usize = chunks.iter().map(|c| c.len()).sum();
            assert_eq!(total, count);
            let mut expected_start = 0;
            for c in &chunks {
                assert_eq!(c.start, expected_start, "chunks must be contiguous");
                expected_start = c.end;
                assert!(c.len() <= max);
                if count >= min {
                    assert!(c.len() >= min, "chunk {c:?} below min for count={count}");
                }
            }
        }
        assert!(partition_sizes(0, 10, 4).is_empty());
        assert_eq!(partition_sizes(3, 10, 4), vec![0..3]);
    }

    #[test]
    fn bulk_build_indexes_everything_and_keeps_invariants() {
        let s = store(3_000);
        let idx = TsIndex::build_bulk(&s, config(60)).unwrap();
        assert_eq!(idx.indexed_count(), s.subsequence_count(60));
        assert_eq!(idx.check_invariants(), None);
        assert!(idx.height() > 1);
    }

    #[test]
    fn bulk_build_answers_queries_identically_to_incremental() {
        let s = store(2_500);
        let len = 100;
        let incremental = TsIndex::build(&s, config(len)).unwrap();
        let bulk = TsIndex::build_bulk(&s, config(len)).unwrap();
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
        let idx = TsIndex::build_bulk(&s, TsIndexConfig::new(50).unwrap()).unwrap();
        assert_eq!(idx.height(), 1);
        assert_eq!(idx.check_invariants(), None);
        let q = s.read(3, 50).unwrap();
        assert!(idx.search(&s, &q, 0.1).unwrap().contains(&3));
    }
}
