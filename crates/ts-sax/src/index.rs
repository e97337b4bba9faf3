//! The iSAX tree structure, construction, and the twin-search traversal.

use std::collections::HashMap;
use std::time::Instant;

use ts_core::paa::paa;
use ts_core::pipeline::{finish_outcome, CandidateSet, Pipeline, Scratch, VerifyOptions};
use ts_core::query::{SearchOutcome, SearchStats, TwinQuery};
use ts_core::sax::{IsaxSymbol, IsaxWord, MAX_SYMBOL_BITS};
use ts_storage::{plan_verify_options, Result, SeriesStore, StorageError};

use crate::config::IsaxConfig;

/// Index of a node inside the arena.
type NodeId = usize;

/// A subsequence stored in a leaf: its starting position plus its
/// full-resolution SAX word (used to route the entry during splits without
/// re-reading the series).
#[derive(Debug, Clone)]
struct LeafEntry {
    position: u32,
    word: Box<[u8]>,
}

/// A node of the iSAX tree.
#[derive(Debug, Clone)]
enum Node {
    Internal {
        word: IsaxWord,
        children: Vec<NodeId>,
    },
    Leaf {
        word: IsaxWord,
        entries: Vec<LeafEntry>,
        /// Set when the node exceeded capacity but could not be split
        /// (all entries share an identical maximal-resolution word).
        frozen: bool,
    },
}

impl Node {
    fn word(&self) -> &IsaxWord {
        match self {
            Node::Internal { word, .. } | Node::Leaf { word, .. } => word,
        }
    }
}

/// Structural statistics of a built index (Figure 8-style reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsaxIndexStats {
    /// Total number of tree nodes (internal + leaf), excluding the implicit root.
    pub nodes: usize,
    /// Number of leaf nodes.
    pub leaves: usize,
    /// Number of indexed subsequences.
    pub entries: usize,
    /// Length of the longest root-to-leaf path.
    pub height: usize,
    /// Approximate heap memory used by the index structure, in bytes.
    pub memory_bytes: usize,
}

/// The iSAX index over all `l`-length subsequences of a series.
#[derive(Debug, Clone)]
pub struct IsaxIndex {
    config: IsaxConfig,
    nodes: Vec<Node>,
    /// Root children keyed by the 1-bit word bitmask (bit `i` of the key is
    /// the most significant bit of segment `i`'s full-resolution symbol).
    root: HashMap<u64, NodeId>,
    entries: usize,
}

impl IsaxIndex {
    /// Builds the index over every `config.subsequence_len`-length
    /// subsequence of `store`.
    ///
    /// # Errors
    ///
    /// Returns an error when the store has no subsequence of the configured
    /// length, when the configuration uses more than 64 segments (the root
    /// keying limit), and propagates storage failures.
    pub fn build<S: SeriesStore>(store: &S, config: IsaxConfig) -> Result<Self> {
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
        if config.segments > 64 {
            return Err(StorageError::Core(ts_core::TsError::InvalidParameter(
                "iSAX root keying supports at most 64 segments".into(),
            )));
        }
        let mut index = Self {
            config,
            nodes: Vec::new(),
            root: HashMap::new(),
            entries: 0,
        };
        let mut buf = Scratch::take(len);
        for position in 0..count {
            store.read_into(position, &mut buf)?;
            let word = index.full_word(&buf)?;
            index.insert(position as u32, word);
        }
        Ok(index)
    }

    /// The configuration the index was built with.
    #[must_use]
    pub fn config(&self) -> &IsaxConfig {
        &self.config
    }

    /// Number of indexed subsequences.
    #[must_use]
    pub fn indexed_count(&self) -> usize {
        self.entries
    }

    /// Computes the full-resolution SAX word of a sequence under this index's
    /// breakpoints and segment count.
    fn full_word(&self, values: &[f64]) -> Result<Box<[u8]>> {
        let means = paa(values, self.config.segments).map_err(StorageError::Core)?;
        Ok(means
            .iter()
            .map(|&m| self.config.breakpoints.symbol_for(m))
            .collect())
    }

    /// The 1-bit root key of a full-resolution word.
    fn root_key(word: &[u8]) -> u64 {
        word.iter().enumerate().fold(0u64, |key, (i, &sym)| {
            key | (u64::from(sym >> (MAX_SYMBOL_BITS - 1)) << i)
        })
    }

    fn insert(&mut self, position: u32, word: Box<[u8]>) {
        self.entries += 1;
        let key = Self::root_key(&word);
        let entry = LeafEntry { position, word };
        match self.root.get(&key) {
            None => {
                let node_word = IsaxWord::from_full_resolution(&entry.word, 1);
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf {
                    word: node_word,
                    entries: vec![entry],
                    frozen: false,
                });
                self.root.insert(key, id);
            }
            Some(&root_child) => self.insert_below(root_child, entry),
        }
    }

    fn insert_below(&mut self, mut node_id: NodeId, entry: LeafEntry) {
        loop {
            match &mut self.nodes[node_id] {
                Node::Internal { children, .. } => {
                    // Exactly one child's word prefix contains the entry's word.
                    let children_snapshot = children.clone();
                    let mut next = None;
                    for &child in &children_snapshot {
                        if self.nodes[child].word().contains_full(&entry.word) {
                            next = Some(child);
                            break;
                        }
                    }
                    match next {
                        Some(child) => node_id = child,
                        None => {
                            // Defensive: cover the gap with a fresh leaf whose
                            // word refines the parent along the same segment
                            // as its siblings.  This cannot happen with the
                            // two-way splits performed below, but keeps the
                            // structure sound if it ever does.
                            let parent_word = self.nodes[node_id].word().clone();
                            let leaf_word = refine_word_for(&parent_word, &entry.word);
                            let new_id = self.nodes.len();
                            self.nodes.push(Node::Leaf {
                                word: leaf_word,
                                entries: vec![entry],
                                frozen: false,
                            });
                            if let Node::Internal { children, .. } = &mut self.nodes[node_id] {
                                children.push(new_id);
                            }
                            return;
                        }
                    }
                }
                Node::Leaf {
                    entries, frozen, ..
                } => {
                    entries.push(entry);
                    let needs_split = !*frozen && entries.len() > self.config.leaf_capacity;
                    if needs_split {
                        self.split_leaf(node_id);
                    }
                    return;
                }
            }
        }
    }

    /// Splits an over-full leaf by refining one segment's symbol by one bit.
    ///
    /// The segment is chosen to balance the two children as evenly as
    /// possible; if no refinable segment separates the entries the leaf is
    /// frozen (allowed to exceed capacity), which matches iSAX behaviour for
    /// sets of identical SAX words.
    fn split_leaf(&mut self, node_id: NodeId) {
        let (word, entries) = match &self.nodes[node_id] {
            Node::Leaf { word, entries, .. } => (word.clone(), entries.clone()),
            Node::Internal { .. } => return,
        };
        let mut best: Option<(usize, usize)> = None; // (segment, balance = min(zeros, ones))
        for (seg, symbol) in word.symbols().iter().enumerate() {
            if symbol.bits >= MAX_SYMBOL_BITS {
                continue;
            }
            let next_bit_shift = MAX_SYMBOL_BITS - symbol.bits - 1;
            let ones = entries
                .iter()
                .filter(|e| (e.word[seg] >> next_bit_shift) & 1 == 1)
                .count();
            let zeros = entries.len() - ones;
            let balance = zeros.min(ones);
            if best.is_none_or(|(_, b)| balance > b) {
                best = Some((seg, balance));
            }
        }
        let Some((seg, balance)) = best else {
            if let Node::Leaf { frozen, .. } = &mut self.nodes[node_id] {
                *frozen = true;
            }
            return;
        };
        if balance == 0 {
            // No refinable segment separates the entries; freeze.
            if let Node::Leaf { frozen, .. } = &mut self.nodes[node_id] {
                *frozen = true;
            }
            return;
        }

        let parent_symbol = word.symbols()[seg];
        let make_child_word = |bit: u8| {
            let mut symbols = word.symbols().to_vec();
            symbols[seg] =
                IsaxSymbol::new((parent_symbol.value << 1) | bit, parent_symbol.bits + 1);
            IsaxWord::new(symbols)
        };
        let next_bit_shift = MAX_SYMBOL_BITS - parent_symbol.bits - 1;
        let (ones_entries, zeros_entries): (Vec<LeafEntry>, Vec<LeafEntry>) = entries
            .into_iter()
            .partition(|e| (e.word[seg] >> next_bit_shift) & 1 == 1);

        let zero_id = self.nodes.len();
        self.nodes.push(Node::Leaf {
            word: make_child_word(0),
            entries: zeros_entries,
            frozen: false,
        });
        let one_id = self.nodes.len();
        self.nodes.push(Node::Leaf {
            word: make_child_word(1),
            entries: ones_entries,
            frozen: false,
        });
        self.nodes[node_id] = Node::Internal {
            word,
            children: vec![zero_id, one_id],
        };
        // A child may itself exceed capacity (e.g. heavily skewed data);
        // recursively split it.
        for child in [zero_id, one_id] {
            if let Node::Leaf { entries, .. } = &self.nodes[child] {
                if entries.len() > self.config.leaf_capacity {
                    self.split_leaf(child);
                }
            }
        }
    }

    /// Returns `true` if a node with iSAX word `word` may contain a twin of a
    /// query whose PAA means are `query_paa`, under threshold `epsilon`
    /// (the §4.2 pruning rule).
    fn may_contain_twin(&self, word: &IsaxWord, query_paa: &[f64], epsilon: f64) -> bool {
        word.symbols().iter().zip(query_paa).all(|(symbol, &mean)| {
            let (lo, hi) = symbol.value_range(&self.config.breakpoints);
            mean + epsilon >= lo && mean - epsilon <= hi
        })
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
    /// The traversal prunes every node whose iSAX word fails the segment-wise
    /// mean-range check (§4.2) and collects the entries of surviving leaves
    /// into a candidate set; one verification-pipeline pass then checks them
    /// in increasing position order, so a [`TwinQuery::limit`] stops
    /// verification after the `limit` smallest matching positions.
    /// Traversal and verification are single-threaded whatever
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
        let epsilon = query.epsilon();
        let query_paa = paa(query.values(), self.config.segments).map_err(StorageError::Core)?;
        let pipeline = Pipeline::for_query(query);
        let mut stats = SearchStats::default();
        let mut candidates = CandidateSet::new();
        let mut stack: Vec<NodeId> = self.root.values().copied().collect();
        while let Some(node_id) = stack.pop() {
            stats.nodes_visited += 1;
            let node = &self.nodes[node_id];
            if !self.may_contain_twin(node.word(), &query_paa, epsilon) {
                stats.nodes_pruned += 1;
                continue;
            }
            match node {
                Node::Internal { children, .. } => stack.extend(children.iter().copied()),
                Node::Leaf { entries, .. } => {
                    stats.candidates_generated += entries.len();
                    for entry in entries {
                        candidates.push(entry.position);
                    }
                }
            }
        }
        let mut positions = Vec::new();
        let options = plan_verify_options(store, VerifyOptions::from_query(query));
        let read = |start: usize, buf: &mut [f64]| store.read_raw_range_into(start, buf);
        let report = pipeline.verify_into(&mut candidates, read, options, &mut positions)?;
        stats.candidates_verified = report.verified;
        stats.verify_time = report.verify_time;
        Ok(finish_outcome(
            "iSAX",
            started,
            query,
            positions,
            report.matches,
            1,
            stats,
        ))
    }

    /// Structural statistics (node counts, height, memory footprint).
    #[must_use]
    pub fn stats(&self) -> IsaxIndexStats {
        let mut leaves = 0usize;
        let mut memory = std::mem::size_of::<Self>()
            + self.root.capacity() * (std::mem::size_of::<u64>() + std::mem::size_of::<NodeId>());
        for node in &self.nodes {
            memory += std::mem::size_of::<Node>();
            match node {
                Node::Internal { word, children } => {
                    memory += word.len() * std::mem::size_of::<IsaxSymbol>()
                        + children.capacity() * std::mem::size_of::<NodeId>();
                }
                Node::Leaf { word, entries, .. } => {
                    leaves += 1;
                    memory += word.len() * std::mem::size_of::<IsaxSymbol>();
                    memory += entries.capacity() * std::mem::size_of::<LeafEntry>();
                    memory += entries.iter().map(|e| e.word.len()).sum::<usize>();
                }
            }
        }
        IsaxIndexStats {
            nodes: self.nodes.len(),
            leaves,
            entries: self.entries,
            height: self.height(),
            memory_bytes: memory,
        }
    }

    /// Approximate heap memory used by the index structure, in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.stats().memory_bytes
    }

    /// Length of the longest root-to-leaf path.
    #[must_use]
    pub fn height(&self) -> usize {
        fn depth(nodes: &[Node], id: NodeId) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 1,
                Node::Internal { children, .. } => {
                    1 + children.iter().map(|&c| depth(nodes, c)).max().unwrap_or(0)
                }
            }
        }
        self.root
            .values()
            .map(|&id| depth(&self.nodes, id))
            .max()
            .unwrap_or(0)
    }
}

// Streaming maintenance: the iSAX tree is built by per-subsequence insertion
// already, so appending reuses exactly that path for each fresh window.  Note
// that raw-mode breakpoints are fixed at build time: appended values outside
// the original value range quantise into the edge symbols, whose value
// ranges extend to ±∞, so the §4.2 pruning rule stays sound (the tree around
// the edge symbols just discriminates less).
impl<S: SeriesStore> ts_core::MaintainableSearcher<S> for IsaxIndex {
    type Error = StorageError;

    fn on_append(&mut self, store: &S) -> Result<usize> {
        let len = self.config.subsequence_len;
        let new_count = store.subsequence_count(len);
        // Windows are indexed densely in position order, so the entry count
        // is the resume point (making this call retry-safe: a partial
        // failure resumes after the last inserted window).
        let old_count = self.entries;
        let mut buf = Scratch::take(len);
        for position in old_count..new_count {
            store.read_into(position, &mut buf)?;
            let word = self.full_word(&buf)?;
            self.insert(position as u32, word);
        }
        Ok(new_count.saturating_sub(old_count))
    }
}

/// Builds a leaf word that refines `parent` just enough to cover `full`
/// (used only by the defensive path in `insert_below`).
fn refine_word_for(parent: &IsaxWord, full: &[u8]) -> IsaxWord {
    let symbols = parent
        .symbols()
        .iter()
        .zip(full)
        .map(|(s, &f)| s.refine(f).unwrap_or(*s))
        .collect();
    IsaxWord::new(symbols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_data::generators::{eeg_like, insect_like, GeneratorConfig};
    use ts_storage::{InMemorySeries, PerSubsequenceNormalized};
    use ts_sweep::Sweepline;

    fn store() -> InMemorySeries {
        InMemorySeries::new_znormalized(&insect_like(GeneratorConfig::new(3_000, 5))).unwrap()
    }

    fn small_config(len: usize) -> IsaxConfig {
        IsaxConfig::for_normalized(len)
            .unwrap()
            .with_leaf_capacity(16)
    }

    #[test]
    fn build_validates_input() {
        let s = InMemorySeries::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert!(IsaxIndex::build(&s, small_config(10)).is_err());
        assert!(IsaxIndex::build(&s, small_config(3)).is_ok());
    }

    #[test]
    fn indexes_every_subsequence() {
        let s = store();
        let idx = IsaxIndex::build(&s, small_config(64)).unwrap();
        assert_eq!(idx.indexed_count(), s.subsequence_count(64));
        let stats = idx.stats();
        assert_eq!(stats.entries, idx.indexed_count());
        assert!(stats.leaves >= 1);
        assert!(stats.nodes >= stats.leaves);
        assert!(stats.height >= 1);
        assert!(stats.memory_bytes > 0);
        assert_eq!(idx.config().subsequence_len, 64);
    }

    #[test]
    fn splits_keep_leaves_within_capacity() {
        let s = store();
        let idx = IsaxIndex::build(&s, small_config(50)).unwrap();
        for node in &idx.nodes {
            if let Node::Leaf {
                entries, frozen, ..
            } = node
            {
                assert!(
                    *frozen || entries.len() <= idx.config.leaf_capacity,
                    "non-frozen leaf exceeds capacity: {}",
                    entries.len()
                );
            }
        }
        // With capacity 16 and ~3k subsequences the tree must have split.
        assert!(idx.stats().nodes > 1);
        assert!(idx.height() > 1);
    }

    #[test]
    fn every_entry_is_under_a_matching_prefix() {
        let s = store();
        let idx = IsaxIndex::build(&s, small_config(40)).unwrap();
        for node in &idx.nodes {
            if let Node::Leaf { word, entries, .. } = node {
                for e in entries {
                    assert!(word.contains_full(&e.word));
                }
            }
        }
    }

    #[test]
    fn results_match_sweepline_exactly() {
        let s = store();
        let len = 100;
        let idx = IsaxIndex::build(&s, small_config(len)).unwrap();
        let sweep = Sweepline::new();
        for (start, eps) in [(3usize, 0.5), (900, 1.0), (2_500, 1.5), (1_200, 0.75)] {
            let query = s.read(start, len).unwrap();
            let expected = sweep.search(&s, &query, eps).unwrap();
            let got = idx.search(&s, &query, eps).unwrap();
            assert_eq!(got, expected, "start={start} eps={eps}");
        }
    }

    #[test]
    fn matches_sweepline_on_eeg_like_data() {
        let s = InMemorySeries::new_znormalized(&eeg_like(GeneratorConfig::new(4_000, 9))).unwrap();
        let len = 100;
        let idx = IsaxIndex::build(&s, small_config(len)).unwrap();
        let query = s.read(1_234, len).unwrap();
        for eps in [0.1, 0.3, 0.5] {
            assert_eq!(
                idx.search(&s, &query, eps).unwrap(),
                Sweepline::new().search(&s, &query, eps).unwrap()
            );
        }
    }

    #[test]
    fn per_subsequence_normalized_regime() {
        let raw = InMemorySeries::new(insect_like(GeneratorConfig::new(2_000, 13))).unwrap();
        let norm = PerSubsequenceNormalized::new(raw);
        let len = 80;
        let idx = IsaxIndex::build(&norm, small_config(len)).unwrap();
        let query = norm.read(555, len).unwrap();
        for eps in [0.2, 0.5] {
            assert_eq!(
                idx.search(&norm, &query, eps).unwrap(),
                Sweepline::new().search(&norm, &query, eps).unwrap()
            );
        }
    }

    #[test]
    fn pruning_reduces_candidates() {
        let s = store();
        let len = 100;
        let idx = IsaxIndex::build(&s, small_config(len)).unwrap();
        let query = s.read(42, len).unwrap();
        let outcome = idx
            .execute(&s, &TwinQuery::new(query, 0.5).collect_stats())
            .unwrap();
        let stats = outcome.stats.unwrap();
        let total = s.subsequence_count(len);
        assert!(
            stats.candidates_generated < total,
            "filter should prune something"
        );
        assert!(stats.nodes_visited > 0);
        assert!(outcome.match_count <= stats.candidates_generated);
    }

    #[test]
    fn stats_candidates_and_matches_consistent() {
        let s = store();
        let len = 60;
        let idx = IsaxIndex::build(&s, small_config(len)).unwrap();
        let query = s.read(100, len).unwrap();
        let outcome = idx
            .execute(&s, &TwinQuery::new(query, 1.0).collect_stats())
            .unwrap();
        let stats = outcome.stats.unwrap();
        assert_eq!(outcome.positions.len(), outcome.match_count);
        assert!(stats.nodes_pruned <= stats.nodes_visited);
        assert!(outcome.positions.contains(&100));
    }

    #[test]
    fn rejects_wrong_query_length() {
        let s = store();
        let idx = IsaxIndex::build(&s, small_config(50)).unwrap();
        assert!(idx.search(&s, &vec![0.0; 51], 0.5).is_err());
    }

    #[test]
    fn raw_value_configuration_works() {
        let values = insect_like(GeneratorConfig::new(2_000, 3));
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let s = InMemorySeries::new(values).unwrap();
        let len = 100;
        let config = IsaxConfig::for_raw(len, lo, hi)
            .unwrap()
            .with_leaf_capacity(32);
        let idx = IsaxIndex::build(&s, config).unwrap();
        let query = s.read(321, len).unwrap();
        let eps = 0.5;
        assert_eq!(
            idx.search(&s, &query, eps).unwrap(),
            Sweepline::new().search(&s, &query, eps).unwrap()
        );
    }

    #[test]
    fn on_append_matches_bulk_build_even_outside_the_raw_range() {
        use ts_core::MaintainableSearcher;
        use ts_storage::AppendableStore;

        // Raw-mode breakpoints are fitted to the prefix's value range; the
        // appended suffix deliberately exceeds it, exercising the edge
        // symbols (whose ranges extend to ±∞).
        let full: Vec<f64> = (0..1_500)
            .map(|i| (i as f64 * 0.11).sin() * (1.0 + i as f64 / 500.0))
            .collect();
        let len = 60;
        let split = 900;
        let (lo, hi) = full[..split]
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });

        let mut store = InMemorySeries::new(full[..split].to_vec()).unwrap();
        let config = IsaxConfig::for_raw(len, lo, hi)
            .unwrap()
            .with_leaf_capacity(16);
        let mut idx = IsaxIndex::build(&store, config).unwrap();
        for chunk in full[split..].chunks(250) {
            store.append(chunk).unwrap();
            assert_eq!(idx.on_append(&store).unwrap(), chunk.len());
        }
        assert_eq!(idx.indexed_count(), store.subsequence_count(len));
        assert_eq!(idx.on_append(&store).unwrap(), 0);

        let sweep = Sweepline::new();
        for (start, eps) in [(30usize, 0.4), (880, 0.8), (1_300, 0.6)] {
            let query = store.read(start, len).unwrap();
            assert_eq!(
                idx.search(&store, &query, eps).unwrap(),
                sweep.search(&store, &query, eps).unwrap(),
                "start={start}"
            );
        }
    }

    #[test]
    fn larger_epsilon_is_superset() {
        let s = store();
        let len = 100;
        let idx = IsaxIndex::build(&s, small_config(len)).unwrap();
        let query = s.read(1_500, len).unwrap();
        let small = idx.search(&s, &query, 0.3).unwrap();
        let large = idx.search(&s, &query, 1.2).unwrap();
        for p in &small {
            assert!(large.contains(p));
        }
    }
}
