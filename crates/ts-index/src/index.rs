//! The TS-Index structure, its maintenance by top-down insertion and node
//! splitting (§5.1–§5.2), and structural accounting.  Building an index from
//! a series is the bulk loader in `bulk.rs`.
//!
//! Every envelope of the tree lives in one flat arena owned by the index
//! (`envelopes`): node `id`'s MBTS is the slot `id · stride ..
//! (id + 1) · stride`, `stride = 2 · l`, in the block-interleaved layout of
//! [`ts_core::mbts::packed`].  A [`Node`] holds only its links.  Insertion,
//! splitting and the query traversal all run that module's slice kernels on
//! arena slots; no envelope is ever allocated on its own.

use ts_core::distance::max_abs_diff;
use ts_core::mbts::packed;
use ts_core::pipeline::Scratch;
use ts_storage::{Result, SeriesStore, StorageError};

use crate::config::TsIndexConfig;
use crate::node::{Node, NodeId, NodeKind};
use crate::stats::TsIndexStats;

/// The TS-Index: an MBTS tree over all `l`-length subsequences of a series.
///
/// The index stores only node envelopes and subsequence positions; the raw
/// values always live in the backing [`SeriesStore`] and are fetched during
/// construction and verification.
#[derive(Debug, Clone)]
pub struct TsIndex {
    pub(crate) config: TsIndexConfig,
    pub(crate) nodes: Vec<Node>,
    /// The envelope arena: one packed MBTS of `stride()` values per node, in
    /// node-id order (`envelopes.len() == nodes.len() * stride()`).
    pub(crate) envelopes: Vec<f64>,
    pub(crate) root: Option<NodeId>,
    pub(crate) entries: usize,
}

impl TsIndex {
    /// An index with no nodes yet.
    pub(crate) fn empty(config: TsIndexConfig) -> Self {
        Self {
            config,
            nodes: Vec::new(),
            envelopes: Vec::new(),
            root: None,
            entries: 0,
        }
    }

    /// The configuration the index was built with.
    #[must_use]
    pub fn config(&self) -> &TsIndexConfig {
        &self.config
    }

    /// Number of indexed subsequences.
    #[must_use]
    pub fn indexed_count(&self) -> usize {
        self.entries
    }

    /// Returns `true` if nothing has been indexed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Values per envelope slot of the arena.
    pub(crate) fn stride(&self) -> usize {
        packed::packed_len(self.config.subsequence_len)
    }

    /// The packed MBTS of node `id`.
    pub(crate) fn envelope(&self, id: NodeId) -> &[f64] {
        let stride = self.stride();
        &self.envelopes[id * stride..(id + 1) * stride]
    }

    fn envelope_mut(&mut self, id: NodeId) -> &mut [f64] {
        let stride = self.stride();
        &mut self.envelopes[id * stride..(id + 1) * stride]
    }

    /// Appends `node` with a copy of the packed `envelope` as its slot.
    pub(crate) fn push_node(&mut self, node: Node, envelope: &[f64]) -> NodeId {
        debug_assert_eq!(envelope.len(), self.stride());
        self.envelopes.extend_from_slice(envelope);
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Appends a parentless internal node over the existing nodes
    /// `children` (at least one): its slot is the union of their envelopes,
    /// and their parent links are pointed at it.
    pub(crate) fn push_parent_of(&mut self, children: Vec<NodeId>) -> NodeId {
        let stride = self.stride();
        let id = self.nodes.len();
        self.envelopes
            .extend_from_within(children[0] * stride..(children[0] + 1) * stride);
        let (arena, slot) = self.envelopes.split_at_mut(id * stride);
        for &c in &children[1..] {
            packed::expand_with_envelope(slot, &arena[c * stride..(c + 1) * stride]);
        }
        for &c in &children {
            self.nodes[c].parent = Some(id);
        }
        self.nodes.push(Node::internal(None, children));
        id
    }

    /// Returns the growth slack of the node list and the envelope arena to
    /// the allocator, so a freshly built index holds exactly `nodes × stride`
    /// envelope values.
    pub(crate) fn release_slack(&mut self) {
        self.nodes.shrink_to_fit();
        self.envelopes.shrink_to_fit();
    }

    /// Inserts one subsequence (starting position plus its values), §5.2.
    /// Reached only through `on_append`.
    fn insert<S: SeriesStore>(&mut self, store: &S, position: u32, values: &[f64]) -> Result<()> {
        self.insert_with(store, position, values, Self::choose_child)
    }

    /// [`TsIndex::insert`] with the descent rule as a parameter (the
    /// structural-identity test swaps in the unbounded scalar reference).
    fn insert_with<S: SeriesStore>(
        &mut self,
        store: &S,
        position: u32,
        values: &[f64],
        choose_child: impl Fn(&Self, &[NodeId], &[f64]) -> NodeId,
    ) -> Result<()> {
        debug_assert_eq!(values.len(), self.config.subsequence_len);
        self.entries += 1;
        let Some(root) = self.root else {
            let mut envelope = Scratch::take(self.stride());
            packed::pack_sequence(values, &mut envelope);
            let id = self.push_node(Node::leaf(None, vec![position]), &envelope);
            self.root = Some(id);
            return Ok(());
        };

        // Descend to a leaf, expanding every visited node's MBTS on the way
        // (the inserted sequence will be enclosed below it).
        let mut node_id = root;
        loop {
            packed::expand_with_sequence(self.envelope_mut(node_id), values);
            match &self.nodes[node_id].kind {
                NodeKind::Leaf { .. } => break,
                NodeKind::Internal { children } => {
                    node_id = choose_child(self, children, values);
                }
            }
        }

        if let NodeKind::Leaf { positions } = &mut self.nodes[node_id].kind {
            positions.push(position);
        }
        if self.nodes[node_id].entry_count() > self.config.max_capacity {
            self.split_leaf(store, node_id)?;
        }
        Ok(())
    }

    /// Chooses the child whose MBTS has the smallest distance to `values`
    /// (Equation 2), breaking ties by smallest MBTS expansion and then by
    /// fewest entries; the first child with the minimal key wins.
    ///
    /// Each child is scored by one fused pass bounded by the best distance
    /// so far.  The bound is strict: a child the kernel abandons is farther
    /// than the current best and could not have replaced it, a child that
    /// ties on distance is scored in full — so this picks exactly the child
    /// an unbounded scoring of every child picks.
    fn choose_child(&self, children: &[NodeId], values: &[f64]) -> NodeId {
        debug_assert!(!children.is_empty());
        // Any scored child beats this key, and nothing exceeds its bound.
        let mut best = children[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, usize::MAX);
        for &child in children {
            let Some((distance, expansion)) =
                packed::bounded_distance_expansion(values, self.envelope(child), best_key.0)
            else {
                continue;
            };
            let key = (distance, expansion, self.nodes[child].entry_count());
            if key < best_key {
                best_key = key;
                best = child;
            }
        }
        best
    }

    /// Splits an over-full leaf into two siblings (§5.2), propagating splits
    /// upward if the parent overflows.
    fn split_leaf<S: SeriesStore>(&mut self, store: &S, node_id: NodeId) -> Result<()> {
        let len = self.config.subsequence_len;
        let positions = match &self.nodes[node_id].kind {
            NodeKind::Leaf { positions } => positions.clone(),
            NodeKind::Internal { .. } => return Ok(()),
        };
        // Fetch the member subsequences once, into one pooled buffer.
        let mut members = Scratch::take(positions.len() * len);
        for (&p, member) in positions.iter().zip(members.chunks_exact_mut(len)) {
            store.read_into(p as usize, member)?;
        }
        let member = |i: usize| &members[i * len..(i + 1) * len];

        // Seeds: the two subsequences with the largest Chebyshev distance.
        let seeds = farthest_pair(positions.len(), |i, j| max_abs_diff(member(i), member(j)));
        let mut envelopes = Scratch::take(2 * self.stride());
        let (envelope_a, envelope_b) = envelopes.split_at_mut(self.stride());
        packed::pack_sequence(member(seeds.0), envelope_a);
        packed::pack_sequence(member(seeds.1), envelope_b);
        let (group_a, group_b) = distribute(
            positions.len(),
            seeds,
            self.config.min_capacity,
            (envelope_a, envelope_b),
            |envelope, i| packed::sequence_expansion(envelope, member(i)),
            |envelope, i| packed::expand_with_sequence(envelope, member(i)),
        );

        let positions_a: Vec<u32> = group_a.iter().map(|&i| positions[i]).collect();
        let positions_b: Vec<u32> = group_b.iter().map(|&i| positions[i]).collect();
        let parent = self.nodes[node_id].parent;

        // Reuse `node_id` for group A; allocate a new node for group B.
        self.nodes[node_id] = Node::leaf(parent, positions_a);
        self.envelope_mut(node_id).copy_from_slice(envelope_a);
        let new_id = self.push_node(Node::leaf(parent, positions_b), envelope_b);

        self.attach_split_sibling(store, node_id, new_id)
    }

    /// Splits an over-full internal node into two siblings using the
    /// MBTS-to-MBTS distance (Equation 3) for seed selection.
    fn split_internal<S: SeriesStore>(&mut self, store: &S, node_id: NodeId) -> Result<()> {
        let children = match &self.nodes[node_id].kind {
            NodeKind::Internal { children } => children.clone(),
            NodeKind::Leaf { .. } => return Ok(()),
        };
        let member = |i: usize| self.envelope(children[i]);

        let seeds = farthest_pair(children.len(), |i, j| {
            packed::envelope_distance(member(i), member(j))
        });
        let mut envelopes = Scratch::take(2 * self.stride());
        let (envelope_a, envelope_b) = envelopes.split_at_mut(self.stride());
        envelope_a.copy_from_slice(member(seeds.0));
        envelope_b.copy_from_slice(member(seeds.1));
        let (group_a, group_b) = distribute(
            children.len(),
            seeds,
            self.config.min_capacity,
            (envelope_a, envelope_b),
            |envelope, i| packed::envelope_expansion(envelope, member(i)),
            |envelope, i| packed::expand_with_envelope(envelope, member(i)),
        );

        let children_a: Vec<NodeId> = group_a.iter().map(|&i| children[i]).collect();
        let children_b: Vec<NodeId> = group_b.iter().map(|&i| children[i]).collect();
        let parent = self.nodes[node_id].parent;

        self.nodes[node_id] = Node::internal(parent, children_a.clone());
        self.envelope_mut(node_id).copy_from_slice(envelope_a);
        let new_id = self.push_node(Node::internal(parent, children_b.clone()), envelope_b);

        // Re-point moved children at their new parents.
        for &c in &children_a {
            self.nodes[c].parent = Some(node_id);
        }
        for &c in &children_b {
            self.nodes[c].parent = Some(new_id);
        }

        self.attach_split_sibling(store, node_id, new_id)
    }

    /// After a split produced the sibling `new_id` of `node_id`, hook the
    /// sibling into the parent (creating a new root when the root itself was
    /// split) and continue splitting upward if the parent overflows.
    fn attach_split_sibling<S: SeriesStore>(
        &mut self,
        store: &S,
        node_id: NodeId,
        new_id: NodeId,
    ) -> Result<()> {
        match self.nodes[node_id].parent {
            None => {
                // The root was split: grow the tree by one level (§5.2,
                // Figure 3b).
                self.root = Some(self.push_parent_of(vec![node_id, new_id]));
                Ok(())
            }
            Some(parent) => {
                if let NodeKind::Internal { children } = &mut self.nodes[parent].kind {
                    children.push(new_id);
                }
                self.nodes[new_id].parent = Some(parent);
                if self.nodes[parent].entry_count() > self.config.max_capacity {
                    self.split_internal(store, parent)?;
                }
                Ok(())
            }
        }
    }

    /// Structural statistics: node counts, height and memory footprint.
    ///
    /// `memory_bytes` counts what the index holds allocated, by capacity:
    /// `size_of::<TsIndex>() + nodes.capacity() · size_of::<Node>() +
    /// envelopes.capacity() · 8 + Σ children.capacity() · 8 +
    /// Σ positions.capacity() · 4`.  After [`TsIndex::build`] the first two
    /// capacities are exact (`envelopes.capacity() == nodes · stride`); an
    /// index grown by appends carries — and reports — its amortised growth
    /// slack.
    #[must_use]
    pub fn stats(&self) -> TsIndexStats {
        let mut leaves = 0usize;
        let mut internal = 0usize;
        let mut memory = std::mem::size_of::<Self>()
            + self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.envelopes.capacity() * std::mem::size_of::<f64>();
        for node in &self.nodes {
            match &node.kind {
                NodeKind::Internal { children } => {
                    internal += 1;
                    memory += children.capacity() * std::mem::size_of::<NodeId>();
                }
                NodeKind::Leaf { positions } => {
                    leaves += 1;
                    memory += positions.capacity() * std::mem::size_of::<u32>();
                }
            }
        }
        TsIndexStats {
            nodes: self.nodes.len(),
            leaves,
            internal,
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

    /// Tree height (1 for a single root leaf, 0 for an empty index).
    #[must_use]
    pub fn height(&self) -> usize {
        fn depth(nodes: &[Node], id: NodeId) -> usize {
            match &nodes[id].kind {
                NodeKind::Leaf { .. } => 1,
                NodeKind::Internal { children } => {
                    1 + children.iter().map(|&c| depth(nodes, c)).max().unwrap_or(0)
                }
            }
        }
        self.root.map_or(0, |r| depth(&self.nodes, r))
    }

    /// Checks the structural invariants of the tree; used by tests and
    /// debug assertions.  Returns a description of the first violation found.
    ///
    /// Invariants checked:
    /// 1. the envelope arena holds exactly one slot per node,
    /// 2. every node except the root respects the capacity bounds,
    /// 3. every child's MBTS slot is enclosed by its parent's slot,
    /// 4. every leaf sits at the same depth,
    /// 5. every indexed position appears exactly once,
    /// 6. parent links agree with child lists.
    #[must_use]
    pub fn check_invariants(&self) -> Option<String> {
        if self.envelopes.len() != self.nodes.len() * self.stride() {
            return Some(format!(
                "envelope arena holds {} values for {} nodes of stride {}",
                self.envelopes.len(),
                self.nodes.len(),
                self.stride()
            ));
        }
        let Some(root) = self.root else {
            return if self.entries == 0 {
                None
            } else {
                Some("entries recorded but tree is empty".into())
            };
        };
        let mut leaf_depths = Vec::new();
        let mut seen_positions = std::collections::HashSet::new();
        let mut stack = vec![(root, 1usize)];
        while let Some((id, depth)) = stack.pop() {
            let node = &self.nodes[id];
            if id != root && node.entry_count() > self.config.max_capacity {
                return Some(format!("node {id} exceeds max capacity"));
            }
            if id != root && node.entry_count() < self.config.min_capacity {
                return Some(format!("node {id} is below min capacity"));
            }
            match &node.kind {
                NodeKind::Leaf { positions } => {
                    leaf_depths.push(depth);
                    for &p in positions {
                        if !seen_positions.insert(p) {
                            return Some(format!("position {p} indexed twice"));
                        }
                    }
                }
                NodeKind::Internal { children } => {
                    if children.is_empty() {
                        return Some(format!("internal node {id} has no children"));
                    }
                    for &c in children {
                        if self.nodes[c].parent != Some(id) {
                            return Some(format!("child {c} has wrong parent link"));
                        }
                        if !packed::encloses(self.envelope(id), self.envelope(c)) {
                            return Some(format!("child {c} MBTS escapes parent {id}"));
                        }
                        stack.push((c, depth + 1));
                    }
                }
            }
        }
        if seen_positions.len() != self.entries {
            return Some(format!(
                "indexed {} positions but entries counter says {}",
                seen_positions.len(),
                self.entries
            ));
        }
        if let (Some(min), Some(max)) = (leaf_depths.iter().min(), leaf_depths.iter().max()) {
            if min != max {
                return Some(format!("leaves at different depths ({min} vs {max})"));
            }
        }
        None
    }
}

// Streaming maintenance: the paper's sequential top-down insertion (§5.2)
// pointed at the fresh windows — node MBTS envelopes expand on the way down
// and splits propagate upward.  An empty index grown this way over a whole
// series is the §5.2 tree itself.
impl<S: SeriesStore> ts_core::MaintainableSearcher<S> for TsIndex {
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
            self.insert(store, position as u32, &buf)?;
        }
        Ok(new_count.saturating_sub(old_count))
    }
}

/// Distributes the `count` members of an over-full node between the groups
/// of its two `seeds` (§5.2): each remaining member, last first, joins the
/// group whose envelope it expands least (ties: the smaller group, then the
/// first), unless one group needs every remaining member to reach `min`.
/// `envelopes` hold the seeds' envelopes on entry and the groups' on return.
fn distribute(
    count: usize,
    (seed_a, seed_b): (usize, usize),
    min: usize,
    (envelope_a, envelope_b): (&mut [f64], &mut [f64]),
    expansion: impl Fn(&[f64], usize) -> f64,
    expand: impl Fn(&mut [f64], usize),
) -> (Vec<usize>, Vec<usize>) {
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut left = count - 2;
    for i in (0..count).rev().filter(|&i| i != seed_a && i != seed_b) {
        left -= 1;
        let to_a = if group_a.len() + left < min {
            true
        } else if group_b.len() + left < min {
            false
        } else {
            match expansion(envelope_a, i).partial_cmp(&expansion(envelope_b, i)) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => group_a.len() <= group_b.len(),
            }
        };
        if to_a {
            group_a.push(i);
            expand(envelope_a, i);
        } else {
            group_b.push(i);
            expand(envelope_b, i);
        }
    }
    (group_a, group_b)
}

/// Returns the pair of member indices farthest apart under `dist`
/// (`count >= 2`; the first such pair in `(i, j > i)` order).
fn farthest_pair(count: usize, dist: impl Fn(usize, usize) -> f64) -> (usize, usize) {
    debug_assert!(count >= 2);
    let mut best = (0, 1);
    let mut best_d = f64::NEG_INFINITY;
    for i in 0..count {
        for j in (i + 1)..count {
            let d = dist(i, j);
            if d > best_d {
                best_d = d;
                best = (i, j);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_core::Mbts;
    use ts_data::generators::{insect_like, GeneratorConfig};
    use ts_storage::InMemorySeries;

    fn store(n: usize) -> InMemorySeries {
        InMemorySeries::new_znormalized(&insect_like(GeneratorConfig::new(n, 17))).unwrap()
    }

    fn config(len: usize) -> TsIndexConfig {
        TsIndexConfig::new(len)
            .unwrap()
            .with_capacities(3, 8)
            .unwrap()
    }

    #[test]
    fn build_validates_input() {
        let s = InMemorySeries::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert!(TsIndex::build(&s, config(10)).is_err());
        let idx = TsIndex::build(&s, config(3)).unwrap();
        assert_eq!(idx.indexed_count(), 1);
        assert!(!idx.is_empty());
    }

    #[test]
    fn indexes_every_subsequence_and_respects_invariants() {
        let s = store(2_000);
        let idx = TsIndex::build(&s, config(50)).unwrap();
        assert_eq!(idx.indexed_count(), s.subsequence_count(50));
        assert_eq!(idx.check_invariants(), None);
        let st = idx.stats();
        assert_eq!(st.entries, idx.indexed_count());
        assert_eq!(st.nodes, st.leaves + st.internal);
        assert!(st.height > 1, "2k entries with capacity 8 must split");
        assert!(st.memory_bytes > 0);
    }

    #[test]
    fn paper_default_capacities_also_valid() {
        let s = store(3_000);
        let idx = TsIndex::build(&s, TsIndexConfig::new(100).unwrap()).unwrap();
        assert_eq!(idx.check_invariants(), None);
        assert_eq!(idx.indexed_count(), s.subsequence_count(100));
        assert_eq!(idx.config().max_capacity, 30);
    }

    #[test]
    fn height_grows_with_data() {
        let small = TsIndex::build(&store(300), config(20)).unwrap();
        let large = TsIndex::build(&store(5_000), config(20)).unwrap();
        assert!(large.height() >= small.height());
        assert!(large.stats().nodes > small.stats().nodes);
    }

    #[test]
    fn single_leaf_tree() {
        let s = store(60);
        // 60 - 50 + 1 = 11 subsequences with max capacity 30: stays one leaf.
        let idx = TsIndex::build(&s, TsIndexConfig::new(50).unwrap()).unwrap();
        assert_eq!(idx.height(), 1);
        assert_eq!(idx.stats().leaves, 1);
        assert_eq!(idx.stats().internal, 0);
        assert_eq!(idx.check_invariants(), None);
    }

    #[test]
    fn farthest_pair_is_correct() {
        let members = [[0.0, 0.0], [1.0, 1.0], [10.0, 0.0]];
        let pair = farthest_pair(3, |i, j| max_abs_diff(&members[i], &members[j]));
        assert_eq!(pair, (0, 2));
    }

    #[test]
    fn on_append_preserves_invariants_and_indexes_every_window() {
        use ts_core::MaintainableSearcher;
        use ts_storage::PerSubsequenceNormalized;

        // A base built by the loader, then grown in uneven chunks.
        fn check<S: SeriesStore>(values: &[f64], wrap: impl Fn(InMemorySeries) -> S, what: &str) {
            let len = 40;
            let prefix = |n: usize| wrap(InMemorySeries::new(values[..n].to_vec()).unwrap());
            let mut cut = 1_500;
            let mut idx = TsIndex::build(&prefix(cut), config(len)).unwrap();
            assert!(idx.height() >= 3, "{what}");
            for step in [1usize, 333, 64, 5, 400, 2, 97].iter().cycle() {
                if cut == values.len() {
                    break;
                }
                let next = (cut + step).min(values.len());
                assert_eq!(idx.on_append(&prefix(next)).unwrap(), next - cut, "{what}");
                assert_eq!(idx.check_invariants(), None, "{what}");
                cut = next;
            }
            let store = prefix(cut);
            assert_eq!(idx.indexed_count(), store.subsequence_count(len), "{what}");
            assert_eq!(idx.on_append(&store).unwrap(), 0, "{what}");
        }

        let raw = insect_like(GeneratorConfig::new(2_500, 31));
        let znorm = InMemorySeries::new_znormalized(&raw)
            .unwrap()
            .read(0, raw.len())
            .unwrap();
        check(&raw, |s| s, "raw");
        check(&znorm, |s| s, "whole-series z-norm");
        check(
            &raw,
            PerSubsequenceNormalized::new,
            "per-subsequence z-norm",
        );
    }

    #[test]
    fn on_append_resumes_after_a_partial_failure() {
        use ts_core::MaintainableSearcher;

        // A store whose reads fail once above a position threshold, so the
        // first maintenance pass dies partway through the fresh windows.
        struct FlakyStore {
            inner: InMemorySeries,
            fail_above: std::cell::Cell<Option<usize>>,
        }
        impl SeriesStore for FlakyStore {
            fn len(&self) -> usize {
                self.inner.len()
            }
            fn read_into(&self, start: usize, buf: &mut [f64]) -> Result<()> {
                if let Some(limit) = self.fail_above.get() {
                    if start > limit {
                        self.fail_above.set(None); // fail exactly once
                        return Err(StorageError::Io(std::io::Error::other("transient")));
                    }
                }
                self.inner.read_into(start, buf)
            }
        }

        let full = insect_like(GeneratorConfig::new(1_200, 53));
        let len = 30;
        let split = 700;
        let store = FlakyStore {
            inner: InMemorySeries::new(full.clone()).unwrap(),
            fail_above: std::cell::Cell::new(None),
        };
        let prefix = InMemorySeries::new(full[..split].to_vec()).unwrap();
        let mut idx = TsIndex::build(&prefix, config(len)).unwrap();

        // First pass fails midway through the appended windows...
        store.fail_above.set(Some(split + 200));
        assert!(idx.on_append(&store).is_err());
        let partially_indexed = idx.indexed_count();
        assert!(partially_indexed > prefix.subsequence_count(len));
        assert!(partially_indexed < store.subsequence_count(len));

        // ...and the retry resumes exactly where it stopped: every window
        // indexed once, invariants intact, answers equal to a bulk build.
        let resumed = idx.on_append(&store).unwrap();
        assert_eq!(
            partially_indexed + resumed,
            store.subsequence_count(len),
            "no window skipped or double-indexed"
        );
        assert_eq!(idx.check_invariants(), None);
        let bulk = TsIndex::build(&store, config(len)).unwrap();
        let query = store.inner.read(900, len).unwrap();
        assert_eq!(
            idx.search(&store, &query, 0.5).unwrap(),
            bulk.search(&store, &query, 0.5).unwrap()
        );
    }

    #[test]
    fn memory_accounting_is_exact_after_a_build() {
        let index = TsIndex::build(&store(2_000), config(50)).unwrap();
        let stats = index.stats();
        assert_eq!(index.stride(), 100);
        // No growth slack: one slot per node, nothing more.
        assert_eq!(index.envelopes.len(), stats.nodes * index.stride());
        assert_eq!(index.envelopes.capacity(), stats.nodes * index.stride());
        assert_eq!(index.nodes.capacity(), stats.nodes);
        // The documented formula, computed independently.
        let payload: usize = index
            .nodes
            .iter()
            .map(|node| match &node.kind {
                NodeKind::Internal { children } => children.capacity() * 8,
                NodeKind::Leaf { positions } => positions.capacity() * 4,
            })
            .sum();
        assert_eq!(
            stats.memory_bytes,
            std::mem::size_of::<TsIndex>()
                + stats.nodes * std::mem::size_of::<Node>()
                + stats.nodes * index.stride() * 8
                + payload
        );
        assert_eq!(index.memory_bytes(), stats.memory_bytes);
        // A node is links only: the two envelope vectors are gone.
        assert_eq!(std::mem::size_of::<Node>(), 48);
    }

    /// The descent this crate used before the bounded kernel: every child
    /// scored in full by the two scalar `Mbts` passes.
    fn reference_choose_child(index: &TsIndex, children: &[NodeId], values: &[f64]) -> NodeId {
        let key = |child: NodeId| {
            let mbts = Mbts::from_packed(index.envelope(child)).unwrap();
            (
                mbts.distance_to_sequence(values),
                mbts.expansion_for_sequence(values),
                index.nodes[child].entry_count(),
            )
        };
        let mut best = children[0];
        let mut best_key = key(best);
        for &child in &children[1..] {
            let child_key = key(child);
            if child_key < best_key {
                best_key = child_key;
                best = child;
            }
        }
        best
    }

    fn assert_identical(tree: &TsIndex, reference: &TsIndex, what: &str) {
        assert_eq!(tree.root, reference.root, "{what}: root");
        assert_eq!(tree.entries, reference.entries, "{what}: entries");
        assert_eq!(
            tree.nodes.len(),
            reference.nodes.len(),
            "{what}: node count"
        );
        let bits = |envelope: &[f64]| envelope.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (id, (node, expected)) in tree.nodes.iter().zip(&reference.nodes).enumerate() {
            assert_eq!(node, expected, "{what}: links of node {id}");
            assert_eq!(
                bits(tree.envelope(id)),
                bits(reference.envelope(id)),
                "{what}: envelope of node {id}"
            );
        }
        assert_eq!(tree.check_invariants(), None, "{what}");
    }

    /// Grows the §5.2 tree over `values` twice — through `on_append` in
    /// uneven chunks from a one-window base, and by the reference descent —
    /// and asserts the two are the same tree, node for node and bit for bit.
    fn assert_bounded_descent_builds_the_reference_tree<S: SeriesStore>(
        values: &[f64],
        wrap: impl Fn(InMemorySeries) -> S,
        config: TsIndexConfig,
        what: &str,
    ) {
        use ts_core::MaintainableSearcher;

        let len = config.subsequence_len;
        let prefix = |n: usize| wrap(InMemorySeries::new(values[..n].to_vec()).unwrap());
        let full = prefix(values.len());

        let mut reference = TsIndex::empty(config);
        let mut buf = vec![0.0; len];
        for position in 0..full.subsequence_count(len) {
            full.read_into(position, &mut buf).unwrap();
            reference
                .insert_with(&full, position as u32, &buf, reference_choose_child)
                .unwrap();
        }
        assert!(reference.height() >= 3, "{what}: internal nodes must split");

        let mut cut = len;
        let mut grown = TsIndex::build(&prefix(cut), config).unwrap();
        for step in [1usize, 333, 64, 5, 1_000, 2, 97].iter().cycle() {
            if cut == values.len() {
                break;
            }
            cut = (cut + step).min(values.len());
            grown.on_append(&prefix(cut)).unwrap();
        }
        assert_identical(&grown, &reference, &format!("{what}, grown"));
    }

    #[test]
    fn bounded_descent_builds_the_same_tree_as_the_scalar_reference() {
        use ts_data::generators::eeg_like;
        use ts_storage::PerSubsequenceNormalized;

        let small = TsIndexConfig::new(50)
            .unwrap()
            .with_capacities(3, 8)
            .unwrap();
        let paper = TsIndexConfig::new(100).unwrap();
        for (data, raw) in [
            ("eeg_like", eeg_like(GeneratorConfig::new(2_000, 5))),
            ("insect_like", insect_like(GeneratorConfig::new(2_000, 6))),
        ] {
            let znorm = InMemorySeries::new_znormalized(&raw)
                .unwrap()
                .read(0, raw.len())
                .unwrap();
            for (capacities, config) in [("(3, 8)", small), ("(10, 30)", paper)] {
                let what = |regime: &str| format!("{data}, {regime}, capacities {capacities}");
                assert_bounded_descent_builds_the_reference_tree(
                    &znorm,
                    |s| s,
                    config,
                    &what("whole-series z-norm"),
                );
                assert_bounded_descent_builds_the_reference_tree(&raw, |s| s, config, &what("raw"));
                assert_bounded_descent_builds_the_reference_tree(
                    &raw,
                    PerSubsequenceNormalized::new,
                    config,
                    &what("per-subsequence z-norm"),
                );
            }
        }
    }

    #[test]
    fn two_builds_of_one_input_are_identical() {
        use ts_data::generators::eeg_like;
        use ts_storage::PerSubsequenceNormalized;

        let raw = eeg_like(GeneratorConfig::new(3_000, 8));
        let plain = InMemorySeries::new_znormalized(&raw).unwrap();
        assert_identical(
            &TsIndex::build(&plain, config(50)).unwrap(),
            &TsIndex::build(&plain, config(50)).unwrap(),
            "whole-series z-norm",
        );
        let per_window = PerSubsequenceNormalized::new(InMemorySeries::new(raw).unwrap());
        assert_identical(
            &TsIndex::build(&per_window, config(50)).unwrap(),
            &TsIndex::build(&per_window, config(50)).unwrap(),
            "per-subsequence z-norm",
        );
    }

    #[test]
    fn bulk_envelopes_are_the_scalar_union_of_their_members() {
        let s = store(1_500);
        let len = 50;
        let index = TsIndex::build(&s, config(len)).unwrap();
        for (id, node) in index.nodes.iter().enumerate() {
            let expected = match &node.kind {
                NodeKind::Leaf { positions } => {
                    let members: Vec<Vec<f64>> = positions
                        .iter()
                        .map(|&p| s.read(p as usize, len).unwrap())
                        .collect();
                    Mbts::from_sequences(&members).unwrap()
                }
                NodeKind::Internal { children } => {
                    let mut union = Mbts::from_packed(index.envelope(children[0])).unwrap();
                    for &c in &children[1..] {
                        union
                            .expand_with_mbts(&Mbts::from_packed(index.envelope(c)).unwrap())
                            .unwrap();
                    }
                    union
                }
            };
            assert_eq!(Mbts::from_packed(index.envelope(id)).unwrap(), expected);
        }
    }

    #[test]
    fn clone_preserves_structure() {
        let s = store(800);
        let idx = TsIndex::build(&s, config(40)).unwrap();
        let cloned = idx.clone();
        assert_eq!(cloned.indexed_count(), idx.indexed_count());
        // Memory accounting may differ slightly (clone trims Vec capacity),
        // but the logical structure must be identical.
        let (a, b) = (cloned.stats(), idx.stats());
        assert_eq!(
            (a.nodes, a.leaves, a.internal, a.entries, a.height),
            (b.nodes, b.leaves, b.internal, b.entries, b.height)
        );
        assert_eq!(cloned.check_invariants(), None);
    }
}
