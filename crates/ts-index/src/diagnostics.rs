//! Structural diagnostics for a built TS-Index.
//!
//! These reports are not needed to answer queries; they exist to make the
//! index inspectable — how full the leaves are, how tight the envelopes are
//! per level, how balanced the tree is — and they back the node-capacity
//! ablation discussed in `DESIGN.md`.

use ts_core::mbts::packed;

use crate::index::TsIndex;
use crate::node::NodeKind;

/// Summary statistics of a set of observations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let (mut lo, mut hi, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0_f64);
        for &v in values {
            lo = lo.min(v);
            hi = hi.max(v);
            sum += v;
        }
        Self {
            count: values.len(),
            min: lo,
            max: hi,
            mean: sum / values.len() as f64,
        }
    }
}

/// A per-level and per-leaf report of the tree structure.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeDiagnostics {
    /// Number of nodes at each level (level 0 = root).
    pub nodes_per_level: Vec<usize>,
    /// Occupancy (entries per node) across all leaves.
    pub leaf_occupancy: Summary,
    /// Occupancy (children per node) across all internal nodes.
    pub internal_occupancy: Summary,
    /// Envelope area (`Σ_i upper_i − lower_i`) across all leaves; a proxy for
    /// how tight the leaf-level MBTS are and therefore how well Lemma 1 can
    /// prune.
    pub leaf_envelope_area: Summary,
    /// Fraction of leaves filled to at least the configured minimum capacity.
    pub leaves_at_or_above_min: f64,
}

impl TsIndex {
    /// Computes structural diagnostics for the built tree.
    #[must_use]
    pub fn diagnostics(&self) -> TreeDiagnostics {
        let mut nodes_per_level: Vec<usize> = Vec::new();
        let mut leaf_fill = Vec::new();
        let mut internal_fill = Vec::new();
        let mut leaf_area = Vec::new();
        let mut leaves_at_min = 0usize;

        if let Some(root) = self.root {
            let mut stack = vec![(root, 0usize)];
            while let Some((id, level)) = stack.pop() {
                if nodes_per_level.len() <= level {
                    nodes_per_level.resize(level + 1, 0);
                }
                nodes_per_level[level] += 1;
                match &self.nodes[id].kind {
                    NodeKind::Leaf { positions } => {
                        leaf_fill.push(positions.len() as f64);
                        leaf_area.push(packed::area(self.envelope(id)));
                        if positions.len() >= self.config.min_capacity {
                            leaves_at_min += 1;
                        }
                    }
                    NodeKind::Internal { children } => {
                        internal_fill.push(children.len() as f64);
                        stack.extend(children.iter().map(|&c| (c, level + 1)));
                    }
                }
            }
        }

        let leaves = leaf_fill.len().max(1);
        TreeDiagnostics {
            nodes_per_level,
            leaf_occupancy: Summary::from_values(&leaf_fill),
            internal_occupancy: Summary::from_values(&internal_fill),
            leaf_envelope_area: Summary::from_values(&leaf_area),
            leaves_at_or_above_min: leaves_at_min as f64 / leaves as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TsIndexConfig;
    use ts_data::generators::{insect_like, GeneratorConfig};
    use ts_storage::InMemorySeries;

    fn build(n: usize, min: usize, max: usize) -> (InMemorySeries, TsIndex) {
        let store =
            InMemorySeries::new_znormalized(&insect_like(GeneratorConfig::new(n, 77))).unwrap();
        let config = TsIndexConfig::new(50)
            .unwrap()
            .with_capacities(min, max)
            .unwrap();
        let index = TsIndex::build(&store, config).unwrap();
        (store, index)
    }

    #[test]
    fn diagnostics_are_consistent_with_stats() {
        let (_, index) = build(3_000, 4, 10);
        let d = index.diagnostics();
        let s = index.stats();
        assert_eq!(d.nodes_per_level.iter().sum::<usize>(), s.nodes);
        assert_eq!(d.nodes_per_level.len(), s.height);
        assert_eq!(d.leaf_occupancy.count, s.leaves);
        assert_eq!(d.internal_occupancy.count, s.internal);
        // Total entries across leaves equals the number of indexed positions.
        let total = d.leaf_occupancy.mean * d.leaf_occupancy.count as f64;
        assert!((total - s.entries as f64).abs() < 1e-6);
    }

    #[test]
    fn occupancy_respects_capacity_bounds() {
        let (_, index) = build(5_000, 4, 10);
        let d = index.diagnostics();
        assert!(d.leaf_occupancy.max <= 10.0);
        assert!(d.internal_occupancy.max <= 10.0);
        // Non-root nodes must be at least at the minimum; the root may be
        // smaller, so check the fraction instead of the minimum.
        assert!(d.leaves_at_or_above_min > 0.9);
        assert!(d.leaf_envelope_area.min >= 0.0);
        assert!(d.leaf_envelope_area.mean > 0.0);
    }

    #[test]
    fn single_leaf_tree_diagnostics() {
        let store =
            InMemorySeries::new_znormalized(&insect_like(GeneratorConfig::new(60, 1))).unwrap();
        let index = TsIndex::build(&store, TsIndexConfig::new(50).unwrap()).unwrap();
        let d = index.diagnostics();
        assert_eq!(d.nodes_per_level, vec![1]);
        assert_eq!(d.leaf_occupancy.count, 1);
        assert_eq!(d.internal_occupancy.count, 0);
        assert_eq!(d.internal_occupancy, Summary::default());
    }

    #[test]
    fn smaller_capacity_gives_tighter_leaf_envelopes() {
        let (_, small_nodes) = build(4_000, 2, 6);
        let (_, large_nodes) = build(4_000, 25, 60);
        let small_d = small_nodes.diagnostics();
        let large_d = large_nodes.diagnostics();
        assert!(
            small_d.leaf_envelope_area.mean < large_d.leaf_envelope_area.mean,
            "smaller nodes should have tighter envelopes ({} vs {})",
            small_d.leaf_envelope_area.mean,
            large_d.leaf_envelope_area.mean
        );
    }
}
