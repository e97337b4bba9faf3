//! Arena-allocated tree nodes.
//!
//! A node is only its links: the MBTS of node `id` lives in slot `id` of the
//! index's flat envelope arena (see [`crate::TsIndex`]), not in the node.

/// Index of a node inside the arena (and of its envelope slot).
pub(crate) type NodeId = usize;

/// What a node stores below it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum NodeKind {
    /// An internal node pointing to child nodes.
    Internal {
        /// Arena ids of the children.
        children: Vec<NodeId>,
    },
    /// A leaf pointing to subsequence starting positions in the backing store.
    Leaf {
        /// Starting positions of the indexed subsequences.
        positions: Vec<u32>,
    },
}

/// One node of the TS-Index: its parent link and its payload (children or
/// positions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Node {
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Children or positions.
    pub kind: NodeKind,
}

impl Node {
    /// Creates a leaf node.
    pub fn leaf(parent: Option<NodeId>, positions: Vec<u32>) -> Self {
        Self {
            parent,
            kind: NodeKind::Leaf { positions },
        }
    }

    /// Creates an internal node.
    pub fn internal(parent: Option<NodeId>, children: Vec<NodeId>) -> Self {
        Self {
            parent,
            kind: NodeKind::Internal { children },
        }
    }

    /// Returns `true` for leaf nodes.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf { .. })
    }

    /// Number of entries (children or positions) stored in this node.
    pub fn entry_count(&self) -> usize {
        match &self.kind {
            NodeKind::Internal { children } => children.len(),
            NodeKind::Leaf { positions } => positions.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let leaf = Node::leaf(None, vec![1, 2, 3]);
        assert!(leaf.is_leaf());
        assert_eq!(leaf.entry_count(), 3);
        assert!(leaf.parent.is_none());

        let internal = Node::internal(Some(0), vec![5, 6]);
        assert!(!internal.is_leaf());
        assert_eq!(internal.entry_count(), 2);
        assert_eq!(internal.parent, Some(0));
    }
}
