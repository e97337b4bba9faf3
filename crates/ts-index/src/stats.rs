//! Structural statistics.

/// Structural statistics of a built TS-Index (used for the Figure 8 style
/// memory-footprint reporting and for the invariants checked in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TsIndexStats {
    /// Total number of tree nodes.
    pub nodes: usize,
    /// Number of leaf nodes.
    pub leaves: usize,
    /// Number of internal nodes.
    pub internal: usize,
    /// Number of indexed subsequence positions.
    pub entries: usize,
    /// Tree height (number of levels; a lone root leaf has height 1).
    pub height: usize,
    /// Approximate heap memory used by the index structure, in bytes.
    pub memory_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        assert_eq!(TsIndexStats::default().nodes, 0);
    }
}
