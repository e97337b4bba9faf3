//! # ts-index
//!
//! **TS-Index** — the paper's primary contribution (§5): a balanced tree
//! tailored to twin subsequence search.
//!
//! Every node of the tree is summarised by a *Minimum Bounding Time Series*
//! (MBTS): the pointwise upper and lower envelope of all subsequences indexed
//! below it.  Internal nodes point to child nodes; leaf nodes point to the
//! starting positions of the subsequences they index (the raw values stay in
//! the backing [`ts_storage::SeriesStore`]).  All leaves sit on the same
//! level.
//!
//! * **Construction** — [`TsIndex::build`] is a top-down bulk load (a stated
//!   deviation from §5.2, see the `bulk` module docs): the windows are
//!   partitioned recursively at the median of the timestamp that varies
//!   most, groups of at most `M_c` become leaves, and the leaves are packed
//!   under parents level by level.  It builds an order of magnitude faster
//!   than inserting every window and its upper levels prune 63 % instead of
//!   23 % of what a selective query visits there.
//! * **Maintenance** (§5.2) — appended subsequences are inserted top-down,
//!   descending at every level into the child whose MBTS is closest
//!   (Equation 2).  A node that exceeds the maximum capacity `M_c` is split
//!   in two: the two entries farthest apart (Chebyshev distance for leaves,
//!   Equation 3 for internal nodes) become seeds, and the remaining entries
//!   join the sibling whose MBTS expands least.  Splits propagate upward, so
//!   leaves stay on one level.  A one-window index grown this way over a
//!   whole series is the paper's tree.
//! * **Query** (§5.3, Algorithm 1) — a top-down traversal that prunes every
//!   node whose MBTS is farther than `ε` from the query (Lemma 1), then
//!   verifies the positions of the surviving leaves with reordering early
//!   abandoning.
//!
//! **Layout.**  The tree is two parallel arrays indexed by node id: the
//! nodes (parent link plus children or positions — no envelope inside) and
//! one flat `f64` arena holding every MBTS, node `id` in the slot
//! `id · 2l .. (id + 1) · 2l`.  A slot is *packed*
//! ([`ts_core::mbts::packed`]): blocks of eight timestamps, each block's
//! upper bounds followed by its lower bounds, so a bound check streams one
//! slot front to back and an early abandon reads only its first cache lines.
//! Insertion and pruning are the same kernel from that module — distance
//! (and expansion) of a sequence against a slot, abandoning once a gap
//! exceeds `bound` — called with `bound = ε` by the query and with the best
//! child distance so far by the descent.  The bound is strict and the child
//! is the first minimum of (distance, expansion, entry count), so an
//! abandoned child could never have been chosen and the tree is the one the
//! unbounded scoring grows, bit for bit (asserted against a scalar
//! reference descent in the crate's tests).  A freshly built index holds
//! exactly `nodes × 2l` envelope values; [`TsIndex::stats`] documents the
//! memory formula.
//!
//! Beyond the paper, the crate provides the top-down **bulk loader** behind
//! [`TsIndex::build`], a **top-k** twin query, and a **work-stealing
//! multi-threaded** query path on the shared [`ts_core::exec::Executor`]:
//! subtrees are split into tasks recursively (depth/fan-out threshold,
//! [`SplitPolicy`]), so skewed trees keep every worker busy instead of
//! serialising behind one dominant root child (ablation benches measure all
//! three).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bulk;
mod config;
mod diagnostics;
mod index;
mod node;
mod query;
mod stats;

pub use config::TsIndexConfig;
pub use diagnostics::{Summary, TreeDiagnostics};
pub use index::TsIndex;
pub use query::{ParallelTraversal, SplitPolicy, TopKMatch};
pub use stats::TsIndexStats;
