//! # ts-sax
//!
//! The **iSAX index** baseline (§4.2), adapted to twin subsequence search.
//!
//! The index is a prefix tree over the SAX words of every `l`-length
//! subsequence of the input series.  Each node carries an iSAX word — one
//! symbol per PAA segment, each expressed at its own cardinality — and leaves
//! hold the starting positions (plus the full-resolution SAX word) of the
//! subsequences that fall under the node's word prefix.  When a leaf exceeds
//! the maximum capacity (paper default: 10 000) it is split by refining one
//! segment's symbol by one bit.
//!
//! **Twin-search pruning rule.**  If `S ~ε Q` then every pair of time-aligned
//! segments of `S` and `Q` are also twins, so their segment means differ by
//! at most `ε`.  A node whose symbol for segment `i` covers the mean range
//! `[lo_i, hi_i]` can therefore be pruned as soon as
//! `PAA(Q)_i + ε < lo_i` or `PAA(Q)_i − ε > hi_i` for any segment `i`.
//! Surviving leaves contribute their positions as candidates, which are
//! verified against the raw series with early abandoning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod index;

pub use config::IsaxConfig;
pub use index::{IsaxIndex, IsaxIndexStats};
