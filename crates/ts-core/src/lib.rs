//! # ts-core
//!
//! Core time-series primitives shared by every crate in the *twin subsequence
//! search* workspace.  This crate reproduces the building blocks used by the
//! EDBT 2021 paper "Twin Subsequence Search in Time Series":
//!
//! * [`TimeSeries`] — an owned, length-checked sequence of `f64` values with
//!   cheap subsequence views ([`series::Subsequence`]).
//! * [`distance`] — Chebyshev (L∞), Euclidean (L2) and generic Lp distances,
//!   including early-abandoning variants used during verification.
//! * [`normalize`] — z-normalisation of whole series and of individual
//!   subsequences (the three normalisation regimes discussed in §3.1 of the
//!   paper).
//! * [`paa`] / [`sax`] — Piecewise Aggregate Approximation and the Symbolic
//!   Aggregate approXimation alphabet used by the iSAX baseline (§4.2).
//! * [`mbts`] — the *Minimum Bounding Time Series* envelope and the two
//!   distance functions of Equations (2) and (3) that drive the TS-Index (§5).
//! * [`verify`] — filter-verification helpers with *reordering early
//!   abandoning* (§3.2): the blockwise chunked Chebyshev kernel the pipeline
//!   runs, and the scalar kernel the equivalence tests use as its reference.
//! * [`pipeline`] — the unified candidate→verification pipeline every
//!   method funnels through: [`pipeline::CandidateSet`] (sorted, deduped,
//!   coalesced into contiguous runs), the pooled [`pipeline::Scratch`]
//!   buffers, the single verification loop
//!   ([`pipeline::Pipeline::verify_into`]) and the shared filter/verify
//!   timing split ([`pipeline::finish_outcome`]).
//! * [`query`] — the query/outcome vocabulary shared by every search method:
//!   [`TwinQuery`], [`SearchOutcome`] and the instrumentation record
//!   [`SearchStats`].
//! * [`exec`] — the scoped work-stealing [`Executor`] behind every parallel
//!   code path (deep TS-Index traversal, batch fan-out, multi-shard search)
//!   and the thread-count clamping policy.
//! * [`admission`] — admission control for long-lived services: a bounded
//!   request queue with non-blocking overload rejection, per-request
//!   deadlines and drain-on-close semantics (used by the `ts-serve` daemon).
//! * [`obs`] — process-global observability: the lock-free metrics registry
//!   (counters, gauges, fixed-bucket histograms with Prometheus text
//!   exposition) and the per-request trace vocabulary every layer reports
//!   into.
//! * [`maintain`] — the incremental-maintenance contract for streaming
//!   appends: [`MaintainableSearcher`] and the write-path instrumentation
//!   record [`IngestStats`].
//! * [`twin`] — the twin-sequence predicate itself (Definition 1) and the
//!   Chebyshev→Euclidean threshold relation `ε' = ε·√l` (§3.1).
//!
//! All positions are **0-based** (the paper uses 1-based timestamps); a
//! subsequence `T_{p,l}` of the paper corresponds to `&series.values()[p..p+l]`
//! here.
//!
//! ## Example
//!
//! Two subsequences are *twins* at threshold ε exactly when their Chebyshev
//! distance is at most ε (Definition 1), which in turn bounds their Euclidean
//! distance by `ε·√l` (§3.1):
//!
//! ```
//! use ts_core::distance::{chebyshev, euclidean};
//! use ts_core::{are_twins, euclidean_threshold_for};
//!
//! let a: Vec<f64> = (0..64).map(|i| (i as f64 * 0.1).sin()).collect();
//! let b: Vec<f64> = a.iter().map(|x| x + 0.04).collect();
//!
//! let epsilon = 0.05;
//! assert!(are_twins(&a, &b, epsilon));
//! assert!(chebyshev(&a, &b).unwrap() <= epsilon);
//!
//! // The Chebyshev twin predicate implies the scaled Euclidean bound.
//! let eps_l2 = euclidean_threshold_for(epsilon, a.len());
//! assert!(euclidean(&a, &b).unwrap() <= eps_l2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod distance;
pub mod error;
pub mod exec;
pub mod maintain;
pub mod mbts;
pub mod normalize;
pub mod obs;
pub mod paa;
pub mod pipeline;
pub mod query;
pub mod sax;
pub mod series;
pub mod stats;
pub mod twin;
pub mod verify;

pub use admission::{AdmissionConfig, AdmissionError, AdmissionQueue, Admitted};
pub use error::{Result, TsError};
pub use exec::Executor;
pub use maintain::{IngestStats, MaintainableSearcher};
pub use mbts::Mbts;
pub use pipeline::{CandidateSet, Pipeline, Scratch, VerifyOptions, VerifyReport};
pub use query::{SearchOutcome, SearchStats, TwinQuery};
pub use series::{Subsequence, TimeSeries};
pub use twin::{are_twins, euclidean_threshold_for};
