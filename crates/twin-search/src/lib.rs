//! # twin-search
//!
//! The facade crate of the *twin subsequence search* workspace: a single
//! entry point over every search method implemented in the repository,
//! organised around a **query/outcome API**:
//!
//! * [`TwinQuery`] — a query builder carrying the query values, the
//!   Chebyshev threshold ε and execution options:
//!   [`parallel`](TwinQuery::parallel) (multi-threaded traversal),
//!   [`limit`](TwinQuery::limit) (cap the result),
//!   [`count_only`](TwinQuery::count_only) (skip materialising positions)
//!   and [`collect_stats`](TwinQuery::collect_stats).
//! * [`SearchOutcome`] / [`SearchStats`] — the answer: matching positions
//!   plus, on request, exactly the quantities the paper's evaluation (§6)
//!   is about — candidates generated and verified, index nodes visited and
//!   pruned, and the filter-vs-verify wall-clock split.
//! * [`TwinSearcher`] — the trait every method implements; its
//!   [`execute`](TwinSearcher::execute) answers a [`TwinQuery`] and is the
//!   single entry point all four methods (Sweepline, KV-Index, iSAX,
//!   **TS-Index**) answer through.
//! * [`Method`], [`EngineConfig`] / [`Engine`] — prepare a series under a
//!   chosen normalisation regime, build the chosen index once, and answer
//!   any number of twin queries against it.  [`Engine::execute`] answers one
//!   query; [`Engine::search_batch`] fans a batch out across worker threads
//!   and routes a singleton TS-Index query through the index's parallel
//!   traversal.  [`Engine::search`] / [`Engine::count`] / [`Engine::top_k`]
//!   are thin wrappers for callers that only want the positions.
//! * [`ShardedEngine`] / [`ShardedLiveEngine`] — the same facade over a
//!   series partitioned across N independent engines (one index + store per
//!   shard): queries fan out across shards on the shared work-stealing
//!   [`Executor`] and merge with position remapping, byte-identical to the
//!   unsharded answer.  Every parallel path in the crate — deep TS-Index
//!   traversal, batch fan-out, shard fan-out — runs on that one executor,
//!   and every accepted thread count is clamped to the machine's available
//!   parallelism (outcomes report the clamped width via `threads_used`).
//! * [`TenantRegistry`] / [`Tenant`] — the multi-tenant lifecycle layer
//!   behind the `ts-serve` daemon: one named, crash-safe [`LiveEngine`] per
//!   tenant under a shared data directory, opened lazily, recovered from
//!   its WAL (newest checkpoint snapshot + log tail) after a restart, with
//!   per-tenant ingest, WAL and query-latency accounting (see the
//!   [`tenant`] module docs and `docs/durability.md`).
//!
//! ## Example: a stats-carrying parallel query
//!
//! ```
//! use twin_search::{Engine, EngineConfig, Method, SeriesStore, TwinQuery};
//!
//! // A toy series: a noisy sine wave.
//! let series: Vec<f64> = (0..2_000)
//!     .map(|i| (i as f64 * 0.05).sin() + 0.01 * ((i * 7 % 13) as f64))
//!     .collect();
//!
//! // Build a TS-Index over all subsequences of length 100.
//! let config = EngineConfig::new(Method::TsIndex, 100);
//! let engine = Engine::build(&series, config).unwrap();
//!
//! // Use one of the indexed subsequences as the query, ask for a
//! // multi-threaded traversal and execution statistics.
//! let values = engine.store().read(500, 100).unwrap();
//! let query = TwinQuery::new(values, 0.05).parallel(2).collect_stats();
//! let outcome = engine.execute(&query).unwrap();
//!
//! assert!(outcome.positions.contains(&500));
//! assert_eq!(outcome.match_count, outcome.positions.len());
//!
//! // The stats record how the answer was reached: the MBTS envelope check
//! // pruned subtrees, the surviving candidates were verified exactly.
//! let stats = outcome.stats.unwrap();
//! assert!(stats.nodes_visited > 0);
//! assert!(stats.candidates_verified >= outcome.match_count);
//! assert!(outcome.stats_consistent());
//!
//! // Batches fan out across threads; outcomes arrive in query order.
//! let batch: Vec<TwinQuery> = [100usize, 900, 1_500]
//!     .iter()
//!     .map(|&p| TwinQuery::new(engine.store().read(p, 100).unwrap(), 0.05))
//!     .collect();
//! let outcomes = engine.search_batch(&batch).unwrap();
//! assert_eq!(outcomes.len(), 3);
//! assert!(outcomes[0].positions.contains(&100));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod live;
mod method;
mod searcher;
mod sharded;
pub mod tenant;

pub use engine::{Engine, EngineConfig, PreparedStore};
pub use live::{recover_from_log, LiveBackend, LiveEngine};
pub use method::Method;
pub use searcher::TwinSearcher;
pub use sharded::{ShardedEngine, ShardedLiveEngine};
pub use tenant::{
    CheckpointWatchdog, Tenant, TenantError, TenantRegistry, TenantSpec, TenantStats,
    WatchdogConfig,
};

// Re-export the building blocks so downstream users need a single dependency.
pub use ts_core::exec::Executor;
pub use ts_core::maintain::{IngestStats, MaintainableSearcher};
pub use ts_core::normalize::Normalization;
pub use ts_core::query::{SearchOutcome, SearchStats, TwinQuery};
pub use ts_core::{are_twins, euclidean_threshold_for, Mbts, Subsequence, TimeSeries};
pub use ts_data::{Dataset, ExperimentDefaults, ParameterGrid, QueryWorkload};
pub use ts_index::{
    ParallelTraversal, SplitPolicy, TopKMatch, TreeDiagnostics, TsIndex, TsIndexConfig,
    TsIndexStats,
};
pub use ts_ingest::wal::snapshot_path_for;
pub use ts_ingest::{AppendLogSeries, ChunkReader, WalConfig, WalSeries, WalStats};
pub use ts_kv::{KvIndex, KvIndexConfig};
pub use ts_sax::{IsaxConfig, IsaxIndex, IsaxIndexStats};
pub use ts_storage::{
    plan_verify_options, AppendableStore, BlockCacheConfig, BlockCachedSeries, DiskSeries,
    InMemorySeries, MmapSeries, PerSubsequenceNormalized, SeriesStore, StoreKind,
};
pub use ts_sweep::{
    compare_chebyshev_euclidean, euclidean_search, ChebyshevEuclideanComparison, Sweepline,
};
