//! The [`Engine`]: prepare a series, build one search method, answer queries.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ts_core::exec::Executor;
use ts_core::normalize::Normalization;
use ts_core::query::{SearchOutcome, TwinQuery};
use ts_data::ExperimentDefaults;
use ts_storage::{
    BlockCacheConfig, BlockCachedSeries, DiskSeries, InMemorySeries, MmapSeries,
    PerSubsequenceNormalized, Result, SeriesStore, StorageError, StoreKind,
};

use crate::method::Method;
use crate::searcher::TwinSearcher;

/// A temporary on-disk copy of the prepared series; the file is removed when
/// the last engine referencing it is dropped.
#[derive(Debug)]
struct TempSeriesFile {
    path: PathBuf,
}

impl Drop for TempSeriesFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Counter making temp-file names unique within a process.
static TEMP_FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_series_path() -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "twin-search-{}-{}.series",
        std::process::id(),
        TEMP_FILE_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    path
}

/// One of the three file-backed stores, behind a single dispatch point so
/// the [`Backend`] enum does not multiply per normalisation regime.  Which
/// one serves a [`PreparedStore`] is chosen by [`StoreKind`]; see the
/// `ts-storage` crate docs for the backend matrix.
#[derive(Debug)]
enum DiskStore {
    /// Readahead [`DiskSeries`] — sequential scans.
    Plain(DiskSeries),
    /// Sharded [`BlockCachedSeries`] — random verification reads.
    Cached(BlockCachedSeries),
    /// [`MmapSeries`] — page-cache-served, zero-syscall reads.
    Mapped(MmapSeries),
}

impl SeriesStore for DiskStore {
    fn len(&self) -> usize {
        match self {
            DiskStore::Plain(s) => s.len(),
            DiskStore::Cached(s) => s.len(),
            DiskStore::Mapped(s) => s.len(),
        }
    }

    fn read_into(&self, start: usize, buf: &mut [f64]) -> Result<()> {
        match self {
            DiskStore::Plain(s) => s.read_into(start, buf),
            DiskStore::Cached(s) => s.read_into(start, buf),
            DiskStore::Mapped(s) => s.read_into(start, buf),
        }
    }

    // Forwarded so coalesced run reads keep each backend's bulk-read path
    // (readahead window / minimal block set) instead of the trait default.
    fn read_range_into(&self, start: usize, buf: &mut [f64]) -> Result<()> {
        match self {
            DiskStore::Plain(s) => s.read_range_into(start, buf),
            DiskStore::Cached(s) => s.read_range_into(start, buf),
            DiskStore::Mapped(s) => s.read_range_into(start, buf),
        }
    }

    // Forwarded so the block cache's run-span preference survives the enum
    // (the trait default would report "no preference").
    fn preferred_run_span(&self) -> Option<usize> {
        match self {
            DiskStore::Plain(s) => s.preferred_run_span(),
            DiskStore::Cached(s) => s.preferred_run_span(),
            DiskStore::Mapped(s) => s.preferred_run_span(),
        }
    }
}

/// The backing storage of a [`PreparedStore`]: main memory or a disk file
/// with random access — the latter reproduces the paper's setup where only
/// the index lives in memory and candidate subsequences are fetched from the
/// data file during verification (§6.1).
#[derive(Debug, Clone)]
enum Backend {
    /// Raw values or whole-series z-normalised values, held in memory.
    Plain(InMemorySeries),
    /// Per-subsequence z-normalisation applied at read time (in memory).
    PerSubsequence(PerSubsequenceNormalized<InMemorySeries>),
    /// Raw or whole-series z-normalised values stored on disk (any of the
    /// file-backed store kinds).
    Disk(Arc<DiskStore>),
    /// Per-subsequence z-normalisation applied over a disk-resident series.
    DiskPerSubsequence(PerSubsequenceNormalized<Arc<DiskStore>>),
}

/// A series prepared under one of the paper's three normalisation regimes
/// (§3.1), ready to be indexed and queried.
///
/// The `(min, max)` value range of the prepared series is computed once at
/// preparation time and cached, so consumers that need it (the iSAX
/// breakpoint choice for raw data) never re-read a disk-backed series.
#[derive(Debug, Clone)]
pub struct PreparedStore {
    backend: Backend,
    kind: StoreKind,
    range: (f64, f64),
    /// Held only for its `Drop`: removes the temp file of a disk-backed
    /// store when the last clone goes away.
    _temp_guard: Option<Arc<TempSeriesFile>>,
}

fn value_range_of(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

impl PreparedStore {
    /// Prepares `values` under `normalization`, holding the prepared series
    /// in memory.
    ///
    /// # Errors
    ///
    /// Returns an error for empty or non-finite input.
    pub fn prepare(values: &[f64], normalization: Normalization) -> Result<Self> {
        let backend = match normalization {
            Normalization::None => Backend::Plain(InMemorySeries::new(values.to_vec())?),
            Normalization::WholeSeries => Backend::Plain(InMemorySeries::new_znormalized(values)?),
            Normalization::PerSubsequence => Backend::PerSubsequence(
                PerSubsequenceNormalized::new(InMemorySeries::new(values.to_vec())?),
            ),
        };
        let range = match &backend {
            Backend::Plain(s) => value_range_of(s.values()),
            Backend::PerSubsequence(s) => value_range_of(s.inner().values()),
            Backend::Disk(..) | Backend::DiskPerSubsequence(..) => unreachable!(),
        };
        Ok(Self {
            backend,
            kind: StoreKind::Memory,
            range,
            _temp_guard: None,
        })
    }

    /// Prepares `values` under `normalization` and writes the prepared series
    /// to a temporary file served by the readahead [`DiskSeries`]
    /// (equivalent to [`PreparedStore::prepare_with`] with
    /// [`StoreKind::Disk`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedStore::prepare_with`].
    pub fn prepare_on_disk(values: &[f64], normalization: Normalization) -> Result<Self> {
        Self::prepare_with(
            values,
            normalization,
            StoreKind::Disk,
            BlockCacheConfig::default(),
        )
    }

    /// Prepares `values` under `normalization` in the chosen store backend:
    /// in memory, or written to a temporary file and served by the
    /// readahead, block-cached or memory-mapped store (the paper's storage
    /// setup — only the index lives in memory, candidate subsequences are
    /// fetched from the data file during verification, §6.1).  `cache`
    /// configures the block cache and is ignored by the other kinds.
    ///
    /// # Errors
    ///
    /// Returns an error for empty or non-finite input and propagates I/O
    /// failures while writing or reopening the temporary file.
    pub fn prepare_with(
        values: &[f64],
        normalization: Normalization,
        kind: StoreKind,
        cache: BlockCacheConfig,
    ) -> Result<Self> {
        if kind == StoreKind::Memory {
            return Self::prepare(values, normalization);
        }
        // Validate exactly like the in-memory path.
        let prepared: Vec<f64> = match normalization {
            Normalization::None | Normalization::PerSubsequence => {
                InMemorySeries::new(values.to_vec())?
                    .into_series()
                    .into_values()
            }
            Normalization::WholeSeries => InMemorySeries::new_znormalized(values)?
                .into_series()
                .into_values(),
        };
        // The prepared values are still in memory here: cache their range now
        // instead of re-reading the whole file on demand later.
        let range = value_range_of(&prepared);
        let path = temp_series_path();
        ts_storage::write_series(&path, &prepared)?;
        // Guard created before the open: a failing open (fd pressure, mmap
        // failure) must still remove the temp file on the error return.
        let guard = Arc::new(TempSeriesFile { path: path.clone() });
        let series = Arc::new(match kind {
            StoreKind::Disk => DiskStore::Plain(DiskSeries::open(&path)?),
            StoreKind::DiskCached => DiskStore::Cached(BlockCachedSeries::open_with(&path, cache)?),
            StoreKind::Mmap => DiskStore::Mapped(MmapSeries::open(&path)?),
            StoreKind::Memory => unreachable!("handled above"),
        });
        let backend = match normalization {
            Normalization::PerSubsequence => {
                Backend::DiskPerSubsequence(PerSubsequenceNormalized::new(series))
            }
            _ => Backend::Disk(series),
        };
        Ok(Self {
            backend,
            kind,
            range,
            _temp_guard: Some(guard),
        })
    }

    /// The store backend serving reads.
    #[must_use]
    pub fn store_kind(&self) -> StoreKind {
        self.kind
    }

    /// Returns `true` when reads are served from a disk file (any of the
    /// file-backed kinds, including the memory-mapped one).
    #[must_use]
    pub fn is_disk_backed(&self) -> bool {
        self.kind.is_disk_backed()
    }

    /// Minimum and maximum value of the prepared series (used to pick SAX
    /// breakpoints for raw data).  Computed once at preparation time; for a
    /// per-subsequence regime this is the range of the *underlying* series,
    /// not of the normalised reads.
    #[must_use]
    pub fn value_range(&self) -> (f64, f64) {
        self.range
    }
}

impl SeriesStore for PreparedStore {
    fn len(&self) -> usize {
        match &self.backend {
            Backend::Plain(s) => s.len(),
            Backend::PerSubsequence(s) => s.len(),
            Backend::Disk(s) => s.len(),
            Backend::DiskPerSubsequence(s) => s.len(),
        }
    }

    fn read_into(&self, start: usize, buf: &mut [f64]) -> Result<()> {
        match &self.backend {
            Backend::Plain(s) => s.read_into(start, buf),
            Backend::PerSubsequence(s) => s.read_into(start, buf),
            Backend::Disk(s) => s.read_into(start, buf),
            Backend::DiskPerSubsequence(s) => s.read_into(start, buf),
        }
    }

    fn read_range_into(&self, start: usize, buf: &mut [f64]) -> Result<()> {
        match &self.backend {
            Backend::Plain(s) => s.read_range_into(start, buf),
            Backend::PerSubsequence(s) => s.read_range_into(start, buf),
            Backend::Disk(s) => s.read_range_into(start, buf),
            Backend::DiskPerSubsequence(s) => s.read_range_into(start, buf),
        }
    }

    // Critical forward: the per-subsequence regimes normalise per requested
    // range, so the verification pipeline must not coalesce their windows
    // into run reads — unless it normalises them itself from the raw-range
    // path (the `normalizes_per_window` / `read_raw_range_into` pair below).
    fn range_reads_are_slices(&self) -> bool {
        match &self.backend {
            Backend::Plain(s) => s.range_reads_are_slices(),
            Backend::PerSubsequence(s) => s.range_reads_are_slices(),
            Backend::Disk(s) => s.range_reads_are_slices(),
            Backend::DiskPerSubsequence(s) => s.range_reads_are_slices(),
        }
    }

    fn normalizes_per_window(&self) -> bool {
        match &self.backend {
            Backend::Plain(s) => s.normalizes_per_window(),
            Backend::PerSubsequence(s) => s.normalizes_per_window(),
            Backend::Disk(s) => s.normalizes_per_window(),
            Backend::DiskPerSubsequence(s) => s.normalizes_per_window(),
        }
    }

    fn read_raw_range_into(&self, start: usize, buf: &mut [f64]) -> Result<()> {
        match &self.backend {
            Backend::Plain(s) => s.read_raw_range_into(start, buf),
            Backend::PerSubsequence(s) => s.read_raw_range_into(start, buf),
            Backend::Disk(s) => s.read_raw_range_into(start, buf),
            Backend::DiskPerSubsequence(s) => s.read_raw_range_into(start, buf),
        }
    }

    fn preferred_run_span(&self) -> Option<usize> {
        match &self.backend {
            Backend::Plain(s) => s.preferred_run_span(),
            Backend::PerSubsequence(s) => s.preferred_run_span(),
            Backend::Disk(s) => s.preferred_run_span(),
            Backend::DiskPerSubsequence(s) => s.preferred_run_span(),
        }
    }
}

/// Configuration for [`Engine::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// The search method to build.
    pub method: Method,
    /// Subsequence / query length `l`.
    pub subsequence_len: usize,
    /// Normalisation regime applied to the series before indexing.
    pub normalization: Normalization,
    /// Number of PAA segments `m` for the iSAX index (Table 2 default 10).
    pub segments: usize,
    /// iSAX maximum leaf capacity (§6.1 default 10 000).
    pub isax_leaf_capacity: usize,
    /// TS-Index minimum node capacity `µ_c` (§6.1 default 10).
    pub tsindex_min_capacity: usize,
    /// TS-Index maximum node capacity `M_c` (§6.1 default 30).
    pub tsindex_max_capacity: usize,
    /// Number of KV-Index mean-value buckets.
    pub kv_buckets: usize,
    /// Where the prepared series lives and how reads are served: in memory
    /// (the default), or in a temporary file behind the readahead,
    /// block-cached or memory-mapped store — the latter three reproduce the
    /// paper's storage setup (§6.1) where only the index is RAM-resident and
    /// candidate verification pays a file read.
    pub store: StoreKind,
    /// Block-cache geometry used when `store` is [`StoreKind::DiskCached`]
    /// (ignored by every other kind).
    pub cache: BlockCacheConfig,
    /// Number of shards the prepared series is partitioned into (default 1).
    ///
    /// Honoured by [`crate::ShardedEngine`] / [`crate::ShardedLiveEngine`],
    /// which keep one independent engine per shard and fan queries out
    /// across them; a plain [`Engine`] always builds a single unsharded
    /// index and ignores this field.
    pub shards: usize,
    /// Durability / compaction knobs for WAL-backed live engines (group
    /// commit, checkpointing, snapshot store).  Ignored by static engines;
    /// see [`ts_ingest::WalConfig`].
    pub wal: ts_ingest::WalConfig,
}

impl EngineConfig {
    /// Creates a configuration with the paper's default parameters.
    #[must_use]
    pub fn new(method: Method, subsequence_len: usize) -> Self {
        let defaults = ExperimentDefaults::paper();
        Self {
            method,
            subsequence_len,
            normalization: Normalization::WholeSeries,
            segments: defaults.segments,
            isax_leaf_capacity: defaults.isax_leaf_capacity,
            tsindex_min_capacity: defaults.tsindex_min_capacity,
            tsindex_max_capacity: defaults.tsindex_max_capacity,
            kv_buckets: 256,
            store: StoreKind::Memory,
            cache: BlockCacheConfig::default(),
            shards: 1,
            wal: ts_ingest::WalConfig::default(),
        }
    }

    /// Sets the normalisation regime.
    #[must_use]
    pub fn with_normalization(mut self, normalization: Normalization) -> Self {
        self.normalization = normalization;
        self
    }

    /// Sets the number of PAA segments used by the iSAX index.
    #[must_use]
    pub fn with_segments(mut self, segments: usize) -> Self {
        self.segments = segments;
        self
    }

    /// Sets the iSAX leaf capacity.
    #[must_use]
    pub fn with_isax_leaf_capacity(mut self, capacity: usize) -> Self {
        self.isax_leaf_capacity = capacity;
        self
    }

    /// Sets the TS-Index node capacities.
    #[must_use]
    pub fn with_tsindex_capacities(mut self, min: usize, max: usize) -> Self {
        self.tsindex_min_capacity = min;
        self.tsindex_max_capacity = max;
        self
    }

    /// Sets the number of KV-Index mean buckets.
    #[must_use]
    pub fn with_kv_buckets(mut self, buckets: usize) -> Self {
        self.kv_buckets = buckets;
        self
    }

    /// Requests disk-backed storage for the prepared series (the paper's
    /// setup: index in memory, data file on disk, verification via random
    /// access reads).  Shorthand for [`EngineConfig::with_store`] with
    /// [`StoreKind::Disk`] / [`StoreKind::Memory`].
    #[must_use]
    pub fn with_disk_backing(self, disk: bool) -> Self {
        self.with_store(if disk {
            StoreKind::Disk
        } else {
            StoreKind::Memory
        })
    }

    /// Chooses the store backend for the prepared series.
    #[must_use]
    pub fn with_store(mut self, store: StoreKind) -> Self {
        self.store = store;
        self
    }

    /// Sets the block-cache geometry used by [`StoreKind::DiskCached`].
    #[must_use]
    pub fn with_cache_config(mut self, cache: BlockCacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the shard count used by [`crate::ShardedEngine`] /
    /// [`crate::ShardedLiveEngine`] (values below 1 are treated as 1).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the WAL durability / compaction knobs used by WAL-backed live
    /// engines (ignored by static engines).
    #[must_use]
    pub fn with_wal(mut self, wal: ts_ingest::WalConfig) -> Self {
        self.wal = wal;
        self
    }
}

/// The searcher trait object behind an [`Engine`]: any method, dispatched
/// uniformly through [`TwinSearcher::execute`].
type DynSearcher = Arc<dyn TwinSearcher<PreparedStore> + Send + Sync>;

/// A prepared series plus one built search method.
#[derive(Clone)]
pub struct Engine {
    config: EngineConfig,
    store: PreparedStore,
    searcher: DynSearcher,
    build_time: Duration,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("store", &self.store)
            .field("searcher", &self.searcher.method_name())
            .field("build_time", &self.build_time)
            .finish()
    }
}

impl Engine {
    /// Prepares `values` under the configured normalisation and builds the
    /// configured method's index over every subsequence of the configured
    /// length.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid parameters (e.g. KV-Index combined with
    /// per-subsequence normalisation, a subsequence length longer than the
    /// series) and propagates index-construction failures.
    pub fn build(values: &[f64], config: EngineConfig) -> Result<Self> {
        if config.method == Method::KvIndex && config.normalization == Normalization::PerSubsequence
        {
            return Err(StorageError::Core(ts_core::TsError::InvalidParameter(
                "KV-Index cannot be used with per-subsequence z-normalisation: every \
                 subsequence mean is zero, so the mean filter cannot discriminate (§4.1)"
                    .into(),
            )));
        }
        let store =
            PreparedStore::prepare_with(values, config.normalization, config.store, config.cache)?;
        let started = Instant::now();
        let searcher: DynSearcher = match config.method {
            Method::Sweepline => Arc::new(ts_sweep::Sweepline::new()),
            Method::KvIndex => Arc::new(ts_kv::KvIndex::build(
                &store,
                ts_kv::KvIndexConfig::new(config.subsequence_len).with_buckets(config.kv_buckets),
            )?),
            Method::Isax => {
                let isax_config = match config.normalization {
                    Normalization::None => {
                        let (lo, hi) = store.value_range();
                        ts_sax::IsaxConfig::for_raw(config.subsequence_len, lo, hi)
                            .map_err(StorageError::Core)?
                    }
                    _ => ts_sax::IsaxConfig::for_normalized(config.subsequence_len)
                        .map_err(StorageError::Core)?,
                }
                .with_segments(config.segments)
                .with_leaf_capacity(config.isax_leaf_capacity);
                Arc::new(ts_sax::IsaxIndex::build(&store, isax_config)?)
            }
            Method::TsIndex => {
                let ts_config = ts_index::TsIndexConfig::new(config.subsequence_len)
                    .and_then(|c| {
                        c.with_capacities(config.tsindex_min_capacity, config.tsindex_max_capacity)
                    })
                    .map_err(StorageError::Core)?;
                Arc::new(ts_index::TsIndex::build(&store, ts_config)?)
            }
        };
        let build_time = started.elapsed();
        Ok(Self {
            config,
            store,
            searcher,
            build_time,
        })
    }

    /// The configuration the engine was built with.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The method behind this engine.
    #[must_use]
    pub fn method(&self) -> Method {
        self.config.method
    }

    /// The prepared store (useful for sampling queries from the indexed data).
    #[must_use]
    pub fn store(&self) -> &PreparedStore {
        &self.store
    }

    /// Wall-clock time spent building the index.
    #[must_use]
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Approximate heap memory used by the index structure (0 for Sweepline).
    #[must_use]
    pub fn index_memory_bytes(&self) -> usize {
        self.searcher.memory_bytes()
    }

    /// Access to the underlying TS-Index, when that is the built method
    /// (needed for the top-k and parallel extensions).
    #[must_use]
    pub fn ts_index(&self) -> Option<&ts_index::TsIndex> {
        self.searcher.as_ts_index()
    }

    /// Answers a [`TwinQuery`] through the built method's
    /// [`TwinSearcher::execute`]: matching positions plus, when requested,
    /// a [`ts_core::SearchStats`] record of how the answer was reached.
    ///
    /// The query must already be expressed in the same space as the indexed
    /// data (e.g. z-normalised when the engine uses per-subsequence
    /// normalisation — queries sampled from [`Engine::store`] always are).
    ///
    /// # Errors
    ///
    /// Propagates query-validation and storage errors.
    pub fn execute(&self, query: &TwinQuery) -> Result<SearchOutcome> {
        self.searcher.execute(&self.store, query)
    }

    /// Answers a batch of queries, fanning them out across up to
    /// `available_parallelism` worker threads.  A batch holding a single
    /// TS-Index query is instead routed through the index's multi-threaded
    /// traversal ([`ts_index::TsIndex::search_parallel`]), so one query can
    /// still use the whole machine.
    ///
    /// Outcomes are returned in query order and are identical to executing
    /// each query sequentially.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by any query in the batch.
    pub fn search_batch(&self, queries: &[TwinQuery]) -> Result<Vec<SearchOutcome>> {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        self.search_batch_threads(queries, threads)
    }

    /// [`Engine::search_batch`] with an explicit worker budget (used by the
    /// parallel-scaling ablation bench).
    ///
    /// # Errors
    ///
    /// Same as [`Engine::search_batch`].
    pub fn search_batch_threads(
        &self,
        queries: &[TwinQuery],
        threads: usize,
    ) -> Result<Vec<SearchOutcome>> {
        run_batch(queries, threads, self.method(), |query| self.execute(query))
    }

    /// Twin subsequence search: every starting position whose subsequence is
    /// within Chebyshev distance `epsilon` of `query`, in increasing order.
    /// Thin wrapper over [`Engine::execute`].
    ///
    /// # Errors
    ///
    /// Propagates query-validation and storage errors.
    pub fn search(&self, query: &[f64], epsilon: f64) -> Result<Vec<usize>> {
        Ok(self
            .execute(&TwinQuery::new(query.to_vec(), epsilon))?
            .positions)
    }

    /// Number of twins of `query` under `epsilon`.  Thin wrapper over
    /// [`Engine::execute`] with [`TwinQuery::count_only`].
    ///
    /// # Errors
    ///
    /// Same as [`Engine::search`].
    pub fn count(&self, query: &[f64], epsilon: f64) -> Result<usize> {
        Ok(self
            .execute(&TwinQuery::new(query.to_vec(), epsilon).count_only())?
            .match_count)
    }

    /// The `k` nearest subsequences under Chebyshev distance.  Available for
    /// every method; index-free methods fall back to a full scan.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::search`].
    pub fn top_k(&self, query: &[f64], k: usize) -> Result<Vec<ts_index::TopKMatch>> {
        if let Some(idx) = self.searcher.as_ts_index() {
            return idx.top_k(&self.store, query, k);
        }
        // Fallback: exact scan.
        if k == 0 {
            return Ok(Vec::new());
        }
        let len = query.len();
        let mut all = Vec::new();
        let mut buf = ts_core::pipeline::Scratch::take(len);
        let verifier = ts_core::verify::Verifier::new(query);
        for p in 0..self.store.subsequence_count(len) {
            self.store.read_into(p, &mut buf)?;
            all.push(ts_index::TopKMatch {
                position: p,
                distance: verifier.chebyshev(&buf),
            });
        }
        all.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.position.cmp(&b.position))
        });
        all.truncate(k);
        Ok(all)
    }
}

/// The batch fan-out shared by [`Engine::search_batch_threads`] and
/// [`crate::LiveEngine::search_batch_threads`], run on the shared
/// work-stealing [`Executor`]: queries are dealt round-robin to the worker
/// deques and re-balanced by stealing (a run of expensive neighbouring
/// queries cannot serialise one worker), outcomes come back in query order,
/// and singleton TS-Index batches are routed through the index's own
/// multi-threaded traversal.  The thread budget is clamped to the machine's
/// available parallelism by the executor.
pub(crate) fn run_batch<F>(
    queries: &[TwinQuery],
    threads: usize,
    method: Method,
    execute: F,
) -> Result<Vec<SearchOutcome>>
where
    F: Fn(&TwinQuery) -> Result<SearchOutcome> + Sync,
{
    let pool = Executor::new(threads);
    match queries {
        [] => Ok(Vec::new()),
        [query] => {
            // A singleton batch cannot be split across queries; give a
            // TS-Index query the whole budget inside one traversal instead
            // (unless the budget is a single worker or the caller already
            // chose a thread count).
            let routed;
            let query = if method == Method::TsIndex && pool.threads() > 1 && query.threads() <= 1 {
                routed = query.clone().parallel(pool.threads());
                &routed
            } else {
                query
            };
            Ok(vec![execute(query)?])
        }
        queries => {
            if pool.threads() == 1 {
                return queries.iter().map(execute).collect();
            }
            pool.map((0..queries.len()).collect(), |i| execute(&queries[i]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Vec<f64> {
        (0..1_500)
            .map(|i| (i as f64 * 0.07).sin() * 2.0 + (i as f64 * 0.011).cos())
            .collect()
    }

    #[test]
    fn engines_agree_across_methods() {
        let values = series();
        let len = 80;
        let engines: Vec<Engine> = Method::ALL
            .iter()
            .map(|&m| Engine::build(&values, EngineConfig::new(m, len)).unwrap())
            .collect();
        let query = engines[0].store().read(200, len).unwrap();
        let expected = engines[0].search(&query, 0.3).unwrap();
        assert!(expected.contains(&200));
        for engine in &engines {
            assert_eq!(
                engine.search(&query, 0.3).unwrap(),
                expected,
                "{} disagrees",
                engine.method()
            );
            assert_eq!(engine.count(&query, 0.3).unwrap(), expected.len());
        }
    }

    #[test]
    fn kv_index_rejects_per_subsequence_normalization() {
        let values = series();
        let config = EngineConfig::new(Method::KvIndex, 50)
            .with_normalization(Normalization::PerSubsequence);
        assert!(Engine::build(&values, config).is_err());
    }

    #[test]
    fn metadata_accessors() {
        let values = series();
        let config = EngineConfig::new(Method::TsIndex, 60)
            .with_tsindex_capacities(5, 12)
            .with_kv_buckets(64)
            .with_segments(6)
            .with_isax_leaf_capacity(100)
            .with_normalization(Normalization::WholeSeries);
        let engine = Engine::build(&values, config).unwrap();
        assert_eq!(engine.method(), Method::TsIndex);
        assert_eq!(engine.config().tsindex_min_capacity, 5);
        assert!(engine.index_memory_bytes() > 0);
        assert!(engine.ts_index().is_some());
        assert!(engine.build_time() > Duration::ZERO);
        assert!(format!("{engine:?}").contains("TS-Index"));

        let sweep = Engine::build(&values, EngineConfig::new(Method::Sweepline, 60)).unwrap();
        assert_eq!(sweep.index_memory_bytes(), 0);
        assert!(sweep.ts_index().is_none());
    }

    #[test]
    fn top_k_consistent_between_tsindex_and_fallback() {
        let values = series();
        let len = 50;
        let ts = Engine::build(&values, EngineConfig::new(Method::TsIndex, len)).unwrap();
        let sweep = Engine::build(&values, EngineConfig::new(Method::Sweepline, len)).unwrap();
        let query = ts.store().read(600, len).unwrap();
        let a = ts.top_k(&query, 7).unwrap();
        let b = sweep.top_k(&query, 7).unwrap();
        assert_eq!(a.len(), 7);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.distance - y.distance).abs() < 1e-12);
        }
        assert!(ts.top_k(&query, 0).unwrap().is_empty());
        assert!(sweep.top_k(&query, 0).unwrap().is_empty());
    }

    #[test]
    fn raw_and_per_subsequence_regimes_build() {
        let values = series();
        for norm in [Normalization::None, Normalization::PerSubsequence] {
            for method in [Method::Isax, Method::TsIndex, Method::Sweepline] {
                let config = EngineConfig::new(method, 64).with_normalization(norm);
                let engine = Engine::build(&values, config).unwrap();
                let query = engine.store().read(100, 64).unwrap();
                let hits = engine.search(&query, 0.2).unwrap();
                assert!(hits.contains(&100), "{method} under {norm:?}");
            }
        }
    }

    #[test]
    fn prepared_store_value_range_is_cached_at_prepare_time() {
        let store = PreparedStore::prepare(&[1.0, -3.0, 5.0, 2.0], Normalization::None).unwrap();
        assert_eq!(store.value_range(), (-3.0, 5.0));
        assert_eq!(store.len(), 4);
        assert!(!store.is_disk_backed());

        let disk =
            PreparedStore::prepare_on_disk(&[1.0, -3.0, 5.0, 2.0], Normalization::None).unwrap();
        assert_eq!(disk.value_range(), (-3.0, 5.0));
        assert!(disk.is_disk_backed());
        assert_eq!(disk.read(1, 2).unwrap(), vec![-3.0, 5.0]);

        // The per-subsequence regime reports the range of the raw series.
        let psn =
            PreparedStore::prepare(&[1.0, -3.0, 5.0, 2.0], Normalization::PerSubsequence).unwrap();
        assert_eq!(psn.value_range(), (-3.0, 5.0));
        let disk_psn =
            PreparedStore::prepare_on_disk(&[1.0, -3.0, 5.0, 2.0], Normalization::PerSubsequence)
                .unwrap();
        assert_eq!(disk_psn.value_range(), (-3.0, 5.0));
    }

    #[test]
    fn disk_backed_engine_matches_in_memory_engine() {
        let values = series();
        let len = 80;
        for method in Method::ALL {
            let mem = Engine::build(&values, EngineConfig::new(method, len)).unwrap();
            let query = mem.store().read(400, len).unwrap();
            for kind in ts_storage::StoreKind::DISK_BACKED {
                let disk = Engine::build(&values, EngineConfig::new(method, len).with_store(kind))
                    .unwrap();
                assert!(disk.store().is_disk_backed());
                assert_eq!(disk.store().store_kind(), kind);
                assert_eq!(disk.store().read(400, len).unwrap(), query);
                assert_eq!(
                    mem.search(&query, 0.3).unwrap(),
                    disk.search(&query, 0.3).unwrap(),
                    "{method} on {kind}"
                );
            }
        }
        // The boolean shorthand still selects the readahead disk store.
        let config = EngineConfig::new(Method::Sweepline, len).with_disk_backing(true);
        assert_eq!(config.store, ts_storage::StoreKind::Disk);
        assert_eq!(
            config.with_disk_backing(false).store,
            ts_storage::StoreKind::Memory
        );
        // Per-subsequence normalisation works over every disk store kind.
        for kind in ts_storage::StoreKind::DISK_BACKED {
            let disk_psn = Engine::build(
                &values,
                EngineConfig::new(Method::TsIndex, len)
                    .with_normalization(Normalization::PerSubsequence)
                    .with_store(kind),
            )
            .unwrap();
            let q = disk_psn.store().read(100, len).unwrap();
            assert!(disk_psn.search(&q, 0.2).unwrap().contains(&100), "{kind}");
        }
    }

    #[test]
    fn custom_cache_geometry_reaches_the_block_cached_store() {
        let values = series();
        let len = 60;
        let cache = ts_storage::BlockCacheConfig::new()
            .with_block_values(128)
            .with_shards(2)
            .with_capacity_blocks(8);
        let engine = Engine::build(
            &values,
            EngineConfig::new(Method::TsIndex, len)
                .with_store(ts_storage::StoreKind::DiskCached)
                .with_cache_config(cache),
        )
        .unwrap();
        assert_eq!(engine.config().cache, cache);
        assert_eq!(
            engine.store().store_kind(),
            ts_storage::StoreKind::DiskCached
        );
        let query = engine.store().read(700, len).unwrap();
        assert!(engine.search(&query, 0.3).unwrap().contains(&700));
    }

    #[test]
    fn execute_carries_stats_for_every_method() {
        let values = series();
        let len = 80;
        for method in Method::ALL {
            let engine = Engine::build(&values, EngineConfig::new(method, len)).unwrap();
            let query = engine.store().read(200, len).unwrap();
            let outcome = engine
                .execute(&TwinQuery::new(query, 0.3).collect_stats())
                .unwrap();
            assert!(outcome.positions.contains(&200), "{method}");
            assert!(outcome.stats_consistent(), "{method}");
            assert_eq!(outcome.method, method.name());
            let stats = outcome.stats.unwrap();
            assert!(stats.candidates_verified > 0, "{method}");
            if method.is_indexed() {
                assert!(stats.nodes_visited > 0, "{method}");
            }
        }
    }

    #[test]
    fn search_batch_matches_sequential_execution() {
        let values = series();
        let len = 80;
        for method in Method::ALL {
            let engine = Engine::build(&values, EngineConfig::new(method, len)).unwrap();
            let queries: Vec<TwinQuery> = [100usize, 400, 700, 1_000, 1_300]
                .iter()
                .map(|&p| TwinQuery::new(engine.store().read(p, len).unwrap(), 0.4))
                .collect();
            let batch = engine.search_batch(&queries).unwrap();
            assert_eq!(batch.len(), queries.len());
            for (query, outcome) in queries.iter().zip(&batch) {
                assert_eq!(
                    outcome.positions,
                    engine.search(query.values(), 0.4).unwrap(),
                    "{method}"
                );
            }
            // An explicit worker budget gives the same answers.
            for threads in [1usize, 2, 4] {
                let again = engine.search_batch_threads(&queries, threads).unwrap();
                for (a, b) in batch.iter().zip(&again) {
                    assert_eq!(a.positions, b.positions, "{method} at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn singleton_tsindex_batch_routes_through_parallel_traversal() {
        let values: Vec<f64> = (0..6_000)
            .map(|i| (i as f64 * 0.05).sin() * 2.0 + (i as f64 * 0.013).cos())
            .collect();
        let len = 100;
        let engine = Engine::build(
            &values,
            EngineConfig::new(Method::TsIndex, len).with_tsindex_capacities(4, 12),
        )
        .unwrap();
        let query = engine.store().read(2_000, len).unwrap();
        let sequential = engine.search(&query, 0.5).unwrap();

        let batch = engine
            .search_batch_threads(&[TwinQuery::new(query.clone(), 0.5).collect_stats()], 4)
            .unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].positions, sequential);
        assert_eq!(
            batch[0].threads_used,
            ts_core::exec::clamp_threads(4),
            "the singleton TS-Index batch gets the whole (clamped) budget"
        );
        assert!(batch[0].stats_consistent());

        // An explicit 1-thread budget is honoured: no parallel routing.
        let single = engine
            .search_batch_threads(&[TwinQuery::new(query.clone(), 0.5)], 1)
            .unwrap();
        assert_eq!(single[0].threads_used, 1);
        assert_eq!(single[0].positions, sequential);

        // Other methods execute a singleton batch sequentially.
        let sweep = Engine::build(&values, EngineConfig::new(Method::Sweepline, len)).unwrap();
        let sweep_batch = sweep
            .search_batch_threads(&[TwinQuery::new(query, 0.5)], 4)
            .unwrap();
        assert_eq!(sweep_batch[0].threads_used, 1);
        assert_eq!(sweep_batch[0].positions, sequential);
    }
}
