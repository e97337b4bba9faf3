//! The [`LiveEngine`]: a store + searcher pair that keeps answering queries
//! while the series grows.
//!
//! Where [`crate::Engine`] indexes a static, fully materialised series, the
//! live engine wraps an **appendable** store
//! ([`ts_storage::AppendableStore`]) together with one built method and
//! maintains the index incrementally through
//! [`ts_core::MaintainableSearcher`]: appending `k` points indexes exactly
//! the `k` fresh sliding windows, so the very next query sees them.  Store
//! and searcher sit behind one `RwLock` — any number of queries run
//! concurrently, appends take the lock exclusively — and every append is
//! accounted in an [`IngestStats`] record, the write-path counterpart of
//! [`ts_core::SearchStats`].
//!
//! Live engines operate on **raw values** ([`Normalization::None`]): the
//! whole-series z-normalisation regime is incompatible with appends (every
//! new point would shift the mean and std the existing index was built
//! under).  Callers that need normalisation can z-normalise the stream
//! against fixed, externally chosen parameters before appending.
//!
//! ## Query-vs-append fairness
//!
//! The engine's `RwLock` gives queries (readers) concurrency and appends
//! (writers) exclusivity, but `std::sync::RwLock` makes **no fairness
//! guarantee**: whether a waiting writer blocks new readers (write
//! preference) or readers overtake it (read preference) is up to the OS /
//! std implementation.  The contract callers can rely on is therefore
//! stated in terms of *lock hold time*, not acquisition order:
//!
//! * An append holds the write lock for `O(chunk)` work — one store append
//!   plus incremental maintenance of exactly the fresh windows — never for
//!   the whole stream.  Between two appends the lock is released, so
//!   queries waiting on the lock are admitted between any two append
//!   calls on every platform, whichever preference the lock implements.
//! * A query holds a read lock for one search; a *batch* holds it for the
//!   whole batch ([`LiveEngine::search_batch_threads`]), so sustained
//!   appends can delay a batch at most until the current append's chunk is
//!   indexed, and vice versa a huge batch delays appends — callers with
//!   latency-sensitive writers should split batches.
//! * Under **sustained appends** (a writer looping back-to-back chunks),
//!   readers still make progress: each append re-acquires the lock, giving
//!   waiting readers a window.  The
//!   `sustained_appends_do_not_starve_queries` test pins this liveness
//!   property: queries issued while an appender loops continuously must
//!   all complete.  The inverse (sustained queries starving appends) is
//!   possible under a strictly read-preferring lock; services that must
//!   bound append latency should throttle query admission upstream — the
//!   `ts-serve` daemon does this by dispatching queries and appends from
//!   one bounded admission queue instead of letting connection handlers
//!   block on the lock directly.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use ts_core::maintain::{IngestStats, MaintainableSearcher};
use ts_core::normalize::Normalization;
use ts_core::query::{SearchOutcome, TwinQuery};
use ts_ingest::{WalSeries, WalStats};
use ts_storage::{AppendableStore, InMemorySeries, Result, SeriesStore, StorageError};

use crate::engine::EngineConfig;
use crate::method::Method;

/// Counter making temp log names unique within a process.
static TEMP_LOG_COUNTER: AtomicU64 = AtomicU64::new(0);

/// How often the background checkpointer wakes to test its triggers.
const CHECKPOINT_POLL: Duration = Duration::from_millis(100);

/// Where a [`LiveEngine`] keeps the growing series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveBackend {
    /// In memory: fastest, gone on drop.
    Memory,
    /// A crash-safe WAL ([`WalSeries`]) in a temporary file, removed when
    /// the engine is dropped.
    TempLog,
    /// A crash-safe WAL ([`WalSeries`]) at the given path.  The files are
    /// created (overwritten) at build time and left in place on drop, so a
    /// restarted process can recover the ingested series via
    /// [`recover_from_log`].
    Log(PathBuf),
}

/// Removes a temporary append log (and its checkpoint snapshot) when the
/// engine is dropped.
#[derive(Debug)]
struct TempLogFile {
    path: PathBuf,
}

impl Drop for TempLogFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_file(ts_ingest::wal::snapshot_path_for(&self.path));
    }
}

/// The appendable store behind a live engine.
#[derive(Debug)]
enum LiveStore {
    Memory(InMemorySeries),
    Log {
        wal: WalSeries,
        /// Held only for its `Drop`: removes a temporary log on drop.
        _temp_guard: Option<TempLogFile>,
    },
}

impl LiveStore {
    /// Appends without waiting for durability: a memory store is done
    /// immediately (`None`), a WAL store buffers the record and returns the
    /// commit sequence the caller must pass to [`WalSeries::wait_durable`]
    /// **after** releasing the engine lock, so concurrent appends can share
    /// one group-commit fsync.
    fn append_buffered(&mut self, values: &[f64]) -> Result<Option<u64>> {
        match self {
            LiveStore::Memory(s) => {
                s.append(values)?;
                Ok(None)
            }
            LiveStore::Log { wal, .. } => Ok(Some(wal.append(values)?)),
        }
    }
}

impl SeriesStore for LiveStore {
    fn len(&self) -> usize {
        match self {
            LiveStore::Memory(s) => s.len(),
            LiveStore::Log { wal, .. } => wal.len(),
        }
    }

    fn read_into(&self, start: usize, buf: &mut [f64]) -> Result<()> {
        match self {
            LiveStore::Memory(s) => s.read_into(start, buf),
            LiveStore::Log { wal, .. } => wal.read_into(start, buf),
        }
    }

    fn read_range_into(&self, start: usize, buf: &mut [f64]) -> Result<()> {
        match self {
            LiveStore::Memory(s) => s.read_range_into(start, buf),
            LiveStore::Log { wal, .. } => wal.read_range_into(start, buf),
        }
    }
}

/// One built method, owned mutably so it can be maintained under appends.
#[derive(Debug)]
enum LiveSearcher {
    Sweep(ts_sweep::Sweepline),
    Kv(ts_kv::KvIndex),
    Isax(ts_sax::IsaxIndex),
    Ts(ts_index::TsIndex),
}

impl LiveSearcher {
    fn execute(&self, store: &LiveStore, query: &TwinQuery) -> Result<SearchOutcome> {
        match self {
            LiveSearcher::Sweep(s) => s.execute(store, query),
            LiveSearcher::Kv(s) => s.execute(store, query),
            LiveSearcher::Isax(s) => s.execute(store, query),
            LiveSearcher::Ts(s) => s.execute(store, query),
        }
    }

    fn on_append(&mut self, store: &LiveStore) -> Result<usize> {
        match self {
            LiveSearcher::Sweep(s) => s.on_append(store),
            LiveSearcher::Kv(s) => s.on_append(store),
            LiveSearcher::Isax(s) => s.on_append(store),
            LiveSearcher::Ts(s) => s.on_append(store),
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            LiveSearcher::Sweep(_) => 0,
            LiveSearcher::Kv(s) => s.memory_bytes(),
            LiveSearcher::Isax(s) => s.memory_bytes(),
            LiveSearcher::Ts(s) => s.memory_bytes(),
        }
    }
}

/// Store, searcher and ingestion accounting — everything the lock guards.
#[derive(Debug)]
struct LiveInner {
    store: LiveStore,
    searcher: LiveSearcher,
    stats: IngestStats,
    /// `true` only while [`MaintainableSearcher::on_append`] is structurally
    /// mutating the index.  A panic mid-maintenance unwinds with the flag
    /// still set, marking the index as possibly inconsistent; lock-poison
    /// recovery then *rebuilds* the index from the store before serving any
    /// further query or append instead of silently trusting a half-mutated
    /// tree.
    in_maintenance: bool,
}

/// Rebuilds the index from the store if a previous maintenance pass
/// panicked partway (see [`LiveInner::in_maintenance`]).
fn repair_if_needed(inner: &mut LiveInner, config: &EngineConfig) -> Result<()> {
    if inner.in_maintenance {
        inner.searcher = build_searcher(&inner.store, config)?;
        inner.in_maintenance = false;
    }
    Ok(())
}

/// A live, appendable twin-search engine: queries run concurrently against
/// the built index while [`LiveEngine::append`] feeds the stream in (see the
/// module docs for the locking and normalisation contract).
///
/// WAL-backed engines (the [`LiveBackend::TempLog`] / [`LiveBackend::Log`]
/// backends) additionally keep a clone of the [`WalSeries`] handle
/// **outside** the lock: appends buffer the record and update the index
/// under the write lock, then wait for the covering group-commit fsync
/// after releasing it, so concurrent appenders batch into one fsync while
/// an `Ok` from [`LiveEngine::append`] still means "durable".  When the
/// configuration arms a checkpoint trigger, the engine owns a background
/// checkpointer thread that compacts the log into the snapshot; it is
/// stopped and joined on drop (graceful shutdown drains it; a killed
/// process just leaves the crash-safe files behind).
#[derive(Debug)]
pub struct LiveEngine {
    inner: RwLock<LiveInner>,
    config: EngineConfig,
    /// Clone of the WAL handle backing `inner.store`, if any: lets the
    /// durability wait and the checkpointer run without the engine lock.
    wal: Option<WalSeries>,
    /// Time appenders spent waiting on group-commit fsyncs, folded into
    /// [`IngestStats::store_time`] by [`LiveEngine::ingest_stats`].
    sync_wait: Mutex<Duration>,
    /// Background checkpointer (present only when a trigger is armed).
    checkpointer: Option<Checkpointer>,
}

/// Handle on the background checkpointer thread: polls the WAL's triggers
/// and stops + joins when dropped.
#[derive(Debug)]
struct Checkpointer {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Checkpointer {
    fn spawn(wal: WalSeries) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("twin-checkpointer".into())
            .spawn(move || {
                let (lock, cv) = &*thread_stop;
                loop {
                    let stopping = {
                        let stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                        let (stopped, _) = cv
                            .wait_timeout(stopped, CHECKPOINT_POLL)
                            .unwrap_or_else(|e| e.into_inner());
                        *stopped
                    };
                    if wal.checkpoint_due() {
                        // An error leaves the previous snapshot + full log
                        // intact; the next poll simply retries.  Checked on
                        // the stop path too, so a graceful close compacts a
                        // due tail even when the engine outlived no poll
                        // (e.g. a short `twin ingest` run).
                        let _ = wal.checkpoint_now();
                    }
                    if stopping {
                        return;
                    }
                }
            })
            .expect("failed to spawn checkpointer thread");
        Checkpointer {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl LiveEngine {
    /// Builds a live engine over `initial` (the stream's prefix, at least
    /// one subsequence window long) with the configured method, storing the
    /// series in the chosen backend.
    ///
    /// The configuration's normalisation must be [`Normalization::None`]
    /// (see the module docs); its `store` choice is ignored — `backend`
    /// decides where the series lives, because the static read-only store
    /// kinds (disk, disk-cached, mmap) cannot grow under appends.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-raw normalisation regime, for an initial
    /// prefix shorter than one window, and propagates build and I/O
    /// failures.
    pub fn build(initial: &[f64], config: EngineConfig, backend: LiveBackend) -> Result<Self> {
        ensure_raw(&config)?;
        let store = match backend {
            LiveBackend::Memory => LiveStore::Memory(InMemorySeries::new(initial.to_vec())?),
            LiveBackend::TempLog => {
                let mut path = std::env::temp_dir();
                path.push(format!(
                    "twin-live-{}-{}.tslog",
                    std::process::id(),
                    TEMP_LOG_COUNTER.fetch_add(1, Ordering::Relaxed)
                ));
                let wal = WalSeries::create(&path, initial, config.wal)?;
                LiveStore::Log {
                    wal,
                    _temp_guard: Some(TempLogFile { path }),
                }
            }
            LiveBackend::Log(path) => LiveStore::Log {
                wal: WalSeries::create(&path, initial, config.wal)?,
                _temp_guard: None,
            },
        };
        Self::from_store(store, config)
    }

    /// Builds the configured index over `store`'s current contents and wraps
    /// both behind the lock (shared by [`LiveEngine::build`] and
    /// [`recover_from_log`]).
    fn from_store(store: LiveStore, config: EngineConfig) -> Result<Self> {
        let searcher = build_searcher(&store, &config)?;
        let wal = match &store {
            LiveStore::Log { wal, .. } => Some(wal.clone()),
            LiveStore::Memory(_) => None,
        };
        // `background: false` deliberately leaves an armed trigger with no
        // thread acting on it — the wedged-checkpointer scenario the
        // checkpoint-lag watchdog exists to catch.
        let checkpointer = wal
            .as_ref()
            .filter(|w| w.config().checkpointing_enabled() && w.config().background)
            .map(|w| Checkpointer::spawn(w.clone()));
        Ok(Self {
            inner: RwLock::new(LiveInner {
                store,
                searcher,
                stats: IngestStats::default(),
                in_maintenance: false,
            }),
            config,
            wal,
            sync_wait: Mutex::new(Duration::ZERO),
            checkpointer,
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

    /// Current length of the ingested series.
    #[must_use]
    pub fn len(&self) -> usize {
        self.read_inner().store.len()
    }

    /// Returns `true` if nothing has been ingested (never the case after a
    /// successful build: the initial prefix is at least one window).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` when the series lives in a crash-safe append log.
    #[must_use]
    pub fn is_disk_backed(&self) -> bool {
        matches!(self.read_inner().store, LiveStore::Log { .. })
    }

    /// Approximate heap memory used by the index structure.
    #[must_use]
    pub fn index_memory_bytes(&self) -> usize {
        self.read_inner().searcher.memory_bytes()
    }

    /// Cumulative ingestion statistics.  For WAL-backed engines the store
    /// time includes the group-commit fsync waits, which happen outside the
    /// engine lock.
    #[must_use]
    pub fn ingest_stats(&self) -> IngestStats {
        let mut stats = self.read_inner().stats;
        stats.store_time += *self.sync_wait.lock().unwrap_or_else(|e| e.into_inner());
        stats
    }

    /// WAL activity counters (group-commit batches, fsyncs saved,
    /// checkpoints, recovery tail), when the engine is WAL-backed.
    #[must_use]
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(WalSeries::stats)
    }

    /// `true` when a background checkpointer thread is running.
    #[must_use]
    pub fn checkpointing_active(&self) -> bool {
        self.checkpointer.is_some()
    }

    /// Current checkpoint lag of the backing WAL as `(records, bytes)`
    /// accumulated in the log tail, or `None` for memory-backed engines.
    #[must_use]
    pub fn checkpoint_lag(&self) -> Option<(u64, u64)> {
        self.wal.as_ref().map(WalSeries::checkpoint_lag)
    }

    /// Takes a checkpoint immediately (for tests, the CLI and the daemon's
    /// checkpoint op), returning the number of values the new snapshot
    /// covers, `None` when nothing new was durable, or `Ok(None)` trivially
    /// for memory-backed engines.
    ///
    /// # Errors
    ///
    /// Propagates snapshot-write and log-rewrite failures.
    pub fn checkpoint_now(&self) -> Result<Option<usize>> {
        match &self.wal {
            Some(wal) => wal.checkpoint_now(),
            None => Ok(None),
        }
    }

    /// Appends `values` to the stream and brings the index up to date,
    /// returning `(reached_len, windows_indexed)`: the series length right
    /// after this append — read inside the same write section, so concurrent
    /// appenders are never acknowledged with the same length — and the
    /// number of fresh windows indexed.  Takes the write lock: queries
    /// issued concurrently see the series either entirely before or entirely
    /// after this append.
    ///
    /// # Errors
    ///
    /// Propagates store and maintenance failures.  Maintenance resumes from
    /// the searcher's own indexed count ([`MaintainableSearcher`] contract),
    /// so if it fails partway the next append indexes the missed windows
    /// first — nothing is skipped or double-indexed.
    pub fn append(&self, values: &[f64]) -> Result<(usize, usize)> {
        // A poisoned lock is recovered rather than propagated as a panic
        // cascade.  A panic *outside* index maintenance leaves at worst a
        // store that ran ahead of the index — the same state a failed append
        // leaves, repaired by the resumable maintenance contract.  A panic
        // *during* maintenance is flagged by `in_maintenance` and repaired
        // here by rebuilding the index from the store before proceeding.
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        repair_if_needed(&mut inner, &self.config)?;
        let store_started = Instant::now();
        let commit_seq = inner.store.append_buffered(values)?;
        let reached_len = inner.store.len();
        let store_time = store_started.elapsed();
        let maintain_started = Instant::now();
        let LiveInner {
            store,
            searcher,
            in_maintenance,
            ..
        } = &mut *inner;
        // The flag stays set only if on_append unwinds; an `Err` return is
        // retry-safe by the MaintainableSearcher contract and needs no
        // rebuild.
        *in_maintenance = true;
        let maintained = searcher.on_append(store);
        *in_maintenance = false;
        let windows = maintained?;
        inner.stats = inner.stats.merged(IngestStats {
            points_appended: values.len(),
            append_calls: 1,
            windows_indexed: windows,
            store_time,
            maintain_time: maintain_started.elapsed(),
        });
        drop(inner);
        // Durability wait happens *outside* the lock so concurrent appends
        // can share one group-commit fsync (and queries are not blocked on
        // I/O).  Returning an error here withholds the ack: the record may
        // be in the page cache and visible to queries, but the caller must
        // not treat it as committed.
        if let (Some(seq), Some(wal)) = (commit_seq, &self.wal) {
            let wait_started = Instant::now();
            wal.wait_durable(seq)?;
            let waited = wait_started.elapsed();
            *self.sync_wait.lock().unwrap_or_else(|e| e.into_inner()) += waited;
        }
        Ok((reached_len, windows))
    }

    /// Answers a [`TwinQuery`] against the current state of the stream.
    ///
    /// # Errors
    ///
    /// Propagates query-validation and storage errors.
    pub fn execute(&self, query: &TwinQuery) -> Result<SearchOutcome> {
        let inner = self.read_searcher()?;
        inner.searcher.execute(&inner.store, query)
    }

    /// Answers a batch of queries, fanning them out across up to `threads`
    /// worker threads under one read lock (appends wait for the batch).  A
    /// singleton TS-Index batch routes through the index's multi-threaded
    /// traversal, mirroring [`crate::Engine::search_batch_threads`].
    ///
    /// # Errors
    ///
    /// Returns the first error raised by any query in the batch.
    pub fn search_batch_threads(
        &self,
        queries: &[TwinQuery],
        threads: usize,
    ) -> Result<Vec<SearchOutcome>> {
        let inner = self.read_searcher()?;
        crate::engine::run_batch(queries, threads, self.method(), |query| {
            inner.searcher.execute(&inner.store, query)
        })
    }

    /// [`LiveEngine::search_batch_threads`] with the machine's available
    /// parallelism as the worker budget.
    ///
    /// # Errors
    ///
    /// Same as [`LiveEngine::search_batch_threads`].
    pub fn search_batch(&self, queries: &[TwinQuery]) -> Result<Vec<SearchOutcome>> {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        self.search_batch_threads(queries, threads)
    }

    /// Twin subsequence search against the current state of the stream.
    /// Thin wrapper over [`LiveEngine::execute`].
    ///
    /// # Errors
    ///
    /// Propagates query-validation and storage errors.
    pub fn search(&self, query: &[f64], epsilon: f64) -> Result<Vec<usize>> {
        Ok(self
            .execute(&TwinQuery::new(query.to_vec(), epsilon))?
            .positions)
    }

    /// Reads a subsequence of the ingested series (e.g. to sample queries
    /// from the data seen so far).
    ///
    /// # Errors
    ///
    /// Propagates storage errors and out-of-bounds reads.
    pub fn read(&self, start: usize, len: usize) -> Result<Vec<f64>> {
        self.read_inner().store.read(start, len)
    }

    /// Path of the crash-safe append log backing this engine, if any.
    #[must_use]
    pub fn log_path(&self) -> Option<PathBuf> {
        self.wal.as_ref().map(|w| w.path().to_path_buf())
    }

    /// A read guard for accessors that do not consult the index (length,
    /// stats, raw reads): safe even while the index awaits repair.
    fn read_inner(&self) -> std::sync::RwLockReadGuard<'_, LiveInner> {
        // Readers recover a poisoned lock for the same reason `append` does:
        // a panic outside maintenance leaves at worst an index trailing the
        // store, and a panic inside maintenance is flagged and repaired
        // before the index is consulted again (see `read_searcher`).
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// A read guard for the query path: if a previous maintenance pass
    /// panicked mid-mutation, first takes the write lock and rebuilds the
    /// index from the store, so queries never traverse a half-mutated tree.
    fn read_searcher(&self) -> Result<std::sync::RwLockReadGuard<'_, LiveInner>> {
        loop {
            let guard = self.read_inner();
            if !guard.in_maintenance {
                return Ok(guard);
            }
            drop(guard);
            let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
            repair_if_needed(&mut inner, &self.config)?;
            // Loop instead of downgrading (std's RwLock cannot): another
            // writer may slip in between, in which case the re-check repairs
            // again or proceeds.
        }
    }
}

/// Recovers a live engine from an existing WAL written by a previous
/// process: the newest valid checkpoint snapshot (if any) plus the log
/// tail, instead of a full log replay (torn tails are truncated away by
/// the log open).  The snapshot prefix is served through the store kind in
/// `config.wal.snapshot_store` — memory, readahead disk, block-cached or
/// mmap — closing the old "recovered stream is memory-only" gap.  The
/// configured index is then rebuilt over the recovered series.
///
/// # Errors
///
/// Same conditions as [`LiveEngine::build`], plus log/snapshot-format
/// errors.
pub fn recover_from_log<P: AsRef<Path>>(path: P, config: EngineConfig) -> Result<LiveEngine> {
    ensure_raw(&config)?;
    LiveEngine::from_wal(WalSeries::open(path, config.wal)?, config)
}

impl LiveEngine {
    /// Wraps an already-open [`WalSeries`] in a live engine, building the
    /// configured index over its current contents.  This is how a dormant
    /// tenant promotes to a live one without reopening the files.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LiveEngine::build`].
    pub fn from_wal(wal: WalSeries, config: EngineConfig) -> Result<Self> {
        ensure_raw(&config)?;
        Self::from_store(
            LiveStore::Log {
                wal,
                _temp_guard: None,
            },
            config,
        )
    }
}

/// Rejects configurations a live engine cannot maintain under appends.
fn ensure_raw(config: &EngineConfig) -> Result<()> {
    if config.normalization != Normalization::None {
        return Err(StorageError::Core(ts_core::TsError::InvalidParameter(
            "a LiveEngine indexes raw values: whole-series and per-subsequence \
             normalisation cannot be maintained under appends"
                .into(),
        )));
    }
    Ok(())
}

/// Builds the configured method over the current contents of `store`
/// (the live counterpart of [`crate::Engine::build`]'s dispatch).
fn build_searcher(store: &LiveStore, config: &EngineConfig) -> Result<LiveSearcher> {
    Ok(match config.method {
        Method::Sweepline => LiveSearcher::Sweep(ts_sweep::Sweepline::new()),
        Method::KvIndex => LiveSearcher::Kv(ts_kv::KvIndex::build(
            store,
            ts_kv::KvIndexConfig::new(config.subsequence_len).with_buckets(config.kv_buckets),
        )?),
        Method::Isax => {
            // Raw values: fit equi-width breakpoints to the prefix's range.
            // Appended values outside it quantise into the edge symbols
            // (whose ranges extend to ±∞), so pruning stays sound.
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut buf = vec![0.0_f64; store.len()];
            store.read_into(0, &mut buf)?;
            for &v in &buf {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let isax_config = ts_sax::IsaxConfig::for_raw(config.subsequence_len, lo, hi)
                .map_err(StorageError::Core)?
                .with_segments(config.segments)
                .with_leaf_capacity(config.isax_leaf_capacity);
            LiveSearcher::Isax(ts_sax::IsaxIndex::build(store, isax_config)?)
        }
        Method::TsIndex => {
            let ts_config = ts_index::TsIndexConfig::new(config.subsequence_len)
                .and_then(|c| {
                    c.with_capacities(config.tsindex_min_capacity, config.tsindex_max_capacity)
                })
                .map_err(StorageError::Core)?;
            LiveSearcher::Ts(ts_index::TsIndex::build(store, ts_config)?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<f64> {
        (0..2_400)
            .map(|i| (i as f64 * 0.06).sin() * 3.0 + (i as f64 * 0.017).cos())
            .collect()
    }

    #[test]
    fn rejects_normalised_regimes_and_short_prefixes() {
        let values = stream();
        let config = EngineConfig::new(Method::TsIndex, 50);
        assert!(
            LiveEngine::build(&values, config, LiveBackend::Memory).is_err(),
            "default whole-series normalisation must be rejected"
        );
        let raw = config.with_normalization(Normalization::None);
        assert!(LiveEngine::build(&values[..10], raw, LiveBackend::Memory).is_err());
        assert!(LiveEngine::build(&values, raw, LiveBackend::Memory).is_ok());
    }

    #[test]
    fn appends_become_queryable_for_every_method() {
        let values = stream();
        let len = 60;
        let split = 1_600;
        for method in Method::ALL {
            let config = EngineConfig::new(method, len).with_normalization(Normalization::None);
            let live = LiveEngine::build(&values[..split], config, LiveBackend::Memory).unwrap();
            let bulk =
                crate::Engine::build(&values, config.with_normalization(Normalization::None))
                    .unwrap();
            for chunk in values[split..].chunks(300) {
                live.append(chunk).unwrap();
            }
            assert_eq!(live.len(), values.len());

            // A query targeting a window that exists only in the appended
            // suffix answers exactly like a bulk build over the full series.
            let query = live.read(2_000, len).unwrap();
            let outcome = live
                .execute(&TwinQuery::new(query.clone(), 0.4).collect_stats())
                .unwrap();
            assert!(outcome.positions.contains(&2_000), "{method}");
            assert_eq!(
                outcome.positions,
                bulk.search(&query, 0.4).unwrap(),
                "{method}"
            );
            assert!(outcome.stats_consistent(), "{method}");

            let stats = live.ingest_stats();
            assert_eq!(stats.points_appended, values.len() - split);
            assert_eq!(stats.append_calls, values[split..].chunks(300).count());
            if method == Method::Sweepline {
                assert_eq!(stats.windows_indexed, 0);
            } else {
                assert_eq!(stats.windows_indexed, values.len() - split);
                assert!(live.index_memory_bytes() > 0);
            }
        }
    }

    #[test]
    fn batches_and_parallel_routing_work_on_live_engines() {
        let values = stream();
        let len = 80;
        let config = EngineConfig::new(Method::TsIndex, len)
            .with_normalization(Normalization::None)
            .with_tsindex_capacities(4, 12);
        let live = LiveEngine::build(&values[..2_000], config, LiveBackend::Memory).unwrap();
        live.append(&values[2_000..]).unwrap();

        let queries: Vec<TwinQuery> = [100usize, 900, 2_100]
            .iter()
            .map(|&p| TwinQuery::new(live.read(p, len).unwrap(), 0.4))
            .collect();
        let batch = live.search_batch_threads(&queries, 4).unwrap();
        assert_eq!(batch.len(), 3);
        for (q, outcome) in queries.iter().zip(&batch) {
            assert_eq!(outcome.positions, live.search(q.values(), 0.4).unwrap());
        }
        assert!(live.search_batch(&[]).unwrap().is_empty());

        // Singleton TS-Index batches get the whole (clamped) thread budget.
        let single = live.search_batch_threads(&queries[..1], 4).unwrap();
        assert_eq!(single[0].threads_used, ts_core::exec::clamp_threads(4));
        assert_eq!(single[0].positions, batch[0].positions);
    }

    #[test]
    fn temp_log_backend_is_crash_safe_and_cleaned_up() {
        let values = stream();
        let len = 50;
        let config =
            EngineConfig::new(Method::TsIndex, len).with_normalization(Normalization::None);
        let live = LiveEngine::build(&values[..1_000], config, LiveBackend::TempLog).unwrap();
        assert!(live.is_disk_backed());
        assert!(!live.is_empty());
        let path = live.log_path().unwrap();
        assert!(path.exists());
        live.append(&values[1_000..1_500]).unwrap();
        let query = live.read(1_200, len).unwrap();
        assert!(live.search(&query, 0.3).unwrap().contains(&1_200));
        drop(live);
        assert!(!path.exists(), "temp log removed on drop");
    }

    #[test]
    fn named_log_backend_recovers_across_engines() {
        let values = stream();
        let len = 50;
        let mut path = std::env::temp_dir();
        path.push(format!("twin_live_test_{}.tslog", std::process::id()));
        let config = EngineConfig::new(Method::Isax, len).with_normalization(Normalization::None);
        {
            let live = LiveEngine::build(&values[..1_000], config, LiveBackend::Log(path.clone()))
                .unwrap();
            live.append(&values[1_000..1_800]).unwrap();
            assert_eq!(live.log_path().as_deref(), Some(path.as_path()));
        }
        // A new process (here: a new engine) recovers the ingested series.
        let recovered = recover_from_log(&path, config).unwrap();
        assert_eq!(recovered.len(), 1_800);
        let query = recovered.read(1_500, len).unwrap();
        assert!(recovered.search(&query, 0.3).unwrap().contains(&1_500));
        assert!(
            recover_from_log(&path, config.with_normalization(Normalization::WholeSeries)).is_err()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpointed_log_recovers_from_snapshot_plus_tail_for_any_store() {
        let values = stream();
        let len = 50;
        let mut path = std::env::temp_dir();
        path.push(format!("twin_live_wal_test_{}.tslog", std::process::id()));
        let config = EngineConfig::new(Method::TsIndex, len)
            .with_normalization(Normalization::None)
            .with_wal(ts_ingest::WalConfig::default());
        {
            let live = LiveEngine::build(&values[..1_000], config, LiveBackend::Log(path.clone()))
                .unwrap();
            live.append(&values[1_000..1_500]).unwrap();
            assert_eq!(live.checkpoint_now().unwrap(), Some(1_500));
            live.append(&values[1_500..1_800]).unwrap();
            let stats = live.wal_stats().unwrap();
            assert_eq!(stats.checkpoints, 1);
        }
        let query = &values[1_600..1_600 + len];
        for kind in ts_storage::StoreKind::ALL {
            let recovered = recover_from_log(
                &path,
                config.with_wal(ts_ingest::WalConfig::default().with_snapshot_store(kind)),
            )
            .unwrap();
            assert_eq!(recovered.len(), 1_800, "{kind:?}");
            assert!(
                recovered.search(query, 0.3).unwrap().contains(&1_600),
                "{kind:?}"
            );
            // Recovery replayed only the post-checkpoint tail.
            let stats = recovered.wal_stats().unwrap();
            assert_eq!(stats.last_recovery_tail_values, 300, "{kind:?}");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(ts_ingest::wal::snapshot_path_for(&path)).ok();
    }

    #[test]
    fn background_checkpointer_compacts_without_disturbing_queries() {
        let values = stream();
        let len = 50;
        let wal_config = ts_ingest::WalConfig::default().with_checkpoint_records(4);
        let config = EngineConfig::new(Method::KvIndex, len)
            .with_normalization(Normalization::None)
            .with_wal(wal_config);
        let live = LiveEngine::build(&values[..1_000], config, LiveBackend::TempLog).unwrap();
        assert!(live.checkpointing_active());
        for chunk in values[1_000..2_000].chunks(100) {
            live.append(chunk).unwrap();
        }
        // The checkpointer polls every 100ms; give it a bounded window.
        let deadline = Instant::now() + Duration::from_secs(10);
        while live.wal_stats().unwrap().checkpoints == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            live.wal_stats().unwrap().checkpoints >= 1,
            "background checkpointer never fired"
        );
        // Queries still answer exactly across the snapshot/tail boundary.
        let query = live.read(1_500, len).unwrap();
        assert!(live.search(&query, 0.3).unwrap().contains(&1_500));
        // Drop joins the checkpointer and removes the temp files.
        let path = live.log_path().unwrap();
        drop(live);
        assert!(!path.exists());
        assert!(!ts_ingest::wal::snapshot_path_for(&path).exists());
    }

    #[test]
    fn background_false_leaves_armed_triggers_unserviced() {
        // The wedged-checkpointer knob: a trigger is armed (checkpoint_due
        // fires) but no thread acts on it, so lag only ever grows.
        let values = stream();
        let wal_config = ts_ingest::WalConfig::default()
            .with_checkpoint_records(4)
            .with_background(false);
        let config = EngineConfig::new(Method::Sweepline, 50)
            .with_normalization(Normalization::None)
            .with_wal(wal_config);
        let live = LiveEngine::build(&values[..500], config, LiveBackend::TempLog).unwrap();
        assert!(!live.checkpointing_active());
        let (records_before, _) = live.checkpoint_lag().unwrap();
        for chunk in values[500..1_000].chunks(50) {
            live.append(chunk).unwrap();
        }
        let (records, bytes) = live.checkpoint_lag().unwrap();
        assert_eq!(records, records_before + 10);
        assert!(bytes > 0);
        assert_eq!(live.wal_stats().unwrap().checkpoints, 0);
    }

    #[test]
    fn group_commit_acks_are_durable_across_recovery() {
        let values = stream();
        let len = 40;
        let mut path = std::env::temp_dir();
        path.push(format!("twin_live_gc_test_{}.tslog", std::process::id()));
        let wal_config =
            ts_ingest::WalConfig::default().with_group_commit(Duration::from_millis(5), 4);
        let config = EngineConfig::new(Method::Sweepline, len)
            .with_normalization(Normalization::None)
            .with_wal(wal_config);
        {
            let live =
                LiveEngine::build(&values[..500], config, LiveBackend::Log(path.clone())).unwrap();
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let live = &live;
                    let values = &values;
                    scope.spawn(move || {
                        for chunk in values[500 + t * 100..500 + (t + 1) * 100].chunks(10) {
                            live.append(chunk).unwrap();
                        }
                    });
                }
            });
            assert_eq!(live.len(), 900);
            let stats = live.wal_stats().unwrap();
            assert_eq!(stats.appends, 40);
            assert!(stats.fsyncs <= stats.appends);
        }
        // Every acked append survives a restart byte-identically in length
        // (ordering of concurrent chunks is interleaved, but nothing acked
        // may be missing).
        let recovered = recover_from_log(&path, config).unwrap();
        assert_eq!(recovered.len(), 900);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(ts_ingest::wal::snapshot_path_for(&path)).ok();
    }

    #[test]
    fn caught_panic_in_one_thread_does_not_poison_later_searches() {
        let values = stream();
        let len = 50;
        let config =
            EngineConfig::new(Method::TsIndex, len).with_normalization(Normalization::None);
        let live = LiveEngine::build(&values[..1_000], config, LiveBackend::Memory).unwrap();
        let query = live.read(300, len).unwrap();
        let before = live.search(&query, 0.4).unwrap();

        // One thread panics while holding the lock (write side: the worst
        // case).  The panic is caught at the thread boundary…
        std::thread::scope(|scope| {
            let result = scope
                .spawn(|| {
                    let _guard = live.inner.write().unwrap();
                    panic!("simulated query/maintenance panic while holding the lock");
                })
                .join();
            assert!(result.is_err(), "the poisoning thread must panic");
        });

        // …and every later search and append still works: the engine
        // recovers the poisoned lock instead of cascading the panic.
        assert_eq!(live.search(&query, 0.4).unwrap(), before);
        live.append(&values[1_000..1_200]).unwrap();
        assert_eq!(live.len(), 1_200);
        let fresh = live.read(1_100, len).unwrap();
        assert!(live.search(&fresh, 0.3).unwrap().contains(&1_100));
        assert_eq!(live.ingest_stats().points_appended, 200);
    }

    #[test]
    fn panic_during_index_maintenance_triggers_rebuild_not_corruption() {
        let values = stream();
        let len = 50;
        let config =
            EngineConfig::new(Method::TsIndex, len).with_normalization(Normalization::None);
        let live = LiveEngine::build(&values[..1_000], config, LiveBackend::Memory).unwrap();
        let query = live.read(300, len).unwrap();
        let before = live.search(&query, 0.4).unwrap();

        // Simulate a panic *inside* on_append: the in_maintenance flag is
        // set when the unwind happens, marking the index as suspect.
        std::thread::scope(|scope| {
            let result = scope
                .spawn(|| {
                    let mut guard = live.inner.write().unwrap();
                    guard.in_maintenance = true;
                    panic!("simulated panic mid index mutation");
                })
                .join();
            assert!(result.is_err());
        });

        // The next query repairs the index (rebuild from the store) rather
        // than traversing a possibly half-mutated tree; answers are exact.
        assert_eq!(live.search(&query, 0.4).unwrap(), before);
        assert!(!live.read_inner().in_maintenance, "repair cleared the flag");

        // Appends also repair-then-proceed, and stay queryable.
        live.append(&values[1_000..1_300]).unwrap();
        let fresh = live.read(1_200, len).unwrap();
        assert!(live.search(&fresh, 0.3).unwrap().contains(&1_200));
        // The rebuilt + maintained index matches a bulk build exactly.
        let bulk = crate::Engine::build(&values[..1_300], config).unwrap();
        assert_eq!(
            live.search(&query, 0.4).unwrap(),
            bulk.search(&query, 0.4).unwrap()
        );
    }

    #[test]
    fn sustained_appends_do_not_starve_queries() {
        // Liveness half of the fairness contract (see the module docs): a
        // writer looping back-to-back appends releases the lock between
        // chunks, so concurrent queries must all complete while the append
        // pressure is sustained.  Starvation would hang this test (and trip
        // the harness timeout) rather than fail an assertion.
        use std::sync::atomic::{AtomicBool, Ordering};

        let values = stream();
        let len = 40;
        let config =
            EngineConfig::new(Method::TsIndex, len).with_normalization(Normalization::None);
        let live = LiveEngine::build(&values[..600], config, LiveBackend::Memory).unwrap();
        let query = live.read(100, len).unwrap();
        let readers_done = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let live = &live;
            let readers_done = &readers_done;
            // The appender keeps the write pressure up until every reader
            // has finished — queries never get a quiet window.
            let appender = scope.spawn(move || {
                let mut appended = 0usize;
                loop {
                    let start = 600 + (appended % 1_000);
                    live.append(&values[start..start + 20]).unwrap();
                    appended += 20;
                    if readers_done.load(Ordering::Relaxed) {
                        return appended;
                    }
                }
            });
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let q = query.clone();
                    scope.spawn(move || {
                        let mut lengths = Vec::with_capacity(15);
                        for _ in 0..15 {
                            live.search(&q, 0.5).unwrap();
                            lengths.push(live.len());
                        }
                        lengths
                    })
                })
                .collect();
            for reader in readers {
                let lengths = reader.join().unwrap();
                assert_eq!(lengths.len(), 15, "every query completed under load");
                assert!(
                    lengths.windows(2).all(|w| w[0] <= w[1]),
                    "observed series length is monotone"
                );
            }
            readers_done.store(true, Ordering::Relaxed);
            let appended = appender.join().unwrap();
            assert!(appended > 0, "append pressure was actually sustained");
        });
    }

    #[test]
    fn concurrent_appenders_are_acked_with_distinct_prefix_sum_lengths() {
        // Each ack carries the length reached by *that* append, read inside
        // the engine's own write section: sorted by reached length, the acks
        // must replay as the prefix sums of their own chunk sizes.  Reading
        // `len()` after `append` returned (what the tenant fast path used to
        // do) lets two appenders be acknowledged with the same length.
        const THREADS: usize = 4;
        let values = stream();
        let base = 600;
        let config = EngineConfig::new(Method::TsIndex, 40).with_normalization(Normalization::None);
        let group_commit =
            ts_ingest::WalConfig::default().with_group_commit(Duration::from_micros(200), THREADS);
        for (backend, config) in [
            (LiveBackend::Memory, config),
            (LiveBackend::TempLog, config.with_wal(group_commit)),
        ] {
            let live = LiveEngine::build(&values[..base], config, backend).unwrap();
            let barrier = std::sync::Barrier::new(THREADS);
            let mut acks: Vec<(usize, usize)> = std::thread::scope(|scope| {
                let appenders: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (live, barrier, values) = (&live, &barrier, &values);
                        scope.spawn(move || {
                            barrier.wait();
                            (0..12)
                                .map(|i| {
                                    let size = 1 + (t * 5 + i * 3) % 17; // uneven chunks
                                    let chunk = &values[base..base + size];
                                    (live.append(chunk).unwrap().0, size)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                appenders
                    .into_iter()
                    .flat_map(|a| a.join().unwrap())
                    .collect()
            });
            acks.sort_unstable();
            let mut expected = base;
            for (reached, size) in acks {
                expected += size;
                assert_eq!(
                    reached, expected,
                    "ack lengths must be the prefix sums of the chunk sizes in ack order"
                );
            }
            assert_eq!(live.len(), expected);
        }
    }

    #[test]
    fn concurrent_append_and_query_do_not_lose_updates() {
        let values = stream();
        let len = 40;
        let config =
            EngineConfig::new(Method::TsIndex, len).with_normalization(Normalization::None);
        let live = LiveEngine::build(&values[..600], config, LiveBackend::Memory).unwrap();
        let query = live.read(100, len).unwrap();

        std::thread::scope(|scope| {
            let live = &live;
            let chunks: Vec<&[f64]> = values[600..].chunks(200).collect();
            let appender = scope.spawn(move || {
                for chunk in chunks {
                    live.append(chunk).unwrap();
                }
            });
            let q = query.clone();
            let reader = scope.spawn(move || {
                let mut last = 0usize;
                for _ in 0..20 {
                    let hits = live.search(&q, 0.5).unwrap().len();
                    assert!(hits >= last, "result sets only ever grow");
                    last = hits;
                }
            });
            appender.join().unwrap();
            reader.join().unwrap();
        });
        assert_eq!(live.len(), values.len());
        // After the dust settles the live engine matches a bulk build.
        let bulk = crate::Engine::build(&values, config).unwrap();
        assert_eq!(
            live.search(&query, 0.5).unwrap(),
            bulk.search(&query, 0.5).unwrap()
        );
    }
}
