//! Multi-tenant engine lifecycle: one named, crash-safe [`LiveEngine`] per
//! tenant under a shared data directory.
//!
//! A long-lived service (the `ts-serve` daemon) owns many independent
//! series — one per account, sensor or deployment — and must open them
//! lazily, account for their ingestion and query latency separately, and
//! recover all of them after a restart.  The [`TenantRegistry`] is that
//! lifecycle layer:
//!
//! * **One directory, up to three files per tenant** — `<dir>/<name>.tslog`
//!   (the crash-safe WAL log holding the raw values; every append is
//!   covered by a group-commit fsync before it is acknowledged),
//!   `<dir>/<name>.tslog.snap` (the newest checkpoint snapshot, present
//!   once a checkpoint ran) and `<dir>/<name>.meta` (a tiny manifest
//!   recording the method, subsequence length and WAL knobs the tenant was
//!   created with, so a restarted process rebuilds the same index).
//! * **Lazy open** — [`TenantRegistry::get`] consults the in-memory map
//!   first and otherwise opens the tenant's WAL — snapshot + log tail, an
//!   O(tail) operation, **not** a full replay — into a *dormant* state: the
//!   series is readable and `stats` answer immediately, while the index is
//!   built only on the first query or append.  Tenants nobody touches
//!   after a restart cost nothing; tenants touched only for `stats` cost
//!   O(tail).
//! * **Filling → Dormant → Live** — a freshly created tenant may hold
//!   fewer points than one subsequence window, too few to build any index.
//!   It starts in a *filling* state (appends go straight to the WAL;
//!   queries answer [`TenantError::NotReady`]) and promotes itself to a
//!   live engine the moment the log reaches one window.  The promotion is
//!   crash-safe: the WAL is the source of truth either way.
//! * **Per-tenant accounting** — every tenant tracks its own
//!   [`IngestStats`] plus query counts and a bounded reservoir of recent
//!   query latencies, summarised as p50/p95/p99 via
//!   [`ts_core::stats::LatencySummary`] (means hide queueing tails).
//!
//! Tenant names are restricted to `[A-Za-z0-9_-]{1,64}` — they become file
//! names, and the restriction makes path traversal through a hostile name
//! impossible.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use ts_core::maintain::IngestStats;
use ts_core::obs;
use ts_core::query::{SearchOutcome, TwinQuery};
use ts_core::stats::LatencySummary;
use ts_ingest::{WalConfig, WalSeries, WalStats};
use ts_storage::{SeriesStore, StorageError};

use crate::engine::EngineConfig;
use crate::live::LiveEngine;
use crate::method::Method;

/// Maximum tenant-name length (names become file names).
pub const MAX_TENANT_NAME_LEN: usize = 64;

/// Recent query latencies kept per tenant for percentile reporting.
const LATENCY_RESERVOIR: usize = 512;

/// Per-method query metric handles (duration, stage timings, candidates),
/// resolved once per method and shared by every tenant running it — the
/// `method` label keeps the series apart in the exposition.
struct QueryMetrics {
    duration_ms: &'static obs::Histogram,
    filter_ms: &'static obs::Histogram,
    verify_ms: &'static obs::Histogram,
    candidates: &'static obs::Counter,
}

fn query_metrics(method: Method) -> &'static QueryMetrics {
    static ALL: OnceLock<Vec<(Method, &'static QueryMetrics)>> = OnceLock::new();
    let table = ALL.get_or_init(|| {
        Method::ALL
            .iter()
            .map(|&m| {
                let labels: &[(&str, &str)] = &[("method", m.label())];
                let handles = Box::leak(Box::new(QueryMetrics {
                    duration_ms: obs::histogram("twin_query_duration_ms", labels),
                    filter_ms: obs::histogram("twin_query_filter_ms", labels),
                    verify_ms: obs::histogram("twin_query_verify_ms", labels),
                    candidates: obs::counter("twin_query_candidates_total", labels),
                }));
                (m, &*handles)
            })
            .collect()
    });
    table
        .iter()
        .find(|(m, _)| *m == method)
        .map(|(_, h)| *h)
        .expect("every Method appears in Method::ALL")
}

/// Errors raised by the tenant layer, shaped for a service to map onto
/// typed protocol errors.
#[derive(Debug)]
pub enum TenantError {
    /// The tenant name is empty, too long, or contains characters outside
    /// `[A-Za-z0-9_-]`.
    InvalidName(String),
    /// No tenant with this name exists (in memory or on disk).
    NotFound(String),
    /// A tenant with this name already exists.
    AlreadyExists(String),
    /// The tenant exists but has ingested fewer points than one
    /// subsequence window, so no index exists to query yet.
    NotReady {
        /// Tenant name.
        name: String,
        /// Points ingested so far.
        len: usize,
        /// Points required before the first index build.
        needed: usize,
    },
    /// The tenant's on-disk manifest is missing a field or unparseable.
    CorruptManifest {
        /// Manifest path.
        path: PathBuf,
        /// What was wrong.
        reason: String,
    },
    /// An underlying storage / engine error.
    Storage(StorageError),
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::InvalidName(name) => write!(
                f,
                "invalid tenant name '{name}': expected 1-{MAX_TENANT_NAME_LEN} characters from [A-Za-z0-9_-]"
            ),
            TenantError::NotFound(name) => write!(f, "no such tenant '{name}'"),
            TenantError::AlreadyExists(name) => write!(f, "tenant '{name}' already exists"),
            TenantError::NotReady { name, len, needed } => write!(
                f,
                "tenant '{name}' is still filling: {len} of {needed} points needed for the first index build"
            ),
            TenantError::CorruptManifest { path, reason } => {
                write!(f, "corrupt tenant manifest {}: {reason}", path.display())
            }
            TenantError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TenantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TenantError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for TenantError {
    fn from(e: StorageError) -> Self {
        TenantError::Storage(e)
    }
}

/// Result alias for tenant operations.
pub type TenantResult<T> = std::result::Result<T, TenantError>;

/// How a tenant's engine is configured at creation time: the method,
/// window length and WAL knobs are durable (persisted in the manifest);
/// everything else uses the paper's defaults with raw-value normalisation,
/// the only regime a [`LiveEngine`] can maintain under appends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Search method built over the tenant's series.
    pub method: Method,
    /// Subsequence / query window length `l`.
    pub subsequence_len: usize,
    /// Durability / compaction knobs for the tenant's WAL (group commit,
    /// checkpoint triggers, snapshot store).
    pub wal: WalConfig,
}

impl TenantSpec {
    /// A tenant running `method` over windows of `subsequence_len` points,
    /// with the conservative default WAL (fsync per append, no
    /// checkpoints).
    #[must_use]
    pub fn new(method: Method, subsequence_len: usize) -> Self {
        TenantSpec {
            method,
            subsequence_len,
            wal: WalConfig::default(),
        }
    }

    /// Sets the WAL durability / compaction knobs.
    #[must_use]
    pub fn with_wal(mut self, wal: WalConfig) -> Self {
        self.wal = wal;
        self
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig::new(self.method, self.subsequence_len)
            .with_normalization(ts_core::normalize::Normalization::None)
            .with_wal(self.wal)
    }
}

/// A tenant's engine: still filling its first window, opened but not yet
/// indexed, or live.
#[derive(Debug)]
enum TenantState {
    /// Fewer points than one window: appends go straight to the WAL, no
    /// index exists, queries answer [`TenantError::NotReady`].
    Filling(WalSeries),
    /// One window or more, but no index built yet: the cheap state a lazy
    /// open lands in (snapshot + tail, O(tail)).  Length, reads and stats
    /// are served from the WAL; the first query or append promotes to
    /// [`TenantState::Live`].
    Dormant(WalSeries),
    /// One window or more: a full [`LiveEngine`] over the same WAL
    /// (boxed: the engine dwarfs the other variants).
    Live(Box<LiveEngine>),
}

/// Mutable per-tenant accounting outside the engine: appends performed
/// while filling (before any engine exists) and the query-latency
/// reservoir.
#[derive(Debug, Default)]
struct Accounting {
    /// Ingestion performed in the filling state (the live engine accounts
    /// for its own appends; `Tenant::stats` merges the two).
    filling: IngestStats,
    /// Total queries answered (successfully) by this tenant.
    queries: u64,
    /// Ring buffer of the most recent query latencies, milliseconds.
    latency_ms: Vec<f64>,
    /// Next write position in the ring.
    latency_next: usize,
}

impl Accounting {
    fn record_query(&mut self, elapsed_ms: f64) {
        self.queries += 1;
        if self.latency_ms.len() < LATENCY_RESERVOIR {
            self.latency_ms.push(elapsed_ms);
        } else {
            self.latency_ms[self.latency_next] = elapsed_ms;
        }
        self.latency_next = (self.latency_next + 1) % LATENCY_RESERVOIR;
    }
}

/// Thresholds and timing for the checkpoint-lag watchdog (see
/// [`CheckpointWatchdog`]).  A tenant whose WAL tail stays above either
/// armed threshold for longer than `grace` has its latched stuck flag
/// raised: the checkpointer is wedged (or was never running) and recovery
/// cost is growing without bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Tail records beyond which a tenant counts as behind (0 disables).
    pub lag_records: u64,
    /// Tail bytes beyond which a tenant counts as behind (0 disables).
    pub lag_bytes: u64,
    /// How long the lag must stay above a threshold before the flag
    /// latches — transient bursts inside the grace period never alert.
    pub grace: Duration,
    /// How often the watchdog polls the loaded tenants.
    pub poll: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            lag_records: 100_000,
            lag_bytes: 64 << 20,
            grace: Duration::from_secs(5),
            poll: Duration::from_millis(100),
        }
    }
}

impl WatchdogConfig {
    /// Sets the tail-records threshold (0 disables).
    #[must_use]
    pub fn with_lag_records(mut self, records: u64) -> Self {
        self.lag_records = records;
        self
    }

    /// Sets the tail-bytes threshold (0 disables).
    #[must_use]
    pub fn with_lag_bytes(mut self, bytes: u64) -> Self {
        self.lag_bytes = bytes;
        self
    }

    /// Sets the grace period the lag must persist before latching.
    #[must_use]
    pub fn with_grace(mut self, grace: Duration) -> Self {
        self.grace = grace;
        self
    }

    /// Sets the poll interval.
    #[must_use]
    pub fn with_poll(mut self, poll: Duration) -> Self {
        self.poll = poll;
        self
    }
}

/// Watchdog bookkeeping per tenant: when the lag first crossed a
/// threshold, and the latched alert.
#[derive(Debug, Default)]
struct CheckpointHealth {
    /// Set while the lag is continuously above a threshold; cleared the
    /// moment it drops back under (the grace window restarts).
    lag_since: Option<Instant>,
    /// Latched: once the lag outlived the grace period the flag stays up
    /// even if a later checkpoint drains the tail, so a transiently
    /// wedged checkpointer is still visible to an operator who looks
    /// after the fact.
    stuck: bool,
}

/// Point-in-time statistics snapshot for one tenant.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Search method configured for the tenant.
    pub method: Method,
    /// Window length configured for the tenant.
    pub subsequence_len: usize,
    /// Points ingested so far.
    pub series_len: usize,
    /// Whether an index exists (i.e. the tenant left the filling state).
    pub ready: bool,
    /// Cumulative ingestion accounting (filling + live phases merged).
    pub ingest: IngestStats,
    /// Queries answered.
    pub queries: u64,
    /// Latency summary (milliseconds) over the recent-query reservoir.
    pub query_latency_ms: LatencySummary,
    /// WAL activity: group-commit batches, fsyncs saved, checkpoints and
    /// the tail length replayed by the last recovery.
    pub wal: WalStats,
    /// Records in the WAL tail not yet covered by a checkpoint snapshot.
    pub checkpoint_lag_records: u64,
    /// Bytes in the WAL tail not yet covered by a checkpoint snapshot.
    pub checkpoint_lag_bytes: u64,
    /// Latched checkpoint-lag alert (see [`WatchdogConfig`]): the tail
    /// outgrew a watchdog threshold for longer than the grace period.
    pub checkpoint_stuck: bool,
}

/// One named tenant: spec, engine state and accounting.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    spec: TenantSpec,
    log_path: PathBuf,
    state: RwLock<TenantState>,
    accounting: Mutex<Accounting>,
    ckpt_health: Mutex<CheckpointHealth>,
}

impl Tenant {
    /// Tenant name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The spec the tenant was created with.
    #[must_use]
    pub fn spec(&self) -> TenantSpec {
        self.spec
    }

    /// Path of the tenant's crash-safe append log.
    #[must_use]
    pub fn log_path(&self) -> &Path {
        &self.log_path
    }

    /// Points ingested so far.
    #[must_use]
    pub fn len(&self) -> usize {
        match &*self.read_state() {
            TenantState::Filling(wal) | TenantState::Dormant(wal) => wal.len(),
            TenantState::Live(engine) => engine.len(),
        }
    }

    /// Whether nothing has been ingested yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the tenant can answer queries: live, or dormant (one window
    /// or more on disk; the first query builds the index on demand).
    #[must_use]
    pub fn is_ready(&self) -> bool {
        matches!(
            &*self.read_state(),
            TenantState::Live(_) | TenantState::Dormant(_)
        )
    }

    /// Whether an index is actually built right now.  A lazily opened
    /// tenant is *ready* (it holds at least one window) but not *indexed*
    /// until the first query or append promotes it — the distinction the
    /// O(tail) lazy-open regression test pins.
    #[must_use]
    pub fn is_indexed(&self) -> bool {
        matches!(&*self.read_state(), TenantState::Live(_))
    }

    /// Appends `values` to the tenant's series, returning the series
    /// length after the append and the number of fresh windows indexed
    /// (0 while the tenant is still filling).  The append is covered by a
    /// group-commit fsync before this returns: an acknowledged append
    /// survives a crash.
    ///
    /// For a live tenant the append runs under the state **read** lock —
    /// the engine serialises appends internally and waits for durability
    /// outside its own lock — so concurrent appenders can share one
    /// group-commit fsync instead of serialising on the tenant.
    ///
    /// # Errors
    ///
    /// Propagates storage and index-maintenance failures.
    pub fn append(&self, values: &[f64]) -> TenantResult<(usize, usize)> {
        loop {
            {
                // Fast path: a live engine handles its own locking, so the
                // tenant only needs a read lock to reach it.
                let state = self.read_state();
                if let TenantState::Live(engine) = &*state {
                    return Ok(engine.append(values)?);
                }
            }
            let mut state = self.state.write().unwrap_or_else(|e| e.into_inner());
            match &mut *state {
                // Raced with another promoter: retry the fast path.
                TenantState::Live(_) => continue,
                TenantState::Dormant(wal) => {
                    // First write after a lazy open: build the index, then
                    // retry as a live append.
                    let engine = LiveEngine::from_wal(wal.clone(), self.spec.engine_config())?;
                    *state = TenantState::Live(Box::new(engine));
                    continue;
                }
                TenantState::Filling(wal) => {
                    let started = Instant::now();
                    wal.append_durable(values)?;
                    let reached = wal.len();
                    {
                        let mut accounting =
                            self.accounting.lock().unwrap_or_else(|e| e.into_inner());
                        accounting.filling = accounting.filling.merged(IngestStats {
                            points_appended: values.len(),
                            append_calls: 1,
                            windows_indexed: 0,
                            store_time: started.elapsed(),
                            maintain_time: std::time::Duration::ZERO,
                        });
                    }
                    if reached >= self.spec.subsequence_len {
                        // Promote in place from the shared WAL handle.  On
                        // failure the state stays `Filling` and the next
                        // append retries; the WAL keeps every point.
                        let engine = LiveEngine::from_wal(wal.clone(), self.spec.engine_config())?;
                        let len = engine.len();
                        *state = TenantState::Live(Box::new(engine));
                        // The initial build indexed every window at once.
                        return Ok((len, len - self.spec.subsequence_len + 1));
                    }
                    return Ok((reached, 0));
                }
            }
        }
    }

    /// Ensures the index is built, promoting a dormant tenant.  Returns an
    /// error only when the build fails.
    fn ensure_live(&self) -> TenantResult<()> {
        {
            let state = self.read_state();
            match &*state {
                TenantState::Live(_) | TenantState::Filling(_) => return Ok(()),
                TenantState::Dormant(_) => {}
            }
        }
        let mut state = self.state.write().unwrap_or_else(|e| e.into_inner());
        if let TenantState::Dormant(wal) = &mut *state {
            let engine = LiveEngine::from_wal(wal.clone(), self.spec.engine_config())?;
            *state = TenantState::Live(Box::new(engine));
        }
        Ok(())
    }

    /// Takes a checkpoint of the tenant's WAL immediately, returning the
    /// number of values the new snapshot covers (`None` when nothing new
    /// was durable).  Works in every state — a dormant tenant checkpoints
    /// without building its index.
    ///
    /// # Errors
    ///
    /// Propagates snapshot-write and log-rewrite failures.
    pub fn checkpoint_now(&self) -> TenantResult<Option<usize>> {
        match &*self.read_state() {
            TenantState::Live(engine) => Ok(engine.checkpoint_now()?),
            TenantState::Filling(wal) | TenantState::Dormant(wal) => Ok(wal.checkpoint_now()?),
        }
    }

    /// Current checkpoint lag of the tenant's WAL as `(records, bytes)`
    /// in the log tail, whatever state the tenant is in.
    #[must_use]
    pub fn checkpoint_lag(&self) -> (u64, u64) {
        match &*self.read_state() {
            TenantState::Live(engine) => engine.checkpoint_lag().unwrap_or((0, 0)),
            TenantState::Filling(wal) | TenantState::Dormant(wal) => wal.checkpoint_lag(),
        }
    }

    /// The latched checkpoint-lag alert (false until a watchdog pass
    /// observed the lag above threshold past the grace period).
    #[must_use]
    pub fn checkpoint_stuck(&self) -> bool {
        self.ckpt_health
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stuck
    }

    /// One watchdog evaluation: samples the lag, arms / restarts the grace
    /// window, latches the stuck flag when the lag outlived it.  Returns
    /// `(lag_records, lag_bytes, stuck)` for the caller to export.
    pub fn evaluate_checkpoint_health(&self, config: &WatchdogConfig) -> (u64, u64, bool) {
        let (records, bytes) = self.checkpoint_lag();
        let over = (config.lag_records > 0 && records >= config.lag_records)
            || (config.lag_bytes > 0 && bytes >= config.lag_bytes);
        let mut health = self.ckpt_health.lock().unwrap_or_else(|e| e.into_inner());
        if over {
            let since = *health.lag_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= config.grace {
                health.stuck = true;
            }
        } else {
            health.lag_since = None;
        }
        (records, bytes, health.stuck)
    }

    /// Answers a query against the tenant's current series, recording the
    /// latency in the tenant's reservoir.
    ///
    /// # Errors
    ///
    /// [`TenantError::NotReady`] while the tenant is filling; otherwise
    /// propagates engine errors.
    pub fn execute(&self, query: &TwinQuery) -> TenantResult<SearchOutcome> {
        let started = Instant::now();
        self.ensure_live()?;
        let outcome = {
            let state = self.read_state();
            match &*state {
                TenantState::Live(engine) => engine.execute(query)?,
                TenantState::Dormant(_) => {
                    // ensure_live raced with a concurrent state swap; the
                    // caller can simply retry.
                    return Err(TenantError::NotReady {
                        name: self.name.clone(),
                        len: 0,
                        needed: self.spec.subsequence_len,
                    });
                }
                TenantState::Filling(wal) => {
                    return Err(TenantError::NotReady {
                        name: self.name.clone(),
                        len: wal.len(),
                        needed: self.spec.subsequence_len,
                    })
                }
            }
        };
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        self.accounting
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record_query(elapsed_ms);
        let metrics = query_metrics(self.spec.method);
        metrics.duration_ms.observe(elapsed_ms);
        // Stage timings and candidate counts ride along only when the
        // caller asked for stats — forcing collection here would tax every
        // query with the accounting it explicitly declined.
        if let Some(stats) = &outcome.stats {
            metrics
                .filter_ms
                .observe(stats.filter_time.as_secs_f64() * 1e3);
            metrics
                .verify_ms
                .observe(stats.verify_time.as_secs_f64() * 1e3);
            metrics.candidates.add(stats.candidates_generated as u64);
        }
        Ok(outcome)
    }

    /// Reads a subsequence of the tenant's series.
    ///
    /// # Errors
    ///
    /// Propagates storage errors and out-of-bounds reads.
    pub fn read(&self, start: usize, len: usize) -> TenantResult<Vec<f64>> {
        match &*self.read_state() {
            TenantState::Live(engine) => Ok(engine.read(start, len)?),
            TenantState::Filling(wal) | TenantState::Dormant(wal) => Ok(wal.read(start, len)?),
        }
    }

    /// A point-in-time statistics snapshot.  Serving stats never builds an
    /// index: a dormant (lazily opened) tenant answers from its WAL.
    #[must_use]
    pub fn stats(&self) -> TenantStats {
        let (series_len, ready, engine_ingest, wal, lag) = match &*self.read_state() {
            TenantState::Live(engine) => (
                engine.len(),
                true,
                engine.ingest_stats(),
                engine.wal_stats().unwrap_or_default(),
                engine.checkpoint_lag().unwrap_or((0, 0)),
            ),
            TenantState::Dormant(wal) => (
                wal.len(),
                true,
                IngestStats::default(),
                wal.stats(),
                wal.checkpoint_lag(),
            ),
            TenantState::Filling(wal) => (
                wal.len(),
                false,
                IngestStats::default(),
                wal.stats(),
                wal.checkpoint_lag(),
            ),
        };
        let accounting = self.accounting.lock().unwrap_or_else(|e| e.into_inner());
        TenantStats {
            name: self.name.clone(),
            method: self.spec.method,
            subsequence_len: self.spec.subsequence_len,
            series_len,
            ready,
            ingest: accounting.filling.merged(engine_ingest),
            queries: accounting.queries,
            query_latency_ms: LatencySummary::from_samples(&accounting.latency_ms),
            wal,
            checkpoint_lag_records: lag.0,
            checkpoint_lag_bytes: lag.1,
            checkpoint_stuck: self.checkpoint_stuck(),
        }
    }

    fn read_state(&self) -> std::sync::RwLockReadGuard<'_, TenantState> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }
}

/// The registry: lazy-opening, restart-safe map from tenant name to
/// [`Tenant`].  See the [module docs](self) for the on-disk layout.
#[derive(Debug)]
pub struct TenantRegistry {
    data_dir: PathBuf,
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
}

impl TenantRegistry {
    /// Opens (creating if needed) a registry rooted at `data_dir`.
    /// Existing tenants are *not* eagerly opened — [`get`](Self::get)
    /// recovers them on first touch.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open<P: AsRef<Path>>(data_dir: P) -> TenantResult<Self> {
        let data_dir = data_dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&data_dir)
            .map_err(|e| TenantError::Storage(StorageError::from(e)))?;
        Ok(TenantRegistry {
            data_dir,
            tenants: RwLock::new(HashMap::new()),
        })
    }

    /// The registry's data directory.
    #[must_use]
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// Creates a new tenant with `initial` points (may be empty: the
    /// tenant starts filling).  Writes the manifest and the append log,
    /// then registers the tenant.
    ///
    /// # Errors
    ///
    /// [`TenantError::AlreadyExists`] if a tenant of this name is loaded
    /// or present on disk; [`TenantError::InvalidName`] for a bad name;
    /// otherwise propagates I/O and build failures.
    pub fn create(
        &self,
        name: &str,
        spec: TenantSpec,
        initial: &[f64],
    ) -> TenantResult<Arc<Tenant>> {
        validate_name(name)?;
        if spec.subsequence_len == 0 {
            return Err(TenantError::Storage(StorageError::Core(
                ts_core::TsError::InvalidParameter(
                    "tenant subsequence_len must be positive".into(),
                ),
            )));
        }
        let mut tenants = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        if tenants.contains_key(name) || self.manifest_path(name).exists() {
            return Err(TenantError::AlreadyExists(name.to_string()));
        }
        let log_path = self.log_path(name);
        let wal = WalSeries::create(&log_path, initial, spec.wal)?;
        let state = if initial.len() >= spec.subsequence_len {
            TenantState::Live(Box::new(LiveEngine::from_wal(wal, spec.engine_config())?))
        } else {
            TenantState::Filling(wal)
        };
        write_manifest(&self.manifest_path(name), spec)?;
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            spec,
            log_path,
            state: RwLock::new(state),
            accounting: Mutex::new(Accounting::default()),
            ckpt_health: Mutex::new(CheckpointHealth::default()),
        });
        tenants.insert(name.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Fetches a tenant, lazily recovering it from disk on first touch
    /// after a restart.  Recovery opens the WAL (snapshot header + log
    /// tail — O(tail), not O(history)) but does **not** build the index:
    /// the tenant comes back [`Dormant`](TenantState) and promotes on the
    /// first query or append.  Serving `stats` stays cheap.
    ///
    /// # Errors
    ///
    /// [`TenantError::NotFound`] when the tenant exists neither in memory
    /// nor on disk; manifest / recovery errors otherwise.
    pub fn get(&self, name: &str) -> TenantResult<Arc<Tenant>> {
        validate_name(name)?;
        {
            let tenants = self.tenants.read().unwrap_or_else(|e| e.into_inner());
            if let Some(tenant) = tenants.get(name) {
                return Ok(Arc::clone(tenant));
            }
        }
        let manifest = self.manifest_path(name);
        if !manifest.exists() {
            return Err(TenantError::NotFound(name.to_string()));
        }
        let spec = read_manifest(&manifest)?;
        let log_path = self.log_path(name);
        let mut tenants = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        // Another thread may have recovered it while we read the manifest.
        if let Some(tenant) = tenants.get(name) {
            return Ok(Arc::clone(tenant));
        }
        let wal = WalSeries::open(&log_path, spec.wal)?;
        let state = if wal.len() >= spec.subsequence_len {
            TenantState::Dormant(wal)
        } else {
            TenantState::Filling(wal)
        };
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            spec,
            log_path,
            state: RwLock::new(state),
            accounting: Mutex::new(Accounting::default()),
            ckpt_health: Mutex::new(CheckpointHealth::default()),
        });
        tenants.insert(name.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Names of every tenant: loaded ones plus any present on disk, sorted.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures.
    pub fn list(&self) -> TenantResult<Vec<String>> {
        let mut names: Vec<String> = self
            .tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        let entries = std::fs::read_dir(&self.data_dir)
            .map_err(|e| TenantError::Storage(StorageError::from(e)))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("meta") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    if validate_name(stem).is_ok() && !names.iter().any(|n| n == stem) {
                        names.push(stem.to_string());
                    }
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Handles on every *loaded* tenant, sorted by name (the watchdog and
    /// other background sweeps iterate these without the registry lock).
    #[must_use]
    pub fn loaded(&self) -> Vec<Arc<Tenant>> {
        let tenants = self.tenants.read().unwrap_or_else(|e| e.into_inner());
        let mut loaded: Vec<Arc<Tenant>> = tenants.values().map(Arc::clone).collect();
        loaded.sort_by(|a, b| a.name.cmp(&b.name));
        loaded
    }

    /// Statistics snapshots for every *loaded* tenant (tenants still on
    /// disk untouched cost nothing and report nothing), sorted by name.
    #[must_use]
    pub fn loaded_stats(&self) -> Vec<TenantStats> {
        let tenants = self.tenants.read().unwrap_or_else(|e| e.into_inner());
        let mut stats: Vec<TenantStats> = tenants.values().map(|t| t.stats()).collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }

    /// Drops every loaded tenant, closing their log handles.  Appends are
    /// fsynced as they happen, so this is bookkeeping, not durability: a
    /// registry killed without `close` loses nothing that was acknowledged.
    pub fn close(&self) {
        self.tenants
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    fn log_path(&self, name: &str) -> PathBuf {
        self.data_dir.join(format!("{name}.tslog"))
    }

    fn manifest_path(&self, name: &str) -> PathBuf {
        self.data_dir.join(format!("{name}.meta"))
    }
}

/// The checkpoint-lag watchdog: a background thread that polls every
/// loaded tenant of a registry, latches the per-tenant stuck flag when a
/// WAL tail outlives the configured thresholds past the grace period (see
/// [`WatchdogConfig`]), and exports the lag and the flag as per-tenant
/// gauges (`twin_checkpoint_lag_records`, `twin_checkpoint_lag_bytes`,
/// `twin_checkpoint_stuck`).  Stopped and joined on drop.
#[derive(Debug)]
pub struct CheckpointWatchdog {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CheckpointWatchdog {
    /// Spawns the watchdog over `registry`.  Holding the returned handle
    /// keeps it running; dropping it stops the thread.
    #[must_use]
    pub fn spawn(registry: Arc<TenantRegistry>, config: WatchdogConfig) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("twin-ckpt-watchdog".into())
            .spawn(move || {
                let (lock, cv) = &*thread_stop;
                loop {
                    let stopping = {
                        let stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                        let (stopped, _) = cv
                            .wait_timeout(stopped, config.poll)
                            .unwrap_or_else(|e| e.into_inner());
                        *stopped
                    };
                    if stopping {
                        return;
                    }
                    for tenant in registry.loaded() {
                        let (records, bytes, stuck) = tenant.evaluate_checkpoint_health(&config);
                        let labels: &[(&str, &str)] = &[("tenant", tenant.name())];
                        obs::gauge("twin_checkpoint_lag_records", labels).set(records as i64);
                        obs::gauge("twin_checkpoint_lag_bytes", labels).set(bytes as i64);
                        obs::gauge("twin_checkpoint_stuck", labels).set(i64::from(stuck));
                    }
                }
            })
            .expect("failed to spawn checkpoint watchdog thread");
        CheckpointWatchdog {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for CheckpointWatchdog {
    fn drop(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Rejects names that are empty, oversized or could escape the data dir.
fn validate_name(name: &str) -> TenantResult<()> {
    let ok = !name.is_empty()
        && name.len() <= MAX_TENANT_NAME_LEN
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    if ok {
        Ok(())
    } else {
        Err(TenantError::InvalidName(name.to_string()))
    }
}

fn write_manifest(path: &Path, spec: TenantSpec) -> TenantResult<()> {
    let body = format!(
        "method={}\nsubsequence_len={}\n\
         group_commit_delay_us={}\ngroup_commit_count={}\n\
         checkpoint_records={}\ncheckpoint_bytes={}\nsnapshot_store={}\n\
         background={}\n",
        spec.method.label(),
        spec.subsequence_len,
        spec.wal.group_commit_delay.as_micros(),
        spec.wal.group_commit_count,
        spec.wal.checkpoint_records,
        spec.wal.checkpoint_bytes,
        spec.wal.snapshot_store.label(),
        spec.wal.background,
    );
    std::fs::write(path, body).map_err(|e| TenantError::Storage(StorageError::from(e)))
}

fn read_manifest(path: &Path) -> TenantResult<TenantSpec> {
    let corrupt = |reason: &str| TenantError::CorruptManifest {
        path: path.to_path_buf(),
        reason: reason.to_string(),
    };
    let body =
        std::fs::read_to_string(path).map_err(|e| TenantError::Storage(StorageError::from(e)))?;
    let mut method = None;
    let mut len = None;
    let mut wal = WalConfig::default();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_once('=') {
            Some(("method", v)) => {
                method = Some(
                    v.trim()
                        .parse::<Method>()
                        .map_err(|e| corrupt(&e.to_string()))?,
                );
            }
            Some(("subsequence_len", v)) => {
                len = Some(
                    v.trim()
                        .parse::<usize>()
                        .map_err(|_| corrupt(&format!("bad subsequence_len '{}'", v.trim())))?,
                );
            }
            Some(("group_commit_delay_us", v)) => {
                let us: u64 = v
                    .trim()
                    .parse()
                    .map_err(|_| corrupt(&format!("bad group_commit_delay_us '{}'", v.trim())))?;
                wal.group_commit_delay = std::time::Duration::from_micros(us);
            }
            Some(("group_commit_count", v)) => {
                wal.group_commit_count = v
                    .trim()
                    .parse()
                    .map_err(|_| corrupt(&format!("bad group_commit_count '{}'", v.trim())))?;
            }
            Some(("checkpoint_records", v)) => {
                wal.checkpoint_records = v
                    .trim()
                    .parse()
                    .map_err(|_| corrupt(&format!("bad checkpoint_records '{}'", v.trim())))?;
            }
            Some(("checkpoint_bytes", v)) => {
                wal.checkpoint_bytes = v
                    .trim()
                    .parse()
                    .map_err(|_| corrupt(&format!("bad checkpoint_bytes '{}'", v.trim())))?;
            }
            Some(("snapshot_store", v)) => {
                wal.snapshot_store = v
                    .trim()
                    .parse()
                    .map_err(|_| corrupt(&format!("bad snapshot_store '{}'", v.trim())))?;
            }
            Some(("background", v)) => {
                wal.background = v
                    .trim()
                    .parse()
                    .map_err(|_| corrupt(&format!("bad background '{}'", v.trim())))?;
            }
            // Unknown keys are ignored so old binaries read new manifests.
            Some(_) => {}
            None => return Err(corrupt(&format!("line without '=': '{line}'"))),
        }
    }
    match (method, len) {
        (Some(method), Some(subsequence_len)) if subsequence_len > 0 => Ok(TenantSpec {
            method,
            subsequence_len,
            wal,
        }),
        (Some(_), Some(_)) => Err(corrupt("subsequence_len must be positive")),
        (None, _) => Err(corrupt("missing 'method'")),
        (_, None) => Err(corrupt("missing 'subsequence_len'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("twin_tenant_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn wave(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.07).sin() * 2.0 + (i as f64 * 0.013).cos())
            .collect()
    }

    #[test]
    fn name_validation() {
        for good in ["a", "tenant-1", "A_b-C9", &"x".repeat(64)] {
            assert!(validate_name(good).is_ok(), "{good}");
        }
        for bad in ["", "a/b", "../up", "a b", "naïve", &"x".repeat(65)] {
            assert!(validate_name(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn manifest_round_trips() {
        let dir = temp_dir("manifest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.meta");
        for method in Method::ALL {
            let spec = TenantSpec::new(method, 37);
            write_manifest(&path, spec).unwrap();
            assert_eq!(read_manifest(&path).unwrap(), spec);
        }
        // Non-default WAL knobs survive the round trip too.
        let tuned = TenantSpec::new(Method::Isax, 64).with_wal(
            WalConfig::default()
                .with_group_commit(std::time::Duration::from_micros(750), 8)
                .with_checkpoint_records(512)
                .with_checkpoint_bytes(1 << 20)
                .with_snapshot_store(ts_storage::StoreKind::DiskCached)
                .with_background(false),
        );
        write_manifest(&path, tuned).unwrap();
        assert_eq!(read_manifest(&path).unwrap(), tuned);
        // Manifests written before the WAL keys existed read as defaults.
        std::fs::write(&path, "method=ts-index\nsubsequence_len=37\n").unwrap();
        assert_eq!(
            read_manifest(&path).unwrap(),
            TenantSpec::new(Method::TsIndex, 37)
        );
        std::fs::write(&path, "method=ts-index\n").unwrap();
        assert!(matches!(
            read_manifest(&path),
            Err(TenantError::CorruptManifest { .. })
        ));
        std::fs::write(&path, "method=warp\nsubsequence_len=5\n").unwrap();
        assert!(read_manifest(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_query_append_lifecycle() {
        let dir = temp_dir("lifecycle");
        let registry = TenantRegistry::open(&dir).unwrap();
        let values = wave(800);
        let spec = TenantSpec::new(Method::TsIndex, 50);
        let tenant = registry.create("alpha", spec, &values[..600]).unwrap();
        assert!(tenant.is_ready());
        assert_eq!(tenant.len(), 600);

        // Queries answer, appends index incrementally.
        let query = tenant.read(100, 50).unwrap();
        let outcome = tenant.execute(&TwinQuery::new(query.clone(), 0.3)).unwrap();
        assert!(outcome.positions.contains(&100));
        assert_eq!(tenant.append(&values[600..]).unwrap(), (800, 200));
        assert_eq!(tenant.len(), 800);

        // Creating again fails, fetching returns the same instance.
        assert!(matches!(
            registry.create("alpha", spec, &[]),
            Err(TenantError::AlreadyExists(_))
        ));
        assert!(Arc::ptr_eq(&registry.get("alpha").unwrap(), &tenant));

        // Stats account both paths.
        let stats = tenant.stats();
        assert_eq!(stats.series_len, 800);
        assert!(stats.ready);
        assert_eq!(stats.ingest.points_appended, 200);
        assert_eq!(stats.queries, 1);
        assert!(stats.query_latency_ms.count == 1 && stats.query_latency_ms.p50 >= 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filling_tenants_promote_at_one_window() {
        let dir = temp_dir("filling");
        let registry = TenantRegistry::open(&dir).unwrap();
        let values = wave(300);
        let spec = TenantSpec::new(Method::Isax, 100);
        let tenant = registry.create("fills", spec, &[]).unwrap();
        assert!(!tenant.is_ready());
        assert!(tenant.is_empty());

        // Queries are rejected with the typed not-ready error while filling.
        let probe: Vec<f64> = values[..100].to_vec();
        match tenant.execute(&TwinQuery::new(probe.clone(), 0.3)) {
            Err(TenantError::NotReady { len, needed, .. }) => {
                assert_eq!((len, needed), (0, 100));
            }
            other => panic!("expected NotReady, got {other:?}"),
        }

        // 60 + 30 points: still filling (90 < 100), zero windows indexed.
        assert_eq!(tenant.append(&values[..60]).unwrap(), (60, 0));
        assert_eq!(tenant.append(&values[60..90]).unwrap(), (90, 0));
        assert!(!tenant.is_ready());

        // Crossing the window promotes and indexes every window at once.
        let (reached, indexed) = tenant.append(&values[90..150]).unwrap();
        assert_eq!((reached, indexed), (150, 150 - 100 + 1));
        assert!(tenant.is_ready());
        let outcome = tenant.execute(&TwinQuery::new(probe, 0.3)).unwrap();
        assert!(outcome.positions.contains(&0));

        // The filling-phase appends are still accounted.
        let stats = tenant.stats();
        assert_eq!(stats.ingest.points_appended, 150);
        assert_eq!(stats.ingest.append_calls, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registry_recovers_tenants_lazily_after_restart() {
        let dir = temp_dir("restart");
        let values = wave(700);
        let spec = TenantSpec::new(Method::KvIndex, 40);
        let query: Vec<f64> = values[200..240].to_vec();
        let before;
        {
            let registry = TenantRegistry::open(&dir).unwrap();
            let a = registry.create("acct-a", spec, &values[..500]).unwrap();
            a.append(&values[500..]).unwrap();
            registry
                .create(
                    "acct-b",
                    TenantSpec::new(Method::Sweepline, 40),
                    &values[..90],
                )
                .unwrap();
            before = a.execute(&TwinQuery::new(query.clone(), 0.25)).unwrap();
            registry.close();
        }
        // A "restarted" registry sees both tenants on disk and recovers
        // byte-identical answers for everything that was acknowledged.
        let registry = TenantRegistry::open(&dir).unwrap();
        assert_eq!(registry.list().unwrap(), ["acct-a", "acct-b"]);
        assert!(registry.loaded_stats().is_empty(), "recovery is lazy");
        let a = registry.get("acct-a").unwrap();
        assert_eq!(a.len(), 700);
        let after = a.execute(&TwinQuery::new(query, 0.25)).unwrap();
        assert_eq!(before.positions, after.positions);
        assert_eq!(registry.loaded_stats().len(), 1);
        assert!(matches!(
            registry.get("acct-c"),
            Err(TenantError::NotFound(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lazy_open_serves_stats_without_building_an_index() {
        let dir = temp_dir("lazy");
        let values = wave(6000);
        let spec = TenantSpec::new(Method::TsIndex, 50);
        {
            let registry = TenantRegistry::open(&dir).unwrap();
            let t = registry.create("big", spec, &values[..4000]).unwrap();
            t.append(&values[4000..]).unwrap();
            // Compact almost all of the history into a snapshot, leaving
            // only what was appended after the checkpoint as tail.
            let covered = t.checkpoint_now().unwrap().unwrap();
            assert_eq!(covered, 6000);
            t.append(&wave(120)).unwrap();
            registry.close();
        }
        // Regression: an open that only answers `stats` must not replay
        // the full history or build the index — recovery cost is O(tail).
        let registry = TenantRegistry::open(&dir).unwrap();
        let t = registry.get("big").unwrap();
        assert!(t.is_ready(), "dormant tenants are ready");
        assert!(!t.is_indexed(), "get() must not build the index");
        let stats = t.stats();
        assert_eq!(stats.series_len, 6120);
        assert!(stats.ready);
        assert_eq!(
            stats.wal.last_recovery_tail_values, 120,
            "recovery replays the tail, not the {} point history",
            stats.series_len
        );
        assert!(!t.is_indexed(), "stats() must not build the index either");

        // The first query promotes and answers correctly.
        let probe: Vec<f64> = values[300..350].to_vec();
        let outcome = t.execute(&TwinQuery::new(probe, 0.3)).unwrap();
        assert!(outcome.positions.contains(&300));
        assert!(t.is_indexed());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dormant_append_promotes_and_stays_durable() {
        let dir = temp_dir("dormant_append");
        let values = wave(400);
        let spec = TenantSpec::new(Method::TsIndex, 40);
        {
            let registry = TenantRegistry::open(&dir).unwrap();
            registry.create("d", spec, &values[..300]).unwrap();
            registry.close();
        }
        let registry = TenantRegistry::open(&dir).unwrap();
        let t = registry.get("d").unwrap();
        assert!(!t.is_indexed());
        // An append to a dormant tenant promotes first, then appends live.
        let (reached, indexed) = t.append(&values[300..]).unwrap();
        assert_eq!(reached, 400);
        assert!(indexed > 0);
        assert!(t.is_indexed());
        assert_eq!(t.read(0, 400).unwrap(), values);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tenant_checkpoints_surface_in_stats() {
        let dir = temp_dir("ckpt_stats");
        let registry = TenantRegistry::open(&dir).unwrap();
        let spec = TenantSpec::new(Method::KvIndex, 30)
            .with_wal(WalConfig::default().with_snapshot_store(ts_storage::StoreKind::Memory));
        let t = registry.create("c", spec, &wave(100)).unwrap();
        t.append(&wave(10)).unwrap();
        assert_eq!(t.checkpoint_now().unwrap(), Some(110));
        // Nothing new since the last checkpoint: a no-op.
        assert_eq!(t.checkpoint_now().unwrap(), None);
        let stats = t.stats();
        assert_eq!(stats.wal.checkpoints, 1);
        assert!(stats.wal.appends >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watchdog_latches_stuck_flag_for_wedged_checkpointer() {
        let dir = temp_dir("watchdog");
        let registry = Arc::new(TenantRegistry::open(&dir).unwrap());
        // The wedged tenant: a checkpoint trigger is armed, but the
        // background checkpointer is disabled — nothing ever drains the
        // tail, which is exactly the failure the watchdog must catch.
        let wedged_spec = TenantSpec::new(Method::KvIndex, 20).with_wal(
            WalConfig::default()
                .with_checkpoint_records(8)
                .with_background(false),
        );
        let wedged = registry.create("wedged", wedged_spec, &wave(50)).unwrap();
        // A healthy neighbour under the same watchdog: its tail stays far
        // below the threshold, so the flag must never latch.
        let healthy = registry
            .create("healthy", TenantSpec::new(Method::KvIndex, 20), &wave(50))
            .unwrap();

        let config = WatchdogConfig::default()
            .with_lag_records(8)
            .with_lag_bytes(0)
            .with_grace(Duration::from_millis(50))
            .with_poll(Duration::from_millis(10));
        let watchdog = CheckpointWatchdog::spawn(Arc::clone(&registry), config);

        // Push the wedged tenant's tail past the threshold: the create
        // wrote 1 record, each append adds one more.
        for _ in 0..10 {
            wedged.append(&wave(5)).unwrap();
        }
        healthy.append(&wave(5)).unwrap();
        let (records, bytes, _) = wedged.evaluate_checkpoint_health(&config);
        assert!(records >= 8, "tail records: {records}");
        assert!(bytes > 0);

        // The flag latches within grace + a few polls; poll generously.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !wedged.checkpoint_stuck() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(wedged.checkpoint_stuck(), "watchdog never latched");
        let stats = wedged.stats();
        assert!(stats.checkpoint_stuck);
        assert!(stats.checkpoint_lag_records >= 8);
        assert!(stats.checkpoint_lag_bytes > 0);
        assert!(!healthy.checkpoint_stuck(), "healthy tenant flagged");
        assert!(!healthy.stats().checkpoint_stuck);

        // The flag stays latched even after an operator-forced checkpoint
        // drains the tail: the incident remains visible.
        wedged.checkpoint_now().unwrap();
        let (records, _, stuck) = wedged.evaluate_checkpoint_health(&config);
        assert_eq!(records, 0);
        assert!(stuck, "the alert is latched, not momentary");
        drop(watchdog);
        drop(registry);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grace_period_absorbs_transient_lag() {
        let dir = temp_dir("grace");
        let registry = TenantRegistry::open(&dir).unwrap();
        let spec = TenantSpec::new(Method::Sweepline, 10)
            .with_wal(WalConfig::default().with_background(false));
        let t = registry.create("bursty", spec, &wave(30)).unwrap();
        let config = WatchdogConfig::default()
            .with_lag_records(2)
            .with_lag_bytes(0)
            .with_grace(Duration::from_secs(3600));
        // Over threshold, but the (huge) grace period has not elapsed.
        t.append(&wave(5)).unwrap();
        t.append(&wave(5)).unwrap();
        let (records, _, stuck) = t.evaluate_checkpoint_health(&config);
        assert!(records >= 2);
        assert!(!stuck, "must not latch inside the grace period");
        // Draining the tail restarts the grace window.
        t.checkpoint_now().unwrap();
        let (records, _, stuck) = t.evaluate_checkpoint_health(&config);
        assert_eq!(records, 0);
        assert!(!stuck);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_names_never_touch_the_filesystem() {
        let dir = temp_dir("hostile");
        let registry = TenantRegistry::open(&dir).unwrap();
        let spec = TenantSpec::new(Method::TsIndex, 10);
        for name in ["../escape", "a/b", "", "nul\0byte"] {
            assert!(matches!(
                registry.create(name, spec, &[]),
                Err(TenantError::InvalidName(_))
            ));
            assert!(matches!(
                registry.get(name),
                Err(TenantError::InvalidName(_))
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
