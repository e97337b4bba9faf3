//! Sharded search: partition one series across N independent engines and
//! fan queries out across them on the shared work-stealing executor.
//!
//! Two variants:
//!
//! * [`ShardedEngine`] — the static case.  The window starts `0..W` are
//!   partitioned into `N` contiguous ranges; shard `i` holds the points of
//!   its range **plus the `l-1` overlap points** into the next range, so
//!   every subsequence window lives in *exactly one* shard (the one owning
//!   its start).  A shard's local window `p` maps back to the global window
//!   `p + offset_i`, and since no shard can see a window it does not own,
//!   merging is concatenate → remap → sort: the result set is byte-identical
//!   to the unsharded engine for every method, store kind and query option.
//!   (A point-level round-robin split would destroy window contiguity; the
//!   contiguous-ranges-with-overlap layout is the round-robin of *windows*.)
//! * [`ShardedLiveEngine`] — the streaming case.  The growing series is cut
//!   into fixed-size **stripes** dealt round-robin to the shards
//!   (stripe `j` → shard `j mod N`), so ingest load rotates across shards
//!   instead of always landing on the last one.  Each stripe is stored with
//!   its `l-1` overlap tail, and because a shard's stripes are *not*
//!   globally adjacent, its local series contains phantom windows spanning
//!   stripe joins; the query path filters those out through the per-shard
//!   segment table before merging, so results again match the unsharded
//!   engine exactly.
//!
//! ## Contracts
//!
//! * **Ordering** — merged positions are globally sorted ascending;
//!   [`ts_core::TwinQuery::limit`] is applied after the merge (and pushed
//!   down to the shards only when that cannot change the answer).
//! * **Position remapping** — static: `global = local + offset_i`; live:
//!   `global = stripe_global_start + (local - segment_local_start)`, with
//!   overlap-tail and phantom windows dropped (each real window is counted
//!   exactly once).
//! * **Shard-count invariants** — the effective shard count is
//!   `min(config.shards, available windows)` for the static engine (every
//!   shard owns at least one window); the live engine requires the initial
//!   prefix to give every shard at least one full window
//!   (`(N-1)·stripe + l` points).
//! * **Statistics** — per-shard [`SearchStats`] are folded through
//!   [`SearchStats::merge`]; node/candidate counters are per-shard-index
//!   totals (the shard indexes are smaller than the unsharded one, so they
//!   need not equal the unsharded counters), and times are summed across
//!   shards (aggregate CPU time, not wall-clock).
//! * **Thread budget** — `execute` spends [`ts_core::TwinQuery::parallel`]'s
//!   (clamped) budget *across shards*; within a shard, queries run
//!   sequentially.  `search_batch_threads` fans `(query, shard)` pairs out
//!   on one pool.

use std::sync::RwLock;
use std::time::Instant;

use ts_core::exec::Executor;
use ts_core::normalize::{znormalize, Normalization};
use ts_core::query::{SearchOutcome, SearchStats, TwinQuery};
use ts_core::IngestStats;
use ts_storage::{Result, SeriesStore, StorageError};

use crate::engine::{Engine, EngineConfig};
use crate::live::{LiveBackend, LiveEngine};
use crate::method::Method;

fn invalid(message: String) -> StorageError {
    StorageError::Core(ts_core::TsError::InvalidParameter(message))
}

/// A series partitioned across N independent [`Engine`]s (one index and one
/// [`crate::PreparedStore`] of any [`ts_storage::StoreKind`] per shard),
/// answering every query with results byte-identical to the unsharded
/// engine.  See the module docs for the partitioning and merge contracts.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    config: EngineConfig,
    shards: Vec<Engine>,
    /// Owned-window offsets: shard `i` owns global window starts
    /// `offsets[i]..offsets[i+1]` (`offsets.len() == shards.len() + 1`).
    offsets: Vec<usize>,
    series_len: usize,
}

impl ShardedEngine {
    /// Prepares `values` under `config.normalization`, partitions the
    /// windows across `config.shards` shards (clamped to the number of
    /// available windows) and builds one engine per shard — in parallel, on
    /// the shared executor.
    ///
    /// Whole-series z-normalisation is applied globally *before*
    /// partitioning (a per-shard fit would shift every shard into its own
    /// space and break equivalence with the unsharded engine).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::build`], plus an error when the series
    /// is shorter than one window.
    pub fn build(values: &[f64], config: EngineConfig) -> Result<Self> {
        let len = config.subsequence_len;
        if len == 0 || values.len() < len {
            return Err(invalid(format!(
                "series of length {} has no subsequences of length {len}",
                values.len()
            )));
        }
        let windows = values.len() - len + 1;
        let requested = config.shards.max(1);
        let per = windows.div_ceil(requested);
        let count = windows.div_ceil(per);
        // Normalise globally, shard the prepared values.  The per-subsequence
        // regime is window-local, so sharding commutes with it and it is
        // passed through to the shards untouched.
        let (prepared, shard_norm) = match config.normalization {
            Normalization::WholeSeries => (znormalize(values), Normalization::None),
            other => (values.to_vec(), other),
        };
        let offsets: Vec<usize> = (0..=count).map(|i| (i * per).min(windows)).collect();
        let shard_config = config.with_normalization(shard_norm).with_shards(1);
        let pool = Executor::new(count);
        let shards = pool.map((0..count).collect(), |i| {
            let start = offsets[i];
            let end = (offsets[i + 1] + len - 1).min(prepared.len());
            Engine::build(&prepared[start..end], shard_config)
        })?;
        Ok(Self {
            config,
            shards,
            offsets,
            series_len: values.len(),
        })
    }

    /// The configuration the sharded engine was built with.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The method behind every shard.
    #[must_use]
    pub fn method(&self) -> Method {
        self.config.method
    }

    /// Effective shard count (`min(config.shards, windows)`).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engines, in global order.
    #[must_use]
    pub fn shards(&self) -> &[Engine] {
        &self.shards
    }

    /// Length of the (unsharded) prepared series.
    #[must_use]
    pub fn len(&self) -> usize {
        self.series_len
    }

    /// `true` when the series is empty (never after a successful build).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.series_len == 0
    }

    /// Total heap memory of all shard indexes.
    #[must_use]
    pub fn index_memory_bytes(&self) -> usize {
        self.shards.iter().map(Engine::index_memory_bytes).sum()
    }

    /// Reads `len` prepared values starting at global position `start`
    /// (e.g. to sample queries).  The read is served by the shard owning
    /// window `start` and must fit inside that shard's slice — always the
    /// case for `len <= subsequence_len` at a valid window start.
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds and storage errors.
    pub fn read(&self, start: usize, len: usize) -> Result<Vec<f64>> {
        let shard = self
            .offsets
            .partition_point(|&offset| offset <= start)
            .saturating_sub(1)
            .min(self.shards.len() - 1);
        self.shards[shard]
            .store()
            .read(start - self.offsets[shard], len)
    }

    /// Answers a [`TwinQuery`], spending its (clamped) thread budget across
    /// the shards and merging the per-shard outcomes (remap → sort →
    /// limit).  See the module docs for the exact merge semantics.
    ///
    /// # Errors
    ///
    /// Propagates query-validation and storage errors from any shard.
    pub fn execute(&self, query: &TwinQuery) -> Result<SearchOutcome> {
        if self.shards.len() == 1 {
            return self.shards[0].execute(query);
        }
        self.execute_on(query, &Executor::new(query.threads()))
    }

    /// [`ShardedEngine::execute`] on a caller-supplied pool (shared by the
    /// batch path and the scaling ablation).
    fn execute_on(&self, query: &TwinQuery, pool: &Executor) -> Result<SearchOutcome> {
        let started = Instant::now();
        let sub = self.shard_query(query);
        let outcomes = pool.map((0..self.shards.len()).collect(), |i| {
            self.shards[i].execute(&sub)
        })?;
        let mut outcome = self.merge(query, outcomes, pool);
        // A single query has a well-defined wall-clock; override the merge's
        // summed-across-shards default.
        outcome.query_time = started.elapsed();
        Ok(outcome)
    }

    /// The per-shard form of `query`: sequential (the budget is spent across
    /// shards), same ε and stats request.  `limit` is pushed down (each
    /// shard's smallest `n` positions are enough to reconstruct the global
    /// smallest `n`); `count_only` only when no limit forces a global
    /// re-truncation over materialised positions.
    fn shard_query(&self, query: &TwinQuery) -> TwinQuery {
        let mut sub = TwinQuery::new(query.values().to_vec(), query.epsilon());
        if let Some(n) = query.result_limit() {
            sub = sub.limit(n);
        }
        if query.is_count_only() && query.result_limit().is_none() {
            sub = sub.count_only();
        }
        if query.wants_stats() {
            sub = sub.collect_stats();
        }
        sub
    }

    /// Merges per-shard outcomes into the global [`SearchOutcome`].  The
    /// merged `query_time` sums the shard executions (the same
    /// aggregate-CPU convention the stats use); [`ShardedEngine::execute`]
    /// overrides it with the true wall-clock, which only exists per query.
    fn merge(
        &self,
        query: &TwinQuery,
        outcomes: Vec<SearchOutcome>,
        pool: &Executor,
    ) -> SearchOutcome {
        let method = outcomes.first().map_or("", |o| o.method);
        let mut positions = Vec::new();
        let mut stats = query.wants_stats().then(SearchStats::default);
        let mut count_sum = 0usize;
        let mut shard_time = std::time::Duration::ZERO;
        for (i, outcome) in outcomes.into_iter().enumerate() {
            count_sum += outcome.match_count;
            shard_time += outcome.query_time;
            let offset = self.offsets[i];
            positions.extend(outcome.positions.into_iter().map(|p| p + offset));
            if let (Some(total), Some(shard_stats)) = (stats.as_mut(), outcome.stats) {
                total.merge(shard_stats);
            }
        }
        positions.sort_unstable();
        if let Some(limit) = query.result_limit() {
            positions.truncate(limit);
        }
        let match_count = if query.is_count_only() && query.result_limit().is_none() {
            count_sum
        } else {
            positions.len()
        };
        if query.is_count_only() {
            positions = Vec::new();
        }
        SearchOutcome {
            method,
            positions,
            match_count,
            threads_used: pool.threads().min(self.shards.len()),
            query_time: shard_time,
            stats,
        }
    }

    /// Answers a batch of queries by fanning `(query, shard)` pairs out on
    /// one pool of (up to) `threads` workers (clamped); outcomes come back
    /// in query order and match per-query [`ShardedEngine::execute`]
    /// answers exactly.  Since the pairs of different queries interleave on
    /// the pool, each outcome's `query_time` reports its shard executions
    /// summed (aggregate CPU), not wall-clock.
    ///
    /// # Errors
    ///
    /// Returns an error raised by any query on any shard.
    pub fn search_batch_threads(
        &self,
        queries: &[TwinQuery],
        threads: usize,
    ) -> Result<Vec<SearchOutcome>> {
        if self.shards.len() == 1 {
            return self.shards[0].search_batch_threads(queries, threads);
        }
        let pool = Executor::new(threads);
        let subs: Vec<TwinQuery> = queries.iter().map(|q| self.shard_query(q)).collect();
        let mut pairs = Vec::with_capacity(queries.len() * self.shards.len());
        for qi in 0..queries.len() {
            for si in 0..self.shards.len() {
                pairs.push((qi, si));
            }
        }
        let outcomes = pool.map(pairs, |(qi, si)| self.shards[si].execute(&subs[qi]))?;
        // `map` preserves item order, so the outcomes chunk per query with
        // shards ascending — exactly what `merge` expects.
        Ok(outcomes
            .chunks(self.shards.len())
            .zip(queries)
            .map(|(chunk, query)| self.merge(query, chunk.to_vec(), &pool))
            .collect())
    }

    /// [`ShardedEngine::search_batch_threads`] with the machine's available
    /// parallelism as the worker budget.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedEngine::search_batch_threads`].
    pub fn search_batch(&self, queries: &[TwinQuery]) -> Result<Vec<SearchOutcome>> {
        self.search_batch_threads(queries, ts_core::exec::available_parallelism())
    }

    /// Twin subsequence search in increasing global position order.  Thin
    /// wrapper over [`ShardedEngine::execute`].
    ///
    /// # Errors
    ///
    /// Propagates query-validation and storage errors.
    pub fn search(&self, query: &[f64], epsilon: f64) -> Result<Vec<usize>> {
        Ok(self
            .execute(&TwinQuery::new(query.to_vec(), epsilon))?
            .positions)
    }

    /// Number of twins of `query` under `epsilon`.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedEngine::search`].
    pub fn count(&self, query: &[f64], epsilon: f64) -> Result<usize> {
        Ok(self
            .execute(&TwinQuery::new(query.to_vec(), epsilon).count_only())?
            .match_count)
    }
}

/// One stripe's slice of a shard's local series.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Global position of the stripe's first point (`stripe_index * stripe`).
    global_start: usize,
    /// Local position of that point in the shard's store.
    local_start: usize,
    /// Points of the extended stripe range `[jS, jS + S + l - 1)` ingested
    /// so far.
    points: usize,
}

/// The routing bookkeeping of a [`ShardedLiveEngine`], guarded by one lock:
/// appends update it exclusively, queries snapshot it shared.
#[derive(Debug)]
struct StripePlan {
    /// Global points ingested so far.
    total_len: usize,
    /// Per shard: its segments, ordered by (equivalently) global and local
    /// start.
    segments: Vec<Vec<Segment>>,
    /// Per shard: local store length implied by the routed appends.
    local_len: Vec<usize>,
}

impl StripePlan {
    /// Routes the global point range `[g0, g0 + values.len())` onto the
    /// per-stripe segments, calling `emit(shard, stripe_global_start,
    /// slice)` for every routed sub-slice (overlap tails are emitted to both
    /// adjacent stripes).
    ///
    /// Points a segment already holds are skipped and bookkeeping is only
    /// advanced after `emit` succeeds, so re-routing the same range after a
    /// partially failed append is **idempotent**: shards that already took
    /// their slice take nothing twice, the failed shard resumes where its
    /// store actually is.
    fn route<'v, E>(
        &mut self,
        stripe: usize,
        window: usize,
        shards: usize,
        g0: usize,
        values: &'v [f64],
        mut emit: impl FnMut(usize, usize, &'v [f64]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let g1 = g0 + values.len();
        let ext = stripe + window - 1;
        let mut j = g0.saturating_sub(ext - 1) / stripe;
        while j * stripe < g1 {
            let seg_begin = j * stripe;
            let lo = seg_begin.max(g0);
            let hi = (seg_begin + ext).min(g1);
            if lo < hi {
                let shard = j % shards;
                // `stripe >= window` guarantees stripe `j - shards` closed
                // before stripe `j` opens, so a stripe still receiving
                // points is always the shard's *last* segment; a stripe with
                // no record yet has received nothing.
                let held_to = match self.segments[shard].last() {
                    Some(seg) if seg.global_start == seg_begin => seg.global_start + seg.points,
                    _ => seg_begin,
                };
                // Skip what the segment already holds (a retry after a
                // partial failure re-sends ranges some shards already took).
                debug_assert!(held_to >= lo, "points arrive in global order");
                let lo = lo.max(held_to);
                if lo < hi {
                    emit(shard, seg_begin, &values[lo - g0..hi - g0])?;
                    // Record only after the emit succeeded, so a failing
                    // stripe never leaves an (empty) record behind.
                    match self.segments[shard].last_mut() {
                        Some(seg) if seg.global_start == seg_begin => {
                            seg.points += hi - lo;
                        }
                        _ => self.segments[shard].push(Segment {
                            global_start: seg_begin,
                            local_start: self.local_len[shard],
                            points: hi - lo,
                        }),
                    }
                    self.local_len[shard] += hi - lo;
                }
            }
            j += 1;
        }
        Ok(())
    }

    /// Maps a shard-local window start back to its global start, or `None`
    /// for overlap-tail and phantom (stripe-join-spanning) windows.
    fn remap(&self, shard: usize, local: usize, stripe: usize, window: usize) -> Option<usize> {
        let segments = &self.segments[shard];
        let idx = segments
            .partition_point(|seg| seg.local_start <= local)
            .checked_sub(1)?;
        let seg = segments[idx];
        let rel = local - seg.local_start;
        (rel < stripe && rel + window <= seg.points).then(|| seg.global_start + rel)
    }
}

/// A streaming engine sharded across N [`LiveEngine`]s: appended points are
/// dealt round-robin in fixed-size stripes (plus their `l-1` overlap tails),
/// queries fan out across the shards and merge through the segment table, so
/// answers match an unsharded [`LiveEngine`] over the same stream exactly.
/// See the module docs for the full contract.
///
/// Like [`LiveEngine`], sharded live engines index **raw values**
/// ([`Normalization::None`]).  Recovery from per-shard append logs is not
/// implemented (the per-shard logs written by [`LiveBackend::Log`] carry a
/// `.shardK` suffix and can be reopened individually).
#[derive(Debug)]
pub struct ShardedLiveEngine {
    config: EngineConfig,
    window: usize,
    stripe: usize,
    shards: Vec<LiveEngine>,
    plan: RwLock<StripePlan>,
}

impl ShardedLiveEngine {
    /// Default stripe length for a window length `l`: long enough that the
    /// `l-1` overlap stays a small fraction of each stripe.
    #[must_use]
    pub fn default_stripe(window: usize) -> usize {
        (8 * window).max(1_024)
    }

    /// Builds a sharded live engine over the stream prefix `initial` with
    /// `config.shards` shards and the default stripe length.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShardedLiveEngine::build_with_stripe`].
    pub fn build(initial: &[f64], config: EngineConfig, backend: LiveBackend) -> Result<Self> {
        Self::build_with_stripe(
            initial,
            config,
            backend,
            Self::default_stripe(config.subsequence_len),
        )
    }

    /// [`ShardedLiveEngine::build`] with an explicit stripe length (clamped
    /// to at least one window, which also guarantees that a shard's previous
    /// stripe is complete before its next one opens).
    ///
    /// The initial prefix must give every shard at least one full window:
    /// `initial.len() >= (N-1)·stripe + l`.  With [`LiveBackend::Log`], each
    /// shard writes its own log at the given path plus a `.shardK` suffix.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-raw normalisation regime, a too-short
    /// prefix, and propagates build and I/O failures.
    pub fn build_with_stripe(
        initial: &[f64],
        config: EngineConfig,
        backend: LiveBackend,
        stripe: usize,
    ) -> Result<Self> {
        let shard_count = config.shards.max(1);
        let window = config.subsequence_len;
        if shard_count == 1 {
            let inner = LiveEngine::build(initial, config, backend)?;
            return Ok(Self {
                config,
                window,
                stripe: 0,
                shards: vec![inner],
                plan: RwLock::new(StripePlan {
                    total_len: initial.len(),
                    segments: vec![Vec::new()],
                    local_len: vec![initial.len()],
                }),
            });
        }
        let stripe = stripe.max(window).max(1);
        let required = (shard_count - 1) * stripe + window;
        if initial.len() < required {
            return Err(invalid(format!(
                "a {shard_count}-shard live engine with stripe {stripe} and window {window} \
                 needs an initial prefix of at least {required} points so every shard starts \
                 with one full window (got {})",
                initial.len()
            )));
        }
        let mut plan = StripePlan {
            total_len: 0,
            segments: vec![Vec::new(); shard_count],
            local_len: vec![0; shard_count],
        };
        let mut shard_initial: Vec<Vec<f64>> = vec![Vec::new(); shard_count];
        plan.route::<std::convert::Infallible>(
            stripe,
            window,
            shard_count,
            0,
            initial,
            |k, _, s| {
                shard_initial[k].extend_from_slice(s);
                Ok(())
            },
        )
        .expect("infallible");
        plan.total_len = initial.len();

        let shard_config = config.with_shards(1);
        let mut shards = Vec::with_capacity(shard_count);
        for (k, values) in shard_initial.into_iter().enumerate() {
            let shard_backend = match &backend {
                LiveBackend::Memory => LiveBackend::Memory,
                LiveBackend::TempLog => LiveBackend::TempLog,
                LiveBackend::Log(path) => {
                    let mut name = path.as_os_str().to_os_string();
                    name.push(format!(".shard{k}"));
                    LiveBackend::Log(name.into())
                }
            };
            shards.push(LiveEngine::build(&values, shard_config, shard_backend)?);
        }
        Ok(Self {
            config,
            window,
            stripe,
            shards,
            plan: RwLock::new(plan),
        })
    }

    /// The configuration the engine was built with.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The method behind every shard.
    #[must_use]
    pub fn method(&self) -> Method {
        self.config.method
    }

    /// Effective shard count.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current global length of the ingested series.
    #[must_use]
    pub fn len(&self) -> usize {
        self.read_plan().total_len
    }

    /// `true` if nothing has been ingested (never after a successful build).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the shards keep the stream in crash-safe append logs.
    #[must_use]
    pub fn is_disk_backed(&self) -> bool {
        self.shards[0].is_disk_backed()
    }

    /// Cumulative ingestion statistics, merged across shards.  With more
    /// than one shard, `points_appended` counts the `l-1` overlap points
    /// once per receiving shard (they are physically appended to both).
    #[must_use]
    pub fn ingest_stats(&self) -> IngestStats {
        self.shards
            .iter()
            .map(LiveEngine::ingest_stats)
            .fold(IngestStats::default(), IngestStats::merged)
    }

    /// Total heap memory of all shard indexes.
    #[must_use]
    pub fn index_memory_bytes(&self) -> usize {
        self.shards.iter().map(LiveEngine::index_memory_bytes).sum()
    }

    /// Appends `values` to the stream, routing each stripe (and its overlap
    /// tail) to its round-robin shard and bringing every touched shard's
    /// index up to date.  Returns `(reached_len, windows_indexed)`: the
    /// global series length right after this append (computed under the
    /// plan write lock this append holds throughout) and the number of
    /// fresh windows indexed, summed across shards (overlap windows are
    /// physically present in one shard only, but overlap *points* are
    /// appended to two, so this sum can exceed the global fresh-window
    /// count).
    ///
    /// # Errors
    ///
    /// Propagates store and maintenance failures.  A failed append leaves
    /// the engine consistent and **retryable**: `len()` still reports the
    /// pre-append length, and re-appending the *same* `values` is
    /// idempotent — shards that already took their slice skip it (the
    /// routing bookkeeping only ever advances with the stores, and a shard
    /// whose store grew before its maintenance failed is caught up before
    /// the error returns), so nothing is duplicated and the position
    /// mapping stays exact.
    pub fn append(&self, values: &[f64]) -> Result<(usize, usize)> {
        let mut plan = self.plan.write().unwrap_or_else(|e| e.into_inner());
        if self.shards.len() == 1 {
            let (_, windows) = self.shards[0].append(values)?;
            plan.total_len += values.len();
            return Ok((plan.total_len, windows));
        }
        let g0 = plan.total_len;
        let mut windows = 0usize;
        let result = plan.route(
            self.stripe,
            self.window,
            self.shards.len(),
            g0,
            values,
            |shard, seg_begin, slice| {
                let (_, indexed) = self.shards[shard]
                    .append(slice)
                    .map_err(|e| (shard, seg_begin, e))?;
                windows += indexed;
                Ok(())
            },
        );
        if let Err((shard, seg_begin, error)) = result {
            // The shard's store is the ground truth.  A store-level failure
            // grew nothing and `route` recorded nothing; but an append can
            // also fail *after* the store grew (index-maintenance error, the
            // searcher heals itself on the next append) — catch the
            // bookkeeping up to the store so a retried `append` of the same
            // values skips exactly the points that are already in.
            let actual = self.shards[shard].len();
            let drift = actual.saturating_sub(plan.local_len[shard]);
            if drift > 0 {
                plan.local_len[shard] = actual;
                match plan.segments[shard].last_mut() {
                    Some(seg) if seg.global_start == seg_begin => seg.points += drift,
                    _ => plan.segments[shard].push(Segment {
                        global_start: seg_begin,
                        local_start: actual - drift,
                        points: drift,
                    }),
                }
            }
            plan.total_len = g0;
            return Err(error);
        }
        plan.total_len = g0 + values.len();
        Ok((plan.total_len, windows))
    }

    /// Answers a [`TwinQuery`] against the current state of the stream:
    /// fans out across the shards on the query's (clamped) thread budget,
    /// drops overlap/phantom windows through the segment table, remaps and
    /// merges.  `limit` and `count_only` are applied after the merge (they
    /// cannot be pushed down past the phantom filter).
    ///
    /// # Errors
    ///
    /// Propagates query-validation and storage errors from any shard.
    pub fn execute(&self, query: &TwinQuery) -> Result<SearchOutcome> {
        self.execute_on(query, &Executor::new(query.threads()))
    }

    fn execute_on(&self, query: &TwinQuery, pool: &Executor) -> Result<SearchOutcome> {
        if self.shards.len() == 1 {
            return self.shards[0].execute(query);
        }
        let started = Instant::now();
        let plan = self.read_plan();
        let mut sub = TwinQuery::new(query.values().to_vec(), query.epsilon());
        if query.wants_stats() {
            sub = sub.collect_stats();
        }
        let outcomes = pool.map((0..self.shards.len()).collect(), |k| {
            self.shards[k].execute(&sub)
        })?;
        let method = outcomes.first().map_or("", |o| o.method);
        let mut positions = Vec::new();
        let mut stats = query.wants_stats().then(SearchStats::default);
        for (shard, outcome) in outcomes.into_iter().enumerate() {
            positions.extend(
                outcome
                    .positions
                    .into_iter()
                    .filter_map(|p| plan.remap(shard, p, self.stripe, self.window)),
            );
            if let (Some(total), Some(shard_stats)) = (stats.as_mut(), outcome.stats) {
                total.merge(shard_stats);
            }
        }
        positions.sort_unstable();
        if let Some(limit) = query.result_limit() {
            positions.truncate(limit);
        }
        let match_count = positions.len();
        if query.is_count_only() {
            positions = Vec::new();
        }
        Ok(SearchOutcome {
            method,
            positions,
            match_count,
            threads_used: pool.threads().min(self.shards.len()),
            query_time: started.elapsed(),
            stats,
        })
    }

    /// Answers a batch of queries on one pool of (up to) `threads` workers;
    /// each query fans out across the shards in turn.
    ///
    /// # Errors
    ///
    /// Returns an error raised by any query on any shard.
    pub fn search_batch_threads(
        &self,
        queries: &[TwinQuery],
        threads: usize,
    ) -> Result<Vec<SearchOutcome>> {
        if self.shards.len() == 1 {
            return self.shards[0].search_batch_threads(queries, threads);
        }
        let pool = Executor::new(threads);
        queries.iter().map(|q| self.execute_on(q, &pool)).collect()
    }

    /// Twin subsequence search against the current state of the stream.
    ///
    /// # Errors
    ///
    /// Propagates query-validation and storage errors.
    pub fn search(&self, query: &[f64], epsilon: f64) -> Result<Vec<usize>> {
        Ok(self
            .execute(&TwinQuery::new(query.to_vec(), epsilon))?
            .positions)
    }

    /// Reads `len` points starting at global position `start` (e.g. to
    /// sample probe queries).  The read must stay inside one stripe's
    /// extended range — always the case for `len <= subsequence_len` at a
    /// valid window start.
    ///
    /// # Errors
    ///
    /// Returns an error for reads crossing a stripe boundary or past the
    /// ingested length, and propagates storage errors.
    pub fn read(&self, start: usize, len: usize) -> Result<Vec<f64>> {
        if self.shards.len() == 1 {
            return self.shards[0].read(start, len);
        }
        let plan = self.read_plan();
        let j = start / self.stripe;
        let shard = j % self.shards.len();
        let global_start = j * self.stripe;
        let seg = plan.segments[shard]
            .iter()
            .find(|seg| seg.global_start == global_start)
            .ok_or_else(|| invalid(format!("read at {start} is past the ingested stream")))?;
        let rel = start - seg.global_start;
        if rel + len > seg.points {
            return Err(invalid(format!(
                "read [{start}, {}) crosses a stripe boundary (stripe length {}, window {}); \
                 reads must fit one stripe's extended range",
                start + len,
                self.stripe,
                self.window
            )));
        }
        self.shards[shard].read(seg.local_start + rel, len)
    }

    fn read_plan(&self) -> std::sync::RwLockReadGuard<'_, StripePlan> {
        self.plan.read().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.07).sin() * 2.0 + (i as f64 * 0.011).cos())
            .collect()
    }

    #[test]
    fn sharded_matches_unsharded_for_every_method_and_shard_count() {
        let values = series(2_400);
        let len = 80;
        for method in Method::ALL {
            let unsharded = Engine::build(&values, EngineConfig::new(method, len)).unwrap();
            let query = unsharded.store().read(300, len).unwrap();
            for eps in [0.1, 0.4] {
                let expected = unsharded.search(&query, eps).unwrap();
                for shards in [1usize, 2, 3, 4, 7] {
                    let sharded = ShardedEngine::build(
                        &values,
                        EngineConfig::new(method, len).with_shards(shards),
                    )
                    .unwrap();
                    assert_eq!(
                        sharded.search(&query, eps).unwrap(),
                        expected,
                        "{method} at {shards} shards, eps {eps}"
                    );
                    assert_eq!(sharded.count(&query, eps).unwrap(), expected.len());
                    assert_eq!(sharded.len(), values.len());
                }
            }
        }
    }

    #[test]
    fn sharded_read_matches_unsharded_store() {
        let values = series(1_500);
        let len = 60;
        let unsharded = Engine::build(&values, EngineConfig::new(Method::TsIndex, len)).unwrap();
        let sharded = ShardedEngine::build(
            &values,
            EngineConfig::new(Method::TsIndex, len).with_shards(4),
        )
        .unwrap();
        assert_eq!(sharded.shard_count(), 4);
        for start in [0usize, 1, 700, values.len() - len] {
            assert_eq!(
                sharded.read(start, len).unwrap(),
                unsharded.store().read(start, len).unwrap(),
                "start {start}"
            );
        }
        assert!(sharded.index_memory_bytes() > 0);
        assert!(!sharded.is_empty());
    }

    #[test]
    fn sharded_options_compose_like_unsharded() {
        let values = series(2_000);
        let len = 70;
        let unsharded = Engine::build(&values, EngineConfig::new(Method::TsIndex, len)).unwrap();
        let sharded = ShardedEngine::build(
            &values,
            EngineConfig::new(Method::TsIndex, len).with_shards(3),
        )
        .unwrap();
        let query = unsharded.store().read(500, len).unwrap();
        let eps = 0.5;
        let full = unsharded.search(&query, eps).unwrap();

        // limit
        let limited = sharded
            .execute(&TwinQuery::new(query.clone(), eps).limit(3))
            .unwrap();
        assert_eq!(limited.positions, full[..3.min(full.len())]);
        assert_eq!(limited.match_count, limited.positions.len());

        // count_only
        let counted = sharded
            .execute(&TwinQuery::new(query.clone(), eps).count_only())
            .unwrap();
        assert!(counted.positions.is_empty());
        assert_eq!(counted.match_count, full.len());

        // count_only + limit
        let both = sharded
            .execute(&TwinQuery::new(query.clone(), eps).count_only().limit(2))
            .unwrap();
        assert!(both.positions.is_empty());
        assert_eq!(both.match_count, 2.min(full.len()));

        // stats are merged and consistent; parallel budget is reported.
        let stats_outcome = sharded
            .execute(
                &TwinQuery::new(query.clone(), eps)
                    .parallel(4)
                    .collect_stats(),
            )
            .unwrap();
        assert_eq!(stats_outcome.positions, full);
        assert!(stats_outcome.stats_consistent());
        assert!(stats_outcome.stats.unwrap().candidates_verified >= full.len());
        assert_eq!(
            stats_outcome.threads_used,
            ts_core::exec::clamp_threads(4).min(3)
        );
    }

    #[test]
    fn sharded_batches_match_per_query_execution() {
        let values = series(2_200);
        let len = 80;
        for method in [Method::TsIndex, Method::Sweepline] {
            let sharded =
                ShardedEngine::build(&values, EngineConfig::new(method, len).with_shards(4))
                    .unwrap();
            let queries: Vec<TwinQuery> = [100usize, 900, 1_500, 2_000]
                .iter()
                .map(|&p| TwinQuery::new(sharded.read(p, len).unwrap(), 0.4).collect_stats())
                .collect();
            let batch = sharded.search_batch_threads(&queries, 4).unwrap();
            assert_eq!(batch.len(), queries.len());
            for (query, outcome) in queries.iter().zip(&batch) {
                let single = sharded.execute(query).unwrap();
                assert_eq!(outcome.positions, single.positions, "{method}");
                assert_eq!(outcome.match_count, single.match_count);
                assert!(outcome.stats_consistent());
            }
            assert!(sharded.search_batch(&[]).unwrap().is_empty());
        }
    }

    #[test]
    fn sharded_engine_handles_more_shards_than_windows() {
        let values = series(100);
        let len = 90; // 11 windows, 64 requested shards
        let config = EngineConfig::new(Method::TsIndex, len).with_shards(64);
        let sharded = ShardedEngine::build(&values, config).unwrap();
        assert!(sharded.shard_count() <= 11);
        let unsharded = Engine::build(&values, EngineConfig::new(Method::TsIndex, len)).unwrap();
        let query = unsharded.store().read(5, len).unwrap();
        assert_eq!(
            sharded.search(&query, 0.3).unwrap(),
            unsharded.search(&query, 0.3).unwrap()
        );
        // Too-short series is rejected up front.
        assert!(ShardedEngine::build(&values[..10], config).is_err());
    }

    #[test]
    fn sharded_per_subsequence_and_raw_regimes_match_unsharded() {
        let values = series(1_600);
        let len = 64;
        for norm in [Normalization::None, Normalization::PerSubsequence] {
            for method in [Method::Isax, Method::TsIndex, Method::Sweepline] {
                let config = EngineConfig::new(method, len).with_normalization(norm);
                let unsharded = Engine::build(&values, config).unwrap();
                let sharded = ShardedEngine::build(&values, config.with_shards(3)).unwrap();
                let query = unsharded.store().read(200, len).unwrap();
                assert_eq!(
                    sharded.search(&query, 0.25).unwrap(),
                    unsharded.search(&query, 0.25).unwrap(),
                    "{method} under {norm:?}"
                );
            }
        }
        // KV-Index + per-subsequence is rejected, sharded or not.
        assert!(ShardedEngine::build(
            &values,
            EngineConfig::new(Method::KvIndex, len)
                .with_normalization(Normalization::PerSubsequence)
                .with_shards(2),
        )
        .is_err());
    }

    #[test]
    fn sharded_live_engine_matches_unsharded_live_engine() {
        let values = series(6_000);
        let len = 50;
        let stripe = 400;
        let split = 2_500;
        for method in Method::ALL {
            let config = EngineConfig::new(method, len)
                .with_normalization(Normalization::None)
                .with_shards(4);
            let sharded = ShardedLiveEngine::build_with_stripe(
                &values[..split],
                config,
                LiveBackend::Memory,
                stripe,
            )
            .unwrap();
            let unsharded =
                LiveEngine::build(&values[..split], config.with_shards(1), LiveBackend::Memory)
                    .unwrap();
            assert_eq!(sharded.shard_count(), 4);
            for chunk in values[split..].chunks(700) {
                sharded.append(chunk).unwrap();
                unsharded.append(chunk).unwrap();
            }
            assert_eq!(sharded.len(), values.len());
            // Probes everywhere: prefix, stripe interior, appended suffix,
            // stripe boundary neighbourhood.
            for start in [0usize, 399, 400, 1_111, 2_600, 5_000, values.len() - len] {
                let query = sharded.read(start, len).unwrap();
                assert_eq!(query, unsharded.read(start, len).unwrap(), "read {start}");
                for eps in [0.1, 0.6] {
                    assert_eq!(
                        sharded.search(&query, eps).unwrap(),
                        unsharded.search(&query, eps).unwrap(),
                        "{method} start {start} eps {eps}"
                    );
                }
            }
            let stats = sharded.ingest_stats();
            assert!(stats.points_appended >= values.len() - split);
        }
    }

    #[test]
    fn sharded_live_engine_validates_prefix_and_supports_options() {
        let values = series(4_000);
        let len = 60;
        let config = EngineConfig::new(Method::TsIndex, len)
            .with_normalization(Normalization::None)
            .with_shards(3);
        // Prefix shorter than (N-1)*stripe + window is rejected.
        assert!(ShardedLiveEngine::build_with_stripe(
            &values[..500],
            config,
            LiveBackend::Memory,
            400
        )
        .is_err());

        let live = ShardedLiveEngine::build_with_stripe(&values, config, LiveBackend::Memory, 400)
            .unwrap();
        let query = live.read(777, len).unwrap();
        let full = live.search(&query, 0.4).unwrap();
        assert!(full.contains(&777));

        let limited = live
            .execute(&TwinQuery::new(query.clone(), 0.4).limit(2))
            .unwrap();
        assert_eq!(limited.positions, full[..2.min(full.len())]);
        let counted = live
            .execute(
                &TwinQuery::new(query.clone(), 0.4)
                    .count_only()
                    .collect_stats(),
            )
            .unwrap();
        assert!(counted.positions.is_empty());
        assert_eq!(counted.match_count, full.len());
        assert!(counted.stats_consistent());

        let batch = live
            .search_batch_threads(&[TwinQuery::new(query.clone(), 0.4)], 4)
            .unwrap();
        assert_eq!(batch[0].positions, full);

        // Reads crossing a stripe's extended range are rejected.
        assert!(live.read(0, 4_000).is_err());
        assert!(live.read(100_000, len).is_err());
    }

    #[test]
    fn failed_sharded_append_is_retryable_without_duplication() {
        // Stripe layout with stripe=200, window=50, 2 shards: stripe j
        // covers [200j, 200j+249) and goes to shard j % 2.  An appended
        // chunk [400, 900) with a NaN at global 700 routes its first slice
        // [400, 648) to shard 0 (succeeds) and then [600, 849) to shard 1,
        // where the store's finiteness validation rejects it atomically —
        // the partial-failure case: one shard advanced, one did not.
        let len = 50;
        let stripe = 200;
        let initial = series(400);
        let config = EngineConfig::new(Method::TsIndex, len)
            .with_normalization(Normalization::None)
            .with_shards(2);
        let live =
            ShardedLiveEngine::build_with_stripe(&initial, config, LiveBackend::Memory, stripe)
                .unwrap();

        let mut chunk = series(900).split_off(400);
        chunk[300] = f64::NAN; // global position 700
        assert!(live.append(&chunk).is_err());
        assert_eq!(live.len(), 400, "a failed append reports nothing ingested");

        // Retrying with the (corrected) same range must not duplicate the
        // slice shard 0 already took: results equal an unsharded engine
        // over the final stream.
        chunk[300] = 0.25;
        live.append(&chunk).unwrap();
        assert_eq!(live.len(), 900);

        let mut full = series(900);
        full[700] = 0.25;
        let unsharded =
            LiveEngine::build(&full, config.with_shards(1), LiveBackend::Memory).unwrap();
        for start in [0usize, 380, 620, 700, 850] {
            let query = live.read(start, len).unwrap();
            assert_eq!(query, unsharded.read(start, len).unwrap(), "read {start}");
            for eps in [0.1, 0.5] {
                assert_eq!(
                    live.search(&query, eps).unwrap(),
                    unsharded.search(&query, eps).unwrap(),
                    "start {start} eps {eps}"
                );
            }
        }
    }

    #[test]
    fn sharded_live_engine_on_append_logs_is_crash_safe_per_shard() {
        let values = series(3_000);
        let len = 40;
        let mut base = std::env::temp_dir();
        base.push(format!("twin_sharded_live_{}.tslog", std::process::id()));
        let config = EngineConfig::new(Method::Isax, len)
            .with_normalization(Normalization::None)
            .with_shards(2);
        let stripe = 600;
        {
            let live = ShardedLiveEngine::build_with_stripe(
                &values[..2_000],
                config,
                LiveBackend::Log(base.clone()),
                stripe,
            )
            .unwrap();
            assert!(live.is_disk_backed());
            live.append(&values[2_000..]).unwrap();
            let query = live.read(2_500, len).unwrap();
            assert!(live.search(&query, 0.3).unwrap().contains(&2_500));
        }
        // One log per shard, individually reopenable.
        for k in 0..2 {
            let mut name = base.as_os_str().to_os_string();
            name.push(format!(".shard{k}"));
            let path = std::path::PathBuf::from(name);
            assert!(path.exists(), "shard {k} log missing");
            assert!(crate::AppendLogSeries::open(&path).unwrap().len() > 0);
            std::fs::remove_file(&path).ok();
        }
    }
}
