//! The unified candidate→verification pipeline — the one hot loop behind all
//! four search methods.
//!
//! Every method (Sweepline, KV-Index, iSAX, TS-Index) is a *filter* that
//! emits candidate positions plus a *verification* step that checks each
//! candidate window against the query under the Chebyshev threshold ε.  The
//! filters differ; verification does not, so it lives here exactly once:
//!
//! 1. [`CandidateSet`] collects positions from any filter, then sorts,
//!    deduplicates and coalesces them into contiguous **runs** so the store
//!    is read sequentially instead of in filter-emission (random) order.
//! 2. One [`Pipeline::verify_into`] loop serves each run with a single
//!    contiguous [`read_range`](Pipeline::verify_into) call into a pooled
//!    [`Scratch`] buffer and checks every window in the run with the
//!    early-abandoning blockwise kernel
//!    ([`Verifier::is_twin_blockwise_counted`]).  With
//!    [`VerifyOptions::rolling_norm`] the run buffer holds **raw** values
//!    and each window is z-normalised inside the loop from rolling
//!    per-window statistics, which is how per-subsequence-normalising
//!    stores coalesce at all.
//! 3. [`finish_outcome`] is the single filter/verify timing split: total
//!    query wall-clock minus measured verify time (saturating), replacing
//!    the per-method fixups the crates used to hand-roll.
//!
//! The pipeline reports into [`crate::obs`]: candidates verified, runs
//! coalesced, scratch-pool hits/misses, and an early-abandon depth histogram
//! (power-of-two buckets).  All tallies are accumulated locally and flushed
//! **once per verify call** — the hot loop performs no atomic traffic (the
//! histogram's `_sum` quantises each depth up to its bucket bound).
//!
//! The run/kernel/scratch contract is documented in `docs/verification.md`.

use std::cell::RefCell;
use std::mem;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::normalize::znormalize_with;
use crate::obs;
use crate::query::{SearchOutcome, SearchStats, TwinQuery};
use crate::stats::rolling_mean_std_into;
use crate::verify::Verifier;

/// Default upper bound, in *values*, on the span a coalesced run may cover
/// (`last + window_len − first`).  Caps the scratch buffer a run needs at
/// `max(MAX_RUN_SPAN, window_len) * 8` bytes; a run's first window is always
/// accepted even when the window alone exceeds the cap.  Stores that know
/// their physical read granularity override this per query via
/// [`VerifyOptions::with_max_run_span`] (the block-cached store sizes runs
/// to a whole number of cache blocks).
pub const MAX_RUN_SPAN: usize = 4096;

/// Buffers a thread keeps pooled for reuse (see [`Scratch`]).
const SCRATCH_POOL_LIMIT: usize = 8;

/// Abandon-depth histogram bounds: powers of two, positions examined before
/// the kernel accepted or abandoned.
const DEPTH_BUCKETS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

fn metric_candidates() -> &'static obs::Counter {
    static M: OnceLock<&'static obs::Counter> = OnceLock::new();
    M.get_or_init(|| obs::counter("twin_verify_candidates_total", &[]))
}

fn metric_runs() -> &'static obs::Counter {
    static M: OnceLock<&'static obs::Counter> = OnceLock::new();
    M.get_or_init(|| obs::counter("twin_verify_runs_coalesced_total", &[]))
}

fn metric_scratch_hits() -> &'static obs::Counter {
    static M: OnceLock<&'static obs::Counter> = OnceLock::new();
    M.get_or_init(|| obs::counter("twin_verify_scratch_hits_total", &[]))
}

fn metric_scratch_misses() -> &'static obs::Counter {
    static M: OnceLock<&'static obs::Counter> = OnceLock::new();
    M.get_or_init(|| obs::counter("twin_verify_scratch_misses_total", &[]))
}

fn metric_abandon_depth() -> &'static obs::Histogram {
    static M: OnceLock<&'static obs::Histogram> = OnceLock::new();
    M.get_or_init(|| obs::histogram_with_buckets("twin_verify_abandon_depth", &[], &DEPTH_BUCKETS))
}

/// Resolves every pipeline metric handle.  Called on each `verify_into`
/// entry so the `twin_verify_*` families appear in the Prometheus
/// exposition even before the first candidate is verified.
fn touch_metrics() {
    let _ = (
        metric_candidates(),
        metric_runs(),
        metric_scratch_hits(),
        metric_scratch_misses(),
        metric_abandon_depth(),
    );
}

fn depth_slot(depth: usize) -> usize {
    DEPTH_BUCKETS.partition_point(|&b| b < depth as f64)
}

/// A value that [`obs::Histogram::observe_n`] places back into `slot`.
fn depth_representative(slot: usize) -> f64 {
    DEPTH_BUCKETS
        .get(slot)
        .copied()
        .unwrap_or(DEPTH_BUCKETS[DEPTH_BUCKETS.len() - 1] + 1.0)
}

/// Candidate positions collected from a filter, awaiting verification.
///
/// Positions may be pushed in any order and may repeat; the set tracks
/// whether the pushes happen to be strictly increasing (the common case for
/// scan- and posting-ordered filters) and only sorts + deduplicates when
/// they were not.  [`Pipeline::verify_into`] drains the set, coalescing
/// neighbouring positions into contiguous runs.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    positions: Vec<u32>,
    /// `true` while `positions` is strictly increasing (sorted and free of
    /// duplicates by construction).
    sorted: bool,
}

impl Default for CandidateSet {
    fn default() -> Self {
        Self::new()
    }
}

impl CandidateSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self {
            positions: Vec::new(),
            sorted: true,
        }
    }

    /// An empty set with room for `n` positions.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            positions: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Every position `0..count` — the index-free sweepline's candidate set.
    #[must_use]
    pub fn dense(count: usize) -> Self {
        Self {
            positions: (0..count as u32).collect(),
            sorted: true,
        }
    }

    /// Adds one candidate position.
    pub fn push(&mut self, position: u32) {
        if self.sorted {
            if let Some(&last) = self.positions.last() {
                if position <= last {
                    self.sorted = false;
                }
            }
        }
        self.positions.push(position);
    }

    /// Adds every position in `start..=end` (a KV-Index posting interval).
    /// Empty when `start > end`.
    pub fn push_range(&mut self, start: u32, end: u32) {
        if start > end {
            return;
        }
        if self.sorted {
            if let Some(&last) = self.positions.last() {
                if start <= last {
                    self.sorted = false;
                }
            }
        }
        self.positions.extend(start..=end);
    }

    /// Adds every position in `positions`.
    pub fn extend_from_slice(&mut self, positions: &[u32]) {
        for &p in positions {
            self.push(p);
        }
    }

    /// Number of collected positions (duplicates still counted).
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` when no positions were collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Empties the set, keeping its allocation.
    pub fn clear(&mut self) {
        self.positions.clear();
        self.sorted = true;
    }

    /// Sorts and deduplicates in place (no-op when pushes were already
    /// strictly increasing).
    fn normalize(&mut self) {
        if !self.sorted {
            self.positions.sort_unstable();
            self.positions.dedup();
            self.sorted = true;
        }
    }

    /// Consumes the set into its sorted, deduplicated position list.
    #[must_use]
    pub fn into_sorted_positions(mut self) -> Vec<u32> {
        self.normalize();
        self.positions
    }

    /// The coalesced runs for windows of `window_len` values, as
    /// `(first, last)` position pairs — the exact grouping
    /// [`Pipeline::verify_into`] reads.  Sorts the set as a side effect.
    ///
    /// A position `p` joins the current run when its window overlaps or
    /// abuts the values already covered (`p ≤ previous + window_len`, so a
    /// run's contiguous read wastes no values) and the run's value span
    /// stays within `max(MAX_RUN_SPAN, window_len)`.
    pub fn runs(&mut self, window_len: usize) -> Vec<(u32, u32)> {
        self.runs_with_span(window_len, MAX_RUN_SPAN)
    }

    /// [`CandidateSet::runs`] with an explicit span cap (see
    /// [`VerifyOptions::with_max_run_span`]): the run's value span stays
    /// within `max(max_span, window_len)`, so a run's first window is always
    /// accepted even when the window alone exceeds the cap.
    pub fn runs_with_span(&mut self, window_len: usize, max_span: usize) -> Vec<(u32, u32)> {
        self.normalize();
        let max_span = max_span.max(window_len);
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.positions.len() {
            let j = run_end(&self.positions, i, window_len, max_span);
            out.push((self.positions[i], self.positions[j - 1]));
            i = j;
        }
        out
    }
}

/// The run-growth rule, written once: the exclusive end index of the
/// coalesced run starting at `positions[start]`.  A position joins while its
/// window overlaps or abuts the previous one (`p ≤ prev + window_len`, so
/// the run's contiguous read wastes no values) and the run's value span
/// stays within `max_span` (already clamped up to `window_len`, so a run's
/// first window is always accepted).  `positions` is sorted and duplicate
/// free.
fn run_end(positions: &[u32], start: usize, window_len: usize, max_span: usize) -> usize {
    let first = positions[start] as usize;
    let mut end = start + 1;
    while end < positions.len() {
        let p = positions[end] as usize;
        let prev = positions[end - 1] as usize;
        if p > prev + window_len || p + window_len - first > max_span {
            break;
        }
        end += 1;
    }
    end
}

thread_local! {
    /// Per-thread pool of verification buffers.  `Executor` workers are
    /// scoped (spawned per traversal call), so parallel tasks start with a
    /// fresh pool; sequential callers and daemon threads reuse buffers
    /// across queries for the life of the thread.
    static SCRATCH_POOL: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// A pooled `f64` scratch buffer: [`Scratch::take`] pops the current
/// thread's pool (allocating only when no pooled buffer has enough
/// capacity), and dropping the guard returns the buffer to the pool.
/// Replaces the per-query/per-leaf `vec![0.0; len]` allocations the method
/// crates used to make.
#[derive(Debug)]
pub struct Scratch {
    buf: Vec<f64>,
}

impl Scratch {
    /// A zero-initialised buffer of exactly `len` values, reusing a pooled
    /// allocation when one is large enough (recorded as a scratch-pool hit;
    /// an allocation is a miss).
    #[must_use]
    pub fn take(len: usize) -> Self {
        let (scratch, hit) = Self::take_inner(len);
        if hit {
            metric_scratch_hits().inc();
        } else {
            metric_scratch_misses().inc();
        }
        scratch
    }

    /// [`Scratch::take`] for the verification hot loop: the hit/miss is
    /// tallied into `metrics` (flushed once per `verify` call) instead of
    /// touching the process-wide atomic counters per take.
    fn take_counted(len: usize, metrics: &mut VerifyMetrics) -> Self {
        let (scratch, hit) = Self::take_inner(len);
        if hit {
            metrics.scratch_hits += 1;
        } else {
            metrics.scratch_misses += 1;
        }
        scratch
    }

    fn take_inner(len: usize) -> (Self, bool) {
        let buf = SCRATCH_POOL
            .try_with(|pool| pool.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        let hit = buf.capacity() >= len;
        let mut buf = buf;
        buf.clear();
        buf.resize(len, 0.0);
        (Scratch { buf }, hit)
    }
}

impl Deref for Scratch {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.buf
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let buf = mem::take(&mut self.buf);
        // `try_with`: the TLS pool may already be gone during thread
        // teardown; dropping the buffer is fine then.
        let _ = SCRATCH_POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < SCRATCH_POOL_LIMIT {
                pool.push(buf);
            }
        });
    }
}

/// How [`Pipeline::verify_into`] treats matches.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// Stop verifying once this many matches were found.  Because the
    /// candidate set is verified in increasing position order, the early
    /// stop yields exactly the `limit` smallest matching positions.
    pub limit: Option<usize>,
    /// Count matches without recording their positions.
    pub count_only: bool,
    /// Measure the verification wall-clock (one `Instant` pair per call).
    pub timed: bool,
    /// Coalesce overlapping/abutting candidate windows into contiguous run
    /// reads (the default).  Only sound for stores whose every read is a
    /// slice of one underlying value sequence — set `false` (via
    /// [`VerifyOptions::with_coalesce`]) for stores that transform values
    /// per requested range, unless [`VerifyOptions::rolling_norm`] moves the
    /// per-window transform into the pipeline.
    pub coalesce: bool,
    /// Z-normalise each candidate window **inside the pipeline** from
    /// rolling per-window statistics over the raw run buffer, instead of
    /// relying on the store to normalise per requested range.  This is how a
    /// per-subsequence-normalising store opts back *into* coalescing: the
    /// read closure must then return **raw** values (the store's
    /// `read_raw_range_into` path), and the pipeline computes every window's
    /// mean/std with one rolling pass per run
    /// ([`crate::stats::rolling_mean_std_into`]) and normalises the window
    /// before the kernel sees it.
    pub rolling_norm: bool,
    /// Upper bound, in values, on a coalesced run's span (clamped up to the
    /// window length).  Defaults to [`MAX_RUN_SPAN`]; stores advertising a
    /// `preferred_run_span()` (e.g. a block cache sizing runs to a whole
    /// number of cache blocks) override it via
    /// [`VerifyOptions::with_max_run_span`].
    pub max_run_span: usize,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        Self {
            limit: None,
            count_only: false,
            timed: false,
            coalesce: true,
            rolling_norm: false,
            max_run_span: MAX_RUN_SPAN,
        }
    }
}

impl VerifyOptions {
    /// The options `query` asks for (limit, count-only, timing iff stats).
    #[must_use]
    pub fn from_query(query: &TwinQuery) -> Self {
        Self {
            limit: query.result_limit(),
            count_only: query.is_count_only(),
            timed: query.wants_stats(),
            ..Self::default()
        }
    }

    /// Verify every candidate, record every match (TS-Index semantics:
    /// parallel-traversal counters must merge to the sequential totals, so
    /// no limit-driven early stop).
    #[must_use]
    pub fn exhaustive(timed: bool) -> Self {
        Self {
            timed,
            ..Self::default()
        }
    }

    /// Sets whether candidate windows may coalesce into run reads — method
    /// crates pass the store's `range_reads_are_slices()` capability here
    /// (or `true` together with [`VerifyOptions::with_rolling_norm`] for
    /// per-window-normalising stores read through their raw path).
    #[must_use]
    pub fn with_coalesce(mut self, coalesce: bool) -> Self {
        self.coalesce = coalesce;
        self
    }

    /// Sets in-pipeline rolling z-normalisation (see
    /// [`VerifyOptions::rolling_norm`]).
    #[must_use]
    pub fn with_rolling_norm(mut self, rolling_norm: bool) -> Self {
        self.rolling_norm = rolling_norm;
        self
    }

    /// Overrides the run span cap (see [`VerifyOptions::max_run_span`]).
    #[must_use]
    pub fn with_max_run_span(mut self, max_run_span: usize) -> Self {
        self.max_run_span = max_run_span;
        self
    }
}

/// Tallies accumulated locally during one verification call and flushed to
/// the process-wide `twin_verify_*` metrics **once** at the end of the call
/// (candidates, runs, scratch hits/misses, abandon-depth histogram) — the
/// hot loop itself performs no relaxed-atomic traffic.
#[derive(Debug, Default)]
struct VerifyMetrics {
    depth_counts: [u64; DEPTH_BUCKETS.len() + 1],
    scratch_hits: u64,
    scratch_misses: u64,
}

impl VerifyMetrics {
    /// The single per-call flush into the process-wide registry.
    fn flush(&self, report: &VerifyReport) {
        metric_candidates().add(report.verified as u64);
        metric_runs().add(report.runs as u64);
        metric_scratch_hits().add(self.scratch_hits);
        metric_scratch_misses().add(self.scratch_misses);
        let hist = metric_abandon_depth();
        for (slot, &n) in self.depth_counts.iter().enumerate() {
            hist.observe_n(depth_representative(slot), n);
        }
    }
}

/// What one [`Pipeline::verify_into`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Candidates run through the kernel (≤ the candidate-set size when a
    /// limit stopped the scan early).
    pub verified: usize,
    /// Candidates that were twins.
    pub matches: usize,
    /// Coalesced runs read (= contiguous `read_range` calls issued).
    pub runs: usize,
    /// Verification wall-clock; [`Duration::ZERO`] unless
    /// [`VerifyOptions::timed`] was set.
    pub verify_time: Duration,
}

/// The verification half of a twin search, bound to one query: comparison
/// plan ([`Verifier`]) and threshold.
#[derive(Debug, Clone)]
pub struct Pipeline<'q> {
    verifier: Verifier<'q>,
    epsilon: f64,
}

impl<'q> Pipeline<'q> {
    /// A pipeline with reordering early abandoning.
    #[must_use]
    pub fn new(query: &'q [f64], epsilon: f64) -> Self {
        Self::from_verifier(Verifier::new(query), epsilon)
    }

    /// A pipeline comparing positions left-to-right (the reordering
    /// ablation).
    #[must_use]
    pub fn sequential(query: &'q [f64], epsilon: f64) -> Self {
        Self::from_verifier(Verifier::new_sequential(query), epsilon)
    }

    /// A pipeline for `query`'s values and threshold.
    #[must_use]
    pub fn for_query(query: &'q TwinQuery) -> Self {
        Self::new(query.values(), query.epsilon())
    }

    /// Wraps an existing comparison plan.
    #[must_use]
    pub fn from_verifier(verifier: Verifier<'q>, epsilon: f64) -> Self {
        Self { verifier, epsilon }
    }

    /// The comparison plan.
    #[must_use]
    pub fn verifier(&self) -> &Verifier<'q> {
        &self.verifier
    }

    /// The Chebyshev threshold ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Window (query) length in values.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.verifier.len()
    }

    /// **The** verification loop: drains `candidates`, reads each coalesced
    /// run with one `read_range(first_position, buf)` call, and appends
    /// matching positions to `out` in increasing order.
    ///
    /// `read_range` must fill `buf` with the `buf.len()` consecutive store
    /// values starting at the given position — method crates pass
    /// `|start, buf| store.read_range_into(start, buf)`.  The candidate set
    /// is left empty (allocation retained) whether or not the call
    /// succeeds early or errors.
    ///
    /// Every candidate position must satisfy
    /// `position + window_len ≤ store length`; filters guarantee this.
    ///
    /// # Errors
    ///
    /// Returns the first error `read_range` reports.
    pub fn verify_into<E>(
        &self,
        candidates: &mut CandidateSet,
        mut read_range: impl FnMut(usize, &mut [f64]) -> Result<(), E>,
        options: VerifyOptions,
        out: &mut Vec<usize>,
    ) -> Result<VerifyReport, E> {
        touch_metrics();
        candidates.normalize();
        let started = options.timed.then(Instant::now);
        let len = self.verifier.len();
        let limit = options.limit.unwrap_or(usize::MAX);
        let max_span = options.max_run_span.max(len);
        let mut metrics = VerifyMetrics::default();
        let mut report = VerifyReport::default();

        let positions = &candidates.positions;
        let mut i = 0;
        let result = loop {
            if i >= positions.len() || report.matches >= limit {
                break Ok(());
            }
            let first = positions[i] as usize;
            let j = if options.coalesce {
                run_end(positions, i, len, max_span)
            } else {
                i + 1
            };
            let span = positions[j - 1] as usize + len - first;
            report.runs += 1;
            let mut buf = Scratch::take_counted(span, &mut metrics);
            if let Err(e) = read_range(first, &mut buf) {
                break Err(e);
            }
            self.verify_run(
                &positions[i..j],
                first,
                &buf,
                &options,
                limit,
                &mut metrics,
                &mut report,
                out,
            );
            i = j;
        };

        candidates.clear();
        metrics.flush(&report);
        if let Some(t) = started {
            report.verify_time = t.elapsed();
        }
        result.map(|()| report)
    }

    /// Runs every window of one coalesced run through the kernel.  `buf`
    /// holds the run's values starting at series position `first` — raw
    /// values when `options.rolling_norm` is set (each window is then
    /// z-normalised from rolling statistics right before its kernel pass),
    /// final values otherwise.  Stops once `report.matches` reaches `limit`.
    #[allow(clippy::too_many_arguments)]
    fn verify_run(
        &self,
        run: &[u32],
        first: usize,
        buf: &[f64],
        options: &VerifyOptions,
        limit: usize,
        metrics: &mut VerifyMetrics,
        report: &mut VerifyReport,
        out: &mut Vec<usize>,
    ) {
        let len = self.verifier.len();
        // Rolling z-normalisation: one pass of per-window mean/std over the
        // raw run buffer; each window is normalised into scratch on demand.
        let mut rolling = options.rolling_norm.then(|| {
            let count = buf.len() - len + 1;
            let mut stats = Scratch::take_counted(2 * count, metrics);
            rolling_mean_std_into(buf, len, &mut stats);
            (stats, Scratch::take_counted(len, metrics))
        });
        for &p in run {
            if report.matches >= limit {
                break;
            }
            let p = p as usize;
            let off = p - first;
            let result = match &mut rolling {
                Some((stats, norm)) => {
                    norm.copy_from_slice(&buf[off..off + len]);
                    znormalize_with(norm, stats[2 * off], stats[2 * off + 1]);
                    self.verifier.is_twin_blockwise_counted(norm, self.epsilon)
                }
                None => self
                    .verifier
                    .is_twin_blockwise_counted(&buf[off..off + len], self.epsilon),
            };
            record_window(p, result, options, metrics, report, out);
        }
    }
}

/// Tallies one window's kernel result into the report and local metrics.
fn record_window(
    position: usize,
    (is_twin, depth): (bool, usize),
    options: &VerifyOptions,
    metrics: &mut VerifyMetrics,
    report: &mut VerifyReport,
    out: &mut Vec<usize>,
) {
    report.verified += 1;
    metrics.depth_counts[depth_slot(depth)] += 1;
    if is_twin {
        report.matches += 1;
        if !options.count_only {
            out.push(position);
        }
    }
}

/// The single filter/verify wall-clock split: whatever part of `total` was
/// not measured as verification is attributed to the filter (saturating, so
/// timer jitter can never panic the subtraction).
#[must_use]
pub fn split_filter_time(total: Duration, verify: Duration) -> Duration {
    total.saturating_sub(verify)
}

/// Assembles a [`SearchOutcome`], applying the shared timing split.
///
/// For sequential executions (`threads_used ≤ 1`) the filter time is
/// derived here as `query_time − verify_time` ([`split_filter_time`]).
/// Parallel traversals keep the per-task filter attribution already summed
/// into `stats` (per-worker wall-clocks overlap, so the end-to-end
/// derivation would be meaningless there).  Statistics are attached only
/// when the query asked for them.
#[must_use]
pub fn finish_outcome(
    method: &'static str,
    started: Instant,
    query: &TwinQuery,
    positions: Vec<usize>,
    match_count: usize,
    threads_used: usize,
    mut stats: SearchStats,
) -> SearchOutcome {
    let query_time = started.elapsed();
    let stats = query.wants_stats().then(|| {
        if threads_used <= 1 {
            stats.filter_time = split_filter_time(query_time, stats.verify_time);
        }
        stats
    });
    SearchOutcome {
        method,
        positions,
        match_count,
        threads_used,
        query_time,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_from<'a>(
        series: &'a [f64],
    ) -> impl FnMut(usize, &mut [f64]) -> Result<(), String> + 'a {
        move |start, buf: &mut [f64]| {
            let end = start + buf.len();
            if end > series.len() {
                return Err(format!("read {start}..{end} past {}", series.len()));
            }
            buf.copy_from_slice(&series[start..end]);
            Ok(())
        }
    }

    /// The reference implementation the pipeline must match: sort + dedup,
    /// then one window read and scalar check per candidate.
    fn naive(series: &[f64], query: &[f64], epsilon: f64, candidates: &[u32]) -> Vec<usize> {
        let mut sorted: Vec<u32> = candidates.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let v = Verifier::new(query);
        sorted
            .into_iter()
            .map(|p| p as usize)
            .filter(|&p| v.is_twin(&series[p..p + query.len()], epsilon))
            .collect()
    }

    #[test]
    fn candidate_set_tracks_sortedness_and_dedups() {
        let mut cs = CandidateSet::new();
        assert!(cs.is_empty());
        cs.push(3);
        cs.push(7); // still strictly increasing
        cs.push(7); // duplicate breaks it
        cs.push(1);
        assert_eq!(cs.len(), 4);
        assert_eq!(cs.into_sorted_positions(), vec![1, 3, 7]);

        let mut ranged = CandidateSet::new();
        ranged.push_range(5, 7);
        ranged.push_range(9, 9);
        ranged.push_range(3, 1); // empty interval
        assert_eq!(ranged.into_sorted_positions(), vec![5, 6, 7, 9]);

        assert_eq!(
            CandidateSet::dense(4).into_sorted_positions(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn runs_coalesce_overlapping_and_abutting_windows() {
        let mut cs = CandidateSet::new();
        cs.extend_from_slice(&[100, 8, 0, 3, 8]); // unsorted, duplicated
                                                  // len 5: 3 overlaps [0,5), 8 abuts [3,8), 100 starts a new run.
        assert_eq!(cs.runs(5), vec![(0, 8), (100, 100)]);
        // len 2: 3 > 0 + 2 splits everything.
        assert_eq!(cs.runs(2), vec![(0, 0), (3, 3), (8, 8), (100, 100)]);
    }

    #[test]
    fn runs_respect_the_span_cap() {
        let mut cs = CandidateSet::dense(MAX_RUN_SPAN + 904);
        let runs = cs.runs(1);
        assert_eq!(
            runs,
            vec![
                (0, MAX_RUN_SPAN as u32 - 1),
                (MAX_RUN_SPAN as u32, (MAX_RUN_SPAN + 903) as u32)
            ]
        );
        // A window longer than the cap still forms runs (the first window of
        // a run is always accepted), but a second one would exceed the span
        // cap, so each gets its own run.
        let mut wide = CandidateSet::new();
        wide.extend_from_slice(&[0, 1]);
        assert_eq!(wide.runs(MAX_RUN_SPAN + 10), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn pipeline_matches_naive_for_messy_candidate_sets() {
        let series: Vec<f64> = (0..600).map(|i| ((i % 23) as f64) * 0.25 - 2.0).collect();
        let query: Vec<f64> = series[40..90].to_vec();
        let candidate_lists: [&[u32]; 4] = [
            &[40],
            &[5, 5, 5, 40, 39, 41, 40],            // duplicates + overlaps
            &[550, 0, 63, 40, 86, 87, 88, 23, 40], // unsorted, adjacent windows
            &[],
        ];
        for epsilon in [0.0, 0.3, 1.0] {
            for cands in candidate_lists {
                let expected = naive(&series, &query, epsilon, cands);
                let pipeline = Pipeline::new(&query, epsilon);
                let mut cs = CandidateSet::new();
                cs.extend_from_slice(cands);
                let mut out = Vec::new();
                let report = pipeline
                    .verify_into(
                        &mut cs,
                        read_from(&series),
                        VerifyOptions::exhaustive(true),
                        &mut out,
                    )
                    .unwrap();
                assert_eq!(out, expected, "eps {epsilon}");
                assert_eq!(report.matches, expected.len());
                assert!(cs.is_empty(), "verify_into drains the set");
                assert!(report.runs <= report.verified);
            }
        }
    }

    #[test]
    fn disabling_coalescing_reads_each_window_individually() {
        // Model a per-range transforming store (the per-subsequence
        // z-normalising wrapper): the values a read returns depend on the
        // requested range, so windows sliced out of a longer run read would
        // differ from per-window reads.
        let series: Vec<f64> = (0..64).map(|i| f64::from(i) * 3.0 + 7.0).collect();
        let normalize = |buf: &mut [f64]| {
            let mean = buf.iter().sum::<f64>() / buf.len() as f64;
            let sd = (buf.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / buf.len() as f64)
                .sqrt();
            for v in buf.iter_mut() {
                *v = if sd > 0.0 { (*v - mean) / sd } else { 0.0 };
            }
        };
        let read = |start: usize, buf: &mut [f64]| -> Result<(), String> {
            buf.copy_from_slice(&series[start..start + buf.len()]);
            normalize(buf);
            Ok(())
        };
        // A linear ramp z-normalises to the same window everywhere, so every
        // candidate is a twin of the normalised query at epsilon 0 — but only
        // if each window was read (and therefore normalised) individually.
        let len = 8;
        let mut query = series[20..20 + len].to_vec();
        normalize(&mut query);
        let pipeline = Pipeline::new(&query, 1e-12);
        let candidates: &[u32] = &[0, 3, 10, 11, 12, 40];
        let mut cs = CandidateSet::new();
        cs.extend_from_slice(candidates);
        let mut out = Vec::new();
        let report = pipeline
            .verify_into(
                &mut cs,
                read,
                VerifyOptions::exhaustive(false).with_coalesce(false),
                &mut out,
            )
            .unwrap();
        assert_eq!(out, vec![0, 3, 10, 11, 12, 40]);
        assert_eq!(
            report.runs, report.verified,
            "no coalescing: one read per candidate window"
        );

        // Sanity-check the hazard is real: with coalescing the adjacent
        // candidates share a run read and the run-normalised windows no
        // longer match the per-window-normalised query.
        let mut cs = CandidateSet::new();
        cs.extend_from_slice(candidates);
        let mut coalesced = Vec::new();
        let report = pipeline
            .verify_into(
                &mut cs,
                read,
                VerifyOptions::exhaustive(false),
                &mut coalesced,
            )
            .unwrap();
        assert!(report.runs < report.verified);
        assert_ne!(coalesced, out, "run reads must not be sliced into windows");
    }

    /// The per-window normalising model store the rolling-norm tests verify
    /// against: reads return the requested range z-normalised over exactly
    /// that range (what `PerSubsequenceNormalized` does).
    fn normalize(buf: &mut [f64]) {
        let mean = buf.iter().sum::<f64>() / buf.len() as f64;
        let sd =
            (buf.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / buf.len() as f64).sqrt();
        for v in buf.iter_mut() {
            *v = if sd > 1e-12 {
                (*v - mean) / sd
            } else {
                *v - mean
            };
        }
    }

    #[test]
    fn rolling_norm_matches_per_window_normalised_reads() {
        // Raw reads + in-pipeline rolling z-normalisation must accept the
        // same positions as per-window normalised reads with coalescing off
        // — including candidate sets with adjacent overlapping windows and
        // a constant (std = 0) stretch.
        let mut series: Vec<f64> = (0..300)
            .map(|i| (f64::from(i) * 0.37).sin() * 5.0 + f64::from(i % 17))
            .collect();
        for v in &mut series[120..160] {
            *v = 42.0; // constant stretch: rolling std must hit exactly 0
        }
        let len = 16;
        let mut query = series[40..40 + len].to_vec();
        normalize(&mut query);
        let per_window_read = |start: usize, buf: &mut [f64]| -> Result<(), String> {
            buf.copy_from_slice(&series[start..start + buf.len()]);
            normalize(buf);
            Ok(())
        };
        let raw_read = |start: usize, buf: &mut [f64]| -> Result<(), String> {
            buf.copy_from_slice(&series[start..start + buf.len()]);
            Ok(())
        };
        let candidates: Vec<u32> = (0..280).step_by(3).chain(40..60).chain(118..162).collect();
        for epsilon in [0.05, 0.4, 1.1] {
            let pipeline = Pipeline::new(&query, epsilon);
            let mut cs = CandidateSet::new();
            cs.extend_from_slice(&candidates);
            let mut expected = Vec::new();
            pipeline
                .verify_into(
                    &mut cs,
                    per_window_read,
                    VerifyOptions::exhaustive(false).with_coalesce(false),
                    &mut expected,
                )
                .unwrap();
            let mut cs = CandidateSet::new();
            cs.extend_from_slice(&candidates);
            let mut got = Vec::new();
            let report = pipeline
                .verify_into(
                    &mut cs,
                    raw_read,
                    VerifyOptions::exhaustive(false).with_rolling_norm(true),
                    &mut got,
                )
                .unwrap();
            assert_eq!(got, expected, "eps {epsilon}");
            assert!(
                report.runs < report.verified,
                "rolling norm re-enables coalescing"
            );
        }
    }

    #[test]
    fn max_run_span_override_bounds_every_run() {
        // A store-advertised span cap (e.g. the block cache's) must bound
        // every coalesced run, and `runs_with_span` must agree with what
        // `verify_into` actually reads.
        let series = vec![0.0; 2000];
        let query = vec![0.0; 8];
        let pipeline = Pipeline::new(&query, 1.0);
        let mut cs = CandidateSet::dense(1000);
        let runs = cs.runs_with_span(8, 256);
        assert!(runs.len() > 1);
        for &(first, last) in &runs {
            assert!((last as usize + 8 - first as usize) <= 256);
        }
        let mut cs = CandidateSet::dense(1000);
        let mut out = Vec::new();
        let mut max_read = 0usize;
        let report = pipeline
            .verify_into(
                &mut cs,
                |start, buf: &mut [f64]| {
                    max_read = max_read.max(buf.len());
                    buf.copy_from_slice(&series[start..start + buf.len()]);
                    Ok::<(), String>(())
                },
                VerifyOptions::exhaustive(false).with_max_run_span(256),
                &mut out,
            )
            .unwrap();
        assert_eq!(report.runs, runs.len());
        assert!(max_read <= 256, "no run read may exceed the span override");
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn limit_stops_early_with_smallest_positions() {
        let series = vec![0.0; 100];
        let query = vec![0.0; 4];
        let pipeline = Pipeline::new(&query, 0.5);
        let mut cs = CandidateSet::new();
        cs.extend_from_slice(&[90, 10, 50, 30, 70]);
        let mut out = Vec::new();
        let report = pipeline
            .verify_into(
                &mut cs,
                read_from(&series),
                VerifyOptions {
                    limit: Some(2),
                    ..VerifyOptions::default()
                },
                &mut out,
            )
            .unwrap();
        assert_eq!(out, vec![10, 30], "limit keeps the smallest positions");
        assert_eq!(report.matches, 2);
        assert!(report.verified < 5, "the limit must stop the scan early");
        assert_eq!(report.verify_time, Duration::ZERO, "untimed run");
    }

    #[test]
    fn count_only_counts_without_recording() {
        let series = vec![1.0; 64];
        let query = vec![1.0; 8];
        let pipeline = Pipeline::new(&query, 0.1);
        let mut cs = CandidateSet::new();
        cs.extend_from_slice(&[0, 16, 32]);
        let mut out = Vec::new();
        let report = pipeline
            .verify_into(
                &mut cs,
                read_from(&series),
                VerifyOptions {
                    count_only: true,
                    ..VerifyOptions::default()
                },
                &mut out,
            )
            .unwrap();
        assert_eq!(report.matches, 3);
        assert!(out.is_empty());
    }

    #[test]
    fn read_errors_propagate_and_still_drain() {
        let series = vec![0.0; 10];
        let query = vec![0.0; 4];
        let pipeline = Pipeline::new(&query, 0.5);
        let mut cs = CandidateSet::new();
        cs.push(20); // past the end: the read closure must reject it
        let mut out = Vec::new();
        let err = pipeline
            .verify_into(
                &mut cs,
                read_from(&series),
                VerifyOptions::exhaustive(false),
                &mut out,
            )
            .unwrap_err();
        assert!(err.contains("past"), "{err}");
        assert!(cs.is_empty(), "the set is drained even on error");
    }

    #[test]
    fn scratch_buffers_are_reused_per_thread() {
        let ptr_of = |s: &Scratch| s.as_ptr() as usize;
        let first = Scratch::take(64);
        let addr = ptr_of(&first);
        drop(first);
        let second = Scratch::take(32);
        assert_eq!(
            ptr_of(&second),
            addr,
            "a pooled buffer with enough capacity must be reused"
        );
        assert_eq!(second.len(), 32);
        assert!(second.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn finish_outcome_saturates_the_filter_split() {
        // Regression for the ts-kv `query_time - filter_time` panic risk:
        // a verify time larger than the elapsed total (timer jitter) must
        // saturate to a zero filter time, never panic.
        let query = TwinQuery::new(vec![0.0; 4], 0.1).collect_stats();
        let stats = SearchStats {
            verify_time: Duration::from_secs(3600),
            ..SearchStats::default()
        };
        let outcome = finish_outcome("test", Instant::now(), &query, vec![1], 1, 1, stats);
        let s = outcome.stats.expect("stats requested");
        assert_eq!(s.filter_time, Duration::ZERO);
        assert_eq!(
            split_filter_time(Duration::from_millis(5), Duration::from_millis(2)),
            Duration::from_millis(3)
        );

        // Parallel outcomes keep the per-task filter attribution.
        let stats = SearchStats {
            filter_time: Duration::from_millis(7),
            verify_time: Duration::from_secs(3600),
            ..SearchStats::default()
        };
        let outcome = finish_outcome("test", Instant::now(), &query, vec![], 0, 4, stats);
        assert_eq!(outcome.stats.unwrap().filter_time, Duration::from_millis(7));

        // No stats requested → none attached.
        let plain = TwinQuery::new(vec![0.0; 4], 0.1);
        let outcome = finish_outcome("test", Instant::now(), &plain, vec![], 0, 1, stats);
        assert!(outcome.stats.is_none());
    }
}
