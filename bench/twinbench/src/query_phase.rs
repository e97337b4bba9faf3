//! The query phase: every engine answers the same seeded queries, methods
//! interleaved inside a round so a noisy second hits all of them alike.

use std::time::{Duration, Instant};

use ts_core::obs;
use twin_search::{Method, Normalization, SearchStats, TwinQuery};

use crate::oracle::{check_answer, whole_series_normalized, OracleSeries};
use crate::rig::{Ctx, Lane, Regime};
use crate::rounds::{Rounds, ROUNDS};
use crate::spec::{method_crate, SLICES};
use crate::stats::{median, median_of_fastest};
use crate::trace::Recorder;

/// Queries per regime checked against the brute-force oracle.
const ORACLE_QUERIES: usize = 20;

/// Attempted and failed operations of a run; a wrong answer, an error
/// reply or a refused request is a failed operation.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(what) = outcome {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("twinbench: failed op: {what}");
            }
        }
    }
}

/// What the traced rounds add up for one lane.
#[derive(Debug, Default, Clone)]
pub struct LaneTrace {
    pub queries: u64,
    pub matches: u64,
    pub stats: SearchStats,
    pub wall: Duration,
    pub runs: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

#[derive(Debug)]
pub struct LaneResult {
    pub method: Method,
    /// Per-query latency in ms, one vector per untraced measured round.
    pub rounds: Vec<Vec<f64>>,
    /// Same for the traced rounds.
    pub traced_rounds: Vec<Vec<f64>>,
    pub trace: LaneTrace,
}

impl LaneResult {
    pub fn query_ms(&self) -> f64 {
        median_of_fastest(&self.rounds)
    }
}

#[derive(Debug)]
pub struct QueryResult {
    pub lanes: Vec<LaneResult>,
    pub index_bytes: usize,
}

impl QueryResult {
    /// Tracing overhead of the phase: traced over untraced median latency,
    /// averaged over lanes, in percent.
    pub fn trace_overhead_pct(&self) -> f64 {
        let shares: Vec<f64> = self
            .lanes
            .iter()
            .filter(|l| !l.traced_rounds.is_empty())
            .map(|l| {
                let base = l.query_ms();
                100.0 * (median_of_fastest(&l.traced_rounds) - base) / base
            })
            .collect();
        if shares.is_empty() {
            0.0
        } else {
            crate::stats::mean(&shares)
        }
    }
}

fn fingerprint(positions: &[usize]) -> (usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &p in positions {
        hash = (hash ^ p as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (positions.len(), hash)
}

struct Counters {
    runs: &'static obs::Counter,
    hits: &'static obs::Counter,
    misses: &'static obs::Counter,
}

impl Counters {
    fn resolve() -> Self {
        Counters {
            runs: obs::counter("twin_verify_runs_coalesced_total", &[]),
            hits: obs::counter("twin_block_cache_hits_total", &[]),
            misses: obs::counter("twin_block_cache_misses_total", &[]),
        }
    }

    fn read(&self) -> (u64, u64, u64) {
        (self.runs.get(), self.hits.get(), self.misses.get())
    }
}

/// The phase as a resumable task: the warm-up round runs in [`new`], then
/// every [`advance`] runs the next block of the measured rounds, so the
/// run can lay the blocks out between the slices of the other phases.
///
/// [`new`]: QueryPhase::new
/// [`advance`]: QueryPhase::advance
pub struct QueryPhase<'a> {
    lanes: &'a [Lane],
    regimes: &'a [Regime],
    /// `(positions, hash)` of every query's answer, per regime, as the
    /// warm-up round returned it.
    expected: Vec<Vec<(usize, u64)>>,
    /// The same queries with `collect_stats` on (traced run only).
    stats_queries: Vec<Vec<TwinQuery>>,
    counters: Counters,
    /// Which of the measured rounds run traced.
    traced_rounds: Vec<bool>,
    plan: Rounds,
    /// Per lane, per measured round: per-query latency in ms.
    latencies: Vec<Vec<Vec<f64>>>,
    traces: Vec<LaneTrace>,
}

impl<'a> QueryPhase<'a> {
    /// Runs the warm-up round, discarded: it fills caches and fixes the
    /// expected answer of every query.  All lanes of a regime must return
    /// identical position lists; the first queries are also checked against
    /// the brute-force oracle.
    pub fn new(ctx: &Ctx, lanes: &'a [Lane], regimes: &'a [Regime], ops: &mut Ops) -> Self {
        let query_count = regimes[0].queries.len();
        let normalized = whole_series_normalized(&ctx.raw);
        let oracles: Vec<OracleSeries> = regimes
            .iter()
            .map(|r| match r.normalization {
                Normalization::None => OracleSeries::Plain(&ctx.raw),
                Normalization::WholeSeries => OracleSeries::Plain(&normalized),
                Normalization::PerSubsequence => OracleSeries::PerWindow(&ctx.raw),
            })
            .collect();
        let mut expected: Vec<Vec<(usize, u64)>> = regimes
            .iter()
            .map(|r| Vec::with_capacity(r.queries.len()))
            .collect();
        for qi in 0..query_count {
            let mut reference: Vec<Option<Vec<usize>>> = vec![None; regimes.len()];
            for lane in lanes {
                let regime = &regimes[lane.regime];
                let query = &regime.queries[qi];
                let outcome = match lane.engine.execute(query) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        ops.record(Err(format!("{} query {qi}: {e}", lane.method.label())));
                        continue;
                    }
                };
                let verdict = match &reference[lane.regime] {
                    None => {
                        let checked = if qi < ORACLE_QUERIES {
                            check_answer(
                                oracles[lane.regime],
                                query.values(),
                                regime.epsilon,
                                &outcome.positions,
                            )
                            .map_err(|e| {
                                format!("{} query {qi} vs oracle: {e}", lane.method.label())
                            })
                        } else {
                            Ok(())
                        };
                        expected[lane.regime].push(fingerprint(&outcome.positions));
                        reference[lane.regime] = Some(outcome.positions);
                        checked
                    }
                    Some(first) if *first == outcome.positions => Ok(()),
                    Some(first) => Err(format!(
                        "{} query {qi}: {} positions, the regime's first method returned {}",
                        lane.method.label(),
                        outcome.positions.len(),
                        first.len()
                    )),
                };
                ops.record(verdict);
            }
            for (regime, reference) in reference.iter().enumerate() {
                if reference.is_none() {
                    // Every lane of the regime failed: keep the indices aligned.
                    expected[regime].push((usize::MAX, 0));
                }
            }
        }

        // Traced run: one untraced round (the overhead baseline), the rest
        // with `collect_stats` and spans.
        let traced_rounds: Vec<bool> = (0..ROUNDS).map(|r| ctx.traced && r > 0).collect();
        let stats_queries = if ctx.traced {
            regimes
                .iter()
                .map(|r| {
                    r.queries
                        .iter()
                        .map(|q| q.clone().collect_stats())
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        QueryPhase {
            lanes,
            regimes,
            expected,
            stats_queries,
            counters: Counters::resolve(),
            traced_rounds,
            plan: Rounds::new(query_count, SLICES),
            latencies: vec![vec![Vec::new(); ROUNDS]; lanes.len()],
            traces: vec![LaneTrace::default(); lanes.len()],
        }
    }

    /// Runs the next block of the measured rounds: every query of the
    /// block on every lane, lanes interleaved.
    pub fn advance(&mut self, mut recorder: Option<&mut Recorder>, ops: &mut Ops) {
        let Some((round, block)) = self.plan.next_block() else {
            return;
        };
        let traced_round = self.traced_rounds[round];
        for qi in block {
            for (li, lane) in self.lanes.iter().enumerate() {
                let query = if traced_round {
                    &self.stats_queries[lane.regime][qi]
                } else {
                    &self.regimes[lane.regime].queries[qi]
                };
                let before = traced_round.then(|| self.counters.read());
                let started = Instant::now();
                let outcome = lane.engine.execute(query);
                let ended = Instant::now();
                let wall = ended - started;
                self.latencies[li][round].push(wall.as_secs_f64() * 1e3);
                let outcome = match outcome {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        ops.record(Err(format!("{} query {qi}: {e}", lane.method.label())));
                        continue;
                    }
                };
                ops.record(
                    if fingerprint(&outcome.positions) == self.expected[lane.regime][qi] {
                        Ok(())
                    } else {
                        Err(format!(
                            "{} query {qi} round {round}: answer differs from the warm-up round's",
                            lane.method.label()
                        ))
                    },
                );
                if let (Some((runs, hits, misses)), Some(stats)) = (before, outcome.stats) {
                    let after = self.counters.read();
                    let trace = &mut self.traces[li];
                    trace.queries += 1;
                    trace.matches += outcome.match_count as u64;
                    trace.stats.merge(stats);
                    trace.wall += wall;
                    trace.runs += after.0 - runs;
                    trace.cache_hits += after.1 - hits;
                    trace.cache_misses += after.2 - misses;
                    if let Some(rec) = recorder.as_deref_mut() {
                        let request =
                            rec.request(format!("query/r{round}/q{qi}/{}", lane.method.label()));
                        let root = rec.measured(
                            request,
                            None,
                            "twin-search",
                            "Engine::execute",
                            started,
                            ended,
                        );
                        rec.reported(
                            root,
                            &[
                                (
                                    method_crate(lane.method),
                                    "filter",
                                    stats.filter_time.as_nanos() as u64,
                                ),
                                ("ts-core", "verify", stats.verify_time.as_nanos() as u64),
                            ],
                        );
                    }
                }
            }
        }
    }

    pub fn finish(self) -> QueryResult {
        let traced_rounds = self.traced_rounds;
        let lanes = self
            .lanes
            .iter()
            .zip(self.latencies)
            .zip(self.traces)
            .map(|((lane, rounds), trace)| {
                let (traced, untraced): (Vec<_>, Vec<_>) = rounds
                    .into_iter()
                    .zip(&traced_rounds)
                    .partition(|(_, traced)| **traced);
                LaneResult {
                    method: lane.method,
                    rounds: untraced.into_iter().map(|(r, _)| r).collect(),
                    traced_rounds: traced.into_iter().map(|(r, _)| r).collect(),
                    trace,
                }
            })
            .collect();
        QueryResult {
            index_bytes: self
                .lanes
                .iter()
                .map(|l| l.engine.index_memory_bytes())
                .sum(),
            lanes,
        }
    }
}

/// Human-readable lines of the phase: per lane the reported median, the
/// spread of the round medians and the sample count.
pub fn describe(result: &QueryResult) -> String {
    let mut out = String::new();
    for lane in &result.lanes {
        let medians: Vec<f64> = lane.rounds.iter().map(|r| median(r)).collect();
        let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = medians.iter().copied().fold(0.0, f64::max);
        out.push_str(&format!(
            "  {:<10} {} rounds x {} queries; round medians {:.4} .. {:.4} ms\n",
            lane.method.label(),
            lane.rounds.len(),
            lane.rounds.first().map_or(0, Vec::len),
            lo,
            hi
        ));
    }
    out
}
