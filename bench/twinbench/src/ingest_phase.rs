//! The in-process ingest phase and the recovery cycles: appends beside
//! queries on a TS-Index tenant (index-maintenance bound), appends alone on
//! an iSAX tenant (WAL bound), a kill without `close()`, and recoveries on
//! fresh copies of what the kill left on disk.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use twin_search::{SeriesStore, Tenant, TenantRegistry, TwinQuery, WalConfig, WalSeries};

use crate::oracle::{check_answer, OracleSeries};
use crate::query_phase::Ops;
use crate::rig::{BoxError, Ctx, Rig, TS_TENANT};
use crate::rounds::{ReadRounds, ROUNDS};
use crate::spec::{CHUNK, GROWTH_SLICES, SLICES, WINDOW};
use crate::stats::{median, median_of_fastest, quiet_latency, quiet_rate};
use crate::trace::Recorder;

/// Every this-many-th live query is checked against the oracle.
const ORACLE_EVERY: usize = 50;
/// Probes whose answers must survive the kill unchanged.
const SURVIVOR_PROBES: usize = 5;
/// Recovery cycles, each on its own copy of the killed directory; the
/// fastest is reported (identical work, so the rule for repeatable work).
const RECOVERY_CYCLES: usize = 3;
/// Growth slice before which the one checkpoint is taken (after 2/3 of
/// the appends), so recovery replays a snapshot plus a log tail.
const CHECKPOINT_BEFORE_SLICE: usize = GROWTH_SLICES * 2 / 3;

#[derive(Debug, Default)]
pub struct IngestResult {
    /// Seconds per `Tenant::append` on the TS-Index tenant, per growth slice.
    pub ts_append_s: Vec<Vec<f64>>,
    /// `Tenant::execute` after every one of those appends (reads beside
    /// writes), ms, per growth slice.
    pub mixed_query_ms: Vec<Vec<f64>>,
    /// `Tenant::execute` of the read rounds on the grown tenant, ms:
    /// `read_ms[round][probe]`.  In the traced run round 0 is untraced.
    pub read_ms: Vec<Vec<f64>>,
    /// Seconds per `Tenant::append` on the iSAX tenant, per slice.
    pub isax_append_s: Vec<Vec<f64>>,
    pub checkpoint_s: f64,
    pub fsyncs_per_append: f64,
    pub log_bytes_per_point: f64,
    pub recovery_s: Vec<f64>,
    pub reopen_s: Vec<f64>,
    pub rebuild_s: Vec<f64>,
    pub replay_s: Vec<f64>,
}

impl IngestResult {
    pub fn ts_points_per_s(&self) -> f64 {
        quiet_rate(&self.ts_append_s, CHUNK as f64)
    }

    pub fn isax_points_per_s(&self) -> f64 {
        quiet_rate(&self.isax_append_s, CHUNK as f64)
    }

    /// Read latency on the incrementally grown tree: every probe's fastest
    /// execution, median over probes.
    pub fn live_query_ms(&self) -> f64 {
        median_of_fastest(&self.read_ms)
    }

    pub fn mixed_query_ms(&self) -> f64 {
        quiet_latency(&self.mixed_query_ms)
    }

    /// Median `Tenant::append` time on the TS-Index tenant, µs.
    pub fn ts_append_p50_us(&self) -> f64 {
        quiet_latency(&self.ts_append_s) * 1e6
    }

    /// Traced run only: the traced rounds against the untraced round 0.
    pub fn trace_overhead_pct(&self) -> f64 {
        let base = median(&self.read_ms[0]);
        100.0 * (median_of_fastest(&self.read_ms[1..]) - base) / base
    }
}

/// Checks a live answer against the oracle over the mirrored series.
fn check_against_mirror(
    ctx: &Ctx,
    mirror: &[f64],
    probe: usize,
    positions: &[usize],
) -> Result<(), String> {
    check_answer(
        OracleSeries::Plain(mirror),
        &ctx.raw[probe..probe + WINDOW],
        ctx.workload.serve_epsilon,
        positions,
    )
    .map_err(|e| format!("vs oracle: {e}"))
}

fn checked_append(
    tenant: &Tenant,
    chunk: &[f64],
    mirror: &mut Vec<f64>,
    what: &str,
) -> (Duration, Result<(), String>) {
    let started = Instant::now();
    let reply = tenant.append(chunk);
    let elapsed = started.elapsed();
    let verdict = match reply {
        Ok((len, _)) => {
            mirror.extend_from_slice(chunk);
            if len == mirror.len() {
                Ok(())
            } else {
                Err(format!(
                    "{what}: length {len} after the append, expected {}",
                    mirror.len()
                ))
            }
        }
        Err(e) => Err(format!("{what}: {e}")),
    };
    (elapsed, verdict)
}

/// Both tenants of the in-process registry as one resumable task.  Every
/// [`advance`](IngestPhase::advance) runs a slice of the iSAX appends; the
/// first [`GROWTH_SLICES`] also a slice of the TS-Index appends (one query
/// after each), the later ones a block of the read rounds: every read probe
/// [`ROUNDS`] times against the grown TS-Index tenant.
pub struct IngestPhase<'a> {
    ctx: &'a Ctx,
    ts_tenant: Arc<Tenant>,
    isax_tenant: Arc<Tenant>,
    stream: &'a [f64],
    probes: &'a [usize],
    read_probes: &'a [usize],
    read_rounds: ReadRounds<Vec<usize>>,
    ts_appends: usize,
    isax_appends: usize,
    slices_done: usize,
    ts_mirror: Vec<f64>,
    isax_mirror: Vec<f64>,
    result: IngestResult,
}

/// What the kill must not lose.
pub struct Acked {
    /// Every point the TS-Index tenant acknowledged.
    ts_series: Vec<f64>,
    /// Probes and their answers just before the kill.
    survivors: Vec<(usize, Vec<usize>)>,
}

impl<'a> IngestPhase<'a> {
    pub fn new(
        ctx: &'a Ctx,
        ts_tenant: Arc<Tenant>,
        isax_tenant: Arc<Tenant>,
        stream: &'a [f64],
        probes: &'a [usize],
        read_probes: &'a [usize],
    ) -> Self {
        IngestPhase {
            ctx,
            ts_tenant,
            isax_tenant,
            stream,
            probes,
            read_probes,
            read_rounds: ReadRounds::new(read_probes.len(), SLICES - GROWTH_SLICES),
            ts_appends: ctx.scaled(ctx.workload.ts_appends),
            isax_appends: ctx.scaled(ctx.workload.isax_appends),
            slices_done: 0,
            ts_mirror: ctx.base().to_vec(),
            isax_mirror: ctx.base().to_vec(),
            result: IngestResult {
                read_ms: vec![Vec::new(); ROUNDS],
                ..IngestResult::default()
            },
        }
    }

    fn probe_query(&self, probe: usize) -> TwinQuery {
        TwinQuery::new(
            self.ctx.raw[probe..probe + WINDOW].to_vec(),
            self.ctx.workload.serve_epsilon,
        )
    }

    pub fn advance(&mut self, recorder: Option<&mut Recorder>, ops: &mut Ops) {
        if self.slices_done >= SLICES {
            return;
        }
        let slice = self.slices_done;
        self.slices_done += 1;
        if slice < GROWTH_SLICES {
            self.growth_slice(slice, recorder, ops);
        } else {
            self.read_block(recorder, ops);
        }

        // iSAX tenant: appends only; the insert is cheap, the fsync is not.
        let mut append_s = Vec::new();
        for k in slice * self.isax_appends / SLICES..(slice + 1) * self.isax_appends / SLICES {
            let chunk = &self.stream[k * CHUNK..(k + 1) * CHUNK];
            let (elapsed, verdict) = checked_append(
                &self.isax_tenant,
                chunk,
                &mut self.isax_mirror,
                "isax append",
            );
            append_s.push(elapsed.as_secs_f64());
            ops.record(verdict);
        }
        self.result.isax_append_s.push(append_s);
    }

    /// One timed `Tenant::execute` with the probe-is-its-own-twin check;
    /// `traced` adds `collect_stats` and the spans.
    fn live_query(
        &self,
        label: String,
        probe: usize,
        recorder: Option<&mut Recorder>,
    ) -> (f64, Result<Vec<usize>, String>) {
        let query = match &recorder {
            Some(_) => self.probe_query(probe).collect_stats(),
            None => self.probe_query(probe),
        };
        let started = Instant::now();
        let reply = self.ts_tenant.execute(&query);
        let ended = Instant::now();
        let verdict = match reply {
            Ok(outcome) => {
                if let (Some(stats), Some(rec)) = (outcome.stats, recorder) {
                    let request = rec.request(label.clone());
                    let root = rec.measured(
                        request,
                        None,
                        "twin-search",
                        "Tenant::execute",
                        started,
                        ended,
                    );
                    rec.reported(
                        root,
                        &[
                            ("ts-index", "filter", stats.filter_time.as_nanos() as u64),
                            ("ts-core", "verify", stats.verify_time.as_nanos() as u64),
                        ],
                    );
                }
                if outcome.positions.binary_search(&probe).is_ok() {
                    Ok(outcome.positions)
                } else {
                    Err(format!(
                        "{label}: the probe's own window {probe} is missing"
                    ))
                }
            }
            Err(e) => Err(format!("{label}: {e}")),
        };
        ((ended - started).as_secs_f64() * 1e3, verdict)
    }

    /// TS-Index tenant: a slice of the appends, one query after each.
    fn growth_slice(&mut self, slice: usize, mut recorder: Option<&mut Recorder>, ops: &mut Ops) {
        if slice == CHECKPOINT_BEFORE_SLICE {
            let started = Instant::now();
            let covered = self.ts_tenant.checkpoint_now();
            self.result.checkpoint_s = started.elapsed().as_secs_f64();
            ops.record(match covered {
                Ok(Some(covered)) if covered == self.ts_mirror.len() => Ok(()),
                Ok(other) => Err(format!(
                    "checkpoint covered {other:?}, expected {}",
                    self.ts_mirror.len()
                )),
                Err(e) => Err(format!("checkpoint: {e}")),
            });
        }
        let (mut append_s, mut query_ms) = (Vec::new(), Vec::new());
        for k in
            slice * self.ts_appends / GROWTH_SLICES..(slice + 1) * self.ts_appends / GROWTH_SLICES
        {
            // Traced run: every other op carries spans, so the traced and
            // the untraced ops see the same growth.
            let mut op_recorder = recorder.as_deref_mut().filter(|_| k % 2 == 1);
            let chunk = &self.stream[k * CHUNK..(k + 1) * CHUNK];
            let before = op_recorder.is_some().then(|| self.ts_tenant.stats().ingest);
            let started = Instant::now();
            let (elapsed, verdict) = checked_append(
                &self.ts_tenant,
                chunk,
                &mut self.ts_mirror,
                "ts-index append",
            );
            append_s.push(elapsed.as_secs_f64());
            ops.record(verdict);
            if let (Some(before), Some(rec)) = (before, op_recorder.as_deref_mut()) {
                let after = self.ts_tenant.stats().ingest;
                let request = rec.request(format!("ingest/append/{k}"));
                let root = rec.measured(
                    request,
                    None,
                    "twin-search",
                    "Tenant::append",
                    started,
                    started + elapsed,
                );
                rec.reported(
                    root,
                    &[
                        (
                            "ts-ingest",
                            "wal append + fsync",
                            (after.store_time - before.store_time).as_nanos() as u64,
                        ),
                        (
                            "ts-index",
                            "on_append inserts",
                            (after.maintain_time - before.maintain_time).as_nanos() as u64,
                        ),
                    ],
                );
            }

            let probe = self.probes[k];
            let label = format!("ingest/query/{k}");
            let (ms, verdict) = self.live_query(label.clone(), probe, op_recorder);
            query_ms.push(ms);
            ops.record(verdict.and_then(|positions| {
                if k % ORACLE_EVERY == 0 {
                    check_against_mirror(self.ctx, &self.ts_mirror, probe, &positions)
                        .map_err(|e| format!("{label} {e}"))
                } else {
                    Ok(())
                }
            }));
        }
        self.result.ts_append_s.push(append_s);
        self.result.mixed_query_ms.push(query_ms);
    }

    /// TS-Index tenant, grown: the next block of the read rounds.  Traced
    /// run: round 0 stays untraced, the overhead baseline.
    fn read_block(&mut self, mut recorder: Option<&mut Recorder>, ops: &mut Ops) {
        let Some((round, block)) = self.read_rounds.next_block() else {
            return;
        };
        for i in block {
            let probe = self.read_probes[i];
            let label = format!("ingest/read/r{round}/{i}");
            let op_recorder = recorder.as_deref_mut().filter(|_| round > 0);
            let (ms, verdict) = self.live_query(label.clone(), probe, op_recorder);
            self.result.read_ms[round].push(ms);
            let (ctx, mirror) = (self.ctx, &self.ts_mirror);
            let verdict = verdict.and_then(|positions| {
                self.read_rounds.settle(i, positions, |first| {
                    if i % ORACLE_EVERY == 0 {
                        check_against_mirror(ctx, mirror, probe, first)
                    } else {
                        Ok(())
                    }
                })
            });
            ops.record(verdict.map_err(|e| format!("{label} {e}")));
        }
    }

    /// Reads the exact ingest counts, hands over the answers the kill must
    /// preserve (the read rounds' first probes), and lets go of both tenants.
    pub fn finish(mut self) -> (IngestResult, Acked) {
        let wal = self.isax_tenant.stats().wal;
        self.result.fsyncs_per_append = wal.fsyncs as f64 / wal.appends.max(1) as f64;
        let log = self.isax_tenant.log_path();
        let file_bytes = |path: &Path| std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        self.result.log_bytes_per_point =
            (file_bytes(log) + file_bytes(&twin_search::snapshot_path_for(log))) as f64
                / self.isax_mirror.len() as f64;
        let survivors = self
            .read_probes
            .iter()
            .zip(self.read_rounds.answers())
            .take(SURVIVOR_PROBES)
            .filter_map(|(&probe, answer)| Some((probe, answer?.clone())))
            .collect();
        (
            self.result,
            Acked {
                ts_series: self.ts_mirror,
                survivors,
            },
        )
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Kills the registry (dropped without `close()` or a final checkpoint),
/// then recovers on copies: each cycle starts from exactly the bytes the
/// kill left, not from what an earlier cycle rewrote.
pub fn recover(
    ctx: &Ctx,
    rig: &mut Rig,
    acked: &Acked,
    result: &mut IngestResult,
    mut recorder: Option<&mut Recorder>,
    ops: &mut Ops,
) -> Result<(), BoxError> {
    let probe_query = |probe: usize| {
        TwinQuery::new(
            ctx.raw[probe..probe + WINDOW].to_vec(),
            ctx.workload.serve_epsilon,
        )
    };
    let (first_probe, first_answer) = acked
        .survivors
        .first()
        .ok_or("no probe was answered before the kill")?;
    rig.kill_registry();
    for cycle in 0..RECOVERY_CYCLES {
        let copy = rig.dir.join(format!("recovery-{cycle}"));
        copy_dir(&rig.ingest_dir, &copy)?;

        let started = Instant::now();
        let wal = WalSeries::open(
            copy.join(format!("{TS_TENANT}.tslog")),
            WalConfig::default(),
        );
        result.replay_s.push(started.elapsed().as_secs_f64());
        ops.record(match wal {
            Ok(wal) if wal.len() == acked.ts_series.len() => Ok(()),
            Ok(wal) => Err(format!(
                "replay {cycle}: {} points, expected {}",
                wal.len(),
                acked.ts_series.len()
            )),
            Err(e) => Err(format!("replay {cycle}: {e}")),
        });

        let first_query = probe_query(*first_probe);
        let started = Instant::now();
        let registry = TenantRegistry::open(&copy)?;
        let tenant = registry.get(TS_TENANT)?;
        let reopened = Instant::now();
        let reply = tenant.execute(&first_query);
        let ended = Instant::now();
        result.recovery_s.push((ended - started).as_secs_f64());
        result.reopen_s.push((reopened - started).as_secs_f64());
        result.rebuild_s.push((ended - reopened).as_secs_f64());
        if let Some(rec) = recorder.as_deref_mut() {
            let request = rec.request(format!("recovery/{cycle}"));
            let root = rec.measured(request, None, "twin-search", "recovery", started, ended);
            rec.measured(
                request,
                Some(root),
                "ts-ingest",
                "TenantRegistry::open + get",
                started,
                reopened,
            );
            rec.measured(
                request,
                Some(root),
                "ts-index",
                "first query (index rebuild)",
                reopened,
                ended,
            );
        }
        ops.record(match reply {
            Ok(outcome) if outcome.positions == *first_answer => Ok(()),
            Ok(_) => Err(format!(
                "recovery {cycle}: first answer differs from the one before the kill"
            )),
            Err(e) => Err(format!("recovery {cycle}: first query: {e}")),
        });

        // Every acknowledged point, bit for bit, and the other probes.
        ops.record(match tenant.read(0, tenant.len()) {
            Ok(values)
                if values.len() == acked.ts_series.len()
                    && values.iter().zip(&acked.ts_series).all(|(a, b)| a.to_bits() == b.to_bits()) =>
            {
                Ok(())
            }
            Ok(values) => Err(format!(
                "recovery {cycle}: recovered series ({} points) differs from the acknowledged one ({})",
                values.len(),
                acked.ts_series.len()
            )),
            Err(e) => Err(format!("recovery {cycle}: read: {e}")),
        });
        for (probe, answer) in &acked.survivors[1..] {
            ops.record(match tenant.execute(&probe_query(*probe)) {
                Ok(outcome) if outcome.positions == *answer => Ok(()),
                Ok(_) => Err(format!(
                    "recovery {cycle}: probe {probe} answers differently after the kill"
                )),
                Err(e) => Err(format!("recovery {cycle}: probe {probe}: {e}")),
            });
        }
        drop(tenant);
        drop(registry);
        let _ = std::fs::remove_dir_all(&copy);
    }
    Ok(())
}
