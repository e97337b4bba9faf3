//! One run of one workload: set-up, the four phases, the metric tables.
//!
//! The untraced run measures the end-to-end metrics and nothing else (no
//! `collect_stats`, no daemon tracing, no spans).  The traced run repeats
//! the phases with statistics and spans on, adds the direct per-layer
//! measurements, and writes the trace file.

use std::time::Instant;

use twin_search::Method;

use crate::ingest_phase::{self, IngestPhase, IngestResult};
use crate::inputs;
use crate::layers::{self, LayerResult};
use crate::query_phase::{self, LaneResult, Ops, QueryPhase, QueryResult};
use crate::rig::{BoxError, Ctx, Daemon, Rig};
use crate::serve_phase::{self, ServePhase, ServePlan, ServeResult};
use crate::spec::{self, Probe, CHUNK, END_TO_END, GROWTH_SLICES, SLICES, TCP_EVERY};
use crate::stats::{median, tail};
use crate::trace::{Attribution, Recorder};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Debug)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable account of the run (sample counts, tails, timings).
    pub notes: String,
    /// Contents of the trace file (traced run only).
    pub trace_json: Option<String>,
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn lane(result: &QueryResult, method: Method) -> &LaneResult {
    result
        .lanes
        .iter()
        .find(|l| l.method == method)
        .expect("every workload runs all four methods")
}

pub fn run(ctx: &Ctx) -> Result<RunOutput, BoxError> {
    let w = ctx.workload;
    let mut ops = Ops::default();
    let mut notes = String::new();
    let mut recorder = ctx.traced.then(Recorder::new);

    // Set-up, repeated in the untraced run so `setup_s` is a median.
    let setups = if ctx.traced { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut rig = None;
    for attempt in 0..setups {
        if let Some(previous) = rig.take() {
            Rig::teardown(previous);
        }
        let built = Rig::build(ctx, &format!("setup-{attempt}"))?;
        setup_s.push(built.times.total.as_secs_f64());
        rig = Some(built);
    }
    let mut rig = rig.expect("at least one set-up");
    notes.push_str(&format!("set-ups: {setup_s:.3?} s\n"));

    let unix_ops = ctx.scaled(w.unix_ops);
    let chunks = unix_ops
        .max(ctx.scaled(w.ts_appends))
        .max(ctx.scaled(w.isax_appends))
        .max(512);
    let stream = inputs::append_stream(w, ctx.seed, chunks);
    let probes = inputs::probe_positions(w, ctx.seed, unix_ops.max(ctx.scaled(w.ts_appends)));
    let read_probes = inputs::read_probe_positions(w, ctx.seed, ctx.scaled(w.read_probes));

    // The traced run sends the unix ops to two daemons: one without tracing
    // (the baseline the overhead is taken against, and the 2-client
    // throughput afterwards) and the tracing one.
    let mut plain = if ctx.traced {
        Some(Daemon::start(
            ctx,
            &rig.dir.join("unix-plain"),
            true,
            false,
        )?)
    } else {
        None
    };

    let started = Instant::now();
    let mut query_phase = QueryPhase::new(ctx, &rig.lanes, &rig.regimes, &mut ops);
    notes.push_str(&format!(
        "warm-up round {:.2} s\n",
        started.elapsed().as_secs_f64()
    ));
    let unix_plan = ServePlan {
        mixed_ops: unix_ops,
        growth_slices: GROWTH_SLICES,
        read_probes: &read_probes,
        read_slices: SLICES - GROWTH_SLICES,
    };
    // The TCP daemon only runs the mixed ops: today every round trip is
    // the same 88 ms timer, whatever the tenant holds.
    let tcp_plan = ServePlan {
        mixed_ops: ctx.scaled(w.tcp_ops),
        growth_slices: SLICES / TCP_EVERY,
        read_probes: &[],
        read_slices: 0,
    };
    let mut unix_phase = ServePhase::new(ctx, &mut rig.unix, "unix", unix_plan, &stream, &probes);
    let mut plain_phase = plain
        .as_mut()
        .map(|daemon| ServePhase::new(ctx, daemon, "unix", unix_plan, &stream, &probes));
    let mut tcp_phase = ServePhase::new(ctx, &mut rig.tcp, "tcp", tcp_plan, &stream, &probes);
    let mut ingest_phase = IngestPhase::new(
        ctx,
        rig.ts_tenant.clone().expect("not killed yet"),
        rig.isax_tenant.clone().expect("not killed yet"),
        &stream,
        &probes,
        &read_probes,
    );

    // Slice 1 of every phase, then slice 2 of every phase, ...: a noisy
    // second costs each metric one slice, not one metric its whole phase.
    let started = Instant::now();
    for slice in 0..SLICES {
        query_phase.advance(recorder.as_mut(), &mut ops);
        if let Some(phase) = plain_phase.as_mut() {
            phase.advance(None, &mut ops);
        }
        unix_phase.advance(recorder.as_mut(), &mut ops);
        if slice % TCP_EVERY == 0 {
            tcp_phase.advance(recorder.as_mut(), &mut ops);
        }
        ingest_phase.advance(recorder.as_mut(), &mut ops);
    }
    notes.push_str(&format!(
        "{SLICES} slices {:.2} s\n",
        started.elapsed().as_secs_f64()
    ));
    let queries = query_phase.finish();
    notes.push_str(&query_phase::describe(&queries));
    let unix_traced = unix_phase.finish();
    let tcp = tcp_phase.finish();
    let (mut ingest, acked) = ingest_phase.finish();
    // In the traced run `unix` is the untraced baseline daemon's result.
    let (unix, unix_traced) = match plain_phase {
        Some(phase) => (phase.finish(), Some(unix_traced)),
        None => (unix_traced, None),
    };
    let two_clients_per_s = match plain.as_mut() {
        Some(daemon) => {
            let endpoint = daemon
                .handle
                .as_ref()
                .expect("still running")
                .endpoint()
                .clone();
            let rate =
                serve_phase::two_clients(ctx, &endpoint, unix_ops / 4, &stream, &probes, &mut ops);
            daemon.kill();
            rate
        }
        None => 0.0,
    };
    rig.unix.kill();
    rig.tcp.kill();

    let layer_results = if ctx.traced {
        Some(layers::run(ctx, &rig, &stream, &mut ops)?)
    } else {
        None
    };

    let started = Instant::now();
    ingest_phase::recover(
        ctx,
        &mut rig,
        &acked,
        &mut ingest,
        recorder.as_mut(),
        &mut ops,
    )?;
    notes.push_str(&format!(
        "recovery cycles {:.2} s: {:.3?} s\n",
        started.elapsed().as_secs_f64(),
        ingest.recovery_s
    ));

    for (what, slices) in [
        ("serve_query_ms.unix (read rounds)", &unix.read_ms),
        ("unix queries beside appends", &unix.mixed_query_ms),
        ("serve_append_ms.unix", &unix.append_ms),
        ("serve_query_ms.tcp", &tcp.mixed_query_ms),
        ("live_query_ms (read rounds)", &ingest.read_ms),
        ("live queries beside appends", &ingest.mixed_query_ms),
    ] {
        let samples = slices.concat();
        let medians: Vec<String> = slices
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| format!("{:.3}", median(s)))
            .collect();
        notes.push_str(&format!(
            "{what}: {} samples, pooled p50 {:.4}, tail {:.4} (p{}); medians per slice or round: {}\n",
            samples.len(),
            median(&samples),
            tail(&samples),
            crate::stats::highest_supported_percentile(samples.len()).map_or("max".into(), |p| p.to_string()),
            medians.join(" "),
        ));
    }

    let (metrics, trace_json) = match (&recorder, &layer_results) {
        (Some(recorder), Some(layer_results)) => {
            let attribution = recorder.attribution();
            let metrics = per_layer_metrics(
                &rig,
                &queries,
                &unix,
                unix_traced.as_ref().expect("traced run"),
                two_clients_per_s,
                &tcp,
                &ingest,
                layer_results,
                &attribution,
            );
            let json = trace_json(ctx, &metrics, recorder, &attribution);
            (metrics, Some(json))
        }
        _ => (
            end_to_end_metrics(median(&setup_s), &queries, &unix, &tcp, &ingest),
            None,
        ),
    };
    Rig::teardown(rig);
    Ok(RunOutput {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        notes,
        trace_json,
    })
}

fn end_to_end_metrics(
    setup_s: f64,
    queries: &QueryResult,
    unix: &ServeResult,
    tcp: &ServeResult,
    ingest: &IngestResult,
) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => setup_s,
                "query_ms.sweepline" => lane(queries, Method::Sweepline).query_ms(),
                "query_ms.kv-index" => lane(queries, Method::KvIndex).query_ms(),
                "query_ms.isax" => lane(queries, Method::Isax).query_ms(),
                "query_ms.ts-index" => lane(queries, Method::TsIndex).query_ms(),
                "index_bytes" => queries.index_bytes as f64,
                "serve_query_ms.unix" => unix.query_ms(),
                "serve_query_ms.tcp" => tcp.query_ms(),
                "serve_append_ms.unix" => unix.append_ms(),
                "append_points_per_s.ts-index" => ingest.ts_points_per_s(),
                "live_query_ms" => ingest.live_query_ms(),
                "recovery_s" => fastest(&ingest.recovery_s),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            Metric {
                name: m.name.to_string(),
                unit: m.unit,
                value,
            }
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn per_layer_metrics(
    rig: &Rig,
    queries: &QueryResult,
    unix: &ServeResult,
    unix_traced: &ServeResult,
    two_clients_per_s: f64,
    tcp: &ServeResult,
    ingest: &IngestResult,
    layers: &LayerResult,
    attribution: &Attribution,
) -> Vec<Metric> {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (hits, misses) = queries.lanes.iter().fold((0u64, 0u64), |(h, m), l| {
        (h + l.trace.cache_hits, m + l.trace.cache_misses)
    });
    let live_ms = ingest.live_query_ms();
    let serve_overhead_pct = {
        let base = unix.query_ms();
        100.0 * (unix_traced.query_ms() - base) / base
    };
    let server_execute: Vec<f64> = unix_traced
        .server_execute_ms
        .iter()
        .chain(&tcp.server_execute_ms)
        .copied()
        .collect();

    let lane_trace = |method: Method| &lane(queries, method).trace;
    let engine = |method: Method| {
        &rig.lanes
            .iter()
            .find(|l| l.method == method)
            .expect("every workload builds all four methods")
            .engine
    };
    let per_query = |method: Method, total: f64| ratio(total, lane_trace(method).queries as f64);

    spec::per_layer()
        .into_iter()
        .map(|m| {
            let value = match m.probe {
                Probe::GenerateS => rig.times.generate.as_secs_f64(),
                Probe::PrepareS => rig.times.prepare.as_secs_f64(),
                Probe::BuildS(method) => engine(method).build_time().as_secs_f64(),
                Probe::IndexBytes(method) => engine(method).index_memory_bytes() as f64,
                Probe::FilterMs(method) => per_query(
                    method,
                    lane_trace(method).stats.filter_time.as_secs_f64() * 1e3,
                ),
                Probe::NodesVisited(method) => {
                    per_query(method, lane_trace(method).stats.nodes_visited as f64)
                }
                Probe::PruneRatio(method) => {
                    let stats = &lane_trace(method).stats;
                    ratio(stats.nodes_pruned as f64, stats.nodes_visited as f64)
                }
                Probe::CandidatesPerQuery(method) => {
                    per_query(method, lane_trace(method).stats.candidates_generated as f64)
                }
                Probe::CandidatesPerMatch(method) => {
                    let t = lane_trace(method);
                    ratio(t.stats.candidates_generated as f64, t.matches as f64)
                }
                Probe::VerifyMs(method) => per_query(
                    method,
                    lane_trace(method).stats.verify_time.as_secs_f64() * 1e3,
                ),
                Probe::VerifiedPerQuery(method) => {
                    per_query(method, lane_trace(method).stats.candidates_verified as f64)
                }
                Probe::RunsPerQuery(method) => per_query(method, lane_trace(method).runs as f64),
                Probe::PhysicalReadsPerQuery(method) => {
                    per_query(method, lane_trace(method).cache_misses as f64)
                }
                Probe::DispatchUs(method) => {
                    let t = lane_trace(method);
                    let inside = t.stats.filter_time + t.stats.verify_time;
                    per_query(method, t.wall.saturating_sub(inside).as_secs_f64() * 1e6)
                }
                Probe::QueryTailMs(method) => {
                    let l = lane(queries, method);
                    let all: Vec<f64> = l
                        .rounds
                        .iter()
                        .chain(&l.traced_rounds)
                        .flatten()
                        .copied()
                        .collect();
                    tail(&all)
                }
                Probe::InsertUsPerWindow => {
                    (ingest.ts_append_p50_us() - layers.wal_append_us) / CHUNK as f64
                }
                Probe::VerifyNsPerCandidate => layers.verify_ns_per_candidate,
                Probe::ReadSeqNsPerValue => layers.read_seq_ns_per_value,
                Probe::ReadRandNsPerValue => layers.read_rand_ns_per_value,
                Probe::CacheHitRatio => ratio(hits as f64, (hits + misses) as f64),
                Probe::ReopenS => fastest(&ingest.reopen_s),
                Probe::RebuildS => fastest(&ingest.rebuild_s),
                Probe::WalAppendUs => layers.wal_append_us,
                Probe::IsaxAppendPointsPerS => ingest.isax_points_per_s(),
                Probe::FsyncsPerAppend => ingest.fsyncs_per_append,
                Probe::LogBytesPerPoint => ingest.log_bytes_per_point,
                Probe::CheckpointS => ingest.checkpoint_s,
                Probe::ReplayS => fastest(&ingest.replay_s),
                Probe::CodecUs => layers.codec_us,
                Probe::ServeOverheadUnixMs => unix.query_ms() - live_ms,
                Probe::ServeOverheadTcpMs => tcp.query_ms() - live_ms,
                Probe::MixedQueryUnixMs => unix.mixed_query_ms(),
                Probe::MixedLiveQueryMs => ingest.mixed_query_ms(),
                Probe::AdmissionWaitMs => unix.admission_wait_ms,
                Probe::ServerExecuteMs => median(&server_execute),
                Probe::ServeAppendTcpMs => tcp.append_ms(),
                Probe::TwoClientOpsPerS => two_clients_per_s,
                Probe::BatchSpeedup => layers.batch_speedup,
                Probe::TraceOverheadPct("query") => queries.trace_overhead_pct(),
                Probe::TraceOverheadPct("serve") => serve_overhead_pct,
                Probe::TraceOverheadPct("ingest") => ingest.trace_overhead_pct(),
                Probe::TraceOverheadPct(phase) => unreachable!("no traced phase named {phase}"),
                Probe::UnattributedPct => attribution.unattributed_pct(),
            };
            Metric {
                name: m.name,
                unit: m.unit,
                value,
            }
        })
        .collect()
}

fn trace_json(
    ctx: &Ctx,
    metrics: &[Metric],
    recorder: &Recorder,
    attribution: &Attribution,
) -> String {
    let metric_lines: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let layer_lines: Vec<String> = attribution
        .self_ns
        .iter()
        .map(|(layer, ns)| format!("    \"{layer}\": {}", *ns as f64 / 1e6))
        .collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"per_layer\": {{\n{}\n  }},\n  \"requests_wall_ms\": {},\n  \"layer_self_ms\": {{\n{}\n  }},\n  \"unattributed_pct\": {},\n  \"worst_request_unattributed_pct\": {},\n  \"spans\": {}\n}}\n",
        ctx.workload.name,
        ctx.seed,
        metric_lines.join(",\n"),
        attribution.wall_ns as f64 / 1e6,
        layer_lines.join(",\n"),
        attribution.unattributed_pct(),
        attribution.worst_request_share * 100.0,
        recorder.spans_json(),
    )
}
