//! The serve phases: one closed-loop client against a daemon, all on the
//! TS-Index tenant so no latency is a median over a mixture of tenants.
//! First the tenant grows under three queries per 64-point append, then the
//! read rounds run against the grown tenant.

use std::time::Instant;

use ts_serve::{Client, Endpoint, QuerySpec};

use crate::oracle::{check_answer, OracleSeries};
use crate::query_phase::Ops;
use crate::rig::{Ctx, Daemon, TS_TENANT};
use crate::rounds::{ReadRounds, ROUNDS};
use crate::spec::{CHUNK, WINDOW};
use crate::stats::{median_of_fastest, quiet_latency};
use crate::trace::Recorder;

/// Every this-many-th served query is checked against the oracle over the
/// mirrored series; every query must at least contain its own probe.
const ORACLE_EVERY: usize = 50;

#[derive(Debug, Default)]
pub struct ServeResult {
    /// Round trips of the read rounds on the grown tenant, ms:
    /// `read_ms[round][probe]`.
    pub read_ms: Vec<Vec<f64>>,
    /// Round trips of the growth slices' queries (reads beside writes), ms,
    /// one vector per slice.
    pub mixed_query_ms: Vec<Vec<f64>>,
    /// Round trips of the appends, ms, one vector per growth slice.
    pub append_ms: Vec<Vec<f64>>,
    /// Server-side execute spans of the traced run's queries, ms (from
    /// `Client::trace`).
    pub server_execute_ms: Vec<f64>,
    /// Mean of the daemon's admission-wait histogram over the phase, ms.
    pub admission_wait_ms: f64,
}

impl ServeResult {
    /// The gated query latency: on the grown tenant where there are read
    /// rounds (every probe's fastest round trip, median over probes), else
    /// the growth slices' queries (median per slice, quiet quartile).
    pub fn query_ms(&self) -> f64 {
        if self.read_ms.iter().any(|round| !round.is_empty()) {
            median_of_fastest(&self.read_ms)
        } else {
            quiet_latency(&self.mixed_query_ms)
        }
    }

    pub fn mixed_query_ms(&self) -> f64 {
        quiet_latency(&self.mixed_query_ms)
    }

    pub fn append_ms(&self) -> f64 {
        quiet_latency(&self.append_ms)
    }
}

/// `key=value` fields of one of the daemon's trace lines, in ms.
fn trace_field(line: &str, key: &str) -> Option<f64> {
    line.split_whitespace()
        .find_map(|field| field.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// `(sum, count)` of the daemon's admission-wait histogram right now.
fn admission_totals_now(client: &mut Client) -> (f64, f64) {
    client
        .metrics()
        .map(|m| admission_totals(&m))
        .unwrap_or((0.0, 0.0))
}

/// `(sum, count)` of the admission-wait histogram in a metrics exposition.
fn admission_totals(exposition: &str) -> (f64, f64) {
    let value = |name: &str| {
        exposition
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (
        value("twin_admission_wait_ms_sum"),
        value("twin_admission_wait_ms_count"),
    )
}

fn ms_to_ns(ms: f64) -> u64 {
    (ms * 1e6).round().max(0.0) as u64
}

/// One closed-loop client against one daemon, as a resumable task.  The
/// first `growth_slices` calls of [`advance`](ServePhase::advance) each run a
/// slice of the mixed ops (every fourth an append of the next stream chunk,
/// the others seeded probe queries): the tenant grows, appends are measured,
/// reads run beside writes.  The calls after that run the read rounds: every
/// read probe [`ROUNDS`] times against the grown tenant.  With a recorder
/// (the daemon must trace then) every op fetches its server-side spans.
pub struct ServePhase<'a> {
    ctx: &'a Ctx,
    daemon: &'a mut Daemon,
    name: &'static str,
    mixed_ops: usize,
    growth_slices: usize,
    slices_done: usize,
    stream: &'a [f64],
    probes: &'a [usize],
    read_probes: &'a [usize],
    read_rounds: ReadRounds<Vec<u64>>,
    next_chunk: usize,
    next_probe: usize,
    /// What the daemon must hold: the base plus every acknowledged append.
    mirror: Vec<f64>,
    wait_before: (f64, f64),
    result: ServeResult,
}

/// How a daemon's ops are laid out over the calls of `advance`.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan<'a> {
    /// Mixed ops (query : append = 3 : 1) over the growth slices.
    pub mixed_ops: usize,
    pub growth_slices: usize,
    /// Probes of the read rounds (none: no read rounds) and their slices.
    pub read_probes: &'a [usize],
    pub read_slices: usize,
}

impl<'a> ServePhase<'a> {
    pub fn new(
        ctx: &'a Ctx,
        daemon: &'a mut Daemon,
        name: &'static str,
        plan: ServePlan<'a>,
        stream: &'a [f64],
        probes: &'a [usize],
    ) -> Self {
        let wait_before = admission_totals_now(daemon.client());
        ServePhase {
            ctx,
            daemon,
            name,
            mixed_ops: plan.mixed_ops,
            growth_slices: plan.growth_slices,
            slices_done: 0,
            stream,
            probes,
            read_probes: plan.read_probes,
            read_rounds: ReadRounds::new(plan.read_probes.len(), plan.read_slices),
            next_chunk: 0,
            next_probe: 0,
            mirror: ctx.base().to_vec(),
            wait_before,
            result: ServeResult {
                read_ms: vec![Vec::new(); ROUNDS],
                ..ServeResult::default()
            },
        }
    }

    pub fn advance(&mut self, recorder: Option<&mut Recorder>, ops: &mut Ops) {
        let slice = self.slices_done;
        self.slices_done += 1;
        if slice < self.growth_slices {
            self.growth_slice(slice, recorder, ops);
        } else if !self.read_probes.is_empty() {
            self.read_block(recorder, ops);
        }
    }

    /// One timed query round trip, with the probe-is-its-own-twin check.
    fn query(
        &mut self,
        label: String,
        probe: usize,
        recorder: Option<&mut Recorder>,
    ) -> (f64, Result<Vec<u64>, String>) {
        let mut spec = QuerySpec::new(
            self.ctx.raw[probe..probe + WINDOW].to_vec(),
            self.ctx.workload.serve_epsilon,
        );
        spec.collect_stats = recorder.is_some();
        let client = self.daemon.client();
        let started = Instant::now();
        let reply = client.query(TS_TENANT, spec);
        let ended = Instant::now();
        if let Some(rec) = recorder {
            let request = rec.request(label.clone());
            let root = rec.measured(request, None, "ts-serve", "Client::query", started, ended);
            record_server_side(rec, root, client, &mut self.result);
        }
        let verdict = match reply {
            Ok(reply) if reply.positions.binary_search(&(probe as u64)).is_ok() => {
                Ok(reply.positions)
            }
            Ok(_) => Err(format!(
                "{label}: the probe's own window {probe} is missing"
            )),
            Err(e) => Err(format!("{label}: {e}")),
        };
        ((ended - started).as_secs_f64() * 1e3, verdict)
    }

    fn growth_slice(&mut self, slice: usize, mut recorder: Option<&mut Recorder>, ops: &mut Ops) {
        let phase = self.name;
        let (mut query_ms, mut append_ms) = (Vec::new(), Vec::new());
        for op in slice * self.mixed_ops / self.growth_slices
            ..(slice + 1) * self.mixed_ops / self.growth_slices
        {
            if op % 4 == 3 {
                let chunk = &self.stream[self.next_chunk * CHUNK..(self.next_chunk + 1) * CHUNK];
                self.next_chunk += 1;
                let client = self.daemon.client();
                let started = Instant::now();
                let reply = client.append(TS_TENANT, chunk);
                let ended = Instant::now();
                append_ms.push((ended - started).as_secs_f64() * 1e3);
                ops.record(match reply {
                    Ok((new_len, _)) => {
                        self.mirror.extend_from_slice(chunk);
                        if new_len as usize == self.mirror.len() {
                            Ok(())
                        } else {
                            Err(format!(
                                "{phase} append {op}: acked length {new_len}, expected {}",
                                self.mirror.len()
                            ))
                        }
                    }
                    Err(e) => Err(format!("{phase} append {op}: {e}")),
                });
                if let Some(rec) = recorder.as_deref_mut() {
                    let request = rec.request(format!("{phase}/append/{op}"));
                    let root =
                        rec.measured(request, None, "ts-serve", "Client::append", started, ended);
                    record_server_side(rec, root, client, &mut self.result);
                }
            } else {
                let probe = self.probes[self.next_probe];
                self.next_probe += 1;
                let label = format!("{phase}/query/{op}");
                let (ms, verdict) = self.query(label.clone(), probe, recorder.as_deref_mut());
                query_ms.push(ms);
                ops.record(verdict.and_then(|positions| {
                    if self.next_probe % ORACLE_EVERY == 1 {
                        check_against_mirror(self.ctx, &self.mirror, probe, &positions)
                            .map_err(|e| format!("{label} {e}"))
                    } else {
                        Ok(())
                    }
                }));
            }
        }
        self.result.mixed_query_ms.push(query_ms);
        self.result.append_ms.push(append_ms);
    }

    fn read_block(&mut self, mut recorder: Option<&mut Recorder>, ops: &mut Ops) {
        let Some((round, block)) = self.read_rounds.next_block() else {
            return;
        };
        for i in block {
            let probe = self.read_probes[i];
            let label = format!("{}/read/r{round}/{i}", self.name);
            let (ms, verdict) = self.query(label.clone(), probe, recorder.as_deref_mut());
            self.result.read_ms[round].push(ms);
            let (ctx, mirror) = (self.ctx, &self.mirror);
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

    pub fn finish(mut self) -> ServeResult {
        let after = admission_totals_now(self.daemon.client());
        let waits = after.1 - self.wait_before.1;
        if waits > 0.0 {
            self.result.admission_wait_ms = (after.0 - self.wait_before.0) / waits;
        }
        self.result
    }
}

/// Checks a served answer against the oracle over the mirrored series.
fn check_against_mirror(
    ctx: &Ctx,
    mirror: &[f64],
    probe: usize,
    positions: &[u64],
) -> Result<(), String> {
    let positions: Vec<usize> = positions.iter().map(|&p| p as usize).collect();
    check_answer(
        OracleSeries::Plain(mirror),
        &ctx.raw[probe..probe + WINDOW],
        ctx.workload.serve_epsilon,
        &positions,
    )
    .map_err(|e| format!("vs oracle: {e}"))
}

/// Reads the daemon's newest trace line (the request just answered: there
/// is one client) and hangs its spans under the client-side root.
fn record_server_side(
    rec: &mut Recorder,
    root: usize,
    client: &mut Client,
    result: &mut ServeResult,
) {
    let Ok(text) = client.trace(1) else { return };
    let Some(line) = text.lines().next() else {
        return;
    };
    let wait = trace_field(line, "admission_wait_ms").unwrap_or(0.0);
    let execute = trace_field(line, "execute_ms").unwrap_or(0.0);
    if line.contains(" op=query ") {
        result.server_execute_ms.push(execute);
    }
    let first = rec.reported(
        root,
        &[
            ("ts-core", "admission_wait", ms_to_ns(wait)),
            ("twin-search", "execute", ms_to_ns(execute)),
        ],
    );
    if let (Some(filter), Some(verify)) = (
        trace_field(line, "filter_ms"),
        trace_field(line, "verify_ms"),
    ) {
        rec.reported(
            first + 1,
            &[
                ("ts-index", "filter", ms_to_ns(filter)),
                ("ts-core", "verify", ms_to_ns(verify)),
            ],
        );
    }
}

/// Two closed-loop clients on the same daemon and tenant; returns ops per
/// second.  Ungated: on 2 cores the clients compete with the daemon.
pub fn two_clients(
    ctx: &Ctx,
    endpoint: &Endpoint,
    ops_per_client: usize,
    stream: &[f64],
    probes: &[usize],
    ops: &mut Ops,
) -> f64 {
    let epsilon = ctx.workload.serve_epsilon;
    let started = Instant::now();
    let failures: Vec<Vec<String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2usize)
            .map(|c| {
                scope.spawn(move || {
                    let mut failed = Vec::new();
                    let mut client = match Client::connect(endpoint) {
                        Ok(client) => client,
                        Err(e) => return vec![format!("2clients connect: {e}"); ops_per_client],
                    };
                    for op in 0..ops_per_client {
                        // Distinct halves of the inputs per client.
                        let slot = c * ops_per_client + op;
                        let outcome = if op % 4 == 3 {
                            let k = slot % (stream.len() / CHUNK);
                            client
                                .append(TS_TENANT, &stream[k * CHUNK..(k + 1) * CHUNK])
                                .map(|_| ())
                        } else {
                            let probe = probes[slot % probes.len()];
                            client
                                .query(
                                    TS_TENANT,
                                    QuerySpec::new(
                                        ctx.raw[probe..probe + WINDOW].to_vec(),
                                        epsilon,
                                    ),
                                )
                                .map(|_| ())
                        };
                        if let Err(e) = outcome {
                            failed.push(format!("2clients op {op}: {e}"));
                        }
                    }
                    failed
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| vec!["2clients worker panicked".into()])
            })
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let failed: Vec<String> = failures.into_iter().flatten().collect();
    for _ in 0..(2 * ops_per_client).saturating_sub(failed.len()) {
        ops.record(Ok(()));
    }
    for failure in failed {
        ops.record(Err(failure));
    }
    (2 * ops_per_client) as f64 / elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_trace_lines_and_metrics() {
        let line = "trace id=7 op=query tenant=t total_ms=1.250 admission_wait_ms=0.010 execute_ms=1.240 filter_ms=0.900 verify_ms=0.300";
        assert_eq!(trace_field(line, "execute_ms"), Some(1.24));
        assert_eq!(trace_field(line, "admission_wait_ms"), Some(0.01));
        assert_eq!(trace_field(line, "fsync_ms"), None);
        let text = "# TYPE twin_admission_wait_ms histogram\ntwin_admission_wait_ms_bucket{le=\"0.01\"} 3\ntwin_admission_wait_ms_sum 0.75\ntwin_admission_wait_ms_count 30\n";
        assert_eq!(admission_totals(text), (0.75, 30.0));
        assert_eq!(ms_to_ns(1.5), 1_500_000);
    }
}
