//! Direct measurements of single layers through their public functions,
//! taken in the traced run only: store reads, the verification pipeline,
//! the wire codec, the WAL and the batch executor.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ts_core::pipeline::{CandidateSet, Pipeline, VerifyOptions};
use ts_serve::protocol::{decode_request, decode_response, encode_request, encode_response};
use ts_serve::{QueryReply, QuerySpec, Request, Response};
use twin_search::{plan_verify_options, Method, SeriesStore, WalConfig, WalSeries};

use crate::inputs::{mix, SALT_READS};
use crate::query_phase::Ops;
use crate::rig::{BoxError, Ctx, Rig, TS_TENANT};
use crate::spec::{CHUNK, WINDOW};
use crate::stats::median;

/// Values per sequential run read (the pipeline's default run span).
const SEQ_RUN: usize = 4_096;
const SEQ_PASSES: usize = 20;
const RAND_READS: usize = 20_000;
const VERIFY_QUERIES: usize = 10;
const CODEC_ROUNDS: usize = 2_000;
const WAL_APPENDS: usize = 300;
const BATCH_QUERIES: usize = 100;
const BATCH_REPEATS: usize = 5;

#[derive(Debug, Default)]
pub struct LayerResult {
    pub read_seq_ns_per_value: f64,
    pub read_rand_ns_per_value: f64,
    pub verify_ns_per_candidate: f64,
    pub codec_us: f64,
    pub wal_append_us: f64,
    pub batch_speedup: f64,
}

pub fn run(ctx: &Ctx, rig: &Rig, stream: &[f64], ops: &mut Ops) -> Result<LayerResult, BoxError> {
    let mut result = LayerResult::default();
    // The sweepline lane's store is the workload's own store and regime.
    let lane = &rig.lanes[0];
    let store = lane.engine.store();
    let regime = &rig.regimes[lane.regime];

    // ts-storage: runs in order, then windows at seeded offsets.
    let mut buf = vec![0.0_f64; SEQ_RUN];
    let started = Instant::now();
    let mut values = 0usize;
    for _ in 0..SEQ_PASSES {
        let mut at = 0;
        while at < store.len() {
            let n = SEQ_RUN.min(store.len() - at);
            store.read_range_into(at, &mut buf[..n])?;
            black_box(&buf);
            values += n;
            at += n;
        }
    }
    result.read_seq_ns_per_value = started.elapsed().as_nanos() as f64 / values as f64;

    let mut rng = StdRng::seed_from_u64(mix(ctx.seed, SALT_READS));
    let offsets: Vec<usize> = (0..RAND_READS)
        .map(|_| rng.gen_range(0..=store.len() - WINDOW))
        .collect();
    let mut window = vec![0.0_f64; WINDOW];
    let started = Instant::now();
    for &at in &offsets {
        store.read_range_into(at, &mut window)?;
        black_box(&window);
    }
    result.read_rand_ns_per_value =
        started.elapsed().as_nanos() as f64 / (RAND_READS * WINDOW) as f64;

    // ts-core: the pipeline over a dense candidate set, as Sweepline drives it.
    let (mut verified, mut verify_ns) = (0usize, 0u128);
    for query in regime.queries.iter().take(VERIFY_QUERIES) {
        let pipeline = Pipeline::new(query.values(), query.epsilon());
        let mut candidates = CandidateSet::dense(store.subsequence_count(WINDOW));
        let mut out = Vec::new();
        let options = plan_verify_options(store, VerifyOptions::default());
        let started = Instant::now();
        let report = pipeline.verify_into(
            &mut candidates,
            |start, buf| store.read_raw_range_into(start, buf),
            options,
            &mut out,
        )?;
        verify_ns += started.elapsed().as_nanos();
        verified += report.verified;
        black_box(out);
    }
    result.verify_ns_per_candidate = verify_ns as f64 / verified as f64;

    // ts-serve: encode + decode of one query request and its reply.
    let request = Request::Query {
        tenant: TS_TENANT.to_string(),
        spec: QuerySpec::new(ctx.raw[..WINDOW].to_vec(), ctx.workload.serve_epsilon),
    };
    let response = Response::Query(QueryReply {
        method: Method::TsIndex.name().to_string(),
        positions: (0..16).map(|i| i * 997).collect(),
        match_count: 16,
        threads_used: 1,
        query_time_us: 300,
        stats: None,
    });
    let started = Instant::now();
    let mut codec_ok = true;
    for _ in 0..CODEC_ROUNDS {
        let wire = encode_request(black_box(&request))?;
        codec_ok &= decode_request(&wire)? == request;
        let wire = encode_response(black_box(&response))?;
        codec_ok &= decode_response(&wire)? == response;
    }
    result.codec_us = started.elapsed().as_secs_f64() * 1e6 / CODEC_ROUNDS as f64;
    ops.record(if codec_ok {
        Ok(())
    } else {
        Err("codec round trip changed a message".into())
    });

    // ts-ingest: the WAL alone, same chunks and flush policy as the tenants.
    result.wal_append_us = wal_append_us(&rig.dir.join("wal-only.tslog"), ctx.base(), stream, ops)?;

    // ts-core::exec: a batch on 2 workers against the same batch on 1.
    let ts_lane = rig
        .lanes
        .iter()
        .find(|l| l.method == Method::TsIndex)
        .expect("every workload builds a TS-Index lane");
    let batch = &rig.regimes[ts_lane.regime].queries;
    let batch = &batch[..BATCH_QUERIES.min(batch.len())];
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..BATCH_REPEATS {
        for (threads, times) in [(1, &mut one), (2, &mut two)] {
            let started = Instant::now();
            let outcomes = ts_lane.engine.search_batch_threads(batch, threads)?;
            times.push(started.elapsed().as_secs_f64());
            black_box(outcomes);
        }
    }
    result.batch_speedup = median(&one) / median(&two);
    Ok(result)
}

fn wal_append_us(
    path: &Path,
    base: &[f64],
    stream: &[f64],
    ops: &mut Ops,
) -> Result<f64, BoxError> {
    let wal = WalSeries::create(path, base, WalConfig::default())?;
    let mut micros = Vec::with_capacity(WAL_APPENDS);
    for chunk in stream.chunks_exact(CHUNK).take(WAL_APPENDS) {
        let started = Instant::now();
        wal.append_durable(chunk)?;
        micros.push(started.elapsed().as_secs_f64() * 1e6);
    }
    ops.record(if wal.len() == base.len() + micros.len() * CHUNK {
        Ok(())
    } else {
        Err(format!(
            "WAL holds {} points after {} appends",
            wal.len(),
            micros.len()
        ))
    });
    Ok(median(&micros))
}
