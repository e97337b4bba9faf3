//! Implementations of the `twin` subcommands.
//!
//! Every command takes the parsed arguments and a writer for its report, so
//! the unit tests can run commands end-to-end against temporary files and
//! inspect the output.

use std::io::Write;
use std::path::Path;

use ts_core::normalize::Normalization;
use ts_core::stats;
use ts_data::generators::{eeg_like, insect_like, random_walk, sine_mix, GeneratorConfig};
use ts_storage::{text, DiskSeries, SeriesStore};
use twin_search::{
    compare_chebyshev_euclidean, ChunkReader, Engine, EngineConfig, InMemorySeries, LiveBackend,
    Method, ShardedEngine, ShardedLiveEngine, StoreKind, TwinQuery, WalConfig,
};

use crate::args::{ArgError, ParsedArgs};

/// Top-level error type of the CLI: either bad arguments or a failing
/// operation (I/O, invalid series, ...).
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation failed.
    Args(ArgError),
    /// The requested operation failed.
    Run(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Run(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

fn run_err<E: std::fmt::Display>(e: E) -> CliError {
    CliError::Run(e.to_string())
}

/// The usage text printed by `twin help` (and on argument errors).
pub const USAGE: &str = "\
twin — twin subsequence search in time series (Chebyshev / L-infinity matching)

USAGE:
  twin <command> [options]

COMMANDS:
  generate   Generate a synthetic series and write it to a file
             --kind insect|eeg|walk|sine  --len N  [--seed S]  --out FILE
             (FILE ending in .bin/.series is binary, anything else is text)
  info       Print length and summary statistics of a series file
             --series FILE
  convert    Convert a series file between text and binary formats
             --in FILE --out FILE
  query      Run a twin subsequence query against a series file
             --series FILE  --epsilon E  [--method ts-index|isax|kv-index|sweepline]
             [--len L] [--query-start P | --query-file FILE]
             [--normalization series|subsequence|raw] [--top-k K] [--limit N]
             [--store memory|disk|disk-cached|mmap]
                            (where the prepared series lives: RAM, the
                             readahead disk store, the sharded block cache
                             for random verification reads, or a memory map)
             [--shards N]   (partition the series across N independent
                             engines; results are identical to --shards 1)
             [--threads T]  (TS-Index work-stealing traversal / shard
                             fan-out width; the other methods run on one
                             thread; clamped to the available cores)
             [--stats]      (print candidate/pruning counts and the
                             filter-vs-verify time split)
  compare    Chebyshev twins vs Euclidean range query (the paper's intro experiment)
             --series FILE  --epsilon E  [--len L] [--query-start P]
  ingest     Stream raw values into a live engine, interleaving twin queries
             --source FILE|-  --epsilon E  [--method ts-index|isax|kv-index|sweepline]
             [--len L] [--chunk N]      (points per append, default 500)
             [--query-start P]          (probe query window in the initial prefix)
             [--store memory|log]       (where the growing series lives;
                                         log without --log uses a temp file)
             [--log FILE]               (crash-safe append log at this path;
                                         with --shards N, one log per shard
                                         at FILE.shard0 .. FILE.shardN-1)
             [--shards N]               (stripe the stream round-robin
                                         across N live engines)
             [--stripe S]               (points per stripe, default 8*len)
             [--group-commit-delay-us D] [--group-commit-count N]
                                        (batch concurrent appends into one
                                         fsync; acks still mean durable)
             [--checkpoint-records N] [--checkpoint-bytes B]
                                        (background-compact the log into a
                                         snapshot every N records / B bytes)
             [--snapshot-store memory|disk|disk-cached|mmap]
                                        (store kind recovery reads the
                                         snapshot through, default mmap)
             [--stats]                  (print ingestion counters at the end)
  serve      Run the multi-tenant twin-search daemon
             --data DIR                 (tenant manifests + append logs)
             (--socket PATH | --listen ADDR)
             [--threads T]              (worker threads answering requests,
                                         default one per core)
             [--queue N]                (admission queue depth, default 256;
                                         a full queue rejects with
                                         'overloaded' instead of blocking)
             [--deadline-ms D]          (default per-request deadline)
             [--group-commit-delay-us D] [--group-commit-count N]
             [--checkpoint-records N] [--checkpoint-bytes B]
             [--snapshot-store memory|disk|disk-cached|mmap]
                                        (WAL knobs for tenants created
                                         through this daemon)
             [--slow-query-ms T]        (trace + log requests slower than
                                         T ms end to end; 0 = all)
             [--slow-query-log FILE]    (append slow-query lines to FILE
                                         in addition to stderr)
             Blocks until a client sends shutdown; exits 0 after draining
             in-flight requests and flushing every tenant's append log.
  client     Talk to a running daemon (one operation per invocation)
             (--socket PATH | --connect ADDR)  --op OP
             OP = create    --tenant NAME --method M --len L [--initial FILE]
                  append    --tenant NAME (--values a,b,c | --file FILE)
                  query     --tenant NAME --epsilon E
                            (--values a,b,c | --query-file FILE)
                            [--limit N] [--count-only] [--stats]
                            [--deadline-ms D]
                  stats     [--tenant NAME] [--json]
                  metrics   (Prometheus text exposition of the daemon's
                             metrics registry)
                  trace     [--limit N] (newest slow-query traces, one
                             line each; default all retained)
                  checkpoint --tenant NAME (compact the tenant's WAL now)
                  shutdown  (graceful drain + exit)
  help       Show this message
";

/// Dispatches a parsed command line, writing the report to `out`.
pub fn dispatch<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    match args.command.as_deref() {
        None | Some("help") => {
            writeln!(out, "{USAGE}").map_err(run_err)?;
            Ok(())
        }
        Some("generate") => cmd_generate(args, out),
        Some("info") => cmd_info(args, out),
        Some("convert") => cmd_convert(args, out),
        Some("query") => cmd_query(args, out),
        Some("compare") => cmd_compare(args, out),
        Some("ingest") => cmd_ingest(args, out),
        Some("serve") => cmd_serve(args, out),
        Some("client") => cmd_client(args, out),
        Some(other) => Err(CliError::Args(ArgError(format!(
            "unknown command '{other}' (see 'twin help')"
        )))),
    }
}

/// Reads a series file, choosing the binary or text loader by extension.
fn load_series(path: &str) -> Result<Vec<f64>, CliError> {
    let is_binary = Path::new(path)
        .extension()
        .map(|e| e == "bin" || e == "series")
        .unwrap_or(false);
    if is_binary {
        let disk = DiskSeries::open(path).map_err(run_err)?;
        disk.read_all().map_err(run_err)
    } else {
        text::read_file(path).map_err(run_err)
    }
}

/// Writes a series file, choosing the binary or text writer by extension.
fn store_series(path: &str, values: &[f64]) -> Result<(), CliError> {
    let is_binary = Path::new(path)
        .extension()
        .map(|e| e == "bin" || e == "series")
        .unwrap_or(false);
    if is_binary {
        ts_storage::write_series(path, values).map_err(run_err)
    } else {
        text::write_file(path, values).map_err(run_err)
    }
}

fn parse_method(raw: Option<&str>) -> Result<Method, CliError> {
    Ok(match raw.unwrap_or("ts-index") {
        "ts-index" | "tsindex" | "ts" => Method::TsIndex,
        "isax" | "sax" => Method::Isax,
        "kv-index" | "kv" => Method::KvIndex,
        "sweepline" | "sweep" | "scan" => Method::Sweepline,
        other => {
            return Err(CliError::Args(ArgError(format!(
                "unknown method '{other}' (expected ts-index, isax, kv-index or sweepline)"
            ))))
        }
    })
}

fn parse_store(raw: Option<&str>) -> Result<StoreKind, CliError> {
    raw.unwrap_or("memory")
        .parse()
        .map_err(|e: String| CliError::Args(ArgError(e)))
}

fn parse_normalization(raw: Option<&str>) -> Result<Normalization, CliError> {
    Ok(match raw.unwrap_or("series") {
        "series" | "znorm" => Normalization::WholeSeries,
        "subsequence" | "per-subsequence" => Normalization::PerSubsequence,
        "raw" | "none" => Normalization::None,
        other => {
            return Err(CliError::Args(ArgError(format!(
                "unknown normalization '{other}' (expected series, subsequence or raw)"
            ))))
        }
    })
}

fn cmd_generate<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    args.ensure_known(&["kind", "len", "seed", "out"])?;
    let kind = args.get("kind").unwrap_or("insect");
    let len: usize = args.require_parsed("len")?;
    let seed: u64 = args.get_parsed_or("seed", 42)?;
    let path = args.require("out")?;
    let values = match kind {
        "insect" => insect_like(GeneratorConfig::new(len, seed)),
        "eeg" => eeg_like(GeneratorConfig::new(len, seed)),
        "walk" => random_walk(len, 1.0, seed),
        "sine" => sine_mix(len, 0.1, seed),
        other => {
            return Err(CliError::Args(ArgError(format!(
                "unknown kind '{other}' (expected insect, eeg, walk or sine)"
            ))))
        }
    };
    store_series(path, &values)?;
    writeln!(
        out,
        "wrote {} values of kind '{kind}' (seed {seed}) to {path}",
        values.len()
    )
    .map_err(run_err)?;
    Ok(())
}

fn cmd_info<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    args.ensure_known(&["series"])?;
    let path = args.require("series")?;
    let values = load_series(path)?;
    if values.is_empty() {
        return Err(CliError::Run(format!("{path}: series is empty")));
    }
    let (mean, std) = stats::mean_std(&values);
    let (lo, hi) = stats::min_max(&values).expect("non-empty");
    writeln!(out, "file      : {path}").map_err(run_err)?;
    writeln!(out, "length    : {}", values.len()).map_err(run_err)?;
    writeln!(out, "mean      : {mean:.6}").map_err(run_err)?;
    writeln!(out, "std dev   : {std:.6}").map_err(run_err)?;
    writeln!(out, "min / max : {lo:.6} / {hi:.6}").map_err(run_err)?;
    Ok(())
}

fn cmd_convert<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    args.ensure_known(&["in", "out"])?;
    let input = args.require("in")?;
    let output = args.require("out")?;
    let values = load_series(input)?;
    store_series(output, &values)?;
    writeln!(
        out,
        "converted {} values: {input} -> {output}",
        values.len()
    )
    .map_err(run_err)?;
    Ok(())
}

/// A built query engine: one index, or one index per shard.
enum BuiltEngine {
    Single(Engine),
    Sharded(ShardedEngine),
}

impl BuiltEngine {
    fn read(&self, start: usize, len: usize) -> ts_storage::Result<Vec<f64>> {
        match self {
            BuiltEngine::Single(e) => e.store().read(start, len),
            BuiltEngine::Sharded(e) => e.read(start, len),
        }
    }

    fn execute(&self, query: &TwinQuery) -> ts_storage::Result<twin_search::SearchOutcome> {
        match self {
            BuiltEngine::Single(e) => e.execute(query),
            BuiltEngine::Sharded(e) => e.execute(query),
        }
    }

    fn index_memory_bytes(&self) -> usize {
        match self {
            BuiltEngine::Single(e) => e.index_memory_bytes(),
            BuiltEngine::Sharded(e) => e.index_memory_bytes(),
        }
    }
}

fn cmd_query<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    args.ensure_known(&[
        "series",
        "method",
        "epsilon",
        "len",
        "query-start",
        "query-file",
        "normalization",
        "store",
        "shards",
        "top-k",
        "limit",
        "threads",
        "stats",
    ])?;
    let values = load_series(args.require("series")?)?;
    let method = parse_method(args.get("method"))?;
    let normalization = parse_normalization(args.get("normalization"))?;
    let store = parse_store(args.get("store"))?;
    let epsilon: f64 = args.require_parsed("epsilon")?;
    let shards: usize = args.get_parsed_or("shards", 1)?;
    let top_k: usize = args.get_parsed_or("top-k", 0)?;
    let limit: usize = args.get_parsed_or("limit", 10)?;
    let threads: usize = args.get_parsed_or("threads", 1)?;
    let want_stats = args.has_flag("stats");
    if shards > 1 && top_k > 0 {
        return Err(CliError::Args(ArgError(
            "--top-k is not supported together with --shards (yet)".into(),
        )));
    }

    // The query: either an external file or a window of the indexed series.
    let (len, query_source): (usize, Option<Vec<f64>>) = match args.get("query-file") {
        Some(qpath) => {
            let q = load_series(qpath)?;
            (q.len(), Some(q))
        }
        None => (args.get_parsed_or("len", 100)?, None),
    };

    let config = EngineConfig::new(method, len)
        .with_normalization(normalization)
        .with_store(store)
        .with_shards(shards);
    let build_started = std::time::Instant::now();
    let engine = if shards > 1 {
        BuiltEngine::Sharded(ShardedEngine::build(&values, config).map_err(run_err)?)
    } else {
        BuiltEngine::Single(Engine::build(&values, config).map_err(run_err)?)
    };
    let build_time = build_started.elapsed();

    let query: Vec<f64> = match query_source {
        Some(q) => {
            if normalization == Normalization::PerSubsequence {
                ts_core::normalize::znormalize(&q)
            } else if normalization == Normalization::WholeSeries {
                // Express the external query in the indexed (z-normalised) space.
                let (mean, std) = stats::mean_std(&values);
                q.iter()
                    .map(|v| {
                        if std > 0.0 {
                            (v - mean) / std
                        } else {
                            v - mean
                        }
                    })
                    .collect()
            } else {
                q
            }
        }
        None => {
            let start: usize = args.get_parsed_or("query-start", 0)?;
            engine.read(start, len).map_err(run_err)?
        }
    };

    writeln!(
        out,
        "method={} len={len} epsilon={epsilon} normalization={} store={store} shards={}",
        method.name(),
        normalization.label(),
        match &engine {
            BuiltEngine::Single(_) => 1,
            BuiltEngine::Sharded(e) => e.shard_count(),
        },
    )
    .map_err(run_err)?;
    writeln!(
        out,
        "index built in {build_time:.3?} ({} KiB)",
        engine.index_memory_bytes() / 1024
    )
    .map_err(run_err)?;

    let mut twin_query = TwinQuery::new(query.clone(), epsilon).parallel(threads);
    if twin_query.threads() != threads.max(1) {
        writeln!(
            out,
            "note: --threads {threads} clamped to {} (available parallelism)",
            twin_query.threads()
        )
        .map_err(run_err)?;
    }
    if want_stats {
        twin_query = twin_query.collect_stats();
    }
    let outcome = engine.execute(&twin_query).map_err(run_err)?;
    let matches = &outcome.positions;
    writeln!(
        out,
        "{} twins found in {:.3?} ({} thread{})",
        matches.len(),
        outcome.query_time,
        outcome.threads_used,
        if outcome.threads_used == 1 { "" } else { "s" },
    )
    .map_err(run_err)?;
    if let Some(stats) = outcome.stats {
        writeln!(
            out,
            "stats: candidates generated {} / verified {}, index nodes visited {} (pruned {})",
            stats.candidates_generated,
            stats.candidates_verified,
            stats.nodes_visited,
            stats.nodes_pruned,
        )
        .map_err(run_err)?;
        writeln!(
            out,
            "stats: filter {:.3?}, verify {:.3?}",
            stats.filter_time, stats.verify_time,
        )
        .map_err(run_err)?;
    }
    for p in matches.iter().take(limit) {
        writeln!(out, "  position {p}").map_err(run_err)?;
    }
    if matches.len() > limit {
        writeln!(out, "  ... ({} more)", matches.len() - limit).map_err(run_err)?;
    }

    if top_k > 0 {
        let BuiltEngine::Single(single) = &engine else {
            unreachable!("--top-k with --shards was rejected above");
        };
        let top = single.top_k(&query, top_k).map_err(run_err)?;
        writeln!(out, "top-{top_k} nearest subsequences:").map_err(run_err)?;
        for m in top {
            writeln!(
                out,
                "  position {:>8}  distance {:.6}",
                m.position, m.distance
            )
            .map_err(run_err)?;
        }
    }
    Ok(())
}

/// The WAL flag set shared by `twin ingest` and `twin serve`.
const WAL_FLAGS: [&str; 5] = [
    "group-commit-delay-us",
    "group-commit-count",
    "checkpoint-records",
    "checkpoint-bytes",
    "snapshot-store",
];

/// Builds a [`WalConfig`] from the shared WAL flags (defaults when absent).
fn parse_wal_config(args: &ParsedArgs) -> Result<WalConfig, CliError> {
    let mut wal = WalConfig::default();
    let delay_us: u64 = args.get_parsed_or("group-commit-delay-us", 0)?;
    let count: usize = args.get_parsed_or("group-commit-count", 1)?;
    if delay_us > 0 || count > 1 {
        wal = wal.with_group_commit(std::time::Duration::from_micros(delay_us), count);
    }
    if args.get("checkpoint-records").is_some() {
        wal = wal.with_checkpoint_records(args.require_parsed("checkpoint-records")?);
    }
    if args.get("checkpoint-bytes").is_some() {
        wal = wal.with_checkpoint_bytes(args.require_parsed("checkpoint-bytes")?);
    }
    if let Some(raw) = args.get("snapshot-store") {
        let kind: StoreKind = raw
            .parse()
            .map_err(|e| CliError::Args(ArgError(format!("bad --snapshot-store: {e}"))))?;
        wal = wal.with_snapshot_store(kind);
    }
    Ok(wal)
}

fn cmd_ingest<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    args.ensure_known(&[
        "source",
        "epsilon",
        "method",
        "len",
        "chunk",
        "query-start",
        "store",
        "log",
        "shards",
        "stripe",
        "stats",
        WAL_FLAGS[0],
        WAL_FLAGS[1],
        WAL_FLAGS[2],
        WAL_FLAGS[3],
        WAL_FLAGS[4],
    ])?;
    let source = args.require("source")?;
    let epsilon: f64 = args.require_parsed("epsilon")?;
    let method = parse_method(args.get("method"))?;
    let len: usize = args.get_parsed_or("len", 100)?;
    let chunk: usize = args.get_parsed_or("chunk", 500)?;
    let query_start: usize = args.get_parsed_or("query-start", 0)?;
    let shards: usize = args.get_parsed_or("shards", 1)?.max(1);
    let stripe: usize = args
        .get_parsed_or("stripe", ShardedLiveEngine::default_stripe(len))?
        .max(len);
    let want_stats = args.has_flag("stats");

    let reader: Box<dyn std::io::BufRead> = if source == "-" {
        Box::new(std::io::BufReader::new(std::io::stdin()))
    } else {
        Box::new(std::io::BufReader::new(
            std::fs::File::open(source).map_err(run_err)?,
        ))
    };
    let mut chunks = ChunkReader::new(reader, chunk);

    // Accumulate chunks until the prefix holds the probe query window (and,
    // when sharding, one full window per shard), then build the live engine.
    let mut prefix = Vec::new();
    let needed = len.max(query_start + len).max((shards - 1) * stripe + len);
    for chunk_values in chunks.by_ref() {
        prefix.extend(chunk_values.map_err(run_err)?);
        if prefix.len() >= needed {
            break;
        }
    }
    if prefix.len() < needed {
        return Err(CliError::Run(format!(
            "source ended after {} values; the probe query window [{query_start}, {}) needs more",
            prefix.len(),
            query_start + len
        )));
    }
    let backend = match (args.get("store"), args.get("log")) {
        (Some("memory") | None, None) => LiveBackend::Memory,
        (Some("memory"), Some(_)) => {
            return Err(CliError::Args(ArgError(
                "--store memory conflicts with --log (a log path implies the log backend)".into(),
            )))
        }
        (Some("log") | None, Some(path)) => LiveBackend::Log(path.into()),
        (Some("log"), None) => LiveBackend::TempLog,
        (Some(other), _) => {
            return Err(CliError::Args(ArgError(format!(
                "unknown ingest store '{other}' (expected memory or log; \
                 disk, disk-cached and mmap stores are read-only and cannot grow)"
            ))))
        }
    };
    let config = EngineConfig::new(method, len)
        .with_normalization(Normalization::None)
        .with_shards(shards)
        .with_wal(parse_wal_config(args)?);
    let engine =
        ShardedLiveEngine::build_with_stripe(&prefix, config, backend, stripe).map_err(run_err)?;
    let query = engine.read(query_start, len).map_err(run_err)?;
    writeln!(
        out,
        "built {} over {} initial points ({} backend, {} shard{}); probe query = [{query_start}, {})",
        method.name(),
        prefix.len(),
        if engine.is_disk_backed() {
            "append-log"
        } else {
            "memory"
        },
        engine.shard_count(),
        if engine.shard_count() == 1 { "" } else { "s" },
        query_start + len
    )
    .map_err(run_err)?;

    // Stream the rest: append a chunk, then immediately query.
    let twin_query = TwinQuery::new(query, epsilon);
    let report = |appended: usize, total: usize, out: &mut W| -> Result<(), CliError> {
        let outcome = engine.execute(&twin_query).map_err(run_err)?;
        writeln!(
            out,
            "+{appended:>6} points | total {total:>8} | twins {:>5} | query {:.3?}",
            outcome.match_count, outcome.query_time
        )
        .map_err(run_err)?;
        Ok(())
    };
    report(0, engine.len(), out)?;
    for chunk_values in chunks {
        let values = chunk_values.map_err(run_err)?;
        let (total, _) = engine.append(&values).map_err(run_err)?;
        report(values.len(), total, out)?;
    }

    if want_stats {
        let stats = engine.ingest_stats();
        writeln!(
            out,
            "ingest stats: {} points in {} appends, {} windows indexed",
            stats.points_appended, stats.append_calls, stats.windows_indexed
        )
        .map_err(run_err)?;
        writeln!(
            out,
            "ingest stats: store {:.3?}, maintain {:.3?} ({:.0} points/s)",
            stats.store_time,
            stats.maintain_time,
            stats.append_points_per_sec()
        )
        .map_err(run_err)?;
    }
    Ok(())
}

fn cmd_serve<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    args.ensure_known(&[
        "data",
        "socket",
        "listen",
        "threads",
        "queue",
        "deadline-ms",
        "slow-query-ms",
        "slow-query-log",
        WAL_FLAGS[0],
        WAL_FLAGS[1],
        WAL_FLAGS[2],
        WAL_FLAGS[3],
        WAL_FLAGS[4],
    ])?;
    let data = args.require("data")?;
    let mut config = ts_serve::ServerConfig::new(data).with_wal(parse_wal_config(args)?);
    if args.get("slow-query-ms").is_some() {
        config = config.with_slow_query_ms(args.require_parsed("slow-query-ms")?);
    }
    if let Some(path) = args.get("slow-query-log") {
        config = config.with_slow_query_log(path);
    }
    if let Some(raw) = args.get("threads") {
        let threads: usize = args.require_parsed("threads")?;
        if threads == 0 {
            return Err(CliError::Args(ArgError(format!(
                "--threads must be at least 1 (got '{raw}')"
            ))));
        }
        config = config.with_threads(threads);
    }
    if args.get("queue").is_some() {
        config = config.with_queue_capacity(args.require_parsed("queue")?);
    }
    if args.get("deadline-ms").is_some() {
        let ms: u64 = args.require_parsed("deadline-ms")?;
        config = config.with_default_deadline(std::time::Duration::from_millis(ms));
    }
    let handle = match (args.get("socket"), args.get("listen")) {
        (Some(path), None) => ts_serve::Server::start_unix(path, config).map_err(run_err)?,
        (None, Some(addr)) => ts_serve::Server::start_tcp(addr, config).map_err(run_err)?,
        (None, None) => {
            return Err(CliError::Args(ArgError(
                "serve needs --socket PATH or --listen ADDR".into(),
            )))
        }
        (Some(_), Some(_)) => {
            return Err(CliError::Args(ArgError(
                "--socket and --listen are mutually exclusive".into(),
            )))
        }
    };
    writeln!(out, "serving {data} on {}", handle.endpoint()).map_err(run_err)?;
    out.flush().map_err(run_err)?;
    // Block until a client asks for graceful shutdown; the handle drains
    // in-flight requests and flushes every tenant before returning.
    handle.wait();
    writeln!(out, "shutdown complete").map_err(run_err)?;
    Ok(())
}

/// Connects to the daemon named by `--socket` / `--connect`.
fn connect_client(args: &ParsedArgs) -> Result<ts_serve::Client, CliError> {
    match (args.get("socket"), args.get("connect")) {
        (Some(path), None) => ts_serve::Client::connect_unix(path).map_err(run_err),
        (None, Some(addr)) => ts_serve::Client::connect_tcp(addr).map_err(run_err),
        (None, None) => Err(CliError::Args(ArgError(
            "client needs --socket PATH or --connect ADDR".into(),
        ))),
        (Some(_), Some(_)) => Err(CliError::Args(ArgError(
            "--socket and --connect are mutually exclusive".into(),
        ))),
    }
}

/// Reads the client payload: inline `--values a,b,c` or a series file
/// under `file_key`.
fn client_values(args: &ParsedArgs, file_key: &str) -> Result<Vec<f64>, CliError> {
    match (args.get("values"), args.get(file_key)) {
        (Some(csv), None) => csv
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse()
                    .map_err(|_| CliError::Args(ArgError(format!("bad value '{tok}' in --values"))))
            })
            .collect(),
        (None, Some(path)) => load_series(path),
        (None, None) => Err(CliError::Args(ArgError(format!(
            "need --values a,b,c or --{file_key} FILE"
        )))),
        (Some(_), Some(_)) => Err(CliError::Args(ArgError(format!(
            "--values and --{file_key} are mutually exclusive"
        )))),
    }
}

fn cmd_client<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    args.ensure_known(&[
        "socket",
        "connect",
        "op",
        "tenant",
        "method",
        "len",
        "epsilon",
        "values",
        "file",
        "query-file",
        "initial",
        "limit",
        "count-only",
        "stats",
        "deadline-ms",
        "json",
    ])?;
    let mut client = connect_client(args)?;
    match args.require("op")? {
        "create" => {
            let tenant = args.require("tenant")?;
            let method = parse_method(args.get("method"))?;
            let len: usize = args.require_parsed("len")?;
            let initial = match args.get("initial") {
                Some(path) => load_series(path)?,
                None => Vec::new(),
            };
            let (ready, total) = client
                .create_tenant(tenant, method, len, &initial)
                .map_err(run_err)?;
            writeln!(
                out,
                "created tenant '{tenant}' ({}, len {total}, {})",
                method.name(),
                if ready { "ready" } else { "filling" }
            )
            .map_err(run_err)?;
        }
        "append" => {
            let tenant = args.require("tenant")?;
            let values = client_values(args, "file")?;
            let (new_len, windows) = client.append(tenant, &values).map_err(run_err)?;
            writeln!(
                out,
                "appended {} points to '{tenant}': len {new_len}, {windows} windows indexed",
                values.len()
            )
            .map_err(run_err)?;
        }
        "query" => {
            let tenant = args.require("tenant")?;
            let epsilon: f64 = args.require_parsed("epsilon")?;
            let values = client_values(args, "query-file")?;
            let mut spec = ts_serve::QuerySpec::new(values, epsilon);
            if args.get("limit").is_some() {
                spec.limit = Some(args.require_parsed("limit")?);
            }
            spec.count_only = args.has_flag("count-only");
            spec.collect_stats = args.has_flag("stats");
            if args.get("deadline-ms").is_some() {
                spec.deadline_ms = Some(args.require_parsed("deadline-ms")?);
            }
            let reply = client.query(tenant, spec).map_err(run_err)?;
            writeln!(
                out,
                "{} twins in '{tenant}' via {} in {}us",
                reply.match_count, reply.method, reply.query_time_us
            )
            .map_err(run_err)?;
            for p in reply.positions.iter().take(10) {
                writeln!(out, "  position {p}").map_err(run_err)?;
            }
            if reply.positions.len() > 10 {
                writeln!(out, "  ... ({} more)", reply.positions.len() - 10).map_err(run_err)?;
            }
            if let Some(stats) = reply.stats {
                writeln!(
                    out,
                    "stats: candidates generated {} / verified {}, nodes visited {} (pruned {})",
                    stats.candidates_generated,
                    stats.candidates_verified,
                    stats.nodes_visited,
                    stats.nodes_pruned,
                )
                .map_err(run_err)?;
            }
        }
        "stats" => {
            let stats = client.stats(args.get("tenant")).map_err(run_err)?;
            if args.has_flag("json") {
                writeln!(out, "{}", stats_json(&stats)).map_err(run_err)?;
                return Ok(());
            }
            for t in &stats {
                writeln!(
                    out,
                    "tenant {} : {} len {} ({}), {} points in {} appends, {} queries \
                     (p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms)",
                    t.name,
                    t.method,
                    t.series_len,
                    if t.ready { "ready" } else { "filling" },
                    t.points_appended,
                    t.append_calls,
                    t.queries,
                    t.latency_ms.p50,
                    t.latency_ms.p95,
                    t.latency_ms.p99,
                )
                .map_err(run_err)?;
                writeln!(
                    out,
                    "  wal: {} appends in {} fsyncs ({} saved, max batch {}), {} checkpoints, \
                     recovery tail {} (fsync p50 {:.3}ms p99 {:.3}ms)",
                    t.wal_appends,
                    t.wal_fsyncs,
                    t.wal_fsyncs_saved,
                    t.wal_max_batch,
                    t.wal_checkpoints,
                    t.wal_recovery_tail,
                    t.fsync_ms.p50,
                    t.fsync_ms.p99,
                )
                .map_err(run_err)?;
                writeln!(
                    out,
                    "  checkpoint lag: {} records / {} bytes{}",
                    t.checkpoint_lag_records,
                    t.checkpoint_lag_bytes,
                    if t.checkpoint_stuck {
                        " [STUCK: lag outlived the watchdog grace period]"
                    } else {
                        ""
                    },
                )
                .map_err(run_err)?;
            }
            if stats.is_empty() {
                writeln!(out, "no tenants loaded").map_err(run_err)?;
            }
        }
        "metrics" => {
            let text = client.metrics().map_err(run_err)?;
            write!(out, "{text}").map_err(run_err)?;
        }
        "trace" => {
            let limit: u32 = args.get_parsed_or("limit", 0)?;
            let text = client.trace(limit).map_err(run_err)?;
            if text.is_empty() {
                writeln!(out, "no traces retained").map_err(run_err)?;
            } else {
                write!(out, "{text}").map_err(run_err)?;
            }
        }
        "checkpoint" => {
            let tenant = args.require("tenant")?;
            let covered = client.checkpoint(tenant).map_err(run_err)?;
            if covered == 0 {
                writeln!(out, "checkpoint of '{tenant}': nothing new to cover").map_err(run_err)?;
            } else {
                writeln!(
                    out,
                    "checkpointed '{tenant}': snapshot covers {covered} values"
                )
                .map_err(run_err)?;
            }
        }
        "shutdown" => {
            client.shutdown().map_err(run_err)?;
            writeln!(out, "daemon is shutting down").map_err(run_err)?;
        }
        other => {
            return Err(CliError::Args(ArgError(format!(
                "unknown --op '{other}' (expected create, append, query, stats, metrics, \
                 trace, checkpoint or shutdown)"
            ))))
        }
    }
    Ok(())
}

/// Escapes a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a latency summary as a JSON object.
fn latency_json(l: &ts_serve::WireLatency) -> String {
    format!(
        "{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        l.count, l.mean, l.p50, l.p95, l.p99
    )
}

/// Renders `twin client --op stats --json` output: a JSON array with one
/// object per tenant, mirroring the text report field for field.
fn stats_json(stats: &[ts_serve::WireTenantStats]) -> String {
    let mut out = String::from("[");
    for (i, t) in stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"method\":\"{}\",\"subsequence_len\":{},\"series_len\":{},\
             \"ready\":{},\"points_appended\":{},\"append_calls\":{},\"windows_indexed\":{},\
             \"store_time_us\":{},\"maintain_time_us\":{},\"queries\":{},\"latency_ms\":{},\
             \"wal\":{{\"appends\":{},\"fsyncs\":{},\"fsyncs_saved\":{},\"max_batch\":{},\
             \"checkpoints\":{},\"recovery_tail\":{},\"fsync_ms\":{},\
             \"checkpoint_lag_records\":{},\"checkpoint_lag_bytes\":{},\
             \"checkpoint_stuck\":{}}}}}",
            json_escape(&t.name),
            json_escape(&t.method),
            t.subsequence_len,
            t.series_len,
            t.ready,
            t.points_appended,
            t.append_calls,
            t.windows_indexed,
            t.store_time_us,
            t.maintain_time_us,
            t.queries,
            latency_json(&t.latency_ms),
            t.wal_appends,
            t.wal_fsyncs,
            t.wal_fsyncs_saved,
            t.wal_max_batch,
            t.wal_checkpoints,
            t.wal_recovery_tail,
            latency_json(&t.fsync_ms),
            t.checkpoint_lag_records,
            t.checkpoint_lag_bytes,
            t.checkpoint_stuck,
        ));
    }
    out.push(']');
    out
}

fn cmd_compare<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    args.ensure_known(&["series", "epsilon", "len", "query-start"])?;
    let values = load_series(args.require("series")?)?;
    let epsilon: f64 = args.require_parsed("epsilon")?;
    let len: usize = args.get_parsed_or("len", 100)?;
    let start: usize = args.get_parsed_or("query-start", 0)?;

    let store = InMemorySeries::new_znormalized(&values).map_err(run_err)?;
    let query = store.read(start, len).map_err(run_err)?;
    let cmp = compare_chebyshev_euclidean(&store, &query, epsilon).map_err(run_err)?;
    writeln!(out, "query window        : [{start}, {})", start + len).map_err(run_err)?;
    writeln!(out, "chebyshev epsilon   : {epsilon}").map_err(run_err)?;
    writeln!(out, "twin matches        : {}", cmp.twin_count()).map_err(run_err)?;
    writeln!(
        out,
        "euclidean threshold : {:.4} (= epsilon * sqrt(len))",
        cmp.euclidean_threshold
    )
    .map_err(run_err)?;
    writeln!(out, "euclidean matches   : {}", cmp.euclidean_count()).map_err(run_err)?;
    writeln!(out, "false positives     : {}", cmp.false_positives().len()).map_err(run_err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let parsed = ParsedArgs::parse(args.iter().map(ToString::to_string))?;
        let mut out = Vec::new();
        dispatch(&parsed, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    fn temp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("twin_cli_test_{}_{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&["help"]).unwrap().contains("USAGE"));
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(matches!(run(&["frobnicate"]), Err(CliError::Args(_))));
    }

    #[test]
    fn generate_info_convert_round_trip() {
        let text_path = temp("series.txt");
        let bin_path = temp("series.bin");

        let report = run(&[
            "generate", "--kind", "sine", "--len", "500", "--seed", "3", "--out", &text_path,
        ])
        .unwrap();
        assert!(report.contains("wrote 500 values"));

        let info = run(&["info", "--series", &text_path]).unwrap();
        assert!(info.contains("length    : 500"));

        let converted = run(&["convert", "--in", &text_path, "--out", &bin_path]).unwrap();
        assert!(converted.contains("converted 500 values"));
        let info_bin = run(&["info", "--series", &bin_path]).unwrap();
        assert!(info_bin.contains("length    : 500"));

        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&bin_path).ok();
    }

    #[test]
    fn generate_rejects_unknown_kind_and_missing_options() {
        assert!(run(&["generate", "--kind", "mystery", "--len", "10", "--out", "/tmp/x"]).is_err());
        assert!(run(&["generate", "--kind", "sine", "--out", "/tmp/x"]).is_err());
        assert!(run(&["generate", "--kind", "sine", "--len", "10"]).is_err());
        assert!(run(&["generate", "--wat", "1", "--len", "10", "--out", "/tmp/x"]).is_err());
        // A removed flag is an unknown flag: `CliError::Args` is what `main`
        // answers with the usage text and exit code 1.
        let err = run(&[
            "query",
            "--series",
            "/tmp/x",
            "--epsilon",
            "0.3",
            "--verify-kernel",
            "x",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Args(_)), "{err}");
        assert!(
            err.to_string().contains("unknown option --verify-kernel"),
            "{err}"
        );
    }

    #[test]
    fn query_and_compare_end_to_end() {
        let bin_path = temp("query.bin");
        run(&[
            "generate", "--kind", "insect", "--len", "3000", "--seed", "9", "--out", &bin_path,
        ])
        .unwrap();

        let report = run(&[
            "query",
            "--series",
            &bin_path,
            "--epsilon",
            "0.5",
            "--len",
            "100",
            "--query-start",
            "250",
            "--method",
            "ts-index",
            "--top-k",
            "3",
        ])
        .unwrap();
        assert!(report.contains("twins found"));
        assert!(report.contains("position 250") || report.contains("position      250"));
        assert!(report.contains("top-3 nearest"));

        // Every method spelling is accepted.
        for method in ["isax", "kv-index", "sweepline"] {
            let r = run(&[
                "query",
                "--series",
                &bin_path,
                "--epsilon",
                "0.5",
                "--len",
                "80",
                "--query-start",
                "100",
                "--method",
                method,
            ])
            .unwrap();
            assert!(r.contains("twins found"), "{method}: {r}");
        }

        let cmp = run(&[
            "compare",
            "--series",
            &bin_path,
            "--epsilon",
            "0.5",
            "--len",
            "100",
            "--query-start",
            "250",
        ])
        .unwrap();
        assert!(cmp.contains("twin matches"));
        assert!(cmp.contains("euclidean matches"));

        std::fs::remove_file(&bin_path).ok();
    }

    #[test]
    fn query_stats_and_threads() {
        let bin_path = temp("stats.bin");
        run(&[
            "generate", "--kind", "eeg", "--len", "5000", "--seed", "21", "--out", &bin_path,
        ])
        .unwrap();

        // --stats prints nonzero candidate and pruning counts for an indexed
        // method, plus the filter/verify time split.
        let report = run(&[
            "query",
            "--series",
            &bin_path,
            "--epsilon",
            "0.3",
            "--len",
            "100",
            "--query-start",
            "1000",
            "--method",
            "ts-index",
            "--stats",
        ])
        .unwrap();
        assert!(report.contains("twins found"), "{report}");
        let stats_line = report
            .lines()
            .find(|l| l.starts_with("stats: candidates"))
            .unwrap_or_else(|| panic!("missing stats line in {report}"));
        let numbers: Vec<usize> = stats_line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        // generated / verified / visited / pruned, all nonzero for TS-Index.
        assert_eq!(numbers.len(), 4, "{stats_line}");
        assert!(numbers.iter().all(|&n| n > 0), "{stats_line}");
        assert!(report.contains("stats: filter"), "{report}");

        // --threads routes through the parallel traversal and reports the
        // clamped worker count; answers are unchanged.
        let parallel = run(&[
            "query",
            "--series",
            &bin_path,
            "--epsilon",
            "0.3",
            "--len",
            "100",
            "--query-start",
            "1000",
            "--method",
            "ts-index",
            "--threads",
            "4",
        ])
        .unwrap();
        let clamped = ts_core::exec::clamp_threads(4);
        if clamped > 1 {
            assert!(
                parallel.contains(&format!("({clamped} threads)")),
                "{parallel}"
            );
        } else {
            assert!(
                parallel.contains("note: --threads 4 clamped to 1"),
                "{parallel}"
            );
            assert!(parallel.contains("(1 thread)"), "{parallel}");
        }
        let positions = |r: &str| -> Vec<String> {
            r.lines()
                .filter(|l| l.trim_start().starts_with("position"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(positions(&report), positions(&parallel));

        // Sweepline accepts --stats too (no index nodes, but candidates).
        let sweep = run(&[
            "query",
            "--series",
            &bin_path,
            "--epsilon",
            "0.3",
            "--len",
            "100",
            "--method",
            "sweepline",
            "--stats",
        ])
        .unwrap();
        assert!(sweep.contains("stats: candidates"), "{sweep}");

        std::fs::remove_file(&bin_path).ok();
    }

    #[test]
    fn query_with_external_query_file() {
        let bin_path = temp("ext.bin");
        let query_path = temp("ext_query.txt");
        run(&[
            "generate", "--kind", "eeg", "--len", "2500", "--seed", "4", "--out", &bin_path,
        ])
        .unwrap();
        // Use a window of the raw series as an external query file.
        let values = load_series(&bin_path).unwrap();
        text::write_file(&query_path, &values[600..700]).unwrap();

        let report = run(&[
            "query",
            "--series",
            &bin_path,
            "--epsilon",
            "0.3",
            "--query-file",
            &query_path,
        ])
        .unwrap();
        assert!(report.contains("twins found"));
        // The query's own window must be among the matches.
        assert!(report.contains("position 600") || report.contains("(")); // listed or elided

        std::fs::remove_file(&bin_path).ok();
        std::fs::remove_file(&query_path).ok();
    }

    #[test]
    fn ingest_streams_chunks_and_interleaves_queries() {
        let src_path = temp("stream.txt");
        run(&[
            "generate", "--kind", "sine", "--len", "2500", "--seed", "5", "--out", &src_path,
        ])
        .unwrap();

        let report = run(&[
            "ingest",
            "--source",
            &src_path,
            "--epsilon",
            "0.2",
            "--len",
            "80",
            "--chunk",
            "400",
            "--query-start",
            "40",
            "--method",
            "ts-index",
            "--stats",
        ])
        .unwrap();
        assert!(report.contains("built TS-Index"), "{report}");
        assert!(report.contains("memory backend"), "{report}");
        // One query line per chunk after the build, plus the initial one.
        let query_lines = report.lines().filter(|l| l.contains("twins")).count();
        assert!(query_lines >= 5, "{report}");
        assert!(report.contains("total     2500"), "{report}");
        assert!(report.contains("ingest stats:"), "{report}");
        assert!(report.contains("windows indexed"), "{report}");

        // The crash-safe log backend writes a reopenable log file.
        let log_path = temp("stream.tslog");
        let with_log = run(&[
            "ingest",
            "--source",
            &src_path,
            "--epsilon",
            "0.2",
            "--len",
            "80",
            "--chunk",
            "700",
            "--log",
            &log_path,
        ])
        .unwrap();
        assert!(with_log.contains("append-log backend"), "{with_log}");
        assert!(std::path::Path::new(&log_path).exists());
        let log = twin_search::AppendLogSeries::open(&log_path).unwrap();
        assert_eq!(log.len(), 2500);

        // A stream shorter than the probe window is an error.
        let tiny = temp("tiny.txt");
        std::fs::write(&tiny, "1\n2\n3\n").unwrap();
        assert!(run(&[
            "ingest",
            "--source",
            &tiny,
            "--epsilon",
            "0.2",
            "--len",
            "80"
        ])
        .is_err());

        std::fs::remove_file(&src_path).ok();
        std::fs::remove_file(&log_path).ok();
        std::fs::remove_file(&tiny).ok();
    }

    #[test]
    fn query_store_backends_agree() {
        let bin_path = temp("stores.bin");
        run(&[
            "generate", "--kind", "insect", "--len", "3000", "--seed", "11", "--out", &bin_path,
        ])
        .unwrap();
        let positions = |r: &str| -> Vec<String> {
            r.lines()
                .filter(|l| l.trim_start().starts_with("position"))
                .map(str::to_string)
                .collect()
        };
        let mut answers = Vec::new();
        for store in ["memory", "disk", "disk-cached", "mmap"] {
            let report = run(&[
                "query",
                "--series",
                &bin_path,
                "--epsilon",
                "0.5",
                "--len",
                "100",
                "--query-start",
                "400",
                "--store",
                store,
            ])
            .unwrap();
            assert!(report.contains(&format!("store={store}")), "{report}");
            assert!(report.contains("twins found"), "{store}: {report}");
            answers.push(positions(&report));
        }
        for other in &answers[1..] {
            assert_eq!(&answers[0], other, "stores disagree");
        }

        // A sharded engine answers identically on every store backend.
        for store in ["memory", "mmap"] {
            let sharded = run(&[
                "query",
                "--series",
                &bin_path,
                "--epsilon",
                "0.5",
                "--len",
                "100",
                "--query-start",
                "400",
                "--store",
                store,
                "--shards",
                "3",
                "--threads",
                "2",
            ])
            .unwrap();
            assert!(sharded.contains("shards=3"), "{sharded}");
            assert_eq!(positions(&sharded), answers[0], "sharded on {store}");
        }
        // --top-k is rejected together with --shards.
        assert!(matches!(
            run(&[
                "query",
                "--series",
                &bin_path,
                "--epsilon",
                "0.5",
                "--shards",
                "2",
                "--top-k",
                "3"
            ]),
            Err(CliError::Args(_))
        ));

        // Unknown stores are argument errors.
        assert!(matches!(
            run(&[
                "query",
                "--series",
                &bin_path,
                "--epsilon",
                "0.5",
                "--store",
                "tape"
            ]),
            Err(CliError::Args(_))
        ));
        std::fs::remove_file(&bin_path).ok();
    }

    #[test]
    fn ingest_with_shards_stripes_the_stream() {
        let src_path = temp("sharded_stream.txt");
        run(&[
            "generate", "--kind", "sine", "--len", "3000", "--seed", "8", "--out", &src_path,
        ])
        .unwrap();

        let report = run(&[
            "ingest",
            "--source",
            &src_path,
            "--epsilon",
            "0.2",
            "--len",
            "60",
            "--chunk",
            "400",
            "--shards",
            "3",
            "--stripe",
            "300",
            "--stats",
        ])
        .unwrap();
        assert!(report.contains("3 shards"), "{report}");
        assert!(report.contains("total     3000"), "{report}");
        assert!(report.contains("ingest stats:"), "{report}");

        // The sharded final twin count equals the unsharded one.
        let unsharded = run(&[
            "ingest",
            "--source",
            &src_path,
            "--epsilon",
            "0.2",
            "--len",
            "60",
            "--chunk",
            "400",
        ])
        .unwrap();
        let final_twins = |r: &str| -> String {
            r.lines()
                .rfind(|l| l.contains("total     3000"))
                .map(|l| l.split('|').nth(2).unwrap_or("").trim().to_string())
                .unwrap_or_default()
        };
        assert_eq!(final_twins(&report), final_twins(&unsharded));

        std::fs::remove_file(&src_path).ok();
    }

    #[test]
    fn ingest_store_option_selects_backend() {
        let src_path = temp("store_stream.txt");
        run(&[
            "generate", "--kind", "sine", "--len", "1200", "--seed", "6", "--out", &src_path,
        ])
        .unwrap();

        // --store log without --log uses a temporary append log.
        let report = run(&[
            "ingest",
            "--source",
            &src_path,
            "--epsilon",
            "0.2",
            "--len",
            "60",
            "--store",
            "log",
        ])
        .unwrap();
        assert!(report.contains("append-log backend"), "{report}");

        // --store memory (the default) stays in memory.
        let mem = run(&[
            "ingest",
            "--source",
            &src_path,
            "--epsilon",
            "0.2",
            "--len",
            "60",
            "--store",
            "memory",
        ])
        .unwrap();
        assert!(mem.contains("memory backend"), "{mem}");

        // Conflicting and unknown choices are argument errors.
        assert!(matches!(
            run(&[
                "ingest",
                "--source",
                &src_path,
                "--epsilon",
                "0.2",
                "--len",
                "60",
                "--store",
                "memory",
                "--log",
                "/tmp/x.tslog",
            ]),
            Err(CliError::Args(_))
        ));
        assert!(matches!(
            run(&[
                "ingest",
                "--source",
                &src_path,
                "--epsilon",
                "0.2",
                "--len",
                "60",
                "--store",
                "mmap",
            ]),
            Err(CliError::Args(_))
        ));
        std::fs::remove_file(&src_path).ok();
    }

    #[test]
    fn method_and_normalization_parsing() {
        assert_eq!(parse_method(Some("ts")).unwrap(), Method::TsIndex);
        assert_eq!(parse_method(Some("sweep")).unwrap(), Method::Sweepline);
        assert_eq!(parse_method(None).unwrap(), Method::TsIndex);
        assert!(parse_method(Some("bogus")).is_err());
        assert_eq!(
            parse_normalization(Some("raw")).unwrap(),
            Normalization::None
        );
        assert_eq!(
            parse_normalization(None).unwrap(),
            Normalization::WholeSeries
        );
        assert!(parse_normalization(Some("bogus")).is_err());
    }

    #[test]
    fn info_rejects_missing_file() {
        assert!(run(&["info", "--series", "/definitely/not/here.txt"]).is_err());
    }

    #[test]
    fn serve_and_client_round_trip_over_unix_socket() {
        let socket = temp("daemon.sock");
        let data = temp("daemon_data");
        let series = temp("daemon_series.txt");
        let query = temp("daemon_query.txt");
        std::fs::remove_dir_all(&data).ok();
        run(&[
            "generate", "--kind", "sine", "--len", "600", "--seed", "12", "--out", &series,
        ])
        .unwrap();
        let values = load_series(&series).unwrap();
        text::write_file(&query, &values[200..250]).unwrap();

        let server = {
            let socket = socket.clone();
            let data = data.clone();
            std::thread::spawn(move || {
                run(&[
                    "serve",
                    "--data",
                    &data,
                    "--socket",
                    &socket,
                    "--group-commit-delay-us",
                    "200",
                    "--group-commit-count",
                    "4",
                    "--snapshot-store",
                    "mmap",
                    "--slow-query-ms",
                    "0",
                ])
            })
        };
        // Wait for the daemon to bind its socket.
        for _ in 0..500 {
            if std::path::Path::new(&socket).exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let created = run(&[
            "client",
            "--socket",
            &socket,
            "--op",
            "create",
            "--tenant",
            "t1",
            "--method",
            "ts-index",
            "--len",
            "50",
            "--initial",
            &series,
        ])
        .unwrap();
        assert!(created.contains("created tenant 't1'"), "{created}");
        assert!(created.contains("ready"), "{created}");

        let appended = run(&[
            "client",
            "--socket",
            &socket,
            "--op",
            "append",
            "--tenant",
            "t1",
            "--values",
            "0.5,0.6,0.7",
        ])
        .unwrap();
        assert!(appended.contains("len 603"), "{appended}");

        let queried = run(&[
            "client",
            "--socket",
            &socket,
            "--op",
            "query",
            "--tenant",
            "t1",
            "--epsilon",
            "0.1",
            "--query-file",
            &query,
        ])
        .unwrap();
        assert!(queried.contains("twins in 't1'"), "{queried}");
        assert!(queried.contains("position 200"), "{queried}");

        let stats = run(&["client", "--socket", &socket, "--op", "stats"]).unwrap();
        assert!(stats.contains("tenant t1"), "{stats}");
        assert!(stats.contains("len 603"), "{stats}");
        assert!(stats.contains("p99"), "{stats}");
        assert!(stats.contains("wal:"), "{stats}");
        assert!(stats.contains("fsync p50"), "{stats}");
        assert!(stats.contains("checkpoint lag:"), "{stats}");

        // --json renders the same stats as a machine-readable array.
        let json = run(&["client", "--socket", &socket, "--op", "stats", "--json"]).unwrap();
        assert!(json.trim_start().starts_with('['), "{json}");
        for key in [
            "\"name\":\"t1\"",
            "\"series_len\":603",
            "\"latency_ms\":{\"count\":",
            "\"checkpoint_stuck\":false",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }

        // The metrics op scrapes the process-global registry.
        let metrics = run(&["client", "--socket", &socket, "--op", "metrics"]).unwrap();
        for series in [
            "twin_requests_total",
            "twin_admission_admitted_total",
            "twin_query_duration_ms",
            "twin_wal_fsync_ms",
        ] {
            assert!(metrics.contains(series), "missing {series} in {metrics}");
        }

        // --slow-query-ms 0 traces everything; the query shows up.
        let traces = run(&["client", "--socket", &socket, "--op", "trace"]).unwrap();
        assert!(traces.contains("op=query tenant=t1"), "{traces}");
        assert!(traces.contains("admission_wait_ms="), "{traces}");

        // Manual checkpoint compacts the tenant's WAL; a second one is a
        // no-op because nothing new became durable in between.
        let ckpt = run(&[
            "client",
            "--socket",
            &socket,
            "--op",
            "checkpoint",
            "--tenant",
            "t1",
        ])
        .unwrap();
        assert!(ckpt.contains("snapshot covers 603 values"), "{ckpt}");
        let again = run(&[
            "client",
            "--socket",
            &socket,
            "--op",
            "checkpoint",
            "--tenant",
            "t1",
        ])
        .unwrap();
        assert!(again.contains("nothing new"), "{again}");

        // Server errors surface as run errors, not panics.
        assert!(matches!(
            run(&[
                "client", "--socket", &socket, "--op", "append", "--tenant", "ghost", "--values",
                "1.0",
            ]),
            Err(CliError::Run(_))
        ));

        let bye = run(&["client", "--socket", &socket, "--op", "shutdown"]).unwrap();
        assert!(bye.contains("shutting down"), "{bye}");
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("serving"), "{served}");
        assert!(served.contains("shutdown complete"), "{served}");

        std::fs::remove_file(&socket).ok();
        std::fs::remove_file(&series).ok();
        std::fs::remove_file(&query).ok();
        std::fs::remove_dir_all(&data).ok();
    }

    #[test]
    fn serve_and_client_argument_validation() {
        // Endpoint selection is mandatory and exclusive.
        assert!(matches!(
            run(&["serve", "--data", "/tmp/x"]),
            Err(CliError::Args(_))
        ));
        assert!(matches!(
            run(&[
                "serve",
                "--data",
                "/tmp/x",
                "--socket",
                "/tmp/a",
                "--listen",
                "127.0.0.1:0"
            ]),
            Err(CliError::Args(_))
        ));
        assert!(matches!(
            run(&["client", "--op", "stats"]),
            Err(CliError::Args(_))
        ));
        assert!(matches!(
            run(&[
                "client",
                "--socket",
                "/tmp/a",
                "--connect",
                "127.0.0.1:1",
                "--op",
                "stats"
            ]),
            Err(CliError::Args(_))
        ));
        // A bad op or payload is rejected before connecting anywhere only
        // when the endpoint itself is missing; with an endpoint that does
        // not resolve, the connection error is a run error.
        assert!(matches!(
            run(&[
                "client",
                "--socket",
                "/definitely/not/here.sock",
                "--op",
                "stats"
            ]),
            Err(CliError::Run(_))
        ));
    }
}
