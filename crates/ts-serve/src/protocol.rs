//! The `twin serve` wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! +----------------+---------+--------+------------------+
//! | payload length | version | opcode | body (payload-2) |
//! |   u32 LE       |  u8 =2  |  u8    |                  |
//! +----------------+---------+--------+------------------+
//! ```
//!
//! The length prefix counts the payload (version + opcode + body), not
//! itself.  Frames larger than [`MAX_FRAME_BYTES`] are rejected before any
//! allocation, so a hostile length prefix cannot balloon memory.  All
//! integers are little-endian; strings are `u16` length + UTF-8 bytes;
//! `f64` arrays are `u32` count + IEEE-754 LE values; position arrays are
//! `u32` count + `u64` values.  See `docs/protocol.md` for the normative
//! description, opcode table and error-code table.
//!
//! The encode/decode functions here are pure (`&[u8]` ⟷ types); the
//! [`read_frame`] / [`write_frame`] helpers do the I/O — one `write` and,
//! through a buffered reader, one `read` per small frame.  Both the server
//! and the [`crate::Client`] are built from exactly these functions, so a
//! round-trip property test over arbitrary requests/responses pins the
//! format.

use std::io::{Read, Write};
use std::time::Duration;

use ts_core::query::{SearchOutcome, SearchStats, TwinQuery};
use ts_core::stats::LatencySummary;
use twin_search::{Method, TenantStats};

/// Protocol version carried in every frame.  Version 2 added the
/// `Checkpoint` request and the WAL counter block in `STATS_OK`; version 3
/// added the `Metrics` / `Trace` requests (Prometheus exposition and
/// recent slow-query traces as `u32`-length text blobs) and the
/// checkpoint-lag block in `STATS_OK`.
pub const PROTOCOL_VERSION: u8 = 3;

/// Hard cap on a frame's payload: 64 MiB (≈ 8M points per append).
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Request opcodes (`0x01..=0x08`).
mod op {
    pub const QUERY: u8 = 0x01;
    pub const APPEND: u8 = 0x02;
    pub const CREATE_TENANT: u8 = 0x03;
    pub const STATS: u8 = 0x04;
    pub const SHUTDOWN: u8 = 0x05;
    pub const CHECKPOINT: u8 = 0x06;
    pub const METRICS: u8 = 0x07;
    pub const TRACE: u8 = 0x08;
    pub const ERROR: u8 = 0x80;
    pub const QUERY_OK: u8 = 0x81;
    pub const APPEND_OK: u8 = 0x82;
    pub const CREATED: u8 = 0x83;
    pub const STATS_OK: u8 = 0x84;
    pub const SHUTTING_DOWN: u8 = 0x85;
    pub const CHECKPOINT_OK: u8 = 0x86;
    pub const METRICS_OK: u8 = 0x87;
    pub const TRACE_OK: u8 = 0x88;
}

/// A malformed or oversized frame.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// Claimed payload length.
        claimed: u32,
    },
    /// The frame's version byte is not [`PROTOCOL_VERSION`].
    VersionMismatch {
        /// Version byte received.
        got: u8,
    },
    /// The payload could not be decoded (bad opcode, truncated body,
    /// invalid UTF-8, unknown enum value …).
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::FrameTooLarge { claimed } => write!(
                f,
                "frame of {claimed} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            ),
            ProtocolError::VersionMismatch { got } => {
                write!(f, "protocol version {got} (expected {PROTOCOL_VERSION})")
            }
            ProtocolError::Malformed(reason) => write!(f, "malformed frame: {reason}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Typed error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request was syntactically valid but semantically wrong
    /// (bad epsilon, bad method name, zero-length window, …).
    BadRequest = 1,
    /// The named tenant does not exist.
    NoSuchTenant = 2,
    /// A tenant of that name already exists.
    TenantExists = 3,
    /// The tenant has not yet ingested one full window; no index exists.
    NotReady = 4,
    /// The admission queue is full; retry later or elsewhere
    /// (backpressure).
    Overloaded = 5,
    /// The request spent its deadline budget queued and was not executed.
    DeadlineExceeded = 6,
    /// The daemon is draining for shutdown and admits no new work.
    ShuttingDown = 7,
    /// An internal storage or engine failure.
    Internal = 8,
}

impl ErrorCode {
    /// Decode from the wire byte.
    pub(crate) fn from_u8(byte: u8) -> Result<Self, ProtocolError> {
        Ok(match byte {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::NoSuchTenant,
            3 => ErrorCode::TenantExists,
            4 => ErrorCode::NotReady,
            5 => ErrorCode::Overloaded,
            6 => ErrorCode::DeadlineExceeded,
            7 => ErrorCode::ShuttingDown,
            8 => ErrorCode::Internal,
            other => {
                return Err(ProtocolError::Malformed(format!(
                    "unknown error code {other}"
                )))
            }
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::NoSuchTenant => "no-such-tenant",
            ErrorCode::TenantExists => "tenant-exists",
            ErrorCode::NotReady => "not-ready",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// A query, as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Query subsequence values.
    pub values: Vec<f64>,
    /// Chebyshev threshold ε.
    pub epsilon: f64,
    /// Cap on returned positions (`None` = all).
    pub limit: Option<usize>,
    /// Count matches without materialising positions.
    pub count_only: bool,
    /// Collect per-query [`SearchStats`].
    pub collect_stats: bool,
    /// Per-request deadline budget in milliseconds (`None` = the server's
    /// default admission deadline).
    pub deadline_ms: Option<u32>,
}

impl QuerySpec {
    /// A plain query: all positions, no stats, server-default deadline.
    #[must_use]
    pub fn new(values: Vec<f64>, epsilon: f64) -> Self {
        QuerySpec {
            values,
            epsilon,
            limit: None,
            count_only: false,
            collect_stats: false,
            deadline_ms: None,
        }
    }

    /// Converts the wire spec into the engine's [`TwinQuery`].
    #[must_use]
    pub fn to_query(&self) -> TwinQuery {
        let mut query = TwinQuery::new(self.values.clone(), self.epsilon);
        if let Some(limit) = self.limit {
            query = query.limit(limit);
        }
        if self.count_only {
            query = query.count_only();
        }
        if self.collect_stats {
            query = query.collect_stats();
        }
        query
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Answer a twin query against a tenant's series.
    Query {
        /// Tenant name.
        tenant: String,
        /// The query.
        spec: QuerySpec,
    },
    /// Append points to a tenant's series (fsynced before the ack).
    Append {
        /// Tenant name.
        tenant: String,
        /// Points to append.
        values: Vec<f64>,
    },
    /// Create a tenant (may start empty and fill towards its first window).
    CreateTenant {
        /// Tenant name.
        tenant: String,
        /// Search method for the tenant's index.
        method: Method,
        /// Subsequence / window length.
        subsequence_len: usize,
        /// Initial points (may be empty).
        initial: Vec<f64>,
    },
    /// Fetch statistics for one tenant (or all loaded tenants).
    Stats {
        /// Tenant name; `None` = every loaded tenant.
        tenant: Option<String>,
    },
    /// Force a WAL checkpoint for a tenant: compact the durable log
    /// prefix into a snapshot and truncate the log to the tail.
    Checkpoint {
        /// Tenant name.
        tenant: String,
    },
    /// Fetch the process-wide metrics registry rendered in the Prometheus
    /// text exposition format.  Answered inline by the daemon (never
    /// queued), so metrics stay readable even under admission overload.
    Metrics,
    /// Fetch the most recent retained request traces, newest first,
    /// rendered one per line.  `limit = 0` returns every retained trace.
    /// Answered inline like [`Request::Metrics`].
    Trace {
        /// Maximum traces to return (0 = all retained).
        limit: u32,
    },
    /// Drain in-flight requests, flush every tenant, exit.
    Shutdown,
}

/// Per-tenant statistics as carried on the wire (times in microseconds,
/// latency summary in milliseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct WireTenantStats {
    /// Tenant name.
    pub name: String,
    /// Method label (kebab-case, parseable by [`Method::from_str`]).
    pub method: String,
    /// Window length.
    pub subsequence_len: u64,
    /// Points ingested.
    pub series_len: u64,
    /// Whether the tenant has an index.
    pub ready: bool,
    /// Points appended over the tenant's lifetime in this process.
    pub points_appended: u64,
    /// Append calls over the tenant's lifetime in this process.
    pub append_calls: u64,
    /// Fresh windows indexed incrementally.
    pub windows_indexed: u64,
    /// Cumulative store write time, µs.
    pub store_time_us: u64,
    /// Cumulative index maintenance time, µs.
    pub maintain_time_us: u64,
    /// Queries answered.
    pub queries: u64,
    /// Latency summary over the recent-query reservoir, milliseconds.
    pub latency_ms: WireLatency,
    /// Durable (group-commit) appends acknowledged by the WAL.
    pub wal_appends: u64,
    /// fsyncs the WAL actually issued.
    pub wal_fsyncs: u64,
    /// fsyncs avoided by riding another append's group commit.
    pub wal_fsyncs_saved: u64,
    /// Largest number of appends covered by a single fsync.
    pub wal_max_batch: u64,
    /// Checkpoints taken (background + manual).
    pub wal_checkpoints: u64,
    /// Log-tail values replayed by the most recent open of this WAL.
    pub wal_recovery_tail: u64,
    /// Append-fsync latency summary, milliseconds.
    pub fsync_ms: WireLatency,
    /// Records in the WAL tail not yet covered by a checkpoint.
    pub checkpoint_lag_records: u64,
    /// Bytes in the WAL tail not yet covered by a checkpoint.
    pub checkpoint_lag_bytes: u64,
    /// Latched checkpoint-lag watchdog alert.
    pub checkpoint_stuck: bool,
}

/// A [`LatencySummary`] on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireLatency {
    /// Samples aggregated.
    pub count: u64,
    /// Mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl From<LatencySummary> for WireLatency {
    fn from(s: LatencySummary) -> Self {
        WireLatency {
            count: s.count as u64,
            mean: s.mean,
            p50: s.p50,
            p95: s.p95,
            p99: s.p99,
        }
    }
}

impl From<&TenantStats> for WireTenantStats {
    fn from(s: &TenantStats) -> Self {
        WireTenantStats {
            name: s.name.clone(),
            method: s.method.label().to_string(),
            subsequence_len: s.subsequence_len as u64,
            series_len: s.series_len as u64,
            ready: s.ready,
            points_appended: s.ingest.points_appended as u64,
            append_calls: s.ingest.append_calls as u64,
            windows_indexed: s.ingest.windows_indexed as u64,
            store_time_us: s.ingest.store_time.as_micros() as u64,
            maintain_time_us: s.ingest.maintain_time.as_micros() as u64,
            queries: s.queries,
            latency_ms: s.query_latency_ms.into(),
            wal_appends: s.wal.appends,
            wal_fsyncs: s.wal.fsyncs,
            wal_fsyncs_saved: s.wal.fsyncs_saved,
            wal_max_batch: s.wal.max_batch,
            wal_checkpoints: s.wal.checkpoints,
            wal_recovery_tail: s.wal.last_recovery_tail_values,
            fsync_ms: s.wal.fsync_ms.into(),
            checkpoint_lag_records: s.checkpoint_lag_records,
            checkpoint_lag_bytes: s.checkpoint_lag_bytes,
            checkpoint_stuck: s.checkpoint_stuck,
        }
    }
}

/// Search statistics on the wire (subset of [`SearchStats`], µs times).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSearchStats {
    /// Candidates the filter produced.
    pub candidates_generated: u64,
    /// Candidates exactly verified.
    pub candidates_verified: u64,
    /// Index nodes visited.
    pub nodes_visited: u64,
    /// Index subtrees pruned.
    pub nodes_pruned: u64,
    /// Filtering time, µs.
    pub filter_time_us: u64,
    /// Verification time, µs.
    pub verify_time_us: u64,
}

impl From<&SearchStats> for WireSearchStats {
    fn from(s: &SearchStats) -> Self {
        WireSearchStats {
            candidates_generated: s.candidates_generated as u64,
            candidates_verified: s.candidates_verified as u64,
            nodes_visited: s.nodes_visited as u64,
            nodes_pruned: s.nodes_pruned as u64,
            filter_time_us: s.filter_time.as_micros() as u64,
            verify_time_us: s.verify_time.as_micros() as u64,
        }
    }
}

/// A query answer on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Method name that answered (e.g. `"TS-Index"`).
    pub method: String,
    /// Matching positions (empty under `count_only`).
    pub positions: Vec<u64>,
    /// Total matches (≥ `positions.len()` under a limit).
    pub match_count: u64,
    /// Worker threads used.
    pub threads_used: u32,
    /// Server-side execution time, µs.
    pub query_time_us: u64,
    /// Execution statistics, if requested.
    pub stats: Option<WireSearchStats>,
}

impl QueryReply {
    /// Builds the wire reply from an engine outcome.
    #[must_use]
    pub fn from_outcome(outcome: &SearchOutcome) -> Self {
        QueryReply {
            method: outcome.method.to_string(),
            positions: outcome.positions.iter().map(|&p| p as u64).collect(),
            match_count: outcome.match_count as u64,
            threads_used: outcome.threads_used as u32,
            query_time_us: outcome.query_time.as_micros() as u64,
            stats: outcome.stats.as_ref().map(WireSearchStats::from),
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed; see the code and human-readable message.
    Error {
        /// Typed error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to [`Request::Query`].
    Query(QueryReply),
    /// Answer to [`Request::Append`].
    Append {
        /// Series length after the append (the acknowledged, fsynced
        /// prefix a restarted daemon must recover).
        new_len: u64,
        /// Fresh windows indexed by this append.
        windows_indexed: u64,
    },
    /// Answer to [`Request::CreateTenant`].
    Created {
        /// Whether the tenant is immediately queryable.
        ready: bool,
        /// Initial series length.
        len: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats(Vec<WireTenantStats>),
    /// Answer to [`Request::Checkpoint`].
    Checkpointed {
        /// Values the snapshot now covers; 0 when nothing new was durable
        /// (the checkpoint was a no-op).
        covered: u64,
    },
    /// Answer to [`Request::Metrics`]: the Prometheus text exposition.
    /// Carried as a `u32`-length blob — expositions routinely outgrow the
    /// `u16` string cap.
    Metrics {
        /// Prometheus-text-format exposition of every registered series.
        text: String,
    },
    /// Answer to [`Request::Trace`]: rendered trace lines, newest first.
    Traces {
        /// One rendered trace per line (may be empty).
        text: String,
    },
    /// Answer to [`Request::Shutdown`]: the daemon is draining.
    ShuttingDown,
}

// ---------------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.pos + n > self.buf.len() {
            return Err(ProtocolError::Malformed(format!(
                "truncated frame: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtocolError::Malformed("string is not valid UTF-8".into()))
    }

    /// A `u32`-length UTF-8 blob: large text payloads (metrics
    /// expositions, trace dumps) that outgrow the `u16` string cap.  The
    /// length is still bounded by the frame cap checked before decoding.
    fn blob(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtocolError::Malformed("blob is not valid UTF-8".into()))
    }

    fn f64_array(&mut self) -> Result<Vec<f64>, ProtocolError> {
        let count = self.u32()? as usize;
        // The count is bounded by the already-capped frame size; still,
        // size-check before allocating so a lying count cannot balloon.
        if count * 8 > self.buf.len() - self.pos {
            return Err(ProtocolError::Malformed(format!(
                "f64 array of {count} values exceeds the frame"
            )));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn u64_array(&mut self) -> Result<Vec<u64>, ProtocolError> {
        let count = self.u32()? as usize;
        if count * 8 > self.buf.len() - self.pos {
            return Err(ProtocolError::Malformed(format!(
                "u64 array of {count} values exceeds the frame"
            )));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos != self.buf.len() {
            return Err(ProtocolError::Malformed(format!(
                "{} trailing bytes after the payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_string(buf: &mut Vec<u8>, s: &str) -> Result<(), ProtocolError> {
    let len: u16 = s.len().try_into().map_err(|_| {
        ProtocolError::Malformed(format!("string of {} bytes (max 65535)", s.len()))
    })?;
    put_u16(buf, len);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_blob(buf: &mut Vec<u8>, s: &str) -> Result<(), ProtocolError> {
    let len: u32 = s
        .len()
        .try_into()
        .map_err(|_| ProtocolError::Malformed("blob too long for u32 length".into()))?;
    put_u32(buf, len);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_f64_array(buf: &mut Vec<u8>, values: &[f64]) -> Result<(), ProtocolError> {
    let count: u32 = values
        .len()
        .try_into()
        .map_err(|_| ProtocolError::Malformed("array too long for u32 count".into()))?;
    put_u32(buf, count);
    for &v in values {
        put_f64(buf, v);
    }
    Ok(())
}

fn put_u64_array(buf: &mut Vec<u8>, values: &[u64]) -> Result<(), ProtocolError> {
    let count: u32 = values
        .len()
        .try_into()
        .map_err(|_| ProtocolError::Malformed("array too long for u32 count".into()))?;
    put_u32(buf, count);
    for &v in values {
        put_u64(buf, v);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Encode / decode
// ---------------------------------------------------------------------------

fn payload(opcode: u8) -> Vec<u8> {
    vec![PROTOCOL_VERSION, opcode]
}

/// Encodes a request into a frame payload (version + opcode + body).
///
/// # Errors
///
/// Returns [`ProtocolError::Malformed`] when a field exceeds its wire
/// representation (oversized strings or arrays).
pub fn encode_request(request: &Request) -> Result<Vec<u8>, ProtocolError> {
    Ok(match request {
        Request::Query { tenant, spec } => {
            let mut buf = payload(op::QUERY);
            put_string(&mut buf, tenant)?;
            put_f64(&mut buf, spec.epsilon);
            buf.push(u8::from(spec.count_only) | (u8::from(spec.collect_stats) << 1));
            put_u32(
                &mut buf,
                spec.limit
                    .map_or(0, |l| l.min(u32::MAX as usize - 1) as u32 + 1),
            );
            put_u32(&mut buf, spec.deadline_ms.map_or(0, |d| d.max(1)));
            put_f64_array(&mut buf, &spec.values)?;
            buf
        }
        Request::Append { tenant, values } => {
            let mut buf = payload(op::APPEND);
            put_string(&mut buf, tenant)?;
            put_f64_array(&mut buf, values)?;
            buf
        }
        Request::CreateTenant {
            tenant,
            method,
            subsequence_len,
            initial,
        } => {
            let mut buf = payload(op::CREATE_TENANT);
            put_string(&mut buf, tenant)?;
            put_string(&mut buf, method.label())?;
            put_u64(&mut buf, *subsequence_len as u64);
            put_f64_array(&mut buf, initial)?;
            buf
        }
        Request::Stats { tenant } => {
            let mut buf = payload(op::STATS);
            put_string(&mut buf, tenant.as_deref().unwrap_or(""))?;
            buf
        }
        Request::Checkpoint { tenant } => {
            let mut buf = payload(op::CHECKPOINT);
            put_string(&mut buf, tenant)?;
            buf
        }
        Request::Metrics => payload(op::METRICS),
        Request::Trace { limit } => {
            let mut buf = payload(op::TRACE);
            put_u32(&mut buf, *limit);
            buf
        }
        Request::Shutdown => payload(op::SHUTDOWN),
    })
}

/// Decodes a frame payload into a request.
///
/// # Errors
///
/// [`ProtocolError::VersionMismatch`] / [`ProtocolError::Malformed`].
pub fn decode_request(buf: &[u8]) -> Result<Request, ProtocolError> {
    let mut cursor = Cursor::new(buf);
    let version = cursor.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::VersionMismatch { got: version });
    }
    let opcode = cursor.u8()?;
    let request = match opcode {
        op::QUERY => {
            let tenant = cursor.string()?;
            let epsilon = cursor.f64()?;
            let flags = cursor.u8()?;
            let limit_raw = cursor.u32()?;
            let deadline_raw = cursor.u32()?;
            let values = cursor.f64_array()?;
            Request::Query {
                tenant,
                spec: QuerySpec {
                    values,
                    epsilon,
                    limit: (limit_raw > 0).then(|| limit_raw as usize - 1),
                    count_only: flags & 1 != 0,
                    collect_stats: flags & 2 != 0,
                    deadline_ms: (deadline_raw > 0).then_some(deadline_raw),
                },
            }
        }
        op::APPEND => Request::Append {
            tenant: cursor.string()?,
            values: cursor.f64_array()?,
        },
        op::CREATE_TENANT => {
            let tenant = cursor.string()?;
            let method_label = cursor.string()?;
            let method = method_label
                .parse::<Method>()
                .map_err(|e| ProtocolError::Malformed(e.to_string()))?;
            let subsequence_len = cursor.u64()? as usize;
            let initial = cursor.f64_array()?;
            Request::CreateTenant {
                tenant,
                method,
                subsequence_len,
                initial,
            }
        }
        op::STATS => {
            let tenant = cursor.string()?;
            Request::Stats {
                tenant: (!tenant.is_empty()).then_some(tenant),
            }
        }
        op::CHECKPOINT => Request::Checkpoint {
            tenant: cursor.string()?,
        },
        op::METRICS => Request::Metrics,
        op::TRACE => Request::Trace {
            limit: cursor.u32()?,
        },
        op::SHUTDOWN => Request::Shutdown,
        other => {
            return Err(ProtocolError::Malformed(format!(
                "unknown request opcode {other:#04x}"
            )))
        }
    };
    cursor.finish()?;
    Ok(request)
}

fn put_latency(buf: &mut Vec<u8>, latency: &WireLatency) {
    put_u64(buf, latency.count);
    put_f64(buf, latency.mean);
    put_f64(buf, latency.p50);
    put_f64(buf, latency.p95);
    put_f64(buf, latency.p99);
}

fn read_latency(cursor: &mut Cursor<'_>) -> Result<WireLatency, ProtocolError> {
    Ok(WireLatency {
        count: cursor.u64()?,
        mean: cursor.f64()?,
        p50: cursor.f64()?,
        p95: cursor.f64()?,
        p99: cursor.f64()?,
    })
}

/// Encodes a response into a frame payload.
///
/// # Errors
///
/// Returns [`ProtocolError::Malformed`] for fields exceeding their wire
/// representation.
pub fn encode_response(response: &Response) -> Result<Vec<u8>, ProtocolError> {
    Ok(match response {
        Response::Error { code, message } => {
            let mut buf = payload(op::ERROR);
            buf.push(*code as u8);
            put_string(&mut buf, message)?;
            buf
        }
        Response::Query(reply) => {
            let mut buf = payload(op::QUERY_OK);
            put_string(&mut buf, &reply.method)?;
            put_u64(&mut buf, reply.match_count);
            put_u32(&mut buf, reply.threads_used);
            put_u64(&mut buf, reply.query_time_us);
            put_u64_array(&mut buf, &reply.positions)?;
            match &reply.stats {
                None => buf.push(0),
                Some(stats) => {
                    buf.push(1);
                    put_u64(&mut buf, stats.candidates_generated);
                    put_u64(&mut buf, stats.candidates_verified);
                    put_u64(&mut buf, stats.nodes_visited);
                    put_u64(&mut buf, stats.nodes_pruned);
                    put_u64(&mut buf, stats.filter_time_us);
                    put_u64(&mut buf, stats.verify_time_us);
                }
            }
            buf
        }
        Response::Append {
            new_len,
            windows_indexed,
        } => {
            let mut buf = payload(op::APPEND_OK);
            put_u64(&mut buf, *new_len);
            put_u64(&mut buf, *windows_indexed);
            buf
        }
        Response::Created { ready, len } => {
            let mut buf = payload(op::CREATED);
            buf.push(u8::from(*ready));
            put_u64(&mut buf, *len);
            buf
        }
        Response::Stats(tenants) => {
            let mut buf = payload(op::STATS_OK);
            let count: u16 = tenants
                .len()
                .try_into()
                .map_err(|_| ProtocolError::Malformed("too many tenants for one frame".into()))?;
            put_u16(&mut buf, count);
            for t in tenants {
                put_string(&mut buf, &t.name)?;
                put_string(&mut buf, &t.method)?;
                put_u64(&mut buf, t.subsequence_len);
                put_u64(&mut buf, t.series_len);
                buf.push(u8::from(t.ready));
                put_u64(&mut buf, t.points_appended);
                put_u64(&mut buf, t.append_calls);
                put_u64(&mut buf, t.windows_indexed);
                put_u64(&mut buf, t.store_time_us);
                put_u64(&mut buf, t.maintain_time_us);
                put_u64(&mut buf, t.queries);
                put_latency(&mut buf, &t.latency_ms);
                put_u64(&mut buf, t.wal_appends);
                put_u64(&mut buf, t.wal_fsyncs);
                put_u64(&mut buf, t.wal_fsyncs_saved);
                put_u64(&mut buf, t.wal_max_batch);
                put_u64(&mut buf, t.wal_checkpoints);
                put_u64(&mut buf, t.wal_recovery_tail);
                put_latency(&mut buf, &t.fsync_ms);
                put_u64(&mut buf, t.checkpoint_lag_records);
                put_u64(&mut buf, t.checkpoint_lag_bytes);
                buf.push(u8::from(t.checkpoint_stuck));
            }
            buf
        }
        Response::Checkpointed { covered } => {
            let mut buf = payload(op::CHECKPOINT_OK);
            put_u64(&mut buf, *covered);
            buf
        }
        Response::Metrics { text } => {
            let mut buf = payload(op::METRICS_OK);
            put_blob(&mut buf, text)?;
            buf
        }
        Response::Traces { text } => {
            let mut buf = payload(op::TRACE_OK);
            put_blob(&mut buf, text)?;
            buf
        }
        Response::ShuttingDown => payload(op::SHUTTING_DOWN),
    })
}

/// Decodes a frame payload into a response.
///
/// # Errors
///
/// [`ProtocolError::VersionMismatch`] / [`ProtocolError::Malformed`].
pub fn decode_response(buf: &[u8]) -> Result<Response, ProtocolError> {
    let mut cursor = Cursor::new(buf);
    let version = cursor.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::VersionMismatch { got: version });
    }
    let opcode = cursor.u8()?;
    let response = match opcode {
        op::ERROR => {
            let code = ErrorCode::from_u8(cursor.u8()?)?;
            let message = cursor.string()?;
            Response::Error { code, message }
        }
        op::QUERY_OK => {
            let method = cursor.string()?;
            let match_count = cursor.u64()?;
            let threads_used = cursor.u32()?;
            let query_time_us = cursor.u64()?;
            let positions = cursor.u64_array()?;
            let stats = match cursor.u8()? {
                0 => None,
                1 => Some(WireSearchStats {
                    candidates_generated: cursor.u64()?,
                    candidates_verified: cursor.u64()?,
                    nodes_visited: cursor.u64()?,
                    nodes_pruned: cursor.u64()?,
                    filter_time_us: cursor.u64()?,
                    verify_time_us: cursor.u64()?,
                }),
                other => {
                    return Err(ProtocolError::Malformed(format!(
                        "bad stats marker {other}"
                    )))
                }
            };
            Response::Query(QueryReply {
                method,
                positions,
                match_count,
                threads_used,
                query_time_us,
                stats,
            })
        }
        op::APPEND_OK => Response::Append {
            new_len: cursor.u64()?,
            windows_indexed: cursor.u64()?,
        },
        op::CREATED => {
            let ready = cursor.u8()? != 0;
            let len = cursor.u64()?;
            Response::Created { ready, len }
        }
        op::STATS_OK => {
            let count = cursor.u16()? as usize;
            let mut tenants = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                tenants.push(WireTenantStats {
                    name: cursor.string()?,
                    method: cursor.string()?,
                    subsequence_len: cursor.u64()?,
                    series_len: cursor.u64()?,
                    ready: cursor.u8()? != 0,
                    points_appended: cursor.u64()?,
                    append_calls: cursor.u64()?,
                    windows_indexed: cursor.u64()?,
                    store_time_us: cursor.u64()?,
                    maintain_time_us: cursor.u64()?,
                    queries: cursor.u64()?,
                    latency_ms: read_latency(&mut cursor)?,
                    wal_appends: cursor.u64()?,
                    wal_fsyncs: cursor.u64()?,
                    wal_fsyncs_saved: cursor.u64()?,
                    wal_max_batch: cursor.u64()?,
                    wal_checkpoints: cursor.u64()?,
                    wal_recovery_tail: cursor.u64()?,
                    fsync_ms: read_latency(&mut cursor)?,
                    checkpoint_lag_records: cursor.u64()?,
                    checkpoint_lag_bytes: cursor.u64()?,
                    checkpoint_stuck: cursor.u8()? != 0,
                });
            }
            Response::Stats(tenants)
        }
        op::CHECKPOINT_OK => Response::Checkpointed {
            covered: cursor.u64()?,
        },
        op::METRICS_OK => Response::Metrics {
            text: cursor.blob()?,
        },
        op::TRACE_OK => Response::Traces {
            text: cursor.blob()?,
        },
        op::SHUTTING_DOWN => Response::ShuttingDown,
        other => {
            return Err(ProtocolError::Malformed(format!(
                "unknown response opcode {other:#04x}"
            )))
        }
    };
    cursor.finish()?;
    Ok(response)
}

// ---------------------------------------------------------------------------
// Framing I/O
// ---------------------------------------------------------------------------

/// Size of a connection's frame-assembly buffer: a frame that fits is one
/// `write`; of a larger one the prefix travels with the first bytes of the
/// payload and the rest follows without a copy.
const FRAME_BUFFER_BYTES: usize = 64 * 1024;

/// Writes one frame — length prefix and payload assembled in `buffer` (the
/// connection's, reused from frame to frame) and handed to the transport in
/// a single `write_all` — and flushes.  The prefix never travels alone: on
/// a TCP socket a 4-byte segment followed by the rest is what Nagle's
/// algorithm and the peer's delayed ACK turn into a timer.
///
/// # Errors
///
/// [`ProtocolError::FrameTooLarge`] for an oversized payload; I/O errors.
pub fn write_frame<W: Write>(
    writer: &mut W,
    buffer: &mut Vec<u8>,
    frame_payload: &[u8],
) -> Result<(), ProtocolError> {
    let len: u32 = frame_payload
        .len()
        .try_into()
        .map_err(|_| ProtocolError::FrameTooLarge { claimed: u32::MAX })?;
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::FrameTooLarge { claimed: len });
    }
    let (head, rest) = frame_payload.split_at(frame_payload.len().min(FRAME_BUFFER_BYTES - 4));
    buffer.clear();
    buffer.extend_from_slice(&len.to_le_bytes());
    buffer.extend_from_slice(head);
    writer.write_all(buffer)?;
    writer.write_all(rest)?; // no write at all for a frame that fitted
    writer.flush()?;
    Ok(())
}

/// Reads one frame's payload.  Returns `Ok(None)` on a clean EOF *before*
/// the length prefix (the peer closed between requests); a tear mid-frame
/// is an error.  Hand it a buffered reader: a small frame is then one
/// `read` on the transport.
///
/// # Errors
///
/// [`ProtocolError::FrameTooLarge`] for a hostile length prefix; I/O
/// errors (including timeouts set on the underlying socket).
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = reader.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(ProtocolError::Malformed(
                "connection closed mid length prefix".into(),
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::FrameTooLarge { claimed: len });
    }
    let mut frame_payload = vec![0u8; len as usize];
    reader.read_exact(&mut frame_payload)?;
    Ok(Some(frame_payload))
}

/// Milliseconds → [`Duration`] helper used for wire deadline budgets.
#[must_use]
pub fn deadline_from_ms(ms: u32) -> Duration {
    Duration::from_millis(u64::from(ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: &Request) -> Request {
        decode_request(&encode_request(request).unwrap()).unwrap()
    }

    fn round_trip_response(response: &Response) -> Response {
        decode_response(&encode_response(response).unwrap()).unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Query {
                tenant: "alpha".into(),
                spec: QuerySpec {
                    values: vec![1.5, -2.25, 0.0],
                    epsilon: 0.125,
                    limit: Some(10),
                    count_only: true,
                    collect_stats: true,
                    deadline_ms: Some(250),
                },
            },
            Request::Query {
                tenant: "t".into(),
                spec: QuerySpec::new(vec![0.5; 64], 0.1),
            },
            Request::Append {
                tenant: "beta-2".into(),
                values: (0..100).map(|i| i as f64 * 0.5).collect(),
            },
            Request::CreateTenant {
                tenant: "gamma_3".into(),
                method: Method::TsIndex,
                subsequence_len: 128,
                initial: vec![],
            },
            Request::Stats { tenant: None },
            Request::Stats {
                tenant: Some("alpha".into()),
            },
            Request::Checkpoint {
                tenant: "alpha".into(),
            },
            Request::Metrics,
            Request::Trace { limit: 0 },
            Request::Trace { limit: 32 },
            Request::Shutdown,
        ];
        for request in &requests {
            assert_eq!(&round_trip_request(request), request);
        }
    }

    #[test]
    fn limit_zero_is_distinct_from_no_limit() {
        // limit: Some(0) ("count but return nothing") must survive the
        // wire distinctly from limit: None ("return everything").
        for limit in [None, Some(0), Some(1), Some(4096)] {
            let request = Request::Query {
                tenant: "t".into(),
                spec: QuerySpec {
                    limit,
                    ..QuerySpec::new(vec![1.0], 0.5)
                },
            };
            match round_trip_request(&request) {
                Request::Query { spec, .. } => assert_eq!(spec.limit, limit),
                other => panic!("wrong variant {other:?}"),
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            },
            Response::Query(QueryReply {
                method: "TS-Index".into(),
                positions: vec![0, 17, 4096],
                match_count: 3,
                threads_used: 4,
                query_time_us: 1234,
                stats: Some(WireSearchStats {
                    candidates_generated: 100,
                    candidates_verified: 40,
                    nodes_visited: 12,
                    nodes_pruned: 7,
                    filter_time_us: 800,
                    verify_time_us: 400,
                }),
            }),
            Response::Query(QueryReply {
                method: "Sweepline".into(),
                positions: vec![],
                match_count: 0,
                threads_used: 1,
                query_time_us: 0,
                stats: None,
            }),
            Response::Append {
                new_len: 10_000,
                windows_indexed: 512,
            },
            Response::Created {
                ready: false,
                len: 12,
            },
            Response::Stats(vec![WireTenantStats {
                name: "alpha".into(),
                method: "ts-index".into(),
                subsequence_len: 128,
                series_len: 10_000,
                ready: true,
                points_appended: 5_000,
                append_calls: 12,
                windows_indexed: 5_000,
                store_time_us: 900,
                maintain_time_us: 1_500,
                queries: 77,
                latency_ms: WireLatency {
                    count: 77,
                    mean: 1.5,
                    p50: 1.2,
                    p95: 3.4,
                    p99: 9.9,
                },
                wal_appends: 12,
                wal_fsyncs: 5,
                wal_fsyncs_saved: 7,
                wal_max_batch: 4,
                wal_checkpoints: 2,
                wal_recovery_tail: 321,
                fsync_ms: WireLatency {
                    count: 5,
                    mean: 0.8,
                    p50: 0.7,
                    p95: 1.9,
                    p99: 2.5,
                },
                checkpoint_lag_records: 42,
                checkpoint_lag_bytes: 8_192,
                checkpoint_stuck: true,
            }]),
            Response::Stats(vec![]),
            Response::Checkpointed { covered: 4096 },
            Response::Metrics {
                text: "# TYPE twin_requests_total counter\ntwin_requests_total 7\n".into(),
            },
            Response::Metrics {
                text: String::new(),
            },
            Response::Traces {
                text: "trace id=1 op=query tenant=alpha total_ms=5.125\n".into(),
            },
            Response::ShuttingDown,
        ];
        for response in &responses {
            assert_eq!(&round_trip_response(response), response);
        }
    }

    #[test]
    fn metrics_blob_outgrows_the_u16_string_cap() {
        // A realistic exposition easily exceeds 65535 bytes; the u32 blob
        // must carry it where put_string would fail.
        let text = "twin_query_duration_ms_bucket{method=\"ts-index\",le=\"1\"} 5\n".repeat(2_000);
        assert!(text.len() > u16::MAX as usize);
        let response = Response::Metrics { text };
        assert_eq!(round_trip_response(&response), response);
    }

    #[test]
    fn every_error_code_round_trips() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::NoSuchTenant,
            ErrorCode::TenantExists,
            ErrorCode::NotReady,
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u8(code as u8).unwrap(), code);
            let response = Response::Error {
                code,
                message: code.to_string(),
            };
            assert_eq!(round_trip_response(&response), response);
        }
        assert!(ErrorCode::from_u8(0).is_err());
        assert!(ErrorCode::from_u8(99).is_err());
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Wrong version.
        assert!(matches!(
            decode_request(&[9, op::SHUTDOWN]),
            Err(ProtocolError::VersionMismatch { got: 9 })
        ));
        // Unknown opcode.
        assert!(decode_request(&[PROTOCOL_VERSION, 0x7f]).is_err());
        assert!(decode_response(&[PROTOCOL_VERSION, 0x01]).is_err());
        // Truncated body.
        let mut good = encode_request(&Request::Append {
            tenant: "t".into(),
            values: vec![1.0, 2.0],
        })
        .unwrap();
        good.truncate(good.len() - 3);
        assert!(decode_request(&good).is_err());
        // Trailing garbage.
        let mut padded = encode_request(&Request::Shutdown).unwrap();
        padded.push(0);
        assert!(decode_request(&padded).is_err());
        // Lying array count.
        let mut lying = payload(op::APPEND);
        put_string(&mut lying, "t").unwrap();
        put_u32(&mut lying, 1_000_000);
        assert!(decode_request(&lying).is_err());
    }

    #[test]
    fn framing_round_trips_and_detects_eof() {
        let frame_payload = encode_request(&Request::Stats { tenant: None }).unwrap();
        let (mut wire, mut buffer) = (Vec::new(), Vec::new());
        write_frame(&mut wire, &mut buffer, &frame_payload).unwrap();
        write_frame(&mut wire, &mut buffer, &frame_payload).unwrap();
        let mut reader = &wire[..];
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), frame_payload);
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), frame_payload);
        // Clean EOF between frames.
        assert!(read_frame(&mut reader).unwrap().is_none());
        // Tear inside the length prefix is an error, not a clean EOF.
        let mut torn = &wire[..2];
        assert!(read_frame(&mut torn).is_err());
        // Hostile length prefix.
        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        let mut hostile: &[u8] = &huge;
        assert!(matches!(
            read_frame(&mut hostile),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    /// A transport that records the size of every `write` it is handed
    /// and takes at most `accept` bytes of each.
    struct CountingWriter {
        writes: Vec<usize>,
        accept: usize,
        wire: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.len());
            let taken = buf.len().min(self.accept);
            self.wire.extend_from_slice(&buf[..taken]);
            Ok(taken)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_and_never_splits_the_prefix() {
        let frame_payload = encode_request(&Request::Append {
            tenant: "t".into(),
            values: vec![0.25; 500],
        })
        .unwrap();
        let framed = 4 + frame_payload.len();
        let mut buffer = Vec::new();

        // A transport that takes what it is given sees one write per frame,
        // prefix and payload together — also on the reused buffer.
        let mut whole = CountingWriter {
            writes: Vec::new(),
            accept: usize::MAX,
            wire: Vec::new(),
        };
        write_frame(&mut whole, &mut buffer, &frame_payload).unwrap();
        write_frame(&mut whole, &mut buffer, &frame_payload).unwrap();
        assert_eq!(whole.writes, [framed, framed]);

        // A transport that takes 1000 bytes at a time (a frame that does
        // not fit) is still offered prefix and payload together, and the
        // bytes on the wire are the same frame.
        let mut partial = CountingWriter {
            writes: Vec::new(),
            accept: 1000,
            wire: Vec::new(),
        };
        write_frame(&mut partial, &mut buffer, &frame_payload).unwrap();
        assert_eq!(partial.writes[0], framed);
        assert_eq!(partial.wire, whole.wire[..framed]);
        let mut reader = &partial.wire[..];
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), frame_payload);

        // A frame larger than the buffer: the prefix travels with the head
        // of the payload, the rest follows from where it is, uncopied.
        let large = vec![7u8; 1 << 20];
        whole.writes.clear();
        whole.wire.clear();
        write_frame(&mut whole, &mut buffer, &large).unwrap();
        assert_eq!(
            whole.writes,
            [FRAME_BUFFER_BYTES, 4 + large.len() - FRAME_BUFFER_BYTES]
        );
        let mut reader = &whole.wire[..];
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), large);
    }

    #[test]
    fn query_spec_converts_to_twin_query() {
        let spec = QuerySpec {
            values: vec![1.0, 2.0, 3.0],
            epsilon: 0.25,
            limit: Some(5),
            count_only: false,
            collect_stats: true,
            deadline_ms: Some(100),
        };
        let query = spec.to_query();
        assert_eq!(query.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(deadline_from_ms(100), Duration::from_millis(100));
    }
}
