//! The `twin serve` daemon: accept loop, connection handlers, and the
//! admission-controlled workers.
//!
//! ## Threading model
//!
//! ```text
//! accept loop ──spawns──▶ handler (1 per connection, ≤ MAX_CONNECTIONS)
//!                            │ read + decode frame
//!                            │ try_push ──▶ AdmissionQueue ──▶ worker × threads
//!                            │   │ full: answer Overloaded       │ pop (blocking)
//!                            ◀───┘                               │ execute
//!                            ◀── reply channel ──────────────────┘
//!                            │ encode + write frame, record the trace
//! ```
//!
//! Connection handlers never execute queries and never block on an engine
//! lock: they decode, push into the bounded [`AdmissionQueue`] (answering
//! [`ErrorCode::Overloaded`] immediately when it is full — backpressure
//! instead of queueing collapse) and wait on a per-request reply channel.
//! [`ServerConfig::threads`] long-lived workers each block in
//! [`AdmissionQueue::pop`] and answer one request at a time, so a request
//! completes as soon as *it* is done — never behind a slower neighbour —
//! and total query concurrency is bounded by the worker count no matter
//! how many clients connect.  Requests that spent their whole deadline
//! budget queued are answered [`ErrorCode::DeadlineExceeded`] without
//! touching an engine.
//!
//! All socket I/O blocks: there is no poll interval anywhere.  Every frame
//! is one `write` (and, through a buffered reader, one `read` when it is
//! small), TCP sockets run with `TCP_NODELAY`, and `FRAME_TIMEOUT` is set
//! once per connection for reads *and* writes — a peer that stalls
//! mid-frame, or stops reading its replies, is dropped; an idle one is not.
//! Beyond `MAX_CONNECTIONS` live connections a new one gets a single
//! typed [`ErrorCode::Overloaded`] frame and is closed.
//!
//! ## Shutdown
//!
//! *Graceful* ([`Request::Shutdown`] or [`ServerHandle::begin_shutdown`]):
//! the queue closes (new requests are answered `shutting-down`), the read
//! half of every live connection is shut down (an idle handler's blocked
//! read returns EOF; a reply still owed is still written), one
//! self-connect wakes the accept loop (one it cannot reach — the socket
//! path unlinked or re-bound — is detached after `ACCEPT_WAKE_GRACE`), the
//! workers drain everything already admitted, tenant handles are dropped,
//! threads join.  Every append acknowledged before shutdown is on disk —
//! appends fsync before they are acknowledged — so a restarted daemon
//! recovers byte-identically via the tenant registry.
//!
//! *Kill* ([`ServerHandle::kill`]): simulates a crash at the service
//! layer.  Pending requests are dropped unanswered; acknowledged appends
//! are still durable (they were fsynced before the ack), which is exactly
//! the property the recovery tests pin.

use std::collections::HashMap;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ts_core::admission::{AdmissionConfig, AdmissionError, AdmissionQueue, Admitted};
use ts_core::obs;
use ts_storage::StorageError;
use twin_search::tenant::TenantResult;
use twin_search::{
    CheckpointWatchdog, TenantError, TenantRegistry, TenantSpec, WalConfig, WatchdogConfig,
};

use crate::protocol::{
    deadline_from_ms, decode_request, encode_response, read_frame, write_frame, ErrorCode,
    QueryReply, Request, Response, WireTenantStats,
};
use crate::transport::Socket;

/// Read and write timeout of every accepted socket.  A read that times out
/// with no byte of a frame buffered keeps waiting (the connection is idle);
/// a peer that stalls mid-frame this long, or leaves a reply unread this
/// long, is dropped rather than left desynchronised or pinning its handler.
#[cfg(not(test))]
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);
/// This crate's unit tests sit through the timeout: they run on a short one.
#[cfg(test)]
pub(crate) const FRAME_TIMEOUT: Duration = Duration::from_millis(500);

/// Live connections (one handler thread each) the daemon keeps; one more
/// gets a typed [`ErrorCode::Overloaded`] frame and is closed.
#[cfg(not(test))]
const MAX_CONNECTIONS: usize = 1024;
/// This crate's unit tests flood a daemon past the cap: theirs is small.
#[cfg(test)]
pub(crate) const MAX_CONNECTIONS: usize = 16;

/// Pause after a failed `accept` (`EMFILE`, `ENOMEM`, …), so an error that
/// persists cannot spin the accept thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// How long `join_all` gives the accept loop to notice a shutdown.  The
/// wake-up is a self-connect through the listening endpoint; it is lost
/// when a unix socket's path has been unlinked or bound by another daemon.
const ACCEPT_WAKE_GRACE: Duration = Duration::from_secs(1);

/// Errors starting or running the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Socket / filesystem failure.
    Io(std::io::Error),
    /// Tenant-registry failure (bad data dir, corrupt manifest, …).
    Tenant(TenantError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
            ServeError::Tenant(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Tenant(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<TenantError> for ServeError {
    fn from(e: TenantError) -> Self {
        ServeError::Tenant(e)
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory holding every tenant's append log + manifest.
    pub data_dir: PathBuf,
    /// Number of worker threads executing admitted requests — the bound
    /// on the daemon's query concurrency.
    pub threads: usize,
    /// Admission-queue capacity; pushes beyond it answer `overloaded`.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// WAL durability / compaction knobs applied to tenants created
    /// through this daemon (existing tenants keep their manifest's knobs).
    pub wal: WalConfig,
    /// Slow-query threshold in milliseconds: any request whose total
    /// latency (admission wait + execution) reaches it is recorded in the
    /// trace ring (served by [`Request::Trace`]) and logged.  `None`
    /// disables slow-query tracing; `Some(0)` traces every request.
    pub slow_query_ms: Option<u64>,
    /// Optional file the slow-query log is appended to (slow queries
    /// always go to stderr as well).
    pub slow_query_log: Option<PathBuf>,
    /// Checkpoint-lag watchdog thresholds (see [`WatchdogConfig`]).
    pub watchdog: WatchdogConfig,
}

impl ServerConfig {
    /// A daemon rooted at `data_dir` with defaults: one worker per
    /// available core, a 256-slot queue, no default deadline.
    #[must_use]
    pub fn new<P: AsRef<Path>>(data_dir: P) -> Self {
        ServerConfig {
            data_dir: data_dir.as_ref().to_path_buf(),
            threads: ts_core::exec::clamp_threads(usize::MAX),
            queue_capacity: 256,
            default_deadline: None,
            wal: WalConfig::default(),
            slow_query_ms: None,
            slow_query_log: None,
            watchdog: WatchdogConfig::default(),
        }
    }

    /// Sets the worker count — exactly, without the core-count clamp of
    /// the default (workers mostly wait on fsyncs and engine locks).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the admission-queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Applies `deadline` to every request that does not carry its own.
    #[must_use]
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Sets the WAL knobs (group commit, checkpointing, snapshot store)
    /// for tenants created through this daemon.
    #[must_use]
    pub fn with_wal(mut self, wal: WalConfig) -> Self {
        self.wal = wal;
        self
    }

    /// Traces and logs every request slower than `threshold_ms` (end to
    /// end: admission wait plus execution).  `0` traces everything.
    #[must_use]
    pub fn with_slow_query_ms(mut self, threshold_ms: u64) -> Self {
        self.slow_query_ms = Some(threshold_ms);
        self
    }

    /// Appends slow-query lines to `path` in addition to stderr.
    #[must_use]
    pub fn with_slow_query_log<P: AsRef<Path>>(mut self, path: P) -> Self {
        self.slow_query_log = Some(path.as_ref().to_path_buf());
        self
    }

    /// Sets the checkpoint-lag watchdog thresholds.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }
}

/// One queued request plus its reply channel.
struct Job {
    request: Request,
    reply: mpsc::SyncSender<Answer>,
    /// Trace id minted at admission so queue time is part of the trace.
    trace_id: u64,
}

/// A worker's answer: the response and, when the request reached the
/// slow-query threshold, its trace so far — the handler adds the wire
/// spans and records it once the reply is written.
type Answer = (Response, Option<obs::Trace>);

/// The live connections: what shutdown has to wake and join.
#[derive(Default)]
struct Connections {
    next_id: u64,
    /// Per live handler: a `try_clone` of its socket (shutting it down
    /// wakes the handler's blocked read) and the handler's join handle.
    live: HashMap<u64, (Socket, JoinHandle<()>)>,
    /// Handlers that have left their loop; joined by the accept loop on
    /// its next pass and at shutdown.
    finished: Vec<JoinHandle<()>>,
}

/// State shared by the accept loop, handlers and workers.
struct Shared {
    registry: Arc<TenantRegistry>,
    queue: AdmissionQueue<Job>,
    /// Graceful-shutdown flag: stop accepting, drain, exit.
    stop: AtomicBool,
    /// Crash-simulation flag: stop without draining or replying.
    kill: AtomicBool,
    endpoint: Endpoint,
    connections: Mutex<Connections>,
    /// WAL knobs for tenants created through this daemon.
    wal: WalConfig,
    /// Slow-query threshold (ms); `None` disables tracing.
    slow_query_ms: Option<u64>,
    /// Open slow-query log file, if one was configured.
    slow_query_log: Option<Mutex<std::fs::File>>,
}

impl Shared {
    /// Closes the queue and wakes every thread blocked on a socket.  Called
    /// from the [`ServerHandle`] and from the handler of a client's
    /// [`Request::Shutdown`]; only the first call does anything.
    fn begin_shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // Idle handlers block in `read`: closing the read half makes it
        // return EOF, while a reply still owed can still be written.  A
        // kill owes nobody a reply and closes both halves.
        let how = if self.kill.load(Ordering::SeqCst) {
            Shutdown::Both
        } else {
            Shutdown::Read
        };
        for (socket, _) in self.connections().live.values() {
            let _ = socket.shutdown(how);
        }
        // The accept loop blocks in `accept` and re-checks `stop` after
        // every connection: hand it one.  (`join_all` copes with a
        // connect that fails or reaches somebody else's listener.)
        let _ = crate::Client::connect(&self.endpoint);
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn connections(&self) -> MutexGuard<'_, Connections> {
        // Every update is a single map/vec operation: a poisoned guard
        // still holds valid data.
        self.connections.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP socket bound to this address.
    Tcp(SocketAddr),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

enum AnyListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// The daemon entry points.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Starts the daemon on a unix-domain socket at `socket_path` (a stale
    /// socket file from a crashed process is removed first).
    ///
    /// # Errors
    ///
    /// Propagates bind and registry-open failures.
    pub fn start_unix<P: AsRef<Path>>(
        socket_path: P,
        config: ServerConfig,
    ) -> Result<ServerHandle, ServeError> {
        let path = socket_path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = AnyListener::Unix(UnixListener::bind(&path)?);
        Self::start(listener, Endpoint::Unix(path), config)
    }

    /// Starts the daemon on a TCP socket (e.g. `"127.0.0.1:0"` for an
    /// ephemeral port; read the bound address off the returned handle).
    ///
    /// # Errors
    ///
    /// Propagates bind and registry-open failures.
    pub fn start_tcp(addr: &str, config: ServerConfig) -> Result<ServerHandle, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let endpoint = Endpoint::Tcp(listener.local_addr()?);
        Self::start(AnyListener::Tcp(listener), endpoint, config)
    }

    fn start(
        listener: AnyListener,
        endpoint: Endpoint,
        config: ServerConfig,
    ) -> Result<ServerHandle, ServeError> {
        let registry = Arc::new(TenantRegistry::open(&config.data_dir)?);
        let watchdog = CheckpointWatchdog::spawn(Arc::clone(&registry), config.watchdog);
        let admission = match config.default_deadline {
            Some(d) => AdmissionConfig::new(config.queue_capacity).with_default_deadline(d),
            None => AdmissionConfig::new(config.queue_capacity),
        };
        let slow_query_log = match &config.slow_query_log {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        let shared = Arc::new(Shared {
            registry,
            queue: AdmissionQueue::new(admission),
            stop: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            endpoint,
            connections: Mutex::new(Connections::default()),
            wal: config.wal,
            slow_query_ms: config.slow_query_ms,
            slow_query_log,
        });

        let workers = (0..config.threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let (accept_exited, accept_exit) = mpsc::channel::<()>();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                accept_loop(&listener, &shared);
                drop(accept_exited); // disconnects `accept_exit`
            })
        };

        Ok(ServerHandle {
            shared,
            accept: Some(accept),
            accept_exit,
            workers,
            watchdog: Some(watchdog),
        })
    }
}

/// A running daemon: endpoint info plus shutdown control.
#[derive(Debug)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    /// Disconnected by the accept loop as it returns: a join with a timeout.
    accept_exit: mpsc::Receiver<()>,
    workers: Vec<JoinHandle<()>>,
    /// Checkpoint-lag watchdog; dropped (stopped + joined) on shutdown.
    watchdog: Option<CheckpointWatchdog>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("queue_depth", &self.queue.depth())
            .field("stop", &self.stop.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// Where the daemon is listening.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.shared.endpoint
    }

    /// The bound TCP address, if listening on TCP.
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.shared.endpoint {
            Endpoint::Tcp(addr) => Some(*addr),
            Endpoint::Unix(_) => None,
        }
    }

    /// Initiates a graceful shutdown (same effect as a client's
    /// [`Request::Shutdown`]): the queue closes, admitted requests drain.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether shutdown has been initiated.
    #[must_use]
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Blocks until the daemon exits (a client sent `Shutdown`, or
    /// [`begin_shutdown`](Self::begin_shutdown) was called) and all
    /// threads joined.
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Graceful shutdown: drain admitted requests, flush tenants, join.
    pub fn shutdown_and_wait(mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }

    /// Simulated crash: pending requests are dropped unanswered, tenant
    /// handles are dropped without the drain.  Acknowledged appends are
    /// already fsynced, so a daemon restarted on the same data dir
    /// recovers exactly the acknowledged prefix of every tenant.
    pub fn kill(mut self) {
        self.shared.kill.store(true, Ordering::SeqCst);
        self.shared.begin_shutdown();
        self.join_all();
    }

    fn join_all(&mut self) {
        // NB: `wait()` parks here long before shutdown — the workers leave
        // only once the queue is closed — so nothing is torn down early.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Shutdown has begun and its wake-up connect has been made: the
        // accept loop is on its way out, unless the connect went elsewhere.
        let woken = self.accept_exit.recv_timeout(ACCEPT_WAKE_GRACE)
            != Err(mpsc::RecvTimeoutError::Timeout);
        match self.accept.take() {
            Some(accept) if woken => drop(accept.join()),
            // Left blocked in `accept` on a listener nobody can reach; it
            // would refuse whatever it accepted.
            _ => eprintln!(
                "twin serve: the accept loop on {} did not wake; detached",
                self.shared.endpoint
            ),
        }
        // The daemon is draining: stop the watchdog so its registry handle
        // is gone before the handle drops.
        drop(self.watchdog.take());
        if self.shared.kill.load(Ordering::SeqCst) {
            // The workers left the queue as it was, and the reply senders
            // of its jobs live inside it.  Drop them so handler threads
            // blocked on their reply channels wake up and exit.
            while self.shared.queue.pop(Some(Duration::ZERO)).is_some() {}
        } else {
            // Everything admitted has been answered.  Drop tenant handles
            // (appends are already fsynced; this is bookkeeping).
            self.shared.registry.close();
        }
        let handlers: Vec<JoinHandle<()>> = {
            let mut connections = self.shared.connections();
            let live = std::mem::take(&mut connections.live);
            let finished = std::mem::take(&mut connections.finished);
            live.into_values().map(|(_, h)| h).chain(finished).collect()
        };
        for handler in handlers {
            let _ = handler.join();
        }
        // A path the wake-up did not reach is gone or another daemon's.
        if let (Endpoint::Unix(path), true) = (&self.shared.endpoint, woken) {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shared.begin_shutdown();
            self.join_all();
        }
    }
}

fn accept_loop(listener: &AnyListener, shared: &Arc<Shared>) {
    loop {
        let accepted = match listener {
            AnyListener::Unix(l) => l.accept().map(|(s, _)| Socket::Unix(s)),
            AnyListener::Tcp(l) => l.accept().map(|(s, _)| Socket::Tcp(s)),
        };
        if shared.stopping() {
            return; // what was accepted is `begin_shutdown`'s wake-up, or too late
        }
        if let Err(e) = accepted.and_then(|conn| admit_connection(conn, shared)) {
            obs::counter("twin_accept_errors_total", &[]).inc();
            // A peer that gave up while queued costs nothing; anything else
            // (no descriptors, no memory, no threads) needs time to clear.
            if e.kind() != std::io::ErrorKind::ConnectionAborted {
                std::thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
}

/// Gives an accepted connection its handler thread — or, at the connection
/// cap, one typed rejection — and joins the handlers that have finished
/// since the last call.
fn admit_connection(mut conn: Socket, shared: &Arc<Shared>) -> std::io::Result<()> {
    // Socket options, set once: the frame timeout in both directions and
    // `TCP_NODELAY` (strict request/response — a held-back frame is only a
    // timer).  A failure means the peer is already gone.
    let nodelay = match &conn {
        Socket::Tcp(s) => s.set_nodelay(true),
        Socket::Unix(_) => Ok(()),
    };
    if nodelay
        .and_then(|()| conn.set_timeouts(FRAME_TIMEOUT))
        .is_err()
    {
        return Ok(());
    }
    let mut connections = shared.connections();
    let finished = std::mem::take(&mut connections.finished);
    // Checked under the registry lock: `begin_shutdown` raises the flag
    // before it walks the registry, so a connection is either in the
    // registry when it is walked or refused here.
    let admitted = if shared.stopping() {
        Ok(())
    } else if connections.live.len() >= MAX_CONNECTIONS {
        drop(connections);
        let rejection = error(
            ErrorCode::Overloaded,
            format!("connection limit reached ({MAX_CONNECTIONS} open); retry later"),
        );
        // The socket is new and its send buffer empty: this cannot block.
        respond(&mut conn, &mut Vec::new(), &rejection);
        Ok(())
    } else {
        conn.try_clone().and_then(|waker| {
            let id = connections.next_id;
            connections.next_id += 1;
            let shared = Arc::clone(shared);
            // The handler's last act takes the registry lock held here, so
            // it finds its entry however quickly it finishes.
            let handler = std::thread::Builder::new().spawn(move || {
                serve_connection(conn, &shared);
                let mut connections = shared.connections();
                if let Some((_, handle)) = connections.live.remove(&id) {
                    connections.finished.push(handle);
                }
            })?;
            connections.live.insert(id, (waker, handler));
            Ok(())
        })
    };
    for handler in finished {
        let _ = handler.join();
    }
    admitted
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

fn serve_connection(conn: Socket, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(conn);
    let mut frame_buffer = Vec::new();
    loop {
        // Idle wait.  The read timeout is the frame timeout, and with no
        // byte of a frame buffered it only means the client is quiet; EOF
        // is the peer hanging up or `begin_shutdown` closing the read half.
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => continue,
            Err(_) => return,
        }
        // A frame is arriving: a timeout from here on is a stalled peer.
        let arrived = Instant::now();
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e) => {
                // Answer what can be answered (a decode-level problem),
                // then drop the connection: framing may be desynchronised.
                let response = error(ErrorCode::BadRequest, e.to_string());
                respond(reader.get_mut(), &mut frame_buffer, &response);
                return;
            }
        };
        let read = Instant::now();
        let decoded = decode_request(&frame);
        let wire_in = [ms(read - arrived), ms(read.elapsed())];
        if let Ok(request) = &decoded {
            obs::counter("twin_requests_total", &[("op", op_label(request))]).inc();
        }
        let conn = reader.get_mut();
        let (response, trace) = match decoded {
            // A well-framed but undecodable payload: answer and keep the
            // connection (framing is still in sync).
            Err(e) => (error(ErrorCode::BadRequest, e.to_string()), None),
            Ok(Request::Shutdown) => {
                respond(conn, &mut frame_buffer, &Response::ShuttingDown);
                shared.begin_shutdown();
                return;
            }
            // Observability requests are answered inline by the handler —
            // never queued — so the daemon stays scrapeable even when the
            // admission queue is full or every worker is wedged.
            Ok(Request::Metrics) => (metrics_response(), None),
            Ok(Request::Trace { limit }) => (traces_response(limit), None),
            Ok(request) => match submit(shared, request) {
                Some(answer) => answer,
                // The daemon was killed: drop the connection without a
                // reply (crash semantics).
                None => return,
            },
        };
        let (wire_out, delivered) = respond(conn, &mut frame_buffer, &response);
        // Recorded before the next frame is read: a client that asks for
        // the newest trace right after a reply gets the trace of that reply.
        // Recorded delivered or not: a client that gave up waiting is what
        // the slow-query log is for.
        if let Some(trace) = trace {
            record_trace(shared, trace, wire_in, wire_out);
        }
        if !delivered {
            return;
        }
    }
}

/// Queues one request for the workers and waits for its answer (a full or
/// closed queue answers on the spot); `None` when the daemon was killed
/// with the request pending.
fn submit(shared: &Shared, request: Request) -> Option<Answer> {
    let budget = match &request {
        Request::Query { spec, .. } => spec.deadline_ms.map(deadline_from_ms),
        _ => None,
    };
    let (reply, wait) = mpsc::sync_channel(1);
    let job = Job {
        request,
        reply,
        trace_id: obs::next_trace_id(),
    };
    let pushed = match budget {
        Some(budget) => shared.queue.try_push_with_deadline(job, Some(budget)),
        None => shared.queue.try_push(job),
    };
    let rejection = match pushed {
        Ok(()) => {
            let answer = wait.recv().ok()?;
            return (!shared.kill.load(Ordering::SeqCst)).then_some(answer);
        }
        Err(AdmissionError::Overloaded { capacity }) => error(
            ErrorCode::Overloaded,
            format!("admission queue full ({capacity} pending); retry later"),
        ),
        Err(AdmissionError::Closed) => error(
            ErrorCode::ShuttingDown,
            "daemon is draining for shutdown".into(),
        ),
    };
    Some((rejection, None))
}

fn error(code: ErrorCode, message: String) -> Response {
    Response::Error { code, message }
}

/// Encodes and writes one response, returning how long the two steps took
/// (ms) and whether it was delivered (not if the peer is gone, or has left
/// its replies unread for the write timeout).
fn respond(conn: &mut Socket, frame_buffer: &mut Vec<u8>, response: &Response) -> ([f64; 2], bool) {
    let started = Instant::now();
    let frame_payload = encode_response(response);
    let encoded = Instant::now();
    let delivered = frame_payload.is_ok_and(|p| write_frame(conn, frame_buffer, &p).is_ok());
    ([ms(encoded - started), ms(encoded.elapsed())], delivered)
}

fn worker_loop(shared: &Arc<Shared>) {
    // `None` once the queue is closed *and* drained: everything admitted
    // before a graceful shutdown is answered.
    while let Some(admitted) = shared.queue.pop(None) {
        if shared.kill.load(Ordering::SeqCst) {
            return; // crash: leave the queue as-is, reply to nobody
        }
        answer(shared, admitted);
    }
}

/// Executes one admitted request and sends its response (a send failure
/// means the client hung up; the answer is discarded).
fn answer(shared: &Arc<Shared>, admitted: Admitted<Job>) {
    let queued = admitted.queued_for();
    let started = Instant::now();
    let response = if admitted.expired() {
        error(
            ErrorCode::DeadlineExceeded,
            format!("request spent its deadline budget queued ({queued:?})"),
        )
    } else {
        execute_request(&shared.registry, shared.wal, &admitted.item.request)
            .unwrap_or_else(|e| error_response(&e))
    };
    let trace = start_trace(shared, &admitted.item, queued, started.elapsed(), &response);
    let _ = admitted.item.reply.send((response, trace));
}

/// The `op` label value for the `twin_requests_total` counter.
fn op_label(request: &Request) -> &'static str {
    match request {
        Request::Query { .. } => "query",
        Request::Append { .. } => "append",
        Request::CreateTenant { .. } => "create",
        Request::Stats { .. } => "stats",
        Request::Checkpoint { .. } => "checkpoint",
        Request::Shutdown => "shutdown",
        Request::Metrics => "metrics",
        Request::Trace { .. } => "trace",
    }
}

/// The tenant a request addresses, for trace lines (empty when the
/// request is not tenant-scoped).
fn tenant_label(request: &Request) -> &str {
    match request {
        Request::Query { tenant, .. }
        | Request::Append { tenant, .. }
        | Request::CreateTenant { tenant, .. }
        | Request::Checkpoint { tenant } => tenant,
        Request::Stats { tenant } => tenant.as_deref().unwrap_or(""),
        Request::Shutdown | Request::Metrics | Request::Trace { .. } => "",
    }
}

/// The worker's half of a request's trace: `Some` when tracing is on and
/// the request's latency (admission wait + execution, the trace's
/// `total_ms`) reaches the configured threshold.
fn start_trace(
    shared: &Arc<Shared>,
    job: &Job,
    queued: Duration,
    executed: Duration,
    response: &Response,
) -> Option<obs::Trace> {
    let threshold_ms = shared.slow_query_ms?;
    let (wait_ms, execute_ms) = (ms(queued), ms(executed));
    let total_ms = wait_ms + execute_ms;
    if total_ms < threshold_ms as f64 {
        return None;
    }
    let mut spans = vec![span("admission_wait", wait_ms), span("execute", execute_ms)];
    // Queries that collected engine statistics get the per-stage split.
    if let Response::Query(QueryReply {
        stats: Some(stats), ..
    }) = response
    {
        spans.push(span("filter", stats.filter_time_us as f64 / 1e3));
        spans.push(span("verify", stats.verify_time_us as f64 / 1e3));
    }
    Some(obs::Trace {
        id: job.trace_id,
        op: op_label(&job.request).into(),
        tenant: tenant_label(&job.request).into(),
        total_ms,
        spans,
    })
}

fn span(stage: &str, ms: f64) -> obs::Span {
    obs::Span {
        stage: stage.into(),
        ms,
    }
}

/// The handler's half: puts the wire spans around the worker's (`read`,
/// `decode` before; `encode`, `write` after), then records the trace in the
/// trace ring and the slow-query log.
fn record_trace(
    shared: &Shared,
    mut trace: obs::Trace,
    [read, decode]: [f64; 2],
    [encode, write]: [f64; 2],
) {
    trace
        .spans
        .splice(0..0, [span("read", read), span("decode", decode)]);
    trace
        .spans
        .extend([span("encode", encode), span("write", write)]);
    let line = trace.render_line();
    obs::record_trace(trace);
    obs::counter("twin_slow_queries_total", &[]).inc();
    eprintln!("slow-query {line}");
    if let Some(file) = &shared.slow_query_log {
        let mut file = file.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(file, "slow-query {line}");
    }
}

/// Maps a tenant-layer error onto a typed wire error.
fn error_response(e: &TenantError) -> Response {
    let code = match e {
        TenantError::InvalidName(_) => ErrorCode::BadRequest,
        TenantError::NotFound(_) => ErrorCode::NoSuchTenant,
        TenantError::AlreadyExists(_) => ErrorCode::TenantExists,
        TenantError::NotReady { .. } => ErrorCode::NotReady,
        TenantError::CorruptManifest { .. } => ErrorCode::Internal,
        TenantError::Storage(StorageError::Core(_)) => ErrorCode::BadRequest,
        TenantError::Storage(_) => ErrorCode::Internal,
    };
    error(code, e.to_string())
}

/// Runs one request against the registry.
fn execute_request(
    registry: &TenantRegistry,
    wal: WalConfig,
    request: &Request,
) -> TenantResult<Response> {
    Ok(match request {
        Request::Query { tenant, spec } => {
            let tenant = registry.get(tenant)?;
            let outcome = tenant.execute(&spec.to_query())?;
            Response::Query(QueryReply::from_outcome(&outcome))
        }
        Request::Append { tenant, values } => {
            let tenant = registry.get(tenant)?;
            let (new_len, windows_indexed) = tenant.append(values)?;
            Response::Append {
                new_len: new_len as u64,
                windows_indexed: windows_indexed as u64,
            }
        }
        Request::CreateTenant {
            tenant,
            method,
            subsequence_len,
            initial,
        } => {
            let tenant = registry.create(
                tenant,
                TenantSpec::new(*method, *subsequence_len).with_wal(wal),
                initial,
            )?;
            Response::Created {
                ready: tenant.is_ready(),
                len: tenant.len() as u64,
            }
        }
        Request::Stats { tenant } => {
            let stats = match tenant {
                Some(name) => vec![registry.get(name)?.stats()],
                None => registry.loaded_stats(),
            };
            Response::Stats(stats.iter().map(WireTenantStats::from).collect())
        }
        Request::Checkpoint { tenant } => {
            let covered = registry.get(tenant)?.checkpoint_now()?;
            Response::Checkpointed {
                covered: covered.unwrap_or(0) as u64,
            }
        }
        Request::Shutdown => Response::ShuttingDown, // handled upstream
        // Handled inline by the connection handler; answered here too so
        // a future dispatch path cannot silently drop them.
        Request::Metrics => metrics_response(),
        Request::Trace { limit } => traces_response(*limit),
    })
}

/// The process-global metrics registry as Prometheus text exposition.
fn metrics_response() -> Response {
    Response::Metrics {
        text: obs::render_prometheus(),
    }
}

/// The newest `limit` lines of the trace ring (`0` = all of it).
fn traces_response(limit: u32) -> Response {
    let mut text = String::new();
    for trace in obs::recent_traces(limit as usize) {
        text.push_str(&trace.render_line());
        text.push('\n');
    }
    Response::Traces { text }
}
