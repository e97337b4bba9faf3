//! # ts-serve
//!
//! The twin-search **query/ingest daemon**: a long-lived process owning
//! one crash-safe [`twin_search::LiveEngine`] per named tenant, speaking a
//! length-prefixed binary protocol over unix-domain or TCP sockets, and
//! multiplexing all work from any number of concurrent client connections
//! onto a fixed set of worker threads.
//!
//! The crate splits along the classic daemon seams:
//!
//! * [`protocol`] — the wire format: framed, versioned, little-endian
//!   request/response encoding with typed [`ErrorCode`]s.  Pure functions
//!   over byte slices; see `docs/protocol.md` for the normative spec.
//! * [`server`] — the daemon: a blocking accept loop, per-connection
//!   handlers (capped; one `write` per frame, `TCP_NODELAY`, one frame
//!   timeout for reads and writes), the bounded
//!   [`ts_core::admission::AdmissionQueue`] between handlers and the
//!   long-lived workers that answer requests one by one (backpressure: a
//!   full queue answers `overloaded` instead of queueing without bound),
//!   per-request deadlines, and graceful-drain vs. crash-simulating
//!   shutdown, both of which wake every blocked thread by shutting its
//!   socket down.
//! * [`client`] — a blocking typed client used by the `twin client` CLI,
//!   the `exp_serve` benchmark and the integration tests.
//!
//! ## Durability contract
//!
//! An append is acknowledged only after the tenant's append log has
//! fsynced it ([`ts_ingest::AppendLogSeries`] semantics, via
//! [`twin_search::tenant`]).  Killing the daemon at any instant and
//! restarting it on the same data directory therefore recovers **every
//! acknowledged append, byte-identically** — torn trailing records are
//! truncated away during log recovery.  Graceful shutdown additionally
//! drains every admitted request before exiting, so no accepted work is
//! dropped.
//!
//! ## Example
//!
//! ```
//! use ts_serve::{Client, QuerySpec, Server, ServerConfig};
//! use twin_search::Method;
//!
//! let dir = std::env::temp_dir().join(format!("ts-serve-doc-{}", std::process::id()));
//! let handle = Server::start_tcp("127.0.0.1:0", ServerConfig::new(&dir)).unwrap();
//! let mut client = Client::connect(handle.endpoint()).unwrap();
//!
//! // Create a tenant, feed it a sine wave, query a window of it.
//! let wave: Vec<f64> = (0..600).map(|i| (i as f64 * 0.05).sin()).collect();
//! client.create_tenant("sensor-1", Method::TsIndex, 50, &wave).unwrap();
//! let query = wave[100..150].to_vec();
//! let reply = client.query("sensor-1", QuerySpec::new(query, 0.05)).unwrap();
//! assert!(reply.positions.contains(&100));
//!
//! client.shutdown().unwrap();
//! handle.wait();
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
mod transport;

pub use client::{Client, ClientError, ClientResult};
pub use protocol::{
    ErrorCode, ProtocolError, QueryReply, QuerySpec, Request, Response, WireLatency,
    WireSearchStats, WireTenantStats, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use server::{Endpoint, ServeError, Server, ServerConfig, ServerHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, encode_request, read_frame, write_frame};
    use crate::server::{FRAME_TIMEOUT, MAX_CONNECTIONS};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    use twin_search::{EngineConfig, Method, TwinQuery};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ts_serve_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn wave(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.06).sin() * 3.0 + (i as f64 * 0.019).cos())
            .collect()
    }

    #[test]
    fn end_to_end_over_unix_socket() {
        let dir = temp_dir("unix_e2e");
        let socket = dir.join("twin.sock");
        std::fs::create_dir_all(&dir).unwrap();
        let handle = Server::start_unix(&socket, ServerConfig::new(dir.join("data"))).unwrap();
        let mut client = Client::connect_unix(&socket).unwrap();

        let values = wave(900);
        let (ready, len) = client
            .create_tenant("alpha", Method::TsIndex, 60, &values[..700])
            .unwrap();
        assert!(ready);
        assert_eq!(len, 700);

        // Query, then append, then query again: the appended window hits.
        let probe = values[640..700].to_vec();
        let reply = client.query("alpha", QuerySpec::new(probe, 0.3)).unwrap();
        assert!(reply.positions.contains(&640));
        assert_eq!(reply.method, "TS-Index");

        let (new_len, windows) = client.append("alpha", &values[700..]).unwrap();
        assert_eq!(new_len, 900);
        assert_eq!(windows, 200);
        let fresh = values[820..880].to_vec();
        let reply = client.query("alpha", QuerySpec::new(fresh, 0.3)).unwrap();
        assert!(reply.positions.contains(&820));

        // Typed errors for the classic misuses.
        let err = client
            .query("missing", QuerySpec::new(vec![0.0; 60], 0.3))
            .unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::NoSuchTenant));
        let err = client
            .create_tenant("alpha", Method::Sweepline, 10, &[])
            .unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::TenantExists));

        // Stats carry per-tenant accounting with latency percentiles.
        let stats = client.stats(Some("alpha")).unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].series_len, 900);
        assert_eq!(stats[0].queries, 2);
        assert!(stats[0].latency_ms.p50 <= stats[0].latency_ms.p99);

        client.shutdown().unwrap();
        handle.wait();
        assert!(!socket.exists(), "socket file removed on exit");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filling_tenant_not_ready_then_promotes_over_tcp() {
        let dir = temp_dir("tcp_fill");
        let handle = Server::start_tcp("127.0.0.1:0", ServerConfig::new(&dir)).unwrap();
        let mut client = Client::connect_tcp(handle.tcp_addr().unwrap()).unwrap();

        let values = wave(200);
        let (ready, _) = client
            .create_tenant("fills", Method::KvIndex, 80, &values[..30])
            .unwrap();
        assert!(!ready);
        let err = client
            .query("fills", QuerySpec::new(values[..80].to_vec(), 0.3))
            .unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::NotReady));

        let (new_len, _) = client.append("fills", &values[30..120]).unwrap();
        assert_eq!(new_len, 120);
        let reply = client
            .query("fills", QuerySpec::new(values[..80].to_vec(), 0.3))
            .unwrap();
        assert!(reply.positions.contains(&0));

        handle.shutdown_and_wait();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_recovers_acknowledged_appends_byte_identically() {
        let dir = temp_dir("restart");
        let values = wave(1_000);
        let probe = values[300..350].to_vec();
        let positions_before;
        {
            let handle = Server::start_tcp("127.0.0.1:0", ServerConfig::new(&dir)).unwrap();
            let mut client = Client::connect_tcp(handle.tcp_addr().unwrap()).unwrap();
            client
                .create_tenant("durable", Method::Isax, 50, &values[..600])
                .unwrap();
            client.append("durable", &values[600..800]).unwrap();
            positions_before = client
                .query("durable", QuerySpec::new(probe.clone(), 0.3))
                .unwrap()
                .positions;
            // Kill without drain: a crash, not a graceful exit.
            handle.kill();
        }
        let handle = Server::start_tcp("127.0.0.1:0", ServerConfig::new(&dir)).unwrap();
        let mut client = Client::connect_tcp(handle.tcp_addr().unwrap()).unwrap();
        let stats = client.stats(Some("durable")).unwrap();
        assert_eq!(stats[0].series_len, 800, "acknowledged appends recovered");
        let positions_after = client
            .query("durable", QuerySpec::new(probe, 0.3))
            .unwrap()
            .positions;
        assert_eq!(positions_before, positions_after, "byte-identical answers");
        handle.shutdown_and_wait();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overload_answers_typed_backpressure_error() {
        // Queue capacity 1 and a paused dispatcher cannot be arranged from
        // the outside; instead, saturate with concurrent slow queries and
        // require that *either* everything completes *or* rejections are
        // the typed overloaded error — never a hang, never a protocol
        // error.  With capacity 1 on a multi-client burst, at least one
        // rejection is effectively guaranteed, but the test only asserts
        // the contract, not the race.
        let dir = temp_dir("overload");
        let config = ServerConfig::new(&dir)
            .with_queue_capacity(1)
            .with_threads(1);
        let handle = Server::start_tcp("127.0.0.1:0", config).unwrap();
        let addr = handle.tcp_addr().unwrap();
        let values = wave(4_000);
        {
            let mut client = Client::connect_tcp(addr).unwrap();
            client
                .create_tenant("busy", Method::Sweepline, 100, &values)
                .unwrap();
        }
        let mut join = Vec::new();
        for c in 0..6 {
            let probe = values[c * 100..c * 100 + 100].to_vec();
            join.push(std::thread::spawn(move || {
                let mut client = Client::connect_tcp(addr).unwrap();
                let mut outcomes = Vec::new();
                for _ in 0..5 {
                    match client.query("busy", QuerySpec::new(probe.clone(), 0.4)) {
                        Ok(reply) => outcomes.push(Ok(reply.match_count)),
                        Err(e) => outcomes.push(Err(e.code())),
                    }
                }
                outcomes
            }));
        }
        let mut ok = 0u32;
        let mut overloaded = 0u32;
        for handle_thread in join {
            for outcome in handle_thread.join().unwrap() {
                match outcome {
                    Ok(_) => ok += 1,
                    Err(Some(ErrorCode::Overloaded)) => overloaded += 1,
                    Err(other) => panic!("unexpected failure: {other:?}"),
                }
            }
        }
        assert_eq!(ok + overloaded, 30);
        assert!(ok > 0, "some queries must get through");
        handle.shutdown_and_wait();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_deadline_is_answered_without_execution() {
        let dir = temp_dir("deadline");
        let handle =
            Server::start_tcp("127.0.0.1:0", ServerConfig::new(&dir).with_threads(1)).unwrap();
        let addr = handle.tcp_addr().unwrap();
        let values = wave(600);
        let mut client = Client::connect_tcp(addr).unwrap();
        client
            .create_tenant("dl", Method::TsIndex, 50, &values)
            .unwrap();
        // A 0-budget deadline cannot be expressed (0 = server default on
        // the wire); a 1 ms budget against a queued pipeline usually can —
        // but scheduling makes it racy, so accept either outcome and only
        // require the typed code when it does expire.
        let mut spec = QuerySpec::new(values[..50].to_vec(), 0.3);
        spec.deadline_ms = Some(1);
        match client.query("dl", spec) {
            Ok(reply) => assert!(reply.match_count >= 1),
            Err(e) => {
                assert_eq!(e.code(), Some(ErrorCode::DeadlineExceeded));
                // The request died in the queue: the engine never ran it.
                let stats = client.stats(Some("dl")).unwrap();
                assert_eq!(stats[0].queries, 0, "expired request must not execute");
            }
        }
        handle.shutdown_and_wait();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_op_exposes_every_instrumented_layer() {
        let dir = temp_dir("metrics");
        let handle = Server::start_tcp("127.0.0.1:0", ServerConfig::new(&dir)).unwrap();
        let mut client = Client::connect_tcp(handle.tcp_addr().unwrap()).unwrap();
        let values = wave(700);
        client
            .create_tenant("scraped", Method::TsIndex, 50, &values[..600])
            .unwrap();
        client.append("scraped", &values[600..]).unwrap();
        client
            .query("scraped", QuerySpec::new(values[..50].to_vec(), 0.3))
            .unwrap();
        // The daemon's workers run each request sequentially and the wire
        // has no `parallel` option, so the executor layer earns its series
        // in-process (the registry is process-global): one `parallel` query
        // on a two-shard engine, whose per-shard fan-out is an
        // `Executor::map` however many cores the pool is clamped to.
        let series = wave(4_000);
        let config = EngineConfig::new(Method::TsIndex, 50).with_shards(2);
        let engine = twin_search::ShardedEngine::build(&series, config).unwrap();
        let parallel = TwinQuery::new(series[..50].to_vec(), 0.3).parallel(2);
        engine.execute(&parallel).unwrap();

        let text = client.metrics().unwrap();
        for series in [
            "# TYPE twin_requests_total counter",
            "twin_requests_total{op=\"query\"}",
            "twin_admission_admitted_total",
            "twin_admission_depth",
            "twin_query_duration_ms_bucket{method=\"ts-index\"",
            "twin_wal_fsync_ms_count",
            "twin_executor_tasks_total",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }

        // The watchdog exports per-tenant checkpoint-lag gauges on its own
        // poll cadence; give it a few ticks.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let text = client.metrics().unwrap();
            if text.contains("twin_checkpoint_lag_records{tenant=\"scraped\"}") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "watchdog gauges never appeared:\n{text}"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        handle.shutdown_and_wait();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slow_query_threshold_feeds_trace_ring_and_log_file() {
        let dir = temp_dir("slowq");
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("slow.log");
        let config = ServerConfig::new(dir.join("data"))
            .with_slow_query_ms(0) // everything is slow: deterministic
            .with_slow_query_log(&log_path);
        let handle = Server::start_tcp("127.0.0.1:0", config).unwrap();
        let mut client = Client::connect_tcp(handle.tcp_addr().unwrap()).unwrap();
        let values = wave(400);
        client
            .create_tenant("sluggish", Method::Sweepline, 40, &values)
            .unwrap();
        let mut spec = QuerySpec::new(values[..40].to_vec(), 0.3);
        spec.collect_stats = true;
        client.query("sluggish", spec).unwrap();

        // The ring is global and other tests write to it; ours must be
        // present with per-stage spans (stats were collected).
        let traces = client.trace(0).unwrap();
        let line = traces
            .lines()
            .find(|l| l.contains("op=query tenant=sluggish"))
            .unwrap_or_else(|| panic!("query trace missing from:\n{traces}"));
        // Wire spans around the worker's, in pipeline order.
        let mut at = 0;
        for span in [
            "total_ms=",
            " read_ms=",
            " decode_ms=",
            " admission_wait_ms=",
            " execute_ms=",
            " filter_ms=",
            " verify_ms=",
            " encode_ms=",
            " write_ms=",
        ] {
            at += line[at..]
                .find(span)
                .unwrap_or_else(|| panic!("missing or misplaced {span} in: {line}"));
        }

        // A limit of 1 returns exactly the newest line.
        let newest = client.trace(1).unwrap();
        assert_eq!(newest.lines().count(), 1);

        // The same lines landed in the configured log file.
        handle.shutdown_and_wait();
        let logged = std::fs::read_to_string(&log_path).unwrap();
        assert!(
            logged.contains("slow-query trace id=") && logged.contains("tenant=sluggish"),
            "log file missing slow-query lines:\n{logged}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slow_query_is_logged_even_if_the_client_hung_up() {
        let dir = temp_dir("slowq_gone");
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("twin.sock");
        let log_path = dir.join("slow.log");
        let config = ServerConfig::new(dir.join("data"))
            .with_slow_query_ms(0)
            .with_slow_query_log(&log_path);
        let handle = Server::start_unix(&socket, config).unwrap();

        // A create that takes tens of milliseconds, from a client that
        // hangs up as soon as it has sent it: over a unix socket the write
        // of the reply then fails on the spot.
        let create = encode_request(&Request::CreateTenant {
            tenant: "orphan".into(),
            method: Method::TsIndex,
            subsequence_len: 100,
            initial: wave(50_000),
        })
        .unwrap();
        let mut gone = UnixStream::connect(&socket).unwrap();
        write_frame(&mut gone, &mut Vec::new(), &create).unwrap();
        drop(gone);

        let mut client = Client::connect_unix(&socket).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while !client.trace(0).unwrap().contains("op=create tenant=orphan") {
            assert!(Instant::now() < deadline, "undelivered reply left no trace");
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.shutdown_and_wait();
        let logged = std::fs::read_to_string(&log_path).unwrap();
        assert!(logged.contains("op=create tenant=orphan"), "{logged}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graceful_shutdown_rejects_new_work_while_draining() {
        let dir = temp_dir("drain");
        let handle = Server::start_tcp("127.0.0.1:0", ServerConfig::new(&dir)).unwrap();
        let addr = handle.tcp_addr().unwrap();
        let mut client = Client::connect_tcp(addr).unwrap();
        client
            .create_tenant("t", Method::Sweepline, 10, &wave(100))
            .unwrap();
        handle.begin_shutdown();
        // New work is rejected with the typed shutting-down error (the
        // connection may also already be closed, which is acceptable).
        match client.append("t", &[1.0, 2.0]) {
            Err(e) => {
                if let Some(code) = e.code() {
                    assert_eq!(code, ErrorCode::ShuttingDown);
                }
            }
            Ok(_) => panic!("append admitted after shutdown began"),
        }
        handle.wait();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tcp_round_trips_are_not_timer_bound() {
        // Prefix and payload in separate segments without TCP_NODELAY cost
        // a Nagle / delayed-ACK timer (~88 ms) per small round trip.
        let dir = temp_dir("tcp_floor");
        let handle = Server::start_tcp("127.0.0.1:0", ServerConfig::new(&dir)).unwrap();
        let mut client = Client::connect_tcp(handle.tcp_addr().unwrap()).unwrap();
        let values = wave(600);
        client
            .create_tenant("quick", Method::TsIndex, 50, &values)
            .unwrap();
        let started = Instant::now();
        for i in 0..25 {
            client.stats(Some("quick")).unwrap();
            let probe = values[i * 4..i * 4 + 50].to_vec();
            let reply = client.query("quick", QuerySpec::new(probe, 0.3)).unwrap();
            assert!(reply.positions.contains(&(i as u64 * 4)));
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(50 * 20),
            "50 small TCP round trips took {elapsed:?}"
        );
        handle.shutdown_and_wait();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_wakes_idle_connections() {
        // Handlers and the accept loop block without a poll interval: each
        // way of stopping the daemon has to wake them itself.
        for (transport, stop) in [
            ("unix", "graceful"),
            ("unix", "kill"),
            ("unix", "client"),
            ("tcp", "graceful"),
            ("tcp", "kill"),
            ("tcp", "client"),
        ] {
            let dir = temp_dir(&format!("wake_{transport}_{stop}"));
            std::fs::create_dir_all(&dir).unwrap();
            let config = ServerConfig::new(dir.join("data"));
            let handle = match transport {
                "unix" => Server::start_unix(dir.join("twin.sock"), config).unwrap(),
                _ => Server::start_tcp("127.0.0.1:0", config).unwrap(),
            };
            // Three clients whose handlers are back in their idle read.
            let mut idle: Vec<Client> = (0..3)
                .map(|_| Client::connect(handle.endpoint()).unwrap())
                .collect();
            for client in &mut idle {
                client.stats(None).unwrap();
            }
            let started = Instant::now();
            match stop {
                "graceful" => handle.shutdown_and_wait(),
                "kill" => handle.kill(),
                _ => {
                    Client::connect(handle.endpoint())
                        .unwrap()
                        .shutdown()
                        .unwrap();
                    handle.wait();
                }
            }
            let elapsed = started.elapsed();
            assert!(
                elapsed < Duration::from_secs(1),
                "{stop} shutdown over {transport} took {elapsed:?}"
            );
            // The idle clients were hung up on, not left dangling.
            for client in &mut idle {
                assert!(client.stats(None).is_err());
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn shutdown_returns_when_the_socket_path_is_gone_or_taken() {
        // The accept loop's wake-up is a connect through the socket path.
        for fate in ["unlinked", "re-bound"] {
            let dir = temp_dir(&format!("lost_path_{fate}"));
            std::fs::create_dir_all(&dir).unwrap();
            let socket = dir.join("twin.sock");
            let first = Server::start_unix(&socket, ServerConfig::new(dir.join("a"))).unwrap();
            let mut client = Client::connect_unix(&socket).unwrap();
            client.stats(None).unwrap();
            let second = match fate {
                "unlinked" => {
                    std::fs::remove_file(&socket).unwrap();
                    None
                }
                _ => Some(Server::start_unix(&socket, ServerConfig::new(dir.join("b"))).unwrap()),
            };
            let started = Instant::now();
            first.shutdown_and_wait();
            let elapsed = started.elapsed();
            assert!(elapsed < Duration::from_secs(5), "{fate}: {elapsed:?}");
            assert!(client.stats(None).is_err(), "{fate}: still connected");
            // The path's new owner keeps it, and keeps serving.
            if let Some(second) = second {
                Client::connect_unix(&socket).unwrap().stats(None).unwrap();
                second.shutdown_and_wait();
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn stalled_frame_is_dropped_and_idle_connection_is_not() {
        let dir = temp_dir("frame_timeout");
        let handle = Server::start_tcp("127.0.0.1:0", ServerConfig::new(&dir)).unwrap();
        let addr = handle.tcp_addr().unwrap();
        let mut idle = Client::connect_tcp(addr).unwrap();
        idle.stats(None).unwrap();

        // Half a length prefix, then silence: the frame timeout answers
        // what it can and hangs up.
        let mut staller = TcpStream::connect(addr).unwrap();
        staller
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        staller.write_all(&[9, 0]).unwrap();
        let started = Instant::now();
        let frame = read_frame(&mut staller).unwrap().unwrap();
        match decode_response(&frame).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected a bad-request error, got {other:?}"),
        }
        assert_eq!(staller.read(&mut [0u8; 1]).unwrap(), 0, "connection closed");
        assert!(started.elapsed() >= FRAME_TIMEOUT);

        // The idle connection sat through more than one frame timeout with
        // nothing buffered — that is not a stall — and is still served.
        idle.stats(None).unwrap();
        handle.shutdown_and_wait();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Reads one response frame off a bare socket.
    fn read_response(stream: &mut TcpStream) -> Response {
        decode_response(&read_frame(stream).unwrap().expect("a frame before EOF")).unwrap()
    }

    #[test]
    fn connection_flood_and_stalled_reader_get_typed_rejections() {
        const CAP: usize = MAX_CONNECTIONS;
        let dir = temp_dir("flood");
        std::fs::create_dir_all(&dir).unwrap();
        let handle = Server::start_tcp("127.0.0.1:0", ServerConfig::new(dir.join("data"))).unwrap();
        let addr = handle.tcp_addr().unwrap();

        // A tenant whose every window matches: ~400 KB of positions per reply.
        let flat = vec![0.0; 50_000];
        Client::connect_tcp(addr)
            .unwrap()
            .create_tenant("flat", Method::Sweepline, 16, &flat)
            .unwrap();

        // The stalled reader: pipelines 256 such queries (~100 MB of
        // replies, beyond what loopback socket buffers hold) and reads
        // nothing.
        const PIPELINED: usize = 256;
        let mut stalled = TcpStream::connect(addr).unwrap();
        let query = encode_request(&Request::Query {
            tenant: "flat".into(),
            spec: QuerySpec::new(vec![0.0; 16], 1.0),
        })
        .unwrap();
        let mut buffer = Vec::new();
        for _ in 0..PIPELINED {
            write_frame(&mut stalled, &mut buffer, &query).unwrap();
        }

        // One `stats` exchange on a fresh connection: served (`Ok`), or
        // turned away with the typed rejection (`Err`).
        let stats = encode_request(&Request::Stats { tenant: None }).unwrap();
        let knock = || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            // A rejected connection may already be closed: the send may fail.
            let _ = write_frame(&mut stream, &mut Vec::new(), &stats);
            match read_response(&mut stream) {
                Response::Stats(_) => Ok(stream),
                Response::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::Overloaded);
                    Err(stream)
                }
                other => panic!("unexpected response {other:?}"),
            }
        };

        // The flood: 4 × CAP connections, all held open.  Within the cap
        // they are served; beyond it each gets one typed rejection and EOF.
        let (served, rejected): (Vec<_>, Vec<_>) =
            (0..4 * CAP).map(|_| knock()).partition(Result::is_ok);
        assert!(served.len() < CAP, "the stalled reader holds a slot too");
        assert!(rejected.len() > 3 * CAP);
        for mut stream in rejected.into_iter().map(Result::unwrap_err) {
            // Closed: EOF, or a reset for the request it never read.
            assert!(matches!(stream.read(&mut [0u8; 1]), Ok(0) | Err(_)));
        }
        // The typed client surfaces the same rejection as a server error.
        let err = Client::connect_tcp(addr).unwrap().stats(None).unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::Overloaded), "{err}");

        // The stalled reader cannot pin its handler: with every other slot
        // still held, the next connection is served once the write timeout
        // has hung up on it.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut freed = loop {
            match knock() {
                Ok(stream) => break stream,
                Err(_) => {
                    assert!(Instant::now() < deadline, "stalled reader kept its slot");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        };
        // … and it was hung up on long before its replies were written.
        stalled
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut received = 0usize;
        let mut chunk = vec![0u8; 1 << 16];
        loop {
            match stalled.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => received += n,
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
                Err(e) => panic!("stalled reader was left hanging: {e}"),
            }
        }
        assert!(received < PIPELINED * 8 * (flat.len() - 15));

        // A well-behaved client is served as if nothing had happened.
        write_frame(&mut freed, &mut buffer, &query).unwrap();
        match read_response(&mut freed) {
            Response::Query(reply) => assert_eq!(reply.match_count as usize, flat.len() - 15),
            other => panic!("expected a query reply, got {other:?}"),
        }
        drop(served);
        handle.shutdown_and_wait();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queries_complete_while_a_slow_create_runs() {
        // Two workers, each answering one request at a time: a slow request
        // occupies one, the other keeps serving.
        let dir = temp_dir("per_request");
        let config = ServerConfig::new(&dir).with_threads(2);
        let handle = Server::start_tcp("127.0.0.1:0", config).unwrap();
        let addr = handle.tcp_addr().unwrap();
        let values = wave(600);
        let mut client = Client::connect_tcp(addr).unwrap();
        client
            .create_tenant("small", Method::TsIndex, 50, &values)
            .unwrap();

        let create_done = AtomicBool::new(false);
        let during = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut creator = Client::connect_tcp(addr).unwrap();
                creator
                    .create_tenant("big", Method::TsIndex, 100, &wave(100_000))
                    .unwrap();
                create_done.store(true, Ordering::SeqCst);
            });
            let mut during = 0u32;
            while !create_done.load(Ordering::SeqCst) {
                let reply = client
                    .query("small", QuerySpec::new(values[..50].to_vec(), 0.3))
                    .unwrap();
                assert!(reply.positions.contains(&0));
                if !create_done.load(Ordering::SeqCst) {
                    during += 1;
                }
            }
            during
        });
        assert!(
            during >= 10,
            "only {during} queries completed while the create ran"
        );
        handle.shutdown_and_wait();
        std::fs::remove_dir_all(&dir).ok();
    }
}
