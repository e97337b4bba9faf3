//! A blocking client for the `twin serve` protocol.
//!
//! One [`Client`] owns one connection and speaks strict request/response:
//! every call writes one frame and reads one frame.  Typed helpers
//! ([`query`](Client::query), [`append`](Client::append), …) convert a
//! [`Response::Error`] into [`ClientError::Server`] so callers match on
//! `ErrorCode` instead of parsing strings.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, ErrorCode, ProtocolError, QueryReply,
    QuerySpec, Request, Response, WireTenantStats,
};
use crate::server::Endpoint;
use crate::transport::Socket;
use twin_search::Method;

/// Errors raised by client calls.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure (includes the server closing the
    /// connection mid-exchange).
    Protocol(ProtocolError),
    /// The server answered with a typed error.
    Server {
        /// Typed error code.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server answered with a response of the wrong kind (protocol
    /// confusion; should never happen against a well-behaved server).
    Unexpected {
        /// What the call was waiting for.
        expected: &'static str,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Unexpected { expected } => {
                write!(f, "unexpected response kind (expected {expected})")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Protocol(ProtocolError::Io(e))
    }
}

impl ClientError {
    /// The server's error code, if this is a typed server error.
    #[must_use]
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = std::result::Result<T, ClientError>;

/// A connected `twin serve` client.
pub struct Client {
    /// Buffered for reading (a small response is one `read`); requests are
    /// written to the stream inside.
    stream: BufReader<Socket>,
    /// Frame-assembly buffer reused by every [`write_frame`].
    frame: Vec<u8>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let transport = match self.stream.get_ref() {
            Socket::Unix(_) => "unix",
            Socket::Tcp(_) => "tcp",
        };
        f.debug_struct("Client")
            .field("transport", &transport)
            .finish()
    }
}

impl Client {
    /// Connects over a unix-domain socket.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_unix<P: AsRef<Path>>(socket_path: P) -> ClientResult<Self> {
        Ok(Self::over(Socket::Unix(UnixStream::connect(socket_path)?)))
    }

    /// Connects over TCP, with `TCP_NODELAY`: the protocol is strict
    /// request/response, so a frame held back for coalescing only adds a
    /// timer to the round trip.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_tcp<A: ToSocketAddrs>(addr: A) -> ClientResult<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::over(Socket::Tcp(stream)))
    }

    fn over(stream: Socket) -> Self {
        Client {
            stream: BufReader::new(stream),
            frame: Vec::new(),
        }
    }

    /// Connects to a server's [`Endpoint`] (as returned by
    /// `ServerHandle::endpoint`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(endpoint: &Endpoint) -> ClientResult<Self> {
        match endpoint {
            Endpoint::Unix(path) => Self::connect_unix(path),
            Endpoint::Tcp(addr) => Self::connect_tcp(addr),
        }
    }

    /// Sends one request and reads one response — the raw exchange behind
    /// every typed helper.
    ///
    /// # Errors
    ///
    /// Protocol failures only; a server-side [`Response::Error`] is
    /// returned as a normal `Ok(Response::Error { .. })` here.
    pub fn roundtrip(&mut self, request: &Request) -> ClientResult<Response> {
        let frame_payload = encode_request(request)?;
        if let Err(send_error) = write_frame(self.stream.get_mut(), &mut self.frame, &frame_payload)
        {
            // A daemon at its connection cap answers before it reads and
            // hangs up: a send that fails on the transport may have that
            // typed rejection waiting to be read.
            if let ProtocolError::Io(_) = send_error {
                if let Ok(Some(frame)) = read_frame(&mut self.stream) {
                    return Ok(decode_response(&frame)?);
                }
            }
            return Err(send_error.into());
        }
        match read_frame(&mut self.stream)? {
            Some(frame) => Ok(decode_response(&frame)?),
            None => Err(ClientError::Protocol(ProtocolError::Malformed(
                "server closed the connection before responding".into(),
            ))),
        }
    }

    /// Runs a twin query against `tenant`.
    ///
    /// # Errors
    ///
    /// Typed server errors (`no-such-tenant`, `not-ready`, `overloaded`,
    /// `deadline-exceeded`, …) and protocol failures.
    pub fn query(&mut self, tenant: &str, spec: QuerySpec) -> ClientResult<QueryReply> {
        match self.expect_ok(&Request::Query {
            tenant: tenant.to_string(),
            spec,
        })? {
            Response::Query(reply) => Ok(reply),
            _ => Err(ClientError::Unexpected {
                expected: "query reply",
            }),
        }
    }

    /// Appends points to `tenant`'s series.  Returns `(new_len,
    /// windows_indexed)`; when this returns, the points are fsynced on the
    /// server.
    ///
    /// # Errors
    ///
    /// Typed server errors and protocol failures.
    pub fn append(&mut self, tenant: &str, values: &[f64]) -> ClientResult<(u64, u64)> {
        match self.expect_ok(&Request::Append {
            tenant: tenant.to_string(),
            values: values.to_vec(),
        })? {
            Response::Append {
                new_len,
                windows_indexed,
            } => Ok((new_len, windows_indexed)),
            _ => Err(ClientError::Unexpected {
                expected: "append ack",
            }),
        }
    }

    /// Creates a tenant.  Returns `(ready, len)`.
    ///
    /// # Errors
    ///
    /// Typed server errors (`tenant-exists`, `bad-request`) and protocol
    /// failures.
    pub fn create_tenant(
        &mut self,
        tenant: &str,
        method: Method,
        subsequence_len: usize,
        initial: &[f64],
    ) -> ClientResult<(bool, u64)> {
        match self.expect_ok(&Request::CreateTenant {
            tenant: tenant.to_string(),
            method,
            subsequence_len,
            initial: initial.to_vec(),
        })? {
            Response::Created { ready, len } => Ok((ready, len)),
            _ => Err(ClientError::Unexpected {
                expected: "created ack",
            }),
        }
    }

    /// Fetches statistics for one tenant (`Some(name)`) or every loaded
    /// tenant (`None`).
    ///
    /// # Errors
    ///
    /// Typed server errors and protocol failures.
    pub fn stats(&mut self, tenant: Option<&str>) -> ClientResult<Vec<WireTenantStats>> {
        match self.expect_ok(&Request::Stats {
            tenant: tenant.map(str::to_string),
        })? {
            Response::Stats(stats) => Ok(stats),
            _ => Err(ClientError::Unexpected { expected: "stats" }),
        }
    }

    /// Forces a WAL checkpoint for `tenant`.  Returns the number of values
    /// the snapshot now covers (0 = nothing new was durable, a no-op).
    ///
    /// # Errors
    ///
    /// Typed server errors and protocol failures.
    pub fn checkpoint(&mut self, tenant: &str) -> ClientResult<u64> {
        match self.expect_ok(&Request::Checkpoint {
            tenant: tenant.to_string(),
        })? {
            Response::Checkpointed { covered } => Ok(covered),
            _ => Err(ClientError::Unexpected {
                expected: "checkpoint ack",
            }),
        }
    }

    /// Scrapes the daemon's metrics registry as Prometheus text
    /// exposition.  Answered inline by the connection handler, so it works
    /// even when the admission queue is full.
    ///
    /// # Errors
    ///
    /// Typed server errors and protocol failures.
    pub fn metrics(&mut self) -> ClientResult<String> {
        match self.expect_ok(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            _ => Err(ClientError::Unexpected {
                expected: "metrics exposition",
            }),
        }
    }

    /// Fetches the most recent `limit` slow-query traces, newest first,
    /// one `trace id=… op=… …` line each (`0` = everything retained).
    ///
    /// # Errors
    ///
    /// Typed server errors and protocol failures.
    pub fn trace(&mut self, limit: u32) -> ClientResult<String> {
        match self.expect_ok(&Request::Trace { limit })? {
            Response::Traces { text } => Ok(text),
            _ => Err(ClientError::Unexpected {
                expected: "trace lines",
            }),
        }
    }

    /// Asks the daemon to shut down gracefully (drain + flush + exit).
    ///
    /// # Errors
    ///
    /// Protocol failures.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        match self.expect_ok(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::Unexpected {
                expected: "shutting-down ack",
            }),
        }
    }

    fn expect_ok(&mut self, request: &Request) -> ClientResult<Response> {
        match self.roundtrip(request)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            response => Ok(response),
        }
    }
}
