//! The one stream type both ends of a connection hold: a unix-domain or a
//! TCP socket behind the same `Read` / `Write`.

use std::io::{Read, Result, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::time::Duration;

pub(crate) enum Socket {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Socket {
    /// Sets the read and the write timeout.
    pub(crate) fn set_timeouts(&self, timeout: Duration) -> Result<()> {
        match self {
            Socket::Unix(s) => {
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))
            }
            Socket::Tcp(s) => {
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))
            }
        }
    }

    pub(crate) fn try_clone(&self) -> Result<Socket> {
        match self {
            Socket::Unix(s) => s.try_clone().map(Socket::Unix),
            Socket::Tcp(s) => s.try_clone().map(Socket::Tcp),
        }
    }

    /// Shuts down this socket *and every clone of it*: a thread blocked in
    /// `read` on a clone returns EOF.
    pub(crate) fn shutdown(&self, how: Shutdown) -> Result<()> {
        match self {
            Socket::Unix(s) => s.shutdown(how),
            Socket::Tcp(s) => s.shutdown(how),
        }
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        match self {
            Socket::Unix(s) => s.read(buf),
            Socket::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> Result<usize> {
        match self {
            Socket::Unix(s) => s.write(buf),
            Socket::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> Result<()> {
        match self {
            Socket::Unix(s) => s.flush(),
            Socket::Tcp(s) => s.flush(),
        }
    }
}
