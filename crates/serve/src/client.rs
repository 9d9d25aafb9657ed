//! A minimal blocking client for the `aix serve` protocol.
//!
//! One [`Client`] wraps one TCP connection; [`Client::call`] writes a
//! request frame and blocks for the matching response frame. The CLI's
//! `aix serve status` / `aix serve shutdown` subcommands, the `exp-serve`
//! load generator and the integration tests all speak through this.

use crate::protocol::{read_frame, write_frame, Response};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default connect timeout, in milliseconds, when neither the caller nor
/// `AIX_CONNECT_TIMEOUT_MS` says otherwise. A blackholed address (dropped
/// SYNs, no RST) otherwise hangs for the OS default — minutes on Linux —
/// which is exactly the unbounded stall the serving layer exists to
/// prevent.
pub const DEFAULT_CONNECT_TIMEOUT_MS: u64 = 5_000;

/// The connect timeout to use: an explicit override, else
/// `AIX_CONNECT_TIMEOUT_MS`, else [`DEFAULT_CONNECT_TIMEOUT_MS`].
/// `Some(0)` (or env `0`) disables the bound entirely. Garbage env values
/// fall back to the default — the env var is a knob, not an interface, so
/// the lenient read keeps library callers working; the CLI flag parses
/// strictly and reports its own diagnostic.
#[must_use]
pub fn connect_timeout(override_ms: Option<u64>) -> Option<Duration> {
    let ms = override_ms
        .or_else(|| {
            std::env::var("AIX_CONNECT_TIMEOUT_MS")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
        })
        .unwrap_or(DEFAULT_CONNECT_TIMEOUT_MS);
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// A connected client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:4617`) with the default
    /// connect timeout ([`connect_timeout`] with no override).
    ///
    /// # Errors
    ///
    /// Returns connection errors, including `TimedOut` when the peer
    /// does not complete the handshake within the bound.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Self::connect_with_timeout(addr, connect_timeout(None))
    }

    /// Connects to `addr` with an explicit handshake bound; `None` waits
    /// for the OS default (unbounded for practical purposes).
    ///
    /// # Errors
    ///
    /// Returns resolution errors, connection errors from the last
    /// attempted address, or `TimedOut` when the handshake exceeds the
    /// bound.
    pub fn connect_with_timeout(
        addr: &str,
        timeout: Option<Duration>,
    ) -> std::io::Result<Client> {
        let addr = addr.trim();
        let Some(timeout) = timeout else {
            return Ok(Client {
                stream: TcpStream::connect(addr)?,
            });
        };
        // `connect_timeout` takes a resolved SocketAddr, so resolve here
        // and try each candidate under the same per-attempt bound.
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(stream) => return Ok(Client { stream }),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("address `{addr}` resolved to no candidates"),
            )
        }))
    }

    /// Bounds how long [`call`](Self::call) waits for a response frame;
    /// `None` (the default) waits indefinitely.
    ///
    /// # Errors
    ///
    /// Returns socket errors.
    pub fn set_response_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one request payload (a flat JSON object) and awaits the
    /// response.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, a connection closed before the response (e.g.
    /// the daemon crashed mid-request), or a malformed response frame.
    pub fn call(&mut self, payload: &str) -> std::io::Result<Response> {
        write_frame(&mut self.stream, payload)?;
        let frame = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::other("connection closed before the response arrived")
        })?;
        Response::from_wire(&frame)
            .map_err(|e| std::io::Error::other(format!("malformed response frame: {e}")))
    }

    /// `{"op":"status"}` convenience.
    ///
    /// # Errors
    ///
    /// See [`call`](Self::call).
    pub fn status(&mut self) -> std::io::Result<Response> {
        self.call("{\"op\":\"status\"}")
    }

    /// `{"op":"shutdown"}` convenience: asks the daemon to drain.
    ///
    /// # Errors
    ///
    /// See [`call`](Self::call).
    pub fn shutdown(&mut self) -> std::io::Result<Response> {
        self.call("{\"op\":\"shutdown\"}")
    }
}
