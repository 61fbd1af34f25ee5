//! A small blocking client for the serve protocol.
//!
//! One request out, one response line back, per call — exactly the
//! per-connection ordering the server guarantees. Used by the
//! `scorpio_load` generator, the round-trip integration test and the
//! verify smoke; library users talking to a server from Rust can use
//! it too:
//!
//! ```no_run
//! use scorpio_serve::Client;
//!
//! let mut client = Client::connect("127.0.0.1:7070").unwrap();
//! let reply = client
//!     .request(r#"{"id":1,"kernel":"maclaurin","n":8,"items":[0.3]}"#)
//!     .unwrap();
//! assert_eq!(reply.get("ok").and_then(|v| v.as_f64()), None); // ok is a bool
//! ```

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use scorpio_obs::json::{self, Value};

/// A blocking serve-protocol connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            pending: Vec::new(),
        })
    }

    /// Sends one request line and returns the raw response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a closed connection surfaces as
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn request_raw(&mut self, line: &str) -> io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.read_line()
    }

    /// Sends one request line and parses the response.
    ///
    /// # Errors
    ///
    /// I/O failures as [`Client::request_raw`]; an unparsable response
    /// surfaces as [`io::ErrorKind::InvalidData`].
    pub fn request(&mut self, line: &str) -> io::Result<Value> {
        let response = self.request_raw(line)?;
        json::parse(&response)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// Fetches the server's stats block.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn stats(&mut self) -> io::Result<Value> {
        self.request(r#"{"cmd":"stats"}"#)
    }

    /// Drops every cached compiled trace server-side.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn cache_clear(&mut self) -> io::Result<Value> {
        self.request(r#"{"cmd":"cache_clear"}"#)
    }

    /// Fetches the Prometheus text exposition (the `metrics` verb) and
    /// returns its body.
    ///
    /// # Errors
    ///
    /// As [`Client::request`]; a reply without a `body` string
    /// surfaces as [`io::ErrorKind::InvalidData`].
    pub fn metrics(&mut self) -> io::Result<String> {
        let v = self.request(r#"{"cmd":"metrics"}"#)?;
        v.get("body")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "metrics reply without body")
            })
    }

    /// Fetches the per-kernel sliding-window SLO snapshots.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn window(&mut self) -> io::Result<Value> {
        self.request(r#"{"cmd":"window"}"#)
    }

    /// Fetches the tail-retained slow/error exemplars.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn exemplars(&mut self) -> io::Result<Value> {
        self.request(r#"{"cmd":"exemplars"}"#)
    }

    /// Asks the server to shut down (it replies, then stops accepting).
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn shutdown(&mut self) -> io::Result<Value> {
        self.request(r#"{"cmd":"shutdown"}"#)
    }

    /// Reads bytes until the next newline, buffering any overshoot for
    /// the following call. Each byte is searched for the newline once,
    /// so a multi-megabyte reply costs linear time.
    fn read_line(&mut self) -> io::Result<String> {
        let mut chunk = [0u8; 4096];
        let mut scanned = 0;
        loop {
            if let Some(pos) = self.pending[scanned..].iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.pending.drain(..=scanned + pos).collect();
                line.pop();
                return String::from_utf8(line)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            scanned = self.pending.len();
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            self.pending.extend_from_slice(&chunk[..n]);
        }
    }
}
