//! A minimal blocking client for the NDJSON protocol, shared by
//! `nvpim-cli`, the fleet coordinator and the protocol tests.
//!
//! The client assumes nothing about TCP framing: writes loop until the
//! whole line is on the wire (a single `write` may be short), and reads
//! accumulate bytes in an internal buffer until a `\n` arrives (one read
//! may return a partial frame, or several frames at once). Connect and
//! read timeouts are supported so a wedged daemon cannot hang a caller
//! forever — a read timeout surfaces as `WouldBlock`/`TimedOut`, with any
//! partial frame preserved for the next `recv` call.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde::Value;

/// Bytes requested from the socket per read: a paper-scale result frame
/// (~46 KB) arrives in one or two reads.
const READ_CHUNK: usize = 64 * 1024;

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Received bytes not yet consumed as a complete frame: short reads
    /// and timeouts leave their partial data here instead of dropping it.
    buf: Vec<u8>,
    /// Prefix of `buf` already searched for a newline.
    scanned: usize,
    /// Lifetime bytes written to the socket (per-worker transfer
    /// accounting for fleet coordinators, in the style of per-party
    /// channel statistics).
    bytes_sent: u64,
    /// Lifetime bytes read off the socket.
    bytes_received: u64,
}

impl Client {
    /// Connects to a running `nvpim-serviced` with no timeouts (blocks
    /// until the OS gives up).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            scanned: 0,
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// Connects with an optional connect timeout and an optional read
    /// timeout on subsequent `recv` calls (`None` = block indefinitely).
    ///
    /// # Errors
    ///
    /// Address resolution or connection failures (including
    /// [`ErrorKind::TimedOut`] when the connect timeout elapses).
    pub fn connect_with_timeouts(
        addr: &str,
        connect_timeout: Option<Duration>,
        read_timeout: Option<Duration>,
    ) -> std::io::Result<Self> {
        let stream = match connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => {
                let mut last_err = None;
                let mut connected = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(err) => last_err = Some(err),
                    }
                }
                match connected {
                    Some(stream) => stream,
                    None => {
                        return Err(last_err.unwrap_or_else(|| {
                            std::io::Error::new(
                                ErrorKind::InvalidInput,
                                format!("address `{addr}` did not resolve"),
                            )
                        }))
                    }
                }
            }
        };
        stream.set_read_timeout(read_timeout)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            scanned: 0,
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// The connected socket (tests inspect its options).
    #[cfg(test)]
    pub(crate) fn socket(&self) -> &TcpStream {
        &self.stream
    }

    /// Lifetime bytes this client has written to the socket.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Lifetime bytes this client has read off the socket.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, request: &Value) -> std::io::Result<()> {
        let mut text = serde_json::to_string(request)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        text.push('\n');
        self.write_fully(text.as_bytes())
    }

    /// Sends a raw, possibly malformed line (testing hook).
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.write_fully(&framed)
    }

    /// Writes every byte of `data`, looping over short writes (one TCP
    /// `write` is not guaranteed to take a whole NDJSON frame).
    fn write_fully(&mut self, data: &[u8]) -> std::io::Result<()> {
        let mut written = 0;
        while written < data.len() {
            match self.stream.write(&data[written..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "connection closed mid-frame",
                    ))
                }
                Ok(n) => {
                    written += n;
                    self.bytes_sent += n as u64;
                }
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(err) => return Err(err),
            }
        }
        self.stream.flush()
    }

    /// Receives one response line; `None` on clean EOF.
    ///
    /// Bytes are accumulated across reads until a full `\n`-terminated
    /// frame arrives; a read timeout (`WouldBlock`/`TimedOut`) keeps any
    /// partial frame buffered so a later `recv` can finish it.
    ///
    /// # Errors
    ///
    /// Socket read failures, EOF mid-frame, or a response that is not
    /// valid JSON.
    pub fn recv(&mut self) -> std::io::Result<Option<Value>> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            // Only bytes that arrived since the last scan can hold the
            // newline, so a frame spread over many reads is scanned once.
            if let Some(offset) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + offset;
                let parsed = match std::str::from_utf8(&self.buf[..end]) {
                    Ok(text) => serde_json::from_str(text.trim_end()).map_err(|e| {
                        std::io::Error::new(
                            ErrorKind::InvalidData,
                            format!("invalid response JSON: {e}"),
                        )
                    }),
                    Err(e) => Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("non-UTF-8 response: {e}"),
                    )),
                };
                self.buf.drain(..=end);
                self.scanned = 0;
                return parsed.map(Some);
            }
            self.scanned = self.buf.len();
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return Ok(None);
                    }
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ));
                }
                Ok(n) => {
                    self.bytes_received += n as u64;
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(err) => return Err(err),
            }
        }
    }

    /// Sends a request and returns the first response line.
    ///
    /// # Errors
    ///
    /// I/O failures or an unexpectedly closed connection.
    pub fn request(&mut self, request: &Value) -> std::io::Result<Value> {
        self.send(request)?;
        self.recv()?.ok_or_else(|| {
            std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )
        })
    }
}

/// Convenience constructor for request objects.
pub fn request(cmd: &str, fields: Vec<(String, Value)>) -> Value {
    let mut pairs = vec![("cmd".to_string(), Value::Str(cmd.to_string()))];
    pairs.extend(fields);
    Value::Object(pairs)
}
