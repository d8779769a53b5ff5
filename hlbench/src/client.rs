//! A minimal HTTP/1.1 keep-alive client that times each exchange at the
//! three points the benchmark reports: request sent, first response
//! byte, last body byte.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request as it goes on the wire.
#[derive(Clone)]
pub struct Wire {
    /// The exact head bytes (request line + headers + blank line).
    pub head: Vec<u8>,
    /// The body bytes (empty for GET).
    pub body: Vec<u8>,
}

impl Wire {
    /// `GET target`, optionally negotiating gzip.
    pub fn get(target: &str, gzip: bool) -> Wire {
        let encoding = if gzip {
            "accept-encoding: gzip\r\n"
        } else {
            ""
        };
        Wire {
            head: format!("GET {target} HTTP/1.1\r\nhost: bench\r\n{encoding}\r\n").into_bytes(),
            body: Vec::new(),
        }
    }

    /// `POST target` with a body, optionally negotiating gzip.
    pub fn post(target: &str, body: &[u8], gzip: bool) -> Wire {
        let encoding = if gzip {
            "accept-encoding: gzip\r\n"
        } else {
            ""
        };
        let head = format!(
            "POST {target} HTTP/1.1\r\nhost: bench\r\n{encoding}content-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        Wire {
            head: head.into_bytes(),
            body: body.to_vec(),
        }
    }
}

/// A received response with its client-side timings.
pub struct Response {
    pub status: u16,
    /// Whether the body arrived gzip-encoded.
    pub gzip: bool,
    /// The body with any chunked framing removed (still gzip-encoded
    /// when `gzip` is set).
    pub body: Vec<u8>,
    pub sent: Instant,
    pub first_byte: Instant,
    pub last_byte: Instant,
}

impl Response {
    /// Request sent to last body byte, milliseconds.
    pub fn total_ms(&self) -> f64 {
        (self.last_byte - self.sent).as_secs_f64() * 1e3
    }
}

/// One keep-alive connection; reconnects when the server closes.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Whether the current exchange has received any byte.
    got_bytes: bool,
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            got_bytes: false,
        }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(stream);
            self.buf.clear();
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Sends one request and reads its whole response. Like any
    /// keep-alive client, retries once on a fresh connection when a
    /// reused one turns out to have been closed (idle timeout) before
    /// a single response byte arrived.
    pub fn send(&mut self, wire: &Wire) -> io::Result<Response> {
        let reused = self.stream.is_some();
        self.got_bytes = false;
        let mut result = self.exchange(wire);
        if result.is_err() && reused && !self.got_bytes {
            self.stream = None;
            result = self.exchange(wire);
        }
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, wire: &Wire) -> io::Result<Response> {
        let mut message = Vec::with_capacity(wire.head.len() + wire.body.len());
        message.extend_from_slice(&wire.head);
        message.extend_from_slice(&wire.body);
        let sent = Instant::now();
        self.stream()?.write_all(&message)?;
        let mut first_byte = None;
        // Head.
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill(&mut first_byte)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("non-UTF-8 response head"))?
            .to_string();
        self.buf.drain(..head_end);
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("no status code"))?;
        let header = |name: &str| {
            head.lines().skip(1).find_map(|line| {
                let (k, v) = line.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case(name)
                    .then(|| v.trim().to_ascii_lowercase())
            })
        };
        let gzip = header("content-encoding").as_deref() == Some("gzip");
        let close = header("connection").as_deref() == Some("close");
        // Body.
        let body = if header("transfer-encoding").as_deref() == Some("chunked") {
            self.read_chunked(&mut first_byte)?
        } else if let Some(len) = header("content-length") {
            let len: usize = len.parse().map_err(|_| invalid("bad content-length"))?;
            while self.buf.len() < len {
                self.fill(&mut first_byte)?;
            }
            self.buf.drain(..len).collect()
        } else {
            // Close-delimited.
            loop {
                match self.fill(&mut first_byte) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                    Err(e) => return Err(e),
                }
            }
            std::mem::take(&mut self.buf)
        };
        let last_byte = Instant::now();
        if close {
            self.stream = None;
        }
        Ok(Response {
            status,
            gzip,
            body,
            sent,
            first_byte: first_byte.unwrap_or(last_byte),
            last_byte,
        })
    }

    /// Reads more bytes into the buffer, stamping the first arrival.
    fn fill(&mut self, first_byte: &mut Option<Instant>) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream()?.read(&mut chunk)?;
        if n == 0 {
            self.stream = None;
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        first_byte.get_or_insert_with(Instant::now);
        self.got_bytes = true;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Decodes a chunked body incrementally as bytes arrive.
    fn read_chunked(&mut self, first_byte: &mut Option<Instant>) -> io::Result<Vec<u8>> {
        let mut body = Vec::new();
        let mut pos = 0;
        loop {
            let Some(line_len) = self.buf[pos..].windows(2).position(|w| w == b"\r\n") else {
                self.fill(first_byte)?;
                continue;
            };
            let size_text = std::str::from_utf8(&self.buf[pos..pos + line_len])
                .map_err(|_| invalid("bad chunk size"))?;
            let size_text = size_text.split(';').next().unwrap_or("").trim();
            let size =
                usize::from_str_radix(size_text, 16).map_err(|_| invalid("bad chunk size"))?;
            let data_start = pos + line_len + 2;
            // Chunk data plus its CRLF (or, for the last chunk, the
            // terminating blank line).
            while self.buf.len() < data_start + size + 2 {
                self.fill(first_byte)?;
            }
            if size == 0 {
                self.buf.drain(..data_start + 2);
                return Ok(body);
            }
            body.extend_from_slice(&self.buf[data_start..data_start + size]);
            pos = data_start + size + 2;
            if pos > 1 << 20 {
                self.buf.drain(..pos);
                pos = 0;
            }
        }
    }
}
